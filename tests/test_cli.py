import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from quantale.cli import main
from quantale.quant import QuantifierKind, shape_value

from conftest import FIXTURES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_exact_golden(capsys):
    code, out, err = run_cli(
        capsys,
        "eval",
        "--world", str(FIXTURES / "red.world.json"),
        "--prop", str(FIXTURES / "every_red.prop"),
    )
    assert code == 0
    assert out == '{"engine": "exact", "probability": 0.7, "scheme": "independent"}\n'
    assert err == ""


def test_eval_naive_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--world", str(FIXTURES / "red.world.json"),
        "--prop", str(FIXTURES / "every_red.prop"),
        "--engine", "naive",
    )
    assert code == 0
    assert out == '{"engine": "naive", "probability": 0.0}\n'


def test_eval_scheme_warning_for_naive(capsys):
    code, _, err = run_cli(
        capsys,
        "eval",
        "--world", str(FIXTURES / "red.world.json"),
        "--prop", str(FIXTURES / "every_red.prop"),
        "--engine", "naive",
        "--scheme", "coupled-threshold",
    )
    assert code == 0
    assert "ignored" in err


def test_eval_mc_deterministic(capsys):
    argv = [
        "eval",
        "--world", str(FIXTURES / "red.world.json"),
        "--prop", str(FIXTURES / "some_red.prop"),
        "--engine", "mc",
        "--samples", "500",
        "--seed", "11",
    ]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert first[0] == 0
    doc = json.loads(first[1])
    assert doc["engine"] == "mc"
    assert doc["samples"] == 500
    assert doc["seed"] == 11
    assert doc["ci"][0] <= doc["probability"] <= doc["ci"][1]


def test_eval_mc_seed_from_environment(capsys, monkeypatch):
    argv = [
        "eval",
        "--world", str(FIXTURES / "red.world.json"),
        "--prop", str(FIXTURES / "some_red.prop"),
        "--engine", "mc",
        "--samples", "500",
    ]
    monkeypatch.setenv("QUANTALE_SEED", "11")
    from_env = run_cli(capsys, *argv)
    explicit = run_cli(capsys, *argv, "--seed", "11")
    assert from_env == explicit


def test_eval_mc_requires_samples_and_seed(capsys, monkeypatch):
    monkeypatch.delenv("QUANTALE_SEED", raising=False)
    code, out, err = run_cli(
        capsys,
        "eval",
        "--world", str(FIXTURES / "red.world.json"),
        "--prop", str(FIXTURES / "some_red.prop"),
        "--engine", "mc",
    )
    assert code == 2
    assert out == ""
    assert "--samples" in err and "--seed" in err


NEEDS_SEED = "the mc engine requires --samples and --seed (or QUANTALE_SEED)"


@pytest.mark.parametrize(
    "extra, env, message",
    [
        (("--samples", "0", "--seed", "1"), None, "--samples must be at least 1, got 0"),
        (("--samples", "-5", "--seed", "1"), None, "--samples must be at least 1, got -5"),
        (("--samples", "10", "--seed", "-1"), None, "the seed must be non-negative, got -1"),
        (("--samples", "10"), "-1", "the seed must be non-negative, got -1"),
        (("--samples", "10"), "abc", "QUANTALE_SEED must be an integer, got 'abc'"),
        ((), None, NEEDS_SEED),
        (("--seed", "1"), None, NEEDS_SEED),
        (("--samples", "5"), None, NEEDS_SEED),
        (("--seed", "-2"), "3", NEEDS_SEED),
        (("--samples", "0"), "abc", "QUANTALE_SEED must be an integer, got 'abc'"),
        (("--samples", "0", "--seed", "2"), "abc", "--samples must be at least 1, got 0"),
        (("--samples", "0", "--seed", "-2"), None, "--samples must be at least 1, got 0"),
    ],
)
def test_eval_mc_rejects_unusable_samples_and_seed(capsys, monkeypatch, extra, env, message):
    if env is None:
        monkeypatch.delenv("QUANTALE_SEED", raising=False)
    else:
        monkeypatch.setenv("QUANTALE_SEED", env)
    code, out, err = run_cli(
        capsys,
        "eval",
        "--world", str(FIXTURES / "red.world.json"),
        "--prop", str(FIXTURES / "some_red.prop"),
        "--engine", "mc",
        *extra,
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flag", ["--cap-configs", "--cap-vague-nodes"])
def test_eval_rejects_negative_caps(capsys, flag):
    argv = ["eval", "--world", str(FIXTURES / "red.world.json"),
            "--prop", str(FIXTURES / "every_red.prop")]
    code, out, err = run_cli(capsys, *argv, flag, "-1")
    assert (code, out, err) == (2, "", f"error: {flag} must be non-negative, got -1\n")
    # a cap of 0 is a cap, not a mistake
    code, out, err = run_cli(capsys, *argv, "--engine", "naive", flag, "0")
    assert (code, out, err) == (0, '{"engine": "naive", "probability": 0.0}\n', "")


CRISP_DONKEYS = ["donkey_half", "donkey_prop000", "donkey_prop050", "donkey_prop100",
                 "donkey_threequarters"]


@pytest.mark.parametrize("scheme", ["independent", "coupled-threshold"])
@pytest.mark.parametrize("world", CRISP_DONKEYS)
def test_cap_of_zero_passes_one_configuration(capsys, world, scheme):
    # a crisp world lifts to one configuration, which enumerates nothing
    argv = ["eval", "--world", str(FIXTURES / f"{world}.world.json"),
            "--prop", str(FIXTURES / "donkey.prop"), "--scheme", scheme]
    default = run_cli(capsys, *argv)
    assert default[0] == 0
    assert run_cli(capsys, *argv, "--cap-configs", "0") == default


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--cap-configs", "0"), "independent lift needs 4 count states (cap 0)"),
        (("--cap-configs", "0", "--scheme", "coupled-threshold"),
         "coupled-threshold lift needs 3 configurations (cap 0)"),
        (("--cap-vague-nodes", "0"), "1 vague quantifier node exceeds the cap of 0"),
    ],
)
def test_cap_of_zero_stops_vague_lifts(capsys, extra, message):
    argv = ["eval", "--world", str(FIXTURES / "dog_barks.world.json"),
            "--prop", str(FIXTURES / "dog_barks.prop")]
    assert run_cli(capsys, *argv, *extra) == (2, "", f"error: {message}\n")


BLUE_W = [
    "unknown predicate 'blue' at node 1",
    "unknown variable 'w' at node 1",
    "root has free variables {w}",
]
BLUE_W_JSON = ", ".join(f'{{"message": "{m}", "severity": "error"}}' for m in BLUE_W)
BLUE_W_ERR = "".join(f"error: {m}\n" for m in BLUE_W)


@pytest.mark.parametrize(
    "extra, expected",
    [
        # check prints a bare list of the diagnostics
        (("check",), (1, f"[{BLUE_W_JSON}]\n", BLUE_W_ERR)),
        # the ignored-scheme warning comes before the diagnostics
        (("eval", "--engine", "naive", "--scheme", "independent"),
         (1, f'{{"diagnostics": [{BLUE_W_JSON}]}}\n',
          "warning: --scheme is ignored by the naive engine\n" + BLUE_W_ERR)),
        # a seed error comes before validation
        (("eval", "--engine", "mc"), (2, "", f"error: {NEEDS_SEED}\n")),
    ],
)
def test_validation_diagnostics_golden(capsys, monkeypatch, tmp_path, extra, expected):
    monkeypatch.delenv("QUANTALE_SEED", raising=False)
    blue = tmp_path / "blue.prop"
    blue.write_text("(every (x) true (blue w))")
    argv = ("--world", str(FIXTURES / "red.world.json"), "--prop", str(blue))
    assert run_cli(capsys, *extra, *argv) == expected


def test_eval_csv_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--world", str(FIXTURES / "red.world.json"),
        "--prop", str(FIXTURES / "every_red.prop"),
        "--output", "csv",
    )
    assert code == 0
    header, row, trailer = out.split("\n")
    assert header == "engine,probability,scheme"
    assert row == '"exact",0.7,"independent"'
    assert trailer == ""


def test_eval_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.prop"
    bad.write_text("(every (x) true)")
    code, out, err = run_cli(
        capsys,
        "eval",
        "--world", str(FIXTURES / "red.world.json"),
        "--prop", str(bad),
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["diagnostics"][0]["severity"] == "error"
    assert "line" in doc["diagnostics"][0]
    assert err != ""


def test_eval_validation_error_exit_code(capsys, tmp_path):
    mismatched = tmp_path / "blue.prop"
    mismatched.write_text("(every (x) true (blue x))")
    code, out, err = run_cli(
        capsys,
        "eval",
        "--world", str(FIXTURES / "red.world.json"),
        "--prop", str(mismatched),
    )
    assert code == 1
    assert "unknown predicate 'blue'" in err


def test_eval_missing_file(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "eval",
        "--world", str(tmp_path / "nope.world.json"),
        "--prop", str(FIXTURES / "every_red.prop"),
    )
    assert code == 1
    assert "error" in err
    # a directory and an undecodable file are unreadable inputs too, for
    # every command that reads files
    undecodable = tmp_path / "bad.json"
    undecodable.write_bytes(b'{"pixies": ["\xff"]}')
    for bad in (tmp_path, undecodable):
        for argv in (
            ("eval", "--world", str(bad), "--prop", str(FIXTURES / "every_red.prop")),
            ("check", "--world", str(FIXTURES / "red.world.json"), "--prop", str(bad)),
            ("rsa", "--scenario", str(bad), "--agent", "l0", "--utterance", "u"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_eval_generic_fast_rejects_precise(capsys):
    code, _, err = run_cli(
        capsys,
        "eval",
        "--world", str(FIXTURES / "red.world.json"),
        "--prop", str(FIXTURES / "every_red.prop"),
        "--engine", "generic-fast",
    )
    assert code == 2
    assert "error" in err


def test_curve_golden(capsys):
    code, out, _ = run_cli(capsys, "curve", "--kind", "most", "--points", "5")
    assert code == 0
    assert out == (
        "ratio,value\n"
        "0.0,0.0\n"
        "0.25,0.0\n"
        "0.5,0.0\n"
        "0.75,1.0\n"
        "1.0,1.0\n"
    )


@pytest.mark.parametrize("kind", [k.value for k in QuantifierKind])
def test_curve_matches_the_scalar_shape(capsys, kind):
    for points in (2, 3, 7, 101):
        ratios = [i / (points - 1) for i in range(points)]
        expected = "ratio,value\n" + "".join(
            f"{r!r},{shape_value(QuantifierKind(kind), r)!r}\n" for r in ratios)
        assert run_cli(capsys, "curve", "--kind", kind, "--points", str(points)) == (
            0, expected, "")


def test_curve_is_written_in_bounded_memory(capsys, monkeypatch):
    # the CSV goes out in blocks of CHUNK_CELLS points: past one block it is
    # the direct computation, and 100,000 points stay far below the 85 B a
    # point that building every ratio and value at once costs
    from quantale.engine import CHUNK_CELLS

    points = CHUNK_CELLS + 3
    expected = "ratio,value\n" + "".join(
        f"{r!r},{shape_value(QuantifierKind.FEW, r)!r}\n"
        for r in (i / (points - 1) for i in range(points)))
    assert run_cli(capsys, "curve", "--kind", "few", "--points", str(points)) == (0, expected, "")
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert main(["curve", "--kind", "many", "--points", "100000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 100_000 * 30


def test_curve_unknown_kind(capsys):
    code, _, err = run_cli(capsys, "curve", "--kind", "bogus", "--points", "3")
    assert code == 1
    assert "unknown quantifier kind" in err


def test_curve_needs_two_points(capsys):
    code, out, err = run_cli(capsys, "curve", "--kind", "most", "--points", "1")
    assert (code, out, err) == (1, "", "error: --points must be at least 2\n")


def test_check_valid(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--world", str(FIXTURES / "donkey_half.world.json"),
        "--prop", str(FIXTURES / "donkey.prop"),
    )
    assert code == 0
    assert out == "[]\n"


def test_check_invalid(capsys, tmp_path):
    open_prop = tmp_path / "open.prop"
    open_prop.write_text("(red x)")
    code, out, err = run_cli(
        capsys,
        "check",
        "--world", str(FIXTURES / "red.world.json"),
        "--prop", str(open_prop),
    )
    assert code == 1
    doc = json.loads(out)
    assert any("root has free variables" in d["message"] for d in doc)


def test_rsa_l0_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "rsa",
        "--scenario", str(FIXTURES / "prevalence.scenario.json"),
        "--agent", "l0",
        "--utterance", "generic",
    )
    assert code == 0
    assert json.loads(out) == {"support": ["zero", "half"], "probs": [0.0, 1.0]}


def test_rsa_s1(capsys):
    code, out, _ = run_cli(
        capsys,
        "rsa",
        "--scenario", str(FIXTURES / "prevalence.scenario.json"),
        "--agent", "s1",
        "--state", "half",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["support"] == ["generic", "silence"]
    assert doc["probs"] == [1.0, 0.0]


def test_rsa_l1_verbose(capsys):
    code, out, _ = run_cli(
        capsys,
        "rsa",
        "--scenario", str(FIXTURES / "donkey.scenario.json"),
        "--agent", "l1",
        "--utterance", "donkey",
        "--verbose",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["support"] == ["prop000", "prop050", "prop100"]
    assert doc["probs"][0] == 0.0
    assert doc["meanings"]["donkey"]["prop050"] == 0.5


def test_rsa_missing_argument(capsys):
    code, _, err = run_cli(
        capsys,
        "rsa",
        "--scenario", str(FIXTURES / "prevalence.scenario.json"),
        "--agent", "l0",
    )
    assert code == 2
    assert "--utterance" in err


def test_rsa_unknown_utterance(capsys):
    code, _, err = run_cli(
        capsys,
        "rsa",
        "--scenario", str(FIXTURES / "prevalence.scenario.json"),
        "--agent", "l0",
        "--utterance", "nope",
    )
    assert code == 1
    assert "unknown utterance" in err


def test_rsa_utterance_false_in_every_state(capsys, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "states": [{"id": "none", "prior": 1.0,
                    "world": str(FIXTURES / "donkey_prop000.world.json")}],
        "utterances": [{"id": "donkey", "prop": str(FIXTURES / "donkey.prop")}],
    }))
    code, out, err = run_cli(
        capsys, "rsa", "--scenario", str(scenario), "--agent", "l0", "--utterance", "donkey"
    )
    assert (code, out) == (2, "")
    assert err == "error: utterance 'donkey' is false in every state\n"


def test_rsa_overflowing_priors_are_a_diagnostic(capsys, tmp_path):
    # two priors of 1e308 overflow their sum: a scenario diagnostic, not a
    # traceback
    scenario = tmp_path / "scenario.json"
    world = str(FIXTURES / "red.world.json")
    scenario.write_text(json.dumps({
        "states": [{"id": "a", "prior": 1e308, "world": world},
                   {"id": "b", "prior": 1e308, "world": world}],
        "utterances": [{"id": "u", "prop": "true"}],
    }))
    code, out, err = run_cli(capsys, "rsa", "--scenario", str(scenario), "--agent", "l0",
                             "--utterance", "u")
    assert code == 1
    assert err == "error: state priors sum to inf ≠ 1 (line 1, column 12)\n"
    assert [d["message"] for d in json.loads(out)["diagnostics"]] == [
        "state priors sum to inf ≠ 1"]


def test_deep_nesting_is_a_diagnostic(capsys, tmp_path):
    # far deeper than the readers could recurse: a positioned diagnostic on
    # stderr and stdout, exit 1, for a world, a prop and a scenario's prop
    message = "nesting deeper than 100 levels"
    world = tmp_path / "deep.world.json"
    world.write_text("[" * 3000 + "]" * 3000)
    deep = "(every (x) true " + "(and " * 500 + "(red x)" + ")" * 501
    prop = tmp_path / "deep.prop"
    prop.write_text(deep)
    scenario = tmp_path / "deep.scenario.json"
    scenario.write_text(
        '{\n  "states": [{"id": "s", "prior": 1.0, "world": "%s"}],\n'
        '  "utterances": [{"id": "u", "prop": "%s"}]\n}' % (FIXTURES / "red.world.json", deep)
    )
    for argv, diagnostic, line, column in [
        (("check", "--world", str(world), "--prop", str(FIXTURES / "every_red.prop")),
         message, 1, 101),
        (("eval", "--world", str(world), "--prop", str(FIXTURES / "every_red.prop")),
         message, 1, 101),
        (("eval", "--world", str(FIXTURES / "red.world.json"), "--prop", str(prop)),
         message, 1, 512),
        (("rsa", "--scenario", str(scenario), "--agent", "l0", "--utterance", "u"),
         f"in inline proposition: {message}", 3, 38),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err == f"error: {diagnostic} (line {line}, column {column})\n", argv
        document = json.loads(out)
        diagnostics = document if argv[0] == "check" else document["diagnostics"]
        assert [(d["message"], d["line"], d["column"]) for d in diagnostics] == [
            (diagnostic, line, column)], argv


def test_console_entry_point():
    # the child sees the package under test whether or not it is installed
    path = (str(FIXTURES.parent / "src"), os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, "-m", "quantale.cli", "curve", "--kind", "generic",
         "--points", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == "ratio,value\n0.0,0.0\n1.0,1.0\n"
