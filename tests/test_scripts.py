import json
import os
import re
import subprocess
import sys

import pytest

from conftest import FIXTURES

ROOT = FIXTURES.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("triviality_demo.py", ()),
        ("donkey_readings.py", ()),
        ("generic_gap.py", ("--trials", "20", "--pixies", "40")),
        ("count_cliff.py", ("--pixies", "4", "6", "--repeat", "1")),
    ],
)
def test_demo_script_runs(script, args):
    # the demos that README advertises run to completion on the package under test
    path = (str(ROOT / "src"), os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    if script == "count_cliff.py":
        # each world's column holds a time and a tracemalloc peak; the last,
        # 22 predicates on the same pixies, ends the line
        rows = result.stdout.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["4", "6"]
        cell = r"\d+\.\d\d ms +\d+\.\d\d MB"
        assert all(re.fullmatch(rf" +\d+(  +{cell}){{3}}", row) for row in rows), result.stdout


def test_bench_ab_summarises_pairs(monkeypatch, capsys):
    # medians per side, their ratio, and the pairs the working tree won,
    # by each metric's direction
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
    bench_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ab)

    def doc(p50, ops, correct=True):
        return {"correct": correct, "metrics": {"op_p50_s": {"value": p50},
                                                "ops_per_s": {"value": ops}}}

    pairs = [(doc(4.0, 100.0), doc(3.0, 120.0)), (doc(5.0, 90.0), doc(5.0, 80.0)),
             (doc(6.0, 110.0), doc(3.0, 150.0, correct=False))]
    end_to_end = [{"name": "op_p50_s", "better": "lower", "bound": 0.25},
                  {"name": "ops_per_s", "better": "higher", "bound": 0.2}]
    summary = bench_ab.summarise(pairs, end_to_end)
    assert summary["pairs"] == 3
    assert summary["correct"] == {"base": True, "work": False}
    assert summary["regressed"] == summary["gained"] == []
    # quartiles of (4, 5, 6) by the exclusive method: 4 and 6
    assert summary["metrics"]["op_p50_s"] == {"base": 5.0, "work": 3.0, "ratio": 0.6,
                                              "base_iqr": 2.0, "work_better": 2,
                                              "beyond_bound": False, "gain": False}
    assert summary["metrics"]["ops_per_s"] == {"base": 100.0, "work": 120.0, "ratio": 1.2,
                                               "base_iqr": 20.0, "work_better": 2,
                                               "beyond_bound": False, "gain": False}
    # a gain: work better in at least 9/10 of the pairs, ties counting for
    # neither side, and its median better by more than the base IQR (2 and
    # 20 over these three pairs' base sides)
    for works, gained in (([(2.9, 121.0)] * 3, ["op_p50_s", "ops_per_s"]),
                          ([(3.0, 120.0)] * 3, []),  # better by exactly the IQR
                          ([(2.9, 121.0)] * 2 + [(6.0, 110.0)], []),  # a tie in each
                          ([(2.9, 121.0)] * 2 + [(6.0, 200.0)], ["ops_per_s"])):
        summary = bench_ab.summarise([(b, doc(*w)) for (b, _), w in zip(pairs, works)],
                                     end_to_end)
        assert summary["gained"] == gained, works
        assert [m for m, v in summary["metrics"].items() if v["gain"]] == gained
    # 9 of 10 pairs better is a gain, 8 of 10 is not
    base = [doc(5.0 + k / 10, 100.0) for k in range(10)]
    for wins, gained in ((9, ["op_p50_s"]), (8, [])):
        works = [doc(1.0 if k < wins else 9.0, 100.0) for k in range(10)]
        assert bench_ab.summarise(list(zip(base, works)), end_to_end)["gained"] == gained
    # a work median worse by more than the relative bound is flagged; worse
    # by exactly the bound (5 -> 6.25, 100 -> 80) is not
    for p50, ops, regressed in ((6.25, 80.0, []), (6.26, 80.0, ["op_p50_s"]),
                                (6.0, 79.9, ["ops_per_s"]),
                                (7.0, 50.0, ["op_p50_s", "ops_per_s"])):
        worse = [(b, doc(p50, ops)) for b, _ in pairs]
        summary = bench_ab.summarise(worse, end_to_end)
        assert summary["regressed"] == regressed, (p50, ops)
        assert summary["gained"] == []
        assert [m for m, v in summary["metrics"].items() if v["beyond_bound"]] == regressed

    # main: one line per workload, BENCHMARK.json's four by default, sides
    # alternating which goes first
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = []

    def fake_run(tree, workload, seed, seconds):
        work = tree == ROOT
        calls.append((work, workload, seed))
        assert seconds == bench["run_seconds"]
        values = {m["name"]: 1.0 if work else 2.0 for m in bench["end_to_end"]}
        return {"correct": True, "metrics": {n: {"value": v} for n, v in values.items()}}

    monkeypatch.setattr(bench_ab, "extract", lambda rev, into: None)
    monkeypatch.setattr(bench_ab, "run_bench", fake_run)
    assert bench_ab.main(["--base", "HEAD", "--seeds", "3", "4"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    names = [w["name"] for w in bench["workloads"]]
    assert [line["workload"] for line in lines] == names == ["exact-dense", "exact-vague",
                                                              "mc", "rsa-cli"]
    assert calls == [(work, name, seed) for name in names
                     for seed, first in ((3, False), (4, True)) for work in (first, not first)]
    for line in lines:
        assert (line["base"], line["seeds"], line["pairs"]) == ("HEAD", [3, 4], 2)
        assert line["metrics"]["op_p50_s"]["work_better"] == 2
        assert line["metrics"]["ops_per_s"]["work_better"] == 0
        assert set(line["metrics"]) == {m["name"] for m in bench["end_to_end"]}
        # work: every metric at 1.0 against the base's 2.0
        assert line["regressed"] == [m["name"] for m in bench["end_to_end"]
                                     if m["better"] == "higher"]
    calls.clear()
    assert bench_ab.main(["--base", "HEAD", "--workload", "mc", "exact-dense", "--seeds", "5"]) == 0
    assert [json.loads(line)["workload"] for line in capsys.readouterr().out.splitlines()] == [
        "mc", "exact-dense"]
    assert [workload for _, workload, _ in calls] == ["mc", "mc", "exact-dense", "exact-dense"]


def test_src_lines_counts_code_and_docstring_lines():
    # the total that the ROADMAP quotes: every line of src/quantale/*.py
    # that is neither blank nor only a comment
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "src_lines.py")],
                            capture_output=True, text=True, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    modules = sorted((ROOT / "src" / "quantale").glob("*.py"))
    assert [name for name, _ in rows] == [m.name for m in modules] + ["total"]
    direct = [sum(1 for line in m.read_text().splitlines()
                  if line.strip() and not line.strip().startswith("#")) for m in modules]
    assert [int(n) for _, n in rows] == direct + [sum(direct)]
