"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from tracing import METHODS, TARGETS, Tracer  # noqa: E402

import quantale as q  # noqa: E402


def fixture_donkey(name):
    return gen.donkey_world_from_doc(json.loads((FIXTURES / name).read_text()))


@pytest.fixture
def workdir():
    path = BENCH / ".work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


# --- generators ----------------------------------------------------------------

def test_generators_are_deterministic_per_seed():
    for seed in (0, 7):
        a = gen.donkey_world(gen.rng_for("exact-dense", seed), 8, 24, 0.25)
        b = gen.donkey_world(gen.rng_for("exact-dense", seed), 8, 24, 0.25)
        assert a.text() == b.text()
        assert gen.vague_world(gen.rng_for("mc", seed)) == gen.vague_world(gen.rng_for("mc", seed))
        s1 = gen.rsa_states(gen.rng_for("rsa-cli", seed))
        s2 = gen.rsa_states(gen.rng_for("rsa-cli", seed))
        assert [w.text() for w in s1] == [w.text() for w in s2]
    assert (gen.vague_world(gen.rng_for("mc", 1)) != gen.vague_world(gen.rng_for("mc", 2)))


def test_plan_is_deterministic_per_seed(workdir):
    texts = []
    for k in range(2):
        sub = workdir / str(k)
        sub.mkdir()
        plan = run.Plan("exact-vague", 3, 1, 1, ROOT, sub)
        texts.append([Path(p).read_text() for p in plan.doc["worlds"].values()])
        texts[-1] += [Path(r["world"]).read_text() for r in plan.doc["ladders"]]
    assert texts[0] == texts[1]


def test_generated_worlds_parse_with_the_stated_sizes():
    world = gen.donkey_world(gen.rng_for("exact-dense", 1), *run.DENSE_SIZE, run.DENSE_OWN_P)
    model, lexicon = q.parse_world(world.text())
    assert len(model.space.elements) == 36 and len(model.joint) == 192
    vague = gen.vague_world(gen.rng_for("exact-vague", 1))
    model, lexicon = q.parse_world(vague.text())
    assert len(model.space.elements) == 7 and vague.fractional_entries == 14
    assert gen.ladder_world(gen.rng_for("x", 1), 5).fractional_entries == 5


# --- references ----------------------------------------------------------------

def test_donkey_reference_reproduces_fixtures():
    assert ref.donkey_meaning(fixture_donkey("donkey_half.world.json")) == 0.5
    assert ref.donkey_meaning(fixture_donkey("donkey_threequarters.world.json")) == 0.75


@pytest.mark.parametrize("p", [0.1, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("scheme", gen.SCHEMES)
def test_lift_reference_reproduces_red_world(p, scheme):
    # (every (x) true (red x)) and (some ...) over one pixie with psi_red = p.
    assert abs(ref.lift_value([1.0], [p], "every", scheme) - p) <= 1e-15
    assert abs(ref.lift_value([1.0], [p], "some", scheme) - p) <= 1e-15


def test_lift_reference_matches_engine_off_the_breakpoint():
    world = gen.vague_world(gen.rng_for("exact-vague", 11), n_pixies=5)
    model, lexicon = q.parse_world(world.text())
    for kind in gen.VAGUE_KINDS:
        graph = q.parse_prop(gen.quantifier_prop(kind))
        for scheme in gen.SCHEMES:
            got = q.eval_exact(graph, model, lexicon, q.LiftScheme(scheme)).probability
            assert abs(got - ref.lift_value(world.r, world.b, kind, scheme)) <= 1e-12


def test_rsa_reference_agrees_with_criterion_9():
    # Prevalence: generic is 0 in "zero" and 0.5 in "half"; silence is always true.
    l1 = ref.rsa_l1([[0.0, 0.5], [1.0, 1.0]], [0.9, 0.1], [0.0, 0.0], math.inf)
    assert l1[0][0] == 0.0 and l1[0][1] > 0.99
    scenario = q.parse_scenario((FIXTURES / "prevalence.scenario.json").read_text(),
                                base_dir=FIXTURES)
    engine = q.pragmatic_listener(scenario, "generic")
    assert abs(engine["zero"] - l1[0][0]) <= 1e-9 and abs(engine["half"] - l1[0][1]) <= 1e-9

    states = [fixture_donkey(f"donkey_prop{p}.world.json") for p in ("000", "050", "100")]
    donkey = q.parse_scenario((FIXTURES / "donkey.scenario.json").read_text(), base_dir=FIXTURES)
    previous = math.inf
    for alpha in (1.0, 4.0, 32.0):
        meanings = [[ref.donkey_meaning(w) for w in states], [1.0] * 3]
        post = ref.rsa_l1(meanings, [s.prior for s in donkey.states], [0.0, 0.0], alpha)[0]
        assert post[0] == 0.0
        entropy = -sum(p * math.log(p) for p in post if p > 0)
        assert entropy <= previous
        previous = entropy
        engine = q.pragmatic_listener(dataclasses.replace(donkey, alpha=alpha), "donkey")
        assert max(abs(engine[s.id] - p) for s, p in zip(donkey.states, post)) <= 1e-9


def test_every_miss_is_a_failure(workdir):
    plan = run.Plan("exact-vague", 1, 1, 0, ROOT, workdir)
    assert "most" not in {r["kind"] for r in plan.refs}
    j = plan.labels.index("w0/many")
    exact = plan.refs[j]["schemes"]["independent"]
    coupled = plan.refs[j]["schemes"]["coupled-threshold"]
    rec = {"phase": "loop", "i": j, "seed": None, "error": None}
    assert run.check(plan, dict(rec, value=[exact, coupled])) is None
    wrong = run.check(plan, dict(rec, value=[exact + 1e-9, coupled]))
    assert wrong["cause"] == "unexplained"
    raised = run.check(plan, dict(rec, value=None, error="ValueError: x"))
    assert raised["cause"] == "raised"


def test_most_probes_count_the_known_defect(workdir):
    plan = run.Plan("mc", 1, 1, 1, ROOT, workdir)
    assert len(plan.doc["probes"]) == len(plan.probe_refs) == 2 * run.MOST_PROBE_WORLDS
    (strict, tie_true), (coupled, _) = plan.probe_refs[:2]
    assert strict != tie_true
    rest = [{"value": s, "error": None} for s, _ in plan.probe_refs[2:]]
    failures = []
    hits = run.check_probes(plan, [{"value": strict, "error": None},
                                   {"value": coupled, "error": None}] + rest, failures)
    assert hits == [] and failures == []
    hits = run.check_probes(plan, [{"value": (strict + tie_true) / 2, "error": None},
                                   {"value": None, "error": "ValueError: x"}] + rest, failures)
    assert [h["cause"] for h in hits] == [ref.MOST_CAUSE]
    hits = run.check_probes(plan, [{"value": max(strict, tie_true) + 0.1, "error": None},
                                   {"value": coupled, "error": None}] + rest, failures)
    assert hits == []
    assert [f["cause"] for f in failures] == ["unexplained", "unexplained"]


def test_tail_has_ten_samples_beyond_it():
    value, rank, n = run.tail([float(k) for k in range(100)])
    assert (value, rank, n) == (89.0, 90, 100)
    assert sum(x > value for x in range(100)) == 10


# --- tracing --------------------------------------------------------------------

def wrapped_names():
    names = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name == "quantale" or mod_name.startswith("quantale."):
            for attr, value in vars(mod).items():
                if callable(value):
                    names[(mod_name, attr)] = value
    for _, module, cls_name, methods in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        for m in methods:
            names[(cls_name, m)] = cls.__dict__[m]
    return names


def test_traced_run_matches_untraced_and_restores(workdir):
    import quantale.cli  # noqa: F401

    results = {}
    for name in ("exact-dense", "exact-vague", "mc", "rsa-cli"):
        sub = workdir / name
        sub.mkdir()
        plan = run.Plan(name, 2, 1, 0, ROOT, sub).doc
        runner = workload.Runner(q, plan, workload.Inputs(q, plan))
        results[name] = (plan, [runner.run(i, True) for i in range(2)])

    before = wrapped_names()
    tracer = Tracer()
    tracer.install()
    try:
        assert q.engine.eval_exact is not before[("quantale.engine", "eval_exact")]
        traced = {}
        for name, (plan, _) in results.items():
            runner = workload.Runner(q, plan, workload.Inputs(q, plan))
            traced[name] = [tracer.op(runner.run, i, True) for i in range(2)]
    finally:
        tracer.restore()
    after = wrapped_names()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    for name, (_, untraced) in results.items():
        assert traced[name] == untraced, name

    summary = tracer.summary()
    for layer, _, _ in TARGETS:
        assert summary[layer]["calls"] > 0, layer
    assert summary["rsa.meaning"]["calls"] == 2 * 100
    assert len(tracer.meaning_keys) == 2 * 20
    for key, row in summary.items():
        assert row["self_s"] <= row["s"] + 1e-9, key


# --- the harness end to end ---------------------------------------------------------

def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_untraced_result_line_has_the_contract_keys():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = bench("--workload", "exact-dense", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_directory_without_the_package(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    shutil.copytree(BENCH, workdir / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = bench("--workload", "mc", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=workdir)
    assert out.returncode != 0
    assert out.stdout == ""
