"""Benchmark harness for quantale.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact-dense --seed 1 --seconds 20 --trace 0

The harness generates the workload's inputs from ``--seed``, computes an
independent reference for every operation, starts the workload process
(``bench/workload.py``) against the checkout's ``src/quantale`` and
checks every result it returns.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  The line
before the last is a JSON report (environment, tail rank, failures); the
last line is the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference as ref  # noqa: E402
from workload import CALIBRATION_NOMINAL_S, CYCLE, calibrate  # noqa: E402

WORKLOADS = ("exact-dense", "exact-vague", "mc", "rsa-cli")
DENSE_SIZE = (8, 24)           # farmers x donkeys: 36 pixies, 192 rows
DENSE_OWN_P = 0.25
POOL_WORLDS = {"exact-dense": 4, "exact-vague": 4, "mc": 16}
MC_SAMPLES = 10_000
RSA_ALPHA = 4.0
SETUP_PROBES = 6               # set-ups measured besides the workload's own
CHILD_TIMEOUT = 170
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

LADDER_PIXIES = ((2, 4), (4, 8), (6, 12), (8, 24), (10, 30))
LADDER_FRACTIONAL = (2, 4, 6, 8, 10, 12, 14)
LADDER_MC_SAMPLES = (1000, 3000, 10_000, 30_000)
MOST_PROBE_WORLDS = 4

class BenchError(Exception):
    """The benchmark cannot run in this directory."""


# --- plans and references ------------------------------------------------------

class Plan:
    """Inputs written under ``workdir``, the child's plan and the references."""

    def __init__(self, workload, seed, seconds, trace, root: Path, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.donkey_prop = (root / "fixtures" / "donkey.prop").read_text()
        self.refs = []       # per pool op: reference data for ``check``
        self.labels = []     # per pool op: a short description
        self.ladder_refs = {}
        self.probe_refs = []  # per probe: (strict value, value with ties true)
        self.doc = {
            "workload": workload, "seconds": seconds, "trace": trace,
            "src": str(root / "src"), "workdir": str(workdir),
            "worlds": {}, "props": {}, "scenario": None, "ops": [],
            "setup_only": False, "ladders": [], "probes": [],
            "mc_seed_base": seed * 100_003 % 2**31,
        }
        build = {"exact-dense": self._exact_dense, "exact-vague": self._vague_pool,
                 "mc": self._vague_pool, "rsa-cli": self._rsa_cli}[workload]
        build(gen.rng_for(workload, seed))
        if len(self.doc["ops"]) % CYCLE:
            raise ValueError(f"{workload}: operations do not form whole cycles of {CYCLE}")
        if trace:
            self._ladders(gen.rng_for(workload, seed, stream=1))
            self._most_probes(gen.rng_for(workload, seed, stream=2))

    def _file(self, name, text):
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def _exact_dense(self, rng):
        self.doc["props"]["donkey"] = self._file("donkey.prop", self.donkey_prop)
        for k in range(POOL_WORLDS[self.workload]):
            world = gen.donkey_world(rng, *DENSE_SIZE, DENSE_OWN_P)
            wid = f"w{k}"
            self.doc["worlds"][wid] = self._file(f"{wid}.world.json", world.text())
            self.doc["ops"].append({"world": wid, "prop": "donkey"})
            self.refs.append({"value": ref.donkey_meaning(world)})
            self.labels.append(f"{wid}/donkey")

    def _vague_pool(self, rng):
        for kind in gen.VAGUE_KINDS:
            self.doc["props"][kind] = self._file(f"{kind}.prop", gen.quantifier_prop(kind))
        for k in range(POOL_WORLDS[self.workload]):
            world = gen.vague_world(rng)
            wid = f"w{k}"
            self.doc["worlds"][wid] = self._file(f"{wid}.world.json", world.text())
            for kind in gen.VAGUE_KINDS:
                self.doc["ops"].append({"world": wid, "prop": kind, "samples": MC_SAMPLES})
                self.refs.append({
                    "kind": kind,
                    "schemes": {s: ref.lift_value(world.r, world.b, kind, s) for s in gen.SCHEMES},
                })
                self.labels.append(f"{wid}/{kind}")

    def _rsa_cli(self, rng):
        states = gen.rsa_states(rng)
        path = gen.write_rsa_scenario(self.workdir / "rsa", states, self.donkey_prop, RSA_ALPHA)
        self.doc["scenario"] = str(path)
        priors = [1.0 / len(states)] * len(states)
        exact = ref.rsa_reference(states, gen.RSA_UTTERANCES, priors, RSA_ALPHA)
        alt = ref.rsa_reference(states, gen.RSA_UTTERANCES, priors, RSA_ALPHA, True)
        for u in gen.RSA_UTTERANCES:
            self.doc["ops"].append({"utterance": u})
            self.refs.append({"kind": u, "probs": exact[u], "alt": alt[u],
                              "support": [f"s{k}" for k in range(len(states))]})
            self.labels.append(f"l1/{u}")

    def _ladders(self, rng):
        lad = self.workdir / "ladder"
        lad.mkdir()
        every = gen.quantifier_prop("every")
        for farmers, donkeys in LADDER_PIXIES:
            world = gen.donkey_world(rng, farmers, donkeys, DENSE_OWN_P)
            name = f"ladder.pixies.{len(world.pixies)}.s"
            self._rung(name, world.text(), self.donkey_prop, "exact", "independent",
                       3 if len(world.pixies) < 30 else 1, ref.donkey_meaning(world))
        for n in LADDER_FRACTIONAL:
            world = gen.ladder_world(rng, n)
            for scheme, tag in (("independent", "frac_independent"),
                                ("coupled-threshold", "frac_coupled")):
                reps = 1 if scheme == "independent" and n >= 12 else 3
                self._rung(f"ladder.{tag}.{n}.s", world.text(), every, "exact", scheme,
                           reps, ref.lift_value(world.r, world.b, "every", scheme))
        world = gen.vague_world(rng)
        many = gen.quantifier_prop("many")
        expected = ref.lift_value(world.r, world.b, "many", "independent")
        for n in LADDER_MC_SAMPLES:
            self._rung(f"ladder.mc_samples.{n}.s", world.text(), many, "mc", "independent",
                       3 if n < 10_000 else 1, expected, samples=n, seed=self.seed + n)

    def _most_probes(self, rng):
        """``most`` over vague worlds under both schemes, to count how often
        the known most-breakpoint defect shows; not a timed operation."""
        prop = self._file("probe-most.prop", gen.quantifier_prop("most"))
        for k in range(MOST_PROBE_WORLDS):
            world = gen.vague_world(rng)
            path = self._file(f"probe{k}.world.json", world.text())
            for scheme in gen.SCHEMES:
                self.doc["probes"].append({"world": path, "prop": prop, "scheme": scheme})
                self.probe_refs.append(tuple(ref.lift_value(world.r, world.b, "most", scheme, tie)
                                             for tie in (False, True)))

    def _rung(self, name, world_text, prop, engine, scheme, reps, expected, **mc):
        path = self._file(f"ladder/{name}.world.json", world_text)
        self.doc["ladders"].append({"name": name, "world": path, "prop": prop,
                                    "engine": engine, "scheme": scheme, "reps": reps, **mc})
        self.ladder_refs[name] = (engine, expected, mc.get("samples"))

    def write(self, **overrides) -> Path:
        doc = dict(self.doc, **overrides)
        path = self.workdir / ("plan-setup.json" if doc["setup_only"] else "plan.json")
        path.write_text(json.dumps(doc))
        return path


def check(plan: Plan, rec) -> dict | None:
    """None if the operation matched its reference, else a failure record."""
    j = rec["i"] % len(plan.refs)
    r = plan.refs[j]
    fail = {"phase": rec["phase"], "op": rec["i"], "input": plan.labels[j]}
    if rec["error"]:
        return dict(fail, error=rec["error"], cause="raised")
    value = rec["value"]
    if plan.workload == "exact-dense":
        diff = abs(value[0] - r["value"])
        if diff <= ref.EXACT_TOL:
            return None
        return dict(fail, got=value[0], expected=r["value"], diff=diff, cause="unexplained")
    if plan.workload in ("exact-vague", "mc"):
        misses = []
        for got, scheme in zip(value, gen.SCHEMES):
            exact = r["schemes"][scheme]
            tol = (ref.MC_SIGMAS * ref.mc_sigma(exact, MC_SAMPLES) if plan.workload == "mc"
                   else ref.EXACT_TOL)
            if abs(got - exact) > tol:
                misses.append({"scheme": scheme, "got": got, "expected": exact,
                               "diff": abs(got - exact), "seed": rec["seed"]})
        return dict(fail, misses=misses, cause="unexplained") if misses else None
    # rsa-cli
    out = value
    if out["rc"] != 0:
        return dict(fail, error=f"exit code {out['rc']}", cause="raised")
    try:
        doc = json.loads(out["stdout"])
        support, probs = doc["support"], doc["probs"]
    except (ValueError, KeyError, TypeError):
        return dict(fail, error="stdout is not an L1 posterior", cause="unexplained")
    if support != r["support"]:
        return dict(fail, error="support differs", cause="unexplained")
    diff = max(abs(a - b) for a, b in zip(probs, r["probs"]))
    if diff <= ref.RSA_TOL:
        return None
    alt_diff = max(abs(a - b) for a, b in zip(probs, r["alt"]))
    cause = ref.MOST_CAUSE if r["kind"] == "most" and alt_diff <= ref.RSA_TOL else "unexplained"
    return dict(fail, got=probs, expected=r["probs"], diff=diff, cause=cause)


def check_identical(records, failures):
    """rsa-cli: every repeat of an operation prints byte-identical output."""
    first = {}
    for rec in records:
        if rec["error"] or not isinstance(rec["value"], dict):
            continue
        key = rec["i"] % len(gen.RSA_UTTERANCES)
        text = rec["value"]["stdout"]
        if first.setdefault(key, text) != text:
            failures.append({"phase": rec["phase"], "op": rec["i"],
                             "error": "stdout differs from an earlier repeat",
                             "cause": "unexplained"})


def check_ladders(plan: Plan, ladders, failures):
    for rung in ladders:
        engine, expected, samples = plan.ladder_refs[rung["name"]]
        if rung["error"]:
            ok = False
        elif engine == "mc":
            ok = ref.mc_within(rung["value"], expected, samples)
        else:
            ok = abs(rung["value"] - expected) <= ref.EXACT_TOL
        if not ok:
            failures.append({"phase": "ladder", "input": rung["name"], "got": rung["value"],
                             "expected": expected, "error": rung["error"],
                             "cause": "unexplained"})


def check_probes(plan: Plan, probes, failures) -> list[dict]:
    """The probes that hit the known most-breakpoint defect: their result
    misses the strict reference but lies between it and the one with every
    tie true (the defect flips some ties).  A probe that raises or lies
    outside that range is a failure."""
    hits = []
    for k, (probe, (strict, tie_true)) in enumerate(zip(probes, plan.probe_refs)):
        got = probe["value"]
        entry = {"phase": "probe", "op": k, "input": plan.doc["probes"][k]["scheme"],
                 "got": got, "expected": strict, "error": probe["error"]}
        if probe["error"] is None and abs(got - strict) <= ref.EXACT_TOL:
            continue
        tol = ref.EXACT_TOL
        if probe["error"] is None and min(strict, tie_true) - tol <= got <= max(strict, tie_true) + tol:
            hits.append(dict(entry, cause=ref.MOST_CAUSE))
        else:
            failures.append(dict(entry, cause="unexplained"))
    return hits


# --- processes -------------------------------------------------------------------

def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root / "src")
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def spawn(plan_path: Path, env, cwd) -> tuple[float, dict]:
    """Run one workload process; (set-up seconds, its result document)."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), str(plan_path)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=cwd,
    ) as proc:
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or line != "READY\n":
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return setup, json.loads(rest.strip().splitlines()[-1])


def guard_cli_import(root: Path, env, cwd):
    """The CLI children must import the checkout's package, not another copy."""
    out = subprocess.run(
        [sys.executable, "-c", "import quantale.cli as c; print(c.__file__)"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    where = Path(out.stdout.strip() or "/").resolve()
    if out.returncode != 0 or (root / "src").resolve() not in where.parents:
        raise BenchError(f"CLI children import quantale from {where}, not the checkout")


# --- metrics -----------------------------------------------------------------------

def environment() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(), "pinned_cpu": sorted(os.sched_getaffinity(0)), "cpu": cpu,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "blas_threads": {v: "1" for v in BLAS_VARS},
    }


def tail(latencies):
    """Highest percentile with at least ten samples above it: (value, rank, n)."""
    xs = sorted(latencies)
    rank = max(len(xs) - 11, 0)
    return xs[rank], rank + 1, len(xs)


def nominal(seconds, calibration):
    """Seconds at the nominal host speed, from the calibration time next to them."""
    return seconds * CALIBRATION_NOMINAL_S / calibration


def end_to_end(plan, doc, setups, failed, attempted):
    """(metrics, details); times are at the nominal host speed."""
    loop = [r for r in doc["results"] if r["phase"] == "loop"]
    lat = [nominal(r["s"], r["calibration"]) for r in loop]
    setup = [nominal(s, c) for s, c in setups]
    value, rank, n = tail(lat)
    rss_kb = doc["children_maxrss_kb"] if plan.workload == "rsa-cli" else doc["maxrss_kb"]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / math.fsum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": value,
        "peak_rss_mb": rss_kb / 1024,
        "ok_frac": 1.0 - failed / attempted,
    }
    raw = [r["s"] for r in loop]
    by_input = {}
    for r in loop:
        by_input.setdefault(plan.labels[r["i"] % len(plan.labels)], []).append(r["s"])
    details = {
        "op_tail": {"rank": rank, "samples": n, "percentile": 100.0 * rank / n},
        "speed_scale": statistics.median(r["calibration"] for r in loop) / CALIBRATION_NOMINAL_S,
        "raw": {"setup_s": statistics.median(s for s, _ in setups),
                "ops_per_s": len(raw) / math.fsum(raw),
                "op_p50_s": statistics.median(raw), "op_tail_s": tail(raw)[0]},
        "raw_setup_samples_s": [s for s, _ in setups],
        "raw_p50_by_input_s": {k: statistics.median(v) for k, v in sorted(by_input.items())},
    }
    return metrics, details


def per_layer(plan, doc, failed, attempted, most_hits):
    """Per-layer metrics of a traced run; times at the nominal host speed.

    Span times come from the traced cycle and are scaled by the median
    calibration time of that cycle; the other times were calibrated one by
    one in the workload process.
    """
    t = doc["trace"]
    s = t["summary"]
    c = t["counts"]
    phase = lambda name: [r for r in doc["results"] if r["phase"] == name]  # noqa: E731
    traced = phase("traced")
    k = CALIBRATION_NOMINAL_S / statistics.median(r["calibration"] for r in traced)
    span = lambda key, field: k * s.get(key, {}).get(field, 0)  # noqa: E731
    calls = lambda key: s.get(key, {}).get("calls", 0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    nominal_sum = lambda recs: math.fsum(nominal(r["s"], r["calibration"]) for r in recs)  # noqa: E731
    ind = c.get("model.lift.configs.independent", 0)
    coup = c.get("model.lift.configs.coupled", 0)
    overhead = 0.0
    if plan.workload == "rsa-cli":
        overhead = (statistics.median(nominal(r["s"], r["calibration"]) for r in phase("loop"))
                    - statistics.median(nominal(r["s"], r["calibration"])
                                        for r in phase("untraced-pass")))
    metrics = {
        "dsl.parse.s": span("dsl", "s"),
        "dsl.parse.calls": calls("dsl"),
        "dsl.parse.bytes_per_s": ratio(c.get("dsl.bytes", 0), span("dsl", "s")),
        "scope.s": span("scope", "s"),
        "scope.calls": calls("scope"),
        "model.marginal.s": span("model.marginal", "s"),
        "model.marginal.calls": calls("model.marginal"),
        "model.lift.s": span("model.lift", "s"),
        "model.lift.calls": calls("model.lift"),
        "model.lift.configs": ind + coup,
        "model.lift.configs.independent": ind,
        "model.lift.configs.coupled": coup,
        "quant.shape_value.calls": calls("quant.shape_value"),
        "quant.shape_value.s": span("quant.shape_value", "s"),
        "quant.threshold_partition.calls": calls("quant.threshold_partition"),
        "engine.eval_exact.s": span("engine.eval_exact", "s"),
        "engine.eval_exact.self_s": span("engine.eval_exact", "self_s"),
        "engine.eval_exact.calls": calls("engine.eval_exact"),
        "engine.eval_exact.peak_alloc_mb": t["engine.eval_exact.peak_alloc_mb"],
        "engine.eval_mc.s": span("engine.eval_mc", "s"),
        "engine.eval_mc.self_s": span("engine.eval_mc", "self_s"),
        "engine.eval_mc.samples_per_s": ratio(c.get("engine.eval_mc.samples", 0),
                                              span("engine.eval_mc", "s")),
        "engine.guard_trips": c.get("engine.guard_trips", 0),
        "rsa.meaning.calls": calls("rsa.meaning"),
        "rsa.meaning.distinct": t["rsa.meaning.distinct"],
        "rsa.meaning.useful_ratio": ratio(t["rsa.meaning.distinct"], calls("rsa.meaning")),
        "rsa.meaning.s": span("rsa.meaning", "s"),
        "rsa.self_s": span("rsa", "self_s"),
        "cli.interpreter_s": CALIBRATION_NOMINAL_S * t["cli.interpreter_per_calibration"],
        "cli.import_s": CALIBRATION_NOMINAL_S * t["cli.import_per_calibration"],
        "cli.main.s": span("cli.main", "s"),
        "cli.process_overhead_s": overhead,
        "input.pixies": doc["input"]["pixies"],
        "input.joint_rows": doc["input"]["joint_rows"],
        "input.fractional_entries": doc["input"]["fractional_entries"],
        "input.dense_cells": doc["input"]["dense_cells"],
        # traced / untraced operations per second over the same cycle
        "trace.overhead_ratio": nominal_sum(phase("untraced-pass")) / nominal_sum(traced),
        "failed_frac": failed / attempted,
        "defect.most_breakpoint.hits": most_hits,
    }
    for rung in t["ladders"]:
        metrics[rung["name"]] = CALIBRATION_NOMINAL_S * rung["per_calibration"]
    return metrics


def units(bench_json: Path) -> dict:
    spec = json.loads(bench_json.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# --- main ------------------------------------------------------------------------------

def run(workload, seed, seconds, trace, root: Path) -> tuple[dict, dict]:
    """(result document, report) for one run."""
    for needed in (root / "src" / "quantale" / "__init__.py", root / "fixtures" / "donkey.prop"):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(root)} is missing; run from a full checkout")
    load_before = os.getloadavg()
    workdir = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        plan = Plan(workload, seed, seconds, trace, root, workdir)
        env = child_env(root)
        if workload == "rsa-cli":
            guard_cli_import(root, env, workdir)
        # (set-up seconds, mean calibration time just before and just after)
        setups = []
        if not trace:
            probe = plan.write(setup_only=True)
            for k in range(SETUP_PROBES + 1):   # the first one only warms caches
                before = calibrate()
                setup, probe_doc = spawn(probe, env, workdir)
                if k:
                    setups.append((setup, (before + probe_doc["setup_calibration_s"]) / 2))
        before = calibrate()
        setup, doc = spawn(plan.write(), env, workdir)
        setups.append((setup, (before + doc["setup_calibration_s"]) / 2))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = doc["results"]
    failures = [f for f in (check(plan, r) for r in records) if f]
    if workload == "rsa-cli":
        check_identical(records, failures)
    attempted = len(records)
    most_hits = []
    if trace:
        check_ladders(plan, doc["trace"]["ladders"], failures)
        attempted += len(doc["trace"]["ladders"])
        most_hits = check_probes(plan, doc["trace"]["probes"], failures)
    failed = len(failures)

    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": dict(environment(), loadavg_before=load_before,
                            loadavg_after=os.getloadavg()),
        "attempted": attempted, "failed": failed,
        "failures_by_cause": {},
        "failures": failures,
        # the known defect, gauged by the traced run's probes
        "most_breakpoint_hits": most_hits,
        "input": doc["input"],
    }
    for f in failures:
        report["failures_by_cause"][f["cause"]] = report["failures_by_cause"].get(f["cause"], 0) + 1
    unit = units(HERE.parent / "BENCHMARK.json")
    if trace:
        metrics = per_layer(plan, doc, failed, attempted, len(most_hits))
    else:
        metrics, details = end_to_end(plan, doc, setups, failed, attempted)
        report.update(details)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = HERE.parent
    # One CPU for this process and every process it starts, so that the
    # calibration kernel and the operations it calibrates share a core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        result, report = run(args.workload, args.seed, args.seconds, args.trace, root)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
