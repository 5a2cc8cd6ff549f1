"""Workload process: one closed-loop client against the checkout's package.

Started by ``run.py`` with a plan file.  It imports ``quantale`` from the
checkout's ``src``, parses the generated inputs with the public ``dsl``
parsers, writes ``READY`` on standard output and then runs operations one
after another until the plan's time is up.  It never sees a reference
value: each result goes back to ``run.py``, which checks it.  The last
line of standard output is one JSON document.

With ``trace`` set it also runs the traced pass, the allocation pass, the
scaling ladders, the most-breakpoint probes and the interpreter/import
probes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path


def import_package(src: Path):
    """Import ``quantale`` and refuse any copy outside ``src``."""
    sys.path.insert(0, str(src))
    import quantale

    where = Path(quantale.__file__).resolve()
    if src.resolve() not in where.parents:
        sys.stderr.write(f"quantale imported from {where}, not from {src}\n")
        sys.exit(3)
    import quantale.cli  # noqa: F401  (rsa-cli traces cli.main in-process)

    return quantale


class Inputs:
    """Parsed worlds, propositions and scenario named by the plan."""

    def __init__(self, q, plan):
        self.worlds = {k: q.parse_world(Path(p).read_text()) for k, p in plan["worlds"].items()}
        self.props = {k: q.parse_prop(Path(p).read_text()) for k, p in plan["props"].items()}
        self.scenario = None
        if plan.get("scenario"):
            path = Path(plan["scenario"])
            self.scenario = q.parse_scenario(path.read_text(), base_dir=path.parent)


class Runner:
    """Runs one operation of the plan's workload; returns its raw result."""

    def __init__(self, q, plan, inputs):
        self.q = q
        self.plan = plan
        self.inputs = inputs
        self.workload = plan["workload"]
        self.env = dict(os.environ)

    def exact(self, op, scheme):
        model, lexicon = self.inputs.worlds[op["world"]]
        graph = self.inputs.props[op["prop"]]
        return self.q.eval_exact(graph, model, lexicon, self.q.LiftScheme(scheme)).probability

    def mc(self, op, scheme, seed):
        model, lexicon = self.inputs.worlds[op["world"]]
        graph = self.inputs.props[op["prop"]]
        result = self.q.eval_mc(graph, model, lexicon, self.q.LiftScheme(scheme),
                                samples=op["samples"], seed=seed)
        return result.probability

    def cli_argv(self, op):
        return ["rsa", "--scenario", self.plan["scenario"], "--agent", "l1",
                "--utterance", op["utterance"]]

    def cli_subprocess(self, op):
        proc = subprocess.run(
            [sys.executable, "-m", "quantale.cli", *self.cli_argv(op)],
            capture_output=True, text=True, env=self.env, cwd=self.plan["workdir"],
            timeout=120,
        )
        return {"rc": proc.returncode, "stdout": proc.stdout}

    def cli_inprocess(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.q.cli.main(self.cli_argv(op))
        return {"rc": rc, "stdout": out.getvalue()}

    def run(self, i, in_process=False):
        """Operation ``i`` of the cycle; returns (value, mc seed or None)."""
        ops = self.plan["ops"]
        op = ops[i % len(ops)]
        if self.workload == "exact-dense":
            return [self.exact(op, "independent")], None
        if self.workload == "exact-vague":
            return [self.exact(op, s) for s in ("independent", "coupled-threshold")], None
        if self.workload == "mc":
            seed = self.plan["mc_seed_base"] + i
            return [self.mc(op, s, seed) for s in ("independent", "coupled-threshold")], seed
        if in_process:
            return self.cli_inprocess(op), None
        return self.cli_subprocess(op), None


def timed(fn, *args):
    """(result, error, seconds) for one call; errors are results too."""
    t0 = time.perf_counter()
    try:
        value, error = fn(*args), None
    except Exception as exc:  # every failure of an operation is counted
        value, error = None, f"{type(exc).__name__}: {exc}"
    return value, error, time.perf_counter() - t0


def record(phase, i, out, error, seconds):
    value, seed = out if out is not None else (None, None)
    return {"phase": phase, "i": i, "value": value, "seed": seed, "error": error,
            "s": seconds}


CALIBRATION_ROUNDS = 50_000
# Time of the calibration kernel on the reference machine (2-core Intel Xeon
# container) when its host was quiet.  Each measured time is reported at that
# speed: raw time x NOMINAL / the kernel's time measured around it.  Shared
# hosts change speed by up to 2x within a minute; the kernel slows with them,
# so the ratio stays steady.
CALIBRATION_NOMINAL_S = 0.013
# The timed loop runs for its seconds at the nominal speed, so that a run
# holds about as many operations on a slow host as on a fast one; on a very
# slow host it stops after this many times its seconds of wall time.
WALL_CAP = 1.3
# Operations come in cycles of four (kinds, utterances or worlds); loops and
# passes cover whole cycles so every run sees the same mix.
CYCLE = 4


def calibrate() -> float:
    """Seconds for a fixed interpreter-bound kernel (tuple keys, dict
    updates, float arithmetic), independent of the package under test.
    Timed right after an operation, it tells how fast the host ran then."""
    t0 = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_ROUNDS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + i * 0.5
    return time.perf_counter() - t0


def run_cycles(run_one, phase, seconds=0.0):
    """Closed loop: ``run_one(i)`` back to back, whole cycles of ``CYCLE``
    operations, at least one, until ``seconds`` have passed at the nominal
    host speed (or ``WALL_CAP`` times that in wall time).  The calibration
    kernel runs between operations, outside their timing; each operation
    keeps the mean of the kernel times just before and just after it."""
    results = []
    before = calibrate()
    start = time.perf_counter()
    nominal = 0.0
    i = 0
    while (i < CYCLE or i % CYCLE
           or nominal < seconds and time.perf_counter() - start < WALL_CAP * seconds):
        out, error, s = timed(run_one, i)
        after = calibrate()
        speed = (before + after) / 2
        results.append(dict(record(phase, i, out, error, s), calibration=speed))
        nominal += (s + after) * CALIBRATION_NOMINAL_S / speed
        before = after
        i += 1
    return results


def calibrated_median(fn, reps):
    """(median over ``reps`` calls of seconds per calibration-kernel second,
    the last call's result)."""
    ratios = []
    before = calibrate()
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        s = time.perf_counter() - t0
        after = calibrate()
        ratios.append(s / ((before + after) / 2))
        before = after
    return statistics.median(ratios), result


# --- traced run ------------------------------------------------------------------

def run_ladders(q, plan):
    """Each ladder rung, untraced: its value and its calibrated median time."""
    out = []
    for rung in plan["ladders"]:
        model, lexicon = q.parse_world(Path(rung["world"]).read_text())
        graph = q.parse_prop(rung["prop"])
        scheme = q.LiftScheme(rung["scheme"])
        if rung["engine"] == "mc":
            def call():
                return q.eval_mc(graph, model, lexicon, scheme, samples=rung["samples"],
                                 seed=rung["seed"]).probability
        else:
            def call():
                return q.eval_exact(graph, model, lexicon, scheme).probability
        try:
            (ratio, value), error = calibrated_median(call, rung["reps"]), None
        except Exception as exc:  # a failed rung is counted by run.py
            ratio, value, error = 0.0, None, f"{type(exc).__name__}: {exc}"
        out.append({"name": rung["name"], "per_calibration": ratio,
                    "value": value, "error": error})
    return out


def run_probes(q, plan):
    """Each probe of the known most-breakpoint defect: its value or error."""
    out = []
    for probe in plan["probes"]:
        model, lexicon = q.parse_world(Path(probe["world"]).read_text())
        graph = q.parse_prop(Path(probe["prop"]).read_text())
        value, error, _ = timed(lambda: q.eval_exact(graph, model, lexicon,
                                                     q.LiftScheme(probe["scheme"])).probability)
        out.append({"value": value, "error": error})
    return out


def traced_run(q, plan, runner, results):
    from tracing import Tracer

    report = {}
    # Baseline for the overhead ratio: the same cycle, untraced, in-process,
    # after one call that pays any first-call costs.
    results.append(record("warm-up", 0, *timed(runner.run, 0, True)))
    results += run_cycles(lambda i: runner.run(i, True), "untraced-pass")

    tracer = Tracer()
    tracer.install()
    try:
        traced = Runner(q, plan, Inputs(q, plan))
        results += run_cycles(lambda i: tracer.op(traced.run, i, True), "traced")
    finally:
        tracer.restore()
    report["summary"] = tracer.summary()
    report["counts"] = dict(tracer.counts)
    report["rsa.meaning.distinct"] = len(tracer.meaning_keys)

    alloc = Tracer()
    tracemalloc.start()
    alloc.track_alloc()
    try:
        results.append(record("alloc", 0, *timed(runner.run, 0, True)))
    finally:
        alloc.restore()
        tracemalloc.stop()
    report["engine.eval_exact.peak_alloc_mb"] = alloc.peak_alloc / 2**20

    report["ladders"] = run_ladders(q, plan)
    report["probes"] = run_probes(q, plan)

    def child(code):
        return lambda: subprocess.run([sys.executable, "-c", code], env=runner.env,
                                      cwd=plan["workdir"], check=True, capture_output=True,
                                      timeout=120)

    interp = calibrated_median(child("pass"), 5)[0]
    report["cli.interpreter_per_calibration"] = interp
    report["cli.import_per_calibration"] = calibrated_median(child("import quantale.cli"), 3)[0] - interp
    return report


def main():
    plan = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    q = import_package(Path(plan["src"]))
    inputs = Inputs(q, plan)
    runner = Runner(q, plan, inputs)
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    doc = {"setup_calibration_s": calibrate()}
    if plan["setup_only"]:
        sys.stdout.write(json.dumps(doc) + "\n")
        return

    seconds = plan["seconds"] / 2 if plan["trace"] else plan["seconds"]
    results = run_cycles(runner.run, "loop", seconds)
    if plan["trace"]:
        doc["trace"] = traced_run(q, plan, runner, results)
    doc["results"] = results
    doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    doc["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc["input"] = input_sizes(q, inputs)
    sys.stdout.write(json.dumps(doc) + "\n")


def input_sizes(q, inputs):
    """Mean pixies, joint rows, fractional entries and dense cells per world."""
    worlds = list(inputs.worlds.values())
    graphs = list(inputs.props.values())
    if inputs.scenario is not None:
        worlds = [(s.world.model, s.world.lexicon) for s in inputs.scenario.states]
        graphs = [u.graph for u in inputs.scenario.utterances]
    rows = [sum(1 for _, m in model.joint if m > 0) for model, _ in worlds]
    pixies = [len(model.space.elements) for model, _ in worlds]
    frac = [sum(0.0 < v < 1.0 for p in lex.predicates.values() for v in p.table.values())
            for _, lex in worlds]
    cells = []
    for model, _ in worlds:
        n = len(model.space.elements)
        for g in graphs:
            memo = {}
            cells.append(sum(n ** len(q.free_vars(g, i, memo)) for i in g.reachable()))
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    return {"pixies": mean(pixies), "joint_rows": mean(rows),
            "fractional_entries": mean(frac), "dense_cells": mean(cells)}


if __name__ == "__main__":
    main()
