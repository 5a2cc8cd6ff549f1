"""Benchmark the working tree against another revision, run for run.

Extracts REV with ``git archive`` into a temporary directory, then, for
each workload named (by default every workload of BENCHMARK.json, in its
order), runs ``bench/run.py --trace 0`` there and in the working tree,
one pair per seed and both with that seed, each for BENCHMARK.json's
``run_seconds``, alternating which side goes first.  Prints one JSON line
per workload: per end-to-end metric, the median of each side, the ratio
of the medians (working tree over base), the distance between the
quartiles of the base runs and in how many pairs the working tree did
better, whether the working tree's median is worse than the base's by
more than the metric's relative ``bound``, and whether it is a gain:
better in at least 9 of 10 pairs and by more than that distance, plus
whether every run was correct.  Nothing under ``bench/`` is changed.

Usage: python scripts/bench_ab.py --base HEAD~1 [--workload mc exact-dense] --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, into: Path) -> None:
    """The files of revision ``rev``, written under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result document of one untraced ``bench/run.py`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric of BENCHMARK.json (``name``, ``better``: "lower"
    or "higher", relative ``bound``), from (base, work) result documents:
    medians, their ratio, the base runs' interquartile range, the pairs in
    which work is better (ties count for neither side), whether the work
    median is worse than the base median by more than the bound (also
    listed under ``regressed``), and whether it is a gain: work better in
    at least 9/10 of the pairs and its median better than the base median
    by more than the base IQR (also listed under ``gained``)."""
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        work = [w["metrics"][name]["value"] for _, w in pairs]
        sign = 1 if spec["better"] == "higher" else -1
        mid_base, mid_work = statistics.median(base), statistics.median(work)
        q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (mid_base,) * 3
        better = sum(sign * (w - b) > 0 for b, w in zip(base, work))
        metrics[name] = {
            "base": mid_base,
            "work": mid_work,
            "ratio": mid_work / mid_base if mid_base else None,
            "base_iqr": q3 - q1,
            "work_better": better,
            "beyond_bound": sign * (mid_base - mid_work) > spec["bound"] * abs(mid_base),
            "gain": 10 * better >= 9 * len(pairs) and sign * (mid_work - mid_base) > q3 - q1,
        }
    return {
        "pairs": len(pairs),
        "correct": {"base": all(b["correct"] for b, _ in pairs),
                    "work": all(w["correct"] for _, w in pairs)},
        "regressed": [name for name, m in metrics.items() if m["beyond_bound"]],
        "gained": [name for name, m in metrics.items() if m["gain"]],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", nargs="+", choices=names, default=names,
                        help="workloads to compare, in this order (default: all)")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        extract(args.base, Path(tmp))
        sides = {"base": Path(tmp), "work": ROOT}
        for workload in args.workload:
            pairs = []
            for k, seed in enumerate(args.seeds):
                order = ("base", "work") if k % 2 == 0 else ("work", "base")
                done = {side: run_bench(sides[side], workload, seed, spec["run_seconds"])
                        for side in order}
                pairs.append((done["base"], done["work"]))
            print(json.dumps({"base": args.base, "workload": workload, "seeds": args.seeds,
                              **summarise(pairs, spec["end_to_end"])}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
