"""How far the generic fast path strays from the exact semantics.

The fast path computes a ratio of expectations; the exact semantics
takes the expectation of the ratio over lifted precise configurations.
This script samples random vague worlds, runs compare_generic on each,
and reports the distribution of the absolute gap together with the
worst offender.

Worlds have 2 to 4 pixies, or ``--pixies`` of them.  Above 4 pixies the
masses are uniform: the exact engine then sums over (n + 1)(n + 2) / 2
count states instead of 2^(2n) configurations, so 40 pixies take
milliseconds.

Usage: python scripts/generic_gap.py [--trials N] [--seed S] [--pixies P]
"""

import argparse
import itertools
import random

import quantale as q


def random_world(rng, n_pix):
    pixies = tuple(f"p{i}" for i in range(n_pix))
    # distinct masses make the count states grow exponentially with n_pix
    weights = [1.0 if n_pix > 4 else rng.random() + 0.05 for _ in pixies]
    total = sum(weights)
    model = q.SituationModel(
        q.PixieSpace(pixies),
        ("x",),
        tuple(((px,), w / total) for px, w in zip(pixies, weights)),
    )
    lexicon = q.VagueLexicon(
        {
            "r": q.VaguePredicate("r", {px: rng.random() for px in pixies}),
            "b": q.VaguePredicate("b", {px: rng.random() for px in pixies}),
        }
    )
    return model, lexicon


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pixies", type=int, default=None,
                        help="pixies per world (default: 2 to 4 at random)")
    args = parser.parse_args()
    if args.pixies is not None and args.pixies < 1:
        parser.error("--pixies must be at least 1")

    rng = random.Random(args.seed)
    graph = q.parse_prop("(generic (x) (r x) (b x))")
    gaps = []
    worst = None
    for _ in range(args.trials):
        model, lexicon = random_world(rng, args.pixies or rng.randint(2, 4))
        report = q.compare_generic(graph, model, lexicon)
        gaps.append(report.gap)
        if worst is None or report.gap > worst[0].gap:
            worst = (report, model, lexicon)
    gaps.sort()
    print(f"trials: {args.trials}" + (f", {args.pixies} pixies" if args.pixies else ""))
    print(f"median gap: {gaps[len(gaps) // 2]:.6f}")
    print(f"90th pct:   {gaps[int(len(gaps) * 0.9)]:.6f}")
    print(f"max gap:    {gaps[-1]:.6f}")
    report, model, lexicon = worst
    print("\nworst world:")
    for (px,), mass in model.joint:
        print(
            f"  P(x={px}) = {mass:.3f}  psi_r = {lexicon.psi('r', px):.3f}  "
            f"psi_b = {lexicon.psi('b', px):.3f}"
        )
    print(f"  exact = {report.exact:.6f}  fast = {report.fast:.6f}  gap = {report.gap:.6f}")


if __name__ == "__main__":
    main()
