"""How far the generic fast path strays from the exact semantics.

The fast path computes a ratio of expectations; the exact semantics
takes the expectation of the ratio over lifted precise configurations.
This script samples random vague worlds, runs compare_generic on each,
and reports the distribution of the absolute gap together with the
worst offender.

Worlds have 2 to 4 pixies of arbitrary masses, or ``--pixies`` of them
with masses on a dyadic grid: k/1024, a random split of 1.  The exact
engine sums over count states, the exact pairs of summed masses, which
number at most 1025 * 1026 / 2 on that grid however many pixies there
are, instead of 2^(2n) configurations.  With many pixies it keeps them
on a dense grid of at most 1025 * 1025 floats (8.4 MB), adding each
pixie's three outcomes at fixed offsets; a few pixies, or masses off a
common grid (up to 3^n states), keep a map of sorted keys.

Usage: python scripts/generic_gap.py [--trials N] [--seed S] [--pixies P]
"""

import argparse
import itertools
import random

import quantale as q


def random_world(rng, n_pix, grid):
    pixies = tuple(f"p{i}" for i in range(n_pix))
    if grid:
        cuts = sorted(rng.sample(range(1, 1024), n_pix - 1))
        masses = [(b - a) / 1024 for a, b in zip([0, *cuts], [*cuts, 1024])]
    else:
        weights = [rng.random() + 0.05 for _ in pixies]
        masses = [w / sum(weights) for w in weights]
    model = q.SituationModel(
        q.PixieSpace(pixies),
        ("x",),
        tuple(((px,), m) for px, m in zip(pixies, masses)),
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
    if args.pixies is not None and not 1 <= args.pixies <= 1024:
        parser.error("--pixies must be between 1 and 1024")

    rng = random.Random(args.seed)
    graph = q.parse_prop("(generic (x) (r x) (b x))")
    gaps = []
    worst = None
    for _ in range(args.trials):
        model, lexicon = random_world(rng, args.pixies or rng.randint(2, 4),
                                      grid=args.pixies is not None)
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
