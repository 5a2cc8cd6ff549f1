"""Time the exact engine's counting path as the pixies grow.

Each world evaluates ``(every (x) (r x) (b x))`` under the independent
lift, with every r and b entry fractional (k/256, drawn with
``random.Random(seed)``).  Its masses are either uniform, or in 7 classes:
units 20, 22, 24, 27, 31, 26 and 30 round-robin over a power-of-two grid,
the last row topped up so that the units fill it (at 40 pixies they fill
1/1024 exactly).  The counting path's states are the exact pairs of
summed masses, so the 7-class worlds no longer multiply a state space per
class.  A third column times the uniform pixies under ``(every (x) (and
(a0 x) ... (a10 x)) (and (a11 x) ... (a21 x)))``, 22 predicates whose
entries are all fractional: each row's outcomes are products of psi, so
the predicates add no count states.  Prints, per pixie count and world,
the best of ``--repeat`` times and the tracemalloc peak of one more
evaluation after them, or the guard's message where the count states
exceed the cap.

Usage: python scripts/count_cliff.py [--pixies 8 12 16 40] [--repeat 3] [--seed 0]
"""

import argparse
import random
import time
import tracemalloc

import quantale as q
from quantale.errors import ExplosionGuard

UNITS = (20, 22, 24, 27, 31, 26, 30)
WIDE = tuple(f"a{i}" for i in range(22))


def world(n_pixies, classes, seed=0, names=("r", "b")):
    """(model, lexicon) of ``n_pixies`` pixies, uniform or in 7 mass classes,
    with a fractional table per predicate of ``names``."""
    pixies = tuple(f"p{i}" for i in range(n_pixies))
    if classes:
        units = [UNITS[i % len(UNITS)] for i in range(n_pixies)]
        grid = 1 << (sum(units) - 1).bit_length()
        units[-1] += grid - sum(units)
        masses = [u / grid for u in units]
    else:
        masses = [1.0 / n_pixies] * n_pixies
    rng = random.Random(seed)
    lexicon = q.VagueLexicon({
        name: q.VaguePredicate(name, {px: rng.randint(1, 255) / 256 for px in pixies})
        for name in names
    })
    model = q.SituationModel(q.PixieSpace(pixies), ("x",),
                             tuple(((px,), m) for px, m in zip(pixies, masses)))
    return model, lexicon


def timed(model, lexicon, graph, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        try:
            q.eval_exact(graph, model, lexicon)
        except ExplosionGuard as exc:
            return f"ExplosionGuard: {exc}"
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()  # untimed: tracing slows the evaluation down
    try:
        q.eval_exact(graph, model, lexicon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return f"{best * 1e3:.2f} ms {peak / 1e6:6.2f} MB"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pixies", type=int, nargs="+", default=[8, 12, 16, 40])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if min(args.pixies) < 1 or args.repeat < 1:
        parser.error("--pixies and --repeat must be at least 1")

    graph = q.parse_prop("(every (x) (r x) (b x))")
    apps = [f"({a} x)" for a in WIDE]
    wide = q.parse_prop(f"(every (x) (and {' '.join(apps[:11])}) (and {' '.join(apps[11:])}))")
    print(f"{'pixies':>6}  {'uniform':>20}  {'7 classes':>20}  22 predicates")
    for n in args.pixies:
        uniform, classes = (timed(*world(n, c, args.seed), graph, args.repeat)
                            for c in (False, True))
        predicates = timed(*world(n, False, args.seed, WIDE), wide, args.repeat)
        print(f"{n:>6}  {uniform:>20}  {classes:>20}  {predicates}")


if __name__ == "__main__":
    main()
