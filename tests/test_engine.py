import importlib.util
import math
import random
import re
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

import quantale as q
from quantale.engine import evaluate
from quantale.errors import (
    ExplosionGuard,
    PreciseQuantifierInFastPath,
    ShapeDomainError,
    ValidationFailed,
)

from conftest import FIXTURES, load_prop, load_world, quant_over_tautology, red_world
from oracles import random_countable_case


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_naive_semantics_trivializes(p):
    model, lexicon = red_world(p)
    assert q.eval_naive(quant_over_tautology("every"), model, lexicon).probability == 0.0
    assert q.eval_naive(quant_over_tautology("some"), model, lexicon).probability == 1.0


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("scheme", list(q.LiftScheme))
@pytest.mark.parametrize("kind", ["every", "some"])
def test_exact_semantics_recovers_psi(p, scheme, kind):
    model, lexicon = red_world(p)
    result = q.eval_exact(quant_over_tautology(kind), model, lexicon, scheme)
    assert result.probability == pytest.approx(p, abs=1e-12)
    assert result.engine == "exact"


def test_exact_no_is_complement():
    model, lexicon = red_world(0.7)
    result = q.eval_exact(quant_over_tautology("no"), model, lexicon)
    assert result.probability == pytest.approx(0.3, abs=1e-12)


def test_generic_tautology_restriction_is_expectation():
    model, lexicon = red_world(0.7)
    for fn in (q.eval_naive, q.eval_generic_fast):
        assert fn(quant_over_tautology("generic"), model, lexicon).probability == 0.7
    assert (
        q.eval_exact(quant_over_tautology("generic"), model, lexicon).probability
        == pytest.approx(0.7, abs=1e-12)
    )


def test_generic_fast_dog_barks():
    model, lexicon = load_world("dog_barks.world.json")
    graph = load_prop("dog_barks.prop")
    assert q.eval_generic_fast(graph, model, lexicon).probability == pytest.approx(
        0.8, abs=1e-12
    )


def test_generic_fast_rejects_precise_kinds():
    model, lexicon = red_world(0.5)
    with pytest.raises(PreciseQuantifierInFastPath):
        q.eval_generic_fast(quant_over_tautology("every"), model, lexicon)


def test_many_shaped_spec_evaluates_as_many():
    # a custom spec with many's shape is vague: generic-fast accepts it,
    # and exact and mc threshold it, so every engine gives many's values
    pixies = ("a", "b", "c", "d")
    model = q.SituationModel(q.PixieSpace(pixies), ("x",), tuple(((p,), 0.25) for p in pixies))
    lexicon = q.VagueLexicon({
        "r": q.VaguePredicate("r", dict(zip(pixies, (0.25, 0.5, 1.0, 0.75)))),
        "b": q.VaguePredicate("b", dict(zip(pixies, (0.5, 0.125, 0.875, 1.0)))),
    })
    spec = q.ShapeSpec(((0.0, 0.0), (1.0, 1.0)), ((0.0, 1.0, 0.0, 1.0),))
    for outer in ("generic", "most"):
        many = q.parse_prop(f"({outer} (x) true (many (x) (r x) (b x)))")
        i = many.nodes[many.root].body
        nodes = list(many.nodes)
        nodes[i] = q.Quantifier(spec, nodes[i].bound, nodes[i].restriction, nodes[i].body)
        custom = q.ScopeGraph(tuple(nodes), many.root)
        runs = [lambda g: q.eval_generic_fast(g, model, lexicon)] if outer == "generic" else []
        for scheme in q.LiftScheme:
            runs += [lambda g, s=scheme: q.eval_exact(g, model, lexicon, s),
                     lambda g, s=scheme: q.eval_mc(g, model, lexicon, s, samples=2000, seed=7)]
        for run in runs:
            want = run(many).probability
            assert 0.0 < want < 1.0
            assert run(custom).probability.hex() == want.hex(), (outer, run)


def test_engines_raise_on_invalid_graph():
    model, lexicon = red_world(0.5)
    open_graph = q.ScopeGraph((q.Application("red", "x"),), root=0)
    for fn in (q.eval_naive, q.eval_exact, q.eval_generic_fast):
        with pytest.raises(ValidationFailed):
            fn(open_graph, model, lexicon)


@pytest.mark.parametrize(
    "engine, extra, message",
    [("bogus", {}, "unknown engine 'bogus'"),
     ("mc", {"samples": 10}, "the mc engine requires samples and a seed"),
     ("mc", {"seed": 1}, "the mc engine requires samples and a seed")],
    ids=["unknown-engine", "mc-without-seed", "mc-without-samples"],
)
def test_evaluate_rejects_unknown_engines_and_unseeded_mc(engine, extra, message):
    model, lexicon = red_world(0.5)
    with pytest.raises(ValueError) as err:
        evaluate(quant_over_tautology("every"), model, lexicon, engine, **extra)
    assert str(err.value) == message


def two_pixie_precise_world(p_a=0.6):
    space = q.PixieSpace(("a", "b"))
    model = q.SituationModel(
        space, ("x",), ((("a",), p_a), (("b",), 1.0 - p_a))
    )
    lexicon = q.VagueLexicon({"red": q.VaguePredicate("red", {"a": 1.0})})
    return model, lexicon


def test_shared_vague_node_uses_one_threshold():
    # a generic node worth 0.6; sharing it conjoins the same threshold
    # draw (0.6), while textual duplicates draw independently (0.36)
    model, lexicon = two_pixie_precise_world(0.6)
    g = (
        q.Tautology(),
        q.Application("red", "x"),
        q.Quantifier(q.QuantifierKind.GENERIC, ("x",), 0, 1),
    )
    shared = q.ScopeGraph(g + (q.Conjunction((2, 2)),), root=3)
    duplicated = q.ScopeGraph(
        g + (q.Quantifier(q.QuantifierKind.GENERIC, ("x",), 0, 1), q.Conjunction((2, 3))),
        root=4,
    )
    assert q.eval_exact(shared, model, lexicon).probability == pytest.approx(
        0.6, abs=1e-12
    )
    assert q.eval_exact(duplicated, model, lexicon).probability == pytest.approx(
        0.36, abs=1e-12
    )


def test_empty_restriction_conventions_in_engines():
    # restriction predicate holds nowhere
    space = q.PixieSpace(("a",))
    model = q.SituationModel(space, ("x",), ((("a",), 1.0),))
    lexicon = q.VagueLexicon(
        {"nothing": q.VaguePredicate("nothing", {}), "red": q.VaguePredicate("red", {"a": 1.0})}
    )

    def graph(kind):
        nodes = (
            q.Application("nothing", "x"),
            q.Application("red", "x"),
            q.Quantifier(q.QuantifierKind(kind), ("x",), 0, 1),
        )
        return q.ScopeGraph(nodes, root=2)

    for kind, expect in [("every", 1.0), ("no", 1.0), ("some", 0.0), ("most", 0.0)]:
        assert q.eval_exact(graph(kind), model, lexicon).probability == expect
        assert q.eval_naive(graph(kind), model, lexicon).probability == expect
    assert q.eval_generic_fast(graph("generic"), model, lexicon).probability == 1.0
    assert (
        q.eval_generic_fast(graph("generic"), model, lexicon, generic_empty=0.0).probability
        == 0.0
    )


@pytest.mark.parametrize("empty", [2.0, -0.5, math.nan, math.inf])
def test_generic_empty_outside_the_unit_interval_is_refused(empty):
    # r holds nowhere, so every engine would reach the convention value:
    # naive and generic-fast returned it as it stood, exact and mc clipped
    # or thresholded it, and a nan came out of exact's independent lift
    space = q.PixieSpace(("a", "b"))
    model = q.SituationModel(space, ("x",), ((("a",), 0.5), (("b",), 0.5)))
    lexicon = q.VagueLexicon({"r": q.VaguePredicate("r", {}),
                              "b": q.VaguePredicate("b", {"a": 0.5, "b": 1.0})})
    graph = q.parse_prop("(generic (x) (r x) (b x))")
    runs = [lambda: q.eval_naive(graph, model, lexicon, empty),
            lambda: q.eval_generic_fast(graph, model, lexicon, empty)]
    for scheme in q.LiftScheme:
        runs += [lambda s=scheme: q.eval_exact(graph, model, lexicon, s, generic_empty=empty),
                 lambda s=scheme: q.eval_mc(graph, model, lexicon, s, samples=10, seed=0,
                                            generic_empty=empty),
                 lambda s=scheme: q.compare_generic(graph, model, lexicon, s,
                                                    generic_empty=empty)]
    for run in runs:
        with pytest.raises(ValueError, match=re.escape(f"got {empty!r}")):
            run()


def test_nodes_built_with_lists_evaluate_as_with_tuples():
    # engines key their memoised plans on the nodes, so a graph built in
    # code with lists where the nodes hold tuples must still be hashable
    model, lexicon = red_world(0.5)

    def graph(seq, kind=q.QuantifierKind.MANY):
        return q.ScopeGraph(seq([q.Tautology(), q.Application("red", "x"),
                                 q.Conjunction(seq([1, 1])),
                                 q.Quantifier(kind, seq(["x"]), 0, 2)]), 3)

    def half(seq):  # a custom shape: 0 at 0, ratio/2 inside, 1/2 at 1
        return q.ShapeSpec(seq([seq([0.0, 0.0]), seq([1.0, 0.5])]),
                           seq([seq([0.0, 1.0, 0.0, 0.5])]))

    assert half(list) == half(tuple)
    for kind in (lambda seq: q.QuantifierKind.MANY, half):
        assert tuple(graph(list, kind(list)).nodes) == graph(tuple, kind(tuple)).nodes
        for engine in ("naive", "exact", "generic-fast"):
            assert (evaluate(graph(list, kind(list)), model, lexicon, engine)
                    == evaluate(graph(tuple, kind(tuple)), model, lexicon, engine))


def test_plans_are_kept_per_graph_and_bounded_per_model():
    # one plan per graph and generic_empty, the least recently used going
    # past the cap, so a sweep keeps one plan per value; a plan keeps one
    # count table per quantifier, built on its second evaluation
    from quantale.engine import PLANS_PER_MODEL

    model, lexicon = red_world(0.5)
    every, generic = q.QuantifierKind.EVERY, q.QuantifierKind.GENERIC

    def graph(kind, k=1):  # (kind (x) (red x) (and (red x) ... k times))
        return q.ScopeGraph((q.Application("red", "x"), q.Conjunction((0,) * k),
                             q.Quantifier(kind, ("x",), 0, 1)), 2)

    def run(g, empty=1.0):
        return q.eval_exact(g, model, lexicon, q.LiftScheme.COUPLED_THRESHOLD,
                            generic_empty=empty).probability

    for kind in (every, generic):
        for empty in np.linspace(0.0, 1.0, 11):
            for _ in range(2):  # red fails half the time, leaving the restriction empty
                assert run(graph(kind), empty) == pytest.approx(1.0 if kind is every else (1 + empty) / 2)
            plans = model._memo["plans"]
            plan = plans[graph(kind).nodes, 2, True, float(empty).hex()]
            assert plan.tables.keys() == {2}
    assert len(plans) == 22
    for k in range(2, PLANS_PER_MODEL + 4):
        run(graph(every, k))
        run(graph(generic))  # used last every time, so never the one to go
    assert len(plans) == PLANS_PER_MODEL
    assert plans[graph(generic).nodes, 2, True, (1.0).hex()] is plan
    assert all(g[0] != graph(every).nodes for g in plans)
    # the sweep's other plans and the first three graphs of every went, in
    # the order they were last used
    assert [g[0][1].children for g in plans][:2] == [(0,) * 5, (0,) * 6]


def _farmer_donkey_world(seed, farmers=8, donkeys=24):
    """One row of mass 1 / (farmers * donkeys) per farmer-donkey pair, over
    (w, x, y, z) = (fed?, farmer, owns?, donkey), as donkey.prop reads it."""
    rng = random.Random(seed)
    fs = tuple(f"f{k}" for k in range(farmers))
    ds = tuple(f"d{k}" for k in range(donkeys))
    rows = []
    for f in fs:
        for d in ds:
            own = rng.random() < 0.25
            feed = own and rng.random() < 0.7
            rows.append((("yes_feed" if feed else "no_feed", f,
                          "yes_own" if own else "no_own", d), 1.0 / (farmers * donkeys)))
    pixies = ds + fs + ("no_feed", "no_own", "yes_feed", "yes_own")
    model = q.SituationModel(q.PixieSpace(pixies), ("w", "x", "y", "z"), tuple(rows))
    tables = {"donkey": ds, "entity": pixies, "farmer": fs, "feed": ("yes_feed",),
              "own": ("yes_own",)}
    return model, q.VagueLexicon({n: q.VaguePredicate(n, dict.fromkeys(t, 1.0))
                                  for n, t in tables.items()})


def test_prepared_donkey_pair_applies_no_shape(monkeypatch, donkey_graph):
    # on 8 x 24 farmer-donkey worlds the (x, z) nodes count 192 one-row
    # groups by reduceat and the root every's 193 x 193 count pairs fit
    # only as a truth table; from a pair's third evaluation on, every
    # quantifier reads its table and no shape is applied.  On 10 x 30 worlds
    # the x-grouped nodes' ten groups share one mass and so one table slice,
    # but the root's 301 x 301 pairs pass even a truth table's budget: the
    # root alone applies its shape
    from quantale.engine import _Core

    shape = _Core.shape
    for seed, size in ((0, (8, 24)), (1, (8, 24)), (2, (8, 24)), (0, (10, 30))):
        model, lexicon = _farmer_donkey_world(seed, *size)
        fresh = q.eval_exact(donkey_graph, *_farmer_donkey_world(seed, *size)).probability
        for _ in range(2):
            q.eval_exact(donkey_graph, model, lexicon)
        plan = model._memo["plans"][tuple(donkey_graph.nodes), donkey_graph.root, True,
                                    (1.0).hex()]
        assert plan.tables.keys() == plan.groups.keys() == plan.counting.keys()
        assert len(plan.tables) == 5
        root = plan.tables[donkey_graph.root]
        assert all(table is not None for i, table in plan.tables.items()
                   if i != donkey_graph.root)
        assert (root is None) == (size == (10, 30))
        assert root is None or root[1].dtype == bool
        # the root and the two x-grouped nodes count by product, the (x, z) nodes by reduceat
        assert sorted(member is None for _, member in plan.counting.values()) == [0, 0, 0, 1, 1]
        shapes = []
        monkeypatch.setattr(_Core, "shape", lambda c, *args: shapes.append(args) or shape(c, *args))
        got = q.eval_exact(donkey_graph, model, lexicon).probability
        monkeypatch.undo()
        assert [kind for kind, *_ in shapes] == ([q.QuantifierKind.EVERY] if root is None else [])
        assert got.hex() == fresh.hex()


def test_vague_node_cap():
    model, lexicon = red_world(0.5)
    nodes = [q.Tautology(), q.Application("red", "x")]
    level = 2
    for _ in range(5):
        nodes.append(q.Quantifier(q.QuantifierKind.GENERIC, ("x",), 0, level - 1))
        level += 1
    graph = q.ScopeGraph(tuple(nodes), root=len(nodes) - 1)
    with pytest.raises(ExplosionGuard):
        q.eval_exact(graph, model, lexicon, limits=q.EngineLimits(vague_node_cap=4))
    q.eval_exact(graph, model, lexicon, limits=q.EngineLimits(vague_node_cap=5))


def test_mc_determinism_and_ci():
    model, lexicon = red_world(0.7)
    graph = quant_over_tautology("every")
    a = q.eval_mc(graph, model, lexicon, samples=2000, seed=42)
    b = q.eval_mc(graph, model, lexicon, samples=2000, seed=42)
    assert a == b
    assert a.engine == "mc"
    assert a.samples == 2000
    assert a.seed == 42
    lo, hi = a.ci
    assert 0.0 <= lo <= a.probability <= hi <= 1.0
    estimates = {
        q.eval_mc(graph, model, lexicon, samples=2000, seed=s).probability
        for s in range(5)
    }
    assert len(estimates) > 1


@pytest.mark.parametrize("samples, seed, name", [
    (True, 0, "samples"), (10.0, 0, "samples"), ("10", 0, "samples"), (None, 0, "samples"),
    (10, False, "seed"), (10, 1.5, "seed"), (10, None, "seed"), (10, "3", "seed"),
])
def test_mc_rejects_non_integer_samples_and_seed(monkeypatch, samples, seed, name):
    model, lexicon = red_world(0.7)

    def no_draws(*args):
        raise AssertionError("drew before checking the arguments")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    value = seed if name == "seed" else samples
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        q.eval_mc(quant_over_tautology("every"), model, lexicon, samples=samples, seed=seed)


def test_mc_rejects_a_negative_seed(monkeypatch):
    model, lexicon = red_world(0.7)

    def no_draws(*args):
        raise AssertionError("drew before checking the seed")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=re.escape("seed must be non-negative, got -1")):
        q.eval_mc(quant_over_tautology("every"), model, lexicon, samples=5, seed=-1)


@pytest.mark.parametrize("field", ["config_cap", "vague_node_cap"])
def test_engine_limits_reject_negative_caps(field):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be non-negative, got -3")):
        q.EngineLimits(**{field: -3})
    assert getattr(q.EngineLimits(**{field: 0}), field) == 0


def test_mc_accepts_numpy_integers():
    model, lexicon = red_world(0.7)
    graph = quant_over_tautology("every")
    plain = q.eval_mc(graph, model, lexicon, samples=300, seed=4)
    result = q.eval_mc(graph, model, lexicon, samples=np.int64(300), seed=np.uint32(4))
    assert result == plain
    assert (type(result.samples), type(result.seed)) == (int, int)


def test_mc_degenerate_ci():
    # the Wilson score interval keeps a positive width at p_hat = 1, where
    # the Wald interval collapsed to (1, 1)
    model, lexicon = red_world(1.0)
    n, z = 100, 1.959963984540054
    result = q.eval_mc(quant_over_tautology("some"), model, lexicon, samples=n, seed=0)
    assert result.probability == 1.0
    lo, hi = result.ci
    assert hi == 1.0
    assert lo == n / (n + z * z)


def test_mc_ci_covers_near_one():
    # criterion 8's coverage count at an edge: p = 0.995 with 200 samples
    # gives p_hat = 1 in about 37% of the seeds (Wald covered 62 of 100)
    model, lexicon = red_world(0.995)
    graph = quant_over_tautology("every")
    hits = 0
    for seed in range(100):
        lo, hi = q.eval_mc(graph, model, lexicon, samples=200, seed=seed).ci
        hits += lo <= 0.995 <= hi
    assert hits >= 85


def test_mc_agrees_between_schemes_on_red_world():
    model, lexicon = red_world(0.7)
    graph = quant_over_tautology("every")
    for scheme in q.LiftScheme:
        result = q.eval_mc(graph, model, lexicon, scheme, samples=20000, seed=7)
        assert result.probability == pytest.approx(0.7, abs=0.02)


def test_compare_generic_red_world():
    model, lexicon = red_world(0.7)
    report = q.compare_generic(quant_over_tautology("generic"), model, lexicon)
    assert report.exact == pytest.approx(0.7, abs=1e-12)
    assert report.fast == pytest.approx(0.7, abs=1e-12)
    assert report.gap == pytest.approx(0.0, abs=1e-12)


def test_compare_generic_all_precise_gap_zero():
    model, lexicon = two_pixie_precise_world(0.6)
    graph = quant_over_tautology("generic")
    report = q.compare_generic(graph, model, lexicon)
    assert report.gap == 0.0
    assert report.exact == pytest.approx(0.6, abs=1e-12)


def test_compare_generic_rejects_precise_kinds():
    model, lexicon = red_world(0.5)
    with pytest.raises(PreciseQuantifierInFastPath):
        q.compare_generic(quant_over_tautology("most"), model, lexicon)


def test_compare_generic_ignores_unused_bindings():
    # a precise quantifier that only an unused let-binding names is not
    # evaluated by either engine, so it is no reason to refuse
    model, lexicon = load_world("prevalence_half.world.json")
    body = "(generic (x) (mosquito x) (carries x))"
    graph = q.parse_prop(f"(let (unused (every (x) (mosquito x) (carries x))) {body})")
    assert q.compare_generic(graph, model, lexicon) == q.GenericComparison(0.5, 0.5, 0.0)
    used = q.parse_prop(f"(let (used (every (x) (mosquito x) (carries x))) (and #used {body}))")
    with pytest.raises(PreciseQuantifierInFastPath):
        q.compare_generic(used, model, lexicon)


def test_donkey_exact_values(donkey_graph):
    half = load_world("donkey_half.world.json")
    threequarters = load_world("donkey_threequarters.world.json")
    assert q.eval_exact(donkey_graph, *half).probability == pytest.approx(
        0.5, abs=1e-12
    )
    assert q.eval_exact(donkey_graph, *threequarters).probability == pytest.approx(
        0.75, abs=1e-12
    )


def test_donkey_naive_differs_from_exact(donkey_graph):
    # the naive pass multiplies the generic ratio straight into the
    # universal, so it is not the minimum feeding proportion
    model, lexicon = load_world("donkey_half.world.json")
    naive = q.eval_naive(donkey_graph, model, lexicon).probability
    assert 0.0 <= naive <= 1.0
    assert naive != pytest.approx(0.5, abs=1e-12)


def test_most_is_strict_at_an_inexact_half():
    # 7 pixies of mass 1/7: r holds on 6, b on 3 of those.  The ratio is
    # 3/6 exactly; summed with bare float additions it came out as
    # 0.5000000000000001 and the strict `most` shape returned 1.
    pixies = tuple(f"p{i}" for i in range(7))
    model = q.SituationModel(
        q.PixieSpace(pixies), ("x",), tuple(((px,), 1.0 / 7) for px in pixies)
    )
    lexicon = q.VagueLexicon(
        {
            "r": q.VaguePredicate("r", {px: 1.0 for px in pixies[:6]}),
            "b": q.VaguePredicate("b", {px: 1.0 for px in pixies[:3]}),
        }
    )
    graph = q.parse_prop("(most (x) (r x) (b x))")
    for scheme in q.LiftScheme:
        assert q.eval_exact(graph, model, lexicon, scheme).probability == 0.0
        assert q.eval_mc(graph, model, lexicon, scheme, samples=50, seed=0).probability == 0.0
    assert q.eval_naive(graph, model, lexicon).probability == 0.0


def test_equal_models_give_equal_bits():
    # the three rows of pixie a hold a little more than the 0.12 of pixie b,
    # so the strict `most` holds.  Added in joint order, y0 first, they
    # round down to 0.12, a ratio of exactly 1/2; y1 first, they do not.
    rows = {("a", "y0"): 0.1, ("a", "y1"): 0.01, ("a", "y2"): 0.01,
            ("b", "y0"): 0.12, ("c", "y0"): 0.76}
    space = q.PixieSpace(("a", "b", "c", "y0", "y1", "y2"))
    lexicon = q.VagueLexicon({"r": q.VaguePredicate("r", {"a": 1.0, "b": 1.0}),
                              "b": q.VaguePredicate("b", {"a": 1.0})})
    graph = q.parse_prop("(most (x) (r x) (b x))")
    models = [q.SituationModel(space, ("x", "y"), tuple((k, rows[k]) for k in order))
              for order in (list(rows), [("a", "y1"), ("a", "y2"), ("a", "y0"),
                                         ("b", "y0"), ("c", "y0")])]
    assert models[0] == models[1]
    a = math.fsum([0.1, 0.01, 0.01])
    assert a > 0.12
    for model in models:
        assert q.eval_exact(graph, model, lexicon).probability == 1.0
        assert list(model.marginal(("x",)).items()) == [(("a",), a), (("b",), 0.12),
                                                        (("c",), 0.76)]


def _all_fractional_world(n_pixies):
    # uniform mass; every r and b entry strictly between 0 and 1
    pixies = tuple(f"p{i}" for i in range(n_pixies))
    model = q.SituationModel(
        q.PixieSpace(pixies), ("x",), tuple(((px,), 1.0 / n_pixies) for px in pixies)
    )
    lexicon = q.VagueLexicon({
        name: q.VaguePredicate(name, {px: (3 * i + k) % 17 / 17 + 1 / 34
                                      for i, px in enumerate(pixies)})
        for k, name in enumerate(("r", "b"))
    })
    return model, lexicon


def test_counting_path_scales_to_40_pixies():
    # 80 fractional cells: enumeration would need 2^80 configurations; the
    # count states (k_r, k_rb) number 41 * 42 / 2 = 861
    model, lexicon = _all_fractional_world(40)
    graph = q.parse_prop("(many (x) (r x) (b x))")
    start = time.perf_counter()
    exact = q.eval_exact(graph, model, lexicon).probability
    assert time.perf_counter() - start < 2.0
    mc = q.eval_mc(graph, model, lexicon, samples=4000, seed=1)
    z = 5.0  # a miss has probability below 1e-6
    half = z * math.sqrt(exact * (1 - exact) / 4000)
    assert abs(mc.probability - exact) <= half
    with pytest.raises(ExplosionGuard) as caught:
        q.eval_exact(graph, model, lexicon, limits=q.EngineLimits(config_cap=860))
    assert (caught.value.count, caught.value.cap) == (861, 860)
    assert q.eval_exact(graph, model, lexicon,
                        limits=q.EngineLimits(config_cap=861)).probability == exact


def test_nested_quantifiers_still_enumerate():
    # a graph with a second quantifier keeps enumeration: 11 pixies x 2
    # fractional cells need 2^22 configurations, over the default cap 2^20
    model, lexicon = _all_fractional_world(11)
    graph = q.parse_prop("(some (x) true (many (x) (r x) (b x)))")
    with pytest.raises(ExplosionGuard) as caught:
        q.eval_exact(graph, model, lexicon)
    assert (caught.value.count, caught.value.cap) == (2**22, 2**20)


def _seven_class_world(n_pixies):
    """Masses in units 20, 22, 24, 27, 31, 26 and 30, round-robin, the last
    row topped up so that the units fill a power of two (exactly 1024 at
    40 pixies); every r and b entry k/256 from ``random.Random(0)``.
    Returns (model, lexicon, masses as Fractions, r, b), in pixie order."""
    units = [(20, 22, 24, 27, 31, 26, 30)[i % 7] for i in range(n_pixies)]
    grid = 1 << (sum(units) - 1).bit_length()
    units[-1] += grid - sum(units)
    rng = random.Random(0)
    r, b = ([rng.randint(1, 255) / 256 for _ in units] for _ in "rb")
    pixies = tuple(f"p{i:02d}" for i in range(n_pixies))
    model = q.SituationModel(q.PixieSpace(pixies), ("x",),
                             tuple(((px,), u / grid) for px, u in zip(pixies, units)))
    lexicon = q.VagueLexicon({name: q.VaguePredicate(name, dict(zip(pixies, values)))
                              for name, values in (("r", r), ("b", b))})
    return model, lexicon, [Fraction(u, grid) for u in units], r, b


def _every_and_most(masses, r, b):
    """Exact P(every) and P(most) of ``(Q (x) (r x) (b x))`` under the
    independent lift.  every holds unless some row holds r and not b;
    most holds where X = N - (D - N) > 0, the mass of the rows holding r
    and b less that of the rows holding r and not b, convolved row by row."""
    every = math.prod(1 - Fraction(ri) * (1 - Fraction(bi)) for ri, bi in zip(r, b))
    dist = {Fraction(0): Fraction(1)}
    for m, ri, bi in zip(masses, map(Fraction, r), map(Fraction, b)):
        grown = defaultdict(Fraction)
        for x, p in dist.items():
            grown[x] += p * (1 - ri)
            grown[x - m] += p * ri * (1 - bi)
            grown[x + m] += p * ri * bi
        dist = grown
    return every, sum(p for x, p in dist.items() if x > 0)


def test_counting_path_sums_seven_mass_classes():
    # per-class count states would number 1,399,680 at 16 pixies and 7.6e9
    # at 40, over the default cap; the (D, N) mass sums number at most
    # 513 * 514 / 2 and 1025 * 1026 / 2
    model, lexicon, masses, r, b = _seven_class_world(16)
    for kind, expected in zip(("every", "most"), _every_and_most(masses, r, b)):
        got = q.eval_exact(q.parse_prop(f"({kind} (x) (r x) (b x))"), model, lexicon)
        assert math.isclose(got.probability, float(expected), rel_tol=0, abs_tol=1e-12), kind

    model, lexicon, *_ = _seven_class_world(40)
    graph = q.parse_prop("(most (x) (r x) (b x))")
    with pytest.raises(ExplosionGuard) as caught:
        q.eval_exact(graph, model, lexicon, limits=q.EngineLimits(config_cap=1025 * 513 - 1))
    assert caught.value.count == 1025 * 513
    start = time.perf_counter()
    exact = q.eval_exact(graph, model, lexicon).probability
    assert time.perf_counter() - start < 5.0
    assert 0.01 < exact < 0.99
    n, z = 20000, 5.0  # a miss has probability below 1e-6
    p_hat = q.eval_mc(graph, model, lexicon, samples=n, seed=1).probability
    center = (p_hat + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * math.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n))
    assert center - half <= exact <= center + half


def test_counting_guard_raises_before_allocating():
    # 20 pixies of distinct masses off any common grid: 3^20 count pairs
    # over the classes, and about 2^55 units in all, both over the cap
    pixies = tuple(f"p{i:02d}" for i in range(20))
    weights = [1 / (i + 3) for i in range(20)]
    model = q.SituationModel(q.PixieSpace(pixies), ("x",),
                             tuple(((px,), w / sum(weights)) for px, w in zip(pixies, weights)))
    lexicon = q.VagueLexicon({name: q.VaguePredicate(name, dict.fromkeys(pixies, 0.5))
                              for name in ("r", "b")})
    graph = q.parse_prop("(many (x) (r x) (b x))")
    tracemalloc.start()
    try:
        with pytest.raises(ExplosionGuard) as caught:
            q.eval_exact(graph, model, lexicon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (caught.value.count, caught.value.cap) == (3**20, 2**20)


def test_counting_patterns_are_evaluated_a_chunk_at_a_time():
    # 12 and 22 predicates with fractional cells on 100 uniform pixies: the
    # 2^12 patterns over 100 rows would be 3.3 MB per table at once, and 2^22
    # patterns would pass the cap; each row's outcomes are products of psi
    for d in (12, 22):
        names = [f"a{i}" for i in range(d)]
        apps = [f"({a} x)" for a in names]
        graph = q.parse_prop(f"(every (x) (and {' '.join(apps[:d // 2])}) "
                             f"(and {' '.join(apps[d // 2:])}))")
        pixies = tuple(f"p{i:03d}" for i in range(100))
        rng = random.Random(0)
        lexicon = q.VagueLexicon({a: q.VaguePredicate(a, {p: rng.randint(1, 255) / 256
                                                          for p in pixies}) for a in names})
        model = q.SituationModel(q.PixieSpace(pixies), ("x",), tuple(((p,), 0.01) for p in pixies))
        tracemalloc.start()
        try:
            p = q.eval_exact(graph, model, lexicon).probability
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        # every row holds r -> b on its own: the product over pixies
        expected = math.prod(
            1.0 - math.prod(lexicon.psi(a, px) for a in names[:d // 2])
            * (1.0 - math.prod(lexicon.psi(a, px) for a in names[d // 2:])) for px in pixies)
        assert math.isclose(p, expected, rel_tol=1e-12)


def _cliff_world(n_pixies, classes):
    # scripts/count_cliff.py's worlds: uniform masses, or 7 classes filling
    # a power-of-two grid (1/1024 at 40 pixies); r and b all fractional
    spec = importlib.util.spec_from_file_location(
        "count_cliff", FIXTURES.parent / "scripts" / "count_cliff.py")
    count_cliff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(count_cliff)
    return count_cliff.world(n_pixies, classes)


def _counted_bits(cases):
    # each case evaluated cold and then on its reused plan, as float hex
    return [q.eval_exact(graph, model, lexicon, generic_empty=empty).probability.hex()
            for graph, model, lexicon, empty in cases() for _ in range(2)]


def _countable_cases():
    kinds = [k.value for k in q.QuantifierKind]
    for seed in range(400):
        model, lexicon, graph, _ = random_countable_case(random.Random(seed), kinds[seed % 7])
        yield graph, model, lexicon, float(seed % 2)
    model, lexicon = _cliff_world(16, True)
    for kind in kinds:
        yield q.parse_prop(f"({kind} (x) (r x) (b x))"), model, lexicon, 1.0


def test_count_grid_and_map_give_equal_bits(monkeypatch):
    # the dense grid of count states and the sorted-key map add each
    # state's terms in one order, so with no grid at all (a budget of 0)
    # every countable case keeps its bits.  The map calls bincount once a
    # row: most cases fit the grid, and masses off a common grid keep the map
    from quantale import engine

    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
    bits = _counted_bits(_countable_cases)
    on_grid = len(calls)
    monkeypatch.setattr(engine, "COUNT_GRID_CELLS", 0)
    assert _counted_bits(_countable_cases) == bits
    assert 0 < 2 * on_grid < len(calls) - on_grid
    # 16 uniform pixies, all fractional: side 17, so the grid holds 17**2
    # cells; one cell less of budget takes the map
    model, lexicon = _cliff_world(16, False)
    graph = q.parse_prop("(many (x) (r x) (b x))")
    got = []
    for budget, dense in ((17**2, True), (17**2 - 1, False)):
        monkeypatch.setattr(engine, "COUNT_GRID_CELLS", budget)
        calls.clear()
        got.append(q.eval_exact(graph, q.SituationModel(model.space, model.variables,
                                                        model.joint), lexicon).probability)
        assert (not calls) == dense, budget
    assert got[0].hex() == got[1].hex()


def test_count_grid_peak_memory():
    # 40 pixies in 7 mass classes on the 1/1024 grid: side 1025, so the
    # grid's 1025**2 floats (8.4 MB) fit the budget.  A warm evaluation
    # peaks near four such arrays (31.8 MiB); the sorted-key map alone
    # peaked at 45.5 MiB, over the bound of five
    from quantale.engine import COUNT_GRID_CELLS

    side = 1025
    assert side**2 <= COUNT_GRID_CELLS
    model, lexicon = _cliff_world(40, True)
    graph = q.parse_prop("(every (x) (r x) (b x))")
    q.eval_exact(graph, model, lexicon)
    tracemalloc.start()
    try:
        q.eval_exact(graph, model, lexicon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * side**2


@pytest.mark.parametrize("r, b", [
    # fractional rows beside fixed rows holding r, and r and b
    ((1.0, 1.0, 0.0, 0.5, 0.25, 0.75), (1.0, 0.0, 1.0, 0.5, 0.625, 1.0)),
    # fractional rows beside fixed rows outside r: D = 0 is empty
    ((0.0, 0.0, 0.5, 0.25), (1.0, 0.0, 0.5, 0.75)),
    # no fractional cell, so no unit: one state, fixed counts only
    ((1.0, 1.0, 0.0, 1.0), (1.0, 0.0, 1.0, 0.0)),
    ((0.0, 0.0, 0.0), (1.0, 0.0, 1.0)),
])
def test_counted_root_reads_its_count_table_under_reuse(monkeypatch, r, b):
    # a one-mass generic root reads f_Q at (D + fixed r) * side + N + fixed
    # rb from the table its reused plan builds, one plan per generic_empty;
    # each result has a fresh model's bits, which shape the states instead
    from quantale import engine

    pixies = tuple(f"p{i}" for i in range(len(r)))
    lexicon = q.VagueLexicon({name: q.VaguePredicate(name, dict(zip(pixies, values)))
                              for name, values in (("r", r), ("b", b))})
    joint = tuple(((p,), 1 / len(pixies)) for p in pixies)

    def fresh():
        return q.SituationModel(q.PixieSpace(pixies), ("x",), joint)

    graph = q.parse_prop("(generic (x) (r x) (b x))")
    calls = []
    unit_sums = engine._unit_sums
    monkeypatch.setattr(engine, "_unit_sums", lambda *a: calls.append(1) or unit_sums(*a))
    model, seen = fresh(), set()
    for empty in (1.0, 0.0, -0.0, 0.5, 1.0, 0.0, -0.0, 0.5):
        expected = q.eval_exact(graph, fresh(), lexicon, generic_empty=empty).probability
        calls.clear()
        got = q.eval_exact(graph, model, lexicon, generic_empty=empty).probability
        assert got.hex() == expected.hex(), empty
        # the states are shaped on a value's first evaluation, a table read from its second on
        assert len(calls) == (0 if empty.hex() in seen else 2), empty
        seen.add(empty.hex())


def test_alternating_generic_empty_builds_each_count_table_once(monkeypatch, donkey_graph):
    # each generic_empty keeps its own plan and so its own count tables:
    # alternating 1 and 0 builds each quantifier's table once per value,
    # and every result has a fresh model's bits
    from quantale.engine import _Core

    cases = ((q.parse_prop("(generic (x) (r x) (b x))"), _flat_world),
             (donkey_graph, lambda: _farmer_donkey_world(0)))
    empties = (1.0, 0.0) * 4
    fresh = [[q.eval_exact(graph, *world(), generic_empty=e).probability.hex() for e in empties]
             for graph, world in cases]
    built = []
    counter = _Core._counter
    monkeypatch.setattr(_Core, "_counter",
                        lambda c, i, kind: built.append((i, c.generic_empty)) or counter(c, i, kind))
    for (graph, world), expected in zip(cases, fresh):
        model, lexicon = world()
        built.clear()
        got = [q.eval_exact(graph, model, lexicon, generic_empty=e).probability.hex()
               for e in empties]
        assert got == expected
        plan = model._memo["plans"][tuple(graph.nodes), graph.root, True, (0.0).hex()]
        assert sorted(built) == sorted((i, e) for i in plan.counting for e in (0.0, 1.0))
        assert all(table is not None for table in plan.tables.values())


def test_a_step_with_a_vague_empty_value_is_thresholded():
    # every's step, but 1/2 on an empty restriction: a vague shape, so mc
    # thresholds it into whole hits and generic-fast takes it
    every = q.quant.BUILTIN_SHAPES[q.QuantifierKind.EVERY]
    shape = q.ShapeSpec(every.points, every.segments, 0.5)
    graph = q.ScopeGraph((q.Application("red", "x"), q.Quantifier(shape, ("x",), 0, 0)), 1)
    model, lexicon = red_world(0.5)
    for scheme in q.LiftScheme:
        assert q.eval_exact(graph, model, lexicon, scheme).probability == 0.75
        hits = q.eval_mc(graph, model, lexicon, scheme, samples=1024, seed=3).probability * 1024
        assert hits.is_integer() and 700 < hits < 840
    fast = q.eval_generic_fast(graph, model, lexicon)
    assert fast.probability == q.eval_naive(graph, model, lexicon).probability


def _flat_world():
    pixies = tuple(f"p{i}" for i in range(7))
    model = q.SituationModel(q.PixieSpace(pixies), ("x",), tuple(((p,), 1 / 7) for p in pixies))
    r = dict(zip(pixies, (1.0, 0.75, 0.5, 0.25, 1.0, 0.125, 0.0)))
    b = dict(zip(pixies, (0.5, 1.0, 0.375, 0.0, 0.625, 1.0, 0.875)))
    return model, q.VagueLexicon({"r": q.VaguePredicate("r", r), "b": q.VaguePredicate("b", b)})


def _grouped_world():
    # x-groups of 4, 3 and 2 rows, each of one mass
    sizes, weights = (4, 3, 2), (1.0, 3.0, 5.0)
    total = sum(s * w for s, w in zip(sizes, weights))
    joint = tuple(((f"p{g}", f"p{k}"), w / total)
                  for g, (s, w) in enumerate(zip(sizes, weights)) for k in range(s))
    model = q.SituationModel(q.PixieSpace(("p0", "p1", "p2", "p3")), ("x", "y"), joint)
    tables = {"f": {"p0": 0.75, "p1": 1.0, "p2": 0.5},
              "r": {"p0": 1.0, "p1": 0.625, "p2": 0.25, "p3": 0.875},
              "b": {"p0": 0.5, "p1": 0.375, "p2": 1.0, "p3": 0.125}}
    return model, q.VagueLexicon({n: q.VaguePredicate(n, t) for n, t in tables.items()})


# eval_mc(seed=11) at samples chunk - 1, chunk, chunk + 1 and 3 chunk + 5
# under (independent, coupled-threshold), as float hex: the streams from
# before quantifiers on full chunks counted by a matrix product
CHUNK_PINS = {
    "(many (x) (r x) (b x))": (_flat_world, 1170, [
        ("0x1.33e698dafd975p-1", "0x1.36875610348edp-1"),
        ("0x1.33a33a33a33a3p-1", "0x1.36b36b36b36b3p-1"),
        ("0x1.33cfe783d366fp-1", "0x1.366f7e9438d72p-1"),
        ("0x1.36fcb8fd736fdp-1", "0x1.384c539c1384cp-1"),
    ]),
    "(most (x) (f x) (many (y) (r y) (and (b y) (f x))))": (_grouped_world, 910, [
        ("0x1.ea0872e77f93ep-2", "0x1.0288df0cac5b4p-1"),
        ("0x1.e97e97e97e97fp-2", "0x1.02d02d02d02d0p-1"),
        ("0x1.e8f50a65b9bf6p-2", "0x1.031752e5ddb78p-1"),
        ("0x1.ee3739909d402p-2", "0x1.06756050df256p-1"),
    ]),
}


@pytest.mark.parametrize("prop", list(CHUNK_PINS))
def test_mc_streams_are_pinned_around_the_chunk(prop):
    from quantale.engine import _Core

    world, chunk, pins = CHUNK_PINS[prop]
    model, lexicon = world()
    graph = q.parse_prop(prop)
    assert _Core(graph, model, lexicon).chunk == chunk
    for samples, pin in zip((chunk - 1, chunk, chunk + 1, 3 * chunk + 5), pins):
        got = tuple(q.eval_mc(graph, model, lexicon, scheme, samples=samples, seed=11)
                    .probability.hex() for scheme in q.LiftScheme)
        assert got == pin, samples


@pytest.mark.parametrize("b, pins", [
    ({"p0": 1.0}, ("0x1.2b96eb39a9521p-2", "0x1.29ec99600bfd8p-2")),
    ({"p0": 1.0, "p1": 0.5}, None),
])
def test_gapped_custom_shape_raises_only_on_a_reached_ratio(b, pins):
    # the shape covers [0, 1/2) and 1 only; with b on p0 alone, r on p0-p2
    # and maybe p3, the ratio is 1/3 or 1/4, though 2 of 4 rows is possible
    shape = q.ShapeSpec(((0.0, 0.0), (1.0, 1.0)), ((0.0, 0.5, 0.0, 0.5),))
    pixies = ("p0", "p1", "p2", "p3")
    model = q.SituationModel(q.PixieSpace(pixies), ("x",), tuple(((p,), 0.25) for p in pixies))
    graph = q.parse_prop("(every (x) (r x) (b x))")
    root = graph.nodes[graph.root]
    graph = q.ScopeGraph(graph.nodes[:graph.root]
                         + (q.Quantifier(shape, root.bound, root.restriction, root.body),),
                         graph.root)
    r = {"p0": 1.0, "p1": 1.0, "p2": 1.0, "p3": 0.5}
    lexicon = q.VagueLexicon({"r": q.VaguePredicate("r", r), "b": q.VaguePredicate("b", b)})
    for k, scheme in enumerate(q.LiftScheme):
        if pins is None:
            with pytest.raises(ShapeDomainError, match="does not cover ratio 0.5"):
                q.eval_mc(graph, model, lexicon, scheme, samples=3 * 2048 + 5, seed=5)
        else:
            result = q.eval_mc(graph, model, lexicon, scheme, samples=3 * 2048 + 5, seed=5)
            assert result.probability.hex() == pins[k]


def test_unassigned_pixies_take_no_room():
    # 20000 pixies of which the joint's rows assign 2: the lift's bit
    # arrays hold the 2, not the whole space
    pixies = tuple(f"p{i:05d}" for i in range(20000))
    model = q.SituationModel(q.PixieSpace(pixies), ("x",),
                             ((("p00003",), 0.25), (("p17000",), 0.75)))
    lexicon = q.VagueLexicon({
        "r": q.VaguePredicate("r", {"p00003": 0.5, "p17000": 0.25}),
        "b": q.VaguePredicate("b", {"p00003": 0.75, "p17000": 0.5}),
    })
    graph = q.parse_prop("(many (x) (r x) (b x))")
    tracemalloc.start()
    try:
        got = [q.eval_mc(graph, model, lexicon, scheme, samples=10000, seed=3).probability.hex()
               for scheme in q.LiftScheme]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert got == ["0x1.a3bcd35a85879p-2", "0x1.4f41f212d7732p-2"]


# eval_mc(samples=3000, seed=2026) under (independent, coupled-threshold) on
# every fixture world x prop that validates, as float hex; every other pair
# fails validation.  MC streams must not change from one version to the next.
MC_PINS = {
    ("dog_barks.world.json", "dog_barks.prop"): ("0x1.9ee402bb0cf88p-1", "0x1.9867c3ece2a53p-1"),
    ("donkey_half.world.json", "donkey.prop"): ("0x1.0083126e978d5p-1", "0x1.0057619f0fb39p-1"),
    ("donkey_prop000.world.json", "donkey.prop"): ("0x0.0p+0", "0x0.0p+0"),
    ("donkey_prop050.world.json", "donkey.prop"): ("0x1.0083126e978d5p-1", "0x1.0057619f0fb39p-1"),
    ("donkey_prop100.world.json", "donkey.prop"): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("donkey_threequarters.world.json", "donkey.prop"): ("0x1.82e6bdc805762p-1",
                                                          "0x1.80da740da740ep-1"),
    ("picture_story.world.json", "picture_story.prop"): ("0x0.0p+0", "0x0.0p+0"),
    ("prevalence_half.world.json", "generic_carries.prop"): ("0x1.09ba5e353f7cfp-1",
                                                              "0x1.fc3ece2a53491p-2"),
    ("prevalence_zero.world.json", "generic_carries.prop"): ("0x0.0p+0", "0x0.0p+0"),
    ("red.world.json", "every_red.prop"): ("0x1.68f5c28f5c28fp-1", "0x1.68f5c28f5c28fp-1"),
    ("red.world.json", "some_red.prop"): ("0x1.68f5c28f5c28fp-1", "0x1.68f5c28f5c28fp-1"),
}


def test_mc_fixture_results_are_pinned(fixtures_dir):
    schemes = (q.LiftScheme.INDEPENDENT, q.LiftScheme.COUPLED_THRESHOLD)
    for world in sorted(fixtures_dir.glob("*.world.json")):
        model, lexicon = load_world(world.name)
        for prop in sorted(fixtures_dir.glob("*.prop")):
            graph = load_prop(prop.name)
            pins = MC_PINS.get((world.name, prop.name))
            for k, scheme in enumerate(schemes):
                if pins is None:
                    with pytest.raises(ValidationFailed):
                        q.eval_mc(graph, model, lexicon, scheme, samples=3000, seed=2026)
                    continue
                result = q.eval_mc(graph, model, lexicon, scheme, samples=3000, seed=2026)
                assert result.probability.hex() == pins[k], (world.name, prop.name, scheme)


# eval_exact under (independent, coupled-threshold), then eval_naive and
# eval_generic_fast, on every fixture world x prop that validates: float hex,
# or the error raised.  Every other pair fails validation in all four.
EXACT_PINS = {
    ("dog_barks.world.json", "dog_barks.prop"): ("0x1.999999999999ap-1", "0x1.999999999999ap-1",
                                                 "0x1.999999999999ap-1", "0x1.999999999999ap-1"),
    ("donkey_half.world.json", "donkey.prop"): ("0x1.0000000000000p-1", "0x1.0000000000000p-1",
                                                "0x0.0p+0", PreciseQuantifierInFastPath),
    ("donkey_prop000.world.json", "donkey.prop"): ("0x0.0p+0", "0x0.0p+0",
                                                   "0x0.0p+0", PreciseQuantifierInFastPath),
    ("donkey_prop050.world.json", "donkey.prop"): ("0x1.0000000000000p-1", "0x1.0000000000000p-1",
                                                   "0x0.0p+0", PreciseQuantifierInFastPath),
    ("donkey_prop100.world.json", "donkey.prop"): ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
                                                   "0x1.0000000000000p+0",
                                                   PreciseQuantifierInFastPath),
    ("donkey_threequarters.world.json", "donkey.prop"): ("0x1.8000000000000p-1",
                                                          "0x1.8000000000000p-1",
                                                          "0x0.0p+0", PreciseQuantifierInFastPath),
    ("picture_story.world.json", "picture_story.prop"): ("0x0.0p+0", "0x0.0p+0",
                                                         "0x0.0p+0", PreciseQuantifierInFastPath),
    ("prevalence_half.world.json", "generic_carries.prop"): ("0x1.0000000000000p-1",
                                                              "0x1.0000000000000p-1",
                                                              "0x1.0000000000000p-1",
                                                              "0x1.0000000000000p-1"),
    ("prevalence_zero.world.json", "generic_carries.prop"): ("0x0.0p+0", "0x0.0p+0",
                                                              "0x0.0p+0", "0x0.0p+0"),
    ("red.world.json", "every_red.prop"): ("0x1.6666666666666p-1", "0x1.6666666666666p-1",
                                           "0x0.0p+0", PreciseQuantifierInFastPath),
    ("red.world.json", "some_red.prop"): ("0x1.6666666666666p-1", "0x1.6666666666666p-1",
                                          "0x1.0000000000000p+0", PreciseQuantifierInFastPath),
}


def test_exact_fixture_results_are_pinned(fixtures_dir):
    engines = (
        lambda *inputs: q.eval_exact(*inputs, q.LiftScheme.INDEPENDENT),
        lambda *inputs: q.eval_exact(*inputs, q.LiftScheme.COUPLED_THRESHOLD),
        q.eval_naive,
        q.eval_generic_fast,
    )
    for world in sorted(fixtures_dir.glob("*.world.json")):
        model, lexicon = load_world(world.name)
        for prop in sorted(fixtures_dir.glob("*.prop")):
            graph = load_prop(prop.name)
            pins = EXACT_PINS.get((world.name, prop.name), (ValidationFailed,) * 4)
            for k, (run, pin) in enumerate(zip(engines, pins)):
                if isinstance(pin, type):
                    with pytest.raises(pin):
                        run(graph, model, lexicon)
                    continue
                result = run(graph, model, lexicon)
                assert result.probability.hex() == pin, (world.name, prop.name, k)
