import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import quantale as q
from quantale.rsa import meaning_matrix

from conftest import quant_over_tautology
from oracles import (
    PRECISE_ORACLE_KINDS,
    classical_root,
    random_classical_case,
    random_countable_case,
    random_dyadic_world,
    random_generic_case,
    random_tree,
    random_vague_dag,
    vague_exact_value,
    vague_node_count,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_exact_matches_classical_oracle(seed):
    rng = random.Random(seed)
    model, lexicon, graph, domains, truth = random_classical_case(rng)
    expected = 1.0 if classical_root(graph, domains, truth) else 0.0
    assert q.eval_exact(graph, model, lexicon).probability == expected


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_all_precise_engines_agree(seed):
    # with crisp predicates and precise quantifiers there is a single
    # configuration, so naive and exact coincide under both schemes
    rng = random.Random(seed)
    model, lexicon, graph, _, _ = random_classical_case(rng)
    value = q.eval_naive(graph, model, lexicon).probability
    for scheme in q.LiftScheme:
        assert q.eval_exact(graph, model, lexicon, scheme).probability == value


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_generic_fast_equals_direct_ratio(seed):
    rng = random.Random(seed)
    model, lexicon, graph, expected = random_generic_case(rng)
    got = q.eval_generic_fast(graph, model, lexicon).probability
    assert math.isclose(got, expected, rel_tol=0, abs_tol=1e-12)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_compare_generic_gap_finite_and_reproducible(seed):
    rng = random.Random(seed)
    model, lexicon, graph, _ = random_generic_case(rng)
    first = q.compare_generic(graph, model, lexicon)
    second = q.compare_generic(graph, model, lexicon)
    assert math.isfinite(first.gap)
    assert first.gap == abs(first.exact - first.fast)
    assert first == second


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_exact_probability_in_unit_interval(seed):
    rng = random.Random(seed)
    model, lexicon, graph, _ = random_generic_case(rng)
    for scheme in q.LiftScheme:
        p = q.eval_exact(graph, model, lexicon, scheme).probability
        assert 0.0 <= p <= 1.0


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_exact_every_equals_some_on_one_pixie(p):
    from conftest import red_world

    model, lexicon = red_world(p)
    every = q.eval_exact(quant_over_tautology("every"), model, lexicon).probability
    some = q.eval_exact(quant_over_tautology("some"), model, lexicon).probability
    assert math.isclose(every, p, abs_tol=1e-12)
    assert math.isclose(some, p, abs_tol=1e-12)


@given(seeds, st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=50, deadline=None)
def test_threshold_marginal_identity(seed, noise):
    # a single vague quantifier over crisp children equals f_Q applied
    # to the restriction-body ratio: theta integration is exact
    rng = random.Random(seed)
    n_pix = rng.randint(2, 4)
    pixies = tuple(f"p{i}" for i in range(n_pix))
    weights = [rng.random() + noise for _ in pixies]
    total = sum(weights)
    model = q.SituationModel(
        q.PixieSpace(pixies),
        ("x",),
        tuple(((px,), w / total) for px, w in zip(pixies, weights)),
    )
    restr = {px: 1.0 for px in pixies if rng.random() < 0.7}
    body = {px: 1.0 for px in pixies if rng.random() < 0.5}
    lexicon = q.VagueLexicon(
        {"r": q.VaguePredicate("r", restr), "b": q.VaguePredicate("b", body)}
    )
    den = math.fsum(m for (px,), m in model.joint if px in restr)
    num = math.fsum(m for (px,), m in model.joint if px in restr and px in body)
    for kind in q.QuantifierKind:
        nodes = (
            q.Application("r", "x"),
            q.Application("b", "x"),
            q.Quantifier(kind, ("x",), 0, 1),
        )
        graph = q.ScopeGraph(nodes, root=2)
        if den == 0.0:
            expected = q.empty_restriction_value(kind)
        else:
            expected = q.shape_value(kind, num / den)
        got = q.eval_exact(graph, model, lexicon).probability
        assert math.isclose(got, expected, rel_tol=0, abs_tol=1e-12)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_prop_round_trip_fixpoint(seed):
    rng = random.Random(seed)
    graph = random_tree(rng, tuple("xyz"[: rng.randint(1, 3)]))
    text = q.serialize_prop(graph)
    again = q.serialize_prop(q.parse_prop(text))
    assert text == again


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_vague_oracle_matches_exact_engine(seed):
    # the oracle integrates every vague node's threshold in rationals;
    # non-dyadic ratios make the engine round its cut values, hence the
    # tolerance
    rng = random.Random(seed)
    variables = tuple("xy"[: rng.randint(1, 2)])
    shared, duplicated = random_vague_dag(rng, variables)
    assume(vague_node_count(duplicated) <= 4)
    model, lexicon = random_dyadic_world(rng, variables)
    for graph in (shared, duplicated):
        for scheme in q.LiftScheme:
            expected = vague_exact_value(graph, model, lexicon, scheme)
            got = q.eval_exact(graph, model, lexicon, scheme).probability
            assert math.isclose(got, float(expected), rel_tol=0, abs_tol=1e-12), (
                scheme, q.serialize_prop(graph), got, expected)


@pytest.mark.parametrize("generic_empty", [0.0, 1.0])
@pytest.mark.parametrize("kind", [k.value for k in q.QuantifierKind])
@given(seeds)
@settings(max_examples=15, deadline=None)
def test_counting_path_matches_oracle_and_enumeration(kind, generic_empty, seed):
    # one root quantifier over one variable takes the counting path under
    # the independent lift; its probabilities accumulate in another order
    # than enumeration's, so only exact (dyadic, 0/1-valued) terms give ==
    from quantale.engine import _Core, _enumerated

    rng = random.Random(seed)
    model, lexicon, graph, dyadic = random_countable_case(rng, kind)
    core = _Core(graph, model, lexicon, generic_empty)
    assert core.countable
    counted = q.eval_exact(graph, model, lexicon, generic_empty=generic_empty).probability
    enumerated = min(max(_enumerated(core, q.LiftScheme.INDEPENDENT, 2**20), 0.0), 1.0)
    expected = float(vague_exact_value(graph, model, lexicon, q.LiftScheme.INDEPENDENT,
                                       generic_empty))
    case = (q.serialize_prop(graph), model.joint, lexicon, counted, enumerated, expected)
    assert math.isclose(counted, expected, rel_tol=0, abs_tol=1e-12), case
    assert math.isclose(counted, enumerated, rel_tol=0, abs_tol=1e-15), case
    if dyadic and kind in PRECISE_ORACLE_KINDS:
        assert counted == enumerated == expected, case


def test_vague_oracle_separates_shared_from_duplicated_thresholds():
    # (and #g #g) with one shared generic node keeps its value 0.5, while
    # two textual copies draw independent thresholds: 0.5 * 0.5
    model = q.SituationModel(
        q.PixieSpace(("a", "b")), ("x",), ((("a",), 0.5), (("b",), 0.5))
    )
    lexicon = q.VagueLexicon({"P": q.VaguePredicate("P", {"a": 1.0})})
    shared = q.parse_prop("(let (g (generic (x) true (P x))) (and #g #g))")
    duplicated = q.parse_prop(
        "(and (generic (x) true (P x)) (generic (x) true (P x)))"
    )
    for scheme in q.LiftScheme:
        assert vague_exact_value(shared, model, lexicon, scheme) == Fraction(1, 2)
        assert vague_exact_value(duplicated, model, lexicon, scheme) == Fraction(1, 4)
        assert q.eval_exact(shared, model, lexicon, scheme).probability == 0.5
        assert q.eval_exact(duplicated, model, lexicon, scheme).probability == 0.25


@given(seeds, st.sampled_from(list(q.LiftScheme)))
@settings(max_examples=60, deadline=None)
def test_lift_marginals_reproduce_psi(seed, scheme):
    rng = random.Random(seed)
    pixies = tuple(f"p{i}" for i in range(rng.randint(1, 4)))
    lexicon = q.VagueLexicon(
        {
            name: q.VaguePredicate(
                name, {px: rng.randint(0, 16) / 16 for px in pixies}
            )
            for name in ("P", "Q")
        }
    )
    lifted = q.lift(lexicon, scheme, q.PixieSpace(pixies))
    assert math.fsum(w for _, w in lifted.configurations) == 1.0
    for name in lexicon.predicates:
        for px in pixies:
            marginal = math.fsum(
                w for plex, w in lifted.configurations if plex.holds(name, px)
            )
            assert marginal == lexicon.psi(name, px)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_run_sums_are_correctly_rounded(seed):
    # group sums, threshold integrals and count-state sums; compared with
    # math.fsum bit for bit on many short runs and few long ones
    from quantale.engine import _fsum_runs

    rng = random.Random(seed)
    n_runs = rng.choice([1, 3, 40, 200])
    counts = [rng.randint(0, 9) for _ in range(n_runs)]
    scale = [2.0 ** rng.randint(-60, 0) for _ in range(sum(counts))]
    terms = [s * rng.choice([1.0 / 7, rng.random(), 0.1, 1.0]) for s in scale]
    # 1 + 2^-53 is a tie that the last term breaks upwards; a sum that
    # keeps each addition's error in a single float rounds it down
    terms = np.array(terms + [1.0, 2.0**-53, 2.0**-107])
    counts = np.array(counts + [3])
    starts = np.cumsum(counts) - counts
    got = _fsum_runs(terms, starts, counts)
    expected = [math.fsum(terms[a:a + n].tolist()) for a, n in zip(starts, counts)]
    assert got.tolist() == expected


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_count_sums_are_correctly_rounded(seed):
    # a count state's sums: the masses of rows without fractional cells,
    # plus k copies of each class mass; compared with math.fsum over every
    # row's mass bit for bit
    from quantale.engine import _count_sums

    rng = random.Random(seed)

    def mass():
        return rng.choice([1.0 / 3, 1.0 / 7, 0.1, rng.random()]) * 2.0 ** rng.randint(-60, 0)

    fixed = [mass() for _ in range(rng.randint(0, 6))]
    masses = [mass() for _ in range(rng.randint(0, 4))]
    counts = [[rng.randint(0, 40) for _ in masses] for _ in range(rng.randint(1, 20))]
    got = _count_sums(np.array(counts, dtype=float).reshape(len(counts), len(masses)),
                      np.array(masses), fixed)
    expected = [math.fsum(fixed + [m for m, k in zip(masses, row) for _ in range(k)])
                for row in counts]
    assert got.tolist() == expected


def _wilson(p_hat, n, z):
    center = (p_hat + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * math.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n))
    return center - half, center + half


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_mc_lands_in_5_sigma_wilson_interval_of_exact(seed):
    # a miss has probability below 1e-6 per check; the z = 5 interval is
    # computed here, independently of the engine's 95% one
    rng = random.Random(seed)
    variables = tuple("xy"[: rng.randint(1, 2)])
    graph, _ = random_vague_dag(rng, variables)
    model, lexicon = random_dyadic_world(rng, variables)
    samples = 2000
    for scheme in q.LiftScheme:
        exact = q.eval_exact(graph, model, lexicon, scheme).probability
        mc = q.eval_mc(graph, model, lexicon, scheme, samples=samples, seed=seed)
        lo, hi = _wilson(mc.probability, samples, 5.0)
        assert lo - 1e-12 <= exact <= hi + 1e-12, (
            scheme, q.serialize_prop(graph), exact, mc.probability)


def _grouped_case(rng, masses):
    """A world whose inner quantifier ``(some (y) (P y) (Q x))`` groups
    its rows by x: one x pixie per group, with the given row masses (a
    list per group), the rows shuffled so that groups interleave."""
    width = max(len(masses), max(len(g) for g in masses))
    pixies = tuple(f"p{i}" for i in range(width))
    joint = [((pixies[g], pixies[k]), m) for g, group in enumerate(masses)
             for k, m in enumerate(group)]
    rng.shuffle(joint)
    model = q.SituationModel(q.PixieSpace(pixies), ("x", "y"), tuple(joint))
    lexicon = q.VagueLexicon({n: q.VaguePredicate(n, {}) for n in ("P", "Q")})
    graph = q.parse_prop("(every (x) true (some (y) (P y) (Q x)))")
    return model, lexicon, graph, graph.nodes[graph.root].body


def _uniform_groups(rng, n_rows):
    cuts = sorted(rng.sample(range(1, n_rows), rng.randint(0, min(n_rows - 1, 11))))
    sizes = np.diff([0, *cuts, n_rows]).tolist()
    return [[1.0 / n_rows] * s for s in sizes]


def _dyadic_groups(rng):
    groups = [[2.0 ** -rng.randint(6, 9)] * rng.randint(1, 6) for _ in range(rng.randint(1, 8))]
    return groups + [[1.0 - math.fsum(m for g in groups for m in g)]]


def _mixed_groups(rng):
    groups = [[rng.choice((1.0, 2.0, rng.random() + 0.05)) for _ in range(rng.randint(1, 6))]
              for _ in range(rng.randint(1, 8))]
    groups[0] += [groups[0][0] + 1.0]  # at least one group holds two masses
    total = math.fsum(m for g in groups for m in g)
    return [[m / total for m in g] for g in groups]


@pytest.mark.parametrize("masses", ["1/7", "1/192", "dyadic", "mixed"])
@given(seeds, st.sampled_from([1, 3, 1200]))
@settings(max_examples=12, deadline=None)
def test_crisp_count_sums_equal_row_sums_bit_for_bit(masses, seed, batch):
    # on 0/1 tables a crisp core sums a group of one mass m as (count) * m;
    # its sums, and the quantifier values from them, must carry the bits of
    # the correctly rounded row sums that a core without the crisp path takes
    from quantale.engine import _Core

    rng = random.Random(seed)
    groups = {"1/7": lambda: _uniform_groups(rng, 7),
              "1/192": lambda: _uniform_groups(rng, 192),
              "dyadic": lambda: _dyadic_groups(rng),
              "mixed": lambda: _mixed_groups(rng)}[masses]()
    model, lexicon, graph, i = _grouped_case(rng, groups)
    crisp = _Core(graph, model, lexicon, crisp=True)
    plain = _Core(graph, model, lexicon)
    assert (crisp.groups[i][4] is None) == (masses == "mixed")
    assert plain.groups[i][4] is None
    np_rng = np.random.default_rng(seed)
    r = (np_rng.random((batch, crisp.width)) < np_rng.random()).astype(float)
    b = (np_rng.random((batch, crisp.width)) < np_rng.random()).astype(float)
    # some groups with an empty restriction in every batch row
    empty = np.isin(crisp.groups[i][3], np_rng.choice(len(groups), len(groups) // 2))
    r[:, empty] = 0.0
    for got, want in zip(crisp.group_sums(i, r, b), plain.group_sums(i, r, b)):
        assert got.shape == (batch, len(groups))
        assert got.tobytes() == want.tobytes()
    assert crisp._quantify(i, r, b).tobytes() == plain._quantify(i, r, b).tobytes()


def test_custom_shapes_keep_row_sums():
    # this precise shape of some gives an empty restriction 1/2, so a
    # parent could read values other than 0 and 1 from it
    from quantale.engine import _Core

    rng = random.Random(0)
    model, lexicon, graph, i = _grouped_case(rng, _uniform_groups(rng, 7))
    node = graph.nodes[i]
    shape = q.ShapeSpec(((0.0, 0.0), (1.0, 1.0)), ((0.0, 1.0, 1.0, 1.0),), 0.5)
    nodes = graph.nodes[:i] + (q.Quantifier(shape, node.bound, node.restriction, node.body),)
    core = _Core(q.ScopeGraph(nodes + graph.nodes[i + 1:], graph.root), model, lexicon,
                 crisp=True)
    assert [g[4] for g in core.groups.values()] == [None, None]
    assert _Core(graph, model, lexicon, crisp=True).groups[i][4] is not None


def _mixed_joint(rng, space, variables):
    """A joint over a random subset of the cells, with zero masses and
    masses whose sums round, shuffled so that projections merge rows
    that lie apart."""
    cells = list(itertools.product(space.elements, repeat=len(variables)))
    rng.shuffle(cells)
    cells = cells[:rng.randint(1, len(cells))]
    weights = [rng.choice((0.0, 1.0, 3.0, rng.random())) for _ in cells]
    weights[0] = weights[0] or 1.0
    total = sum(weights)
    return q.SituationModel(space, variables, tuple((c, w / total) for c, w in zip(cells, weights)))


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_rows_are_the_positive_mass_marginal(seed):
    rng = random.Random(seed)
    space = q.PixieSpace(tuple(f"p{i}" for i in range(rng.randint(1, 4))))
    model = _mixed_joint(rng, space, tuple(rng.sample(("w", "x", "y", "z"), rng.randint(1, 3))))
    names = space.elements
    for size in range(1, len(model.variables) + 1):
        for vars in itertools.permutations(model.variables, size):
            # the marginal is keyed in lexicographic order of the pixies'
            # positions in the space, each mass the math.fsum of its rows
            terms = {}
            for assignment, mass in model.joint:
                key = tuple(assignment[model.variables.index(v)] for v in vars)
                terms.setdefault(key, []).append(mass)
            loop = {k: math.fsum(terms[k])
                    for k in sorted(terms, key=lambda k: [names.index(p) for p in k])}
            marginal = [(k, m.hex()) for k, m in model.marginal(vars).items()]
            assert marginal == [(k, m.hex()) for k, m in loop.items()]
            codes, mass = model.rows(vars)
            assert not codes.flags.writeable and not mass.flags.writeable
            rows = [(tuple(names[c] for c in row), m.hex())
                    for row, m in zip(codes.tolist(), mass.tolist())]
            assert rows == [(k, m) for k, m in marginal if float.fromhex(m) > 0.0]
            assert model.rows(vars)[0] is codes


def test_runs_order_rows_lexicographically():
    # codes up to about 2**40 sort as small ones do; equal rows keep their
    # order and share one run
    from quantale.model import _runs

    rng = np.random.default_rng(0)
    for scale in (3, 2**40):
        codes = rng.integers(0, 3, size=(300, 3)) * (scale // 3)
        order, starts, sizes, run = _runs(codes)
        rows = [tuple(r) for r in codes.tolist()]
        assert order.tolist() == sorted(range(len(rows)), key=rows.__getitem__)
        distinct = sorted(set(rows))
        assert [rows[i] for i in order[starts]] == distinct
        assert sizes.tolist() == [rows.count(r) for r in distinct]
        assert [distinct[k] for k in run.tolist()] == rows
    order, starts, sizes, run = _runs(codes[:, :0])
    assert (order.tolist(), starts.tolist(), sizes.tolist()) == (list(range(300)), [0], [300])
    assert not run.any()


def _every_engine(graph, model, lexicon, seed):
    """Hex results (or the raised type) of every engine and scheme."""
    runs = [lambda: q.eval_naive(graph, model, lexicon),
            lambda: q.eval_generic_fast(graph, model, lexicon)]
    for scheme in q.LiftScheme:
        runs += [lambda s=scheme: q.eval_exact(graph, model, lexicon, s),
                 lambda s=scheme: q.eval_mc(graph, model, lexicon, s, samples=100, seed=seed)]
    out = []
    for run in runs:
        try:
            out.append(run().probability.hex())
        except Exception as exc:
            out.append(type(exc).__name__)
    return out


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_results_do_not_depend_on_the_order_of_joint_rows(seed):
    # masses that are not dyadic and projections that merge several rows:
    # every engine gives the same bits on two equal models whose joint rows
    # come in different orders
    rng = random.Random(seed)
    variables = ("x", "y", "z")[:rng.randint(2, 3)]
    base, lexicon = random_dyadic_world(rng, variables)
    model = _mixed_joint(rng, base.space, variables)
    permuted = q.SituationModel(model.space, model.variables,
                                tuple(rng.sample(model.joint, len(model.joint))))
    assert permuted == model
    graphs = [q.parse_prop(f"({kind} ({v}) (P {v}) (Q {v}))")
              for kind in ("most", "many") for v in variables]
    graphs += [random_vague_dag(rng, variables)[0] for _ in range(2)]
    for graph in graphs:
        assert (_every_engine(graph, permuted, lexicon, seed)
                == _every_engine(graph, model, lexicon, seed)), q.serialize_prop(graph)
    for size in range(1, len(variables) + 1):
        for vars in itertools.permutations(variables, size):
            assert permuted.marginal(vars) == model.marginal(vars)


def _non_dyadic_world(rng, variables):
    """A world over 3-6 pixies whose joint masses (weights 1:2:3 or
    random, on a random subset of the cells) and vague values are not
    dyadic, with at most 8 fractional cells."""
    pixies = tuple(f"p{i}" for i in range(rng.randint(3, 6)))
    cells = list(itertools.product(pixies, repeat=len(variables)))
    cells = rng.sample(cells, rng.randint(min(len(cells), 3), len(cells)))
    weights = [rng.choice((1.0, 2.0, 3.0, rng.random() + 0.05)) for _ in cells]
    total = sum(weights)
    model = q.SituationModel(q.PixieSpace(pixies), variables,
                             tuple((c, w / total) for c, w in zip(cells, weights)))
    cells = list(itertools.product(("P", "Q"), pixies))
    fractional = rng.sample(cells, min(len(cells), 8))
    tables = {n: {} for n in ("P", "Q")}
    for name, px in cells:
        values = (0.1, 0.3, 1 / 3, 0.7) if (name, px) in fractional else (0.0, 1.0)
        tables[name][px] = rng.choice(values)
    return model, q.VagueLexicon({n: q.VaguePredicate(n, t) for n, t in tables.items()})


def _relisted(rng, model):
    """An equal model that lists its pixies, its variables (with the
    assignments' columns) and its joint rows in random orders."""
    pixies = rng.sample(model.space.elements, len(model.space.elements))
    order = rng.sample(range(len(model.variables)), len(model.variables))
    joint = [(tuple(a[i] for i in order), m) for a, m in model.joint]
    rng.shuffle(joint)
    return q.SituationModel(q.PixieSpace(tuple(pixies)),
                            tuple(model.variables[i] for i in order), tuple(joint))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_results_do_not_depend_on_how_the_model_is_listed(seed):
    # equal models give equal bits: every engine and scheme, and the RSA
    # meanings, under any listing of pixies, variables and joint rows
    rng = random.Random(seed)
    variables = ("x", "y")[:rng.randint(1, 2)]
    model, lexicon = _non_dyadic_world(rng, variables)
    relisted = _relisted(rng, model)
    assert relisted == model
    v = variables[-1]
    graphs = [q.parse_prop(f"({kind} (x) (P x) (Q x))") for kind in ("every", "most", "many")]
    # generic only, so generic-fast evaluates them
    graphs += [q.parse_prop("(generic (x) (P x) (Q x))"),
               q.parse_prop(f"(generic ({v}) (Q {v}) (generic (x) (P x) (Q {v})))")]
    graphs += [random_vague_dag(rng, variables)[0] for _ in range(2)]
    for graph in graphs:
        assert (_every_engine(graph, relisted, lexicon, seed)
                == _every_engine(graph, model, lexicon, seed)), q.serialize_prop(graph)

    def meanings(world):
        scenario = q.RsaScenario(
            tuple(q.RsaState(f"s{k}", 0.5, q.World(world, lexicon, scheme))
                  for k, scheme in enumerate(q.LiftScheme)),
            tuple(q.RsaUtterance(f"u{k}", g) for k, g in enumerate(graphs[:4])))
        return {u: {s: m.hex() for s, m in row.items()}
                for u, row in meaning_matrix(scenario).items()}

    assert meanings(relisted) == meanings(model)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_memoised_model_evaluates_as_a_fresh_one(seed):
    # one model evaluated under graphs that read different variable sets,
    # in several orders, gives the bits of a freshly built equal model
    rng = random.Random(seed)
    variables = ("x", "y", "z")[:rng.randint(1, 3)]
    base, lexicon = random_dyadic_world(rng, variables)
    model = _mixed_joint(rng, base.space, variables)
    graphs = [q.parse_prop(f"(some ({v}) (P {v}) (Q {v}))") for v in variables]
    graphs += [random_vague_dag(rng, variables)[0] for _ in range(3)]

    def results(m, graph):
        out = []
        for run in (lambda: q.eval_naive(graph, m, lexicon),
                    lambda: q.eval_generic_fast(graph, m, lexicon),
                    *(lambda s=s: q.eval_exact(graph, m, lexicon, s) for s in q.LiftScheme),
                    *(lambda s=s: q.eval_mc(graph, m, lexicon, s, samples=300, seed=seed)
                      for s in q.LiftScheme)):
            try:
                out.append(run().probability.hex())
            except Exception as exc:
                out.append(type(exc).__name__)
        return out

    def fresh():
        return q.SituationModel(model.space, model.variables, model.joint)

    want = [results(fresh(), g) for g in graphs]
    for order in (range(len(graphs)), reversed(range(len(graphs))),
                  rng.sample(range(len(graphs)), len(graphs))):
        for k in order:
            assert results(model, graphs[k]) == want[k]
    assert (model == fresh(), hash(model), repr(model)) == (True, hash(fresh()), repr(fresh()))
