import copy
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


@pytest.mark.parametrize("kind", [k.value for k in q.QuantifierKind])
@given(seeds)
@settings(max_examples=12, deadline=None)
def test_counting_path_matches_enumeration_over_mass_classes(kind, seed):
    # 2 to 9 pixies whose dyadic masses fall in several classes, up to 12
    # fractional cells; the count states merge rows of unequal mass, and
    # where test_counting_path_matches_oracle_and_enumeration demands ==
    # (dyadic terms, 0/1 shapes) the two paths agree to the bit
    from quantale.engine import _Core, _enumerated

    rng = random.Random(seed)
    pixies = tuple(f"p{i}" for i in range(rng.randint(2, 9)))
    units = [rng.randint(1, 6) for _ in pixies]
    grid = 1 << (sum(units) - 1).bit_length()
    units[-1] += grid - sum(units)
    assume(len(set(units)) > 1)
    model = q.SituationModel(q.PixieSpace(pixies), ("x",),
                             tuple(((px,), u / grid) for px, u in zip(pixies, units)))
    fractional_left = 12
    predicates = {}
    for name in ("P", "Q", "R"):
        table = {}
        for px in pixies:
            v = rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)) if fractional_left else 1.0
            fractional_left -= 0.0 < v < 1.0
            table[px] = v
        predicates[name] = q.VaguePredicate(name, table)
    lexicon = q.VagueLexicon(predicates)
    restriction = rng.choice(("true", "(P x)", "(and (P x) (R x))"))
    body = rng.choice(("(Q x)", "(R x)", "(and (Q x) (P x))"))
    graph = q.parse_prop(f"({kind} (x) {restriction} {body})")
    core = _Core(graph, model, lexicon)
    assert core.countable
    counted = q.eval_exact(graph, model, lexicon).probability
    enumerated = min(max(_enumerated(core, q.LiftScheme.INDEPENDENT, 2**20), 0.0), 1.0)
    case = (q.serialize_prop(graph), model.joint, lexicon, counted, enumerated)
    if kind in PRECISE_ORACLE_KINDS:
        assert counted.hex() == enumerated.hex(), case
    else:
        assert math.isclose(counted, enumerated, rel_tol=0, abs_tol=1e-15), case


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
    # along the last axis of a batch, each line on its own
    batch = np.stack([terms, terms[::-1]])
    assert _fsum_runs(batch, starts, counts).tolist() == [
        [math.fsum(line[a:a + n].tolist()) for a, n in zip(starts, counts)] for line in batch]


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_count_sums_are_correctly_rounded(seed):
    # a count state's sums: the masses of rows without fractional cells,
    # plus k copies of each class mass, counted in units of the class
    # masses' gcd over the largest denominator; compared with math.fsum
    # over every row's mass bit for bit; as int64 too, as the counting path
    # keeps the units, where the sums stay within a total mass of 1
    from quantale.engine import _unit_sums

    rng = random.Random(seed)
    coarse = rng.random() < 0.5

    def mass():
        if coarse:  # on a grid below 2^63, each below 2^-9
            return rng.randrange(1, 2 ** rng.randint(1, 53)) / 2.0**62
        return rng.choice([1.0 / 3, 1.0 / 7, 0.1, rng.random()]) * 2.0 ** rng.randint(-60, 0)

    fixed = [mass() for _ in range(rng.randint(0, 6))]
    masses = [mass() for _ in range(rng.randint(0, 4))]
    counts = [[rng.randint(0, 40) for _ in masses] for _ in range(rng.randint(1, 20))]
    ratios = [m.as_integer_ratio() for m in fixed + masses]
    scale = max((d for _, d in ratios), default=1)
    ints = [n * (scale // d) for n, d in ratios]
    base, classes = sum(ints[:len(fixed)]), ints[len(fixed):]
    unit = math.gcd(*classes)
    units = [sum(k * n // unit for k, n in zip(row, classes)) for row in counts]
    got = _unit_sums(np.array(units, dtype=object), unit, base, scale)
    expected = [math.fsum(fixed + [m for m, k in zip(masses, row) for _ in range(k)])
                for row in counts]
    assert got.tolist() == expected
    if max(units) * unit + base <= scale and max(units) < 2**63:
        assert _unit_sums(np.array(units, dtype=np.int64), unit, base, scale).tolist() == expected


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
    # on 0/1 tables a crisp core counts a group of one mass m and shapes
    # (count) * m or reads its table; the quantifier values must carry the
    # bits of the correctly rounded row sums that a core without the crisp
    # path takes
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
    assert crisp._quantify(i, r, b).tobytes() == plain._quantify(i, r, b).tobytes()


def test_custom_shapes_keep_row_sums():
    # this step of some gives an empty restriction 1/2, so it is vague: it
    # is thresholded as any vague node is, its parent reads 0s and 1s
    # from it, and every quantifier keeps its one mass and counts
    from quantale.engine import _Core

    rng = random.Random(0)
    model, lexicon, graph, i = _grouped_case(rng, _uniform_groups(rng, 7))
    node = graph.nodes[i]
    shape = q.ShapeSpec(((0.0, 0.0), (1.0, 1.0)), ((0.0, 1.0, 1.0, 1.0),), 0.5)
    nodes = graph.nodes[:i] + (q.Quantifier(shape, node.bound, node.restriction, node.body),)
    core = _Core(q.ScopeGraph(nodes + graph.nodes[i + 1:], graph.root), model, lexicon,
                 crisp=True)
    assert core.vague == [i] and not q.quant.is_precise(shape)
    assert all(g[4] is not None for g in core.groups.values())


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_a_vague_empty_value_weighs_its_completions(seed):
    # every's step, but 1/2 on an empty restriction, is vague: its one
    # threshold reads the 1/2 as 1 below 1/2 and as 0 above, so on a
    # dyadic world the sentence is worth half of each completion, to the bit
    rng = random.Random(seed)
    pixies = ("p0", "p1", "p2")
    cells = rng.sample(list(itertools.product(pixies, repeat=2)), rng.randint(1, 9))
    masses = [2.0**-k for k in range(1, len(cells))] + [2.0**(1 - len(cells))]
    model = q.SituationModel(q.PixieSpace(pixies), ("x", "y"), tuple(zip(cells, masses)))
    values = (0.0, 0.25, 0.5, 0.75, 1.0)
    draws = {n: zip(pixies, rng.choices(values, k=3)) for n in "rst"}
    lexicon = q.VagueLexicon({n: q.VaguePredicate(n, {p: v for p, v in d if v})
                              for n, d in draws.items()})
    graph = q.parse_prop("(some (x) (r x) (every (y) (s y) (and (t y) (r x))))")
    every = q.quant.BUILTIN_SHAPES[q.QuantifierKind.EVERY]

    def sentence(empty):
        shape = q.ShapeSpec(every.points, every.segments, empty)
        return q.ScopeGraph(tuple(q.Quantifier(shape, n.bound, n.restriction, n.body)
                                  if getattr(n, "kind", None) is q.QuantifierKind.EVERY else n
                                  for n in graph.nodes), graph.root)

    for scheme in q.LiftScheme:
        v0, v1, half = (q.eval_exact(sentence(e), model, lexicon, scheme).probability
                        for e in (0.0, 1.0, 0.5))
        assert half == math.fsum([v0 / 2, v1 / 2])


@given(seeds, st.sampled_from(list(q.QuantifierKind)), st.sampled_from([0.0, 0.5, 1.0]))
@settings(max_examples=60, deadline=None)
def test_count_path_values_equal_summed_shapes_bit_for_bit(seed, kind, generic_empty):
    # a crisp one-mass quantifier counts k_r * side + k_rb per group, by one
    # matrix product where its one-hot membership fits CHUNK_CELLS and by
    # reduceat where not.  It reads its values from a table once the plan
    # has one (from a new plan's first full chunk on, and at every batch
    # size of the plan's later evaluations) if the table fits the bytes of
    # CHUNK_CELLS floats, one byte a cell for a precise kind's truth table;
    # otherwise it shapes its counts.  Either way the values must carry the
    # bits of the shape applied to the row sums.
    from quantale.engine import CHUNK_CELLS, _Core

    rng = random.Random(seed)
    case = rng.random()
    if case < 0.25:  # so many groups that the membership does not fit: reduceat
        weights = [[rng.choice((1.0, 3.0))] * rng.randint(1, 2) for _ in range(rng.randint(91, 99))]
    elif case < 0.45:  # one group whose table fits only as a truth table
        weights = [[rng.choice((1.0, 3.0))] * rng.randint(100, 250)]
    else:
        weights = [[rng.choice((1.0, 3.0, rng.random() + 0.05))] * rng.randint(1, 9)
                   for _ in range(rng.randint(1, 4))]
    total = math.fsum(w for g in weights for w in g)
    model, lexicon, graph, i = _grouped_case(rng, [[w / total for w in g] for g in weights])
    if rng.random() < 0.5:  # rows sorted by y first: the groups by x interleave
        model = q.SituationModel(model.space, ("y", "x"),
                                 tuple((a[::-1], m) for a, m in model.joint))
    node = graph.nodes[i]
    nodes = graph.nodes[:i] + (q.Quantifier(kind, node.bound, node.restriction, node.body),)
    graph = q.ScopeGraph(nodes + graph.nodes[i + 1:], graph.root)
    core = _Core(graph, model, lexicon, generic_empty, crisp=True)
    run, sizes = core.groups[i][3], core.groups[i][2]
    assert core.groups[i][4] is not None
    side, member = core.counting[i]
    assert side == sizes.max() + 1
    assert (member is None) == (len(sizes) * core.width > CHUNK_CELLS) == (case < 0.25)
    precise = q.quant.is_precise(kind)
    cells = len(np.unique(core.groups[i][4])) * side * side  # a slice per mass class
    fits = cells * (1 if precise else 8) <= 8 * CHUNK_CELLS
    if case < 0.45:  # the small groups' table fits, the big group's only as a truth table
        assert fits == (case < 0.25 or precise)
    np_rng = np.random.default_rng(seed)
    for k, batch in enumerate((core.chunk - 1, core.chunk, 1, 3 * core.chunk + 5, 1)):
        if k == 4:  # the plan's next evaluation has the table from the start
            core = _Core(graph, model, lexicon, generic_empty, crisp=True)
        r = (np_rng.random((batch, core.width)) < np_rng.random()).astype(float)
        b = (np_rng.random((batch, core.width)) < np_rng.random()).astype(float)
        # some groups with an empty restriction in every batch row
        r[:, np.isin(run, np.flatnonzero(np_rng.random(len(weights)) < 0.3))] = 0.0
        want = core.shape(kind, *core.group_sums(i, r, b))[:, run]
        shaped = []  # the cells of each shape call
        core.shape = lambda *args, c=core: shaped.append(args[1].size) or _Core.shape(c, *args)
        got = core._quantify(i, r, b)
        assert got.dtype == float
        assert got.tobytes() == want.tobytes()
        table = core.tables.get(i)
        assert (table is not None) == (fits and k > 0)
        if table is None:  # the shape of the counts
            assert shaped == [batch * len(sizes)]
        elif k == 1:  # built in blocks of at most CHUNK_CELLS cells
            assert table[1].dtype == (bool if precise else float)
            assert max(shaped) <= CHUNK_CELLS and sum(shaped) == cells
        else:
            assert shaped == []
    # one table per quantifier, in the plan kept for this generic_empty
    key = tuple(graph.nodes), graph.root, True, float(generic_empty).hex()
    assert model._memo["plans"][key].tables is core.tables


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
    # equal graphs built apart, generic_empty 0, 1/2 and 1 and a second
    # lexicon with other psi values, in several orders, gives the bits of a
    # freshly built equal model: no memoised plan, table or psi goes stale
    rng = random.Random(seed)
    variables = ("x", "y", "z")[:rng.randint(1, 3)]
    base, lexicon = random_dyadic_world(rng, variables)
    other = q.VagueLexicon({n: q.VaguePredicate(n, {p: rng.choice((0.0, 0.25, 0.5, 1.0))
                                                    for p in base.space.elements})
                            for n in lexicon.predicates})
    model = _mixed_joint(rng, base.space, variables)
    graphs = [q.parse_prop(f"(some ({v}) (P {v}) (Q {v}))") for v in variables]
    graphs += [random_vague_dag(rng, variables)[0] for _ in range(3)]
    cases = [(k, lex, empty) for k in range(len(graphs))
             for lex, empty in ((lexicon, 0.0), (lexicon, 0.5), (lexicon, 1.0), (other, 1.0))]

    def results(m, graph, lexicon, empty):
        out = []
        for run in (lambda: q.eval_naive(graph, m, lexicon, empty),
                    lambda: q.eval_generic_fast(graph, m, lexicon, empty),
                    *(lambda s=s: q.eval_exact(graph, m, lexicon, s, generic_empty=empty)
                      for s in q.LiftScheme),
                    *(lambda s=s: q.eval_mc(graph, m, lexicon, s, samples=300, seed=seed,
                                            generic_empty=empty)
                      for s in q.LiftScheme)):
            try:
                out.append(run().probability.hex())
            except Exception as exc:
                out.append(type(exc).__name__)
        return out

    def fresh():
        return q.SituationModel(model.space, model.variables, model.joint)

    want = [results(fresh(), graphs[k], lex, empty) for k, lex, empty in cases]
    copies = [copy.deepcopy(g) for g in graphs]  # equal, but no object shared
    assert copies == graphs and not any(a is b for g, c in zip(graphs, copies)
                                        for a, b in zip(g.nodes, c.nodes))
    for order, pool in ((range(len(cases)), graphs),
                        (reversed(range(len(cases))), copies),
                        (rng.sample(range(len(cases)), len(cases)), graphs)):
        for c in order:
            k, lex, empty = cases[c]
            assert results(model, pool[k], lex, empty) == want[c]
    assert (model == fresh(), hash(model), repr(model)) == (True, hash(fresh()), repr(fresh()))
