import itertools
import json
import math
import random

import numpy as np
import pytest

import quantale as q
from quantale.errors import DslParseError, ExplosionGuard, UnknownVariable

from conftest import red_world


def two_var_model():
    space = q.PixieSpace(("a", "b"))
    joint = (
        (("a", "a"), 0.1),
        (("a", "b"), 0.2),
        (("b", "a"), 0.3),
        (("b", "b"), 0.4),
    )
    return q.SituationModel(space, ("x", "y"), joint)


def test_pixie_space_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        q.PixieSpace(())
    with pytest.raises(ValueError):
        q.PixieSpace(("a", "a"))


def test_pixie_space_rejects_non_string_pixies():
    with pytest.raises(ValueError, match="strings"):
        q.PixieSpace(("a", 1))


def test_pixie_space_equality_is_order_insensitive():
    assert q.PixieSpace(("a", "b")) == q.PixieSpace(("b", "a"))
    assert hash(q.PixieSpace(("a", "b"))) == hash(q.PixieSpace(("b", "a")))
    assert q.PixieSpace(("b", "a", "B")).elements == ("B", "a", "b")


def test_model_validates_mass():
    space = q.PixieSpace(("a",))
    with pytest.raises(ValueError):
        q.SituationModel(space, ("x",), ((("a",), 0.5),))
    with pytest.raises(ValueError):
        q.SituationModel(space, ("x",), ((("a",), -1.0), (("a",), 2.0)))


def test_model_rejects_non_finite_mass():
    # NaN passes both the sign check and the total check (every comparison
    # with it is false); an engine would then drop its row silently
    space = q.PixieSpace(("a", "b", "c"))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            q.SituationModel(space, ("x",), ((("a",), bad), (("b",), 0.5), (("c",), 0.5)))


@pytest.mark.parametrize("order", ["abc", "acb", "cba"])
def test_joint_total_does_not_depend_on_row_order(order):
    # these masses sum to 1 + 1.0000000005e-9 when correctly rounded; a
    # running sum in the order a, c, b fell within 1e-9 of 1 and accepted
    mass = {"a": 0.06718212205620061, "b": 0.25423012108116977, "c": 0.6785877578626296}
    joint = tuple(((p,), mass[p]) for p in order)
    with pytest.raises(ValueError, match="joint mass 1.000000001"):
        q.SituationModel(q.PixieSpace(("a", "b", "c")), ("x",), joint)
    doc = {"pixies": ["a", "b", "c"], "variables": ["x"], "predicates": {},
           "joint": [{"assign": {"x": p}, "prob": m} for (p,), m in joint]}
    with pytest.raises(DslParseError, match="joint mass 1.000000001"):
        q.parse_world(json.dumps(doc))


def test_joint_total_past_the_largest_float_is_rejected():
    space = q.PixieSpace(("a", "b"))
    with pytest.raises(ValueError, match="joint mass inf"):
        q.SituationModel(space, ("x",), ((("a",), 1e308), (("b",), 1e308)))
    doc = {"pixies": ["a", "b"], "variables": ["x"], "predicates": {},
           "joint": [{"assign": {"x": p}, "prob": 1e308} for p in "ab"]}
    with pytest.raises(DslParseError, match="joint mass inf"):
        q.parse_world(json.dumps(doc))


def test_model_names_the_first_unknown_pixie():
    space = q.PixieSpace(("a", "b"))
    with pytest.raises(ValueError, match="unknown pixie 'z' in joint assignment"):
        q.SituationModel(space, ("x", "y"), ((("a", "z"), 0.5), (("b", "y"), 0.5)))


def test_model_rejects_duplicate_assignments():
    space = q.PixieSpace(("a",))
    with pytest.raises(ValueError):
        q.SituationModel(space, ("x",), ((("a",), 0.5), (("a",), 0.5)))


def test_model_equality_ignores_entry_and_variable_order():
    m = two_var_model()
    reordered = q.SituationModel(
        m.space,
        ("y", "x"),
        ((("a", "b"), 0.3), (("b", "b"), 0.4), (("a", "a"), 0.1), (("b", "a"), 0.2)),
    )
    assert m == reordered
    assert hash(m) == hash(reordered)


def test_marginal():
    m = two_var_model()
    assert m.marginal(("x",)) == {("a",): pytest.approx(0.3), ("b",): pytest.approx(0.7)}
    assert m.marginal(("y", "x"))[("a", "b")] == 0.3
    with pytest.raises(UnknownVariable):
        m.marginal(("z",))
    with pytest.raises(ValueError):
        m.marginal(())


def test_vague_predicate_default_and_bounds():
    pred = q.VaguePredicate("red", {"a": 0.25})
    assert pred.psi("a") == 0.25
    assert pred.psi("missing") == 0.0
    with pytest.raises(ValueError):
        q.VaguePredicate("red", {"a": 1.5})


def test_vague_predicate_equality_ignores_explicit_zeros():
    assert q.VaguePredicate("p", {"a": 0.5, "b": 0.0}) == q.VaguePredicate(
        "p", {"a": 0.5}
    )


@pytest.mark.parametrize("scheme", list(q.LiftScheme))
def test_lift_marginalizes_back_to_psi(scheme):
    space = q.PixieSpace(("a", "b", "c"))
    lexicon = q.VagueLexicon(
        {
            "p": q.VaguePredicate("p", {"a": 0.3, "b": 0.7, "c": 1.0}),
            "q": q.VaguePredicate("q", {"a": 0.5}),
        }
    )
    lifted = q.lift(lexicon, scheme, space)
    assert lifted.scheme is scheme
    total = math.fsum(w for _, w in lifted.configurations)
    assert total == pytest.approx(1.0, abs=1e-12)
    for name in lexicon.predicates:
        for pixie in space.elements:
            marginal = math.fsum(
                w for plex, w in lifted.configurations if plex.holds(name, pixie)
            )
            assert marginal == pytest.approx(lexicon.psi(name, pixie), abs=1e-12)


def test_independent_lift_config_count():
    space = q.PixieSpace(("a", "b"))
    lexicon = q.VagueLexicon({"p": q.VaguePredicate("p", {"a": 0.3, "b": 0.7})})
    lifted = q.lift(lexicon, q.LiftScheme.INDEPENDENT, space)
    assert len(lifted.configurations) == 4


def test_coupled_lift_orders_super_level_sets():
    space = q.PixieSpace(("a", "b"))
    lexicon = q.VagueLexicon({"p": q.VaguePredicate("p", {"a": 0.3, "b": 0.7})})
    lifted = q.lift(lexicon, q.LiftScheme.COUPLED_THRESHOLD, space)
    # one configuration per threshold region: {a,b}, {b}, {}
    tables = {
        frozenset(px for px in space.elements if plex.holds("p", px)): w
        for plex, w in lifted.configurations
    }
    assert tables == {
        frozenset({"a", "b"}): pytest.approx(0.3),
        frozenset({"b"}): pytest.approx(0.4),
        frozenset(): pytest.approx(0.3),
    }


def test_lift_explosion_guard():
    space = q.PixieSpace(tuple(f"p{i}" for i in range(8)))
    lexicon = q.VagueLexicon(
        {"p": q.VaguePredicate("p", {f"p{i}": 0.5 for i in range(8)})}
    )
    with pytest.raises(ExplosionGuard) as err:
        q.lift(lexicon, q.LiftScheme.INDEPENDENT, space, cap=100)
    assert err.value.count == 256
    assert err.value.cap == 100


def test_red_world_builder():
    model, lexicon = red_world(0.7)
    assert model.marginal(("x",)) == {("x1",): 1.0}
    assert lexicon.psi("red", "x1") == 0.7


def leaf_case(rng):
    """Model, lexicon and ``(some (x) true (and (p0 x) ...))`` over one row
    per pixie, with psi cells at 0, 1 and fractions (ties included): every
    application reads its predicate's cells in pixie order."""
    n_preds, n_pixies = rng.randint(1, 3), rng.randint(1, 4)
    pixies = tuple(f"a{j}" for j in range(n_pixies))
    share = rng.choice((0.0, 0.3, 0.7))  # 0: every cell crisp, no draws
    psi = [[rng.choice((rng.randint(1, 7) / 8, 0.25, 0.75)) if rng.random() < share
            else float(rng.random() < 0.5) for _ in pixies] for _ in range(n_preds)]
    model = q.SituationModel(q.PixieSpace(pixies), ("x",),
                             tuple(((p,), 1.0 / n_pixies) for p in pixies))
    names = [f"p{k}" for k in range(n_preds)]
    lexicon = q.VagueLexicon({n: q.VaguePredicate(n, dict(zip(pixies, row)))
                              for n, row in zip(names, psi)})
    apps = " ".join(f"({n} x)" for n in names)
    return model, lexicon, q.parse_prop(f"(some (x) true (and {apps}))"), np.array(psi)


def reference_bits(psi, scheme, draws):
    """Per row of ``draws``, the configuration as the schemes define it:
    independent coins in row-major order hold where ``u <= p`` and other
    cells where ``psi == 1``; coupled predicate k holds where
    ``psi >= theta_k``."""
    if scheme is q.LiftScheme.COUPLED_THRESHOLD:
        return psi[None] >= draws[:, :, None]
    bits = np.repeat((psi == 1.0)[None], len(draws), axis=0)
    for c, (k, j) in enumerate(zip(*np.nonzero((psi > 0.0) & (psi < 1.0)))):
        bits[:, k, j] = draws[:, c] <= psi[k, j]
    return bits


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("scheme", list(q.LiftScheme))
def test_leaf_rule_matches_the_schemes(seed, scheme):
    from quantale.engine import _Core
    from quantale.model import LiftPlan

    rng = random.Random(seed)
    model, lexicon, graph, psi = leaf_case(rng)
    core = _Core(graph, model, lexicon, crisp=True)
    assert np.array_equal(core.psi, psi)
    plan = LiftPlan(core.psi, scheme)
    reads = core.reads(plan.column)
    assert (reads is None) == ((psi == 0.0) | (psi == 1.0)).all()
    apps = sorted(core.cells, key=lambda i: core.cells[i][0])  # in predicate order
    sampled = 1.0 - np.random.default_rng(seed).random((50, plan.draws))
    enumerated, weights = plan.enumerate(0, plan.count)
    for draws in (sampled, enumerated):
        tables = core.leaves(draws, reads)
        got = np.stack([tables[i] for i in apps], axis=1)
        assert np.array_equal(got, reference_bits(psi, scheme, draws))
    # the enumeration is the lift: every configuration once, weights summing to 1
    assert len({bits.tobytes() for bits in reference_bits(psi, scheme, enumerated)}) == plan.count
    assert math.fsum(weights.tolist()) == pytest.approx(1.0, abs=1e-12)


def reference_lift(lexicon, scheme, space):
    """The lift written out: configurations in ``itertools.product`` order
    of the choices, weights multiplied in that order."""
    names = sorted(lexicon.predicates)
    psi = [[lexicon.psi(n, px) for px in space.elements] for n in names]
    configs = []
    if scheme is q.LiftScheme.INDEPENDENT:
        coins = [(k, j) for k, row in enumerate(psi) for j, p in enumerate(row) if 0.0 < p < 1.0]
        for holds in itertools.product((True, False), repeat=len(coins)):
            bits, weight = [[p == 1.0 for p in row] for row in psi], 1.0
            for (k, j), h in zip(coins, holds):
                bits[k][j] = h
                weight *= psi[k][j] if h else 1.0 - psi[k][j]
            configs.append((bits, weight))
    else:
        choices = []
        for row in psi:
            cuts = sorted({p for p in row if 0.0 < p < 1.0}) + [1.0]
            choices.append([(hi - lo, [p >= hi for p in row])
                            for lo, hi in zip([0.0] + cuts[:-1], cuts)])
        for combo in itertools.product(*choices):
            weight = 1.0
            for measure, _ in combo:
                weight *= measure
            configs.append(([bits for _, bits in combo], weight))
    return q.LiftedLexicon(tuple(
        (q.PreciseLexicon({n: dict(zip(space.elements, row)) for n, row in zip(names, bits)}), w)
        for bits, w in configs), scheme)


@pytest.mark.parametrize("scheme", list(q.LiftScheme))
def test_lift_matches_the_reference_on_fixtures(fixtures_dir, scheme):
    worlds = sorted(fixtures_dir.glob("*.world.json"))
    assert len(worlds) == 10
    for path in worlds:
        model, lexicon = q.parse_world(path.read_text())
        assert q.lift(lexicon, scheme, model.space) == reference_lift(lexicon, scheme, model.space)
