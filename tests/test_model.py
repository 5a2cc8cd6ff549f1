import math

import pytest

import quantale as q
from quantale.errors import ExplosionGuard, UnknownVariable

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
