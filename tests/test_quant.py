import math

import numpy as np
import pytest

import quantale as q
from quantale.errors import ShapeDomainError
from quantale.quant import BUILTIN_SHAPES, is_precise, threshold_regions


def test_precise_shapes_are_steps():
    assert q.shape_value(q.QuantifierKind.SOME, 0.0) == 0.0
    assert q.shape_value(q.QuantifierKind.SOME, 1e-9) == 1.0
    assert q.shape_value(q.QuantifierKind.SOME, 1.0) == 1.0
    assert q.shape_value(q.QuantifierKind.EVERY, 1.0) == 1.0
    assert q.shape_value(q.QuantifierKind.EVERY, 1.0 - 1e-9) == 0.0
    assert q.shape_value(q.QuantifierKind.NO, 0.0) == 1.0
    assert q.shape_value(q.QuantifierKind.NO, 1e-9) == 0.0


def test_most_is_strict_at_half():
    assert q.shape_value(q.QuantifierKind.MOST, 0.5) == 0.0
    assert q.shape_value(q.QuantifierKind.MOST, 0.5 + 1e-9) == 1.0
    assert q.shape_value(q.QuantifierKind.MOST, 0.25) == 0.0
    assert q.shape_value(q.QuantifierKind.MOST, 1.0) == 1.0


def test_vague_shapes():
    for r in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert q.shape_value(q.QuantifierKind.MANY, r) == r
        assert q.shape_value(q.QuantifierKind.GENERIC, r) == r
        assert q.shape_value(q.QuantifierKind.FEW, r) == 1.0 - r


def test_shape_domain_errors():
    with pytest.raises(ShapeDomainError):
        q.shape_value(q.QuantifierKind.SOME, -0.1)
    with pytest.raises(ShapeDomainError):
        q.shape_value(q.QuantifierKind.GENERIC, 1.1)


PRECISE = {"some", "every", "no", "most"}


def test_kind_partition():
    assert {kind.value for kind in q.QuantifierKind if is_precise(kind)} == PRECISE


def test_custom_shape_is_precise_only_as_a_0_1_step():
    # a built-in shape passed as a custom spec keeps its class: many's
    # segment interpolates from 0 to 1, so it is vague although every
    # point and segment end is 0 or 1; a step that is 1/2 on an empty
    # restriction is vague too
    for kind, spec in BUILTIN_SHAPES.items():
        assert is_precise(spec) == (kind.value in PRECISE)
    some = ((0.0, 0.0), (1.0, 1.0)), ((0.0, 1.0, 1.0, 1.0),)
    assert is_precise(q.ShapeSpec(*some)) and is_precise(q.ShapeSpec(*some, 1.0))
    assert not is_precise(q.ShapeSpec(*some, 0.5))
    assert not is_precise(q.ShapeSpec(((0.0, 0.0), (1.0, 1.0)), ((0.0, 1.0, 0.0, 1.0),)))


def test_empty_restriction_conventions():
    K = q.QuantifierKind
    assert q.empty_restriction_value(K.EVERY) == 1.0
    assert q.empty_restriction_value(K.NO) == 1.0
    assert q.empty_restriction_value(K.SOME) == 0.0
    assert q.empty_restriction_value(K.MOST) == 0.0
    assert q.empty_restriction_value(K.MANY) == 0.0
    assert q.empty_restriction_value(K.FEW) == 1.0
    assert q.empty_restriction_value(K.GENERIC) == 1.0
    assert q.empty_restriction_value(K.GENERIC, generic_default=0.5) == 0.5


def test_custom_shape_spec():
    half = q.ShapeSpec(
        points=((0.0, 0.0), (1.0, 1.0)),
        segments=((0.0, 1.0, 0.5, 0.5),),
    )
    assert q.shape_value(half, 0.3) == 0.5
    assert q.shape_value(half, 0.0) == 0.0
    assert not is_precise(half)


def test_threshold_partition_covers_unit_interval():
    regions = q.threshold_partition([0.3, 0.7, 0.0, 1.0, 0.3])
    assert [(r.lo, r.hi) for r in regions] == [(0.0, 0.3), (0.3, 0.7), (0.7, 1.0)]
    assert math.fsum(r.measure for r in regions) == 1.0


def test_threshold_partition_no_interior_cuts():
    regions = q.threshold_partition([0.0, 1.0])
    assert len(regions) == 1
    assert regions[0].measure == 1.0


def test_threshold_regions_per_row_match_threshold_partition():
    rows = [[0.3, 0.7, 0.0, 1.0, 0.3], [0.0, 1.0, 1.0, 0.0, 0.0], [0.5, 0.25, 0.5, 0.75, 1.0]]
    row, lo, hi, starts, counts = threshold_regions(np.array(rows))
    for k, values in enumerate(rows):
        part = slice(starts[k], starts[k] + counts[k])
        assert (row[part] == k).all()
        regions = q.threshold_partition(values)
        assert list(zip(lo[part], hi[part])) == [(r.lo, r.hi) for r in regions]


def test_threshold_region_semantics():
    # for the values defining the partition, [v >= theta] is constant
    # within each region (lo, hi] and equals [v >= hi]
    for region in q.threshold_partition([0.0, 0.4, 1.0]):
        for value in (0.0, 0.4, 1.0):
            expect = value >= region.hi
            for theta in (region.lo + 1e-9, region.hi):
                assert (value >= theta) == expect


def test_builtin_shapes_marginal_matches_threshold_integral():
    # integrating [f(r) >= theta] d theta over (0, 1] recovers f(r)
    for kind, spec in BUILTIN_SHAPES.items():
        for ratio in (0.0, 0.2, 0.5, 0.8, 1.0):
            value = spec.value(ratio)
            regions = q.threshold_partition([value])
            integral = math.fsum(
                r.measure for r in regions if value >= r.hi
            )
            assert integral == value, kind
