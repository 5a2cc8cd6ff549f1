"""Quantifier shapes.

A quantifier's truth is a function f_Q of the conditional probability of
its body given its restriction.  Precise quantifiers (some, every, no,
most) are step functions valued in {0, 1}; vague quantifiers (many, few,
generic) take intermediate values.  Drawing a single uniform threshold in
(0, 1] and testing ``f_Q(ratio) >= theta`` turns a vague value into a
distribution over precise quantifier functions whose marginal is f_Q
itself; ``threshold_regions`` gives the regions over which the engine
integrates that threshold exactly (``threshold_partition`` for one list of
values).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeDomainError


class QuantifierKind(enum.Enum):
    SOME = "some"
    EVERY = "every"
    NO = "no"
    MOST = "most"
    MANY = "many"
    FEW = "few"
    GENERIC = "generic"


@dataclass(frozen=True)
class ShapeSpec:
    """Piecewise shape on [0, 1]: exact point values at breakpoints plus
    linear interpolation on the open intervals between them.

    ``points`` maps each breakpoint (including 0 and 1) to its exact
    value; ``segments`` gives (lo, hi, value_at_lo+, value_at_hi-) for
    each open interval (lo, hi).  This is enough to express every
    built-in shape, with open/closed endpoint behaviour explicit.  An
    empty restriction takes ``empty_restriction_value`` (see ``is_precise``).
    """

    points: tuple[tuple[float, float], ...]
    segments: tuple[tuple[float, float, float, float], ...]
    empty_restriction_value: float = 0.0

    def __post_init__(self):  # kept as tuples: engines key plans on nodes
        object.__setattr__(self, "points", tuple(map(tuple, self.points)))
        object.__setattr__(self, "segments", tuple(map(tuple, self.segments)))

    def value(self, ratio: float) -> float:
        return float(self.values(np.array([ratio], dtype=float))[0])

    def values(self, ratios: np.ndarray) -> np.ndarray:
        """``value`` at every entry of an array of ratios."""
        outside = ~((ratios >= 0.0) & (ratios <= 1.0))
        if outside.any():
            raise ShapeDomainError(f"ratio {float(ratios[outside][0])!r} outside [0, 1]")
        out = np.full(ratios.shape, np.nan)
        # reversed, so the first segment and then any point take precedence
        for lo, hi, vlo, vhi in reversed(self.segments):
            inside = (lo < ratios) & (ratios < hi)
            if vlo == vhi:
                out[inside] = vlo
            else:
                out[inside] = vlo + (vhi - vlo) * (ratios[inside] - lo) / (hi - lo)
        for x, v in self.points:
            out[ratios == x] = v
        uncovered = np.isnan(out)
        if uncovered.any():
            raise ShapeDomainError(
                f"shape does not cover ratio {float(ratios[uncovered][0])!r}"
            )
        return out


# Built-in shapes.  Endpoint conventions: some is 0 at ratio exactly 0,
# every is 1 only at ratio exactly 1, most is strict at 1/2.
BUILTIN_SHAPES: dict[QuantifierKind, ShapeSpec] = {
    QuantifierKind.SOME: ShapeSpec([(0.0, 0.0), (1.0, 1.0)], [(0.0, 1.0, 1.0, 1.0)], 0.0),
    QuantifierKind.EVERY: ShapeSpec([(0.0, 0.0), (1.0, 1.0)], [(0.0, 1.0, 0.0, 0.0)], 1.0),
    QuantifierKind.NO: ShapeSpec([(0.0, 1.0), (1.0, 0.0)], [(0.0, 1.0, 0.0, 0.0)], 1.0),
    QuantifierKind.MOST: ShapeSpec(
        [(0.0, 0.0), (0.5, 0.0), (1.0, 1.0)],
        [(0.0, 0.5, 0.0, 0.0), (0.5, 1.0, 1.0, 1.0)],
        0.0,
    ),
    QuantifierKind.MANY: ShapeSpec([(0.0, 0.0), (1.0, 1.0)], [(0.0, 1.0, 0.0, 1.0)], 0.0),
    QuantifierKind.FEW: ShapeSpec([(0.0, 1.0), (1.0, 0.0)], [(0.0, 1.0, 1.0, 0.0)], 1.0),
    QuantifierKind.GENERIC: ShapeSpec(
        [(0.0, 0.0), (1.0, 1.0)], [(0.0, 1.0, 0.0, 1.0)], 1.0
    ),
}


def _spec(kind) -> ShapeSpec:
    """The shape of a QuantifierKind or custom ShapeSpec."""
    return kind if isinstance(kind, ShapeSpec) else BUILTIN_SHAPES[kind]


def is_precise(kind) -> bool:
    """True for kinds whose shape is a step function valued in {0, 1}:
    every segment is constant and every value, an empty restriction's
    too, is 0 or 1.  Any other kind is vague, thresholded once per node."""
    spec = _spec(kind)
    return (all(vlo == vhi for _, _, vlo, vhi in spec.segments)
            and {spec.empty_restriction_value, *(v for _, v in spec.points),
                 *(v for *_, v in spec.segments)} <= {0.0, 1.0})


def shape_value(kind, ratio: float) -> float:
    """Evaluate f_Q at a ratio in [0, 1].

    ``kind`` is a QuantifierKind or a custom ShapeSpec.
    """
    return _spec(kind).value(ratio)


def shape_values(kind, ratios: np.ndarray) -> np.ndarray:
    """``shape_value`` at every entry of an array of ratios."""
    return _spec(kind).values(ratios)


def empty_restriction_value(kind, generic_default: float = 1.0) -> float:
    """Value used when the restriction has zero mass.

    The precise-kind values are forced by the classical cardinality
    conditions at |R| = 0 (every and no are vacuously true, some and
    most false).  Few mirrors many; generic is configurable.
    """
    if kind is QuantifierKind.GENERIC:
        return generic_default
    return _spec(kind).empty_restriction_value


@dataclass(frozen=True)
class ThresholdRegion:
    """Half-open threshold interval (lo, hi] with its Lebesgue measure.

    For every input value v, the predicate ``v >= theta`` is constant on
    the interval and equals ``v >= hi``.
    """

    lo: float
    hi: float
    measure: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "measure", self.hi - self.lo)


def threshold_regions(values: np.ndarray):
    """Threshold regions of each row of a 2-d array of values.

    Region k of a row is (lo, hi] between consecutive values of 0, the
    row's distinct values strictly inside (0, 1), and 1; thresholding the
    row at any theta in it equals thresholding at ``hi``.  Returns the
    row, ``lo`` and ``hi`` of every region, rows in order, plus where each
    row's regions start and how many there are.
    """
    cuts = np.sort(values, axis=1)
    keep = (cuts > 0.0) & (cuts < 1.0)
    keep[:, 1:] &= cuts[:, 1:] != cuts[:, :-1]
    ones = np.ones((len(cuts), 1))
    cuts = np.concatenate([cuts, ones], axis=1)
    keep = np.concatenate([keep, ones.astype(bool)], axis=1)
    row, hi = np.nonzero(keep)[0], cuts[keep]
    counts = keep.sum(axis=1)
    starts = np.cumsum(counts) - counts
    lo = np.zeros_like(hi)
    lo[1:] = hi[:-1]
    lo[starts] = 0.0
    return row, lo, hi, starts, counts


def threshold_partition(values) -> list[ThresholdRegion]:
    """Partition (0, 1] at the given cut values.

    Values at 0 or 1 add no interior cuts.  Within each returned region,
    ``[value >= theta]`` is constant for every value in ``values``.
    """
    _, lo, hi, _, _ = threshold_regions(np.array([list(values)], dtype=float))
    return [ThresholdRegion(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
