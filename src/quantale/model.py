"""Pixie spaces, situation models, and lexicons.

A situation model is a joint probability table over named pixie-valued
variables; it plays the role of a probabilistic model structure.  A
vague predicate maps pixies to probabilities of truth and is *lifted*
into a weighted enumeration of precise (boolean) lexicons, whose
marginals reproduce the vague probabilities exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ExplosionGuard, InvalidWorld, UnknownVariable
from .quant import threshold_regions

MASS_TOL = 1e-9


@dataclass(frozen=True)
class PixieSpace:
    """Finite set of distinct pixie identifiers.

    ``elements`` is kept sorted in code-point order, whatever order it is
    given in: every engine numbers pixies by their position in it, so two
    equal spaces give equal bits.
    """

    elements: tuple[str, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("pixie space must be non-empty")
        if not all(isinstance(p, str) for p in self.elements):
            raise ValueError("pixie identifiers must be strings")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("pixie identifiers must be unique")
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))


def _fsum_runs(terms: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each run ``terms[..., starts[k]:starts[k] + counts[k]]``
    along the last axis: one ``math.fsum`` per run.  A run's sum does not depend on
    the order of its terms, and three of six rows of mass 1/7 make a ratio of exactly 1/2."""
    runs = list(zip(starts.tolist(), counts.tolist()))
    lines = terms.reshape(math.prod(terms.shape[:-1]), terms.shape[-1]).tolist()
    sums = [[math.fsum(line[a:a + n]) for a, n in runs] for line in lines]
    return np.array(sums, dtype=float).reshape(*terms.shape[:-1], len(runs))


def _runs(codes: np.ndarray):
    """Runs of equal rows of ``codes`` (rows x columns) in a stable sort of
    them, lexicographic with the first column primary: the sorting order,
    where each run starts, its length, and each row's run.  Without
    columns, every row is in one run."""
    n = len(codes)
    order = np.lexsort(codes.T[::-1]) if codes.shape[1] else np.arange(n)
    ordered = codes[order]
    new = np.append(True, (ordered[1:] != ordered[:-1]).any(axis=1))[:n]
    starts = np.flatnonzero(new)
    run = np.empty(n, dtype=np.intp)
    run[order] = np.cumsum(new) - 1
    return order, starts, np.diff(np.append(starts, n)), run


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class SituationModel:
    """Joint distribution over named pixie-valued variables.

    ``joint`` pairs full assignments (tuples aligned with ``variables``)
    with probability mass, and is checked here only: assignments name
    pixies of ``space`` and are unique; masses are non-negative, finite
    and total 1 within ``MASS_TOL``, correctly rounded.  ``InvalidWorld``
    gives each faulty row's index path in ``joint``, else the total's ``()``.

    The joint's arrays are built and checked on construction, its rows
    over a tuple of variables and their groups on first use, and the
    engine's plan for a graph on its first evaluation; all are kept on
    the instance: every field is a tuple, so nothing they are derived
    from can change.  They do not take part in equality, hashing or
    ``repr``.
    """

    space: PixieSpace
    variables: tuple[str, ...]
    joint: tuple[tuple[tuple[str, ...], float], ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        for assignment, _ in self.joint:
            if len(assignment) != len(self.variables):
                raise ValueError(f"assignment {assignment} does not cover all variables")
        codes, mass = self._arrays
        unknown = codes < 0
        # rows with unknown pixies may repeat each other, but they are unknown first
        order, starts, _, _ = _runs(codes)
        repeated = np.ones(len(mass), dtype=bool)
        repeated[order[starts]] = False  # a run's first row in joint order
        faults = []
        bad = unknown.any(axis=1) | repeated | ~((mass >= 0) & (mass < math.inf))
        for k in np.flatnonzero(bad).tolist():
            assignment, m = self.joint[k]
            if unknown[k].any():
                faults += [(f"unknown pixie {assignment[c]!r} in joint assignment", (k, 0, c))
                           for c in np.flatnonzero(unknown[k]).tolist()]
            elif repeated[k]:
                faults.append((f"duplicate assignment {assignment}", (k,)))
            else:
                faults.append((f"probability {m} is negative" if m < 0 else
                               f"probability {m} of {assignment} is not finite", (k, 1)))
        if not faults:
            try:
                total = math.fsum(m for _, m in self.joint)
            except OverflowError:
                total = math.inf
            if abs(total - 1.0) > MASS_TOL:
                faults.append((f"joint mass {total} differs from 1 by more than {MASS_TOL}", ()))
        if faults:
            raise InvalidWorld(faults)

    def __eq__(self, other):
        if not isinstance(other, SituationModel):
            return NotImplemented
        return self.space == other.space and self._canonical() == other._canonical()

    def __hash__(self):
        return hash(self._canonical())

    def _canonical(self):
        order = sorted(range(len(self.variables)), key=lambda i: self.variables[i])
        vars_sorted = tuple(self.variables[i] for i in order)
        entries = sorted(
            (tuple(a[i] for i in order), m) for a, m in self.joint if m != 0.0
        )
        return (vars_sorted, tuple(entries))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``codes[j, c]``, the rank among the sorted pixie identifiers of
        the pixie that joint row j assigns to variable c (else -1), and ``mass[j]``."""
        index = {p: k for k, p in enumerate(self.space.elements)}
        codes = np.array([index.get(p, -1) for a, _ in self.joint for p in a], dtype=np.intp)
        mass = np.array([m for _, m in self.joint], dtype=float)
        return _read_only(codes.reshape(len(self.joint), len(self.variables)), mass)

    @cached_property
    def _memo(self) -> dict:
        return {}

    def _project(self, vars: tuple[str, ...]):
        """Codes and masses of the joint's distinct projections onto
        ``vars``, in lexicographic order of their codes, each mass the
        correctly rounded sum of its rows' masses."""
        if not vars:
            raise ValueError("marginal requires at least one variable")
        for v in vars:
            if v not in self.variables:
                raise UnknownVariable(f"unknown variable {v!r}")
        codes, mass = self._arrays
        codes = codes[:, [self.variables.index(v) for v in vars]]
        order, starts, sizes, _ = _runs(codes)
        return codes[order[starts]], _fsum_runs(mass[order], starts, sizes)

    def marginal(self, vars) -> dict[tuple[str, ...], float]:
        """Sum joint mass over the eliminated variables.

        The result is keyed by tuples in the order given by ``vars``,
        sorted by pixie identifier (first variable first), zero masses
        included.  Each mass is correctly rounded, so it does not depend on
        the order of the joint's rows.
        """
        codes, mass = self._project(tuple(vars))
        names = self.space.elements
        return {tuple(names[c] for c in row): m
                for row, m in zip(codes.tolist(), mass.tolist())}

    def rows(self, vars) -> tuple[np.ndarray, np.ndarray]:
        """The positive-mass rows of ``marginal(vars)`` as read-only arrays:
        pixie codes (rows x ``vars``, indices into the sorted pixie
        identifiers ``space.elements``) and masses.  With no variables
        there is one row, of mass 1."""
        vars = tuple(vars)
        found = self._memo.get(("rows", vars))
        if found is None:
            if vars:
                codes, mass = self._project(vars)
                keep = mass > 0.0
                found = _read_only(codes[keep], mass[keep])
            else:
                found = _read_only(np.zeros((1, 0), dtype=np.intp), np.ones(1))
            self._memo["rows", vars] = found
        return found

    def assigned(self, vars) -> tuple[np.ndarray, np.ndarray]:
        """The pixies that ``rows(vars)`` assign (sorted indices into
        ``space.elements``), and the rows' codes as positions among them."""
        codes = self.rows(tuple(vars))[0]
        seen = np.zeros(len(self.space.elements), dtype=bool)
        seen[codes] = True
        return _read_only(np.flatnonzero(seen), (np.cumsum(seen) - 1)[codes])

    def groups(self, vars, by) -> tuple:
        """The rows of ``rows(vars)`` grouped by the variables ``by``, in
        the order given, as runs of a stable lexicographic sort of their
        codes (``_runs``): the sorting order, each run's start and length,
        each row's run, and each run's one mass (None if some run holds
        several)."""
        vars, by = tuple(vars), tuple(by)
        found = self._memo.get(("groups", vars, by))
        if found is None:
            codes, mass = self.rows(vars)
            order, starts, sizes, run = _runs(codes[:, [vars.index(v) for v in by]])
            ordered = mass[order]
            head = ordered[starts]  # each run's first mass
            one = np.array_equal(ordered, np.repeat(head, sizes))
            found = (*_read_only(order, starts, sizes, run), _read_only(head)[0] if one else None)
            self._memo["groups", vars, by] = found
        return found


@dataclass(frozen=True)
class VaguePredicate:
    """Map from pixie to probability of truth; absent pixies mean 0.  Each
    probability outside [0, 1] is an ``InvalidWorld`` fault at ``(pixie,)``."""

    name: str
    table: dict[str, float]

    def __post_init__(self):
        faults = [(f"psi_{self.name}({pixie}) = {p} outside [0, 1]", (pixie,))
                  for pixie, p in self.table.items() if not 0.0 <= p <= 1.0]
        if faults:
            raise InvalidWorld(faults)

    def psi(self, pixie: str) -> float:
        return self.table.get(pixie, 0.0)

    def __eq__(self, other):
        if not isinstance(other, VaguePredicate):
            return NotImplemented
        keys = set(self.table) | set(other.table)
        return self.name == other.name and all(
            self.psi(k) == other.psi(k) for k in keys
        )

    def __hash__(self):
        return hash((self.name, frozenset((k, v) for k, v in self.table.items() if v)))


@dataclass(frozen=True)
class VagueLexicon:
    """Named vague predicates."""

    predicates: dict[str, VaguePredicate]

    def __contains__(self, name):
        return name in self.predicates

    def psi(self, name: str, pixie: str) -> float:
        return self.predicates[name].psi(pixie)


@dataclass(frozen=True)
class PreciseLexicon:
    """Boolean predicate functions, total over a pixie space."""

    truth: dict[str, dict[str, bool]]

    def holds(self, name: str, pixie: str) -> bool:
        return self.truth[name][pixie]

    def _key(self):
        return tuple(
            (name, tuple(sorted(table.items())))
            for name, table in sorted(self.truth.items())
        )

    def __eq__(self, other):
        if not isinstance(other, PreciseLexicon):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class LiftScheme(enum.Enum):
    INDEPENDENT = "independent"
    COUPLED_THRESHOLD = "coupled-threshold"

    def check(self, count: int, what: str, cap: int) -> None:
        """Raise ExplosionGuard where this lift needs more ``what`` than
        ``max(cap, 1)``: one configuration or count state enumerates nothing."""
        if count > max(cap, 1):
            raise ExplosionGuard(f"{self.value} lift needs {count} {what} (cap {cap})",
                                 count=count, cap=cap)


@dataclass(frozen=True)
class LiftedLexicon:
    """Weighted enumeration of precise lexicons produced by a lift."""

    configurations: tuple[tuple[PreciseLexicon, float], ...]
    scheme: LiftScheme


DEFAULT_CONFIG_CAP = 2**20


def leaf_values(psi: np.ndarray) -> np.ndarray:
    """A lifted cell holds where its draw, in [0, 1], is at most its value:
    psi if fractional, 2 (holds on any draw) if 1 and -1 (fails) if 0."""
    return np.where(psi == 1.0, 2.0, np.where(psi == 0.0, -1.0, psi))


class LiftPlan:
    """Precise configurations of a lift as draws.

    ``psi`` holds the vague values, one row per predicate and one column
    per pixie.  A batch of configurations is a (batch, ``draws``) array of
    draws in [0, 1]: cell (k, j) holds where draw ``column[k, j]`` is at
    most ``leaf_values(psi)[k, j]`` (``column`` is None where every cell is
    0 or 1).  ``enumerate`` gives every configuration with its weight, in a
    fixed order; uniforms in (0, 1] are sampled draws as they stand.

    Independent: each strictly fractional entry is a coin, one draw each,
    that holds with probability psi; entries in {0, 1} are fixed.
    Coupled-threshold: each predicate has one threshold, its draw, and a
    configuration is the super-level set ``psi >= theta``; enumeration
    takes one threshold region per predicate, weighted by its length.
    """

    def __init__(self, psi: np.ndarray, scheme: LiftScheme):
        self.scheme = scheme
        if scheme is LiftScheme.INDEPENDENT:
            fractional = (psi > 0.0) & (psi < 1.0)
            self._p = psi[fractional]
            self.count = 2 ** len(self._p)
            self.draws = len(self._p)
            # coin k reads draw k; a fixed cell reads some draw and ignores it
            self.column = np.cumsum(fractional).reshape(psi.shape) - 1 if self.count > 1 else None
        elif scheme is LiftScheme.COUPLED_THRESHOLD:
            _, lo, self._hi, self._starts, self._counts = threshold_regions(psi)
            self._measure = self._hi - lo
            self.count = math.prod(self._counts.tolist())
            self.draws = len(psi)
            rows = np.arange(self.draws)[:, None].repeat(psi.shape[1], axis=1)
            self.column = rows if self.count > 1 else None
        else:
            raise ValueError(f"unknown lifting scheme {scheme!r}")

    def check(self, cap: int) -> None:
        self.scheme.check(self.count, "configurations", cap)

    def enumerate(self, start: int, stop: int):
        """Draws of configurations ``start`` to ``stop`` and their weights.

        The order is that of ``itertools.product`` over the choices: the
        first fractional entry (independent) or the first predicate
        (coupled) varies slowest, holding (draw 0) before not holding
        (draw 1) and low thresholds (draw ``hi``) before high ones.
        """
        index = np.arange(start, stop, dtype=np.int64)
        weights = np.ones(len(index))
        if self.scheme is LiftScheme.INDEPENDENT:
            draws = ((index[:, None] >> np.arange(self.draws - 1, -1, -1)) & 1).astype(float)
            for k, p in enumerate(self._p.tolist()):
                weights *= np.where(draws[:, k] == 0.0, p, 1.0 - p)
            return draws, weights
        picks = []
        for count in reversed(self._counts.tolist()):
            picks.append(index % count)
            index = index // count
        draws = np.empty((len(weights), self.draws))
        for k, pick in enumerate(reversed(picks)):
            pick = self._starts[k] + pick
            weights *= self._measure[pick]
            draws[:, k] = self._hi[pick]
        return draws, weights


def lift(
    lexicon: VagueLexicon,
    scheme: LiftScheme,
    space: PixieSpace,
    cap: int = DEFAULT_CONFIG_CAP,
) -> LiftedLexicon:
    """Turn vague predicates into a distribution over precise lexicons.

    Independent: each strictly-fractional (predicate, pixie) entry is an
    independent Bernoulli; entries with psi in {0, 1} are fixed.
    CoupledThreshold: per predicate, one shared threshold sweeps (0, 1],
    giving the distinct super-level sets weighted by the length of the
    generating threshold interval; predicates remain independent of one
    another.  Both schemes marginalise back to psi exactly.
    """
    # psi: one row per predicate in sorted name order, one column per pixie
    names = sorted(lexicon.predicates)
    psi = np.array([[lexicon.psi(n, px) for px in space.elements] for n in names],
                   dtype=float).reshape(len(names), len(space.elements))
    plan = LiftPlan(psi, scheme)
    plan.check(cap)
    draws, weights = plan.enumerate(0, plan.count)
    # without a column every cell is fixed and holds or fails on any draw
    read = np.zeros((1, *psi.shape)) if plan.column is None else draws[:, plan.column]
    bits = read <= leaf_values(psi)
    configs = tuple(
        (PreciseLexicon({n: dict(zip(space.elements, row))
                         for n, row in zip(names, table)}), w)
        for table, w in zip(bits.tolist(), weights.tolist())
    )
    assert abs(math.fsum(w for _, w in configs) - 1.0) <= MASS_TOL
    return LiftedLexicon(configs, scheme)
