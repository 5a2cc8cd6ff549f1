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

from .errors import ExplosionGuard, UnknownVariable
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
        if len(self._members) != len(self.elements):
            raise ValueError("pixie identifiers must be unique")
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))

    @cached_property
    def _members(self) -> frozenset[str]:
        return frozenset(self.elements)

    def __contains__(self, pixie):
        return pixie in self._members


def _fsum_runs(terms: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each run ``terms[starts[k]:starts[k] + counts[k]]``:
    one ``math.fsum`` per run.  A run's sum does not depend on the order of its
    terms, and three of six rows of mass 1/7 make a ratio of exactly 1/2."""
    flat = terms.tolist()
    return np.array([math.fsum(flat[a:a + n]) for a, n in zip(starts.tolist(), counts.tolist())],
                    dtype=float)


def _runs(codes: np.ndarray):
    """Runs of equal rows of ``codes`` (rows x columns) in a stable sort of
    them, lexicographic with the first column primary: the sorting order,
    where each run starts, its length, and each row's run.  Without
    columns, every row is in one run."""
    n = len(codes)
    order = np.lexsort(codes.T[::-1]) if codes.shape[1] else np.arange(n)
    ordered = codes[order]
    new = np.append(True, (ordered[1:] != ordered[:-1]).any(axis=1))
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
    with probability mass.  Mass must be finite, non-negative and total 1
    within 1e-9; assignments must be total and unique.

    The joint's arrays, its rows over a tuple of variables and their
    groups are built on first use and kept on the instance: every field
    is a tuple, so nothing they are derived from can change.  They do not
    take part in equality, hashing or ``repr``.
    """

    space: PixieSpace
    variables: tuple[str, ...]
    joint: tuple[tuple[tuple[str, ...], float], ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        seen = set()
        total = 0.0
        for assignment, mass in self.joint:
            if len(assignment) != len(self.variables):
                raise ValueError(f"assignment {assignment} does not cover all variables")
            for pixie in assignment:
                if pixie not in self.space:
                    raise ValueError(f"unknown pixie {pixie!r} in joint assignment")
            if assignment in seen:
                raise ValueError(f"duplicate assignment {assignment}")
            seen.add(assignment)
            if not math.isfinite(mass):
                raise ValueError(f"probability {mass} of {assignment} is not finite")
            if mass < 0:
                raise ValueError("probabilities must be non-negative")
            total += mass
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"joint mass {total} differs from 1 by more than {MASS_TOL}")

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
        the pixie that joint row j assigns to variable c, and ``mass[j]``."""
        index = {p: k for k, p in enumerate(self.space.elements)}
        codes = np.array([index[p] for a, _ in self.joint for p in a], dtype=np.intp)
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
            columns = codes[:, [vars.index(v) for v in by]]
            order, starts, sizes, run = _runs(columns)
            ordered = mass[order]
            head = ordered[starts]  # each run's first mass
            one = np.array_equal(ordered, np.repeat(head, sizes))
            found = (*_read_only(order, starts, sizes, run), _read_only(head)[0] if one else None)
            self._memo["groups", vars, by] = found
        return found


@dataclass(frozen=True)
class VaguePredicate:
    """Map from pixie to probability of truth; absent pixies mean 0."""

    name: str
    table: dict[str, float]

    def __post_init__(self):
        for pixie, p in self.table.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"psi_{self.name}({pixie}) = {p} outside [0, 1]")

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


@dataclass(frozen=True)
class LiftedLexicon:
    """Weighted enumeration of precise lexicons produced by a lift."""

    configurations: tuple[tuple[PreciseLexicon, float], ...]
    scheme: LiftScheme


DEFAULT_CONFIG_CAP = 2**20


def psi_table(lexicon: VagueLexicon, space: PixieSpace) -> np.ndarray:
    """psi as an array: one row per predicate in sorted name order, one
    column per pixie of the space."""
    names = sorted(lexicon.predicates)
    table = [[lexicon.psi(n, px) for px in space.elements] for n in names]
    return np.array(table, dtype=float).reshape(len(names), len(space.elements))


class LiftPlan:
    """Precise configurations of a lift as bit arrays.

    ``psi`` holds the vague values, one row per predicate and one column
    per pixie.  A batch of configurations is a boolean array of shape
    (batch, predicates, pixies), produced either by ``enumerate`` (every
    configuration with its weight, in a fixed order) or by ``sample`` (one
    configuration per row of uniforms in (0, 1], ``draws`` of them per
    configuration).

    Independent: each strictly fractional entry is a coin that holds with
    probability psi (sampled as ``u <= psi``); entries in {0, 1} are
    fixed.  Coupled-threshold: each predicate has one threshold, and a
    configuration is the super-level set ``psi >= theta``; enumeration
    takes one threshold region per predicate, weighted by its length.
    """

    def __init__(self, psi: np.ndarray, scheme: LiftScheme):
        self.scheme = scheme
        self.psi = psi
        if scheme is LiftScheme.INDEPENDENT:
            fractional = (self.psi > 0.0) & (self.psi < 1.0)
            self._entries = np.nonzero(fractional)
            self._p = self.psi[fractional]
            self.count = 2 ** len(self._p)
            self.draws = len(self._p)
        elif scheme is LiftScheme.COUPLED_THRESHOLD:
            _, lo, self._hi, self._starts, self._counts = threshold_regions(self.psi)
            self._measure = self._hi - lo
            self.count = math.prod(self._counts.tolist())
            self.draws = len(psi)
        else:
            raise ValueError(f"unknown lifting scheme {scheme!r}")

    def check(self, cap: int) -> None:
        if self.count > cap:
            raise ExplosionGuard(
                f"{self.scheme.value} lift needs {self.count} configurations (cap {cap})",
                count=self.count,
                cap=cap,
            )

    def enumerate(self, start: int, stop: int):
        """Configurations ``start`` to ``stop`` and their weights.

        The order is that of ``itertools.product`` over the choices: the
        first fractional entry (independent) or the first predicate
        (coupled) varies slowest, holding before not holding and low
        thresholds before high ones.
        """
        index = np.arange(start, stop, dtype=np.int64)
        weights = np.ones(len(index))
        if self.scheme is LiftScheme.INDEPENDENT:
            n = len(self._p)
            holds = (index[:, None] >> np.arange(n - 1, -1, -1)) & 1 == 0
            for k, p in enumerate(self._p.tolist()):
                weights *= np.where(holds[:, k], p, 1.0 - p)
            return self._fill(holds), weights
        picks = []
        for count in reversed(self._counts.tolist()):
            picks.append(index % count)
            index = index // count
        bits = np.empty((len(weights), *self.psi.shape), dtype=bool)
        for k, pick in enumerate(reversed(picks)):
            pick = self._starts[k] + pick
            weights *= self._measure[pick]
            bits[:, k] = self.psi[k] >= self._hi[pick][:, None]
        return bits, weights

    def sample(self, uniforms: np.ndarray) -> np.ndarray:
        """One configuration per row of ``uniforms`` (shape (n, draws))."""
        if self.scheme is LiftScheme.INDEPENDENT:
            return self._fill(uniforms <= self._p)
        return self.psi >= uniforms[:, :, None]

    def _fill(self, holds):
        bits = np.repeat((self.psi == 1.0)[None], len(holds), axis=0)
        bits[:, self._entries[0], self._entries[1]] = holds
        return bits


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
    plan = LiftPlan(psi_table(lexicon, space), scheme)
    plan.check(cap)
    bits, weights = plan.enumerate(0, plan.count)
    names = sorted(lexicon.predicates)
    configs = tuple(
        (PreciseLexicon({n: dict(zip(space.elements, row))
                         for n, row in zip(names, table)}), w)
        for table, w in zip(bits.tolist(), weights.tolist())
    )
    assert abs(math.fsum(w for _, w in configs) - 1.0) <= MASS_TOL
    return LiftedLexicon(configs, scheme)
