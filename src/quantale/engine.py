"""Evaluation engines for scope graphs over situation models.

All four engines share one row-vector core.  A node's table is a float
array of shape (batch, R) over the R positive-mass rows of the joint
marginal over the variables the graph's applications read: its value at
each row's projection onto the node's free variables.  Every
lookup a parent makes is such a projection, so nothing else is needed:

* an application reads the predicate's value at the row's pixie;
* a conjunction multiplies its children's tables;
* a quantifier sums ``mass * r`` and ``mass * r * b`` over the rows that
  share its free variables, applies its shape to the ratio and gathers
  the group values back to the rows.

Group sums are correctly rounded, so the result does not depend on the
order of the joint's rows, and a ratio such as 3/6 over masses of 1/7 is
exactly 1/2.  ``eval_exact`` and ``eval_mc`` only ever sum 0/1 tables; a
group whose rows carry one mass m then sums to its count times m, which
is the correctly rounded sum of that many copies of m.  The batch axis
carries whatever one pass is evaluated for:

* ``eval_naive`` applies quantifier shapes directly to vague conditional
  probabilities (the formulation that trivialises precise quantifiers
  under vague predicates); its batch is the single vague lexicon.
* ``eval_exact`` runs chunks of the configurations the lift plan
  enumerates.  At each vague quantifier node a configuration branches
  once per threshold region cut by the values the node attains, weighted
  by the region's length; the branches continue as rows of the batch.
  Under the independent lift, a graph whose one quantifier is its root
  and whose applications all read one variable has independent rows; it
  is summed over count states instead (``_counted``).
* ``eval_mc`` runs chunks of the configurations the lift plan samples,
  together with one uniform threshold per vague quantifier node, and
  keeps a vague node's value where it is at least the threshold.  It
  reports a binomial confidence interval and is seeded deterministically.
* ``eval_generic_fast`` reverses the order of expectations, evaluating
  vague functions directly; it is only sound for vague quantifiers.

A denominator at or below the guard is treated as an empty restriction:
the group receives the quantifier's convention value.  ``evaluate``
dispatches on an engine name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExplosionGuard, PreciseQuantifierInFastPath
from .model import (
    DEFAULT_CONFIG_CAP,
    LiftPlan,
    LiftScheme,
    SituationModel,
    VagueLexicon,
    _fsum_runs,
)
from .quant import (
    QuantifierKind,
    empty_restriction_value,
    is_precise,
    shape_values,
    threshold_regions,
)
from .scope import (
    Application,
    Conjunction,
    Quantifier,
    ScopeGraph,
    Tautology,
    validated_order,
)

NAIVE = "naive"
EXACT = "exact"
MONTE_CARLO = "mc"
GENERIC_FAST = "generic-fast"
ENGINES = (NAIVE, EXACT, MONTE_CARLO, GENERIC_FAST)

DEFAULT_VAGUE_NODE_CAP = 4
DENOM_GUARD = 1e-15
# Upper bound on batch x R cells per node table; configurations, samples
# and threshold branches are evaluated in chunks of this size.
CHUNK_CELLS = 2**13


@dataclass(frozen=True)
class EngineLimits:
    config_cap: int = DEFAULT_CONFIG_CAP
    vague_node_cap: int = DEFAULT_VAGUE_NODE_CAP


@dataclass(frozen=True)
class EvalResult:
    probability: float
    engine: str
    ci: tuple[float, float] | None = None
    samples: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class GenericComparison:
    """Expectation-of-ratio (exact) versus ratio-of-expectations (fast)."""

    exact: float
    fast: float
    gap: float


class _Core:
    """Everything one evaluation of a graph reads, and the pass over it.

    ``names`` are the applied predicates, sorted, and ``psi`` their vague
    values, one row per name and one column per pixie of the space.  A
    cell that no positive-mass row reads holds 0, so a lift of ``psi``
    neither enumerates nor samples it.  ``cells`` maps each application
    to its predicate's row of ``psi`` and the pixie each row reads.
    ``crisp`` says that the caller only passes 0/1 tables (configuration
    bits, thresholds applied), so one-mass groups may be summed by counts.
    """

    def __init__(self, graph: ScopeGraph, model: SituationModel, lexicon: VagueLexicon,
                 generic_empty=1.0, crisp=False):
        self.graph = graph
        self.generic_empty = generic_empty
        self.order, free = validated_order(graph, model, lexicon)
        quantifiers = [i for i in self.order if isinstance(graph.nodes[i], Quantifier)]
        self.vague = [i for i in quantifiers if not is_precise(graph.nodes[i].kind)]
        # crisp: every table a quantifier reads holds 0s and 1s, as bits,
        # precise shapes and thresholded vague nodes do, unless a custom
        # precise shape gives an empty restriction some other value.
        crisp = crisp and all(i in self.vague or
                              empty_restriction_value(graph.nodes[i].kind) in (0.0, 1.0)
                              for i in quantifiers)
        applications = [graph.nodes[i] for i in self.order
                        if isinstance(graph.nodes[i], Application)]
        self.names = sorted({a.predicate for a in applications})
        # Only the variables some application reads tell rows apart.
        applied = {a.variable for a in applications}
        # One quantifier, at the root, over one variable: each row is a
        # pixie and reads cells no other row reads (see _counted).
        self.countable = len(applied) == 1 and quantifiers == [graph.root]
        variables = tuple(v for v in model.variables if v in applied)
        # codes[j, c]: the pixie that row j assigns to variable c
        codes, self.mass = model.rows(variables)
        self.width = len(self.mass)
        self.chunk = max(1, CHUNK_CELLS // self.width)  # batch rows per chunk
        column = {v: k for k, v in enumerate(variables)}
        space = model.space.elements
        name_row = {n: k for k, n in enumerate(self.names)}
        read = np.zeros((len(self.names), len(space)), dtype=bool)
        self.cells: dict[int, tuple[int, np.ndarray]] = {}
        # position of the last node that reads each node's table
        self.last_use = {self.graph.root: len(self.order)}
        self.groups: dict[int, tuple] = {}
        for pos, i in enumerate(self.order):
            node = graph.nodes[i]
            if isinstance(node, Application):
                k, cols = name_row[node.predicate], codes[:, column[node.variable]]
                self.cells[i] = (k, cols)
                read[k, cols] = True
            elif isinstance(node, Conjunction):
                self.last_use.update(dict.fromkeys(node.children, pos))
            elif isinstance(node, Quantifier):
                self.last_use.update({node.restriction: pos, node.body: pos})
                # (order, starts, sizes, group, one mass per group or None)
                *runs, mass = model.groups(variables, sorted(free[i]))
                self.groups[i] = (*runs, mass if crisp else None)
        self.psi = np.zeros(read.shape)
        for k, name in enumerate(self.names):
            pixies = np.flatnonzero(read[k]).tolist()
            psi = lexicon.predicates[name].table.get
            self.psi[k, pixies] = [psi(space[j], 0.0) for j in pixies]

    def leaves(self, truth: np.ndarray) -> dict[int, np.ndarray]:
        """Tables of every application and tautology node.

        ``truth`` has shape (batch, predicates, pixies), laid out as
        ``psi``: configuration bits or vague values.
        """
        tables = {i: truth[:, k, cols].astype(float) for i, (k, cols) in self.cells.items()}
        for i in self.order:
            if isinstance(self.graph.nodes[i], Tautology):
                tables[i] = np.ones((len(truth), self.width))
        return tables

    def advance(self, tables, start=0, stop=None):
        """Fill in the tables of the nodes from position ``start`` on,
        up to but excluding position ``stop`` (default: through the root).

        Returns the position of the first vague quantifier filled in, for
        the caller to threshold, or None once the root is done.
        """
        for pos in range(start, len(self.order) if stop is None else stop):
            i = self.order[pos]
            if i in tables:
                continue
            node = self.graph.nodes[i]
            if isinstance(node, Conjunction):
                value = tables[node.children[0]]
                for c in node.children[1:]:
                    value = value * tables[c]
                tables[i] = value
            else:
                tables[i] = self._quantify(i, tables[node.restriction], tables[node.body])
                if i in self.vague:
                    return pos
        return None

    def _quantify(self, i, r, b):
        num, den = self.group_sums(i, r, b)
        return self.shape(self.graph.nodes[i].kind, num, den)[:, self.groups[i][3]]

    def group_sums(self, i, r, b):
        """Per batch row and group of quantifier ``i``, the correctly rounded
        sums of ``mass * r * b`` and ``mass * r``.

        On a crisp core whose groups each carry one mass m, these are the
        counts of rows holding r and b, and r, times m: fl(k * m) is the
        correctly rounded sum of k copies of m.  Other groups sum their
        row terms.
        """
        order, starts, sizes, _, mass = self.groups[i]
        if mass is not None:
            r = r[:, order]
            return (np.add.reduceat(r * b[:, order], starts, axis=1) * mass,
                    np.add.reduceat(r, starts, axis=1) * mass)
        batch = len(r)
        run_starts = (np.arange(batch)[:, None] * self.width + starts).ravel()
        run_sizes = np.tile(sizes, batch)

        def sums(terms):
            flat = terms[:, order].ravel()
            return _fsum_runs(flat, run_starts, run_sizes).reshape(batch, len(sizes))

        den_terms = self.mass * r
        return sums(den_terms * b), sums(den_terms)

    def shape(self, kind, num, den):
        """f_Q of ``num / den``; the empty-restriction value where ``den``
        is at most the guard."""
        filled = den > DENOM_GUARD
        values = np.full(den.shape, empty_restriction_value(kind, self.generic_empty))
        values[filled] = shape_values(kind, np.minimum(num[filled] / den[filled], 1.0))
        return values

    def values(self, tables, thetas: np.ndarray | None = None) -> np.ndarray:
        """Root values per batch row.  Vague node k is thresholded at
        ``thetas[:, k]`` if given; otherwise vague nodes keep their values."""
        pos = self.advance(tables)
        while pos is not None:
            i = self.order[pos]
            if thetas is not None:
                k = self.vague.index(i)
                tables[i] = (tables[i] >= thetas[:, k, None]).astype(float)
            pos = self.advance(tables, pos + 1)
        return tables[self.graph.root][:, 0]

    def expectation(self, tables, start=0) -> np.ndarray:
        """Per batch row, the root's expectation over every vague node's
        threshold from position ``start`` on."""
        pos = self.advance(tables, start)
        if pos is None:
            return tables[self.graph.root][:, 0]
        i = self.order[pos]
        row, lo, hi, starts, counts = threshold_regions(tables[i])
        keep = [j for j in tables if j != i and self.last_use.get(j, -1) > pos]
        out = np.empty(len(row))
        for a in range(0, len(row), self.chunk):
            part = slice(a, a + self.chunk)
            branch = {j: tables[j][row[part]] for j in keep}
            branch[i] = (tables[i][row[part]] >= hi[part, None]).astype(float)
            out[part] = self.expectation(branch, pos + 1)
        return _fsum_runs((hi - lo) * out, starts, counts)


def _psi_pass(graph, model, lexicon, generic_empty, vague_only):
    """Root value with every node valued by vague probabilities."""
    core = _Core(graph, model, lexicon, generic_empty)
    if vague_only:
        for i in core.order:
            node = graph.nodes[i]
            if isinstance(node, Quantifier) and is_precise(node.kind):
                name = node.kind.value if isinstance(node.kind, QuantifierKind) else "custom"
                raise PreciseQuantifierInFastPath(
                    f"precise quantifier {name!r} at node {i} is not allowed "
                    f"in the generic fast path; use the exact engine"
                )
    return float(core.values(core.leaves(core.psi[None]))[0])


def eval_naive(graph: ScopeGraph, model: SituationModel, lexicon: VagueLexicon,
               generic_empty: float = 1.0) -> EvalResult:
    """Apply quantifier shapes directly to vague conditional probabilities."""
    p = _psi_pass(graph, model, lexicon, generic_empty, vague_only=False)
    return EvalResult(probability=p, engine=NAIVE)


def eval_generic_fast(graph: ScopeGraph, model: SituationModel,
                      lexicon: VagueLexicon,
                      generic_empty: float = 1.0) -> EvalResult:
    """Ratio-of-expectations fast path; every quantifier must be vague."""
    p = _psi_pass(graph, model, lexicon, generic_empty, vague_only=True)
    return EvalResult(probability=p, engine=GENERIC_FAST)


def _check_vague_cap(core, limits):
    if len(core.vague) > limits.vague_node_cap:
        raise ExplosionGuard(
            f"{len(core.vague)} vague quantifier nodes exceed the cap "
            f"of {limits.vague_node_cap}",
            count=len(core.vague),
            cap=limits.vague_node_cap,
        )


def _enumerated(core, scheme, cap):
    """Root expectation over every configuration the lift plan enumerates."""
    plan = LiftPlan(core.psi, scheme)
    plan.check(cap)
    terms = []
    for start in range(0, plan.count, core.chunk):
        bits, weights = plan.enumerate(start, min(start + core.chunk, plan.count))
        terms.append(weights * core.expectation(core.leaves(bits)))
    return math.fsum(np.concatenate(terms))


def _count_sums(counts, masses, fixed):
    """Correctly rounded ``sum(fixed) + counts[s] @ masses`` per state s.

    Each mass is an integer over a power of two, so over the largest of
    those denominators every sum is an exact integer; Python's integer
    true division then rounds it correctly.
    """
    ratios = [m.as_integer_ratio() for m in [*masses, *fixed]]
    scale = max((d for _, d in ratios), default=1)
    ints = [n * (scale // d) for n, d in ratios]
    k = len(masses)
    sums = counts.astype(np.int64).astype(object) @ np.array(ints[:k], dtype=object)
    base = sum(ints[k:])
    return np.array([(s + base) / scale for s in sums.tolist()], dtype=float)


def _counted(core, cap):
    """Root expectation under the independent lift for a ``countable`` core.

    Its rows are independent: row j holds restriction and body with
    probabilities q[j] = (P(r=0), P(r=1, b=0), P(r=1, b=1)), found by
    evaluating the graph once on every pattern of the predicates with
    fractional cells, a pattern setting a predicate on every pixie.  A
    count state says, per distinct mass of the rows with fractional
    cells, how many of them hold r and how many hold r and b; the other
    rows hold one outcome each.  A state's sums are the correctly rounded
    ones that enumeration computes (``_count_sums``), and a convolution
    over the rows (Poisson binomial) gives its probability.  A vague root
    is worth its value f, since E[f >= theta] = f.  The rows, and so the
    classes and each convolution, come in pixie-name order (the sorted
    ``space.elements``): equal models give equal bits.
    """
    root = core.graph.nodes[core.graph.root]
    psi = core.psi[:, next(iter(core.cells.values()))[1]]  # (predicates, rows)
    fractional = (psi > 0.0) & (psi < 1.0)
    cells = fractional.sum(axis=0)
    varying = np.flatnonzero(fractional.any(axis=1))
    mass = core.mass.tolist()
    classes: dict[float, list[int]] = {}
    for j in np.flatnonzero(cells).tolist():
        classes.setdefault(mass[j], []).append(j)
    # A class of u rows holding f fractional cells has at most as many
    # states as count pairs (u + 1)(u + 2) / 2 and as configurations 2^f;
    # neither this nor the 2^len(varying) patterns exceeds the enumeration.
    states = 1
    for rows in classes.values():
        u, f = len(rows), int(cells[rows].sum())
        states *= min((u + 1) * (u + 2) // 2, 2**f)
    count = max(states, 2 ** len(varying))
    if count > cap:
        raise ExplosionGuard(
            f"independent lift needs {count} count states (cap {cap})",
            count=count,
            cap=cap,
        )

    pattern = (np.arange(2 ** len(varying))[:, None]
               >> np.arange(len(varying) - 1, -1, -1)) & 1 == 1
    bits = np.repeat((core.psi == 1.0)[None], len(pattern), axis=0)
    bits[:, varying] = pattern[:, :, None]
    tables = core.leaves(bits)
    core.advance(tables, stop=len(core.order) - 1)
    r = tables[root.restriction]
    outcome = r + r * tables[root.body]  # 0, 1 or 2 per pattern and row
    weight = np.where(pattern[:, :, None], psi[varying], 1.0 - psi[varying]).prod(axis=1)
    q = np.stack([(weight * (outcome == t)).sum(axis=0) for t in range(3)], axis=1)

    # a row without fractional cells has one outcome, with q = 1
    fixed = cells == 0
    den_fixed = core.mass[fixed & (q[:, 0] == 0.0)].tolist()
    num_fixed = core.mass[fixed & (q[:, 2] == 1.0)].tolist()
    dists = []
    for rows in classes.values():
        # dist[a, k]: probability that a of the rows hold r and k hold r and b
        dist = np.zeros((len(rows) + 1, len(rows) + 1))
        dist[0, 0] = 1.0
        for q0, q1, q2 in q[rows].tolist():
            grown = q0 * dist
            grown[1:] += q1 * dist[:-1]
            grown[1:, 1:] += q2 * dist[:-1, :-1]
            dist = grown
        a, k = np.nonzero(dist)
        dists.append((a, k, dist[a, k]))
    masses = list(classes)
    total = math.prod(len(p) for _, _, p in dists)
    step = max(1, CHUNK_CELLS // (2 * len(masses) + 1))
    terms = []
    for start in range(0, total, step):
        state = np.arange(start, min(start + step, total))
        prob = np.ones(len(state))
        held = np.empty((len(state), len(dists)))
        both = np.empty((len(state), len(dists)))
        for c, (a, k, p) in enumerate(dists):
            state, pick = np.divmod(state, len(p))
            prob *= p[pick]
            held[:, c], both[:, c] = a[pick], k[pick]
        den = _count_sums(held, masses, den_fixed)
        num = _count_sums(both, masses, num_fixed)
        terms.append(prob * core.shape(root.kind, num, den))
    return math.fsum(np.concatenate(terms))


def eval_exact(graph: ScopeGraph, model: SituationModel, lexicon: VagueLexicon,
               scheme: LiftScheme = LiftScheme.INDEPENDENT,
               limits: EngineLimits = EngineLimits(),
               generic_empty: float = 1.0) -> EvalResult:
    """Exact evaluation: the expectation over precise configurations, each
    vague quantifier's shared threshold integrated over its finite value
    set.  A ``countable`` graph under the independent lift sums over count
    states; every other input enumerates configurations."""
    core = _Core(graph, model, lexicon, generic_empty, crisp=True)
    _check_vague_cap(core, limits)
    if scheme is LiftScheme.INDEPENDENT and core.countable:
        p = _counted(core, limits.config_cap)
    else:
        p = _enumerated(core, scheme, limits.config_cap)
    return EvalResult(probability=min(max(p, 0.0), 1.0), engine=EXACT)


def _binomial_ci(p_hat: float, n: int) -> tuple[float, float]:
    # 95% Wilson score interval (Wilson 1927; Brown, Cai & DasGupta 2001),
    # which keeps a positive width at p_hat 0 and 1.  Each bound is the lower
    # one of its own side, so p_hat = 1 gives exactly (n / (n + z^2), 1).
    z = 1.959963984540054

    def lower(p: float) -> float:
        return max((n * p + (z * z / 2 - z * math.sqrt(n * p * (1 - p) + z * z / 4)))
                   / (n + z * z), 0.0)

    return (lower(p_hat), 1.0 - lower(1.0 - p_hat))


def eval_mc(graph: ScopeGraph, model: SituationModel, lexicon: VagueLexicon,
            scheme: LiftScheme = LiftScheme.INDEPENDENT,
            samples: int = 10000, seed: int = 0,
            limits: EngineLimits = EngineLimits(),
            generic_empty: float = 1.0) -> EvalResult:
    """Monte Carlo estimate of the exact semantics.

    Each sample draws one precise lexicon (per scheme) and one uniform
    threshold per vague quantifier node, in that order from one stream,
    then evaluates the root boolean.  Identical inputs and seed give
    identical results.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    core = _Core(graph, model, lexicon, generic_empty, crisp=True)
    _check_vague_cap(core, limits)
    plan = LiftPlan(core.psi, scheme)
    rng = np.random.default_rng(seed)
    hits = 0.0
    for start in range(0, samples, core.chunk):
        n = min(core.chunk, samples - start)
        uniforms = rng.random((n, plan.draws + len(core.vague)))
        np.subtract(1.0, uniforms, out=uniforms)
        tables = core.leaves(plan.sample(uniforms[:, :plan.draws]))
        hits += float(core.values(tables, uniforms[:, plan.draws:]).sum())
    p_hat = hits / samples
    return EvalResult(
        probability=p_hat,
        engine=MONTE_CARLO,
        ci=_binomial_ci(p_hat, samples),
        samples=samples,
        seed=seed,
    )


def evaluate(graph: ScopeGraph, model: SituationModel, lexicon: VagueLexicon,
             engine: str = EXACT, scheme: LiftScheme = LiftScheme.INDEPENDENT,
             limits: EngineLimits = EngineLimits(), samples: int | None = None,
             seed: int | None = None) -> EvalResult:
    """Run the engine named ``engine``; naive and generic-fast ignore the
    scheme and limits, and only mc uses ``samples`` and ``seed``."""
    if engine == NAIVE:
        return eval_naive(graph, model, lexicon)
    if engine == GENERIC_FAST:
        return eval_generic_fast(graph, model, lexicon)
    if engine == EXACT:
        return eval_exact(graph, model, lexicon, scheme, limits)
    if engine == MONTE_CARLO:
        if samples is None or seed is None:
            raise ValueError("the mc engine requires samples and a seed")
        return eval_mc(graph, model, lexicon, scheme, samples=samples, seed=seed,
                       limits=limits)
    raise ValueError(f"unknown engine {engine!r}")


def compare_generic(graph: ScopeGraph, model: SituationModel,
                    lexicon: VagueLexicon,
                    scheme: LiftScheme = LiftScheme.INDEPENDENT,
                    limits: EngineLimits = EngineLimits(),
                    generic_empty: float = 1.0) -> GenericComparison:
    """Expectation-over-configurations value versus the fast-path value.
    Every quantifier reachable from the root must be generic."""
    order, _ = validated_order(graph, model, lexicon)
    for i in sorted(order):
        node = graph.nodes[i]
        if isinstance(node, Quantifier) and node.kind is not QuantifierKind.GENERIC:
            raise PreciseQuantifierInFastPath(
                f"compare_generic requires all quantifiers generic; node {i} "
                f"is {getattr(node.kind, 'value', 'custom')!r}"
            )
    exact = eval_exact(graph, model, lexicon, scheme, limits, generic_empty)
    fast = eval_generic_fast(graph, model, lexicon, generic_empty)
    return GenericComparison(
        exact=exact.probability,
        fast=fast.probability,
        gap=abs(exact.probability - fast.probability),
    )
