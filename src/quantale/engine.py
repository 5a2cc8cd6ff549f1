"""Evaluation engines for scope graphs over situation models.

All four engines share one row-vector core.  A node's table is a float
array of shape (batch, R) over the R positive-mass rows of the joint
marginal over the variables the graph's applications read: its value at
each row's projection onto the node's free variables.  Every
lookup a parent makes is such a projection, so nothing else is needed:

* an application reads the predicate's value at the row's pixie: psi
  itself, or under a lift the leaf rule, where the cell holds if the draw
  it reads is at most its value (``model.leaf_values``);
* a conjunction multiplies its children's tables;
* a quantifier sums ``mass * r`` and ``mass * r * b`` over the rows that
  share its free variables, applies its shape to the ratio and gathers
  the group values back to the rows; the closed root keeps its one group.

Group sums are correctly rounded, so the result does not depend on the
order of the joint's rows, and a ratio such as 3/6 over masses of 1/7 is
exactly 1/2.  ``eval_exact`` and ``eval_mc`` only ever sum 0/1 tables; a
group whose rows carry one mass m then sums to its count times m, which
is the correctly rounded sum of that many copies of m, and a quantifier
of built-in kind reads its value at each count pair from a table.  What
depends only on the graph and the model (the order, groups and cells) is
prepared on a pair's first evaluation, the count tables where they pay,
and both are kept in the model's memo, for its ``PLANS_PER_MODEL`` most
recently evaluated graphs; each call reads only psi from the lexicon.
The batch axis carries whatever one pass is evaluated for:

* ``eval_naive`` applies quantifier shapes directly to vague conditional
  probabilities (the formulation that trivialises precise quantifiers
  under vague predicates); its batch is the single vague lexicon.
* ``eval_exact`` runs chunks of the draws the lift plan enumerates.  At
  each vague quantifier node a configuration branches once per threshold
  region cut by the node's values, weighted by the region's length; the
  branches continue as batch rows.  Under the independent lift, a graph
  whose one quantifier is its root and whose applications all read one
  variable has independent rows, summed over count states: the exact
  sums of the masses that hold r, and r and b (``_counted``).
* ``eval_mc`` runs chunks of uniform draws, one per draw of the lift plan
  and one threshold per vague quantifier node, and keeps a vague node's
  value where it is at least the threshold.  It reports a binomial
  confidence interval and is seeded deterministically.
* ``eval_generic_fast`` reverses the order of expectations, evaluating
  vague functions directly; it is only sound for vague quantifiers.

A denominator at or below the guard is treated as an empty restriction:
the group receives the quantifier's convention value, for generic
``generic_empty``, which every engine refuses outside [0, 1].  ``evaluate``
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
    leaf_values,
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
    _walk,
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
# Upper bound on side**2, the cells of the counting path's grid of (D, N)
# states (16 MB of floats); past it, or past 2 cells per state that the
# count guard allows, the states are kept as a map of sorted keys.
COUNT_GRID_CELLS = 2**21
# Plans kept per model, one per graph and generic_empty; the least
# recently evaluated goes first.
PLANS_PER_MODEL = 32


@dataclass(frozen=True)
class EngineLimits:
    config_cap: int = DEFAULT_CONFIG_CAP
    vague_node_cap: int = DEFAULT_VAGUE_NODE_CAP

    def __post_init__(self):
        for name, cap in vars(self).items():
            if cap < 0:
                raise ValueError(f"{name} must be non-negative, got {cap}")


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


class _Plan:
    """What a core reads that depends only on the graph's nodes and root
    and on the model; see ``_Core``.  ``lookups`` gives, per applied
    predicate, the columns of psi that some positive-mass row reads and
    their pixies; ``cells`` maps each application to its predicate's row
    of psi and the column each row reads.  ``groups`` hold each
    quantifier's one mass only if ``crisp``: the caller only passes 0/1
    tables (lifted leaves, thresholds applied).  ``counting`` gives each
    one-mass quantifier side, its largest group + 1, and its one-hot
    row-by-group membership, None where that passes ``CHUNK_CELLS``.
    ``tables`` holds each one's count table (or None) once built, for the
    ``generic_empty`` in the plan's key (``_Core._count_path``).
    """

    def __init__(self, graph: ScopeGraph, model: SituationModel, order, free, crisp):
        self.order = order
        quantifiers = [i for i in order if isinstance(graph.nodes[i], Quantifier)]
        self.vague = [i for i in quantifiers if not is_precise(graph.nodes[i].kind)]
        applications = [graph.nodes[i] for i in order if isinstance(graph.nodes[i], Application)]
        self.names = sorted({a.predicate for a in applications})
        # Only the variables some application reads tell rows apart.
        applied = {a.variable for a in applications}
        # One quantifier, at the root, over one variable: each row is a
        # pixie and reads cells no other row reads (see _counted).
        self.countable = len(applied) == 1 and quantifiers == [graph.root]
        variables = tuple(v for v in model.variables if v in applied)
        self.mass = model.rows(variables)[1]
        # codes[j, c]: the pixie that row j assigns to variable c, as a
        # position among the pixies the rows assign
        pixies, codes = model.assigned(variables)
        self.width = len(self.mass)
        self.chunk = max(1, CHUNK_CELLS // self.width)  # batch rows per chunk
        column = {v: k for k, v in enumerate(variables)}
        name_row = {n: k for k, n in enumerate(self.names)}
        read = np.zeros((len(self.names), len(pixies)), dtype=bool)
        self.cells: dict[int, tuple[int, np.ndarray]] = {}
        # position of the last node that reads each node's table
        self.last_use = {graph.root: len(order)}
        self.groups: dict[int, tuple] = {}
        self.counting: dict[int, tuple] = {}
        for pos, i in enumerate(order):
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
                if crisp and mass is not None:
                    sizes, run = runs[2:]
                    fits = len(sizes) * self.width <= CHUNK_CELLS
                    member = (run[:, None] == np.arange(len(sizes))).astype(float) if fits else None
                    self.counting[i] = (int(sizes.max()) + 1, member)
        space = model.space.elements
        self.lookups = [(cols, [space[j] for j in pixies[cols].tolist()])
                        for cols in map(np.flatnonzero, read)]
        self.columns = len(pixies)
        self.tables: dict[int, tuple] = {}
        if self.countable:  # sides: the rows of psi applied under r, and only under b
            root = graph.nodes[graph.root]
            r, b = ({self.cells[j][0] for j in _walk(graph.nodes, c) if j in self.cells}
                    for c in (root.restriction, root.body))
            self.sides = np.array(sorted(r), np.intp), np.array(sorted(b - r), np.intp)


class _Core:
    """Everything one evaluation of a graph reads, and the pass over it.

    The plan's fields are read as the core's own: one ``_Plan`` per equal
    nodes, root, ``crisp`` and ``generic_empty``, kept in the model's
    memo, serves every evaluation on that model while it is among the
    ``PLANS_PER_MODEL`` most recently used.  Per call only ``psi`` is
    read from the lexicon: the applied predicates' vague values, sorted
    by name, one column per pixie that some row assigns; a cell that no
    positive-mass row reads holds 0, so a lift neither enumerates nor
    samples it.  A one-mass quantifier counts k_r * side + k_rb per group
    and applies its shape only where it has no count table: a prepared
    pair applies none.
    """

    def __init__(self, graph: ScopeGraph, model: SituationModel, lexicon: VagueLexicon,
                 generic_empty=1.0, crisp=False):
        if not 0.0 <= generic_empty <= 1.0:
            raise ValueError(f"generic_empty must be in [0, 1], got {generic_empty!r}")
        order, free = validated_order(graph, model, lexicon)
        # keyed on structure alone (nodes are frozen, and aliases only name
        # them) and on generic_empty, whose hex keeps -0.0 apart from 0.0
        key = (tuple(graph.nodes), graph.root, crisp, float(generic_empty).hex())
        plans = model._memo.setdefault("plans", {})
        plan = plans.pop(key, None)  # put back last: the first is the least recently used
        self.reused = plan is not None
        if plan is None:
            plan = _Plan(graph, model, order, free, crisp)
            if len(plans) >= PLANS_PER_MODEL:
                del plans[next(iter(plans))]
        plans[key] = plan
        vars(self).update(vars(plan))
        self.graph = graph
        self.generic_empty = generic_empty
        self.psi = np.zeros((len(self.names), self.columns))
        for k, (name, (cols, pixies)) in enumerate(zip(self.names, self.lookups)):
            psi = lexicon.predicates[name].table.get
            self.psi[k, cols] = [psi(p, 0.0) for p in pixies]

    def reads(self, column: np.ndarray | None):
        """Per application, the draw that each row's cell reads (``column``
        of psi's cells) and the cell's ``leaf_values``; None for no column."""
        if column is None:
            return None
        value = leaf_values(self.psi)
        return {i: (column[k][cols], value[k][cols]) for i, (k, cols) in self.cells.items()}

    def leaves(self, draws: np.ndarray | None = None, reads=None) -> dict[int, np.ndarray]:
        """Tables of every application and tautology node, a row per row of
        ``draws`` (one without): the leaf rule by ``reads``, else psi's own."""
        n = 1 if draws is None else len(draws)
        if reads is None:
            tables = {i: self.psi[k][cols][None].repeat(n, axis=0)
                      for i, (k, cols) in self.cells.items()}
        else:
            tables = {i: (draws[:, c] <= v).astype(float) for i, (c, v) in reads.items()}
        for i in self.order:
            if isinstance(self.graph.nodes[i], Tautology):
                tables[i] = np.ones((n, self.width))
        return tables

    def advance(self, tables, start=0):
        """Fill in the tables of the nodes from position ``start`` on.

        Returns the position of the first vague quantifier filled in, for
        the caller to threshold, or None once the root is done.
        """
        for pos in range(start, len(self.order)):
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
        kind = self.graph.nodes[i].kind
        order, starts, _, run, mass = self.groups[i]
        # the root is closed: its one group stays at column 0, not gathered to the rows
        run = slice(None) if i == self.graph.root else run
        if mass is None:
            return self.shape(kind, *self.group_sums(i, r, b))[:, run]
        side, member = self.counting[i]
        held = r * (b + side)  # summed per group: k_r * side + k_rb, small integers, so exact
        counts = held @ member if member is not None else np.add.reduceat(held[:, order], starts, 1)
        table = self._count_path(i, kind, len(r))
        if table is None:  # fl(k * m) is the correctly rounded sum of k copies of m
            k_r, k_rb = np.divmod(counts, side)
            return self.shape(kind, k_rb * mass, k_r * mass)[:, run]
        base, values = table
        return values[(counts + base).astype(np.intp)][:, run].astype(float, copy=False)

    def _count_path(self, i, kind, batch):
        """Quantifier ``i``'s count table (``_counter``), kept in the plan once
        built; else None.  Building one costs about two shape passes, so it
        is built where it pays: on a plan's later evaluations, or at a batch
        of a full chunk."""
        if i not in self.tables and (self.reused or batch >= self.chunk):
            self.tables[i] = self._counter(i, kind)
        return self.tables.get(i)

    def _counter(self, i, kind):
        """One-mass quantifier ``i``'s count table, or None for a custom shape
        or a table over the bytes of ``CHUNK_CELLS`` floats: f_Q at k_rb * m
        over k_r * m at c * side**2 + k_r * side + k_rb for the c-th distinct
        group mass m, a truth table for a precise kind, built in blocks of
        ``CHUNK_CELLS`` cells; and each group's offset, its mass's c * side**2."""
        side, (mass, cls) = self.counting[i][0], np.unique(self.groups[i][4], return_inverse=True)
        cells, precise = len(mass) * side * side, is_precise(kind)
        # a custom shape may leave gaps in [0, 1]: it may only see the
        # ratios that are reached, not every count pair
        if not isinstance(kind, QuantifierKind) or cells * (1 if precise else 8) > 8 * CHUNK_CELLS:
            return None
        values = np.empty(cells, bool if precise else float)
        for a in range(0, cells, CHUNK_CELLS):
            c, k = np.divmod(np.arange(a, min(a + CHUNK_CELLS, cells)), side * side)
            values[a:a + len(c)] = self.shape(kind, k % side * mass[c], k // side * mass[c])
        return cls * side * side, values

    def group_sums(self, i, r, b):
        """Per batch row and group of quantifier ``i``, the correctly rounded
        sums of ``mass * r * b`` and ``mass * r`` by ``math.fsum``, where
        ``_quantify`` cannot count: several masses, or a core not crisp."""
        order, starts, sizes, _, _ = self.groups[i]
        terms = self.mass[order] * r[:, order]
        return _fsum_runs(terms * b[:, order], starts, sizes), _fsum_runs(terms, starts, sizes)

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
        # at a vague root E[f >= theta] = f, as at a precise one
        if pos is None or pos == len(self.order) - 1:
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
    return float(core.values(core.leaves())[0])


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
    count, cap = len(core.vague), limits.vague_node_cap
    if count > cap:
        nodes = "node exceeds" if count == 1 else "nodes exceed"
        raise ExplosionGuard(f"{count} vague quantifier {nodes} the cap of {cap}",
                             count=count, cap=cap)


def _enumerated(core, scheme, cap):
    """Root expectation over every configuration the lift plan enumerates."""
    plan = LiftPlan(core.psi, scheme)
    plan.check(cap)
    reads = core.reads(plan.column)
    terms = []
    for start in range(0, plan.count, core.chunk):
        draws, weights = plan.enumerate(start, min(start + core.chunk, plan.count))
        terms.append(weights * core.expectation(core.leaves(draws, reads)))
    return math.fsum(np.concatenate(terms))


def _unit_sums(units, unit, base, scale):
    """Correctly rounded ``(units * unit + base) / scale`` per entry of the
    integer array ``units``: ``scale`` is a power of two, so rounding the
    numerator (int64 below 2**63, else a Python integer) is the only one."""
    if scale >= 2**63:
        units = units.astype(object)
    return np.asarray((units * unit + base) / scale, dtype=float)


def _counted(core, cap):
    """Root expectation under the independent lift for a ``countable`` core.

    Its rows are independent and each cell is its own coin: row j holds
    restriction and body with probabilities q[j] = (1 - P_r, P_r - P_rb,
    P_rb), where P_r is the product of psi over the predicates applied
    under the restriction and P_rb is P_r times the product over the
    body's other ones; rounding is monotonic, so P_rb <= P_r.  A count
    state (D, N) sums the masses of the rows with fractional cells that
    hold r, and that hold r and b, in units: every mass is an integer over
    the largest denominator (a power of two), and a unit is the gcd of
    those rows' integers, so uniform masses count one unit each.  The
    other rows hold one outcome each and add a fixed integer to both sums.
    A state's sums are then the correctly rounded ones that enumeration
    computes, and a convolution over the rows (Poisson binomial) gives its
    probability, each row moving a state by (0, 0), (u, 0) or (u, u) units
    with q0, q1 and q2.  States are kept at keys D * side + N, on a grid
    where it fits ``COUNT_GRID_CELLS``, which drops those of probability 0,
    else in a map.  A vague root is worth its value f, since E[f >= theta] =
    f; a one-mass root reads f_Q from a count table the plan has built
    (``_Core._count_path``).  The rows come in pixie-name order (the
    sorted ``space.elements``): equal models give equal bits.
    """
    root = core.graph.nodes[core.graph.root]
    psi = core.psi[:, next(iter(core.cells.values()))[1]]  # (predicates, rows)
    fractional = (psi > 0.0) & (psi < 1.0)
    cells = fractional.sum(axis=0).tolist()
    rows = [j for j, c in enumerate(cells) if c]
    mass = core.mass.tolist()
    ratios = [m.as_integer_ratio() for m in mass]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    unit = math.gcd(*(ints[j] for j in rows))
    units = [ints[j] // unit for j in rows]
    side = sum(units) + 1  # 0 <= N <= D <= side - 1
    # The states number at most the pairs 0 <= N <= D < side, and at most
    # the product over mass classes of a class's count pairs: u rows with f
    # fractional cells give at most (u + 1)(u + 2) / 2 and 2^f.  Neither
    # bound exceeds the enumeration.
    classes: dict[float, tuple[int, int]] = {}
    for j in rows:
        u, f = classes.get(mass[j], (0, 0))
        classes[mass[j]] = (u + 1, f + cells[j])
    product = math.prod(min((u + 1) * (u + 2) // 2, 2**f) for u, f in classes.values())
    count = min(product, side * (side + 1) // 2)
    LiftScheme.INDEPENDENT.check(count, "count states", cap)

    restriction, body = core.sides
    held_r = psi[restriction].prod(axis=0)
    held_rb = held_r * psi[body].prod(axis=0)
    q = np.stack([1.0 - held_r, held_r - held_rb, held_rb], axis=1)

    prob = np.ones(1)
    if side * side <= min(COUNT_GRID_CELLS, 2 * count):
        # a grid over the keys D * side + N: a row of u units adds q0, q1
        # and q2 times each state at offsets 0, u * side and u * side + u,
        # onto 0 in that order, as the map's bincount does
        for j, u in zip(rows, units):
            grown = np.zeros(len(prob) + u * side + u)
            np.multiply(prob, q[j, 0], out=grown[:len(prob)])
            grown[u * side:u * side + len(prob)] += q[j, 1] * prob
            grown[u * side + u:] += q[j, 2] * prob
            prob = grown
        keys = np.flatnonzero(prob)  # a state of probability 0 adds nothing
        prob = prob[keys]
    else:  # as sorted keys, exact integers, moved as on the grid
        keys = np.zeros(1, dtype=np.int64 if side * side < 2**63 else object)
        moves = np.array(units, keys.dtype)[:, None] * np.array((0, side, side + 1), keys.dtype)
        for j, shift in zip(rows, moves):
            p = q[j]
            if not p.all():  # a zero term moves nothing
                shift, p = shift[p > 0.0], p[p > 0.0]
            moved = (keys + shift[:, None]).ravel()
            merged = np.sort(moved, kind="stable")  # merges the sorted runs
            keys = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
            prob = np.bincount(keys.searchsorted(moved), (p[:, None] * prob).ravel())

    # a row without fractional cells has one outcome, with q = 1: its
    # integer adds to N's sum where it holds r and b, to D's where it holds r
    base_rb, base_r = (sum(ints[j] for j, c in enumerate(cells) if not c and q[j, k] == held)
                       for k, held in ((2, 1.0), (0, 0.0)))
    i = core.graph.root
    table = core._count_path(i, root.kind, 0) if i in core.counting else None
    if table is None:
        num = _unit_sums(keys % side, unit, base_rb, scale)
        den = _unit_sums(keys // side, unit, base_r, scale)
        return math.fsum(prob * core.shape(root.kind, num, den))
    # one mass m: every row counts one, of integer ints[0], and the table
    # holds f_Q at fl(k_rb * m) over fl(k_r * m), the sums above, at
    # k_r * side + k_rb for the root's side (its one group's offset is 0)
    k_r, k_rb = np.divmod(keys, side)
    at = (k_r + base_r // ints[0]) * core.counting[i][0] + k_rb + base_rb // ints[0]
    return math.fsum(prob * table[1][at])


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
    for name, value in (("samples", samples), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    core = _Core(graph, model, lexicon, generic_empty, crisp=True)
    _check_vague_cap(core, limits)
    plan = LiftPlan(core.psi, scheme)
    reads = core.reads(plan.column)
    rng = np.random.default_rng(seed)
    hits = 0.0
    for start in range(0, samples, core.chunk):
        n = min(core.chunk, samples - start)
        uniforms = rng.random((n, plan.draws + len(core.vague)))
        np.subtract(1.0, uniforms, out=uniforms)
        # the plan's draws come first, then one threshold per vague node
        tables = core.leaves(uniforms, reads)
        hits += float(core.values(tables, uniforms[:, plan.draws:]).sum())
    p_hat = hits / samples
    return EvalResult(
        probability=p_hat,
        engine=MONTE_CARLO,
        ci=_binomial_ci(p_hat, samples),
        samples=int(samples),
        seed=int(seed),
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
