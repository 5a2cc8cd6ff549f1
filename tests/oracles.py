"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written in a different style from the
package: explicit set cardinalities over enumerated assignments, direct
weighted sums, no code shared with the engine.  Random worlds built by
``random_classical_case`` use product-uniform joints whose cell masses
are negative powers of two, so float arithmetic in both the oracle and
the engine is exact and comparisons can demand equality.
"""

import itertools
from fractions import Fraction

import quantale as q

PRECISE_ORACLE_KINDS = ("some", "every", "no", "most")
PREDICATE_NAMES = ("P", "Q", "R")


# --- classical set-cardinality oracle -----------------------------------------

def classical_value(graph, domains, truth, node, env):
    """Boolean truth of a scope-tree node under a variable environment.

    Quantifiers enumerate their bound variables over per-variable
    domains and compare restriction/body cardinalities per the textbook
    conditions.  Assumes a tree (each node evaluated per environment)
    and all-precise predicates given as bool tables.
    """
    n = graph.nodes[node]
    if isinstance(n, q.Tautology):
        return True
    if isinstance(n, q.Application):
        return truth[n.predicate][env[n.variable]]
    if isinstance(n, q.Conjunction):
        return all(
            classical_value(graph, domains, truth, c, env) for c in n.children
        )
    r = 0
    rb = 0
    for combo in itertools.product(*(domains[v] for v in n.bound)):
        inner = dict(env)
        inner.update(zip(n.bound, combo))
        if classical_value(graph, domains, truth, n.restriction, inner):
            r += 1
            if classical_value(graph, domains, truth, n.body, inner):
                rb += 1
    kind = n.kind.value
    if kind == "some":
        return rb > 0
    if kind == "every":
        return rb == r
    if kind == "no":
        return rb == 0
    if kind == "most":
        return 2 * rb > r
    raise ValueError(f"oracle does not handle kind {kind!r}")


def classical_root(graph, domains, truth):
    return classical_value(graph, domains, truth, graph.root, {})


# --- randomized all-precise worlds with product-uniform joints ----------------

def random_classical_case(rng):
    """World, lexicon, scope tree, and oracle inputs for one trial.

    Pixie counts and per-variable domain sizes are powers of two, the
    joint is uniform over the product of the domains, and predicates are
    crisp, so the engine's mass ratios equal the oracle's count ratios
    exactly in floats.
    """
    n_pix = rng.choice([1, 2, 4])
    pixies = tuple(f"p{i}" for i in range(n_pix))
    variables = tuple("xyz"[: rng.randint(1, 3)])
    domains = {}
    for v in variables:
        size = rng.choice([s for s in (1, 2, 4) if s <= n_pix])
        domains[v] = tuple(sorted(rng.sample(pixies, size)))
    cells = list(itertools.product(*(domains[v] for v in variables)))
    mass = 1.0 / len(cells)
    model = q.SituationModel(
        q.PixieSpace(pixies), variables, tuple((c, mass) for c in cells)
    )
    truth = {}
    predicates = {}
    for name in PREDICATE_NAMES:
        table = {pix: rng.random() < 0.5 for pix in pixies}
        truth[name] = table
        predicates[name] = q.VaguePredicate(
            name, {pix: 1.0 for pix, held in table.items() if held}
        )
    lexicon = q.VagueLexicon(predicates)
    graph = random_tree(rng, variables)
    return model, lexicon, graph, domains, truth


def random_tree(rng, variables, max_depth=2):
    """Random closed scope tree, nesting depth at most ``max_depth``."""
    nodes = []

    def add(node):
        nodes.append(node)
        return len(nodes) - 1

    def application(visible):
        return add(
            q.Application(rng.choice(PREDICATE_NAMES), rng.choice(sorted(visible)))
        )

    def subformula(visible, depth):
        roll = rng.random()
        if depth < max_depth and roll < 0.4:
            return quantifier(visible, depth)
        if not visible:
            return add(q.Tautology())
        if roll < 0.8:
            return application(visible)
        width = rng.randint(1, 3)
        return add(q.Conjunction(tuple(application(visible) for _ in range(width))))

    def quantifier(visible, depth):
        var = rng.choice(variables)
        kind = q.QuantifierKind(rng.choice(PRECISE_ORACLE_KINDS))
        inner = visible | {var}
        restriction = subformula(inner, depth + 1)
        body = subformula(inner, depth + 1)
        return add(q.Quantifier(kind, (var,), restriction, body))

    root = quantifier(frozenset(), 0)
    return q.ScopeGraph(tuple(nodes), root)


# --- vague single-generic worlds ----------------------------------------------

def random_generic_case(rng):
    """World with vague predicates plus a closed single-Generic graph.

    Returns (model, lexicon, graph, expected) where expected is the
    conditional probability sum(P * psi_R * psi_B) / sum(P * psi_R)
    computed directly from the tables.
    """
    n_pix = rng.randint(1, 4)
    pixies = tuple(f"p{i}" for i in range(n_pix))
    variables = tuple("xy"[: rng.randint(1, 2)])
    cells = list(itertools.product(pixies, repeat=len(variables)))
    weights = [rng.random() + 0.05 for _ in cells]
    total = sum(weights)
    model = q.SituationModel(
        q.PixieSpace(pixies),
        variables,
        tuple((c, w / total) for c, w in zip(cells, weights)),
    )
    tables = {
        name: {pix: rng.random() for pix in pixies} for name in ("restr", "body")
    }
    # keep the restriction bounded away from zero mass
    tables["restr"][pixies[0]] = max(tables["restr"][pixies[0]], 0.25)
    lexicon = q.VagueLexicon(
        {name: q.VaguePredicate(name, table) for name, table in tables.items()}
    )
    rvar = variables[0]
    bvar = variables[-1]
    nodes = (
        q.Application("restr", rvar),
        q.Application("body", bvar),
        q.Quantifier(q.QuantifierKind.GENERIC, variables, 0, 1),
    )
    graph = q.ScopeGraph(nodes, root=2)

    def psi(name, var, cell):
        return tables[name][cell[variables.index(var)]]

    num = sum(
        mass * psi("restr", rvar, cell) * psi("body", bvar, cell)
        for cell, mass in model.joint
    )
    den = sum(mass * psi("restr", rvar, cell) for cell, mass in model.joint)
    return model, lexicon, graph, num / den


# --- vague exact-semantics oracle ----------------------------------------------
#
# Brute force in exact rational arithmetic: precise lexicons are explicit
# bit tables, every node is evaluated per variable environment by direct
# recursion, and each vague quantifier node's threshold is integrated by
# evaluating at the midpoint of every region cut by that node's attained
# values.  Thresholds are keyed by node index, so a node shared by two
# parents sees one draw while textual duplicates see independent draws.

ORACLE_KINDS = ("some", "every", "no", "most", "many", "few", "generic")
VAGUE_ORACLE_KINDS = ("many", "few", "generic")
ORACLE_EMPTY = {
    "some": 0, "every": 1, "no": 1, "most": 0, "many": 0, "few": 1, "generic": 1,
}


def _oracle_shape(kind, ratio):
    if kind == "some":
        return Fraction(1 if ratio > 0 else 0)
    if kind == "every":
        return Fraction(1 if ratio == 1 else 0)
    if kind == "no":
        return Fraction(1 if ratio == 0 else 0)
    if kind == "most":
        return Fraction(1 if ratio > Fraction(1, 2) else 0)
    if kind == "few":
        return 1 - ratio
    return ratio  # many, generic


def _children_of(n):
    if isinstance(n, q.Conjunction):
        return list(n.children)
    if isinstance(n, q.Quantifier):
        return [n.restriction, n.body]
    return []


def _oracle_free(graph, i, memo):
    if i not in memo:
        n = graph.nodes[i]
        if isinstance(n, q.Application):
            memo[i] = frozenset({n.variable})
        elif isinstance(n, q.Quantifier):
            below = _oracle_free(graph, n.restriction, memo) | _oracle_free(graph, n.body, memo)
            memo[i] = below - set(n.bound)
        else:
            memo[i] = frozenset().union(*(_oracle_free(graph, c, memo) for c in _children_of(n)))
    return memo[i]


def _bit_tables(lexicon, space, scheme):
    """Every precise lexicon of the lift as (weight, {pred: {pixie: bool}})."""
    per_predicate = []
    for name, pred in sorted(lexicon.predicates.items()):
        psi = {px: Fraction(pred.psi(px)) for px in space}
        if scheme is q.LiftScheme.INDEPENDENT:
            options = [(Fraction(1), {})]
            for px in space:
                p = psi[px]
                grown = []
                for weight, table in options:
                    for bit, w in ((True, p), (False, 1 - p)):
                        if w:
                            grown.append((weight * w, {**table, px: bit}))
                options = grown
        else:
            cuts = sorted({v for v in psi.values() if 0 < v < 1})
            bounds = [Fraction(0)] + cuts + [Fraction(1)]
            options = [
                (hi - lo, {px: psi[px] >= (lo + hi) / 2 for px in space})
                for lo, hi in zip(bounds, bounds[1:])
            ]
        per_predicate.append((name, options))
    for combo in itertools.product(*(opts for _, opts in per_predicate)):
        weight = Fraction(1)
        truth = {}
        for (name, _), (w, table) in zip(per_predicate, combo):
            weight *= w
            truth[name] = table
        yield weight, truth


def vague_exact_value(graph, model, lexicon, scheme, generic_empty=1):
    """Exact probability of the root under the lifted threshold semantics;
    a generic quantifier over an empty restriction is ``generic_empty``."""
    empty = {**ORACLE_EMPTY, "generic": Fraction(generic_empty)}
    space = model.space.elements
    variables = model.variables
    rows = [(dict(zip(variables, a)), Fraction(m)) for a, m in model.joint if m > 0]
    memo_free = {}
    free = {i: sorted(_oracle_free(graph, i, memo_free)) for i in range(len(graph.nodes))}
    vague_order = []

    def post(i, seen):
        if i in seen:
            return
        seen.add(i)
        for c in _children_of(graph.nodes[i]):
            post(c, seen)
        n = graph.nodes[i]
        if isinstance(n, q.Quantifier) and n.kind.value in VAGUE_ORACLE_KINDS:
            vague_order.append(i)

    post(graph.root, set())

    def raw(i, env, truth, thetas, cache):
        """Node value before a vague node's own threshold is applied."""
        key = (i, tuple(env[v] for v in free[i]))
        if key in cache:
            return cache[key]
        n = graph.nodes[i]
        if isinstance(n, q.Tautology):
            value = Fraction(1)
        elif isinstance(n, q.Application):
            value = Fraction(1 if truth[n.predicate][env[n.variable]] else 0)
        elif isinstance(n, q.Conjunction):
            value = Fraction(1)
            for c in n.children:
                value *= held(c, env, truth, thetas, cache)
        else:
            num = den = Fraction(0)
            for row, mass in rows:
                if any(row[v] != env[v] for v in free[i]):
                    continue
                inner = dict(env)
                inner.update({v: row[v] for v in n.bound})
                r = held(n.restriction, inner, truth, thetas, cache)
                den += mass * r
                num += mass * r * held(n.body, inner, truth, thetas, cache)
            kind = n.kind.value
            value = Fraction(empty[kind]) if den == 0 else _oracle_shape(kind, num / den)
        cache[key] = value
        return value

    def held(i, env, truth, thetas, cache):
        value = raw(i, env, truth, thetas, cache)
        if i in thetas:
            return Fraction(1 if value >= thetas[i] else 0)
        return value

    def integrate(truth, thetas, pending):
        if not pending:
            return held(graph.root, {}, truth, thetas, {})
        i, rest = pending[0], pending[1:]
        cache = {}
        attained = {raw(i, row, truth, thetas, cache) for row, _ in rows}
        cuts = sorted(v for v in attained if 0 < v < 1)
        bounds = [Fraction(0)] + cuts + [Fraction(1)]
        return sum(
            (hi - lo) * integrate(truth, {**thetas, i: (lo + hi) / 2}, rest)
            for lo, hi in zip(bounds, bounds[1:])
        )

    return sum(
        weight * integrate(truth, {}, vague_order)
        for weight, truth in _bit_tables(lexicon, space, scheme)
    )


def random_vague_dag(rng, variables, max_vague=3):
    """Random closed scope DAG mixing precise and vague quantifiers.

    Returns (shared, duplicated): in ``shared`` some subformulas are
    reused by several parents; ``duplicated`` is the same formula with
    a node reached by several parents copied once per parent, so each
    copy of a vague quantifier gets its own threshold.
    """
    nodes = []
    fvs = []  # free variables per node
    vague = [0]

    def add(node, fv):
        nodes.append(node)
        fvs.append(fv)
        return len(nodes) - 1

    def subformula(visible, depth):
        roll = rng.random()
        reusable = [i for i, fv in enumerate(fvs) if fv <= visible]
        if reusable and roll < 0.3:
            shared = [i for i in reusable if isinstance(nodes[i], q.Quantifier)]
            return rng.choice(shared or reusable)
        if depth < 2 and roll < 0.6:
            return quantifier(visible, depth)
        if not visible:
            return add(q.Tautology(), frozenset())
        var = rng.choice(sorted(visible))
        leaf = add(q.Application(rng.choice(("P", "Q")), var), frozenset({var}))
        if roll < 0.85:
            return leaf
        other = rng.choice(sorted(visible))
        second = add(q.Application(rng.choice(("P", "Q")), other), frozenset({other}))
        return add(q.Conjunction((leaf, second)), frozenset({var, other}))

    def quantifier(visible, depth):
        var = rng.choice(variables)
        kind = rng.choice(ORACLE_KINDS if vague[0] < max_vague else PRECISE_ORACLE_KINDS)
        vague[0] += kind in VAGUE_ORACLE_KINDS
        restriction = subformula(visible | {var}, depth + 1)
        body = subformula(visible | {var}, depth + 1)
        fv = (fvs[restriction] | fvs[body]) - {var}
        return add(q.Quantifier(q.QuantifierKind(kind), (var,), restriction, body), fv)

    root = quantifier(frozenset(), 0)
    shared = q.ScopeGraph(tuple(nodes), root)
    return shared, _unshare(shared)


def _unshare(graph):
    nodes = []

    def copy(i):
        n = graph.nodes[i]
        if isinstance(n, q.Conjunction):
            n = q.Conjunction(tuple(copy(c) for c in n.children))
        elif isinstance(n, q.Quantifier):
            n = q.Quantifier(n.kind, n.bound, copy(n.restriction), copy(n.body))
        nodes.append(n)
        return len(nodes) - 1

    root = copy(graph.root)
    return q.ScopeGraph(tuple(nodes), root)


def vague_node_count(graph):
    return sum(
        1
        for i in graph.reachable()
        if isinstance(graph.nodes[i], q.Quantifier)
        and graph.nodes[i].kind.value in VAGUE_ORACLE_KINDS
    )


def random_dyadic_world(rng, variables):
    """Small world with dyadic joint masses and dyadic vague predicates."""
    n_pix = rng.choice([2, 3])
    pixies = tuple(f"p{i}" for i in range(n_pix))
    cells = list(itertools.product(pixies, repeat=len(variables)))
    rng.shuffle(cells)
    # split mass 1 into dyadic pieces over a random subset of the cells
    masses = [Fraction(1)]
    pieces = min(len(cells), rng.randint(1, 5))
    while len(masses) < pieces:
        k = max(range(len(masses)), key=lambda j: masses[j])
        half = masses.pop(k) / 2
        masses += [half, half]
    joint = tuple((c, float(m)) for c, m in zip(cells, masses))
    model = q.SituationModel(q.PixieSpace(pixies), variables, joint)
    values = (0.0, 0.25, 0.5, 0.75, 1.0)
    fractional_left = [5]
    predicates = {}
    for name in ("P", "Q"):
        table = {}
        for px in pixies:
            v = rng.choice(values)
            if 0.0 < v < 1.0:
                if not fractional_left[0]:
                    v = float(v > 0.5)
                fractional_left[0] -= 1
            if v:
                table[px] = v
        predicates[name] = q.VaguePredicate(name, table)
    return model, q.VagueLexicon(predicates)


# --- one root quantifier over one variable ------------------------------------

def random_countable_case(rng, kind):
    """World and graph ``(kind (x) R B)``: every application reads x and no
    other quantifier is reached, so each pixie's cells are read by one row.

    R is ``true``, an application or a conjunction, B an application or a
    conjunction, over predicates P, Q and R that the two may share.  The
    joint may carry an unread variable y, and its x-marginal masses are
    uniform, dyadic splits (some pixies without mass), two classes m and
    2m, or all distinct.  Returns (model, lexicon, graph, dyadic), where
    ``dyadic`` means every mass and psi value is a dyadic rational with
    few bits, so the engine's sums and products of them are exact.
    """
    n_pix = rng.randint(1, 6)
    pixies = tuple(f"p{i}" for i in range(n_pix))
    mode = rng.choice(("uniform", "dyadic", "two-class", "distinct"))
    if mode == "uniform":
        masses = [1 / n_pix] * n_pix
    elif mode == "dyadic":
        masses = [1.0]
        while len(masses) < n_pix and rng.random() < 0.8:
            half = masses.pop(rng.randrange(len(masses))) / 2
            masses += [half, half]
        masses += [0.0] * (n_pix - len(masses))
        rng.shuffle(masses)
    else:
        weights = [rng.choice((1, 2)) if mode == "two-class" else rng.random() + 0.05
                   for _ in pixies]
        masses = [w / sum(weights) for w in weights]
    values = rng.choice(((0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.1, 0.3, 1 / 3, 0.7, 1.0)))
    dyadic = values[1] == 0.25 and (mode == "dyadic" or n_pix in (1, 2, 4))
    if n_pix > 1 and rng.random() < 0.5:
        variables = ("x", "y")  # y splits each pixie's mass over two rows
        joint = tuple(((px, py), m / 2) for px, m in zip(pixies, masses)
                      for py in pixies[:2])
    else:
        variables = ("x",)
        joint = tuple(((px,), m) for px, m in zip(pixies, masses))
    model = q.SituationModel(q.PixieSpace(pixies), variables, joint)
    fractional_left = 6  # keeps the oracle's enumeration small
    predicates = {}
    for name in PREDICATE_NAMES:
        table = {}
        for px in pixies:
            v = rng.choice(values)
            if 0.0 < v < 1.0:
                if not fractional_left:
                    v = float(v > 0.5)
                fractional_left -= 0.0 < v < 1.0
            table[px] = v
        predicates[name] = q.VaguePredicate(name, table)

    nodes = []

    def add(node):
        nodes.append(node)
        return len(nodes) - 1

    def formula(allow_true):
        roll = rng.random()
        if allow_true and roll < 0.25:
            return add(q.Tautology())
        if roll < 0.6:
            return add(q.Application(rng.choice(PREDICATE_NAMES), "x"))
        names = rng.sample(PREDICATE_NAMES, rng.randint(2, 3))
        return add(q.Conjunction(tuple(add(q.Application(n, "x")) for n in names)))

    restriction = formula(True)
    body = formula(False)
    root = add(q.Quantifier(q.QuantifierKind(kind), ("x",), restriction, body))
    return model, q.VagueLexicon(predicates), q.ScopeGraph(tuple(nodes), root), dyadic
