"""Scope trees and scope DAGs.

Non-terminal nodes are quantifiers with a restriction (left child) and a
body (right child); leaves are predicate applications, conjunctions, or
the tautology.  Sharing a node between parents (via a named alias) is
semantically meaningful: a shared vague quantifier node carries a single
threshold random variable, whereas textual duplicates draw independent
thresholds.  Binding the same variable in two different quantifiers is
legal and turns the tree into a DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CycleDetected, ValidationFailed
from .quant import QuantifierKind, ShapeSpec


@dataclass(frozen=True)
class Tautology:
    pass


@dataclass(frozen=True)
class Application:
    predicate: str
    variable: str


@dataclass(frozen=True)
class Conjunction:
    children: tuple[int, ...]


@dataclass(frozen=True)
class Quantifier:
    kind: QuantifierKind | ShapeSpec
    bound: tuple[str, ...]
    restriction: int
    body: int


ScopeNode = Tautology | Application | Conjunction | Quantifier


def children(node: ScopeNode) -> tuple[int, ...]:
    if isinstance(node, Conjunction):
        return node.children
    if isinstance(node, Quantifier):
        return (node.restriction, node.body)
    return ()


@dataclass(frozen=True)
class ScopeGraph:
    """Indexed nodes with a root; aliases name shared nodes."""

    nodes: tuple[ScopeNode, ...]
    root: int
    aliases: dict[str, int] = field(default_factory=dict)

    def quantifier_nodes(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if isinstance(n, Quantifier)]

    def reachable(self) -> set[int]:
        seen = set()
        stack = [self.root]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            stack.extend(children(self.nodes[i]))
        return seen


def free_vars(graph: ScopeGraph, node: int, _memo: dict | None = None) -> frozenset[str]:
    """Free variables of a node.

    Leaves mention their own variables; a conjunction takes the union of
    its children; a quantifier takes the union of restriction and body
    minus its bound variables.  Stable under node sharing.
    """
    memo = _memo if _memo is not None else {}
    if node in memo:
        return memo[node]
    memo[node] = frozenset()  # cycle guard; validated separately
    n = graph.nodes[node]
    if isinstance(n, Tautology):
        result = frozenset()
    elif isinstance(n, Application):
        result = frozenset({n.variable})
    elif isinstance(n, Conjunction):
        result = frozenset().union(
            *(free_vars(graph, c, memo) for c in n.children)
        )
    else:
        below = free_vars(graph, n.restriction, memo) | free_vars(graph, n.body, memo)
        result = below - set(n.bound)
    memo[node] = result
    return result


def topological_order(graph: ScopeGraph) -> list[int]:
    """Reachable nodes ordered children-first; deterministic.

    Raises CycleDetected if the reachable subgraph is cyclic or refers to
    a missing node.
    """
    order: list[int] = []
    placed: dict[int, bool] = {}  # False while on the walk's path

    def visit(i):
        if i in placed:
            if not placed[i]:
                raise CycleDetected("scope graph contains a cycle")
            return
        placed[i] = False
        for c in children(graph.nodes[i]):
            if not 0 <= c < len(graph.nodes):
                raise CycleDetected("scope graph contains a cycle")
            visit(c)
        placed[i] = True
        order.append(i)

    visit(graph.root)
    return order


def validate(graph: ScopeGraph, model, lexicon) -> list[str]:
    """Well-formedness diagnostics; an empty list means the graph is ok.

    Reports cycles, open roots, unknown predicates and variables, and
    empty conjunctions.  Diagnostics are returned, never thrown.
    """
    try:
        validated_order(graph, model, lexicon)
    except ValidationFailed as exc:
        return exc.diagnostics
    return []


def validated_order(graph: ScopeGraph, model, lexicon, memo: dict | None = None) -> list[int]:
    """``topological_order`` of a graph that ``validate`` accepts, from the
    same walk; raises ValidationFailed with the diagnostics otherwise.

    The free variables of every reachable node are left in ``memo``, the
    ``free_vars`` memo, when one is given."""
    diagnostics: list[str] = []
    for i, n in enumerate(graph.nodes):
        for c in children(n):
            if not 0 <= c < len(graph.nodes):
                diagnostics.append(f"node {i} references missing node {c}")
    if not 0 <= graph.root < len(graph.nodes):
        diagnostics.append(f"root index {graph.root} out of range")
    if diagnostics:
        raise ValidationFailed(diagnostics)
    try:
        order = topological_order(graph)
    except CycleDetected as exc:
        raise ValidationFailed([str(exc)]) from None

    for i in sorted(order):
        n = graph.nodes[i]
        if isinstance(n, Application):
            if n.predicate not in lexicon:
                diagnostics.append(f"unknown predicate {n.predicate!r} at node {i}")
            if n.variable not in model.variables:
                diagnostics.append(f"unknown variable {n.variable!r} at node {i}")
        elif isinstance(n, Conjunction):
            if not n.children:
                diagnostics.append(f"empty conjunction at node {i}")
        elif isinstance(n, Quantifier):
            if not n.bound:
                diagnostics.append(f"quantifier at node {i} binds no variables")
            if len(set(n.bound)) != len(n.bound):
                diagnostics.append(f"duplicate bound variables at node {i}")
            for v in n.bound:
                if v not in model.variables:
                    diagnostics.append(f"unknown variable {v!r} bound at node {i}")
    open_vars = free_vars(graph, graph.root, memo)
    if open_vars:
        listing = ", ".join(sorted(open_vars))
        diagnostics.append(f"root has free variables {{{listing}}}")
    if diagnostics:
        raise ValidationFailed(diagnostics)
    return order
