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
from functools import cached_property

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

    def __post_init__(self):  # kept as a tuple: engines key plans on nodes
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Quantifier:
    kind: QuantifierKind | ShapeSpec
    bound: tuple[str, ...]
    restriction: int
    body: int

    def __post_init__(self):  # kept as a tuple: engines key plans on nodes
        object.__setattr__(self, "bound", tuple(self.bound))


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

    def reachable(self) -> set[int]:
        """Nodes reachable from the root; raises like ``topological_order``."""
        return set(_walk(self.nodes, self.root))

    @cached_property
    def _analysis(self) -> tuple:
        """The part of validation that reads only the graph, done once:
        (diagnostics that end it before the checks, the topological order,
        the free variables of every reachable node, and the checks in node
        order, the open root last).  A check is (message, where its name
        must be known: "predicates", "variables", or None where it fails in
        any world, name).  The nodes are frozen and the aliases are not
        read, so it holds unless ``nodes`` is a list that changes later."""
        diagnostics = [f"node {i} references missing node {c}"
                       for i, n in enumerate(self.nodes) for c in children(n)
                       if not 0 <= c < len(self.nodes)]
        if not 0 <= self.root < len(self.nodes):
            diagnostics.append(f"root index {self.root} out of range")
        if diagnostics:
            return diagnostics, None, None, []
        try:
            order = topological_order(self)
        except CycleDetected as exc:
            return [str(exc)], None, None, []
        free: dict[int, frozenset[str]] = {}
        for i in order:
            free[i] = _free(self.nodes[i], free)
        checks = []
        for i in sorted(order):
            n = self.nodes[i]
            if isinstance(n, Application):
                for kind, name in (("predicate", n.predicate), ("variable", n.variable)):
                    checks.append((f"unknown {kind} {name!r} at node {i}", kind + "s", name))
            elif isinstance(n, Conjunction) and not n.children:
                checks.append((f"empty conjunction at node {i}", None, None))
            elif isinstance(n, Quantifier):
                if not n.bound:
                    checks.append((f"quantifier at node {i} binds no variables", None, None))
                if len(set(n.bound)) != len(n.bound):
                    checks.append((f"duplicate bound variables at node {i}", None, None))
                checks += [(f"unknown variable {v!r} bound at node {i}", "variables", v)
                           for v in dict.fromkeys(n.bound)]
        if free[self.root]:
            listing = ", ".join(sorted(free[self.root]))
            checks.append((f"root has free variables {{{listing}}}", None, None))
        return [], order, free, checks


def _walk(nodes, root: int, skip=()) -> list[int]:
    """The nodes reachable from ``root`` that are not in ``skip``, children
    first, each once; deterministic.  The walk keeps its own stack, so a
    deep graph needs no recursion.

    Raises CycleDetected on a cycle or on a missing node, naming it.
    """
    order: list[int] = []
    placed: dict[int, bool] = {}  # False while on the walk's path
    stack = [(root, False)]  # (node, children done)
    while stack:
        i, done = stack.pop()
        if done:
            placed[i] = True
            order.append(i)
        elif i in placed:
            if not placed[i]:
                raise CycleDetected("scope graph contains a cycle")
        elif i not in skip:
            if not 0 <= i < len(nodes):
                raise CycleDetected(f"scope graph refers to missing node {i}")
            placed[i] = False
            stack.append((i, True))
            stack.extend((c, False) for c in reversed(children(nodes[i])))
    return order


def _free(node: ScopeNode, memo: dict[int, frozenset[str]]) -> frozenset[str]:
    """Free variables of a node from its children's in ``memo``: a leaf
    mentions its own, a conjunction takes their union, and a quantifier
    the union of restriction and body minus its bound variables."""
    if isinstance(node, Application):
        return frozenset({node.variable})
    if isinstance(node, Conjunction):
        return frozenset().union(*(memo[c] for c in node.children))
    if isinstance(node, Quantifier):
        return (memo[node.restriction] | memo[node.body]) - set(node.bound)
    return frozenset()


def free_vars(graph: ScopeGraph, node: int, _memo: dict | None = None) -> frozenset[str]:
    """Free variables of a node; stable under node sharing.  Calls that
    share ``_memo`` walk no node twice.  Raises like ``topological_order``."""
    memo = _memo if _memo is not None else {}
    for i in _walk(graph.nodes, node, memo):
        memo[i] = _free(graph.nodes[i], memo)
    return memo[node]


def topological_order(graph: ScopeGraph) -> list[int]:
    """Reachable nodes ordered children-first; deterministic.  Raises
    CycleDetected on a cycle, or naming a missing node it refers to."""
    return _walk(graph.nodes, graph.root)


def validate(graph: ScopeGraph, model, lexicon) -> list[str]:
    """Well-formedness diagnostics, returned, never thrown; an empty list
    means the graph is ok.  They are the graph's fatal ones (a cycle or a
    missing node), else its checks (``ScopeGraph._analysis``, made once per
    graph) that fail in any world or whose name the model or lexicon lacks."""
    fatal, _, _, checks = graph._analysis
    if fatal:
        return list(fatal)
    known = {"predicates": lexicon, "variables": model.variables}
    return [message for message, where, name in checks
            if where is None or name not in known[where]]


def validated_order(graph: ScopeGraph, model, lexicon):
    """``topological_order`` of a graph that ``validate`` accepts, and the
    free variables of every reachable node (shared: do not change them);
    raises ValidationFailed with ``validate``'s diagnostics otherwise."""
    diagnostics = validate(graph, model, lexicon)
    if diagnostics:
        raise ValidationFailed(diagnostics)
    _, order, free, _ = graph._analysis
    return order, free
