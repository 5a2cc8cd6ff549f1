import random

import pytest

import quantale as q
from quantale import scope
from quantale.errors import CycleDetected, ValidationFailed
from quantale.scope import children, topological_order

from conftest import load_prop, load_world, quant_over_tautology, red_world


def test_free_vars_of_leaves():
    graph = quant_over_tautology("every")
    assert q.free_vars(graph, 0) == frozenset()
    assert q.free_vars(graph, 1) == frozenset({"x"})
    assert q.free_vars(graph, 2) == frozenset()


def test_free_vars_conjunction_union():
    nodes = (
        q.Application("p", "x"),
        q.Application("q", "y"),
        q.Conjunction((0, 1)),
    )
    graph = q.ScopeGraph(nodes, root=2)
    assert q.free_vars(graph, 2) == frozenset({"x", "y"})


def test_free_vars_donkey_dag(donkey_graph):
    by_kind = {}
    for i in [i for i, n in enumerate(donkey_graph.nodes) if isinstance(n, q.Quantifier)]:
        node = donkey_graph.nodes[i]
        by_kind.setdefault((node.kind, node.bound), []).append(
            q.free_vars(donkey_graph, i)
        )
    # the event existentials keep both participants free
    assert frozenset({"x", "z"}) in by_kind[(q.QuantifierKind.SOME, ("y",))]
    # the donkey pronoun's generic leaves the farmer free
    assert by_kind[(q.QuantifierKind.GENERIC, ("z",))] == [frozenset({"x"})]
    # the root universal is closed
    assert by_kind[(q.QuantifierKind.EVERY, ("x",))] == [frozenset()]
    assert q.free_vars(donkey_graph, donkey_graph.root) == frozenset()


def test_topological_order_children_first():
    graph = quant_over_tautology("some")
    order = q.topological_order(graph)
    assert order.index(0) < order.index(2)
    assert order.index(1) < order.index(2)


def test_shared_node_appears_once():
    shared = q.Application("p", "x")
    nodes = (
        shared,
        q.Quantifier(q.QuantifierKind.SOME, ("x",), 0, 0),
    )
    graph = q.ScopeGraph(nodes, root=1)
    assert q.topological_order(graph) == [0, 1]


def test_cycle_detection():
    nodes = (
        q.Conjunction((1,)),
        q.Conjunction((0,)),
    )
    graph = q.ScopeGraph(nodes, root=0)
    with pytest.raises(CycleDetected):
        q.topological_order(graph)
    model, lexicon = red_world(0.5)
    assert q.validate(graph, model, lexicon) == ["scope graph contains a cycle"]


def test_missing_child_stops_the_walk():
    graph = q.ScopeGraph((q.Tautology(), q.Conjunction((0, 5))), root=1)
    with pytest.raises(CycleDetected, match="missing node 5"):
        q.topological_order(graph)
    model, lexicon = red_world(0.5)
    assert q.validate(graph, model, lexicon) == ["node 1 references missing node 5"]


@pytest.mark.parametrize(
    "nodes, message",
    [
        ((q.Conjunction((1,)), q.Conjunction((0,))), "contains a cycle"),
        ((q.Conjunction((1,)), q.Conjunction((2, 1)), q.Application("p", "x")),
         "contains a cycle"),
        ((q.Conjunction((1,)), q.Conjunction((2, 7)), q.Application("p", "x")),
         "missing node 7"),
        ((q.Conjunction((1,)), q.Conjunction((-1,))), "missing node -1"),
    ],
)
def test_every_traversal_of_a_broken_graph_raises(nodes, message):
    graph = q.ScopeGraph(nodes, root=0)
    for walk in (q.topological_order, q.ScopeGraph.reachable, lambda g: q.free_vars(g, 0)):
        with pytest.raises(CycleDetected, match=message):
            walk(graph)


def random_dag(rng):
    """A scope graph whose nodes may be shared or unreachable, with the
    indices shuffled so that a child may come after its parent."""
    nodes = []
    for _ in range(rng.randint(1, 25)):
        made = len(nodes)
        pick = rng.random()
        if made == 0 or pick < 0.2:
            nodes.append(q.Tautology() if pick < 0.05
                         else q.Application("p", rng.choice("xyz")))
        elif pick < 0.5:
            nodes.append(q.Conjunction(tuple(rng.randrange(made)
                                             for _ in range(rng.randint(1, 3)))))
        else:
            bound = tuple(rng.sample("xyz", rng.randint(1, 2)))
            nodes.append(q.Quantifier(q.QuantifierKind.SOME, bound,
                                      rng.randrange(made), rng.randrange(made)))
    index = list(range(len(nodes)))
    rng.shuffle(index)
    moved = [None] * len(nodes)
    for i, n in enumerate(nodes):
        if isinstance(n, q.Conjunction):
            n = q.Conjunction(tuple(index[c] for c in n.children))
        elif isinstance(n, q.Quantifier):
            n = q.Quantifier(n.kind, n.bound, index[n.restriction], index[n.body])
        moved[index[i]] = n
    return q.ScopeGraph(tuple(moved), root=index[rng.randrange(len(nodes))])


def reference_order(graph, i, seen):
    if i in seen:
        return []
    seen.add(i)
    order = [j for c in children(graph.nodes[i]) for j in reference_order(graph, c, seen)]
    return order + [i]


def reference_free(graph, i, cache):
    if i not in cache:
        n = graph.nodes[i]
        free = set()
        if isinstance(n, q.Application):
            free = {n.variable}
        elif isinstance(n, q.Conjunction):
            free = set().union(*(reference_free(graph, c, cache) for c in n.children))
        elif isinstance(n, q.Quantifier):
            free = (reference_free(graph, n.restriction, cache)
                    | reference_free(graph, n.body, cache)) - set(n.bound)
        cache[i] = free
    return cache[i]


@pytest.mark.parametrize("seed", range(40))
def test_the_walks_agree_with_a_recursive_reference(seed):
    rng = random.Random(seed)
    graph = random_dag(rng)
    order = q.topological_order(graph)
    assert order == reference_order(graph, graph.root, set())
    assert len(set(order)) == len(order)
    assert all(order.index(c) < order.index(i) for i in order for c in children(graph.nodes[i]))
    assert graph.reachable() == set(order)
    memo, expected = {}, {}
    calls = list(range(len(graph.nodes)))
    rng.shuffle(calls)
    for i in calls:
        assert q.free_vars(graph, i, memo) == reference_free(graph, i, expected)
        assert q.free_vars(graph, i) == expected[i]
    assert memo == expected


def test_validate_clean_graph():
    model, lexicon = red_world(0.5)
    assert q.validate(quant_over_tautology("every"), model, lexicon) == []


def test_validate_open_root():
    model, lexicon = red_world(0.5)
    graph = q.ScopeGraph((q.Application("red", "x"),), root=0)
    assert q.validate(graph, model, lexicon) == ["root has free variables {x}"]


def test_validate_unknown_names():
    model, lexicon = red_world(0.5)
    nodes = (
        q.Tautology(),
        q.Application("blue", "w"),
        q.Quantifier(q.QuantifierKind.SOME, ("w",), 0, 1),
    )
    graph = q.ScopeGraph(nodes, root=2)
    diagnostics = q.validate(graph, model, lexicon)
    assert any("unknown predicate 'blue'" in d for d in diagnostics)
    assert any("unknown variable 'w'" in d for d in diagnostics)


def test_validate_empty_conjunction():
    model, lexicon = red_world(0.5)
    nodes = (
        q.Conjunction(()),
        q.Tautology(),
        q.Quantifier(q.QuantifierKind.SOME, ("x",), 1, 0),
    )
    graph = q.ScopeGraph(nodes, root=2)
    assert any("empty conjunction" in d for d in q.validate(graph, model, lexicon))


def test_validate_duplicate_bound():
    model, lexicon = red_world(0.5)
    nodes = (
        q.Tautology(),
        q.Application("red", "x"),
        q.Quantifier(q.QuantifierKind.SOME, ("x", "x"), 0, 1),
    )
    graph = q.ScopeGraph(nodes, root=2)
    assert any(
        "duplicate bound variables" in d for d in q.validate(graph, model, lexicon)
    )


def test_validate_lists_every_fault_in_node_order():
    # every fault that does not end validation, in one graph; the two
    # worlds know different names, so the name checks fail on different nodes
    nodes = (
        q.Application("red", "x"),
        q.Application("blue", "y"),
        q.Conjunction(()),
        q.Quantifier(q.QuantifierKind.SOME, (), 0, 2),
        q.Quantifier(q.QuantifierKind.EVERY, ("x", "x"), 1, 3),
        q.Quantifier(q.QuantifierKind.MANY, ("z",), 4, 0),
    )
    graph = q.ScopeGraph(nodes, root=5)

    def world(variables, predicate):
        model = q.SituationModel(q.PixieSpace(("p",)), variables, ((("p",) * len(variables), 1.0),))
        return model, q.VagueLexicon({predicate: q.VaguePredicate(predicate, {"p": 0.5})})

    assert q.validate(graph, *world(("x",), "red")) == [
        "unknown predicate 'blue' at node 1",
        "unknown variable 'y' at node 1",
        "empty conjunction at node 2",
        "quantifier at node 3 binds no variables",
        "duplicate bound variables at node 4",
        "unknown variable 'z' bound at node 5",
        "root has free variables {x, y}",
    ]
    assert q.validate(graph, *world(("y", "z"), "blue")) == [
        "unknown predicate 'red' at node 0",
        "unknown variable 'x' at node 0",
        "empty conjunction at node 2",
        "quantifier at node 3 binds no variables",
        "duplicate bound variables at node 4",
        "unknown variable 'x' bound at node 4",
        "root has free variables {x, y}",
    ]
    with pytest.raises(ValidationFailed) as caught:
        q.eval_exact(graph, *world(("x",), "red"))
    assert caught.value.diagnostics == q.validate(graph, *world(("x",), "red"))


def test_rebinding_a_variable_is_legal(donkey_graph, fixtures_dir):
    # z is bound by both the existential and the generic
    binders = [
        i
        for i, n in enumerate(donkey_graph.nodes)
        if isinstance(n, q.Quantifier) and "z" in n.bound
    ]
    assert len(binders) == 2
    model, lexicon = load_world("donkey_half.world.json")
    assert q.validate(donkey_graph, model, lexicon) == []


def test_validate_returns_not_raises():
    model, lexicon = red_world(0.5)
    graph = q.ScopeGraph((q.Conjunction((5,)),), root=0)
    diagnostics = q.validate(graph, model, lexicon)
    assert diagnostics == ["node 0 references missing node 5"]


def test_validate_names_a_root_out_of_range():
    model, lexicon = red_world(0.5)
    graph = q.ScopeGraph((q.Application("red", "x"),), root=5)
    assert q.validate(graph, model, lexicon) == ["root index 5 out of range"]


def test_a_deep_graph_built_in_code_evaluates():
    # every (x) true over 1500 one-child conjunctions above (red x): the
    # walks keep their own stacks, so depth needs no recursion
    model, lexicon = load_world("red.world.json")
    nodes = [q.Tautology(), q.Application("red", "x")]
    for _ in range(1500):
        nodes.append(q.Conjunction((len(nodes) - 1,)))
    nodes.append(q.Quantifier(q.QuantifierKind.EVERY, ("x",), 0, len(nodes) - 1))
    graph = q.ScopeGraph(tuple(nodes), root=len(nodes) - 1)
    assert q.topological_order(graph) == list(range(len(nodes)))
    assert graph.reachable() == set(range(len(nodes)))
    assert q.free_vars(graph, len(nodes) - 2) == frozenset({"x"})
    flat = q.parse_prop("(every (x) true (red x))")
    assert q.eval_exact(graph, model, lexicon) == q.eval_exact(flat, model, lexicon)


def test_the_graph_is_walked_once_and_names_are_checked_per_call(monkeypatch):
    walks = []
    monkeypatch.setattr(scope, "topological_order",
                        lambda graph: walks.append(graph) or topological_order(graph))
    graph = quant_over_tautology("every")
    model, lexicon = red_world(0.5)
    for _ in range(3):
        q.eval_exact(graph, model, lexicon)
        assert q.validate(graph, model, lexicon) == []
    assert walks == [graph]
    other = q.VagueLexicon({"blue": q.VaguePredicate("blue", {"x1": 1.0})})
    assert q.validate(graph, model, other) == ["unknown predicate 'red' at node 1"]
    assert walks == [graph]


def test_free_vars_with_a_shared_memo_expands_each_node_once(monkeypatch):
    # one call per node, bottom up or top down, as the benchmark's cell
    # count makes them: linear in the graph, not quadratic
    nodes = [q.Application("red", "x")]
    for _ in range(300):
        nodes.append(q.Conjunction((len(nodes) - 1, 0)))
    graph = q.ScopeGraph(tuple(nodes), root=len(nodes) - 1)
    for calls in (range(len(nodes)), reversed(range(len(nodes)))):
        expanded = []
        monkeypatch.setattr(scope, "children",
                            lambda n: expanded.append(n) or children(n))
        memo = {}
        assert all(q.free_vars(graph, i, memo) == {"x"} for i in calls)
        assert len(expanded) == len(nodes)
