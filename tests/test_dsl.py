import math
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import quantale as q
from quantale import dsl
from quantale.errors import DslParseError

from conftest import FIXTURES, load_prop, load_world


def diagnostics_of(fn, *args):
    with pytest.raises(DslParseError) as err:
        fn(*args)
    return err.value.diagnostics


# --- worlds --------------------------------------------------------------------

def test_parse_world_red(fixtures_dir):
    model, lexicon = load_world("red.world.json")
    assert model.variables == ("x",)
    assert lexicon.psi("red", "x1") == 0.7


def test_world_round_trip_is_fixpoint(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.world.json")):
        text = path.read_text()
        model, lexicon = q.parse_world(text)
        assert q.serialize_world(model, lexicon) == text, path.name


def test_world_serialization_is_order_insensitive():
    model = q.SituationModel(
        q.PixieSpace(("b", "a")),
        ("y", "x"),
        ((("b", "a"), 0.25), (("a", "b"), 0.75)),
    )
    relabeled = q.SituationModel(
        q.PixieSpace(("a", "b")),
        ("x", "y"),
        ((("b", "a"), 0.75), (("a", "b"), 0.25)),
    )
    lexicon = q.VagueLexicon({"p": q.VaguePredicate("p", {"a": 1.0})})
    assert q.serialize_world(model, lexicon) == q.serialize_world(relabeled, lexicon)


def test_world_bad_mass_has_position():
    text = """{
  "pixies": ["a"],
  "variables": ["x"],
  "joint": [{"assign": {"x": "a"}, "prob": 0.5}],
  "predicates": {}
}"""
    diags = diagnostics_of(q.parse_world, text)
    assert any("joint mass 0.5" in d.message for d in diags)
    assert all(d.severity == "error" for d in diags)


def test_world_unknown_pixie_position():
    text = """{
  "pixies": ["a"],
  "variables": ["x"],
  "joint": [{"assign": {"x": "ghost"}, "prob": 1.0}],
  "predicates": {}
}"""
    (diag,) = [
        d for d in diagnostics_of(q.parse_world, text) if "ghost" in d.message
    ]
    assert diag.line == 4
    assert "ghost" in diag.snippet


def test_world_probability_out_of_range():
    text = """{
  "pixies": ["a"],
  "variables": ["x"],
  "joint": [{"assign": {"x": "a"}, "prob": 1.0}],
  "predicates": {"red": {"a": 1.5}}
}"""
    diags = diagnostics_of(q.parse_world, text)
    assert any("1.5" in d.message and "outside" in d.message for d in diags)


def test_world_rejects_unknown_keys():
    text = '{"pixies": ["a"], "variables": [], "joint": [], "predicates": {}, "extra": 1}'
    diags = diagnostics_of(q.parse_world, text)
    assert any("unknown key 'extra'" in d.message for d in diags)


def test_world_collects_multiple_diagnostics():
    text = """{
  "pixies": ["a"],
  "variables": ["x"],
  "joint": [{"assign": {"x": "a"}, "prob": -0.5}],
  "predicates": {"p": {"nope": 0.5}}
}"""
    diags = diagnostics_of(q.parse_world, text)
    assert any("negative" in d.message for d in diags)
    assert any("unknown pixie 'nope'" in d.message for d in diags)
    assert len(diags) >= 2


def test_world_malformed_json_fails_fast():
    diags = diagnostics_of(q.parse_world, '{"pixies": [')
    assert diags[-1].severity == "error"


BS = "\\"  # one backslash, kept out of the JSON texts below for legibility

MALFORMED_JSON = [
    # (case, text, message, line, column)
    ("expected-value", '{"pixies": ,}', "expected a JSON value", 1, 12),
    ("empty", "", "expected a JSON value", 1, 1),
    ("malformed-number", '{\n  "pixies": [-x]\n}', "malformed number", 2, 14),
    ("unterminated-string", '{"pixies": ["a', "unterminated string", 1, 15),
    ("unterminated-after-unicode-escape", '{"pixies": ["' + BS + "u0041",
     "unterminated string", 1, 20),
    ("bad-escape", '{"pixies": ["' + BS + 'q"]}', "bad escape " + BS + "q", 1, 15),
    ("dangling-backslash", '{"pixies": ["a' + BS, "bad escape " + BS, 1, 16),
    ("bad-unicode-escape", '{"pixies": ["' + BS + "u12", "bad unicode escape", 1, 15),
    ("duplicate-key", '{"pixies": [],\n "pixies": []}', "duplicate key 'pixies'", 2, 10),
    ("expected-object-key", '{"pixies": [], }', "expected object key", 1, 16),
    ("expected-colon", '{"pixies" []}', "expected ':'", 1, 11),
    ("expected-comma-or-brace", '{"pixies": []\n  "variables": []}',
     "expected ',' or '}'", 2, 3),
    ("expected-comma-or-bracket", '{"pixies": ["a" "b"]}', "expected ',' or ']'", 1, 17),
    ("newline-in-string", '{"pixies": ["a\nb" "c"]}', "expected ',' or ']'", 2, 4),
    ("trailing-content", "{}\n  {}", "trailing content after JSON document", 2, 3),
    ("crlf-trailing-comma", '{\r\n  "pixies": [\r\n    "a",\r\n  ]\r\n}',
     "expected a JSON value", 4, 3),
    ("crlf-duplicate-key", '{\r\n  "pixies": [],\r\n  "pixies": []\r\n}',
     "duplicate key 'pixies'", 3, 11),
]


@pytest.mark.parametrize(
    "text, message, line, column",
    [row[1:] for row in MALFORMED_JSON],
    ids=[row[0] for row in MALFORMED_JSON],
)
def test_malformed_json_diagnostics(text, message, line, column):
    (diag,) = diagnostics_of(q.parse_world, text)
    assert (diag.message, diag.line, diag.column) == (message, line, column)
    assert "\r" not in diag.snippet


def _world(pixies='["a"]', variables='["x"]', joint='[{"assign": {"x": "a"}, "prob": 1}]',
           predicates='{"p": {"a": 0.5}}'):
    """A world text with one key per line, pixies on line 2."""
    return (f'{{\n  "pixies": {pixies},\n  "variables": {variables},\n'
            f'  "joint": {joint},\n  "predicates": {predicates}\n}}')


INVALID_WORLDS = [
    # (case, text, [(message, line, column), ...])
    ("missing-key", '{\n  "pixies": ["a"],\n  "variables": ["x"],\n  "joint": []\n}',
     [("missing key 'predicates'", 1, 1)]),
    ("duplicate-pixie", _world(pixies='["a", "a"]'), [("duplicate pixie 'a'", 2, 19)]),
    ("empty-pixies", _world(pixies="[]"), [("pixie space must be non-empty", 2, 13)]),
    ("duplicate-variable", _world(variables='["x", "x"]'),
     [("duplicate variable 'x'", 3, 22)]),
    ("joint-entry-not-object", _world(joint="[1]"), [("joint entry must be a object", 4, 13)]),
    ("assign-not-object", _world(joint='[{"assign": [], "prob": 1}]'),
     [("'assign' must be a object", 4, 24)]),
    ("prob-not-number", _world(joint='[{"assign": {"x": "a"}, "prob": "1"}]'),
     [("'prob' must be a number", 4, 44)]),
    ("unknown-variable", _world(joint='[{"assign": {"x": "a", "z": "a"}, "prob": 1}]'),
     [("unknown variable 'z' in assignment", 4, 35)]),
    ("assigned-pixie-not-string", _world(joint='[{"assign": {"x": 1}, "prob": 1}]'),
     [("assigned pixie must be a string", 4, 30),
      ("assignment missing variables ['x']", 4, 13)]),
    ("duplicate-assignment",
     _world(joint='[{"assign": {"x": "a"}, "prob": 0.5}, {"assign": {"x": "a"}, "prob": 0.5}]'),
     [("duplicate assignment ('a',)", 4, 50)]),
    ("predicate-not-object", _world(predicates='{"p": [0.5]}'),
     [("predicate 'p' must be a object", 5, 23)]),
    ("predicate-probability-not-number", _world(predicates='{"p": {"a": "0.5"}}'),
     [("predicate probability must be a number", 5, 29)]),
    ("true", _world(joint='[{"assign": {"x": "a"}, "prob": true}]'),
     [("'prob' must be a number", 4, 44)]),
    ("false", _world(predicates='{"p": {"a": false}}'),
     [("predicate probability must be a number", 5, 29)]),
    ("null", _world(pixies="[null]"), [("pixie must be a string", 2, 14)]),
]


@pytest.mark.parametrize(
    "text, expected",
    [row[1:] for row in INVALID_WORLDS],
    ids=[row[0] for row in INVALID_WORLDS],
)
def test_invalid_world_diagnostics(text, expected):
    diags = diagnostics_of(q.parse_world, text)
    assert [(d.message, d.line, d.column) for d in diags] == expected


def test_snippet_lines_break_only_at_newlines():
    # a form feed inside a string is not a line break for either the
    # position or the snippet
    text = '{"pixies": ["a\fb"],\n "variables": 1, "joint": [], "predicates": {}}'
    (diag,) = diagnostics_of(q.parse_world, text)
    assert (diag.message, diag.line, diag.column) == ("'variables' must be a array", 2, 15)
    assert diag.snippet == ' "variables": 1, "joint": [], "predicates": {}}'


def test_non_hex_unicode_escape_is_a_diagnostic():
    (diag,) = diagnostics_of(q.parse_world, '{"pixies": [\n  "' + BS + 'uZZZZ"]}')
    assert (diag.message, diag.line, diag.column) == ("bad unicode escape", 2, 5)


def test_escaped_surrogate_pair_is_one_character():
    text = ('{"pixies": ["' + BS + "ud83d" + BS + 'ude00"], "variables": [],'
            ' "joint": [{"assign": {}, "prob": 1.0}], "predicates": {}}')
    model, _ = q.parse_world(text)
    assert model.space.elements == ("\U0001F600",)


def test_json_digits_are_ascii():
    # float() would read the Arabic-Indic three as 3; JSON digits are 0-9
    (diag,) = diagnostics_of(q.parse_world, '{"pixies": [1\u0663]}')
    assert (diag.message, diag.line, diag.column) == ("expected ',' or ']'", 1, 14)


def test_nesting_inside_an_otherwise_valid_world():
    # the C scanner accepts 101 levels; the schema refuses the unknown key and
    # the positioned reader then reports the depth, before the schema issue
    deep = "[" * 100 + "]" * 100
    text = _world(predicates=f'{{"p": {{"a": 0.5}}}},\n  "deep": {deep}')
    dsl._DECODER.decode(text)
    (diag,) = diagnostics_of(q.parse_world, text)
    assert (diag.message, diag.line, diag.column) == (
        f"nesting deeper than {dsl.MAX_NESTING} levels", 6, 110)


# --- the C scanner against the positioned reader --------------------------------

FIXTURE_JSON = [p.read_text() for p in sorted(FIXTURES.glob("*.json"))]
_KEY = re.compile(r'"(?:[^"\\]|\\.)*"\s*:')
_SCALAR = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d[\d.eE+-]*|true|false|null')
_VALUES = ["1", "0", "-0", "1.5", "-1", "2", "1e400", "-1e400", "1E2", '"s"', '"inf"', "true",
           "false", "null", "[]", "{}", "[1]", '{"a": 1}', "NaN", "Infinity", "-Infinity",
           "1\u0663", "\u0663"]


def _truncate(draw, text):
    return text[:draw(st.integers(0, len(text)))]


def _duplicate_key(draw, text):
    # a second member with the same key just before a key, at any depth
    keys = list(_KEY.finditer(text))
    if not keys:
        return text
    m = draw(st.sampled_from(keys))
    return text[:m.start()] + m.group() + " 0, " + text[m.start():]


def _swap_value(draw, text):
    scalars = list(_SCALAR.finditer(text))
    if not scalars:
        return text
    m = draw(st.sampled_from(scalars))
    return text[:m.start()] + draw(st.sampled_from(_VALUES)) + text[m.end():]


def _integer_probabilities(draw, text):
    return re.sub(r"(\d)\.0\b", r"\1", text)


def _control_character(draw, text):
    quotes = [k for k, ch in enumerate(text) if ch == '"'] or [0]
    k = draw(st.sampled_from(quotes)) + 1
    return text[:k] + draw(st.sampled_from("\x00\x01\x1f\x7f\t\n")) + text[k:]


def _bom(draw, text):
    return "\ufeff" + text


def _nest(draw, text):
    depth = draw(st.sampled_from([99, 100, 101, 150, 1200]))
    k = text.find("{") + 1
    return text[:k] + f'"deep": {"[" * depth}{"]" * depth}, ' + text[k:]


@st.composite
def mutated_json(draw):
    text = draw(st.sampled_from(FIXTURE_JSON))
    mutations = [_truncate, _duplicate_key, _swap_value, _integer_probabilities,
                 _control_character, _bom, _nest]
    for mutate in draw(st.lists(st.sampled_from(mutations), min_size=1, max_size=3)):
        text = mutate(draw, text)
    return text


class _ReaderOnly:
    """Refuses every text in place of the C scanner, so that each one is
    read by the positioned reader."""

    @staticmethod
    def decode(text):
        raise ValueError("refused")


def _outcome(parse, *args):
    try:
        return "ok", repr(parse(*args))
    except DslParseError as exc:
        return "error", [(d.message, d.line, d.column, d.snippet) for d in exc.diagnostics]


@settings(max_examples=300, deadline=None)
@given(mutated_json())
def test_c_scanner_and_positioned_reader_agree(text):
    try:
        scanned = "ok", repr(dsl._DECODER.decode(text))
    except (ValueError, RecursionError):
        scanned = "error", None
    try:
        read = "ok", repr(dsl._JsonReader(text).parse())
    except DslParseError as exc:
        read = "error", exc.diagnostics[0].message
    # only the depth limit is the reader's own
    if read[1] != f"nesting deeper than {dsl.MAX_NESTING} levels":
        assert scanned[0] == read[0] and (read[0] == "error" or scanned == read)
    for parse, args in ((q.parse_world, (text,)), (q.parse_scenario, (text, FIXTURES))):
        fast = _outcome(parse, *args)
        with mock.patch.object(dsl, "_DECODER", _ReaderOnly):
            assert _outcome(parse, *args) == fast


# --- propositions --------------------------------------------------------------

def test_parse_prop_simple():
    graph = q.parse_prop("(every (x) true (red x))")
    root = graph.nodes[graph.root]
    assert isinstance(root, q.Quantifier)
    assert root.kind is q.QuantifierKind.EVERY
    assert root.bound == ("x",)
    assert isinstance(graph.nodes[root.restriction], q.Tautology)
    assert graph.nodes[root.body] == q.Application("red", "x")


def test_parse_prop_a_is_some():
    graph = q.parse_prop("(a (x) true (red x))")
    assert graph.nodes[graph.root].kind is q.QuantifierKind.SOME


def test_parse_prop_comments_and_whitespace():
    text = "; leading comment\n(some (x) true ; inline\n  (red x))\n"
    graph = q.parse_prop(text)
    assert graph.nodes[graph.root].kind is q.QuantifierKind.SOME
    # every character that str.isspace() accepts separates tokens
    for space in ("\f", "\v", "\u00a0"):
        assert q.parse_prop(text.replace(" ", space)) == graph, repr(space)


def test_parse_prop_multi_bound():
    graph = q.parse_prop("(generic (x y) (r x) (b y))")
    assert graph.nodes[graph.root].bound == ("x", "y")


def test_parse_prop_let_shares_nodes():
    graph = q.parse_prop("(let (g (red x)) (and #g #g))")
    root = graph.nodes[graph.root]
    assert root.children[0] == root.children[1]
    assert graph.aliases["g"] == root.children[0]


def test_parse_prop_unshared_duplicates_are_distinct_nodes():
    graph = q.parse_prop("(and (red x) (red x))")
    a, b = graph.nodes[graph.root].children
    assert a != b
    assert graph.nodes[a] == graph.nodes[b]


def test_parse_prop_errors():
    for text, fragment in [
        ("", "empty proposition"),
        ("(every (x) true)", "needs bound variables"),
        ("(every () true (red x))", "binds no variables"),
        ("(and)", "at least one child"),
        ("#nope", "unknown reference"),
        ("(red x) extra", "trailing content"),
        ("(some (x x) true (red x))", "duplicate bound variable"),
        ("(red x y)", "exactly one variable"),
        ("(some (x) (let (g true) #g) (red x))", "only allowed at the top level"),
        ("(some (x) true (red x)", "unclosed"),
    ]:
        diags = diagnostics_of(q.parse_prop, text)
        assert any(fragment in d.message for d in diags), (text, diags)


INVALID_PROPS = [
    # (case, text, message, line, column)
    ("unexpected-close", "\n  ) (red x)", "unexpected ')'", 2, 3),
    ("expected-expression", "(some (x)\n  foo (red x))", "expected an expression, got 'foo'",
     2, 3),
    ("empty-expression", "(some (x) () (red x))", "empty expression", 1, 11),
    ("expected-keyword", "((red x) x)", "expected a keyword or predicate name", 1, 1),
    ("expected-variable-list", "(some x true (red x))", "expected a (variable ...) list", 1, 7),
    ("reserved-variable-name", "(some (true) true (red x))", "expected a variable name", 1, 8),
    ("list-as-variable-name", "(some ((x)) true (red x))", "expected a variable name", 1, 8),
    ("true-heads-application", "(some (x) (true x) (red x))",
     "'true' cannot head an application", 1, 12),
    ("let-without-expression", "(let)", "'let' needs a final expression", 1, 2),
]


@pytest.mark.parametrize(
    "text, message, line, column",
    [row[1:] for row in INVALID_PROPS],
    ids=[row[0] for row in INVALID_PROPS],
)
def test_invalid_prop_diagnostics(text, message, line, column):
    (diag,) = diagnostics_of(q.parse_prop, text)
    assert (diag.message, diag.line, diag.column) == (message, line, column)


def test_parse_prop_error_position():
    diags = diagnostics_of(q.parse_prop, "(and (red x)\n  #ghost)")
    assert diags[0].line == 2
    assert diags[0].column == 3


def test_nesting_limit():
    # 100 levels of arrays, lists or graph nodes parse; one more is refused
    # at the bracket or expression that opens it
    message = f"nesting deeper than {dsl.MAX_NESTING} levels"
    assert dsl.MAX_NESTING == 100
    (diag,) = diagnostics_of(q.parse_world, "[" * 100 + "]" * 100)
    assert diag.message == "world document must be a object"
    (diag,) = diagnostics_of(q.parse_world, "[" * 101 + "]" * 101)
    assert (diag.message, diag.line, diag.column) == (message, 1, 101)

    def nested(ands):
        return "(every (x) true\n" + "(and " * ands + "(red x)" + ")" * (ands + 1)

    assert len(q.parse_prop(nested(98)).nodes) == 101
    (diag,) = diagnostics_of(q.parse_prop, nested(99))
    assert (diag.message, diag.line, diag.column) == (message, 2, 496)

    def chain(links):
        # each binding is one node deeper than the last, the text is not
        binds = " ".join(f"(a{k} (and #a{k - 1}))" for k in range(1, links + 1))
        return f"(let (a0 (red x)) {binds}\n  (every (x) true #a{links}))"

    assert len(q.parse_prop(chain(98)).nodes) == 101
    (diag,) = diagnostics_of(q.parse_prop, chain(99))
    assert (diag.message, diag.line, diag.column) == (message, 2, 4)


def test_serialize_prop_round_trip_fixtures(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.prop")):
        graph = q.parse_prop(path.read_text())
        text = q.serialize_prop(graph)
        assert q.serialize_prop(q.parse_prop(text)) == text, path.name


def test_serialize_prop_keeps_alias_names():
    graph = q.parse_prop("(let (rc (red x)) (and #rc #rc))")
    assert q.serialize_prop(graph) == "(let (rc (red x)) (and #rc #rc))\n"


def test_serialize_prop_names_anonymous_shared_nodes():
    shared = q.Application("red", "x")
    graph = q.ScopeGraph((shared, q.Conjunction((0, 0))), root=1)
    assert q.serialize_prop(graph) == "(let (n0 (red x)) (and #n0 #n0))\n"


def _every_over_chain(links):
    """``(every (x) true ...)`` over ``links`` chained one-child
    conjunctions above ``(red x)``, built in code."""
    nodes = [q.Tautology(), q.Application("red", "x")]
    for _ in range(links):
        nodes.append(q.Conjunction((len(nodes) - 1,)))
    nodes.append(q.Quantifier(q.QuantifierKind.EVERY, ("x",), 0, len(nodes) - 1))
    return q.ScopeGraph(tuple(nodes), root=len(nodes) - 1)


def test_serialize_prop_of_a_deep_graph_built_in_code():
    # each node's text is built from its children's, without recursion
    model, lexicon = load_world("red.world.json")
    graph = _every_over_chain(1500)
    assert q.eval_exact(graph, model, lexicon).probability == 0.7
    text = q.serialize_prop(graph)
    assert text == "(every (x) true " + "(and " * 1500 + "(red x)" + ")" * 1501 + "\n"


def test_serialize_prop_round_trips_the_deepest_chains():
    # 99 and 100 nodes from the root down to (red x); parse_prop takes 100
    for links in (97, 98):
        graph = _every_over_chain(links)
        text = q.serialize_prop(graph)
        assert q.parse_prop(text) == graph
        assert q.serialize_prop(q.parse_prop(text)) == text


def test_serialized_prop_preserves_semantics(fixtures_dir, donkey_graph):
    model, lexicon = load_world("donkey_half.world.json")
    text = q.serialize_prop(donkey_graph)
    reparsed = q.parse_prop(text)
    assert (
        q.eval_exact(reparsed, model, lexicon).probability
        == q.eval_exact(donkey_graph, model, lexicon).probability
    )


# --- scenarios -----------------------------------------------------------------

def test_parse_scenario_prevalence(fixtures_dir):
    scenario = q.parse_scenario(
        (fixtures_dir / "prevalence.scenario.json").read_text(), base_dir=fixtures_dir
    )
    assert [s.id for s in scenario.states] == ["zero", "half"]
    assert [u.id for u in scenario.utterances] == ["generic", "silence"]
    assert math.isinf(scenario.alpha)
    assert scenario.engine == "exact"
    assert isinstance(
        scenario.utterances[1].graph.nodes[scenario.utterances[1].graph.root],
        q.Tautology,
    )


def test_parse_scenario_finite_alpha(fixtures_dir):
    scenario = q.parse_scenario(
        (fixtures_dir / "donkey.scenario.json").read_text(), base_dir=fixtures_dir
    )
    assert scenario.alpha == 1.0
    assert len(scenario.states) == 3


def test_scenario_missing_world(tmp_path):
    text = """{
  "states": [{"id": "s", "prior": 1.0, "world": "missing.world.json"}],
  "utterances": [{"id": "u", "prop": "true"}]
}"""
    diags = diagnostics_of(q.parse_scenario, text, tmp_path)
    assert any("world file not found" in d.message for d in diags)


def test_scenario_bad_priors(tmp_path):
    world = FIXTURES / "red.world.json"
    (tmp_path / "red.world.json").write_text(world.read_text())
    text = """{
  "states": [{"id": "s", "prior": 0.5, "world": "red.world.json"}],
  "utterances": [{"id": "u", "prop": "true"}]
}"""
    diags = diagnostics_of(q.parse_scenario, text, tmp_path)
    assert any("priors sum to 0.5" in d.message for d in diags)


def test_scenario_cross_validation_names_both_sides(tmp_path):
    (tmp_path / "red.world.json").write_text((FIXTURES / "red.world.json").read_text())
    text = """{
  "states": [{"id": "s", "prior": 1.0, "world": "red.world.json"}],
  "utterances": [{"id": "u", "prop": "(some (x) true (blue x))"}]
}"""
    diags = diagnostics_of(q.parse_scenario, text, tmp_path)
    assert any(
        "utterance 'u' invalid in state 's'" in d.message
        and "unknown predicate 'blue'" in d.message
        for d in diags
    )


def test_scenario_validates_once_per_utterance_and_vocabulary(tmp_path, monkeypatch):
    red = (FIXTURES / "red.world.json").read_text()
    (tmp_path / "red.world.json").write_text(red)
    (tmp_path / "red2.world.json").write_text(red.replace("0.7", "0.5"))
    (tmp_path / "dog.world.json").write_text((FIXTURES / "dog_barks.world.json").read_text())
    text = """{
  "states": [{"id": "a", "prior": 0.25, "world": "red.world.json"},
             {"id": "d", "prior": 0.25, "world": "dog.world.json"},
             {"id": "b", "prior": 0.5, "world": "red2.world.json"}],
  "utterances": [{"id": "u", "prop": "(some (x) true (blue x))"},
                 {"id": "v", "prop": "true"}]
}"""
    calls = []
    validate = dsl.validate
    monkeypatch.setattr(dsl, "validate", lambda *args: calls.append(args) or validate(*args))
    diags = diagnostics_of(q.parse_scenario, text, tmp_path)
    assert [(d.message, d.line, d.column) for d in diags] == [
        (f"utterance 'u' invalid in state {s!r}: unknown predicate 'blue' at node 1", 1, 1)
        for s in ("a", "d", "b")]
    assert len(calls) == 4  # (u, red), (u, dog), (v, red), (v, dog)


def test_scenario_bad_alpha(tmp_path):
    (tmp_path / "red.world.json").write_text((FIXTURES / "red.world.json").read_text())
    text = """{
  "states": [{"id": "s", "prior": 1.0, "world": "red.world.json"}],
  "utterances": [{"id": "u", "prop": "true"}],
  "alpha": -2
}"""
    diags = diagnostics_of(q.parse_scenario, text, tmp_path)
    assert any("alpha must be a positive number" in d.message for d in diags)


@pytest.mark.parametrize("engine", ["mc", "exactt"])
def test_scenario_rejects_engines_rsa_cannot_use(tmp_path, engine):
    (tmp_path / "red.world.json").write_text((FIXTURES / "red.world.json").read_text())
    text = f"""{{
  "states": [{{"id": "s", "prior": 1.0, "world": "red.world.json"}}],
  "utterances": [{{"id": "u", "prop": "true"}}],
  "engine": "{engine}"
}}"""
    diags = diagnostics_of(q.parse_scenario, text, tmp_path)
    assert any(f"unknown engine {engine!r}" in d.message for d in diags)


@pytest.mark.parametrize(
    "cost, message",
    [
        ("1e400", "cost must be finite"),
        ("-1e400", "cost must be a non-negative number"),
        ("-1", "cost must be a non-negative number"),
        ('"1"', "cost must be a non-negative number"),
    ],
    ids=["inf", "minus-inf", "negative", "string"],
)
def test_scenario_costs_must_be_finite_and_non_negative(tmp_path, cost, message):
    (tmp_path / "red.world.json").write_text((FIXTURES / "red.world.json").read_text())
    text = f"""{{
  "states": [{{"id": "s", "prior": 1.0, "world": "red.world.json"}}],
  "utterances": [{{"id": "u", "prop": "true", "cost": {cost}}}],
  "alpha": 2
}}"""
    (diag,) = diagnostics_of(q.parse_scenario, text, tmp_path)
    assert (diag.message, diag.line, diag.column) == (message, 3, 54)


def test_scenario_duplicate_ids_are_one_diagnostic_at_the_document(tmp_path):
    (tmp_path / "red.world.json").write_text((FIXTURES / "red.world.json").read_text())
    text = """{
  "states": [{"id": "s", "prior": 1.0, "world": "red.world.json"}],
  "utterances": [{"id": "u", "prop": "true"}, {"id": "u", "prop": "true"}]
}"""
    (diag,) = diagnostics_of(q.parse_scenario, text, tmp_path)
    assert (diag.message, diag.line, diag.column) == ("duplicate utterance ids", 1, 1)


@pytest.mark.parametrize(
    "state, utterance, top, message, line, column",
    [
        ('"id": 7, "prior": 1.0, "world": "red.world.json"', '"id": "u", "prop": "true"', "",
         "'id' must be a string", 2, 21),
        ('"id": "s", "prior": 1.0, "world": 3', '"id": "u", "prop": "true"', "",
         "'world' must be a string", 2, 49),
        ('"id": "s", "prior": 1.0, "world": "red.world.json"', '"id": 7, "prop": "true"', "",
         "'id' must be a string", 3, 25),
        ('"id": "s", "prior": 1.0, "world": "red.world.json"', '"id": "u", "prop": 5', "",
         "'prop' must be a string", 3, 38),
        ('"id": "s", "prior": 1.0, "world": "red.world.json"', '"id": "u", "prop": "true"',
         ',\n  "engine": [1]', "'engine' must be a string", 4, 13),
        ('"id": "s", "prior": 1.0, "world": "red.world.json", "scheme": {"a": 1}',
         '"id": "u", "prop": "true"', "", "'scheme' must be a string", 2, 77),
    ],
    ids=["state-id", "world", "utterance-id", "prop", "engine", "scheme"],
)
def test_scenario_ids_worlds_and_props_must_be_strings(tmp_path, state, utterance, top,
                                                       message, line, column):
    (tmp_path / "red.world.json").write_text((FIXTURES / "red.world.json").read_text())
    text = f'{{\n  "states": [{{{state}}}],\n  "utterances": [{{{utterance}}}]{top}\n}}'
    (diag,) = diagnostics_of(q.parse_scenario, text, tmp_path)
    assert (diag.message, diag.line, diag.column) == (message, line, column)
