"""Parsers and serializers for world files, propositions, and scenarios.

World files are JSON; propositions are s-expressions with optional
top-level let-bindings (``#name`` references share nodes, which matters
for threshold identity); scenario files are JSON tying worlds and
utterances together.  All rejections carry source diagnostics with
1-based line/column positions.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from json.decoder import scanstring
from pathlib import Path

from .engine import EXACT
from .errors import DslParseError, InvalidScenario, InvalidWorld
from .model import LiftScheme, PixieSpace, SituationModel, VaguePredicate, VagueLexicon
from .quant import QuantifierKind
from .rsa import RsaScenario, RsaState, RsaUtterance, World
from .scope import (
    Application,
    Conjunction,
    Quantifier,
    ScopeGraph,
    Tautology,
    children,
    topological_order,
    validate,
)


# Input nested deeper than this is refused with a diagnostic: the readers
# below and serialize_prop recurse once or twice per level, and the exact
# engine once per vague quantifier.
MAX_NESTING = 100


@dataclass(frozen=True)
class SourceDiagnostic:
    severity: str
    message: str
    line: int
    column: int
    snippet: str

    def __str__(self):
        return f"{self.severity}: {self.message} (line {self.line}, column {self.column})"


class _Diagnostics:
    """Diagnostics on one source text; only line feeds break it into lines."""

    def __init__(self, text: str):
        self.text = text
        self.newlines = [m.start() for m in re.finditer("\n", text)]

    def where(self, offset: int) -> tuple[int, int]:
        """1-based line and column of a text offset."""
        k = bisect.bisect_left(self.newlines, offset)
        return k + 1, offset - (self.newlines[k - 1] if k else -1)

    def error(self, message: str, line: int, column: int) -> SourceDiagnostic:
        """An error whose snippet is its line without the line break; past
        the end, the last line."""
        last = len(self.newlines) + (not self.text.endswith("\n"))
        k = min(line, max(last, 1)) - 1
        start = self.newlines[k - 1] + 1 if k else 0
        end = self.newlines[k] if k < len(self.newlines) else len(self.text)
        snippet = self.text[start:end].removesuffix("\r")
        return SourceDiagnostic("error", message, line, column, snippet)

    def fail(self, message: str, line: int, column: int):
        raise DslParseError([self.error(message, line, column)])


# --- JSON ----------------------------------------------------------------------
#
# A document is decoded by the standard library's C scanner, set up to accept
# what the positioned reader below accepts, and its schema is checked on the
# plain values.  Each schema issue names a key path, such as ("joint", 3,
# "prob").  Only if the scanner refuses the text or the schema reports an issue
# is the text read again by the positioned reader: its syntax errors come
# first, and it turns each path into a line and column.

def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate key")
    return obj


# Integers are read as floats, and control characters are allowed inside
# strings.  int() refuses NaN, Infinity and -Infinity, the only constants.
_DECODER = json.JSONDecoder(strict=False, parse_int=float, parse_constant=int,
                            object_pairs_hook=_unique_keys)

_WS = re.compile(r"[ \t\r\n]*")
_NUMBER = re.compile(r"-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][+-]?\d+)?", re.ASCII)
_HEX4 = re.compile(r"[0-9a-fA-F]{4}")
_LITERALS = (("true", True), ("false", False), ("null", None))


class _JsonReader:
    """Recursive-descent JSON reader that records where each value and each
    object key starts, by key path.

    Strings are decoded by the standard library's scanner; its errors are
    reported at the offending character.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.diags = _Diagnostics(text)
        self.starts: dict[tuple, int] = {}  # (path, at the key) -> offset

    def _fail(self, message, offset=None):
        self.diags.fail(message, *self.diags.where(self.pos if offset is None else offset))

    def _next(self) -> str:
        """Skip whitespace; the next character, or '' at the end."""
        self.pos = _WS.match(self.text, self.pos).end()
        return self.text[self.pos : self.pos + 1]

    def parse(self):
        value = self._value(())
        if self._next():
            self._fail("trailing content after JSON document")
        return value

    def error(self, message: str, path: tuple, key: bool) -> SourceDiagnostic:
        """An error at the value, or the key, at a path."""
        return self.diags.error(message, *self.diags.where(self.starts[path, key]))

    def _value(self, path):
        ch = self._next()
        self.starts[path, False] = self.pos
        if ch in ("{", "[") and len(path) == MAX_NESTING:
            self._fail(f"nesting deeper than {MAX_NESTING} levels")
        if ch == "{":
            return self._object(path)
        if ch == "[":
            return self._array(path)
        if ch == '"':
            return self._string()
        if ch and (ch.isdigit() or ch == "-"):
            m = _NUMBER.match(self.text, self.pos)
            if not m:
                self._fail("malformed number")
            self.pos = m.end()
            return float(m.group())
        for word, lit in _LITERALS:
            if self.text.startswith(word, self.pos):
                self.pos += len(word)
                return lit
        self._fail("expected a JSON value")

    def _string(self) -> str:
        text = self.text
        try:
            value, self.pos = scanstring(text, self.pos + 1, False)
            return value
        except json.JSONDecodeError as exc:
            at = exc.pos
            if exc.msg.startswith("Invalid \\escape"):
                at += text[at] == "\\"  # the C scanner points at the backslash
                self._fail(f"bad escape \\{text[at]}", at)
            if exc.msg.startswith("Invalid \\u") and not _HEX4.match(text, at + 1):
                self._fail("bad unicode escape", at)
        # the string runs to the end of the text, perhaps inside an escape; the
        # C scanner also calls four hex digits at the very end a bad \u escape
        dangling = (len(text) - len(text.rstrip("\\"))) % 2
        self._fail("bad escape \\" if dangling else "unterminated string", len(text))

    def _more(self, close: str) -> bool:
        """Step past the ',' (True) or the closing bracket (False) after an item."""
        ch = self._next()
        if ch not in (",", close):
            self._fail(f"expected ',' or '{close}'")
        self.pos += 1
        return ch == ","

    def _object(self, path) -> dict:
        self.pos += 1
        entries: dict = {}
        if self._next() == "}":
            self.pos += 1
            return entries
        while True:
            if self._next() != '"':
                self._fail("expected object key")
            start = self.pos
            key = self._string()
            if key in entries:
                self._fail(f"duplicate key {key!r}")
            if self._next() != ":":
                self._fail("expected ':'")
            self.pos += 1
            self.starts[path + (key,), True] = start
            entries[key] = self._value(path + (key,))
            if not self._more("}"):
                return entries

    def _array(self, path) -> list:
        self.pos += 1
        items: list = []
        if self._next() == "]":
            self.pos += 1
            return items
        while True:
            items.append(self._value(path + (len(items),)))
            if not self._more("]"):
                return items


class _Issues(list):
    """Schema diagnostics: (message, key path, at the key rather than its value)."""

    def __call__(self, message: str, path: tuple, key=False) -> bool:
        self.append((message, path, key))
        return False


def _read(text: str, schema, *args):
    """``schema(document, issues, *args)`` of a JSON text if it reports no
    issue; otherwise DslParseError with the first syntax error, or with
    every issue at its line and column."""
    reader = None
    try:
        doc = _DECODER.decode(text)
    except (ValueError, RecursionError):
        reader = _JsonReader(text)
        doc = reader.parse()  # raises the positioned syntax error
    issues = _Issues()
    result = schema(doc, issues, *args)
    if not issues:
        return result
    if reader is None:
        reader = _JsonReader(text)
        reader.parse()  # nesting deeper than MAX_NESTING comes first
    raise DslParseError([reader.error(*issue) for issue in issues])


_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", float: "a number"}


def _expect(issues, value, kind, what: str, path) -> bool:
    return isinstance(value, kind) or issues(f"{what} must be {_TYPE_NAMES[kind]}", path)


def _check_keys(issues, obj: dict, path, required, optional=()) -> bool:
    before = len(issues)
    for key in required:
        if key not in obj:
            issues(f"missing key {key!r}", path)
    for key in obj:
        if key not in required and key not in optional:
            issues(f"unknown key {key!r}", path + (key,), True)
    return len(issues) == before


# --- world files -------------------------------------------------------------

def parse_world(text: str) -> tuple[SituationModel, VagueLexicon]:
    """Parse a world file into a situation model and vague lexicon.

    Raises DslParseError carrying SourceDiagnostic entries on syntax and
    schema errors, and on each ``InvalidWorld`` fault that the model and
    predicates find, at the part of the file it names.
    """
    return _read(text, _world)


def _names(issues, doc: dict, key: str, what: str) -> dict[str, None]:
    """The strings listed under ``key``, as an ordered set; a repeated one
    is an issue."""
    names: dict[str, None] = {}
    if _expect(issues, doc[key], list, f"'{key}'", (key,)):
        for k, item in enumerate(doc[key]):
            if _expect(issues, item, str, what, (key, k)):
                if item in names:
                    issues(f"duplicate {what} {item!r}", (key, k))
                names[item] = None
    return names


def _world(doc, issues):
    if not (_expect(issues, doc, dict, "world document", ())
            and _check_keys(issues, doc, (), ("pixies", "variables", "joint", "predicates"))):
        return None
    pixies = _names(issues, doc, "pixies", "pixie")
    if doc["pixies"] == []:
        issues("pixie space must be non-empty", ("pixies",))
    variables = tuple(_names(issues, doc, "variables", "variable"))
    if issues:
        return None

    joint = {}  # each well-formed row by its index in the file
    mark = len(issues)
    for at, entry in _entries(issues, doc, "joint", "joint entry", ("assign", "prob"),
                              {"assign": dict, "prob": float}):
        assign = entry["assign"]
        for var, pixie in assign.items():
            if var not in variables:
                issues(f"unknown variable {var!r} in assignment", at + ("assign", var), True)
            else:
                _expect(issues, pixie, str, "assigned pixie", at + ("assign", var))
        missing = [v for v in variables if not isinstance(assign.get(v), str)]
        if missing:
            issues(f"assignment missing variables {missing}", at)
        else:
            joint[at[1]] = (tuple(assign[v] for v in variables), entry["prob"])
    whole = len(issues) == mark
    try:
        model = SituationModel(PixieSpace(tuple(pixies)), variables, tuple(joint.values()))
    except InvalidWorld as exc:
        # a fault's index path into the model's joint, such as (k, 0, c) for
        # row k's pixie c, names the same part of the file
        keys = (list(joint), ("assign", "prob"), variables)
        for message, where in exc.faults:
            if where or whole:  # the total of a partial joint says nothing
                issues(message, ("joint", *(key[i] for key, i in zip(keys, where))))
    # a row's faults after the issues it had here, in row order, the total last
    issues[mark:] = sorted(issues[mark:], key=lambda issue: issue[1][1:2] or (math.inf,))

    predicates: dict[str, VaguePredicate] = {}
    if _expect(issues, doc["predicates"], dict, "'predicates'", ("predicates",)):
        for name, entries in doc["predicates"].items():
            if not _expect(issues, entries, dict, f"predicate {name!r}", ("predicates", name)):
                continue
            mark = len(issues)
            table = {}
            for pixie, p in entries.items():
                where = ("predicates", name, pixie)
                if pixie not in pixies:
                    issues(f"unknown pixie {pixie!r}", where, True)
                elif _expect(issues, p, float, "predicate probability", where):
                    table[pixie] = p
            try:
                predicates[name] = VaguePredicate(name, table)
            except InvalidWorld as exc:
                for message, (pixie,) in exc.faults:
                    issues(message, ("predicates", name, pixie))
                rank = {pixie: i for i, pixie in enumerate(entries)}
                issues[mark:] = sorted(issues[mark:], key=lambda issue: rank[issue[1][2]])
    return None if issues else (model, VagueLexicon(predicates))


def serialize_world(model: SituationModel, lexicon: VagueLexicon) -> str:
    """Canonical world text: keys, pixies, and predicates sorted."""
    order = sorted(model.variables)
    joint = [
        (dict(zip(model.variables, assignment)), mass)
        for assignment, mass in model.joint
    ]
    joint.sort(key=lambda row: tuple(row[0][v] for v in order))
    doc = {
        "pixies": list(model.space.elements),
        "variables": sorted(model.variables),
        "joint": [
            {"assign": {v: assign[v] for v in sorted(assign)}, "prob": mass}
            for assign, mass in joint
        ],
        "predicates": {
            name: {p: pred.table[p] for p in sorted(pred.table)}
            for name, pred in sorted(lexicon.predicates.items())
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- proposition s-expressions -----------------------------------------------

_KINDS = {
    "some": QuantifierKind.SOME,
    "a": QuantifierKind.SOME,
    "every": QuantifierKind.EVERY,
    "no": QuantifierKind.NO,
    "most": QuantifierKind.MOST,
    "many": QuantifierKind.MANY,
    "few": QuantifierKind.FEW,
    "generic": QuantifierKind.GENERIC,
}
_RESERVED = set(_KINDS) | {"let", "and", "true"}

# a comment, a parenthesis or an atom; anything else is whitespace
_TOKEN = re.compile(r";[^\n]*|[()]|[^()\s;]+")


@dataclass(frozen=True)
class _Tok:
    kind: str  # "(", ")", "atom"
    text: str
    line: int
    column: int


def _tokenize(text: str, diags: _Diagnostics) -> list[_Tok]:
    return [
        _Tok(tok if tok in "()" else "atom", tok, *diags.where(m.start()))
        for m in _TOKEN.finditer(text)
        if not (tok := m.group()).startswith(";")
    ]


def _read_datum(tokens, pos, diags, depth=0):
    tok = tokens[pos]
    if tok.kind == "atom":
        return tok, pos + 1
    if tok.kind == ")":
        diags.fail("unexpected ')'", tok.line, tok.column)
    if depth == MAX_NESTING:
        diags.fail(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.column)
    items = []
    pos += 1
    while True:
        if pos >= len(tokens):
            diags.fail("unclosed '('", tok.line, tok.column)
        if tokens[pos].kind == ")":
            return (tok, items), pos + 1
        item, pos = _read_datum(tokens, pos, diags, depth + 1)
        items.append(item)


def parse_prop(text: str) -> ScopeGraph:
    """Parse a proposition into a scope graph.

    Let-bindings resolve to shared nodes; free-variable analysis and
    model cross-checks are deferred to scope validation.
    """
    diags = _Diagnostics(text)
    tokens = _tokenize(text, diags)
    if not tokens:
        diags.fail("empty proposition", 1, 1)
    datum, pos = _read_datum(tokens, 0, diags)
    if pos != len(tokens):
        extra = tokens[pos]
        diags.fail("trailing content after proposition", extra.line, extra.column)

    nodes: list = []
    depth: list[int] = []  # per node, the most nodes on a path down to a leaf
    aliases: dict[str, int] = {}

    def add(node, tok) -> int:
        # let-bindings nest the graph deeper than the text
        level = 1 + max((depth[c] for c in children(node)), default=0)
        if level > MAX_NESTING:
            diags.fail(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.column)
        nodes.append(node)
        depth.append(level)
        return len(nodes) - 1

    def build(d) -> int:
        if isinstance(d, _Tok):
            if d.text == "true":
                return add(Tautology(), d)
            if d.text.startswith("#"):
                name = d.text[1:]
                if name not in aliases:
                    diags.fail(f"unknown reference #{name}", d.line, d.column)
                return aliases[name]
            diags.fail(f"expected an expression, got {d.text!r}", d.line, d.column)
        head_tok, items = d
        if not items:
            diags.fail("empty expression", head_tok.line, head_tok.column)
        head = items[0]
        if not isinstance(head, _Tok):
            diags.fail("expected a keyword or predicate name", head_tok.line, head_tok.column)
        if head.text in _KINDS:
            if len(items) != 4:
                diags.fail(
                    f"quantifier {head.text!r} needs bound variables, a restriction, "
                    f"and a body",
                    head.line,
                    head.column,
                )
            vars_d = items[1]
            if isinstance(vars_d, _Tok):
                diags.fail("expected a (variable ...) list", vars_d.line, vars_d.column)
            vtok, vitems = vars_d
            bound = []
            for v in vitems:
                if not isinstance(v, _Tok) or v.text in _RESERVED or v.text.startswith("#"):
                    loc = v if isinstance(v, _Tok) else v[0]
                    diags.fail("expected a variable name", loc.line, loc.column)
                if v.text in bound:
                    diags.fail(f"duplicate bound variable {v.text!r}", v.line, v.column)
                bound.append(v.text)
            if not bound:
                diags.fail("quantifier binds no variables", vtok.line, vtok.column)
            restriction = build(items[2])
            body = build(items[3])
            return add(Quantifier(_KINDS[head.text], tuple(bound), restriction, body), head)
        if head.text == "and":
            if len(items) < 2:
                diags.fail("'and' needs at least one child", head.line, head.column)
            return add(Conjunction(tuple(build(c) for c in items[1:])), head)
        if head.text == "let":
            diags.fail("'let' is only allowed at the top level", head.line, head.column)
        if head.text == "true" or head.text.startswith("#"):
            diags.fail(f"{head.text!r} cannot head an application", head.line, head.column)
        if len(items) != 2 or not isinstance(items[1], _Tok):
            diags.fail(
                f"application of {head.text!r} needs exactly one variable",
                head.line,
                head.column,
            )
        return add(Application(head.text, items[1].text), head)

    if (
        not isinstance(datum, _Tok)
        and datum[1]
        and isinstance(datum[1][0], _Tok)
        and datum[1][0].text == "let"
    ):
        _, items = datum
        if len(items) < 2:
            diags.fail("'let' needs a final expression", items[0].line, items[0].column)
        for binding in items[1:-1]:
            if isinstance(binding, _Tok) or len(binding[1]) != 2:
                loc = binding if isinstance(binding, _Tok) else binding[0]
                diags.fail("expected a (name expression) binding", loc.line, loc.column)
            name_tok, expr = binding[1]
            if not isinstance(name_tok, _Tok):
                diags.fail("expected a binding name", binding[0].line, binding[0].column)
            if name_tok.text in aliases:
                diags.fail(f"duplicate let name {name_tok.text!r}", name_tok.line, name_tok.column)
            aliases[name_tok.text] = build(expr)
        root = build(items[-1])
    else:
        root = build(datum)
    return ScopeGraph(tuple(nodes), root, aliases)


def serialize_prop(graph: ScopeGraph) -> str:
    """Canonical proposition text; shared nodes become let-bindings."""
    order = topological_order(graph)
    indegree = Counter(c for i in order for c in children(graph.nodes[i]))
    alias_of: dict[int, str] = {}
    taken = set()
    preferred = {}
    for name, idx in sorted(graph.aliases.items()):
        preferred.setdefault(idx, name)
    counter = 0
    # each node's text from its children's, children first: a shared node
    # appears by its alias, any other node's text once, in its one parent
    text: dict[int, str] = {}

    def ref(i) -> str:
        return f"#{alias_of[i]}" if i in alias_of else text.pop(i)

    for i in order:
        if indegree[i] >= 2:
            name = preferred.get(i)
            if name is None or name in taken:
                while f"n{counter}" in taken or f"n{counter}" in graph.aliases.values():
                    counter += 1
                name = f"n{counter}"
                counter += 1
            taken.add(name)
            alias_of[i] = name
        node = graph.nodes[i]
        if isinstance(node, Tautology):
            text[i] = "true"
        elif isinstance(node, Application):
            text[i] = f"({node.predicate} {node.variable})"
        elif isinstance(node, Conjunction):
            text[i] = "(and " + " ".join(ref(c) for c in node.children) + ")"
        else:
            kind = node.kind.value if isinstance(node.kind, QuantifierKind) else "custom"
            text[i] = f"({kind} ({' '.join(node.bound)}) {ref(node.restriction)} {ref(node.body)})"
    if not alias_of:
        return text[graph.root] + "\n"
    bindings = " ".join(f"({alias_of[i]} {text[i]})" for i in order if i in alias_of)
    return f"(let {bindings} {text[graph.root]})\n"


# --- scenarios ----------------------------------------------------------------

def parse_scenario(text: str, base_dir: str | Path = ".") -> RsaScenario:
    """Parse a scenario file, loading state worlds by relative path and
    cross-validating every utterance against every state's world."""
    return _read(text, _scenario, Path(base_dir))


def _entries(issues, doc: dict, key: str, what: str, required, types):
    """Each object listed under ``key`` that has the keys it must, no keys
    but those of ``types``, and a value of its type at each, with its path."""
    if not _expect(issues, doc[key], list, f"'{key}'", (key,)):
        return
    for k, entry in enumerate(doc[key]):
        at = (key, k)
        if (_expect(issues, entry, dict, what, at)
                and _check_keys(issues, entry, at, required, types)
                and all([_expect(issues, v, types[s], f"'{s}'", at + (s,))
                         for s, v in entry.items()])):
            yield at, entry


def _scenario(doc, issues, base_dir: Path):
    if not (_expect(issues, doc, dict, "scenario document", ())
            and _check_keys(issues, doc, (), ("states", "utterances"), ("alpha", "engine"))):
        return None
    alpha, engine = doc.get("alpha", math.inf), doc.get("engine", EXACT)
    if not (alpha == "inf" or isinstance(alpha, float)):
        issues("alpha must be a number or \"inf\"", ("alpha",))
    _expect(issues, engine, str, "'engine'", ("engine",))

    states: dict[int, RsaState] = {}  # each well-formed entry by its index in the file
    for at, state in _entries(issues, doc, "states", "state", ("id", "prior", "world"),
                              {"id": str, "prior": float, "world": str, "scheme": str}):
        scheme, prior, world = state.get("scheme", "independent"), state["prior"], state["world"]
        if not ((scheme in {s.value for s in LiftScheme}
                 or issues(f"unknown scheme {scheme!r}", at + ("scheme",)))
                and ((base_dir / world).is_file()
                     or issues(f"world file not found: {world}", at + ("world",)))):
            continue
        try:
            model, lexicon = parse_world((base_dir / world).read_text())
        except DslParseError as exc:
            for d in exc.diagnostics:
                issues(f"in {world}: {d.message}", at + ("world",))
            continue
        states[at[1]] = RsaState(state["id"], prior, World(model, lexicon, LiftScheme(scheme)))

    utterances: dict[int, RsaUtterance] = {}
    for at, utterance in _entries(issues, doc, "utterances", "utterance", ("id", "prop"),
                                  {"id": str, "prop": str, "cost": float}):
        cost, prop = utterance.get("cost", 0.0), utterance["prop"]
        inline = prop.strip().startswith(("(", "#")) or prop.strip() == "true"
        if not (inline or (base_dir / prop).is_file()):
            issues(f"proposition file not found: {prop}", at + ("prop",))
            continue
        source, origin = ((prop, "inline proposition") if inline
                          else ((base_dir / prop).read_text(), str(base_dir / prop)))
        try:
            utterances[at[1]] = RsaUtterance(utterance["id"], parse_prop(source), cost)
        except DslParseError as exc:
            for d in exc.diagnostics:
                issues(f"in {origin}: {d.message}", at + ("prop",))

    try:
        scenario = RsaScenario(tuple(states.values()), tuple(utterances.values()),
                               alpha if isinstance(alpha, float) else math.inf,
                               engine if isinstance(engine, str) else EXACT)
    except InvalidScenario as exc:
        # a fault's index path into the scenario, such as ("states", k, "prior")
        # for its k-th state, names the same part of the file once k is the
        # entry's index there; a list's emptiness or total says nothing of a
        # list that lost an entry here
        index = {"states": list(states), "utterances": list(utterances)}
        refused = {path[0] for _, path, _ in issues}
        for message, (field, *rest) in exc.faults:
            if rest:
                issues(message, (field, index[field][rest[0]], *rest[1:]))
            elif field not in refused:
                issues(message, (field,))
    if issues:  # in file order, by key and then by entry
        issues.sort(key=lambda issue: [list(doc).index(issue[1][0]), *issue[1][1:2]])
        return None

    # validate reads only the names of a world's variables and predicates
    vocabularies = [(frozenset(s.world.model.variables), frozenset(s.world.lexicon.predicates))
                    for s in scenario.states]
    for k, u in utterances.items():
        found = {}
        for state, vocabulary in zip(scenario.states, vocabularies):
            if vocabulary not in found:
                found[vocabulary] = validate(u.graph, state.world.model, state.world.lexicon)
            for issue in found[vocabulary]:
                issues(f"utterance {u.id!r} invalid in state {state.id!r}: {issue}",
                       ("utterances", k, "prop"))
    return scenario
