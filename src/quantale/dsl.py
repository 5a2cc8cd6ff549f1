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
from .errors import DslParseError
from .model import (MASS_TOL, LiftScheme, PixieSpace, SituationModel, VaguePredicate,
                     VagueLexicon)
from .quant import QuantifierKind
from .rsa import ENGINES, RsaScenario, RsaState, RsaUtterance, World
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


_TYPE_NAMES = {dict: "object", list: "array", str: "string", float: "number"}


def _expect(issues, value, kind, what: str, path) -> bool:
    return isinstance(value, kind) or issues(f"{what} must be a {_TYPE_NAMES[kind]}", path)


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

    Raises DslParseError carrying SourceDiagnostic entries on syntax
    errors, schema violations, or invariant violations.
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
    variables = _names(issues, doc, "variables", "variable")
    if issues:
        return None

    joint: list[tuple[tuple[str, ...], float]] = []
    seen_assignments = set()
    total = 0.0
    if _expect(issues, doc["joint"], list, "'joint'", ("joint",)):
        for k, entry in enumerate(doc["joint"]):
            at = ("joint", k)
            if not (_expect(issues, entry, dict, "joint entry", at)
                    and _check_keys(issues, entry, at, ("assign", "prob"))
                    and _expect(issues, entry["assign"], dict, "'assign'", at + ("assign",))
                    and _expect(issues, entry["prob"], float, "'prob'", at + ("prob",))):
                continue
            assignment = {}
            for var, pixie in entry["assign"].items():
                where = at + ("assign", var)
                if var not in variables:
                    issues(f"unknown variable {var!r} in assignment", where, True)
                elif _expect(issues, pixie, str, "assigned pixie", where):
                    if pixie in pixies:
                        assignment[var] = pixie
                    else:
                        issues(f"unknown pixie {pixie!r}", where)
            missing = [v for v in variables if v not in assignment]
            if missing:
                issues(f"assignment missing variables {missing}", at)
                continue
            key = tuple(assignment[v] for v in variables)
            if key in seen_assignments:
                issues(f"duplicate assignment {key}", at)
                continue
            seen_assignments.add(key)
            mass = entry["prob"]
            if mass < 0:
                issues(f"probability {mass} is negative", at + ("prob",))
                continue
            total += mass
            joint.append((key, mass))
        if not issues and abs(total - 1.0) > MASS_TOL:
            issues(f"joint mass {total:.12g} ≠ 1", ("joint",))

    predicates: dict[str, VaguePredicate] = {}
    if _expect(issues, doc["predicates"], dict, "'predicates'", ("predicates",)):
        for name, entries in doc["predicates"].items():
            if not _expect(issues, entries, dict, f"predicate {name!r}", ("predicates", name)):
                continue
            table = {}
            for pixie, p in entries.items():
                where = ("predicates", name, pixie)
                if pixie not in pixies:
                    issues(f"unknown pixie {pixie!r}", where, True)
                elif _expect(issues, p, float, "predicate probability", where):
                    if 0.0 <= p <= 1.0:
                        table[pixie] = p
                    else:
                        issues(f"probability {p} outside [0, 1]", where)
            predicates[name] = VaguePredicate(name, table)
    if issues:
        return None
    model = SituationModel(PixieSpace(tuple(pixies)), tuple(variables), tuple(joint))
    return model, VagueLexicon(predicates)


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


def _entries(issues, doc: dict, key: str, what: str, required, optional, strings):
    """Each object listed under ``key`` that has the keys it must, no others,
    and strings at ``strings``, with its path."""
    if not _expect(issues, doc[key], list, f"'{key}'", (key,)):
        return
    if not doc[key]:
        issues(f"scenario needs at least one {what}", (key,))
    for k, entry in enumerate(doc[key]):
        at = (key, k)
        if (_expect(issues, entry, dict, what, at)
                and _check_keys(issues, entry, at, required, optional)
                and all([_expect(issues, entry[s], str, f"'{s}'", at + (s,)) for s in strings])):
            yield at, entry


def _scenario(doc, issues, base_dir: Path):
    if not (_expect(issues, doc, dict, "scenario document", ())
            and _check_keys(issues, doc, (), ("states", "utterances"), ("alpha", "engine"))):
        return None
    alpha = doc.get("alpha", "inf")
    if alpha == "inf":
        alpha = math.inf
    elif not isinstance(alpha, float) or alpha <= 0:
        issues("alpha must be a positive number or \"inf\"", ("alpha",))
    engine = doc.get("engine", EXACT)  # only used if no issue was recorded
    if _expect(issues, engine, str, "'engine'", ("engine",)) and engine not in ENGINES:
        issues(f"unknown engine {engine!r}", ("engine",))

    states: list[RsaState] = []
    for at, state in _entries(issues, doc, "states", "state", ("id", "prior", "world"),
                              ("scheme",), ("id", "world")):
        scheme, prior, world = state.get("scheme", "independent"), state["prior"], state["world"]
        if not _expect(issues, scheme, str, "'scheme'", at + ("scheme",)):
            continue
        if scheme not in {s.value for s in LiftScheme}:
            issues(f"unknown scheme {scheme!r}", at + ("scheme",))
        elif not isinstance(prior, float) or prior < 0:
            issues("prior must be a non-negative number", at + ("prior",))
        elif not (base_dir / world).is_file():
            issues(f"world file not found: {world}", at + ("world",))
        else:
            try:
                model, lexicon = parse_world((base_dir / world).read_text())
            except DslParseError as exc:
                for d in exc.diagnostics:
                    issues(f"in {world}: {d.message}", at + ("world",))
                continue
            states.append(RsaState(state["id"], prior, World(model, lexicon, LiftScheme(scheme))))

    utterances: list[RsaUtterance] = []
    for at, utterance in _entries(issues, doc, "utterances", "utterance", ("id", "prop"),
                                  ("cost",), ("id", "prop")):
        cost, prop = utterance.get("cost", 0.0), utterance["prop"]
        source, origin = prop, "inline proposition"
        inline = prop.strip().startswith(("(", "#")) or prop.strip() == "true"
        if not isinstance(cost, float) or cost < 0:
            issues("cost must be a non-negative number", at + ("cost",))
            continue
        if not math.isfinite(cost):
            issues("cost must be finite", at + ("cost",))
            continue
        if not inline:
            if not (base_dir / prop).is_file():
                issues(f"proposition file not found: {prop}", at + ("prop",))
                continue
            source, origin = (base_dir / prop).read_text(), str(base_dir / prop)
        try:
            utterances.append(RsaUtterance(utterance["id"], parse_prop(source), cost))
        except DslParseError as exc:
            for d in exc.diagnostics:
                issues(f"in {origin}: {d.message}", at + ("prop",))
    if issues:
        return None
    try:
        scenario = RsaScenario(tuple(states), tuple(utterances), alpha, engine)
    except ValueError as exc:
        issues(str(exc), ())
        return None

    # validate reads only the names of a world's variables and predicates
    vocabularies = [(frozenset(s.world.model.variables), frozenset(s.world.lexicon.predicates))
                    for s in states]
    for utterance in utterances:
        found = {}
        for state, vocabulary in zip(states, vocabularies):
            if vocabulary not in found:
                found[vocabulary] = validate(utterance.graph, state.world.model,
                                             state.world.lexicon)
            for issue in found[vocabulary]:
                issues(f"utterance {utterance.id!r} invalid in state {state.id!r}: {issue}", ())
    return scenario
