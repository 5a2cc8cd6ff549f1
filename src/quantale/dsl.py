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
# below, the scope walks and the engines recurse once or twice per level.
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
        self.items: list[SourceDiagnostic] = []

    def where(self, offset: int) -> tuple[int, int]:
        """1-based line and column of a text offset."""
        k = bisect.bisect_left(self.newlines, offset)
        return k + 1, offset - (self.newlines[k - 1] if k else -1)

    def snippet(self, line: int) -> str:
        """The line, without its line break; past the end, the last line."""
        last = len(self.newlines) + (not self.text.endswith("\n"))
        k = min(line, max(last, 1)) - 1
        start = self.newlines[k - 1] + 1 if k else 0
        end = self.newlines[k] if k < len(self.newlines) else len(self.text)
        return self.text[start:end].removesuffix("\r")

    def error(self, message: str, line: int, column: int):
        self.items.append(SourceDiagnostic("error", message, line, column, self.snippet(line)))

    def raise_if_any(self):
        if self.items:
            raise DslParseError(self.items)

    def fail(self, message: str, line: int, column: int):
        self.error(message, line, column)
        raise DslParseError(self.items)


# --- JSON with source positions ---------------------------------------------

@dataclass
class JValue:
    value: object  # dict[str, JValue] | list[JValue] | str | float | bool | None
    line: int
    column: int
    key_pos: dict | None = None  # key -> (line, column) for objects


_WS = re.compile(r"[ \t\r\n]*")
_NUMBER = re.compile(r"-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][+-]?\d+)?")
_HEX4 = re.compile(r"[0-9a-fA-F]{4}")
_LITERALS = (("true", True), ("false", False), ("null", None))


class _JsonReader:
    """Recursive-descent JSON reader that records where each value starts.

    Strings are decoded by the standard library's scanner; its errors are
    reported at the offending character.
    """

    def __init__(self, text: str, diags: _Diagnostics):
        self.text = text
        self.pos = 0
        self.diags = diags

    def _fail(self, message, offset=None):
        self.diags.fail(message, *self.diags.where(self.pos if offset is None else offset))

    def _next(self) -> str:
        """Skip whitespace; the next character, or '' at the end."""
        self.pos = _WS.match(self.text, self.pos).end()
        return self.text[self.pos : self.pos + 1]

    def parse(self) -> JValue:
        value = self._value()
        if self._next():
            self._fail("trailing content after JSON document")
        return value

    def _value(self, depth=0) -> JValue:
        ch = self._next()
        line, col = self.diags.where(self.pos)
        if ch in ("{", "[") and depth == MAX_NESTING:
            self._fail(f"nesting deeper than {MAX_NESTING} levels")
        if ch == "{":
            return self._object(line, col, depth + 1)
        if ch == "[":
            return self._array(line, col, depth + 1)
        if ch == '"':
            return JValue(self._string(), line, col)
        if ch and (ch.isdigit() or ch == "-"):
            m = _NUMBER.match(self.text, self.pos)
            if not m:
                self._fail("malformed number")
            self.pos = m.end()
            return JValue(float(m.group()), line, col)
        for word, lit in _LITERALS:
            if self.text.startswith(word, self.pos):
                self.pos += len(word)
                return JValue(lit, line, col)
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

    def _object(self, line, col, depth) -> JValue:
        self.pos += 1
        entries: dict[str, JValue] = {}
        key_pos: dict[str, tuple[int, int]] = {}
        if self._next() == "}":
            self.pos += 1
            return JValue(entries, line, col, key_pos)
        while True:
            if self._next() != '"':
                self._fail("expected object key")
            where = self.diags.where(self.pos)
            key = self._string()
            if key in entries:
                self._fail(f"duplicate key {key!r}")
            if self._next() != ":":
                self._fail("expected ':'")
            self.pos += 1
            entries[key] = self._value(depth)
            key_pos[key] = where
            if not self._more("}"):
                return JValue(entries, line, col, key_pos)

    def _array(self, line, col, depth) -> JValue:
        self.pos += 1
        items: list[JValue] = []
        if self._next() == "]":
            self.pos += 1
            return JValue(items, line, col)
        while True:
            items.append(self._value(depth))
            if not self._more("]"):
                return JValue(items, line, col)


def _expect(diags, jv: JValue, types, what: str):
    if not isinstance(jv.value, types):
        names = {dict: "object", list: "array", str: "string", float: "number",
                 bool: "boolean"}
        wanted = names.get(types if not isinstance(types, tuple) else types[0], "value")
        diags.error(f"{what} must be a {wanted}", jv.line, jv.column)
        return False
    return True


def _check_keys(diags, jv: JValue, required, optional=()):
    ok = True
    for key in required:
        if key not in jv.value:
            diags.error(f"missing key {key!r}", jv.line, jv.column)
            ok = False
    for key in jv.value:
        if key not in required and key not in optional:
            line, col = jv.key_pos[key]
            diags.error(f"unknown key {key!r}", line, col)
            ok = False
    return ok


# --- world files -------------------------------------------------------------

def parse_world(text: str) -> tuple[SituationModel, VagueLexicon]:
    """Parse a world file into a situation model and vague lexicon.

    Raises DslParseError carrying SourceDiagnostic entries on syntax
    errors, schema violations, or invariant violations.
    """
    diags = _Diagnostics(text)
    doc = _JsonReader(text, diags).parse()
    if not _expect(diags, doc, dict, "world document"):
        diags.raise_if_any()
    if not _check_keys(diags, doc, ("pixies", "variables", "joint", "predicates")):
        diags.raise_if_any()

    pixies: list[str] = []
    jv = doc.value["pixies"]
    if _expect(diags, jv, list, "'pixies'"):
        for item in jv.value:
            if _expect(diags, item, str, "pixie"):
                if item.value in pixies:
                    diags.error(f"duplicate pixie {item.value!r}", item.line, item.column)
                pixies.append(item.value)
        if not jv.value:
            diags.error("pixie space must be non-empty", jv.line, jv.column)

    variables: list[str] = []
    jv = doc.value["variables"]
    if _expect(diags, jv, list, "'variables'"):
        for item in jv.value:
            if _expect(diags, item, str, "variable"):
                if item.value in variables:
                    diags.error(f"duplicate variable {item.value!r}", item.line, item.column)
                variables.append(item.value)
    diags.raise_if_any()

    joint: list[tuple[tuple[str, ...], float]] = []
    seen_assignments = set()
    total = 0.0
    jv = doc.value["joint"]
    if _expect(diags, jv, list, "'joint'"):
        for entry in jv.value:
            if not _expect(diags, entry, dict, "joint entry"):
                continue
            if not _check_keys(diags, entry, ("assign", "prob")):
                continue
            assign_jv = entry.value["assign"]
            prob_jv = entry.value["prob"]
            if not _expect(diags, assign_jv, dict, "'assign'"):
                continue
            if not _expect(diags, prob_jv, float, "'prob'"):
                continue
            assignment = {}
            for var, pixie_jv in assign_jv.value.items():
                line, col = assign_jv.key_pos[var]
                if var not in variables:
                    diags.error(f"unknown variable {var!r} in assignment", line, col)
                    continue
                if not _expect(diags, pixie_jv, str, "assigned pixie"):
                    continue
                if pixie_jv.value not in pixies:
                    diags.error(
                        f"unknown pixie {pixie_jv.value!r}", pixie_jv.line, pixie_jv.column
                    )
                    continue
                assignment[var] = pixie_jv.value
            missing = [v for v in variables if v not in assignment]
            if missing:
                diags.error(
                    f"assignment missing variables {missing}", entry.line, entry.column
                )
                continue
            key = tuple(assignment[v] for v in variables)
            if key in seen_assignments:
                diags.error(f"duplicate assignment {key}", entry.line, entry.column)
                continue
            seen_assignments.add(key)
            mass = prob_jv.value
            if mass < 0:
                diags.error(f"probability {mass} is negative", prob_jv.line, prob_jv.column)
                continue
            total += mass
            joint.append((key, mass))
        if not diags.items and abs(total - 1.0) > MASS_TOL:
            diags.error(f"joint mass {total:.12g} ≠ 1", jv.line, jv.column)

    predicates: dict[str, VaguePredicate] = {}
    jv = doc.value["predicates"]
    if _expect(diags, jv, dict, "'predicates'"):
        for name, table_jv in jv.value.items():
            if not _expect(diags, table_jv, dict, f"predicate {name!r}"):
                continue
            table = {}
            for pixie, p_jv in table_jv.value.items():
                line, col = table_jv.key_pos[pixie]
                if pixie not in pixies:
                    diags.error(f"unknown pixie {pixie!r}", line, col)
                    continue
                if not _expect(diags, p_jv, float, "predicate probability"):
                    continue
                if not 0.0 <= p_jv.value <= 1.0:
                    diags.error(
                        f"probability {p_jv.value} outside [0, 1]", p_jv.line, p_jv.column
                    )
                    continue
                table[pixie] = p_jv.value
            predicates[name] = VaguePredicate(name, table)
    diags.raise_if_any()

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
        "pixies": sorted(model.space.elements),
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

    def render(i, as_definition=False) -> str:
        if i in alias_of and not as_definition:
            return f"#{alias_of[i]}"
        node = graph.nodes[i]
        if isinstance(node, Tautology):
            return "true"
        if isinstance(node, Application):
            return f"({node.predicate} {node.variable})"
        if isinstance(node, Conjunction):
            return "(and " + " ".join(render(c) for c in node.children) + ")"
        kind = node.kind.value if isinstance(node.kind, QuantifierKind) else "custom"
        return (
            f"({kind} ({' '.join(node.bound)}) "
            f"{render(node.restriction)} {render(node.body)})"
        )

    if not alias_of:
        return render(graph.root) + "\n"
    bindings = " ".join(
        f"({alias_of[i]} {render(i, as_definition=True)})" for i in order if i in alias_of
    )
    return f"(let {bindings} {render(graph.root)})\n"


# --- scenarios ----------------------------------------------------------------

def _load_prop_source(value: str, base_dir: Path, diags, line, col):
    text = value.strip()
    if text.startswith("(") or text == "true" or text.startswith("#"):
        return value, None
    path = base_dir / value
    if not path.is_file():
        diags.error(f"proposition file not found: {value}", line, col)
        return None, None
    return path.read_text(), str(path)


def parse_scenario(text: str, base_dir: str | Path = ".") -> RsaScenario:
    """Parse a scenario file, loading state worlds by relative path and
    cross-validating every utterance against every state's world."""
    base_dir = Path(base_dir)
    diags = _Diagnostics(text)
    doc = _JsonReader(text, diags).parse()
    if not _expect(diags, doc, dict, "scenario document"):
        diags.raise_if_any()
    _check_keys(diags, doc, ("states", "utterances"), optional=("alpha", "engine"))
    diags.raise_if_any()

    alpha = math.inf
    if "alpha" in doc.value:
        a_jv = doc.value["alpha"]
        if a_jv.value == "inf":
            alpha = math.inf
        elif isinstance(a_jv.value, float) and a_jv.value > 0:
            alpha = a_jv.value
        else:
            diags.error("alpha must be a positive number or \"inf\"", a_jv.line, a_jv.column)

    engine = EXACT
    if "engine" in doc.value:
        e_jv = doc.value["engine"]
        if _expect(diags, e_jv, str, "'engine'") and e_jv.value not in ENGINES:
            diags.error(f"unknown engine {e_jv.value!r}", e_jv.line, e_jv.column)
        engine = e_jv.value  # only used if no diagnostic was recorded

    states: list[RsaState] = []
    jv = doc.value["states"]
    if _expect(diags, jv, list, "'states'"):
        if not jv.value:
            diags.error("scenario needs at least one state", jv.line, jv.column)
        for s_jv in jv.value:
            if not _expect(diags, s_jv, dict, "state"):
                continue
            if not _check_keys(diags, s_jv, ("id", "prior", "world"), optional=("scheme",)):
                continue
            if not all([_expect(diags, s_jv.value[k], str, f"'{k}'") for k in ("id", "world")]):
                continue
            sid = s_jv.value["id"].value
            prior = s_jv.value["prior"].value
            world_rel = s_jv.value["world"].value
            scheme = LiftScheme.INDEPENDENT
            if "scheme" in s_jv.value:
                sch_jv = s_jv.value["scheme"]
                if not _expect(diags, sch_jv, str, "'scheme'"):
                    continue
                if sch_jv.value not in {s.value for s in LiftScheme}:
                    diags.error(f"unknown scheme {sch_jv.value!r}", sch_jv.line, sch_jv.column)
                    continue
                scheme = LiftScheme(sch_jv.value)
            if not isinstance(prior, float) or prior < 0:
                p_jv = s_jv.value["prior"]
                diags.error("prior must be a non-negative number", p_jv.line, p_jv.column)
                continue
            path = base_dir / world_rel
            if not path.is_file():
                w_jv = s_jv.value["world"]
                diags.error(f"world file not found: {world_rel}", w_jv.line, w_jv.column)
                continue
            try:
                model, lexicon = parse_world(path.read_text())
            except DslParseError as exc:
                w_jv = s_jv.value["world"]
                for d in exc.diagnostics:
                    diags.error(f"in {world_rel}: {d.message}", w_jv.line, w_jv.column)
                continue
            states.append(RsaState(sid, prior, World(model, lexicon, scheme)))

    utterances: list[RsaUtterance] = []
    jv = doc.value["utterances"]
    if _expect(diags, jv, list, "'utterances'"):
        if not jv.value:
            diags.error("scenario needs at least one utterance", jv.line, jv.column)
        for u_jv in jv.value:
            if not _expect(diags, u_jv, dict, "utterance"):
                continue
            if not _check_keys(diags, u_jv, ("id", "prop"), optional=("cost",)):
                continue
            if not all([_expect(diags, u_jv.value[k], str, f"'{k}'") for k in ("id", "prop")]):
                continue
            uid = u_jv.value["id"].value
            cost = 0.0
            if "cost" in u_jv.value:
                c_jv = u_jv.value["cost"]
                if not isinstance(c_jv.value, float) or c_jv.value < 0:
                    diags.error("cost must be a non-negative number", c_jv.line, c_jv.column)
                    continue
                if not math.isfinite(c_jv.value):
                    diags.error("cost must be finite", c_jv.line, c_jv.column)
                    continue
                cost = c_jv.value
            p_jv = u_jv.value["prop"]
            source, origin = _load_prop_source(p_jv.value, base_dir, diags, p_jv.line, p_jv.column)
            if source is None:
                continue
            try:
                graph = parse_prop(source)
            except DslParseError as exc:
                where = origin or "inline proposition"
                for d in exc.diagnostics:
                    diags.error(f"in {where}: {d.message}", p_jv.line, p_jv.column)
                continue
            utterances.append(RsaUtterance(uid, graph, cost))
    diags.raise_if_any()
    try:
        scenario = RsaScenario(tuple(states), tuple(utterances), alpha, engine)
    except ValueError as exc:
        diags.fail(str(exc), doc.line, doc.column)

    for utterance in utterances:
        for state in states:
            issues = validate(utterance.graph, state.world.model, state.world.lexicon)
            for issue in issues:
                diags.error(
                    f"utterance {utterance.id!r} invalid in state {state.id!r}: {issue}",
                    doc.line,
                    doc.column,
                )
    diags.raise_if_any()
    return scenario
