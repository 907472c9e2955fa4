"""Textual notation for spaces, maps, and lifting queries.

The surface syntax is ASCII: `x < y` declares a generator, `x <> y` a
two-way generator, `|->` an assignment, `|>` a lifting query.  Parsing is
a single forward pass (every name must be declared before use) by a
hand-written recursive-descent parser with one token of lookahead.

Parsing checks syntax, name resolution, and totality of assignments;
monotonicity is deliberately deferred to :func:`elaborate`, so a
well-formed file can still fail validation with a named diagnostic.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator

from ._value import Value
from .lifting import PROPERTY_IDS, SPACE_PROPERTIES, LiftResult
from .preorder import (
    CODIAG,
    EMPTY,
    EMPTY_TO_PT,
    INDISC,
    INDISC_TO_PT,
    PT,
    PT_TO_SIERP_CLOSED,
    SIERP,
    SIERP_TO_PT,
    TWO,
    VEE,
    DEFAULT_SIZE_CAP,
    FinPreorder,
    MonotoneMap,
    NotMonotoneError,
    build_space,
)
from .verify import PAPER_SIZES

BUILTIN_SPACES = {
    "EMPTY": EMPTY,
    "PT": PT,
    "TWO": TWO,
    "SIERP": SIERP,
    "INDISC": INDISC,
    "VEE": VEE,
}
BUILTIN_MAPS = {
    "EMPTY_TO_PT": EMPTY_TO_PT,
    "CODIAG": CODIAG,
    "SIERP_TO_PT": SIERP_TO_PT,
    "INDISC_TO_PT": INDISC_TO_PT,
    "PT_TO_SIERP_CLOSED": PT_TO_SIERP_CLOSED,
}

# The sizes each sized keyword accepts, from low to high, and why the high
# bound is below DEFAULT_SIZE_CAP, the largest preorder enumerated, where it
# is and a reason is known.
SIZE_CAPS: dict[str, tuple[int, int, str | None]] = {
    "orthogonal": (0, 4, "an orthogonal class lists labeled maps, and there are "
                         "10,906,368,176 of them at size 5"),
    "mono": (0, DEFAULT_SIZE_CAP, None),
    "epi": (0, DEFAULT_SIZE_CAP, None),
    "enumerate": (0, DEFAULT_SIZE_CAP, None),
    "verify-paper": (*PAPER_SIZES, None),
}


def size_refusal(keyword: str, size: int | str) -> str | None:
    """Why `keyword` refuses `size`, or None when it takes it.

    `size` is an int or a natural number's decimal digits without leading
    zeros.  Digits are compared by length first, so a number longer than
    int() converts (4,300 digits) is refused like any other.
    """
    low, high, reason = SIZE_CAPS[keyword]
    value = high + 1 if isinstance(size, str) and len(size) > len(str(high)) else int(size)
    if low <= value <= high:
        return None
    if value < low:
        return f"size {size} is below the {keyword} minimum {low}"
    if high == DEFAULT_SIZE_CAP:
        return f"size {size} exceeds the hard cap {high}"
    return f"size {size} exceeds the {keyword} cap {high}" + (f": {reason}" if reason else "")


class ParseError(ValueError):
    """Syntax or name error, located at the earliest offending token."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ValidationError(ValueError):
    """Semantic error (monotonicity, caps) in an otherwise well-formed program."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        located = message if line is None else f"{line}:{col}: {message}"
        super().__init__(located)
        self.message = message
        self.line = line
        self.col = col


class Token(Value):
    __slots__ = ("kind", "text", "line", "col")
    kind: str
    text: str
    line: int
    col: int


# One alternative per token kind, tried in order, so `|->` wins over `|>`
# and `->` and `<>` win over `-` and `<`.  Blanks and comments make no
# token; any other character is refused where it stands.
_TOKEN_RE = re.compile(
    r"""(?P<NEWLINE>\n) | (?P<BLANK>[ \t\r]+) | (?P<COMMENT>\#[^\n]*)
      | (?P<NAME>[A-Za-z0-9_]+)
      | (?P<MAPSTO>\|->) | (?P<LIFT>\|>) | (?P<ARROW>->) | (?P<LTGT><>)
      | (?P<LBRACE>\{) | (?P<RBRACE>\}) | (?P<LBRACKET>\[) | (?P<RBRACKET>\])
      | (?P<COMMA>,) | (?P<COLON>:) | (?P<EQUALS>=) | (?P<LT><) | (?P<MINUS>-)
      | (?P<BAD>.)""",
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[Token]:
    """Tokens with 1-based line and column; a tab or carriage return is one column."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        kind, col = match.lastgroup, match.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, match.end()
        elif kind == "BAD":
            raise ParseError(f"unexpected character {match.group()!r}", line, col)
        elif kind != "BLANK" and kind != "COMMENT":
            tokens.append(Token(kind, match.group(), line, col))
    # End of input sits at the `#` of a comment that runs up to it, and the
    # first `#` of the last line starts such a comment.
    end = text.find("#", line_start)
    col = (len(text) if end < 0 else end) - line_start + 1
    tokens.append(Token("EOF", "end of input", line, col))
    return tokens


class SpaceDecl(Value):
    __slots__ = ("name", "labels", "generators")
    name: str
    labels: tuple[str, ...]
    generators: tuple[tuple[str, str], ...]


class MapDecl(Value):
    """A map declaration; line and col are where its ``map`` keyword stands,
    for the located error when it is not monotone."""

    __slots__ = ("name", "source", "target", "pairs", "line", "col")
    name: str
    source: str
    target: str
    pairs: tuple[tuple[str, str], ...]
    line: int
    col: int


class LiftQuery(Value):
    __slots__ = ("left", "right")
    left: str
    right: str


class CheckQuery(Value):
    __slots__ = ("prop", "arg")
    prop: str
    arg: str


class OrthogonalQuery(Value):
    __slots__ = ("side", "tests", "size")
    side: str
    tests: tuple[str, ...]
    size: int


class MonoQuery(Value):
    __slots__ = ("name", "size")
    name: str
    size: int


class EpiQuery(Value):
    __slots__ = ("name", "size")
    name: str
    size: int


class HomQuery(Value):
    __slots__ = ("source", "target")
    source: str
    target: str


class EnumerateQuery(Value):
    __slots__ = ("size",)
    size: int


Query = LiftQuery | CheckQuery | OrthogonalQuery | MonoQuery | EpiQuery | HomQuery | EnumerateQuery


class Program(Value):
    __slots__ = ("declarations", "queries")
    declarations: tuple[SpaceDecl | MapDecl, ...]
    queries: tuple[Query, ...]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        # Label lists of spaces in scope; needed to check map totality as
        # declarations are parsed, ahead of full elaboration.
        self.space_labels: dict[str, tuple[str, ...]] = {
            name: sp.labels for name, sp in BUILTIN_SPACES.items()
        }
        self.map_names: set[str] = set(BUILTIN_MAPS)
        self.declarations: list[SpaceDecl | MapDecl] = []
        self.queries: list[Query] = []

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != word:
            raise ParseError(f"expected {word!r}, found {tok.text!r}", tok.line, tok.col)
        return self.advance()

    def parse_program(self) -> Program:
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "NAME":
                raise ParseError(f"expected a statement, found {tok.text!r}", tok.line, tok.col)
            statement = _STATEMENTS.get(tok.text)
            if statement is None:
                raise ParseError(
                    f"expected one of {', '.join(_STATEMENTS)}; found {tok.text!r}",
                    tok.line, tok.col,
                )
            statement(self)
        return Program(tuple(self.declarations), tuple(self.queries))

    def comma_list(self, item: Callable[[], object], close: str, what: str) -> list:
        """Comma-separated items, maybe none, then the closing token."""
        items = []
        if self.peek().kind != close:
            items.append(item())
            while self.peek().kind == "COMMA":
                self.advance()
                items.append(item())
        self.expect(close, what)
        return items

    def declared_name(self, kind: str) -> Token:
        tok = self.expect("NAME", f"a {kind} name")
        if tok.text in KEYWORDS:
            raise ParseError(f"{tok.text!r} is a keyword and cannot be declared", tok.line, tok.col)
        if tok.text in BUILTIN_SPACES or tok.text in BUILTIN_MAPS:
            raise ParseError(f"{tok.text!r} is a built-in name and cannot be redeclared", tok.line, tok.col)
        return tok

    def space_ref(self) -> str:
        tok = self.expect("NAME", "a space name")
        if tok.text not in self.space_labels:
            raise ParseError(f"unknown space {tok.text!r}", tok.line, tok.col)
        return tok.text

    def map_ref(self) -> str:
        tok = self.expect("NAME", "a map name")
        if tok.text not in self.map_names:
            raise ParseError(f"unknown map {tok.text!r}", tok.line, tok.col)
        return tok.text

    def label_in(self, space: str) -> Token:
        tok = self.expect("NAME", "an element name")
        if tok.text not in self.space_labels[space]:
            raise ParseError(f"unknown label {tok.text!r} in space {space!r}", tok.line, tok.col)
        return tok

    def size_arg(self, keyword: str) -> int:
        tok = self.expect("NAME", "a number")
        if not tok.text.isdigit():
            raise ParseError(f"expected a number, found {tok.text!r}", tok.line, tok.col)
        digits = tok.text.lstrip("0") or "0"
        refusal = size_refusal(keyword, digits)
        if refusal is not None:
            raise ParseError(refusal, tok.line, tok.col)
        return int(digits)

    def parse_space(self) -> None:
        self.advance()
        name_tok = self.declared_name("space")
        if name_tok.text in self.space_labels:
            raise ParseError(f"space {name_tok.text!r} already declared", name_tok.line, name_tok.col)
        self.expect("EQUALS", "'='")
        self.expect("LBRACE", "'{'")
        labels: dict[str, None] = {}
        generators: list[tuple[str, str]] = []

        def item() -> None:
            first = self.expect("NAME", "an element name").text
            labels[first] = None
            kind = self.peek().kind
            if kind == "LT" or kind == "LTGT":
                self.advance()
                second = self.expect("NAME", "an element name").text
                labels[second] = None
                generators.append((first, second))
                if kind == "LTGT":
                    generators.append((second, first))

        self.comma_list(item, "RBRACE", "'}'")
        self.declarations.append(SpaceDecl(name_tok.text, tuple(labels), tuple(generators)))
        self.space_labels[name_tok.text] = tuple(labels)

    def parse_map(self) -> None:
        start = self.advance()
        name_tok = self.declared_name("map")
        if name_tok.text in self.map_names:
            raise ParseError(f"map {name_tok.text!r} already declared", name_tok.line, name_tok.col)
        self.expect("COLON", "':'")
        source = self.space_ref()
        self.expect("ARROW", "'->'")
        target = self.space_ref()
        self.expect("EQUALS", "'='")
        brace = self.expect("LBRACE", "'{'")
        image: dict[str, str] = {}

        def assignment() -> None:
            src_tok = self.label_in(source)
            if src_tok.text in image:
                raise ParseError(
                    f"duplicate assignment for {src_tok.text!r}", src_tok.line, src_tok.col
                )
            self.expect("MAPSTO", "'|->'")
            image[src_tok.text] = self.label_in(target).text

        self.comma_list(assignment, "RBRACE", "'}'")
        for label in self.space_labels[source]:
            if label not in image:
                raise ParseError(
                    f"map {name_tok.text!r} is not total: {label!r} is unassigned",
                    brace.line, brace.col,
                )
        self.declarations.append(
            MapDecl(name_tok.text, source, target, tuple(image.items()), start.line, start.col)
        )
        self.map_names.add(name_tok.text)

    def parse_lift(self) -> None:
        self.advance()
        left = self.map_ref()
        self.expect("LIFT", "'|>'")
        right = self.map_ref()
        self.queries.append(LiftQuery(left, right))

    def property_id(self) -> str:
        tok = self.expect("NAME", "a property name")
        prop = tok.text
        if prop == "pi0" and self.peek().kind == "MINUS":
            self.advance()
            tail = self.expect("NAME", "'injective'")
            prop = f"pi0-{tail.text}"
        if prop not in PROPERTY_IDS:
            raise ParseError(
                f"unknown property {prop!r}; expected one of {', '.join(PROPERTY_IDS)}",
                tok.line, tok.col,
            )
        return prop

    def parse_check(self) -> None:
        self.advance()
        prop = self.property_id()
        arg = self.space_ref() if prop in SPACE_PROPERTIES else self.map_ref()
        self.queries.append(CheckQuery(prop, arg))

    def parse_orthogonal(self) -> None:
        self.advance()
        side_tok = self.expect("NAME", "'left' or 'right'")
        if side_tok.text not in ("left", "right"):
            raise ParseError(
                f"expected 'left' or 'right', found {side_tok.text!r}",
                side_tok.line, side_tok.col,
            )
        self.expect("LBRACKET", "'['")
        tests = self.comma_list(self.map_ref, "RBRACKET", "']'")
        self.expect_keyword("size")
        size = self.size_arg("orthogonal")
        self.queries.append(OrthogonalQuery(side_tok.text, tuple(tests), size))

    def parse_mono_epi(self) -> None:
        start = self.advance()
        name = self.map_ref()
        self.expect_keyword("size")
        size = self.size_arg(start.text)
        node = MonoQuery if start.text == "mono" else EpiQuery
        self.queries.append(node(name, size))

    def parse_hom(self) -> None:
        self.advance()
        source = self.space_ref()
        target = self.space_ref()
        self.queries.append(HomQuery(source, target))

    def parse_enumerate(self) -> None:
        self.advance()
        size = self.size_arg("enumerate")
        self.queries.append(EnumerateQuery(size))


# Each statement keyword and its parse method, in the order the "expected
# one of" message lists them.
_STATEMENTS = {
    "space": _Parser.parse_space,
    "map": _Parser.parse_map,
    "lift": _Parser.parse_lift,
    "check": _Parser.parse_check,
    "orthogonal": _Parser.parse_orthogonal,
    "mono": _Parser.parse_mono_epi,
    "epi": _Parser.parse_mono_epi,
    "hom": _Parser.parse_hom,
    "enumerate": _Parser.parse_enumerate,
}
KEYWORDS = frozenset((*_STATEMENTS, "size", "left", "right"))


def parse(text: str) -> Program:
    """Parse a program, rejecting on the first error with line and column."""
    return _Parser(text).parse_program()


class Env(Value):
    """Named spaces and maps in scope: built-ins plus elaborated declarations.

    Its fields are dicts, so an environment is unhashable, and elaboration
    fills them in place.
    """

    __slots__ = ("spaces", "maps")
    spaces: dict[str, FinPreorder]
    maps: dict[str, MonotoneMap]


def elaborate(program: Program) -> Env:
    """Build the declared spaces and maps, validating monotonicity.

    Raises ValidationError naming the offending map; parse already
    guarantees names, totality, and label validity.
    """
    env = Env(dict(BUILTIN_SPACES), dict(BUILTIN_MAPS))
    for decl in program.declarations:
        if isinstance(decl, SpaceDecl):
            env.spaces[decl.name] = build_space(list(decl.labels), list(decl.generators))
        else:
            source = env.spaces[decl.source]
            target = env.spaces[decl.target]
            image = dict(decl.pairs)
            assign = tuple(target.index(image[label]) for label in source.labels)
            try:
                env.maps[decl.name] = MonotoneMap(source, target, assign)
            except NotMonotoneError as err:
                raise ValidationError(
                    f"map {decl.name!r} is not monotone: {err}", decl.line, decl.col
                ) from None
    return env


def _brace(items: list[str]) -> str:
    return "{ " + ", ".join(items) + " }" if items else "{ }"


def _space_items(space: FinPreorder) -> list[str]:
    """Canonical brace items: labels, equivalence chains, then quotient covers.

    Depends only on the closure, so any two presentations of the same
    space print identically; re-parsing restores label order from the
    leading bare items and the closure from the generators.  The relation
    is read as the space's row and column bitmasks, so a cover test is one
    mask intersection rather than a scan over every point.
    """
    leq = space.leq
    ups, downs = space.order_masks
    # Each point's class, keyed by its least member; keys arrive ascending.
    classes: dict[int, list[int]] = {}
    for x, (up, down) in enumerate(zip(ups, downs)):
        same = up & down
        classes.setdefault((same & -same).bit_length() - 1, []).append(x)
    items = list(space.labels)
    for members in classes.values():
        for a, b in zip(members, members[1:]):
            items.append(f"{space.labels[a]} <> {space.labels[b]}")
    reps = list(classes)
    rep_mask = sum(1 << rep for rep in reps)
    for a in reps:
        for b in reps:
            if a == b or not leq[a][b]:
                continue
            if ups[a] & downs[b] & rep_mask & ~(1 << a | 1 << b):
                continue
            items.append(f"{space.labels[a]} < {space.labels[b]}")
    return items


def builtin_space_name(space: FinPreorder) -> str | None:
    for name, sp in BUILTIN_SPACES.items():
        if sp == space:
            return name
    return None


def print_space(space: FinPreorder, name: str = "S") -> str:
    """Canonical declaration text; parse of it elaborates back to the space."""
    return f"space {name} = {_brace(_space_items(space))}"


def print_map(f: MonotoneMap, name: str = "f") -> str:
    """Self-contained declaration text for the map.

    Source and target get their own space declarations unless they are
    built-ins, in which case the built-in names are used.
    """
    lines = []
    source_name = builtin_space_name(f.source)
    if source_name is None:
        source_name = "S"
        lines.append(print_space(f.source, source_name))
    target_name = builtin_space_name(f.target)
    if target_name is None:
        if f.target == f.source:
            target_name = source_name
        else:
            target_name = "T"
            lines.append(print_space(f.target, target_name))
    lines.append(f"map {name} : {source_name} -> {target_name} = {_brace(_assignment_items(f))}")
    return "\n".join(lines)


# The canonical text of each query class; it parses back to an equal node.
_QUERY_TEXT = {
    LiftQuery: lambda q: f"lift {q.left} |> {q.right}",
    CheckQuery: lambda q: f"check {q.prop} {q.arg}",
    OrthogonalQuery: lambda q: f"orthogonal {q.side} [{', '.join(q.tests)}] size {q.size}",
    MonoQuery: lambda q: f"mono {q.name} size {q.size}",
    EpiQuery: lambda q: f"epi {q.name} size {q.size}",
    HomQuery: lambda q: f"hom {q.source} {q.target}",
    EnumerateQuery: lambda q: f"enumerate {q.size}",
}


def print_query(query: Query) -> str:
    """Canonical single-line text of a query; parses back to an equal node."""
    text = _QUERY_TEXT.get(type(query))
    if text is None:
        raise ValueError(f"not a query node: {query!r}")
    return text(query)


class LiftOutcome(Value):
    """Result of a lift, check, mono, or epi query."""

    __slots__ = ("query", "result")
    query: str
    result: LiftResult


class MapListOutcome(Value):
    """Result of an orthogonal or hom query."""

    __slots__ = ("query", "maps")
    query: str
    maps: tuple[MonotoneMap, ...]


class CountsOutcome(Value):
    """Result of an enumerate query: counts per carrier size 0..n."""

    __slots__ = ("query", "counts")
    query: str
    counts: tuple[int, ...]


Outcome = LiftOutcome | MapListOutcome | CountsOutcome


def _assignment_items(f: MonotoneMap) -> list[str]:
    return [f"{a} |-> {b}" for a, b in f.assignment_by_label()]


def _map_rows(
    maps: tuple[MonotoneMap, ...],
    cell: Callable[[str, str], object],
    render: Callable[[list], object],
) -> Iterator[tuple[str, str, object]]:
    """Yield (source text, target text, row) for each map, in order.

    A map list repeats a few (source, target) pairs many times, so the
    walk formats each pair once.  Each space's brace text is computed once,
    keyed by object identity; the list keeps every space alive, so no
    identity is reused meanwhile.  Each (source labels, target labels) pair
    gets one table whose cell ``[x][v]`` is ``cell(labels[x], labels[v])``,
    shared by spaces whose labels agree, and a map's row is ``render`` of
    its list of cells picked by ``f.assign``.  Rows repeat across the
    spaces that share labels, so each pair also keeps its rendered rows by
    assignment, and each distinct row is rendered once per call.  A run of
    maps with the same endpoints reuses the texts and table of the first.
    """
    texts: dict[int, str] = {}
    tables: dict[tuple[tuple[str, ...], tuple[str, ...]], tuple[list[list], dict]] = {}

    def brace(space: FinPreorder) -> str:
        text = texts.get(id(space))
        if text is None:
            text = texts[id(space)] = _brace(_space_items(space))
        return text

    source = target = None
    for f in maps:
        if f.source is not source or f.target is not target:
            source, target = f.source, f.target
            source_text, target_text = brace(source), brace(target)
            key = (source.labels, target.labels)
            entry = tables.get(key)
            if entry is None:
                entry = tables[key] = ([[cell(a, b) for b in key[1]] for a in key[0]], {})
            table, rows = entry
        row = rows.get(f.assign)
        if row is None:
            row = rows[f.assign] = render(list(map(list.__getitem__, table, f.assign)))
        yield source_text, target_text, row


def result_lines(outcome: Outcome) -> Iterator[str]:
    """Lines of the human-readable result block, the query itself first."""
    yield outcome.query
    if isinstance(outcome, LiftOutcome):
        yield "  HOLDS" if outcome.result.holds else "  FAILS"
        square = outcome.result.counterexample
        if square is not None:
            yield f"  top:    {_brace(_assignment_items(square.top))}"
            yield f"  bottom: {_brace(_assignment_items(square.bottom))}"
    elif isinstance(outcome, MapListOutcome):
        yield f"  count {len(outcome.maps)}"
        for source, target, row in _map_rows(outcome.maps, "{} |-> {}".format, _brace):
            yield f"  {source} -> {target} = {row}"
    elif isinstance(outcome, CountsOutcome):
        for size, count in enumerate(outcome.counts):
            yield f"  size {size}: {count}"
        yield f"  total {sum(outcome.counts)}"
    else:
        raise ValueError(f"not an outcome: {outcome!r}")


def print_result(outcome: Outcome) -> str:
    """Human-readable result block: the ``result_lines`` joined by newlines."""
    return "\n".join(result_lines(outcome))


def encode_result(outcome: Outcome) -> dict:
    """JSON-compatible record for the outcome; format version 1.

    Lift-shaped results carry {query, holds, counterexample}; the
    counterexample, when present, lists the top and bottom assignments
    by label.  A map listing's ``assign`` lists hold ``[a, b]`` pair lists
    that are shared within one record: every map sending label ``a`` to
    ``b`` between spaces with the same labels holds the same list object,
    and maps with the same assignment between spaces with the same labels
    hold the same ``assign`` list.  Treat the record as read-only;
    ``json.dumps`` writes each occurrence.
    """
    if isinstance(outcome, LiftOutcome):
        square = outcome.result.counterexample
        counterexample = None
        if square is not None:
            counterexample = {
                "top": [[a, b] for a, b in square.top.assignment_by_label()],
                "bottom": [[a, b] for a, b in square.bottom.assignment_by_label()],
            }
        return {
            "format": 1,
            "query": outcome.query,
            "holds": outcome.result.holds,
            "counterexample": counterexample,
        }
    if isinstance(outcome, MapListOutcome):
        return {
            "format": 1,
            "query": outcome.query,
            "count": len(outcome.maps),
            "maps": [
                {"source": source, "target": target, "assign": row}
                for source, target, row in _map_rows(outcome.maps, lambda a, b: [a, b], list)
            ],
        }
    if isinstance(outcome, CountsOutcome):
        return {
            "format": 1,
            "query": outcome.query,
            "counts": list(outcome.counts),
            "total": sum(outcome.counts),
        }
    raise ValueError(f"not an outcome: {outcome!r}")
