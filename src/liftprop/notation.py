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

from collections.abc import Iterator
from dataclasses import dataclass, field

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
KEYWORDS = frozenset(
    ("space", "map", "lift", "check", "orthogonal", "mono", "epi", "hom", "enumerate",
     "size", "left", "right")
)


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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_PUNCT = {
    "{": "LBRACE", "}": "RBRACE", "[": "LBRACKET", "]": "RBRACKET",
    ",": "COMMA", ":": "COLON", "=": "EQUALS", "<": "LT", "-": "MINUS",
}


def _is_name_char(c: str) -> bool:
    return c == "_" or "0" <= c <= "9" or "a" <= c <= "z" or "A" <= c <= "Z"


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            col += 1
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if _is_name_char(c):
            j = i
            while j < n and _is_name_char(text[j]):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        matched = None
        for spelling, kind in (("|->", "MAPSTO"), ("|>", "LIFT"), ("->", "ARROW"), ("<>", "LTGT")):
            if text.startswith(spelling, i):
                matched = (kind, spelling)
                break
        if matched is None and c in _PUNCT:
            matched = (_PUNCT[c], c)
        if matched is None:
            raise ParseError(f"unexpected character {c!r}", line, col)
        kind, spelling = matched
        tokens.append(Token(kind, spelling, line, col))
        col += len(spelling)
        i += len(spelling)
    tokens.append(Token("EOF", "end of input", line, col))
    return tokens


@dataclass(frozen=True)
class SpaceDecl:
    name: str
    labels: tuple[str, ...]
    generators: tuple[tuple[str, str], ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class MapDecl:
    name: str
    source: str
    target: str
    pairs: tuple[tuple[str, str], ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class LiftQuery:
    left: str
    right: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CheckQuery:
    prop: str
    arg: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class OrthogonalQuery:
    side: str
    tests: tuple[str, ...]
    size: int
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class MonoQuery:
    name: str
    size: int
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class EpiQuery:
    name: str
    size: int
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class HomQuery:
    source: str
    target: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class EnumerateQuery:
    size: int
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


Query = LiftQuery | CheckQuery | OrthogonalQuery | MonoQuery | EpiQuery | HomQuery | EnumerateQuery


@dataclass(frozen=True)
class Program:
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
            if tok.text == "space":
                self.parse_space()
            elif tok.text == "map":
                self.parse_map()
            elif tok.text == "lift":
                self.parse_lift()
            elif tok.text == "check":
                self.parse_check()
            elif tok.text == "orthogonal":
                self.parse_orthogonal()
            elif tok.text in ("mono", "epi"):
                self.parse_mono_epi()
            elif tok.text == "hom":
                self.parse_hom()
            elif tok.text == "enumerate":
                self.parse_enumerate()
            else:
                raise ParseError(
                    "expected one of space, map, lift, check, orthogonal, mono, epi, "
                    f"hom, enumerate; found {tok.text!r}",
                    tok.line, tok.col,
                )
        return Program(tuple(self.declarations), tuple(self.queries))

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

    def size_arg(self) -> int:
        tok = self.expect("NAME", "a number")
        if not tok.text.isdigit():
            raise ParseError(f"expected a number, found {tok.text!r}", tok.line, tok.col)
        value = int(tok.text)
        if value > DEFAULT_SIZE_CAP:
            raise ParseError(
                f"size {value} exceeds the hard cap {DEFAULT_SIZE_CAP}", tok.line, tok.col
            )
        return value

    def parse_space(self) -> None:
        start = self.advance()
        name_tok = self.declared_name("space")
        if name_tok.text in self.space_labels:
            raise ParseError(f"space {name_tok.text!r} already declared", name_tok.line, name_tok.col)
        self.expect("EQUALS", "'='")
        self.expect("LBRACE", "'{'")
        labels: list[str] = []
        generators: list[tuple[str, str]] = []

        def note(label: str) -> None:
            if label not in labels:
                labels.append(label)

        if self.peek().kind != "RBRACE":
            while True:
                first = self.expect("NAME", "an element name")
                note(first.text)
                if self.peek().kind == "LT":
                    self.advance()
                    second = self.expect("NAME", "an element name")
                    note(second.text)
                    generators.append((first.text, second.text))
                elif self.peek().kind == "LTGT":
                    self.advance()
                    second = self.expect("NAME", "an element name")
                    note(second.text)
                    generators.append((first.text, second.text))
                    generators.append((second.text, first.text))
                if self.peek().kind != "COMMA":
                    break
                self.advance()
        self.expect("RBRACE", "'}'")
        self.declarations.append(
            SpaceDecl(name_tok.text, tuple(labels), tuple(generators), start.line, start.col)
        )
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
        source_labels = self.space_labels[source]
        target_labels = self.space_labels[target]
        pairs: list[tuple[str, str]] = []
        assigned: set[str] = set()
        if self.peek().kind != "RBRACE":
            while True:
                src_tok = self.expect("NAME", "an element name")
                if src_tok.text not in source_labels:
                    raise ParseError(
                        f"unknown label {src_tok.text!r} in space {source!r}",
                        src_tok.line, src_tok.col,
                    )
                if src_tok.text in assigned:
                    raise ParseError(
                        f"duplicate assignment for {src_tok.text!r}", src_tok.line, src_tok.col
                    )
                self.expect("MAPSTO", "'|->'")
                tgt_tok = self.expect("NAME", "an element name")
                if tgt_tok.text not in target_labels:
                    raise ParseError(
                        f"unknown label {tgt_tok.text!r} in space {target!r}",
                        tgt_tok.line, tgt_tok.col,
                    )
                pairs.append((src_tok.text, tgt_tok.text))
                assigned.add(src_tok.text)
                if self.peek().kind != "COMMA":
                    break
                self.advance()
        self.expect("RBRACE", "'}'")
        for label in source_labels:
            if label not in assigned:
                raise ParseError(
                    f"map {name_tok.text!r} is not total: {label!r} is unassigned",
                    brace.line, brace.col,
                )
        self.declarations.append(
            MapDecl(name_tok.text, source, target, tuple(pairs), start.line, start.col)
        )
        self.map_names.add(name_tok.text)

    def parse_lift(self) -> None:
        start = self.advance()
        left = self.map_ref()
        self.expect("LIFT", "'|>'")
        right = self.map_ref()
        self.queries.append(LiftQuery(left, right, start.line, start.col))

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
        start = self.advance()
        prop = self.property_id()
        arg = self.space_ref() if prop in SPACE_PROPERTIES else self.map_ref()
        self.queries.append(CheckQuery(prop, arg, start.line, start.col))

    def parse_orthogonal(self) -> None:
        start = self.advance()
        side_tok = self.expect("NAME", "'left' or 'right'")
        if side_tok.text not in ("left", "right"):
            raise ParseError(
                f"expected 'left' or 'right', found {side_tok.text!r}",
                side_tok.line, side_tok.col,
            )
        self.expect("LBRACKET", "'['")
        tests: list[str] = []
        if self.peek().kind != "RBRACKET":
            while True:
                tests.append(self.map_ref())
                if self.peek().kind != "COMMA":
                    break
                self.advance()
        self.expect("RBRACKET", "']'")
        self.expect_keyword("size")
        size = self.size_arg()
        self.queries.append(OrthogonalQuery(side_tok.text, tuple(tests), size, start.line, start.col))

    def parse_mono_epi(self) -> None:
        start = self.advance()
        name = self.map_ref()
        self.expect_keyword("size")
        size = self.size_arg()
        node = MonoQuery if start.text == "mono" else EpiQuery
        self.queries.append(node(name, size, start.line, start.col))

    def parse_hom(self) -> None:
        start = self.advance()
        source = self.space_ref()
        target = self.space_ref()
        self.queries.append(HomQuery(source, target, start.line, start.col))

    def parse_enumerate(self) -> None:
        start = self.advance()
        size = self.size_arg()
        self.queries.append(EnumerateQuery(size, start.line, start.col))


def parse(text: str) -> Program:
    """Parse a program, rejecting on the first error with line and column."""
    return _Parser(text).parse_program()


@dataclass
class Env:
    """Named spaces and maps in scope: built-ins plus elaborated declarations."""

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
    assigns = [f"{a} |-> {b}" for a, b in f.assignment_by_label()]
    lines.append(f"map {name} : {source_name} -> {target_name} = {_brace(assigns)}")
    return "\n".join(lines)


def print_query(query: Query) -> str:
    """Canonical single-line text of a query; parses back to an equal node."""
    if isinstance(query, LiftQuery):
        return f"lift {query.left} |> {query.right}"
    if isinstance(query, CheckQuery):
        return f"check {query.prop} {query.arg}"
    if isinstance(query, OrthogonalQuery):
        tests = ", ".join(query.tests)
        inner = f"[{tests}]" if tests else "[]"
        return f"orthogonal {query.side} {inner} size {query.size}"
    if isinstance(query, MonoQuery):
        return f"mono {query.name} size {query.size}"
    if isinstance(query, EpiQuery):
        return f"epi {query.name} size {query.size}"
    if isinstance(query, HomQuery):
        return f"hom {query.source} {query.target}"
    if isinstance(query, EnumerateQuery):
        return f"enumerate {query.size}"
    raise ValueError(f"not a query node: {query!r}")


@dataclass(frozen=True)
class LiftOutcome:
    """Result of a lift, check, mono, or epi query."""

    query: str
    result: LiftResult


@dataclass(frozen=True)
class MapListOutcome:
    """Result of an orthogonal or hom query."""

    query: str
    maps: tuple[MonotoneMap, ...]


@dataclass(frozen=True)
class CountsOutcome:
    """Result of an enumerate query: counts per carrier size 0..n."""

    query: str
    counts: tuple[int, ...]


Outcome = LiftOutcome | MapListOutcome | CountsOutcome


def _assignment_items(f: MonotoneMap) -> list[str]:
    return [f"{a} |-> {b}" for a, b in f.assignment_by_label()]


def _map_braces(maps: tuple[MonotoneMap, ...]) -> Iterator[tuple[str, str, MonotoneMap]]:
    """Yield (source text, target text, map) for each map, in order.

    A map list often repeats a few spaces many times, so each space's
    brace text is computed once per walk, keyed by object identity; the
    list keeps every space alive, so no identity is reused meanwhile.
    """
    texts: dict[int, str] = {}

    def brace(space: FinPreorder) -> str:
        text = texts.get(id(space))
        if text is None:
            text = texts[id(space)] = _brace(_space_items(space))
        return text

    for f in maps:
        yield brace(f.source), brace(f.target), f


def print_result(outcome: Outcome) -> str:
    """Human-readable result block, starting with the query itself."""
    lines = [outcome.query]
    if isinstance(outcome, LiftOutcome):
        lines.append("  HOLDS" if outcome.result.holds else "  FAILS")
        square = outcome.result.counterexample
        if square is not None:
            lines.append(f"  top:    {_brace(_assignment_items(square.top))}")
            lines.append(f"  bottom: {_brace(_assignment_items(square.bottom))}")
    elif isinstance(outcome, MapListOutcome):
        lines.append(f"  count {len(outcome.maps)}")
        for source, target, f in _map_braces(outcome.maps):
            lines.append(f"  {source} -> {target} = {_brace(_assignment_items(f))}")
    elif isinstance(outcome, CountsOutcome):
        for size, count in enumerate(outcome.counts):
            lines.append(f"  size {size}: {count}")
        lines.append(f"  total {sum(outcome.counts)}")
    else:
        raise ValueError(f"not an outcome: {outcome!r}")
    return "\n".join(lines)


def encode_result(outcome: Outcome) -> dict:
    """JSON-compatible record for the outcome; format version 1.

    Lift-shaped results carry {query, holds, counterexample}; the
    counterexample, when present, lists the top and bottom assignments
    by label.
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
                {
                    "source": source,
                    "target": target,
                    "assign": [[a, b] for a, b in f.assignment_by_label()],
                }
                for source, target, f in _map_braces(outcome.maps)
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
