"""Finite preorders, their monotone maps, and categorical constructions.

A finite preorder doubles as a finite topological space: a subset is open
iff it is upward closed and closed iff it is downward closed.  Everything
here is immutable and pure; equality is labeled (two spaces are equal only
if they have the same labels in the same order and the same relation).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections.abc import Iterable, Iterator, Sequence

from ._value import Value

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")

# Largest carrier size enumerate_preorders will accept by default.
DEFAULT_SIZE_CAP = 5


class NotMonotoneError(ValueError):
    """Raised when an assignment between preorders is not order-preserving."""


def row_mask(row: Sequence[bool]) -> int:
    """The bitmask with bit y set exactly when ``row[y]`` is true."""
    mask = 0
    for y, related in enumerate(row):
        if related:
            mask |= 1 << y
    return mask


class FinPreorder(Value):
    """A finite preorder: ordered labels plus a reflexive-transitive relation.

    ``leq[x][y]`` means x <= y, indices into ``labels``.  The empty carrier
    is legal.  Construct through :func:`build_space` unless you already hold
    a closed relation.
    """

    # After the two fields come per-space tables for map validation and the
    # search kernel, built on first use by strict_above, order_links and
    # order_masks and kept here; the connected components, built on
    # first use by components; the row masks, which the transitivity
    # check builds and order_masks reuses as its up half; and the hash,
    # hash((labels, leq)), kept after its first use: tuples do not cache
    # their hash, and HomCache hashes its space keys on every lookup.  None
    # of them takes part in equality or repr.  The class is slotted, so each
    # table costs only its own size.
    __slots__ = (
        "labels",
        "leq",
        "_strict_above",
        "_order_links",
        "_order_masks",
        "_components",
        "_row_masks",
        "_hash",
    )
    labels: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]

    def __init__(self, labels: tuple[str, ...], leq: tuple[tuple[bool, ...], ...]) -> None:
        _set_labels(self, labels)
        _set_leq(self, leq)
        _set_strict_above(self, None)
        _set_order_links(self, None)
        _set_order_masks(self, None)
        _set_components(self, None)
        _set_hash(self, None)
        # Tuples only: a list would pass the other checks and then break
        # equality and hashing.
        if not isinstance(labels, tuple):
            raise ValueError(f"labels must be a tuple, not {type(labels).__name__}")
        n = len(labels)
        if len(set(labels)) != n:
            dup = next(a for i, a in enumerate(labels) if a in labels[:i])
            raise ValueError(f"duplicate label {dup!r}")
        for a in labels:
            if not _LABEL_RE.match(a):
                raise ValueError(f"invalid label {a!r}: labels must match [A-Za-z0-9_]+")
        if not isinstance(leq, tuple) or len(leq) != n or any(
            not isinstance(row, tuple) or len(row) != n for row in leq
        ):
            raise ValueError(f"relation must be {n}x{n}, a tuple of row tuples")
        for x in range(n):
            if not leq[x][x]:
                raise ValueError(f"relation not reflexive at {labels[x]!r}")
        # Transitive iff the row of every y above x lies inside the row of x.
        # Rows, and the bits inside each row, are read in index order, so
        # the violation reported is the first (x, y, z) in row-major order.
        rows = tuple(row_mask(row) for row in leq)
        for x, row_x in enumerate(rows):
            outside = ~row_x
            for y, related in enumerate(leq[x]):
                missing = related and rows[y] & outside
                if missing:
                    z = (missing & -missing).bit_length() - 1
                    raise ValueError(
                        f"relation not transitive: {labels[x]} <= {labels[y]} <= {labels[z]}"
                    )
        _set_row_masks(self, rows)

    @property
    def strict_above(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(x, ys) for each x below some other point: every y != x with x <= y.

        Both x and the ys are in index order, so the pairs (x, y) come in
        row-major order.
        """
        table = self._strict_above
        if table is None:
            points = tuple(range(len(self.leq)))
            rows = []
            for x, row in enumerate(self.leq):
                above = tuple(y for y in itertools.compress(points, row) if y != x)
                if above:
                    rows.append((x, above))
            table = tuple(rows)
            _set_strict_above(self, table)
        return table

    @property
    def order_links(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each x, (p, 0) for each earlier p <= x, (p, 1) for each with x <= p, in p order.

        0 and 1 index the up and down halves of order_masks, for the search kernel.
        """
        table = self._order_links
        if table is None:
            leq = self.leq
            table = tuple(
                tuple(
                    (p, t)
                    for p in range(x)
                    for t, related in ((0, leq[p][x]), (1, leq[x][p]))
                    if related
                )
                for x in range(len(leq))
            )
            _set_order_links(self, table)
        return table

    @property
    def order_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(up, down): bit w of up[v] is set when v <= w, of down[v] when w <= v."""
        table = self._order_masks
        if table is None:
            down = tuple(row_mask(column) for column in zip(*self.leq))
            table = (self._row_masks, down)
            _set_order_masks(self, table)
        return table

    @property
    def components(self) -> tuple[tuple[int, ...], int]:
        """(component_of, count) of the connected components.

        Components are the classes of the equivalence generated by
        comparability.  Ids are assigned by first occurrence, so component
        0 contains the lowest-indexed point.
        """
        table = self._components
        if table is None:
            leq = self.leq
            n = len(leq)
            component_of = [-1] * n
            count = 0
            for start in range(n):
                if component_of[start] != -1:
                    continue
                component_of[start] = count
                stack = [start]
                while stack:
                    x = stack.pop()
                    for y in range(n):
                        if component_of[y] == -1 and (leq[x][y] or leq[y][x]):
                            component_of[y] = count
                            stack.append(y)
                count += 1
            table = (tuple(component_of), count)
            _set_components(self, table)
        return table

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.labels, self.leq))
            _set_hash(self, value)
        return value

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown label {label!r}") from None

    def up_set(self, x: int) -> frozenset[int]:
        """Minimal open neighborhood of x: everything above it."""
        return frozenset(y for y in range(len(self)) if self.leq[x][y])

    def down_set(self, x: int) -> frozenset[int]:
        """Closure of the point x: everything below it."""
        return frozenset(y for y in range(len(self)) if self.leq[y][x])

    def __repr__(self) -> str:
        strict = [
            f"{self.labels[x]}<={self.labels[y]}"
            for x in range(len(self))
            for y in range(len(self))
            if x != y and self.leq[x][y]
        ]
        return f"FinPreorder([{', '.join(self.labels)}]; {', '.join(strict) or 'discrete'})"


# Stores through the slot descriptors, for the constructor and the lazy
# tables: cheaper than object.__setattr__, which the frozen base requires
# otherwise.
(
    _set_labels,
    _set_leq,
    _set_strict_above,
    _set_order_links,
    _set_order_masks,
    _set_components,
    _set_row_masks,
    _set_hash,
) = (FinPreorder.__dict__[name].__set__ for name in FinPreorder.__slots__)


class MonotoneMap(Value):
    """An order-preserving total function between two finite preorders.

    ``assign[x]`` is the target index of source index x.  The unique map out
    of the empty space has an empty assignment.
    """

    __slots__ = ("source", "target", "assign")
    source: FinPreorder
    target: FinPreorder
    assign: tuple[int, ...]

    def __init__(self, source: FinPreorder, target: FinPreorder, assign: tuple[int, ...]) -> None:
        _set_source(self, source)
        _set_target(self, target)
        _set_assign(self, assign)
        # Validation is a method of its own so that it can be wrapped on
        # the class; the benchmark tracer counts map validations that way.
        self.__post_init__()

    def __post_init__(self) -> None:
        source, target, assign = self.source, self.target, self.assign
        n, m = len(source.labels), len(target.labels)
        if not isinstance(assign, tuple):
            raise ValueError(f"assignment must be a tuple, not {type(assign).__name__}")
        if len(assign) != n:
            raise ValueError(f"assignment has {len(assign)} entries, source has {n}")
        for v in assign:
            if not 0 <= v < m:
                raise ValueError(f"assignment value {v} outside target of size {m}")
        # Reflexive pairs hold because the target is reflexive, so only the
        # strict pairs need checking.  They are visited in row-major order,
        # so the first that fails is the first violation in that order.
        t_leq = target.leq
        for x, above in source.strict_above:
            row = t_leq[assign[x]]
            for y in above:
                if not row[assign[y]]:
                    raise NotMonotoneError(
                        f"{source.labels[x]} <= {source.labels[y]} but "
                        f"{target.labels[assign[x]]} !<= {target.labels[assign[y]]}"
                    )

    def __call__(self, x: int) -> int:
        return self.assign[x]

    def assignment_by_label(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (self.source.labels[x], self.target.labels[v]) for x, v in enumerate(self.assign)
        )

    def __repr__(self) -> str:
        pairs = ", ".join(f"{a}|->{b}" for a, b in self.assignment_by_label())
        return f"MonotoneMap({{{pairs}}})"


_set_source, _set_target, _set_assign = MonotoneMap._setters


def transitive_reflexive_closure(
    n: int, pairs: list[tuple[int, int]]
) -> tuple[tuple[bool, ...], ...]:
    """Warshall closure of the given generating pairs over n elements, on row bitmasks."""
    rows = [1 << x for x in range(n)]
    for x, y in pairs:
        rows[x] |= 1 << y
    for k in range(n):
        bit, row_k = 1 << k, rows[k]
        for x in range(n):
            if rows[x] & bit:
                rows[x] |= row_k
    return tuple(tuple(bool(row >> y & 1) for y in range(n)) for row in rows)


def build_space(labels: list[str], generating_pairs: list[tuple[str, str]]) -> FinPreorder:
    """Build a preorder from generators; the closure is computed here.

    Element order is declaration order.  Raises on duplicate labels and on
    pairs mentioning undeclared labels.
    """
    labels = tuple(labels)
    idx = {a: i for i, a in enumerate(labels)}
    pairs = []
    for a, b in generating_pairs:
        if a not in idx:
            raise ValueError(f"unknown label {a!r} in pair ({a!r}, {b!r})")
        if b not in idx:
            raise ValueError(f"unknown label {b!r} in pair ({a!r}, {b!r})")
        pairs.append((idx[a], idx[b]))
    return FinPreorder(labels, transitive_reflexive_closure(len(labels), pairs))


def identity(space: FinPreorder) -> MonotoneMap:
    return MonotoneMap(space, space, tuple(range(len(space))))


def compose(f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
    """The composite "f then g"; requires target of f = source of g."""
    if f.target != g.source:
        raise ValueError("mismatched endpoints: target of f is not source of g")
    return MonotoneMap(f.source, g.target, tuple(g.assign[v] for v in f.assign))


def to_point(space: FinPreorder) -> MonotoneMap:
    """The unique map into the one-point space."""
    return MonotoneMap(space, PT, (0,) * len(space))


def monotone_assignments(
    source: FinPreorder, target: FinPreorder, candidates: Sequence[Sequence[int]]
) -> Iterator[tuple[int, ...]]:
    """Yield every monotone assignment with ``assign[x]`` in ``candidates[x]``.

    Assignments come out as tuples in lexicographic order, taking each
    ``candidates[x]`` in its given order: _search over the source's
    order_links and the target's order_masks.
    """
    return _search(source.order_links, target.order_masks, candidates)


def _search(
    links: Sequence[Sequence[tuple[int, int]]],
    tables: Sequence[Sequence[int]],
    candidates: Sequence[Sequence[int]],
) -> Iterator[tuple[int, ...]]:
    """The one backtracking search, behind monotone_assignments and enumerate_preorders.

    Yields, in lexicographic order, every assignment with ``assign[x]`` in
    ``candidates[x]`` (taken in its given order) that each link of x admits.
    A link (p, t) ties x to an earlier point p: x may take v when bit v of
    ``tables[t][assign[p]]`` is set.  Points are placed in order, and on
    reaching x the masks of its links are intersected once, so a candidate
    costs one bit test.  An explicit stack of candidate iterators replaces
    recursion, so the recursion limit does not bound the number of points;
    the last point is placed in one loop over its candidates.
    """
    n = len(links)
    if n == 0:
        yield ()
        return
    last = n - 1
    assign = [0] * n
    stack: list[tuple[Iterator[int], int]] = []
    x = 0
    while True:
        allowed = -1
        for p, t in links[x]:
            allowed &= tables[t][assign[p]]
        if x < last:
            stack.append((iter(candidates[x]), allowed))
        else:
            for v in candidates[x]:
                if allowed >> v & 1:
                    assign[x] = v
                    yield tuple(assign)
        while stack:
            values, allowed = stack[-1]
            for v in values:
                if allowed >> v & 1:
                    break
            else:
                stack.pop()
                continue
            x = len(stack)
            assign[x - 1] = v
            break
        else:
            return


def hom_enumerate(source: FinPreorder, target: FinPreorder) -> list[MonotoneMap]:
    """All monotone maps source -> target, in lexicographic-by-assignment order."""
    values = range(len(target.labels))
    return [
        MonotoneMap(source, target, assign)
        for assign in monotone_assignments(source, target, [values] * len(source.labels))
    ]


def _fresh_product_labels(p: FinPreorder, q: FinPreorder) -> list[str]:
    labels = [f"{a}_{b}" for a in p.labels for b in q.labels]
    if len(set(labels)) != len(labels):
        labels = [f"x{i}_{j}" for i in range(len(p)) for j in range(len(q))]
    return labels


def coproduct(
    p: FinPreorder, q: FinPreorder
) -> tuple[FinPreorder, tuple[MonotoneMap, MonotoneMap]]:
    """Disjoint union with no cross relations, plus the two injections.

    Labels of the summands are suffixed _1 and _2 so they never clash.
    """
    n, m = len(p), len(q)
    labels = [f"{a}_1" for a in p.labels] + [f"{b}_2" for b in q.labels]
    leq = tuple(
        tuple(
            (x < n and y < n and p.leq[x][y]) or (x >= n and y >= n and q.leq[x - n][y - n])
            for y in range(n + m)
        )
        for x in range(n + m)
    )
    space = FinPreorder(tuple(labels), leq)
    inl = MonotoneMap(p, space, tuple(range(n)))
    inr = MonotoneMap(q, space, tuple(range(n, n + m)))
    return space, (inl, inr)


def product(
    p: FinPreorder, q: FinPreorder
) -> tuple[FinPreorder, tuple[MonotoneMap, MonotoneMap]]:
    """Cartesian product with componentwise order, plus the two projections."""
    n, m = len(p), len(q)
    labels = _fresh_product_labels(p, q)
    pairs = [(x, y) for x in range(n) for y in range(m)]
    leq = tuple(
        tuple(p.leq[x1][x2] and q.leq[y1][y2] for (x2, y2) in pairs) for (x1, y1) in pairs
    )
    space = FinPreorder(tuple(labels), leq)
    proj1 = MonotoneMap(space, p, tuple(x for (x, _) in pairs))
    proj2 = MonotoneMap(space, q, tuple(y for (_, y) in pairs))
    return space, (proj1, proj2)


def codiagonal(space: FinPreorder) -> MonotoneMap:
    """The fold map from the two-fold coproduct back onto the space."""
    double, _ = coproduct(space, space)
    n = len(space)
    return MonotoneMap(double, space, tuple(range(n)) + tuple(range(n)))


def diagonal(space: FinPreorder) -> MonotoneMap:
    """The map x |-> (x, x) into the two-fold product."""
    square, _ = product(space, space)
    n = len(space)
    return MonotoneMap(space, square, tuple(x * n + x for x in range(n)))


def enumerate_preorders(n: int) -> list[FinPreorder]:
    """All labeled preorders on carriers of size 0..n, each exactly once.

    Labels are canonical (e0, e1, ...).  Within one size, matrices come out
    in row-major lexicographic order.  Raises when n exceeds DEFAULT_SIZE_CAP.
    Each size is enumerated once per process, by _preorders_of_size; every
    call returns a new list of the same immutable spaces.
    """
    _check_size_bound(n)
    return [space for k in range(n + 1) for space in _preorders_of_size(k)]


def _check_size_bound(n: int) -> None:
    if n < 0:
        raise ValueError("size bound must be nonnegative")
    if n > DEFAULT_SIZE_CAP:
        raise ValueError(f"size bound {n} exceeds the hard cap {DEFAULT_SIZE_CAP}")


@functools.cache
def _preorders_of_size(k: int) -> tuple[FinPreorder, ...]:
    """The labeled preorders on k points, in row-major lexicographic order.

    One _search over row masks: point x takes the rows with bit x set, in
    lexicographic order, and each pair p < x has a table whose entry at
    row p is the mask of the rows x may take beside it.  A row x may not
    when p <= x and row x is not inside row p, or x <= p and row p is not
    inside row x; that every pair agrees is transitivity.  Every matrix is
    built from the same 2^k row tuples, which class_of's table then shares.
    """
    labels = tuple(f"e{i}" for i in range(k))
    row_of = {row_mask(bits): bits for bits in itertools.product((False, True), repeat=k)}
    _ROWS.update((bits, bits) for bits in row_of.values())
    rows = list(row_of)
    pairs = [(p, x) for x in range(k) for p in range(x)]
    links = [[(p, t) for t, (p, y) in enumerate(pairs) if y == x] for x in range(k)]
    tables = [
        [
            sum(1 << b for b in rows if not (a >> x & 1 and b & ~a or b >> p & 1 and a & ~b))
            for a in range(1 << k)
        ]
        for p, x in pairs
    ]
    candidates = [[r for r in rows if r >> x & 1] for x in range(k)]
    return tuple(
        FinPreorder(labels, tuple(map(row_of.__getitem__, matrix)))
        for matrix in _search(links, tables, candidates)
    )


class Representative(Value):
    """One isomorphism class of preorders on n points.

    ``space`` is the member FinPreorder(("e0", ...), form) whose relation
    is the class's canonical form, ``group`` its automorphisms in
    itertools.permutations order (the identity first), and ``weight``
    the number n!/|group| of labeled spaces on n points in the class.
    class_of gives the class of a space of any size.
    """

    __slots__ = ("space", "group", "weight")
    space: FinPreorder
    group: tuple[tuple[int, ...], ...]
    weight: int


@functools.cache
def representatives(n: int) -> tuple[Representative, ...]:
    """One Representative per isomorphism class of preorders on exactly n points.

    In canonical-form order: the class_of of the first space of each class
    of _preorders_of_size(n), which enumerates in row-major order, so
    that space is its class's form.  Raises as enumerate_preorders does.
    """
    _check_size_bound(n)
    return tuple(class_of(z)[0] for z in _first_of_each_class(_preorders_of_size(n)))


def _first_of_each_class(spaces: Iterable[FinPreorder]) -> Iterator[FinPreorder]:
    """The spaces whose isomorphism class no earlier space has, in the order given.

    Each class is read from class_of and keyed on its space.
    """
    seen = set()
    for z in spaces:
        rep = class_of(z)[0].space
        if rep not in seen:
            seen.add(rep)
            yield z


# class_of's table, from each relation it has classified to its (rep, perm),
# and the row tuples and permutations its keys and entries share.  The
# enumerated relations' rows are entered too, so that a lookup compares
# rows by identity.  Rows and permutations are interned apart:
# (1, 0) == (True, False).
_CLASSES: dict = {}
_ROWS: dict = {}
_PERMS: dict = {}


def class_of(space: FinPreorder) -> tuple[Representative, tuple[int, ...]]:
    """(rep, perm): the isomorphism class of the space and the first relabeling onto it.

    rep.space's relation, the canonical form, is the least matrix over the
    space's _relabelings in row-major order, and ``perm`` the first
    permutation reaching it.  Two spaces are isomorphic exactly when their
    classes have equal spaces; labels are never read.

    A relation not classified before is searched by brute force over all
    n! relabelings (McKay and Piperno's canonical form without the
    partition refinement), the group being perm^-1 after rho over the
    rho that reach the form.  At most DEFAULT_SIZE_CAP points the whole
    class is entered in the table, at most 5! relabelings: the member
    reached by pi gets the least pi^-1 after rho.  Above the cap only
    the relation asked about is entered, since its class may hold n!
    matrices, and the relabelings are never held together.
    """
    leq = space.leq
    entry = _CLASSES.get(leq)
    if entry is not None:
        return entry
    n = len(leq)
    relabelings = _relabelings(leq)
    if n <= DEFAULT_SIZE_CAP:
        relabelings = members = list(relabelings)
    else:
        members = [(leq, tuple(range(n)))]
    form, reaching = None, []
    for matrix, rho in relabelings:
        if form is None or matrix < form:
            form, reaching = matrix, [rho]
        elif matrix == form:
            reaching.append(rho)
    inverse = tuple(map(reaching[0].index, range(n)))
    group = tuple(sorted(tuple([inverse[v] for v in rho]) for rho in reaching))
    form = tuple([_ROWS.setdefault(row, row) for row in form])
    rep_space = FinPreorder(tuple(f"e{i}" for i in range(n)), form)
    rep = Representative(rep_space, group, math.factorial(n) // len(group))
    for matrix, pi in members:
        if matrix not in _CLASSES:
            inverse = tuple(map(pi.index, range(n)))
            perm = min(tuple([inverse[v] for v in rho]) for rho in reaching)
            matrix = tuple([_ROWS.setdefault(row, row) for row in matrix])
            _CLASSES[matrix] = (rep, _PERMS.setdefault(perm, perm))
    return _CLASSES[leq]


def _relabelings(leq: tuple[tuple[bool, ...], ...]) -> Iterator[tuple[tuple, tuple[int, ...]]]:
    """(matrix, perm) for every permutation perm, in itertools.permutations order.

    The matrix is the relation with old point perm[x] at index x: entry
    leq[perm[x]][perm[y]] at (x, y).
    """
    for perm in itertools.permutations(range(len(leq))):
        yield tuple([tuple([row[y] for y in perm]) for row in map(leq.__getitem__, perm)]), perm


def automorphisms(space: FinPreorder) -> list[tuple[int, ...]]:
    """Every permutation perm with leq[perm[x]][perm[y]] == leq[x][y] for all x, y.

    In itertools.permutations order, so the identity comes first.  Brute
    force over all n! relabelings: perm is kept when relabeling by it
    leaves the matrix as it is.
    """
    leq = space.leq
    return [perm for matrix, perm in _relabelings(leq) if matrix == leq]


def are_isomorphic(p: FinPreorder, q: FinPreorder) -> bool:
    """True iff some relabeling carries p onto q (order both ways)."""
    return len(p) == len(q) and class_of(p)[0].space == class_of(q)[0].space


# The constant spaces: empty, point, discrete pair, Sierpinski, indiscrete
# pair, and the three-point "vee" with one closed bottom and two open tops.
# Convention throughout: open = upward closed, closed = downward closed, so
# in SIERP the bottom point b is closed and the top point s is open.
EMPTY = build_space([], [])
PT = build_space(["pt"], [])
TWO = build_space(["p", "q"], [])
SIERP = build_space(["b", "s"], [("b", "s")])
INDISC = build_space(["x", "y"], [("x", "y"), ("y", "x")])
VEE = build_space(["l", "m", "r"], [("m", "l"), ("m", "r")])

EMPTY_TO_PT = MonotoneMap(EMPTY, PT, ())
CODIAG = MonotoneMap(TWO, PT, (0, 0))
SIERP_TO_PT = to_point(SIERP)
INDISC_TO_PT = to_point(INDISC)
# The singleton lands on the closed point of SIERP; this is what makes the
# dense-image characterization line up with the down-closure oracle.
PT_TO_SIERP_CLOSED = MonotoneMap(PT, SIERP, (0,))
