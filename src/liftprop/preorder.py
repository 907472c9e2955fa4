"""Finite preorders, their monotone maps, and categorical constructions.

A finite preorder doubles as a finite topological space: a subset is open
iff it is upward closed and closed iff it is downward closed.  Everything
here is immutable and pure; equality is labeled (two spaces are equal only
if they have the same labels in the same order and the same relation).
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator, Sequence

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
    # search kernel, built on first use by strict_above, earlier_relations
    # and order_masks and kept here, and the hash, hash((labels, leq)), kept
    # after its first use: tuples do not cache their hash, and HomCache
    # hashes its space keys on every lookup.  None of them takes part in
    # equality or repr.  The class is slotted, so each table costs only its
    # own size.
    __slots__ = ("labels", "leq", "_strict_above", "_earlier_relations", "_order_masks", "_hash")
    labels: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]

    def __init__(self, labels: tuple[str, ...], leq: tuple[tuple[bool, ...], ...]) -> None:
        _set_labels(self, labels)
        _set_leq(self, leq)
        _set_strict_above(self, None)
        _set_earlier_relations(self, None)
        _set_order_masks(self, None)
        _set_hash(self, None)
        self.__post_init__()

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(set(self.labels)) != n:
            dup = next(a for i, a in enumerate(self.labels) if a in self.labels[:i])
            raise ValueError(f"duplicate label {dup!r}")
        for a in self.labels:
            if not _LABEL_RE.match(a):
                raise ValueError(f"invalid label {a!r}: labels must match [A-Za-z0-9_]+")
        if len(self.leq) != n or any(len(row) != n for row in self.leq):
            raise ValueError(f"relation must be {n}x{n}")
        for x in range(n):
            if not self.leq[x][x]:
                raise ValueError(f"relation not reflexive at {self.labels[x]!r}")
        # Transitive iff the row of every y above x lies inside the row of x.
        # Rows, and the bits inside each row, are read in index order, so
        # the violation reported is the first (x, y, z) in row-major order.
        rows = [row_mask(row) for row in self.leq]
        for x, row_x in enumerate(rows):
            outside = ~row_x
            for y, related in enumerate(self.leq[x]):
                missing = related and rows[y] & outside
                if missing:
                    z = (missing & -missing).bit_length() - 1
                    raise ValueError(
                        "relation not transitive: "
                        f"{self.labels[x]} <= {self.labels[y]} <= {self.labels[z]}"
                    )

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
    def earlier_relations(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """For each x, the earlier indices p < x with p <= x, then those with x <= p."""
        table = self._earlier_relations
        if table is None:
            leq = self.leq
            table = tuple(
                (
                    tuple(p for p in range(x) if leq[p][x]),
                    tuple(p for p in range(x) if leq[x][p]),
                )
                for x in range(len(leq))
            )
            _set_earlier_relations(self, table)
        return table

    @property
    def order_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(up, down): bit w of up[v] is set when v <= w, of down[v] when w <= v."""
        table = self._order_masks
        if table is None:
            leq = self.leq
            up = tuple(row_mask(row) for row in leq)
            down = tuple(row_mask(column) for column in zip(*leq))
            table = (up, down)
            _set_order_masks(self, table)
        return table

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.labels, self.leq))
            _set_hash(self, value)
        return value

    def __len__(self) -> int:
        return len(self.labels)

    def le(self, x: int, y: int) -> bool:
        return self.leq[x][y]

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

    def related_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (self.labels[x], self.labels[y])
            for x in range(len(self))
            for y in range(len(self))
            if self.leq[x][y]
        )

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
_set_labels, _set_leq, _set_strict_above, _set_earlier_relations, _set_order_masks, _set_hash = (
    FinPreorder.__dict__[name].__set__ for name in FinPreorder.__slots__
)


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
    labels = list(labels)
    seen: set[str] = set()
    for a in labels:
        if a in seen:
            raise ValueError(f"duplicate label {a!r}")
        seen.add(a)
    idx = {a: i for i, a in enumerate(labels)}
    pairs = []
    for a, b in generating_pairs:
        if a not in idx:
            raise ValueError(f"unknown label {a!r} in pair ({a!r}, {b!r})")
        if b not in idx:
            raise ValueError(f"unknown label {b!r} in pair ({a!r}, {b!r})")
        pairs.append((idx[a], idx[b]))
    return FinPreorder(tuple(labels), transitive_reflexive_closure(len(labels), pairs))


def identity(space: FinPreorder) -> MonotoneMap:
    return MonotoneMap(space, space, tuple(range(len(space))))


def compose(f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
    """The composite "f then g"; requires target of f = source of g."""
    if f.target != g.source:
        raise ValueError("mismatched endpoints: target of f is not source of g")
    return MonotoneMap(f.source, g.target, tuple(g.assign[v] for v in f.assign))


def is_isomorphism(f: MonotoneMap) -> bool:
    """True iff f is bijective and its inverse is monotone."""
    n, m = len(f.source), len(f.target)
    if n != m or len(set(f.assign)) != n:
        return False
    for x in range(n):
        for y in range(n):
            if f.target.leq[f.assign[x]][f.assign[y]] and not f.source.leq[x][y]:
                return False
    return True


def to_point(space: FinPreorder) -> MonotoneMap:
    """The unique map into the one-point space."""
    return MonotoneMap(space, PT, (0,) * len(space))


def monotone_assignments(
    source: FinPreorder, target: FinPreorder, candidates: Sequence[Sequence[int]]
) -> Iterator[tuple[int, ...]]:
    """Yield every monotone assignment with ``assign[x]`` in ``candidates[x]``.

    Assignments come out as tuples in lexicographic order, taking each
    ``candidates[x]`` in its given order.  Source indices are placed in
    order.  On reaching index x the search intersects the target's up and
    down row masks of the values at the earlier comparable indices, so each
    candidate for x costs one bit test.  The search keeps an explicit stack
    of candidate iterators, one per placed index, instead of recursing, so
    its depth is not bounded by the interpreter's recursion limit; the last
    index is placed in one loop over its candidates.
    """
    n = len(source.labels)
    if n == 0:
        yield ()
        return
    earlier = source.earlier_relations
    up, down = target.order_masks
    last = n - 1
    assign = [0] * n
    stack: list[tuple[Iterator[int], int]] = []
    x = 0
    while True:
        below, above = earlier[x]
        allowed = -1
        for p in below:
            allowed &= up[assign[p]]
        for p in above:
            allowed &= down[assign[p]]
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


def enumerate_preorders(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> list[FinPreorder]:
    """All labeled preorders on carriers of size 0..n, each exactly once.

    Labels are canonical (e0, e1, ...).  Within one size, matrices come out
    in row-major lexicographic order.  Raises when n exceeds the cap.
    """
    if n < 0:
        raise ValueError("size bound must be nonnegative")
    if n > size_cap:
        raise ValueError(f"size bound {n} exceeds the hard cap {size_cap}")
    out: list[FinPreorder] = []
    for k in range(n + 1):
        labels = tuple(f"e{i}" for i in range(k))
        for rows in _transitive_row_masks(k):
            leq = tuple(tuple(bool(rows[x] >> y & 1) for y in range(k)) for x in range(k))
            out.append(FinPreorder(labels, leq))
    return out


def _transitive_row_masks(k: int):
    """Yield reflexive-transitive relations on k elements as row bitmasks.

    Rows are chosen one at a time; a partial choice is abandoned as soon as
    it violates transitivity among the rows fixed so far.  Candidate rows
    are ordered so complete matrices appear in row-major lexicographic order.
    """
    if k == 0:
        yield ()
        return
    candidates_per_row = []
    for x in range(k):
        cands = []
        for bits in itertools.product((0, 1), repeat=k):
            if bits[x]:
                cands.append(sum(b << y for y, b in enumerate(bits)))
        candidates_per_row.append(cands)
    rows = [0] * k

    def place(x: int):
        if x == k:
            yield tuple(rows)
            return
        for mask in candidates_per_row[x]:
            ok = True
            for p in range(x):
                if rows[p] >> x & 1 and mask & ~rows[p]:
                    ok = False
                    break
                if mask >> p & 1 and rows[p] & ~mask:
                    ok = False
                    break
            if ok:
                rows[x] = mask
                yield from place(x + 1)

    yield from place(0)


def are_isomorphic(p: FinPreorder, q: FinPreorder) -> bool:
    """True iff some relabeling carries p onto q (order both ways)."""
    n = len(p)
    if n != len(q):
        return False
    for perm in itertools.permutations(range(n)):
        if all(
            p.leq[x][y] == q.leq[perm[x]][perm[y]] for x in range(n) for y in range(n)
        ):
            return True
    return False


def dedupe_up_to_iso(spaces: list[FinPreorder]) -> list[FinPreorder]:
    """Keep the first representative of each isomorphism class.

    Optional filter; the quantification universes stay labeled.
    """
    reps: list[FinPreorder] = []
    for space in spaces:
        if not any(are_isomorphic(space, r) for r in reps):
            reps.append(space)
    return reps


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
