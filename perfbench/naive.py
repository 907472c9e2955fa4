"""Independent reference answers, written from the definitions.

Nothing here imports liftprop.  A space is a pair ``(labels, leq)`` with
``leq[x][y]`` meaning x <= y; a map is a triple ``(source, target, assign)``.
The search below is deliberately plain: hom-sets are assignment tuples in
lexicographic order, a lift is decided by indexing every candidate diagonal,
and the counterexample audit tries every assignment of the free points.
"""

from __future__ import annotations

import functools
from itertools import product

# Number of labeled preorders (finite topologies) on n points, OEIS A000798.
LABELED_PREORDERS = (1, 1, 4, 29, 355, 6942)


def closure(n, pairs):
    """Reflexive-transitive closure of generating index pairs, as a bool matrix."""
    rel = [[x == y for y in range(n)] for x in range(n)]
    for x, y in pairs:
        rel[x][y] = True
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(n):
                if rel[x][y]:
                    for z in range(n):
                        if rel[y][z] and not rel[x][z]:
                            rel[x][z] = changed = True
    return tuple(tuple(row) for row in rel)


def space(labels, pairs=()):
    """A space from labels and generating label pairs."""
    idx = {a: i for i, a in enumerate(labels)}
    return (tuple(labels), closure(len(labels), [(idx[a], idx[b]) for a, b in pairs]))


EMPTY = space([])
PT = space(["pt"])
TWO = space(["p", "q"])
SIERP = space(["b", "s"], [("b", "s")])
INDISC = space(["x", "y"], [("x", "y"), ("y", "x")])
VEE = space(["l", "m", "r"], [("m", "l"), ("m", "r")])
SPACES = {"EMPTY": EMPTY, "PT": PT, "TWO": TWO, "SIERP": SIERP, "INDISC": INDISC, "VEE": VEE}


def to_point(s):
    return (s, PT, (0,) * len(s[0]))


MAPS = {
    "EMPTY_TO_PT": (EMPTY, PT, ()),
    "CODIAG": (TWO, PT, (0, 0)),
    "SIERP_TO_PT": to_point(SIERP),
    "INDISC_TO_PT": to_point(INDISC),
    "PT_TO_SIERP_CLOSED": (PT, SIERP, (0,)),
}


def is_monotone(src, tgt, assign):
    s, t = src[1], tgt[1]
    n = len(s)
    return all(t[assign[x]][assign[y]] for x in range(n) for y in range(n) if s[x][y])


def homs(src, tgt):
    """All monotone assignments src -> tgt in lexicographic order."""
    return _homs(src[1], tgt[1])


@functools.cache
def _homs(s, t):
    # Grows assignments one point at a time and drops a prefix as soon as
    # it breaks monotonicity between assigned points.
    n, m = len(s), len(t)
    prefixes = [()]
    for x in range(n):
        prefixes = [
            p + (v,)
            for p in prefixes
            for v in range(m)
            if all((not s[y][x] or t[p[y]][v]) and (not s[x][y] or t[v][p[y]]) for y in range(x))
        ]
    return prefixes


def forget() -> None:
    """Drop memoized hom-sets and spaces, so a new set-up pays for its own."""
    _homs.cache_clear()
    preorders.cache_clear()


def lift(f, g):
    """Decide f |> g; return (holds, first failing (top, bottom) or None).

    Squares are taken top-major, bottom-minor, both in hom order, which is
    the order the engine promises for its reported counterexample.
    """
    (a, b, fa), (x, y, ga) = f, g
    diagonals = {
        (tuple(d[v] for v in fa), tuple(ga[v] for v in d)) for d in homs(b, x)
    }
    by_restriction = {}
    for j in homs(b, y):
        by_restriction.setdefault(tuple(j[v] for v in fa), []).append(j)
    for i in homs(a, x):
        for j in by_restriction.get(tuple(ga[v] for v in i), ()):
            if (i, j) not in diagonals:
                return False, (i, j)
    return True, None


def audit(f, g, top, bottom):
    """True iff (top, bottom) is a commuting square for f, g with no diagonal.

    Tries every assignment of the points of B outside the image of f; the
    points in the image are pinned by the top triangle.
    """
    (a, b, fa), (x, y, ga) = f, g
    if len(top) != len(a[0]) or len(bottom) != len(b[0]):
        return False
    if any(ga[top[k]] != bottom[fa[k]] for k in range(len(fa))):
        return False
    pinned = {}
    for k, v in enumerate(fa):
        if pinned.setdefault(v, top[k]) != top[k]:
            return True
    free = [v for v in range(len(b[0])) if v not in pinned]
    for values in product(range(len(x[0])), repeat=len(free)):
        d = [0] * len(b[0])
        for v, w in pinned.items():
            d[v] = w
        for v, w in zip(free, values):
            d[v] = w
        if all(ga[d[v]] == bottom[v] for v in range(len(d))) and is_monotone(b, x, d):
            return False
    return True


def is_isomorphism(f):
    src, tgt, assign = f
    n = len(src[0])
    if n != len(tgt[0]) or len(set(assign)) != n:
        return False
    return all(src[1][x][y] == tgt[1][assign[x]][assign[y]] for x in range(n) for y in range(n))


@functools.cache
def preorders(max_size):
    """Every labeled preorder on e0..e(k-1), k <= max_size, in row-major order."""
    out = []
    for k in range(max_size + 1):
        labels = tuple(f"e{i}" for i in range(k))
        for bits in product((False, True), repeat=k * k):
            leq = tuple(bits[r * k:(r + 1) * k] for r in range(k))
            if closure(k, [(r, c) for r in range(k) for c in range(k) if leq[r][c]]) == leq:
                out.append((labels, leq))
    return tuple(out)


def universe_maps(spaces):
    return [(p, q, d) for p in spaces for q in spaces for d in homs(p, q)]


def mono(f, spaces):
    """Left cancellation of f against every probe space: u.f = v.f forces u = v."""
    src, _, fa = f
    for z in spaces:
        images = [tuple(fa[v] for v in u) for u in homs(z, src)]
        if len(set(images)) != len(images):
            return False
    return True


def epi(f, spaces):
    """Right cancellation of f against every probe space: f.h = f.k forces h = k."""
    _, tgt, fa = f
    for z in spaces:
        images = [tuple(h[v] for v in fa) for h in homs(tgt, z)]
        if len(set(images)) != len(images):
            return False
    return True


def lifting_form(prop, arg):
    """The lifting statements named properties stand for, as (left, right) pairs.

    ``hausdorff`` is a conjunction over the injective maps TWO -> arg, in hom
    order; every other property is a single statement.
    """
    if prop == "surjective":
        return [(MAPS["EMPTY_TO_PT"], arg)]
    if prop == "injective":
        return [(MAPS["CODIAG"], arg)]
    if prop == "dense":
        return [(arg, MAPS["PT_TO_SIERP_CLOSED"])]
    if prop == "induced":
        return [(arg, MAPS["SIERP_TO_PT"])]
    if prop == "pi0-injective":
        return [(arg, MAPS["CODIAG"])]
    if prop == "connected":
        return [(to_point(arg), MAPS["CODIAG"])]
    if prop == "T0":
        return [(MAPS["INDISC_TO_PT"], to_point(arg))]
    if prop == "T1":
        return [(MAPS["SIERP_TO_PT"], to_point(arg))]
    if prop == "hausdorff":
        pairs = [p for p in homs(TWO, arg) if p[0] != p[1]]
        return [((TWO, arg, p), to_point(VEE)) for p in pairs]
    raise ValueError(f"unknown property {prop!r}")


def decide_all(pairs):
    """Conjunction of lifts: (holds, failing (f, g, top, bottom) or None)."""
    for f, g in pairs:
        holds, square = lift(f, g)
        if not holds:
            return False, (f, g) + square
    return True, None


def label_pairs(src, tgt, assign):
    return [[src[0][v], tgt[0][w]] for v, w in enumerate(assign)]
