"""Deciding the lifting property and the operators built on it.

``lifting_check(f, g)`` holds when every commuting square with f on the
left and g on the right admits a diagonal making both triangles commute.
On top of that single decision procedure sit the named characterizations
(surjective, T0, Hausdorff, ...), orthogonal classes over a bounded
universe, mono/epi tests, and the self-lifting scan.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._value import Value
from .oracles import is_injective
from .preorder import (
    CODIAG,
    EMPTY_TO_PT,
    INDISC_TO_PT,
    PT_TO_SIERP_CLOSED,
    SIERP_TO_PT,
    TWO,
    VEE,
    FinPreorder,
    MonotoneMap,
    codiagonal,
    compose,
    diagonal,
    enumerate_preorders,
    hom_enumerate,
    monotone_assignments,
    to_point,
)

SPACE_PROPERTIES = ("connected", "T0", "T1", "hausdorff")
MAP_PROPERTIES = ("surjective", "injective", "dense", "induced", "pi0-injective")
PROPERTY_IDS = MAP_PROPERTIES + SPACE_PROPERTIES


class HomCache:
    """Memoized hom-sets, confined to one query evaluation.

    Lifting checks ask for the same hom-sets many times; the cache keys
    them by the (source, target) pair of spaces.
    """

    def __init__(self) -> None:
        self._homs: dict[tuple[FinPreorder, FinPreorder], tuple[MonotoneMap, ...]] = {}

    def hom(self, source: FinPreorder, target: FinPreorder) -> tuple[MonotoneMap, ...]:
        key = (source, target)
        maps = self._homs.get(key)
        if maps is None:
            maps = tuple(hom_enumerate(source, target))
            self._homs[key] = maps
        return maps


class Square(Value):
    """A commuting square: left f: A->B, right g: X->Y, top i: A->X, bottom j: B->Y."""

    __slots__ = ("left", "right", "top", "bottom")
    left: MonotoneMap
    right: MonotoneMap
    top: MonotoneMap
    bottom: MonotoneMap

    def __init__(self, left, right, top, bottom) -> None:
        _set_left(self, left)
        _set_right(self, right)
        _set_top(self, top)
        _set_bottom(self, bottom)
        self.__post_init__()

    def __post_init__(self) -> None:
        # Endpoints are usually the very same space objects, so identity is
        # tested before the full comparison of labels and relation.
        f, g, i, j = self.left, self.right, self.top, self.bottom
        if (i.source is not f.source and i.source != f.source) or (
            i.target is not g.source and i.target != g.source
        ):
            raise ValueError("top map must go from the left source to the right source")
        if (j.source is not f.target and j.source != f.target) or (
            j.target is not g.target and j.target != g.target
        ):
            raise ValueError("bottom map must go from the left target to the right target")
        g_assign, j_assign = g.assign, j.assign
        for label, x, b in zip(f.source.labels, i.assign, f.assign):
            if g_assign[x] != j_assign[b]:
                raise ValueError(f"square does not commute at {label!r}")


_set_left, _set_right, _set_top, _set_bottom = Square._setters


class LiftResult(Value):
    """Outcome of a lifting query.

    ``counterexample`` is present exactly when the property fails; it is a
    commuting square admitting no diagonal.
    """

    __slots__ = ("holds", "counterexample")
    holds: bool
    counterexample: Square | None


def find_diagonal(square: Square) -> MonotoneMap | None:
    """Lex-least monotone d: B->X with d after f = top and g after d = bottom.

    Values on the image of f are forced by the top triangle, so they are
    propagated first and two different forced values end the search at
    once.  Every other point b ranges over the fibre of g over j(b), and
    monotone_assignments searches those candidates.  A point left with no
    candidate (a forced value outside the fibre, or an empty fibre) also
    ends the search before it starts.
    """
    f, g, i, j = square.left, square.right, square.top, square.bottom
    mid_src, mid_tgt = f.target, g.source
    forced: list[int | None] = [None] * len(mid_src.labels)
    for a in range(len(f.source.labels)):
        b, x = f.assign[a], i.assign[a]
        if forced[b] is not None and forced[b] != x:
            return None
        forced[b] = x
    g_assign = g.assign
    candidates = []
    for b, y in enumerate(j.assign):
        x = forced[b]
        if x is None:
            fibre = [v for v, gv in enumerate(g_assign) if gv == y]
            if not fibre:
                return None
            candidates.append(fibre)
        elif g_assign[x] == y:
            candidates.append((x,))
        else:
            return None
    assign = next(monotone_assignments(mid_src, mid_tgt, candidates), None)
    return None if assign is None else MonotoneMap(mid_src, mid_tgt, assign)


def lifting_check(f: MonotoneMap, g: MonotoneMap, cache: HomCache | None = None) -> LiftResult:
    """Decide whether f lifts against g (f on the left, g on the right).

    A square with top i and bottom j commutes exactly when g after i and
    j after f agree on every point of A.  The bottoms are therefore indexed
    by their values on the image of f (j after f), each bucket in
    hom_enumerate order, and each top, also in hom_enumerate order, visits
    only the bucket under its g after i; non-commuting pairs are skipped by
    the index without being looked at.  The commuting squares keep the
    order of a full scan, top map outer and bottom map inner, so the
    counterexample is that of that scan.  Cost:
    (|tops| + |bottoms|) * |A| to index, plus one find_diagonal per
    commuting square visited.
    """
    cache = HomCache() if cache is None else cache
    tops = cache.hom(f.source, g.source)
    bottoms = cache.hom(f.target, g.target)
    f_assign, g_assign = f.assign, g.assign
    by_image: dict[tuple[int, ...], list[MonotoneMap]] = {}
    for j in bottoms:
        j_assign = j.assign
        by_image.setdefault(tuple([j_assign[b] for b in f_assign]), []).append(j)
    for i in tops:
        for j in by_image.get(tuple([g_assign[x] for x in i.assign]), ()):
            square = Square(f, g, i, j)
            if find_diagonal(square) is None:
                return LiftResult(False, square)
    return LiftResult(True, None)


def _lift_all(
    pairs: Iterable[tuple[MonotoneMap, MonotoneMap]], cache: HomCache | None
) -> LiftResult:
    """Conjunction of lifting checks over (left, right) pairs, taken in order.

    Returns the first failing result, or a holding one.
    """
    cache = HomCache() if cache is None else cache
    for f, g in pairs:
        result = lifting_check(f, g, cache)
        if not result.holds:
            return result
    return LiftResult(True, None)


def characterize(name: str, arg, cache: HomCache | None = None) -> LiftResult:
    """Decide a named property of a space or map via its lifting form.

    Space properties (connected, T0, T1, hausdorff) take a FinPreorder;
    the rest take a MonotoneMap.  Each formula plugs the argument and the
    built-in constant maps into lifting_check.
    """
    if name in SPACE_PROPERTIES:
        if not isinstance(arg, FinPreorder):
            raise ValueError(f"property {name!r} applies to a space, got {type(arg).__name__}")
    elif name in MAP_PROPERTIES:
        if not isinstance(arg, MonotoneMap):
            raise ValueError(f"property {name!r} applies to a map, got {type(arg).__name__}")
    else:
        raise ValueError(f"unknown property {name!r}")
    cache = HomCache() if cache is None else cache
    if name == "surjective":
        return lifting_check(EMPTY_TO_PT, arg, cache)
    if name == "injective":
        return lifting_check(CODIAG, arg, cache)
    if name == "dense":
        return lifting_check(arg, PT_TO_SIERP_CLOSED, cache)
    if name == "induced":
        return lifting_check(arg, SIERP_TO_PT, cache)
    if name == "pi0-injective":
        return lifting_check(arg, CODIAG, cache)
    if name == "connected":
        return lifting_check(to_point(arg), CODIAG, cache)
    if name == "T0":
        return lifting_check(INDISC_TO_PT, to_point(arg), cache)
    if name == "T1":
        return lifting_check(SIERP_TO_PT, to_point(arg), cache)
    # hausdorff: conjunction over embeddings of the discrete pair, tested
    # against the three-point space with two open tops.  A repeated point
    # can never be sent to the two incomparable tops, so only injective
    # pairs are quantified; otherwise every nonempty space would fail.
    injective_pairs = (pair for pair in cache.hom(TWO, arg) if is_injective(pair))
    return _lift_all(((pair, to_point(VEE)) for pair in injective_pairs), cache)


class Universe(Value):
    """All labeled spaces up to max_size and all monotone maps between them."""

    __slots__ = ("max_size", "spaces", "maps")
    max_size: int
    spaces: tuple[FinPreorder, ...]
    maps: tuple[MonotoneMap, ...]

    @classmethod
    def build(cls, max_size: int, cache: HomCache | None = None) -> "Universe":
        cache = HomCache() if cache is None else cache
        spaces = tuple(enumerate_preorders(max_size))
        maps = tuple(m for p in spaces for q in spaces for m in cache.hom(p, q))
        return cls(max_size, spaces, maps)


def mono_lift_result(f: MonotoneMap, universe: Universe, cache: HomCache | None = None) -> LiftResult:
    """Lifting reading of mono: the codiagonal of every Z lifts against f."""
    return _lift_all(((codiagonal(z), f) for z in universe.spaces), cache)


def epi_lift_result(f: MonotoneMap, universe: Universe, cache: HomCache | None = None) -> LiftResult:
    """Lifting reading of epi: f lifts against the diagonal of every Z."""
    return _lift_all(((f, diagonal(z)) for z in universe.spaces), cache)


def is_mono_upto(f: MonotoneMap, universe: Universe, cache: HomCache | None = None) -> bool:
    return mono_lift_result(f, universe, cache).holds


def is_epi_upto(f: MonotoneMap, universe: Universe, cache: HomCache | None = None) -> bool:
    return epi_lift_result(f, universe, cache).holds


def is_mono_cancellation(
    f: MonotoneMap, universe: Universe, cache: HomCache | None = None
) -> bool:
    """Direct mono definition: f is left-cancellable against universe sources.

    The probe maps Z -> source(f) are enumerated in full, not restricted
    to maps between universe spaces, so f itself may have endpoints
    outside the universe.
    """
    cache = HomCache() if cache is None else cache
    for z in universe.spaces:
        candidates = cache.hom(z, f.source)
        for a, g1 in enumerate(candidates):
            for g2 in candidates[a + 1 :]:
                if compose(g1, f) == compose(g2, f):
                    return False
    return True


def is_epi_cancellation(
    f: MonotoneMap, universe: Universe, cache: HomCache | None = None
) -> bool:
    """Direct epi definition: f is right-cancellable against universe targets."""
    cache = HomCache() if cache is None else cache
    for z in universe.spaces:
        candidates = cache.hom(f.target, z)
        for a, h1 in enumerate(candidates):
            for h2 in candidates[a + 1 :]:
                if compose(f, h1) == compose(f, h2):
                    return False
    return True


def orthogonal_class(
    side: str,
    tests: list[MonotoneMap],
    universe: Universe,
    cache: HomCache | None = None,
) -> list[MonotoneMap]:
    """Maps of the universe lifting against every test, on the given side.

    side="right" keeps g with t lifting against g for all tests t;
    side="left" keeps f with f lifting against all tests.  Output follows
    universe order.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    cache = HomCache() if cache is None else cache
    out = []
    for m in universe.maps:
        if side == "right":
            ok = all(lifting_check(t, m, cache).holds for t in tests)
        else:
            ok = all(lifting_check(m, t, cache).holds for t in tests)
        if ok:
            out.append(m)
    return out


def self_lifting_scan(universe: Universe, cache: HomCache | None = None) -> list[MonotoneMap]:
    """All maps of the universe lifting against themselves.

    These are exactly the isomorphisms: a non-isomorphism never has the
    lifting property relative to itself.
    """
    cache = HomCache() if cache is None else cache
    return [f for f in universe.maps if lifting_check(f, f, cache).holds]
