"""Deciding the lifting property and the operators built on it.

``lifting_check(f, g)`` holds when every commuting square with f on the
left and g on the right admits a diagonal making both triangles commute.
On top of that single decision procedure sit the named characterizations
(surjective, T0, Hausdorff, ...), one table of lifting forms that every
property is decided through, orthogonal classes over the maps between
given spaces, mono/epi tests over the spaces of a size bound, and the
self-lifting scan.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import itemgetter

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
    _first_of_each_class,
    class_of,
    codiagonal,
    diagonal,
    enumerate_preorders,
    hom_enumerate,
    monotone_assignments,
    to_point,
)

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
        # Endpoints are usually the very same space objects, so identity is
        # tested before the full comparison of labels and relation.
        f, g, i, j = left, right, top, bottom
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
        _set_left(self, left)
        _set_right(self, right)
        _set_top(self, top)
        _set_bottom(self, bottom)


_set_left, _set_right, _set_top, _set_bottom = Square._setters


class LiftResult(Value):
    """Outcome of a lifting query.

    ``counterexample`` is present exactly when the property fails; it is a
    commuting square admitting no diagonal.
    """

    __slots__ = ("holds", "counterexample")
    holds: bool
    counterexample: Square | None

    def __init__(self, holds, counterexample) -> None:
        _set_holds(self, holds)
        _set_counterexample(self, counterexample)


_set_holds, _set_counterexample = LiftResult._setters

# Results are immutable, so every holding check returns this one.
_HOLDS = LiftResult(True, None)


def fibre_table(g: MonotoneMap) -> list[list[int]]:
    """For each point y of g's target, the points x of its source with g(x) = y, in order."""
    fibres: list[list[int]] = [[] for _ in g.target.labels]
    for x, y in enumerate(g.assign):
        fibres[y].append(x)
    return fibres


def find_diagonal(square: Square) -> MonotoneMap | None:
    """Lex-least monotone d: B->X with d after f = top and g after d = bottom.

    The validating form of _diagonal, which runs the search on the
    square's assignments and the fibre_table of its right map; the
    assignment found is built as a MonotoneMap.
    """
    f, g, i, j = square.left, square.right, square.top, square.bottom
    assign = _diagonal(f.assign, i.assign, j.assign, f.target, g.source, fibre_table(g))
    return None if assign is None else MonotoneMap(f.target, g.source, assign)


def _diagonal(
    f_assign: tuple[int, ...],
    i_assign: tuple[int, ...],
    j_assign: tuple[int, ...],
    mid_src: FinPreorder,
    mid_tgt: FinPreorder,
    fibres: list[list[int]],
) -> tuple[int, ...] | None:
    """The lex-least diagonal's assignment of a commuting square, or None.

    The square is given by the assignments of its left map f: A->B, top
    and bottom, by B and X, and by the fibres of its right map g: X->Y.
    Values on the image of f are forced by the top triangle, so they are
    propagated first and two different forced values end the search at
    once.  A forced value lies in the fibre of g over j(b) already, since
    the square commutes.  Every other point b ranges over that fibre; an
    empty fibre ends the search before it starts.  Fibres are ascending,
    so putting every free point at the first entry of its fibre gives the
    lex-least candidate assignment.  That probe is tested for monotonicity
    once; when it passes it is the answer, the first assignment
    monotone_assignments would yield.  Only when it fails and some free
    point has two or more candidates does monotone_assignments search.
    """
    probe: list[int | None] = [None] * len(mid_src.labels)
    for b, x in zip(f_assign, i_assign):
        if probe[b] is None:
            probe[b] = x
        elif probe[b] != x:
            return None
    several = False
    for b, x in enumerate(probe):
        if x is None:
            fibre = fibres[j_assign[b]]
            if not fibre:
                return None
            probe[b] = fibre[0]
            if len(fibre) > 1:
                several = True
    if _is_monotone(mid_src, mid_tgt, probe):
        return tuple(probe)
    if not several:
        return None
    # The forced values agree by now, so a dict holds them exactly.
    forced = dict(zip(f_assign, i_assign))
    candidates = [(forced[b],) if b in forced else fibres[y] for b, y in enumerate(j_assign)]
    return next(monotone_assignments(mid_src, mid_tgt, candidates), None)


def _is_monotone(source: FinPreorder, target: FinPreorder, assign: list[int]) -> bool:
    """The check MonotoneMap makes, without building a map that fails it."""
    t_leq = target.leq
    for x, above in source.strict_above:
        row = t_leq[assign[x]]
        for y in above:
            if not row[assign[y]]:
                return False
    return True


def lifting_check(f: MonotoneMap, g: MonotoneMap, cache: HomCache | None = None) -> LiftResult:
    """Decide whether f lifts against g (f on the left, g on the right).

    A square with top i and bottom j commutes exactly when g after i and
    j after f agree on every point of A.  The bottoms are therefore indexed
    by their values on the image of f (j after f), each bucket in
    hom_enumerate order, and each top, also in hom_enumerate order, visits
    only the bucket under its g after i; non-commuting pairs are skipped by
    the index without being looked at.  Both keys are read by one
    itemgetter call over the points of A in order: a tuple, a bare value
    when |A| = 1, and () when A is empty.  The commuting squares keep the
    order of a full scan, top map outer and bottom map inner, so the
    counterexample is that of that scan.  The fibres of g are built once,
    at the first commuting square.  Each commuting square is decided on
    the assignment tuples of its maps by _diagonal, and a validating
    Square is built only for the counterexample; no diagonal becomes a
    MonotoneMap.  Cost: (|tops| + |bottoms|) * |A| to index, plus one
    _diagonal per commuting square visited: one monotonicity probe of |B|
    points, and a search only for the squares whose probe fails while
    some point has several candidates.
    """
    cache = HomCache() if cache is None else cache
    tops = cache.hom(f.source, g.source)
    bottoms = cache.hom(f.target, g.target)
    f_assign, g_assign = f.assign, g.assign
    by_image: dict = {}
    if f_assign:
        key = itemgetter(*f_assign)
        for j in bottoms:
            by_image.setdefault(key(j.assign), []).append(j)
    else:
        by_image[()] = bottoms
    mid_src, mid_tgt = f.target, g.source
    fibres = None
    for i in tops:
        points = i.assign
        for j in by_image.get(itemgetter(*points)(g_assign) if points else (), ()):
            if fibres is None:
                fibres = fibre_table(g)
            if _diagonal(f_assign, points, j.assign, mid_src, mid_tgt, fibres) is None:
                return LiftResult(False, Square(f, g, i, j))
    return _HOLDS


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
    return _HOLDS


# The lifting form of each named property: the kind of argument it takes,
# and a builder of the (left, right) pairs whose lifts together decide it.
# Hausdorff quantifies over embeddings of the discrete pair, tested against
# the three-point space with two open tops.  A repeated point can never be
# sent to the two incomparable tops, so only injective pairs are quantified;
# otherwise every nonempty space would fail.
_FORMS = {
    "surjective": (MonotoneMap, lambda f, cache: ((EMPTY_TO_PT, f),)),
    "injective": (MonotoneMap, lambda f, cache: ((CODIAG, f),)),
    "dense": (MonotoneMap, lambda f, cache: ((f, PT_TO_SIERP_CLOSED),)),
    "induced": (MonotoneMap, lambda f, cache: ((f, SIERP_TO_PT),)),
    "pi0-injective": (MonotoneMap, lambda f, cache: ((f, CODIAG),)),
    "connected": (FinPreorder, lambda p, cache: ((to_point(p), CODIAG),)),
    "T0": (FinPreorder, lambda p, cache: ((INDISC_TO_PT, to_point(p)),)),
    "T1": (FinPreorder, lambda p, cache: ((SIERP_TO_PT, to_point(p)),)),
    "hausdorff": (FinPreorder, lambda p, cache: (
        (a, to_point(VEE)) for a in cache.hom(TWO, p) if is_injective(a)
    )),
}
MAP_PROPERTIES = tuple(name for name, (kind, _) in _FORMS.items() if kind is MonotoneMap)
SPACE_PROPERTIES = tuple(name for name, (kind, _) in _FORMS.items() if kind is FinPreorder)
PROPERTY_IDS = MAP_PROPERTIES + SPACE_PROPERTIES


def characterize(name: str, arg, cache: HomCache | None = None) -> LiftResult:
    """Decide a named property of a space or map via its lifting form.

    Space properties (connected, T0, T1, hausdorff) take a FinPreorder;
    the rest take a MonotoneMap.  The property's ``_FORMS`` entry builds
    (left, right) pairs from the argument and the built-in constant maps;
    it holds when all lift, else the first failing lift is returned.
    """
    form = _FORMS.get(name)
    if form is None:
        raise ValueError(f"unknown property {name!r}")
    kind, pairs = form
    if not isinstance(arg, kind):
        noun = "map" if kind is MonotoneMap else "space"
        raise ValueError(f"property {name!r} applies to a {noun}, got {type(arg).__name__}")
    cache = HomCache() if cache is None else cache
    return _lift_all(pairs(arg, cache), cache)


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


def mono_lift_result(
    f: MonotoneMap, spaces: Iterable[FinPreorder], cache: HomCache | None = None
) -> LiftResult:
    """Lifting reading of mono: the codiagonal of every test space Z lifts against f.

    Only the first test space of each isomorphism class is decided.  The
    codiagonals of isomorphic spaces are isomorphic arrows, so a later
    space of the class has the same verdict; the first failing space, and
    so the counterexample, is the one a check of every space finds.
    """
    return _lift_all(((codiagonal(z), f) for z in _first_of_each_class(spaces)), cache)


def epi_lift_result(
    f: MonotoneMap, spaces: Iterable[FinPreorder], cache: HomCache | None = None
) -> LiftResult:
    """Lifting reading of epi: f lifts against the diagonal of every test space Z.

    As for mono_lift_result, only the first test space of each isomorphism
    class is decided: the diagonals of isomorphic spaces are isomorphic.
    """
    return _lift_all(((f, diagonal(z)) for z in _first_of_each_class(spaces)), cache)


def is_mono_upto(
    f: MonotoneMap, spaces: Iterable[FinPreorder], cache: HomCache | None = None
) -> bool:
    return mono_lift_result(f, spaces, cache).holds


def is_epi_upto(
    f: MonotoneMap, spaces: Iterable[FinPreorder], cache: HomCache | None = None
) -> bool:
    return epi_lift_result(f, spaces, cache).holds


def is_mono_cancellation(
    f: MonotoneMap, spaces: Iterable[FinPreorder], cache: HomCache | None = None
) -> bool:
    """Direct mono definition: f is left-cancellable against the test spaces.

    The probe maps Z -> source(f) are enumerated in full, so f itself may
    have endpoints that are not test spaces.
    """
    cache = HomCache() if cache is None else cache
    f_assign = f.assign
    return all(
        _distinct(tuple([f_assign[v] for v in g.assign]) for g in cache.hom(z, f.source))
        for z in spaces
    )


def is_epi_cancellation(
    f: MonotoneMap, spaces: Iterable[FinPreorder], cache: HomCache | None = None
) -> bool:
    """Direct epi definition: f is right-cancellable against the test spaces."""
    cache = HomCache() if cache is None else cache
    f_assign = f.assign
    return all(
        _distinct(tuple([h.assign[v] for v in f_assign]) for h in cache.hom(f.target, z))
        for z in spaces
    )


def _distinct(assignments: Iterable[tuple[int, ...]]) -> bool:
    """Whether no assignment repeats, stopping at the first repeat."""
    seen: set[tuple[int, ...]] = set()
    for assign in assignments:
        if assign in seen:
            return False
        seen.add(assign)
    return True


def orthogonal_class(
    side: str,
    tests: list[MonotoneMap],
    spaces: Iterable[FinPreorder],
    cache: HomCache | None = None,
) -> list[MonotoneMap]:
    """Maps between the given spaces lifting against every test, on the given side.

    side="right" keeps g with t lifting against g for all tests t;
    side="left" keeps f with f lifting against all tests.  ``spaces`` is
    read once, and its spaces may have any size.  Output runs over
    (source, target) pairs in ``spaces`` order, source outer, and each
    hom-set in hom_enumerate order.

    Only maps between representatives are decided: the space
    FinPreorder(("e0", ...), form) of each class, read with its
    automorphism group from class_of, which also carries a space P onto
    its representative by perm_P (point x of the representative is
    point perm_P[x] of P), so a0: P0 -> Q0 moves to
    a: P -> Q with a[perm_P[x]] = perm_Q[a0[x]].  The move is an
    isomorphism in the arrow category, and a lifting property against a
    fixed test is invariant under those: a commuting square, and a
    diagonal of it, transport along them.  So the moved holding maps of
    hom(P0, Q0), sorted, are the holding maps of hom(P, Q) in
    hom_enumerate order, and no failing labeled map is built.

    The same argument runs inside hom(P0, Q0).  For automorphisms sigma
    of P0 and tau of Q0, (sigma, tau) is an isomorphism in the arrow
    category from a to the b with b[sigma[x]] = tau[a[x]], so a and b
    hold together.  The hom-set is walked in order, and only a map whose
    verdict is still unknown is decided; its verdict is then given to its
    whole Aut(P0) x Aut(Q0) orbit.  Each group holds the inverse of each
    member, so the orbit is also every tau after a after sigma, which is
    how it is built; when both groups are trivial, it is the map itself.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    cache = HomCache() if cache is None else cache
    right = side == "right"
    moves = []
    for space in spaces:
        rep, perm = class_of(space)
        inverse = tuple(map(perm.index, range(len(perm))))
        moves.append((space, rep.space, rep.group, perm, inverse))
    holding: dict[tuple[FinPreorder, FinPreorder], list[tuple[int, ...]]] = {}
    out = []
    for p, p_rep, p_group, _, p_inverse in moves:
        for q, q_rep, q_group, q_perm, _ in moves:
            kept = holding.get((p_rep, q_rep))
            if kept is None:
                kept = holding[p_rep, q_rep] = []
                verdicts: dict[tuple[int, ...], bool] = {}
                for m in cache.hom(p_rep, q_rep):
                    a = m.assign
                    holds = verdicts.get(a)
                    if holds is None:
                        pairs = ((t, m) if right else (m, t) for t in tests)
                        holds = _lift_all(pairs, cache).holds
                        for sigma in p_group:
                            for tau in q_group:
                                verdicts[tuple([tau[a[x]] for x in sigma])] = holds
                    if holds:
                        kept.append(a)
            moved = sorted(tuple([q_perm[a0[x]] for x in p_inverse]) for a0 in kept)
            out.extend(MonotoneMap(p, q, a) for a in moved)
    return out


def self_lifting_scan(universe: Universe, cache: HomCache | None = None) -> list[MonotoneMap]:
    """All maps of the universe lifting against themselves.

    These are exactly the isomorphisms: a non-isomorphism never has the
    lifting property relative to itself.
    """
    cache = HomCache() if cache is None else cache
    return [f for f in universe.maps if lifting_check(f, f, cache).holds]
