"""Direct order-theoretic and topological predicates.

These are the ground truth the lifting characterizations are checked
against: each one reads off the definition (images, up-sets, closures,
components) without going through any lifting problem.
"""

from __future__ import annotations

from .preorder import FinPreorder, MonotoneMap


def is_surjective(f: MonotoneMap) -> bool:
    return set(f.assign) == set(range(len(f.target)))


def is_injective(f: MonotoneMap) -> bool:
    return len(set(f.assign)) == len(f.assign)


def pi0_map(f: MonotoneMap) -> tuple[int, ...]:
    """The function on component ids induced by f.

    Entry c is the target component containing the image of source
    component c; monotone maps never split a component, so this is
    well defined.
    """
    src_of, src_count = f.source.components
    tgt_of = f.target.components[0]
    induced = [-1] * src_count
    for x, v in enumerate(f.assign):
        induced[src_of[x]] = tgt_of[v]
    return tuple(induced)


def pi0_injective(f: MonotoneMap) -> bool:
    """True iff distinct source components land in distinct target components."""
    induced = pi0_map(f)
    return len(set(induced)) == len(induced)


def is_connected(space: FinPreorder) -> bool:
    """At most one connected component; the empty space counts as connected."""
    return space.components[1] <= 1


def is_T0(space: FinPreorder) -> bool:
    """No two distinct points are comparable both ways."""
    n = len(space)
    return all(
        not (space.leq[x][y] and space.leq[y][x])
        for x in range(n)
        for y in range(x + 1, n)
    )


def is_T1(space: FinPreorder) -> bool:
    """Every point is closed; for a finite space this makes the order discrete."""
    n = len(space)
    return all(not space.leq[x][y] for x in range(n) for y in range(n) if x != y)


def is_hausdorff(space: FinPreorder) -> bool:
    """Any two distinct points have disjoint open neighborhoods.

    Minimal open neighborhoods are the up-sets, so it suffices to test
    those for disjointness.
    """
    n = len(space)
    return all(
        not (space.up_set(x) & space.up_set(y)) for x in range(n) for y in range(x + 1, n)
    )


def has_dense_image(f: MonotoneMap) -> bool:
    """The closure (down-closure) of the image is the whole target."""
    below_image = set()
    for v in set(f.assign):
        below_image |= f.target.down_set(v)
    return below_image == set(range(len(f.target)))


def has_induced_topology(f: MonotoneMap) -> bool:
    """The source order is exactly the one pulled back along f.

    Monotonicity gives one direction; this checks the converse, that
    f(x) <= f(y) already forces x <= y.
    """
    n = len(f.source)
    return all(
        f.source.leq[x][y]
        for x in range(n)
        for y in range(n)
        if f.target.leq[f.assign[x]][f.assign[y]]
    )
