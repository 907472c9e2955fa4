"""Direct order-theoretic and topological predicates.

These are the ground truth the lifting characterizations are checked
against: each one reads off the definition (images, up-sets, closures,
components) without going through any lifting problem.
"""

from __future__ import annotations

from ._value import Value
from .preorder import FinPreorder, MonotoneMap


def is_surjective(f: MonotoneMap) -> bool:
    return set(f.assign) == set(range(len(f.target)))


def is_injective(f: MonotoneMap) -> bool:
    return len(set(f.assign)) == len(f.assign)


class Pi0Partition(Value):
    """Partition of a space into connected components.

    ``component_of[x]`` is the component id of point x; ids are assigned by
    first occurrence, so component 0 contains the lowest-indexed point.
    """

    __slots__ = ("space", "component_of", "component_count")
    space: FinPreorder
    component_of: tuple[int, ...]
    component_count: int

    def members(self, component: int) -> tuple[int, ...]:
        return tuple(x for x, c in enumerate(self.component_of) if c == component)


def pi0(space: FinPreorder) -> Pi0Partition:
    """Connected components: the equivalence generated by comparability."""
    n = len(space)
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
                if component_of[y] == -1 and (space.leq[x][y] or space.leq[y][x]):
                    component_of[y] = count
                    stack.append(y)
        count += 1
    return Pi0Partition(space, tuple(component_of), count)


def pi0_map(f: MonotoneMap) -> tuple[int, ...]:
    """The function on component ids induced by f.

    Entry c is the target component containing the image of source
    component c; monotone maps never split a component, so this is
    well defined.
    """
    src, tgt = pi0(f.source), pi0(f.target)
    induced = [-1] * src.component_count
    for x, v in enumerate(f.assign):
        induced[src.component_of[x]] = tgt.component_of[v]
    return tuple(induced)


def pi0_injective(f: MonotoneMap) -> bool:
    """True iff distinct source components land in distinct target components."""
    induced = pi0_map(f)
    return len(set(induced)) == len(induced)


def is_connected(space: FinPreorder) -> bool:
    """At most one connected component; the empty space counts as connected."""
    return pi0(space).component_count <= 1


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
