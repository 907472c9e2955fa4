"""Direct topological predicates, cross-checked against alternative formulations."""

import itertools
import random

from liftprop import (
    EMPTY,
    INDISC,
    PT,
    SIERP,
    TWO,
    VEE,
    MonotoneMap,
    build_space,
    compose,
    enumerate_preorders,
    has_dense_image,
    has_induced_topology,
    is_T0,
    is_T1,
    is_connected,
    is_hausdorff,
    is_injective,
    is_surjective,
    pi0_injective,
    pi0_map,
    to_point,
)
from liftprop.lifting import Universe


def test_surjective_and_injective_read_assignments():
    collapse = MonotoneMap(TWO, PT, (0, 0))
    include = MonotoneMap(PT, TWO, (1,))
    assert is_surjective(collapse) and not is_injective(collapse)
    assert is_injective(include) and not is_surjective(include)
    assert is_surjective(to_point(EMPTY)) is False
    assert is_injective(MonotoneMap(EMPTY, EMPTY, ()))


def test_pi0_counts_zigzag_components():
    assert VEE.components[1] == 1
    assert TWO.components[1] == 2
    assert EMPTY.components[1] == 0
    assert SIERP.components[1] == 1


def test_pi0_component_ids_follow_first_occurrence():
    space = build_space(["a", "b", "c"], [("a", "c")])
    component_of, count = space.components
    assert component_of == (0, 1, 0) and count == 2
    assert [x for x, c in enumerate(component_of) if c == 0] == [0, 2]
    assert [x for x, c in enumerate(component_of) if c == 1] == [1]


def symmetric_reach(space):
    n = len(space)
    reach = [[x == y or space.leq[x][y] or space.leq[y][x] for y in range(n)] for x in range(n)]
    for k in range(n):
        for x in range(n):
            for y in range(n):
                reach[x][y] = reach[x][y] or (reach[x][k] and reach[k][y])
    return reach


def test_pi0_matches_symmetrized_reachability():
    for space in enumerate_preorders(3):
        component_of = space.components[0]
        reach = symmetric_reach(space)
        for x in range(len(space)):
            for y in range(len(space)):
                assert (component_of[x] == component_of[y]) == reach[x][y]


def test_pi0_reads_components_the_space_computed_once():
    space = build_space(["a", "b", "c"], [("a", "b")])
    first = space.components
    assert first is space.components
    assert space._components == ((0, 0, 1), 2)


def test_pi0_map_of_a_collapse():
    f = MonotoneMap(TWO, PT, (0, 0))
    assert pi0_map(f) == (0, 0)
    assert not pi0_injective(f)


def test_pi0_injective_examples():
    assert pi0_injective(MonotoneMap(TWO, TWO, (0, 1)))
    assert pi0_injective(to_point(VEE))
    assert pi0_injective(to_point(EMPTY))
    assert not pi0_injective(MonotoneMap(TWO, INDISC, (0, 1)))


def test_pi0_map_is_well_defined_pointwise_everywhere():
    # induced[c] is recorded from one representative; checking it at every
    # point of every map up to size 3 implies pi0 functoriality for every
    # composable pair there: both sides of the composite identity reduce
    # to the same pointwise values once each single map is well defined.
    universe = Universe.build(3)
    for f in universe.maps:
        induced = pi0_map(f)
        src = f.source.components[0]
        tgt = f.target.components[0]
        for x, v in enumerate(f.assign):
            assert induced[src[x]] == tgt[v]


def test_pi0_functoriality_exhaustive_on_small_universe():
    universe = Universe.build(2)
    by_source = {}
    for m in universe.maps:
        by_source.setdefault(m.source, []).append(m)
    for f in universe.maps:
        for g in by_source.get(f.target, ()):
            left = pi0_map(compose(f, g))
            pf, pg = pi0_map(f), pi0_map(g)
            assert left == tuple(pg[c] for c in pf)


def test_pi0_functoriality_sampled_at_size_three():
    universe = Universe.build(3)
    by_source = {}
    for m in universe.maps:
        by_source.setdefault(m.source, []).append(m)
    pairs = []
    rng = random.Random(0)
    for _ in range(2000):
        f = universe.maps[rng.randrange(len(universe.maps))]
        following = by_source.get(f.target, ())
        if following:
            pairs.append((f, following[rng.randrange(len(following))]))
    assert pairs
    for f, g in pairs:
        pf, pg = pi0_map(f), pi0_map(g)
        assert pi0_map(compose(f, g)) == tuple(pg[c] for c in pf)


def test_connected_examples():
    assert is_connected(VEE)
    assert is_connected(SIERP)
    assert is_connected(PT)
    assert not is_connected(TWO)


def test_empty_space_counts_as_connected():
    assert is_connected(EMPTY)


def test_connected_matches_component_count():
    for space in enumerate_preorders(4):
        assert is_connected(space) == (space.components[1] <= 1)
        assert is_connected(space) == (len({tuple(row) for row in symmetric_reach(space)}) <= 1)


def test_separation_axiom_examples():
    assert is_T0(SIERP) and not is_T1(SIERP)
    assert not is_T0(INDISC) and not is_T1(INDISC)
    assert is_T0(TWO) and is_T1(TWO)
    assert is_T0(EMPTY) and is_T1(EMPTY)


def test_T1_iff_hausdorff_iff_discrete_up_to_size_4():
    for space in enumerate_preorders(4):
        n = len(space)
        discrete = all(not space.leq[x][y] for x in range(n) for y in range(n) if x != y)
        assert is_T1(space) == discrete
        assert is_hausdorff(space) == discrete


def test_hausdorff_examples():
    assert is_hausdorff(TWO) and is_hausdorff(PT) and is_hausdorff(EMPTY)
    assert not is_hausdorff(VEE)
    assert not is_hausdorff(SIERP)


def up_sets(space):
    n = len(space)
    for bits in itertools.product((0, 1), repeat=n):
        subset = {x for x in range(n) if bits[x]}
        if all(y in subset for x in subset for y in range(n) if space.leq[x][y]):
            yield subset


def test_hausdorff_matches_disjoint_open_neighborhoods():
    for space in enumerate_preorders(3):
        n = len(space)
        opens = list(up_sets(space))
        separated = all(
            any(x in u and y in v and not (u & v) for u in opens for v in opens)
            for x in range(n)
            for y in range(n)
            if x != y
        )
        assert is_hausdorff(space) == separated


def test_dense_image_into_sierpinski():
    onto_open = MonotoneMap(PT, SIERP, (1,))
    onto_closed = MonotoneMap(PT, SIERP, (0,))
    assert has_dense_image(onto_open)
    assert not has_dense_image(onto_closed)


def test_dense_iff_every_nonempty_open_meets_image():
    universe = Universe.build(2)
    for f in universe.maps:
        image = set(f.assign)
        meets_all = all(u & image for u in up_sets(f.target) if u)
        assert has_dense_image(f) == meets_all


def test_induced_topology_examples():
    sub = build_space(["b", "s"], [("b", "s")])
    assert has_induced_topology(MonotoneMap(sub, SIERP, (0, 1)))
    assert not has_induced_topology(to_point(SIERP))
    assert has_induced_topology(to_point(INDISC))
    assert has_induced_topology(to_point(PT))
    assert has_induced_topology(MonotoneMap(EMPTY, SIERP, ()))


def test_induced_iff_opens_are_preimages():
    universe = Universe.build(2)
    for f in universe.maps:
        source_opens = {frozenset(u) for u in up_sets(f.source)}
        preimages = {
            frozenset(x for x in range(len(f.source)) if f.assign[x] in v)
            for v in up_sets(f.target)
        }
        assert has_induced_topology(f) == (source_opens == preimages)
