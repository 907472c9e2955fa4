"""Core types: spaces, maps, constructions, and enumeration.

Every enumeration result is cross-checked against the brute-force
references of reference.py, independent of the library's search code.
"""

import ast
import copy
import dataclasses
import itertools
import math
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from liftprop import (
    EMPTY,
    INDISC,
    PT,
    SIERP,
    TWO,
    VEE,
    FinPreorder,
    MonotoneMap,
    NotMonotoneError,
    Square,
    build_space,
    codiagonal,
    compose,
    coproduct,
    diagonal,
    enumerate_preorders,
    hom_enumerate,
    identity,
    is_isomorphism,
    product,
    to_point,
)
from liftprop.lifting import LiftResult, Universe
from liftprop import preorder
from liftprop.preorder import are_isomorphic, class_of
from liftprop.notation import (
    CheckQuery,
    CountsOutcome,
    EnumerateQuery,
    Env,
    EpiQuery,
    HomQuery,
    LiftOutcome,
    LiftQuery,
    MapDecl,
    MapListOutcome,
    MonoQuery,
    OrthogonalQuery,
    Program,
    SpaceDecl,
    Token,
)
from liftprop.preorder import monotone_assignments
from liftprop.verify import SuiteReport

import reference


def test_build_space_singleton():
    space = build_space(["a"], [])
    assert space.labels == ("a",)
    assert space.leq == ((True,),)


def test_build_space_two_chain_closure():
    space = build_space(["b", "s"], [("b", "s")])
    assert space.leq == ((True, True), (False, True))


def test_build_space_symmetric_closure():
    space = build_space(["x", "y"], [("x", "y"), ("y", "x")])
    assert space.leq == ((True, True), (True, True))


def test_build_space_longer_chain_closes_transitively():
    space = build_space(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert space.leq[0][2]
    assert not space.leq[2][0]


def test_build_space_keeps_declaration_order():
    space = build_space(["z", "a", "m"], [])
    assert space.labels == ("z", "a", "m")


def test_build_space_rejects_duplicate_label():
    with pytest.raises(ValueError, match="duplicate label"):
        build_space(["a", "a"], [])


def test_build_space_rejects_unknown_label_in_pair():
    with pytest.raises(ValueError, match="unknown label"):
        build_space(["a"], [("a", "b")])
    with pytest.raises(ValueError, match=r"^unknown label 'b' in pair \('b', 'a'\)$"):
        build_space(["a"], [("b", "a")])


def test_index_of_an_unknown_label_is_refused():
    assert SIERP.index("s") == 1
    with pytest.raises(ValueError, match="^unknown label 'x'$"):
        SIERP.index("x")


def test_empty_space_is_legal():
    assert len(EMPTY) == 0
    assert EMPTY.leq == ()


def test_finpreorder_rejects_bad_relations():
    with pytest.raises(ValueError, match="reflexive"):
        FinPreorder(("a",), ((False,),))
    with pytest.raises(ValueError, match="transitive"):
        FinPreorder(
            ("a", "b", "c"),
            (
                (True, True, False),
                (False, True, True),
                (False, False, True),
            ),
        )
    with pytest.raises(ValueError, match="3x3"):
        FinPreorder(("a", "b", "c"), ((True,),))


def test_list_valued_fields_are_refused_naming_the_field():
    """A list would pass the other checks and then break equality and hashing."""
    with pytest.raises(ValueError, match="^labels must be a tuple, not list$"):
        FinPreorder(["a", "b"], ((True, True), (False, True)))
    for leq in ([[True, True], [False, True]], ((True, True), [False, True])):
        with pytest.raises(ValueError, match="^relation must be 2x2, a tuple of row tuples$"):
            FinPreorder(("a", "b"), leq)
    with pytest.raises(ValueError, match="^assignment must be a tuple, not list$"):
        MonotoneMap(SIERP, PT, [0, 0])


def test_finpreorder_rejects_unprintable_label():
    with pytest.raises(ValueError, match="invalid label"):
        FinPreorder(("a b",), ((True,),))


def test_spaces_are_hashable_values():
    again = build_space(["b", "s"], [("b", "s")])
    assert again == SIERP
    assert {SIERP: 1}[again] == 1
    with pytest.raises(AttributeError):
        SIERP.labels = ()


def test_up_and_down_sets_of_sierpinski():
    assert SIERP.up_set(0) == {0, 1}
    assert SIERP.down_set(0) == {0}
    assert SIERP.up_set(1) == {1}
    assert SIERP.down_set(1) == {0, 1}


def is_up_closed(space, subset):
    return all(y in subset for x in subset for y in range(len(space)) if space.leq[x][y])


def is_down_closed(space, subset):
    return all(y in subset for x in subset for y in range(len(space)) if space.leq[y][x])


def test_up_down_duality_on_all_small_spaces():
    for space in enumerate_preorders(4):
        n = len(space)
        for bits in itertools.product((0, 1), repeat=n):
            subset = {x for x in range(n) if bits[x]}
            complement = set(range(n)) - subset
            assert is_up_closed(space, subset) == is_down_closed(space, complement)


def test_monotone_map_rejects_order_violation():
    with pytest.raises(NotMonotoneError):
        MonotoneMap(SIERP, SIERP, (1, 0))


def test_monotone_map_rejects_wrong_arity_and_range():
    with pytest.raises(ValueError, match="entries"):
        MonotoneMap(SIERP, PT, (0,))
    with pytest.raises(ValueError, match="outside target"):
        MonotoneMap(PT, SIERP, (5,))


def test_empty_map_is_legal():
    f = MonotoneMap(EMPTY, SIERP, ())
    assert f.assignment_by_label() == ()


def test_hom_matches_naive_filter_everywhere():
    spaces = enumerate_preorders(3)
    for p in spaces:
        for q in spaces:
            got = [f.assign for f in hom_enumerate(p, q)]
            assert got == reference.hom(p, q)
            assert len(set(got)) == len(got)


def test_hom_sierpinski_endomorphisms():
    maps = hom_enumerate(SIERP, SIERP)
    assert [f.assign for f in maps] == [(0, 0), (0, 1), (1, 1)]


def test_hom_from_indiscrete_to_sierpinski_is_constants():
    maps = hom_enumerate(INDISC, SIERP)
    assert [f.assign for f in maps] == [(0, 0), (1, 1)]


def test_hom_from_empty_is_unique():
    for q in (EMPTY, PT, VEE):
        assert len(hom_enumerate(EMPTY, q)) == 1


def test_hom_from_1200_point_discrete_space_is_unique():
    # Deeper than the interpreter's default recursion limit of 1000.
    space = build_space([f"a{k}" for k in range(1200)], [])
    maps = hom_enumerate(space, PT)
    assert [f.assign for f in maps] == [(0,) * 1200]


def test_hom_output_is_lexicographic():
    maps = hom_enumerate(TWO, VEE)
    assigns = [f.assign for f in maps]
    assert assigns == sorted(assigns)


def test_compose_identity_laws():
    for f in hom_enumerate(SIERP, VEE):
        assert compose(identity(SIERP), f) == f
        assert compose(f, identity(VEE)) == f


def test_compose_rejects_mismatched_endpoints():
    with pytest.raises(ValueError, match="endpoints"):
        compose(to_point(SIERP), to_point(SIERP))


def test_compose_is_associative_on_small_universe():
    universe = Universe.build(2)
    by_source = {}
    for m in universe.maps:
        by_source.setdefault(m.source, []).append(m)
    for f in universe.maps:
        for g in by_source.get(f.target, ()):
            fg = compose(f, g)
            for h in by_source.get(g.target, ()):
                assert compose(fg, h) == compose(f, compose(g, h))


def test_identity_of_discrete_pair_is_isomorphism():
    assert is_isomorphism(identity(TWO))


def test_bijection_onto_indiscrete_pair_is_not_isomorphism():
    f = MonotoneMap(TWO, INDISC, (0, 1))
    assert not is_isomorphism(f)
    assert not any(is_isomorphism(g) for g in hom_enumerate(TWO, INDISC))


def test_swap_between_opposite_chains_is_isomorphism():
    up = build_space(["a", "b"], [("a", "b")])
    down = build_space(["c", "d"], [("d", "c")])
    assert is_isomorphism(MonotoneMap(up, down, (1, 0)))


def test_universe_2_has_ten_isomorphisms():
    universe = Universe.build(2)
    assert sum(1 for f in universe.maps if is_isomorphism(f)) == 10


def test_coproduct_of_points_is_discrete_pair():
    space, (inl, inr) = coproduct(PT, PT)
    assert space.labels == ("pt_1", "pt_2")
    assert not space.leq[0][1] and not space.leq[1][0]
    assert inl.assign == (0,) and inr.assign == (1,)


def test_coproduct_has_no_cross_relations():
    space, (inl, inr) = coproduct(SIERP, VEE)
    assert len(space) == 5
    for x in range(2):
        for y in range(2, 5):
            assert not space.leq[x][y] and not space.leq[y][x]
    assert compose(MonotoneMap(SIERP, SIERP, (0, 1)), inl).assign == inl.assign


def test_codiagonal_folds_both_summands():
    fold = codiagonal(SIERP)
    assert fold.assign == (0, 1, 0, 1)
    assert fold.source.labels == ("b_1", "s_1", "b_2", "s_2")


def test_product_of_sierpinski_squares():
    space, (proj1, proj2) = product(SIERP, SIERP)
    assert space.labels == ("b_b", "b_s", "s_b", "s_s")
    assert sum(map(sum, space.leq)) == 9
    assert space.leq[0][3]
    assert not space.leq[1][2] and not space.leq[2][1]
    assert proj1.assign == (0, 0, 1, 1)
    assert proj2.assign == (0, 1, 0, 1)


def test_product_labels_fall_back_to_indices_when_pairs_collide():
    # x_y_z is both (x, y_z) and (x_y, z).
    space, _ = product(build_space(["x", "x_y"], []), build_space(["y_z", "z"], []))
    assert space.labels == ("x0_0", "x0_1", "x1_0", "x1_1")


def test_product_order_is_componentwise():
    space, (proj1, proj2) = product(VEE, SIERP)
    for x in range(len(space)):
        for y in range(len(space)):
            expected = VEE.leq[proj1(x)][proj1(y)] and SIERP.leq[proj2(x)][proj2(y)]
            assert space.leq[x][y] == expected


def test_diagonal_into_discrete_product_is_injective():
    d = diagonal(TWO)
    assert len(d.target) == 4
    assert d.assign == (0, 3)
    assert len(set(d.assign)) == 2


def test_diagonal_composes_to_identity_with_projections():
    d = diagonal(VEE)
    _, (proj1, proj2) = product(VEE, VEE)
    assert compose(d, proj1) == identity(VEE)
    assert compose(d, proj2) == identity(VEE)


def test_enumeration_counts_match_brute_force():
    spaces = enumerate_preorders(4)
    by_size = {}
    for space in spaces:
        by_size.setdefault(len(space), []).append(space)
    assert [len(by_size[k]) for k in range(5)] == [1, 1, 4, 29, 355]
    for k in range(4):
        assert len(by_size[k]) == len(reference.preorders(k))


def test_enumeration_order_is_row_major_over_all_preorders():
    """Size k lists every reflexive, transitive k x k matrix, in row-major lexicographic order."""
    by_size = {}
    for space in enumerate_preorders(5):
        by_size.setdefault(len(space), []).append(space.leq)
    for k in range(5):
        assert by_size[k] == [space.leq for space in reference.preorders(k)]
    assert len(by_size[5]) == 6942


def test_enumeration_is_deterministic_and_duplicate_free():
    first = enumerate_preorders(3)
    second = enumerate_preorders(3)
    assert first == second
    assert len(set(first)) == len(first)


def test_enumeration_returns_a_new_list_of_the_same_spaces_on_each_call():
    first = enumerate_preorders(3)
    second = enumerate_preorders(3)
    assert first is not second
    assert first == second
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    first.append(PT)
    assert enumerate_preorders(3) == second
    assert len(enumerate_preorders(3)) == 1 + 1 + 4 + 29


def test_enumeration_uses_canonical_labels():
    for space in enumerate_preorders(3):
        assert space.labels == tuple(f"e{k}" for k in range(len(space)))


def test_enumeration_respects_hard_cap():
    with pytest.raises(ValueError, match="hard cap"):
        enumerate_preorders(6)
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_preorders(-1)


def test_canonical_forms_count_isomorphism_classes():
    # Isomorphism classes of preorders on 0..4 points: one canonical form each.
    forms = {class_of(space)[0].space.leq for space in enumerate_preorders(4)}
    by_size = [0] * 5
    for form in forms:
        by_size[len(form)] += 1
    assert by_size == [1, 1, 3, 9, 33]


def test_canonical_relabeling_carries_each_space_onto_its_form():
    """perm reaches form, no relabeling is less, and no earlier permutation
    in itertools.permutations order reaches it."""
    for space in enumerate_preorders(4):
        rep, perm = class_of(space)
        assert reference.relation(space, perm) == rep.space.leq
        assert (rep.space.leq, perm) == reference.canonical_relabeling(space)


SIZE_5 = [space for space in enumerate_preorders(5) if len(space) == 5]


def test_canonical_relabeling_carries_each_five_point_space_onto_its_form():
    forms = {r.space.leq for r in preorder.representatives(5)}
    assert len(SIZE_5) == 6942
    for space in SIZE_5:
        rep, perm = class_of(space)
        form = rep.space.leq
        assert sorted(perm) == list(range(5))
        assert reference.relation(space, perm) == form
        assert form in forms


@st.composite
def six_point_spaces(draw):
    """A preorder on 6 points, closed from a few random generating pairs."""
    labels = [f"e{k}" for k in range(6)]
    label = st.sampled_from(labels)
    return build_space(labels, draw(st.lists(st.tuples(label, label), max_size=8)))


@settings(deadline=None)
@given(space=st.one_of(st.sampled_from(SIZE_5), six_point_spaces()), data=st.data())
def test_canonical_relabeling_of_relabeled_five_point_spaces_is_brute_force(space, data):
    """class_of of a random relabeling, with random labels, of a 5-point
    space read from the domain or a 6-point space above the cap."""
    n = len(space)
    perm = data.draw(st.permutations(range(n)))
    labels = data.draw(st.permutations([f"x{k}" for k in range(n)]))
    relabeled = reference.relabel(space, perm, labels)
    rep, rep_perm = class_of(relabeled)
    assert reference.relation(relabeled, rep_perm) == rep.space.leq
    assert (rep.space.leq, rep_perm) == reference.canonical_relabeling(relabeled)
    assert rep.group == reference.automorphisms(rep.space)
    assert rep.weight == math.factorial(n) // len(rep.group)
    assert class_of(space)[0].space == rep.space


def test_canonical_relabeling_ignores_labels():
    vee = build_space(["r", "m", "l"], [("m", "l"), ("m", "r")])
    assert class_of(vee) == class_of(VEE)
    rep, perm = class_of(EMPTY)
    assert (rep.space.leq, perm) == ((), ())


def test_automorphisms_are_the_permutations_preserving_the_relation():
    """class_of's group, conjugated by perm onto each labeled space, is the
    brute-force group of that space, for the members that are not their
    class's form too."""
    for space in enumerate_preorders(4):
        rep, perm = class_of(space)
        inverse = [perm.index(x) for x in range(len(space))]
        got = {tuple(perm[sigma[y]] for y in inverse) for sigma in rep.group}
        assert got == set(reference.automorphisms(space))


def representatives(max_size):
    """One space per canonical form on at most max_size points, labels e0, e1, ..."""
    forms = {class_of(space)[0].space.leq for space in enumerate_preorders(max_size)}
    return [FinPreorder(tuple(f"e{x}" for x in range(len(form))), form) for form in sorted(forms)]


def test_orbit_weights_count_every_labeled_space():
    """n!/|Aut| labeled spaces per class add up to the labeled preorders of each size."""
    by_size = [0] * 5
    for rep in representatives(4):
        n = len(rep)
        by_size[n] += math.factorial(n) // len(reference.automorphisms(rep))
    assert by_size == [1, 1, 4, 29, 355]


def test_domain_representatives_match_the_brute_force_classes():
    """representatives(n) per size: the classes of the oracle above, in form order."""
    oracle = representatives(4)
    for n in range(5):
        got = preorder.representatives(n)
        assert [r.space for r in got] == [rep for rep in oracle if len(rep) == n]
        for r in got:
            assert r.group == reference.automorphisms(r.space)
            assert r.weight == math.factorial(n) // len(r.group)
            assert class_of(r.space) == (r, tuple(range(n)))


def test_domain_class_counts_and_orbit_weights_by_size():
    classes = [preorder.representatives(n) for n in range(6)]
    assert [len(c) for c in classes] == [1, 1, 3, 9, 33, 139]
    assert [sum(r.weight for r in c) for c in classes] == [1, 1, 4, 29, 355, 6942]
    for c in classes:
        forms = [r.space.leq for r in c]
        assert forms == sorted(forms)
    assert preorder.representatives(5) is classes[5]
    with pytest.raises(ValueError, match="hard cap"):
        preorder.representatives(6)
    with pytest.raises(ValueError, match="nonnegative"):
        preorder.representatives(-1)


def run_fresh(code, *args):
    """The standard output of the code run in a new interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


CLASSIFY_IN_ORDER = """
import random, sys
from liftprop.preorder import class_of, enumerate_preorders
spaces = enumerate_preorders(4)
if sys.argv[1] == "reversed":
    spaces.reverse()
else:
    random.Random(sys.argv[1]).shuffle(spaces)
for space in spaces:
    rep, perm = class_of(space)
    print(repr((space.leq, rep.space.leq, rep.group, rep.weight, perm)))
"""


@pytest.mark.parametrize("order", ["reversed", "shuffled-1", "shuffled-2"])
def test_classes_do_not_depend_on_the_order_spaces_are_first_seen(order):
    """Each class is entered by the first member asked about, in a fresh process.

    Every member's entry equals the brute force: the least relabeling, its
    automorphisms in permutation order, n!/|Aut|, and the first
    permutation reaching the form, whose entries are ints, not bools.
    """
    lines = run_fresh(CLASSIFY_IN_ORDER, order).splitlines()
    assert len(lines) == 390
    for line in lines:
        leq, form, group, weight, perm = ast.literal_eval(line)
        n = len(leq)
        space = FinPreorder(tuple(f"e{x}" for x in range(n)), leq)
        rep = FinPreorder(space.labels, form)
        assert (form, perm) == reference.canonical_relabeling(space)
        assert group == reference.automorphisms(rep)
        assert weight == math.factorial(n) // len(group)
        assert all(type(v) is int for v in perm + sum(group, ()))


def test_class_of_above_the_cap_enters_the_relation_asked_about():
    """A second space with the same relation gets the very same entry."""
    labels = [f"c{i}" for i in range(7)]
    chain = build_space(labels, [(labels[i], labels[i + 1]) for i in range(6)])
    entry = class_of(chain)
    assert entry[1] == (6, 5, 4, 3, 2, 1, 0)
    assert entry[0].group == (tuple(range(7)),) and entry[0].weight == 5040
    assert class_of(FinPreorder(tuple(f"d{i}" for i in range(7)), chain.leq)) is entry


def test_are_isomorphic_enumerates_nothing():
    code = """
from liftprop.preorder import _preorders_of_size, are_isomorphic, build_space
up = build_space(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
down = build_space(list("abcde"), [("e", "d"), ("d", "c"), ("c", "b"), ("b", "a")])
print(are_isomorphic(up, down), _preorders_of_size.cache_info().currsize)
"""
    assert run_fresh(code) == "True 0\n"


@pytest.mark.parametrize(
    "max_size, reps, maps, orbits", [(3, 14, 1476, 661), (4, 47, 87436, 25586)]
)
def test_maps_between_representatives_and_their_orbits(max_size, reps, maps, orbits):
    spaces = representatives(max_size)
    assert len(spaces) == reps
    assert sum(len(hom_enumerate(p, q)) for p in spaces for q in spaces) == maps
    assert sum(reference.orbit_count(p, q) for p in spaces for q in spaces) == orbits


def chain(n, reverse=False):
    """The n-point chain e0 < e1 < ..., or e0 > e1 > ... when reversed."""
    labels = [f"e{k}" for k in range(n)]
    steps = [(labels[k], labels[k + 1]) for k in range(n - 1)]
    return build_space(labels, [(b, a) for a, b in steps] if reverse else steps)


# Two non-isomorphic 6-point spaces with 16 related pairs each: a 5-point
# chain with a point beside it, and two minima below two 2-point chains.
CHAIN_5_AND_POINT = build_space(
    ["a", "b", "c", "d", "e", "f"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]
)
TWO_UNDER_TWO_CHAINS = build_space(
    ["a", "b", "c", "d", "e", "f"],
    [(x, y) for x in "ab" for y in "ce"] + [("c", "d"), ("e", "f")],
)
SIX_PERMS = [(5, 4, 3, 2, 1, 0), (1, 0, 2, 3, 4, 5), (3, 5, 0, 2, 4, 1)]


def test_canonical_forms_agree_exactly_on_isomorphic_pairs():
    """Every pair on at most 3 points, pairs of different sizes, and pairs
    of 6-point spaces above the cap."""
    spaces = enumerate_preorders(3)
    pairs = [(p, q) for p in spaces for q in spaces]
    pairs += [(EMPTY, PT), (PT, TWO), (SIERP, VEE), (chain(5), chain(6))]
    pairs += [(chain(6), chain(6, reverse=True)), (chain(6), CHAIN_5_AND_POINT)]
    pairs += [(CHAIN_5_AND_POINT, TWO_UNDER_TWO_CHAINS)]
    for space in (CHAIN_5_AND_POINT, TWO_UNDER_TWO_CHAINS):
        pairs += [(space, reference.relabel(space, perm)) for perm in SIX_PERMS]
    for p, q in pairs:
        iso = reference.isomorphic(p, q)
        assert (class_of(p)[0].space == class_of(q)[0].space) == iso
        assert are_isomorphic(p, q) == iso
    assert are_isomorphic(chain(6), chain(6, reverse=True))
    assert sum(map(sum, CHAIN_5_AND_POINT.leq)) == sum(map(sum, TWO_UNDER_TWO_CHAINS.leq)) == 16
    assert not are_isomorphic(CHAIN_5_AND_POINT, TWO_UNDER_TWO_CHAINS)


@given(
    n=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_built_spaces_are_their_own_closure(n, data):
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
            max_size=8,
        )
    )
    if n == 0:
        pairs = []
    labels = [f"x{k}" for k in range(n)]
    space = build_space(labels, [(labels[a], labels[b]) for a, b in pairs])
    leq = reference.closure(range(n), pairs)
    assert {(x, y) for x in range(n) for y in range(n) if space.leq[x][y]} == leq


@given(st.integers(min_value=0, max_value=3))
def test_to_point_collapses_everything(n):
    space = enumerate_preorders(3)[0] if n == 0 else build_space([f"x{k}" for k in range(n)], [])
    f = to_point(space)
    assert set(f.assign) <= {0}


SPACES_UP_TO_4 = enumerate_preorders(4)


def brute_force_validation_error(source, target, assign):
    """The first error a row-major check of every pair raises, or None."""
    n, m = len(source.labels), len(target.labels)
    if len(assign) != n:
        return ValueError(f"assignment has {len(assign)} entries, source has {n}")
    for v in assign:
        if not 0 <= v < m:
            return ValueError(f"assignment value {v} outside target of size {m}")
    for x in range(n):
        for y in range(n):
            if source.leq[x][y] and not target.leq[assign[x]][assign[y]]:
                return NotMonotoneError(
                    f"{source.labels[x]} <= {source.labels[y]} but "
                    f"{target.labels[assign[x]]} !<= {target.labels[assign[y]]}"
                )
    return None


@given(
    source=st.sampled_from(SPACES_UP_TO_4),
    target=st.sampled_from(SPACES_UP_TO_4),
    data=st.data(),
)
def test_validation_matches_row_major_brute_force(source, target, data):
    n, m = len(source), len(target)
    assign = tuple(
        data.draw(st.lists(st.integers(-1, m), min_size=max(n - 1, 0), max_size=n + 1))
        if data.draw(st.booleans())
        else data.draw(st.lists(st.integers(0, max(m - 1, 0)), min_size=n, max_size=n))
    )
    expected = brute_force_validation_error(source, target, assign)
    if expected is None:
        assert MonotoneMap(source, target, assign).assign == assign
    else:
        with pytest.raises(ValueError) as caught:
            MonotoneMap(source, target, assign)
        assert type(caught.value) is type(expected)
        assert str(caught.value) == str(expected)


@given(
    n=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_transitivity_error_names_first_row_major_violation(n, data):
    leq = tuple(
        tuple(x == y or data.draw(st.booleans()) for y in range(n)) for x in range(n)
    )
    labels = tuple(f"x{k}" for k in range(n))
    violation = next(
        (
            (x, y, z)
            for x in range(n)
            for y in range(n)
            for z in range(n)
            if leq[x][y] and leq[y][z] and not leq[x][z]
        ),
        None,
    )
    if violation is None:
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y and leq[x][y]]
        table = FinPreorder(labels, leq).strict_above
        assert [(x, y) for x, above in table for y in above] == pairs
    else:
        x, y, z = violation
        with pytest.raises(ValueError) as caught:
            FinPreorder(labels, leq)
        assert str(caught.value) == f"relation not transitive: x{x} <= x{y} <= x{z}"


@st.composite
def small_preorders(draw, max_size=5):
    """A preorder on up to max_size points: the closure of random pairs."""
    n = draw(st.integers(0, max_size))
    labels = [f"p{k}" for k in range(n)]
    if not n:
        return build_space([], [])
    pair = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    return build_space(labels, draw(st.lists(pair, max_size=2 * n)))


def candidate_lists(m):
    """Candidate values in [0, m): random lists, or a shuffled range with repeats."""
    return st.one_of(
        st.lists(st.integers(0, m - 1), max_size=m + 2),
        st.permutations(range(m)).map(lambda order: list(order) + list(order[:2])),
    )


@settings(max_examples=60, deadline=None)
@given(source=small_preorders(), target=small_preorders(), data=st.data())
def test_monotone_assignments_is_the_filtered_product(source, target, data):
    n, m = len(source), len(target)
    candidates = [data.draw(candidate_lists(m)) if m else [] for _ in range(n)]
    every = itertools.product(*candidates)
    expected = [assign for assign in every if reference.is_monotone(source, target, assign)]
    assert list(monotone_assignments(source, target, candidates)) == expected


def test_tables_are_not_part_of_equality_or_repr():
    fresh = build_space(["b", "s"], [("b", "s")])
    unhashed = build_space(["b", "s"], [("b", "s")])
    assert fresh.strict_above == ((0, (1,)),)
    assert fresh.order_links == ((), ((0, 0),))
    assert fresh.order_masks == ((0b11, 0b10), (0b01, 0b11))
    assert unhashed._components is None
    assert fresh.components == ((0, 0), 1) and fresh.components is fresh._components
    assert fresh == SIERP and hash(fresh) == hash(SIERP)
    assert fresh == unhashed and unhashed._hash is None and fresh._hash is not None
    assert repr(fresh) == repr(SIERP) == "FinPreorder([b, s]; b<=s)"


def test_space_hash_is_the_hash_of_labels_and_relation():
    for space in (EMPTY, PT, SIERP, INDISC, VEE):
        copy = FinPreorder(space.labels, space.leq)
        expected = hash((space.labels, space.leq))
        assert copy is not space
        assert hash(space) == hash(copy) == expected
        assert hash(copy) == expected  # the kept value
    assert hash(SIERP) != hash(build_space(["b", "s"], []))


def test_spaces_maps_and_squares_are_slotted_and_frozen():
    f = to_point(SIERP)
    square = Square(f, identity(PT), f, identity(PT))
    result = LiftResult(False, square)
    queries = (
        LiftQuery("f", "g"),
        CheckQuery("T0", "S"),
        OrthogonalQuery("left", ("f",), 2),
        MonoQuery("f", 2),
        EpiQuery("f", 2),
        HomQuery("S", "PT"),
        EnumerateQuery(3),
    )
    values = (
        SIERP,
        f,
        square,
        result,
        Universe.build(1),
        SuiteReport("mono", 4, 0, None),
        Token("NAME", "S", 1, 7),
        SpaceDecl("S", ("b", "s"), (("b", "s"),)),
        MapDecl("f", "S", "PT", (("b", "pt"), ("s", "pt")), 2, 1),
        *queries,
        Program((), queries),
        LiftOutcome("lift f |> g", result),
        MapListOutcome("hom S PT", (f,)),
        CountsOutcome("enumerate 1", (1, 1)),
        Env({}, {}),
    )
    for value in values:
        name = type(value).__name__
        assert not hasattr(value, "__dict__"), name
        for attr in (type(value).__slots__[0], "unknown"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, attr, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, attr)
    assert f.assign == (0, 0) and square.top is f and result.counterexample is square
    # An environment's dicts are filled in place, so it has no hash.
    with pytest.raises(TypeError, match="unhashable"):
        hash(Env({}, {}))


def test_values_survive_pickle_and_deepcopy():
    f = to_point(SIERP)
    square = Square(f, identity(PT), f, identity(PT))
    for value in (VEE, f, square, LiftResult(False, square), LiftResult(True, None)):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)


def test_value_equality_and_hash_respect_class_and_every_field():
    decl = ("m", "S", "PT", (("a", "pt"),), 2, 1)
    equal = (
        (LiftQuery("f", "g"), LiftQuery("f", "g")),
        (EnumerateQuery(2), EnumerateQuery(2)),
        (SpaceDecl("S", ("a",), ()), SpaceDecl("S", ("a",), ())),
        (MapDecl(*decl), MapDecl(*decl)),
        (MonotoneMap(SIERP, PT, (0, 0)), to_point(SIERP)),
    )
    for a, b in equal:
        assert a is not b and a == b and hash(a) == hash(b)
    assert hash(MapDecl(*decl)) == hash(decl)
    # Every field takes part, the position of a declaration included.
    for k, field in enumerate(MapDecl._fields):
        changed = MapDecl(*decl[:k], -1, *decl[k + 1:])
        assert changed != MapDecl(*decl) and hash(changed) != hash(MapDecl(*decl)), field
    assert LiftQuery("f", "g") != LiftQuery("f", "h")
    assert MonoQuery("m", 2) != EpiQuery("m", 2)
    f = to_point(SIERP)
    assert f != (f.source, f.target, f.assign) and (f.source, f.target, f.assign) != f
    assert repr(LiftQuery("f", "g")) == "LiftQuery(left='f', right='g')"
    assert repr(MapDecl(*decl)) == (
        "MapDecl(name='m', source='S', target='PT', pairs=(('a', 'pt'),), line=2, col=1)"
    )


def test_value_constructors_take_every_field_positionally():
    with pytest.raises(TypeError, match=r"^LiftQuery\(\) takes 2 arguments but 4 were given$"):
        LiftQuery("f", "g", 3, 4)
    with pytest.raises(TypeError, match=r"^MapDecl\(\) takes 6 arguments but 4 were given$"):
        MapDecl("m", "S", "PT", ())
    with pytest.raises(TypeError, match=r"^EnumerateQuery\(\) takes 1 arguments but 0 were given$"):
        EnumerateQuery()
    for keywords in (
        lambda: MonoQuery(name="m", size=2),
        lambda: MonoQuery("m", size=2),
        lambda: SuiteReport("mono", 4, 0, first_mismatch=None),
    ):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            keywords()
