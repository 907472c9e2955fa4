"""The brute-force references, pinned to independent, published values."""

import math

from liftprop import CODIAG, VEE, build_space

import reference


def test_labeled_preorders_are_oeis_a000798_and_their_classes_a001930():
    spaces = [reference.preorders(n) for n in range(6)]
    assert [len(s) for s in spaces] == [1, 1, 4, 29, 355, 6942]
    forms = [{reference.canonical_relabeling(z)[0] for z in s} for s in spaces]
    assert [len(f) for f in forms] == [1, 1, 3, 9, 33, 139]


def test_maps_between_all_spaces_of_at_most_two_and_three_points():
    for max_size, maps in ((2, 69), (3, 11_345)):
        spaces = [z for n in range(max_size + 1) for z in reference.preorders(n)]
        assert sum(len(reference.hom(p, q)) for p in spaces for q in spaces) == maps


def test_automorphism_group_orders():
    """n! for the discrete and indiscrete n-point spaces, 1 for the n-chain, 2 for VEE."""
    for n in range(6):
        labels = [f"x{k}" for k in range(n)]
        discrete = build_space(labels, [])
        indiscrete = build_space(labels, [(x, y) for x in labels for y in labels])
        chain = build_space(labels, list(zip(labels, labels[1:])))
        orders = [len(reference.automorphisms(z)) for z in (discrete, indiscrete, chain)]
        assert orders == [math.factorial(n), math.factorial(n), 1]
    assert len(reference.automorphisms(VEE)) == 2


def test_a_non_isomorphism_does_not_lift_against_itself():
    assert reference.lift(CODIAG, CODIAG) is not None
