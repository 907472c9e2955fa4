"""The lifting decision procedure and the operators built on it."""

import hashlib
import io
import itertools
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from liftprop import (
    CODIAG,
    EMPTY,
    EMPTY_TO_PT,
    INDISC,
    PT,
    PT_TO_SIERP_CLOSED,
    SIERP,
    SIERP_TO_PT,
    TWO,
    VEE,
    LiftResult,
    MonotoneMap,
    Square,
    build_space,
    characterize,
    compose,
    enumerate_preorders,
    find_diagonal,
    hom_enumerate,
    identity,
    is_epi_cancellation,
    is_epi_upto,
    is_injective,
    is_isomorphism,
    is_mono_cancellation,
    is_mono_upto,
    is_surjective,
    lifting_check,
    orthogonal_class,
    product,
    self_lifting_scan,
    to_point,
)
from liftprop import lifting
from liftprop.cli import execute_query, run_file
from liftprop.lifting import HomCache, Universe, fibre_table
from liftprop.notation import BUILTIN_MAPS, Env, OrthogonalQuery
from liftprop.preorder import FinPreorder, automorphisms, canonical_relabeling


def test_square_requires_matching_endpoints():
    with pytest.raises(ValueError, match="top map"):
        Square(CODIAG, CODIAG, identity(PT), identity(PT))
    with pytest.raises(ValueError, match="bottom map"):
        Square(CODIAG, CODIAG, identity(TWO), CODIAG)


def test_square_accepts_equal_but_distinct_endpoint_spaces():
    sierp, pt = build_space(["b", "s"], [("b", "s")]), build_space(["pt"], [])
    assert sierp == SIERP and sierp is not SIERP and pt == PT and pt is not PT
    top, bottom = MonotoneMap(sierp, pt, (0, 0)), identity(pt)
    square = Square(SIERP_TO_PT, identity(PT), top, bottom)
    assert square.top is top and square.bottom is bottom


OTHER_PT = build_space(["q"], [])


@pytest.mark.parametrize(
    "top, bottom, message",
    [
        (MonotoneMap(build_space(["b", "s"], []), PT, (0, 0)), identity(PT), "top map"),
        (MonotoneMap(SIERP, OTHER_PT, (0, 0)), identity(PT), "top map"),
        (SIERP_TO_PT, MonotoneMap(OTHER_PT, PT, (0,)), "bottom map"),
        (SIERP_TO_PT, MonotoneMap(PT, OTHER_PT, (0,)), "bottom map"),
    ],
)
def test_square_rejects_unequal_endpoints_of_the_same_size(top, bottom, message):
    with pytest.raises(ValueError, match=message):
        Square(SIERP_TO_PT, identity(PT), top, bottom)


def test_square_requires_commutativity():
    left = MonotoneMap(PT, TWO, (0,))
    right = identity(TWO)
    top = MonotoneMap(PT, TWO, (1,))
    bottom = identity(TWO)
    with pytest.raises(ValueError, match="commute"):
        Square(left, right, top, bottom)


def test_find_diagonal_returns_a_real_diagonal():
    square = Square(CODIAG, SIERP_TO_PT, MonotoneMap(TWO, SIERP, (0, 0)), identity(PT))
    d = find_diagonal(square)
    assert d is not None
    assert compose(CODIAG, d).assign == square.top.assign
    assert compose(d, SIERP_TO_PT).assign == square.bottom.assign


def test_find_diagonal_reports_conflicts():
    square = Square(CODIAG, identity(PT), CODIAG, identity(PT))
    assert find_diagonal(square) is not None
    blocked = Square(CODIAG, to_point(TWO), identity(TWO), identity(PT))
    assert find_diagonal(blocked) is None


def brute_force_diagonal(square):
    """Lex-least diagonal of the square by trying every assignment B -> X."""
    f, g, i, j = square.left, square.right, square.top, square.bottom
    mid_src, mid_tgt = f.target, g.source
    n = len(mid_src)
    for d in itertools.product(range(len(mid_tgt)), repeat=n):
        if (
            all(d[f.assign[a]] == i.assign[a] for a in range(len(f.source)))
            and all(g.assign[d[b]] == j.assign[b] for b in range(n))
            and all(
                mid_tgt.leq[d[b1]][d[b2]]
                for b1 in range(n)
                for b2 in range(n)
                if mid_src.leq[b1][b2]
            )
        ):
            return d
    return None


def test_find_diagonal_matches_brute_force_on_every_small_square():
    small = enumerate_preorders(2)
    homs = {(p, q): hom_enumerate(p, q) for p in small for q in small}
    squares = 0
    for a, b, x, y in itertools.product(small, repeat=4):
        for f, g, i, j in itertools.product(homs[a, b], homs[x, y], homs[a, x], homs[b, y]):
            if any(g.assign[i.assign[k]] != j.assign[f.assign[k]] for k in range(len(a))):
                continue
            square = Square(f, g, i, j)
            d = find_diagonal(square)
            assert (None if d is None else d.assign) == brute_force_diagonal(square)
            squares += 1
    assert squares == 14302  # every commuting square was compared, none skipped


def test_find_diagonal_refuses_a_forced_assignment_that_is_not_monotone():
    # f sends p, q to b, s and the top sends them to s, b: every point of
    # SIERP is forced, and the forced d (b to s, s to b) reverses b <= s.
    square = Square(
        MonotoneMap(TWO, SIERP, (0, 1)),
        SIERP_TO_PT,
        MonotoneMap(TWO, SIERP, (1, 0)),
        to_point(SIERP),
    )
    assert brute_force_diagonal(square) is None
    assert find_diagonal(square) is None


# X with its top first: u <= t, so the probe's first candidate t lies
# above every other point.
TOP_FIRST = build_space(["t", "u"], [("u", "t")])
DISC3 = build_space(["x0", "x1", "x2"], [])
# In the last three squares f sends pt to s, so d(s) is forced and d(b)
# ranges over its fibre, which must stay below d(s).
TO_S = MonotoneMap(PT, SIERP, (1,))

# (square, lex-least diagonal or None, searches run by find_diagonal)
DIAGONAL_PATHS = {
    # f identifies p and q, the top separates them.
    "forced-conflict": (Square(CODIAG, to_point(TWO), identity(TWO), identity(PT)), None, 0),
    # Nothing of X lies over the bottom's value b.
    "empty-fibre": (
        Square(EMPTY_TO_PT, TO_S, MonotoneMap(EMPTY, PT, ()), PT_TO_SIERP_CLOSED),
        None,
        0,
    ),
    # Every point forced, and the forced d reverses b <= s.
    "forced-not-monotone": (
        Square(
            MonotoneMap(TWO, SIERP, (0, 1)),
            SIERP_TO_PT,
            MonotoneMap(TWO, SIERP, (1, 0)),
            to_point(SIERP),
        ),
        None,
        0,
    ),
    # d(b) has candidates b and s; the first, b, lies below d(s) = s.
    "probe-holds": (Square(TO_S, SIERP_TO_PT, TO_S, to_point(SIERP)), (0, 1), 0),
    # d(s) = u, and d(b)'s first candidate t is not below u; u is.
    "search-finds": (
        Square(TO_S, to_point(TOP_FIRST), MonotoneMap(PT, TOP_FIRST, (1,)), to_point(SIERP)),
        (1, 1),
        1,
    ),
    # d(s) = x2, and neither candidate x0 nor x1 is below it.
    "search-fails": (
        Square(
            TO_S,
            MonotoneMap(DISC3, SIERP, (0, 0, 1)),
            MonotoneMap(PT, DISC3, (2,)),
            identity(SIERP),
        ),
        None,
        1,
    ),
}


@pytest.mark.parametrize("path", DIAGONAL_PATHS)
def test_find_diagonal_takes_each_path(monkeypatch, path):
    square, expected, searches = DIAGONAL_PATHS[path]
    calls = []
    search = lifting.monotone_assignments

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(lifting, "monotone_assignments", counted)
    assert brute_force_diagonal(square) == expected
    d = find_diagonal(square)
    assert (None if d is None else d.assign) == expected
    assert len(calls) == searches


def test_probe_path_never_enters_the_search_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("monotone_assignments entered")

    monkeypatch.setattr(lifting, "monotone_assignments", refuse)
    for square, expected, searches in DIAGONAL_PATHS.values():
        if searches:
            with pytest.raises(AssertionError, match="entered"):
                find_diagonal(square)
        else:
            d = find_diagonal(square)
            assert (None if d is None else d.assign) == expected
    # The one square has two candidates for d(pt), and the first lifts.
    assert lifting_check(EMPTY_TO_PT, CODIAG) == LiftResult(True, None)


def test_codiagonal_lifts_against_surjection():
    assert lifting_check(EMPTY_TO_PT, CODIAG).holds


def test_point_inclusion_fails_self_lifting():
    result = lifting_check(EMPTY_TO_PT, EMPTY_TO_PT)
    assert not result.holds
    square = result.counterexample
    assert square.top.assignment_by_label() == ()
    assert square.bottom.assignment_by_label() == (("pt", "pt"),)


def test_collapse_is_not_injective_by_lifting():
    result = lifting_check(CODIAG, to_point(TWO))
    assert not result.holds
    assert result.counterexample.top.assign == (0, 1)


def test_counterexample_is_first_in_enumeration_order():
    result = lifting_check(CODIAG, CODIAG)
    assert not result.holds
    assert result.counterexample.top.assign == (0, 1)
    assert result.counterexample.bottom.assign == (0,)
    again = lifting_check(CODIAG, CODIAG)
    assert again.counterexample == result.counterexample


def test_counterexample_present_iff_failing():
    cache = HomCache()
    for g in hom_enumerate(SIERP, SIERP):
        result = lifting_check(CODIAG, g, cache)
        assert result.holds == (result.counterexample is None)


def test_characterize_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown property"):
        characterize("compact", SIERP)
    with pytest.raises(ValueError, match="applies to a space"):
        characterize("T0", CODIAG)
    with pytest.raises(ValueError, match="applies to a map"):
        characterize("dense", SIERP)


def test_characterize_connected_spot_checks():
    assert characterize("connected", VEE).holds
    assert characterize("connected", EMPTY).holds
    assert not characterize("connected", TWO).holds


def test_characterize_separation_spot_checks():
    assert not characterize("T0", INDISC).holds
    assert characterize("T0", SIERP).holds
    assert not characterize("T1", SIERP).holds
    assert characterize("T1", TWO).holds


def test_characterize_hausdorff_spot_checks():
    assert characterize("hausdorff", PT).holds
    assert characterize("hausdorff", EMPTY).holds
    assert characterize("hausdorff", TWO).holds
    result = characterize("hausdorff", VEE)
    assert not result.holds
    assert result.counterexample.top.assign == (0, 2)


def test_characterize_dense_spot_checks():
    assert characterize("dense", MonotoneMap(PT, SIERP, (1,))).holds
    assert not characterize("dense", PT_TO_SIERP_CLOSED).holds


def test_characterize_induced_spot_checks():
    sub = MonotoneMap(SIERP, SIERP, (0, 1))
    assert characterize("induced", sub).holds
    assert not characterize("induced", to_point(SIERP)).holds


def test_characterize_pi0_injective_spot_checks():
    assert characterize("pi0-injective", to_point(VEE)).holds
    assert not characterize("pi0-injective", CODIAG).holds


def test_identity_is_mono_and_epi():
    spaces = tuple(enumerate_preorders(2))
    f = identity(SIERP)
    assert is_mono_upto(f, spaces) and is_epi_upto(f, spaces)


def test_collapse_is_epi_but_not_mono():
    spaces = tuple(enumerate_preorders(2))
    assert is_epi_upto(CODIAG, spaces)
    assert not is_mono_upto(CODIAG, spaces)
    assert is_epi_cancellation(CODIAG, spaces)
    assert not is_mono_cancellation(CODIAG, spaces)


def test_point_inclusion_is_mono_but_not_epi():
    spaces = tuple(enumerate_preorders(2))
    include = MonotoneMap(PT, TWO, (0,))
    assert is_mono_upto(include, spaces)
    assert not is_epi_upto(include, spaces)
    assert is_mono_cancellation(include, spaces)
    assert not is_epi_cancellation(include, spaces)


def test_orthogonal_class_with_no_tests_is_everything():
    universe = Universe.build(1)
    assert orthogonal_class("left", [], universe.spaces) == list(universe.maps)
    assert orthogonal_class("right", [], universe.spaces) == list(universe.maps)


def test_right_class_of_point_inclusion_is_the_surjections():
    universe = Universe.build(2)
    cache = HomCache()
    got = orthogonal_class("right", [EMPTY_TO_PT], universe.spaces, cache)
    want = [f for f in universe.maps if is_surjective(f)]
    assert got == want
    assert len(got) == 24


def test_right_class_of_codiagonal_is_the_injections():
    universe = Universe.build(2)
    cache = HomCache()
    got = orthogonal_class("right", [CODIAG], universe.spaces, cache)
    want = [f for f in universe.maps if is_injective(f)]
    assert got == want


def test_left_and_right_classes_differ():
    universe = Universe.build(2)
    cache = HomCache()
    left = orthogonal_class("left", [SIERP_TO_PT], universe.spaces, cache)
    right = orthogonal_class("right", [SIERP_TO_PT], universe.spaces, cache)
    assert len(left) == 32 and len(right) == 42
    assert set(left) != set(right)


def test_orthogonal_class_rejects_bad_side():
    with pytest.raises(ValueError, match="side"):
        orthogonal_class("middle", [], Universe.build(1).spaces)


def per_map_orthogonal_class(side, tests, universe, cache):
    """The orthogonal class decided map by map, with no verdict shared."""
    if side == "right":
        return [g for g in universe.maps if all(lifting_check(t, g, cache).holds for t in tests)]
    return [f for f in universe.maps if all(lifting_check(f, t, cache).holds for t in tests)]


TEST_LISTS = {name: [t] for name, t in BUILTIN_MAPS.items()}
TEST_LISTS["EMPTY_TO_PT+CODIAG"] = [EMPTY_TO_PT, CODIAG]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("tests", TEST_LISTS.values(), ids=TEST_LISTS.keys())
def test_orthogonal_class_equals_the_per_map_loop(side, tests):
    universe = Universe.build(2)
    cache = HomCache()
    assert orthogonal_class(side, tests, universe.spaces, cache) == per_map_orthogonal_class(
        side, tests, universe, cache
    )


def relabel(space, perm):
    """The space with old point perm[x] at index x, labels carried along."""
    return FinPreorder(
        tuple(space.labels[x] for x in perm),
        tuple(tuple(space.leq[x][y] for y in perm) for x in perm),
    )


def moved(m, a, b):
    """b∘m∘a⁻¹ for the relabelings of m's source by a and its target by b."""
    inverse = {old: x for x, old in enumerate(b)}
    return MonotoneMap(
        relabel(m.source, a), relabel(m.target, b), tuple(inverse[m.assign[x]] for x in a)
    )


@st.composite
def relabeled_maps(draw):
    """A map between spaces of at most 3 points, and a relabeling of it."""
    source, target = draw(spaces(max_size=3)), draw(spaces(max_size=3))
    homs = hom_enumerate(source, target)
    assume(homs)
    m = draw(st.sampled_from(homs))
    a = draw(st.permutations(range(len(source))))
    b = draw(st.permutations(range(len(target))))
    return m, moved(m, a, b)


@settings(max_examples=200, deadline=None)
@given(relabeled_maps())
def test_lifting_is_invariant_under_relabeling(pair):
    """The theorem orthogonal_class rests on: t ⧄ m and m ⧄ t do not change
    when m is moved along isomorphisms of its source and target."""
    m, m_moved = pair
    cache = HomCache()
    for t in BUILTIN_MAPS.values():
        assert lifting_check(t, m, cache).holds == lifting_check(t, m_moved, cache).holds
        assert lifting_check(m, t, cache).holds == lifting_check(m_moved, t, cache).holds


def relabeling_class(m):
    """m's canonical source and target forms, and m moved onto them."""
    p_form, a = canonical_relabeling(m.source)
    q_form, b = canonical_relabeling(m.target)
    return p_form, q_form, moved(m, a, b).assign


def orbit(m):
    """m's orbit under Aut(source) x Aut(target): every b with b[sigma[x]] = tau[m[x]]."""
    out = set()
    for sigma in automorphisms(m.source):
        for tau in automorphisms(m.target):
            b = [0] * len(sigma)
            for x, v in enumerate(m.assign):
                b[sigma[x]] = tau[v]
            out.add(tuple(b))
    return out


@pytest.mark.parametrize("side", ["left", "right"])
def test_orthogonal_class_decides_each_relabeling_class_once_per_test(monkeypatch, side):
    """Each decided map is the first of its automorphism orbit in hom order,
    so at most one map per orbit of the 1,476 maps between representatives."""
    universe = Universe.build(3)
    tests = [EMPTY_TO_PT, CODIAG]
    calls = []
    check = lifting.lifting_check

    def counting_check(f, g, cache=None):
        m, t = (g, f) if side == "right" else (f, g)
        calls.append((m, t))
        return check(f, g, cache)

    monkeypatch.setattr(lifting, "lifting_check", counting_check)
    got = orthogonal_class(side, tests, universe.spaces)
    classes = {relabeling_class(m) for m in universe.maps}
    assert len(universe.maps) == 11345 and len(classes) == 1476
    assert len(calls) == len(set(calls)) <= 661 * len(tests)
    for m in {m for m, _ in calls}:
        homs = [h.assign for h in hom_enumerate(m.source, m.target)]
        assert m.assign == min(orbit(m), key=homs.index)
    monkeypatch.setattr(lifting, "lifting_check", check)
    assert got == per_map_orthogonal_class(side, tests, universe, HomCache())


def test_orthogonal_queries_never_build_a_universe(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("orthogonal queries must not build a universe")

    monkeypatch.setattr(lifting.Universe, "build", classmethod(refuse))
    env = Env({}, dict(BUILTIN_MAPS))
    # Sizes of the left and right classes of SIERP_TO_PT at sizes 0-3.
    want = {"left": [1, 3, 32, 1225], "right": [1, 3, 42, 3905]}
    for side, sizes in want.items():
        for size, count in enumerate(sizes):
            outcome = execute_query(OrthogonalQuery(side, ("SIERP_TO_PT",), size), env)
            assert len(outcome.maps) == count


def test_orthogonal_class_builds_no_failing_labeled_map(monkeypatch):
    validations = 0
    validate = MonotoneMap.__post_init__

    def counting_validate(self):
        nonlocal validations
        validations += 1
        validate(self)

    monkeypatch.setattr(MonotoneMap, "__post_init__", counting_validate)
    got = orthogonal_class("left", [SIERP_TO_PT], enumerate_preorders(3))
    # 1,476 maps between the 14 representatives, 52 tops in hom(P0, SIERP)
    # and 14 bottoms in hom(Q0, PT) for the lifting checks, and the 1,225
    # holding labeled maps.  The lifting checks decide their squares on
    # assignment tuples, so no diagonal is built as a map.  Building the
    # universe alone validates 11,345 maps.
    assert len(got) == 1225
    assert validations == 1476 + 52 + 14 + 1225 == 2767


@st.composite
def relabeled_spaces(draw):
    """A space of at most 3 points with its points, and their labels, permuted."""
    space = draw(spaces(max_size=3))
    return relabel(space, draw(st.permutations(range(len(space)))))


ISO_SIERP = relabel(SIERP, (1, 0))


@settings(max_examples=40, deadline=None)
@given(st.lists(relabeled_spaces(), max_size=4))
@example([])
@example([SIERP, SIERP])
@example([ISO_SIERP, SIERP, ISO_SIERP])
@example([VEE, TWO])
def test_orthogonal_class_on_any_spaces_equals_the_per_map_loop(space_list):
    """Labels out of canonical order, repeated classes, lists without a
    class's representative, and the empty list."""
    cache = HomCache()
    maps = tuple(m for p in space_list for q in space_list for m in cache.hom(p, q))
    universe = Universe(3, tuple(space_list), maps)
    for side in ("left", "right"):
        for tests in TEST_LISTS.values():
            got = orthogonal_class(side, tests, iter(space_list))
            assert got == per_map_orthogonal_class(side, tests, universe, cache)


GOLDEN = Path(__file__).parent / "golden"
# Byte lengths of the outputs of golden/orthogonal_3.lift, plain and
# --machine; golden/orthogonal_3.sha256 holds their SHA-256.  The outputs
# are pinned by digest because they run to several megabytes.
ORTHOGONAL_3_BYTES = {"out": 4_755_757, "jsonl": 6_606_046}


@pytest.mark.parametrize("suffix", ["out", "jsonl"])
def test_orthogonal_size_3_matches_pinned_digest(suffix):
    """Every (side, built-in test) pair at size 3, one two-test list and the
    empty list print exactly the pinned bytes.

    Regenerate the pins only for a change meant to alter the output, from
    ``liftprop run tests/golden/orthogonal_3.lift [--machine]`` piped into
    ``sha256sum`` and ``wc -c``.
    """
    pins = {}
    for line in (GOLDEN / "orthogonal_3.sha256").read_text().splitlines():
        digest, name = line.split()
        pins[name] = digest
    out = io.StringIO()
    assert run_file(str(GOLDEN / "orthogonal_3.lift"), suffix == "jsonl", out) == 0
    data = out.getvalue().encode("utf-8")
    assert len(data) == ORTHOGONAL_3_BYTES[suffix]
    assert hashlib.sha256(data).hexdigest() == pins[f"orthogonal_3.{suffix}"]


def test_self_lifting_scan_on_tiny_universe():
    universe = Universe.build(1)
    scanned = self_lifting_scan(universe)
    assert [f.source.labels for f in scanned] == [(), ("e0",)]
    assert all(is_isomorphism(f) for f in scanned)


def test_self_lifting_scan_finds_exactly_the_isomorphisms():
    universe = Universe.build(2)
    cache = HomCache()
    scanned = self_lifting_scan(universe, cache)
    assert scanned == [f for f in universe.maps if is_isomorphism(f)]
    assert len(scanned) == 10


def test_lifting_is_stable_under_composition_on_the_right():
    universe = Universe.build(2)
    cache = HomCache()
    table = {
        (f, g): lifting_check(f, g, cache).holds
        for f in universe.maps
        for g in universe.maps
    }
    assert sum(table.values()) == 2553
    by_value = {(m.source, m.target, m.assign): m for m in universe.maps}
    pairs = [
        (g1, g2)
        for g1 in universe.maps
        for g2 in universe.maps
        if g1.target == g2.source
    ]
    assert len(pairs) == 880
    for g1, g2 in pairs:
        composite = by_value[(g1.source, g2.target, compose(g1, g2).assign)]
        for f in universe.maps:
            if table[(f, g1)] and table[(f, g2)]:
                assert table[(f, composite)]


def test_universe_counts_cross_check():
    universe = Universe.build(2)
    assert len(universe.spaces) == 6
    assert len(universe.maps) == 69
    total = sum(
        len(hom_enumerate(p, q)) for p in universe.spaces for q in universe.spaces
    )
    assert total == 69


def test_hom_cache_returns_identical_tuples():
    cache = HomCache()
    first = cache.hom(SIERP, VEE)
    second = cache.hom(SIERP, VEE)
    assert first is second
    assert first == tuple(hom_enumerate(SIERP, VEE))


def scan_every_pair(f, g):
    """The full pair scan: tops outer, bottoms inner, commutation filter."""
    tops = hom_enumerate(f.source, g.source)
    bottoms = hom_enumerate(f.target, g.target)
    for i in tops:
        for j in bottoms:
            if any(g.assign[i.assign[a]] != j.assign[f.assign[a]] for a in range(len(f.source))):
                continue
            square = Square(f, g, i, j)
            if find_diagonal(square) is None:
                return LiftResult(False, square)
    return LiftResult(True, None)


def assert_same_as_full_scan(f, g):
    got, want = lifting_check(f, g), scan_every_pair(f, g)
    assert got.holds == want.holds
    if want.counterexample is None:
        assert got.counterexample is None
    else:
        assert got.counterexample.top == want.counterexample.top
        assert got.counterexample.bottom == want.counterexample.bottom


@st.composite
def spaces(draw, max_size=4, min_size=0):
    n = draw(st.integers(min_size, max_size))
    if not n:
        return EMPTY
    labels = [f"e{k}" for k in range(n)]
    label = st.sampled_from(labels)
    return build_space(labels, draw(st.lists(st.tuples(label, label), max_size=6)))


@st.composite
def maps(draw):
    source, target = draw(spaces()), draw(spaces())
    homs = hom_enumerate(source, target)
    assume(homs)
    return draw(st.sampled_from(homs))


@settings(max_examples=150, deadline=None)
@given(maps(), maps())
def test_lifting_check_matches_full_pair_scan(f, g):
    assert_same_as_full_scan(f, g)


@st.composite
def commuting_squares(draw):
    f, g = draw(maps()), draw(maps())
    tops = hom_enumerate(f.source, g.source)
    assume(tops)
    i = draw(st.sampled_from(tops))
    bottoms = [
        j
        for j in hom_enumerate(f.target, g.target)
        if all(g.assign[x] == j.assign[b] for x, b in zip(i.assign, f.assign))
    ]
    assume(bottoms)
    return Square(f, g, i, draw(st.sampled_from(bottoms)))


@settings(max_examples=300, deadline=None)
@given(commuting_squares())
def test_find_diagonal_matches_brute_force_on_random_squares(square):
    want = brute_force_diagonal(square)
    d = find_diagonal(square)
    assert (None if d is None else d.assign) == want
    f, g, i, j = square.left, square.right, square.top, square.bottom
    fibres = fibre_table(g)
    assert lifting._diagonal(f.assign, i.assign, j.assign, f.target, g.source, fibres) == want


def all_monotone(source, target):
    """Every monotone assignment source -> target, in lexicographic order, by brute force."""
    n = len(source)
    return [
        d
        for d in itertools.product(range(len(target)), repeat=n)
        if all(
            target.leq[d[a]][d[b]] for a in range(n) for b in range(n) if source.leq[a][b]
        )
    ]


def brute_force_lift(f, g):
    """(top, bottom) assignments of the first square with no diagonal, or None.

    Every (top, bottom) pair is tried, tops outer, and a commuting square
    has a diagonal when some d in hom(B, X) has d after f = top and
    g after d = bottom.
    """
    lifts = {
        (tuple(d[b] for b in f.assign), tuple(g.assign[x] for x in d))
        for d in all_monotone(f.target, g.source)
    }
    bottoms = all_monotone(f.target, g.target)
    for i in all_monotone(f.source, g.source):
        for j in bottoms:
            commutes = all(g.assign[x] == j[b] for x, b in zip(i, f.assign))
            if commutes and (i, j) not in lifts:
                return i, j
    return None


@settings(max_examples=150, deadline=None)
@given(maps(), maps())
def test_lifting_check_matches_brute_force_lift(f, g):
    result = lifting_check(f, g)
    want = brute_force_lift(f, g)
    assert result.holds == (want is None)
    if want is not None:
        square = result.counterexample
        assert (square.left, square.right) == (f, g)
        assert (square.top.assign, square.bottom.assign) == want


@pytest.mark.parametrize(
    "f, g, squares, holds",
    [
        (identity(VEE), identity(VEE), 11, True),
        (EMPTY_TO_PT, CODIAG, 1, True),
        (identity(TWO), identity(TWO), 4, True),
        # The first square has a diagonal and the second is the counterexample.
        (CODIAG, CODIAG, 2, False),
        (PT_TO_SIERP_CLOSED, PT_TO_SIERP_CLOSED, 2, False),
    ],
)
def test_lifting_check_builds_a_square_only_for_the_counterexample(
    monkeypatch, f, g, squares, holds
):
    # The hom-sets are built first, so only maps the check itself builds count.
    cache = HomCache()
    cache.hom(f.source, g.source)
    cache.hom(f.target, g.target)
    built = {"squares": 0, "maps": 0, "decided": 0}
    square_init, validate, decide = Square.__init__, MonotoneMap.__post_init__, lifting._diagonal

    def counting(key, call):
        def counted(*args):
            built[key] += 1
            return call(*args)

        return counted

    monkeypatch.setattr(Square, "__init__", counting("squares", square_init))
    monkeypatch.setattr(MonotoneMap, "__post_init__", counting("maps", validate))
    monkeypatch.setattr(lifting, "_diagonal", counting("decided", decide))
    result = lifting_check(f, g, cache)
    assert result.holds == holds
    assert built == {"squares": 0 if holds else 1, "maps": 0, "decided": squares}


def has_several_candidates(square):
    """Some point of B off the image of f has two or more points of X over it."""
    fibres, image = fibre_table(square.right), set(square.left.assign)
    return any(len(fibres[y]) > 1 for b, y in enumerate(square.bottom.assign) if b not in image)


@st.composite
def squares_with_several_candidates(draw):
    """A commuting square with a point of B off the image of f over a fibre of two or more.

    f is drawn from the maps that are not surjective and g from those that
    are not injective.  A constant top into a fibre of two or more points,
    with the constant bottom under it, always commutes, so the (top, bottom)
    list drawn from is never empty and nothing is filtered.  Every such
    square on f and g is in the list.
    """
    b = draw(spaces(min_size=1))
    a = draw(spaces(max_size=4 if len(b) > 1 else 0))
    f = draw(st.sampled_from([h for h in hom_enumerate(a, b) if not is_surjective(h)]))
    x, y = draw(spaces(min_size=2)), draw(spaces(min_size=1))
    g = draw(st.sampled_from([h for h in hom_enumerate(x, y) if not is_injective(h)]))
    fibres, image = fibre_table(g), set(f.assign)
    # Bottoms with a free point over a fibre of two or more, by their values on f's image.
    bottoms = {}
    for j in hom_enumerate(b, y):
        if any(len(fibres[v]) > 1 for p, v in enumerate(j.assign) if p not in image):
            bottoms.setdefault(tuple(j.assign[p] for p in f.assign), []).append(j)
    pairs = [
        (i, j)
        for i in hom_enumerate(a, x)
        for j in bottoms.get(tuple(g.assign[p] for p in i.assign), ())
    ]
    i, j = draw(st.sampled_from(pairs))
    return Square(f, g, i, j)


@settings(max_examples=200, deadline=None)
@given(squares_with_several_candidates())
def test_find_diagonal_matches_brute_force_with_several_candidates(square):
    assert has_several_candidates(square)
    want = brute_force_diagonal(square)
    d = find_diagonal(square)
    assert (None if d is None else d.assign) == want


@pytest.mark.parametrize(
    "f, g",
    [
        # Empty source of f: every bottom is filed under the key ().
        (EMPTY_TO_PT, CODIAG),
        (EMPTY_TO_PT, to_point(VEE)),
        (EMPTY_TO_PT, MonotoneMap(PT, SIERP, (1,))),
        # Non-injective f: two points of A read the same value of j.
        (CODIAG, CODIAG),
        (CODIAG, SIERP_TO_PT),
        (CODIAG, identity(TWO)),
        # Empty hom-sets: no bottoms, or neither tops nor bottoms.
        (EMPTY_TO_PT, identity(EMPTY)),
        (identity(PT), identity(EMPTY)),
        # One-point source of f: every key is a bare value, not a tuple.
        (identity(PT), CODIAG),
        (PT_TO_SIERP_CLOSED, SIERP_TO_PT),
        (MonotoneMap(PT, TWO, (1,)), to_point(TWO)),
        (PT_TO_SIERP_CLOSED, PT_TO_SIERP_CLOSED),  # fails: not dense
    ],
)
def test_lifting_check_matches_full_pair_scan_on_edge_cases(f, g):
    assert_same_as_full_scan(f, g)


def test_identity_self_lift_on_nine_points_finishes():
    """The identity of VEE x VEE lifts against itself.

    Its hom-set has 38,809 endomaps, so a full pair scan would test about
    1.5e9 pairs; the indexed scan visits only the 38,809 commuting squares
    and decides in about 1.5 s on a 2-core machine (hom-set included).
    """
    space, _ = product(VEE, VEE)
    assert len(space) == 9
    result = lifting_check(identity(space), identity(space))
    assert result.holds
