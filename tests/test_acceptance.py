"""Acceptance gate: eight exhaustive oracle-equivalence criteria.

Each test prints one PASS/FAIL line (run pytest -s to see them all) and
asserts the criterion.  The naive re-implementations used for auditing
live in this file so the gate stays independent of the library's own
search code.
"""

import random
import time
from io import StringIO
from itertools import product as cartesian
from pathlib import Path

from liftprop import (
    CODIAG,
    EMPTY_TO_PT,
    INDISC_TO_PT,
    PT_TO_SIERP_CLOSED,
    SIERP_TO_PT,
    TWO,
    VEE,
    HomCache,
    Universe,
    characterize,
    codiagonal,
    diagonal,
    elaborate,
    enumerate_preorders,
    has_dense_image,
    has_induced_topology,
    is_T0,
    is_T1,
    is_connected,
    is_epi_cancellation,
    is_epi_upto,
    is_hausdorff,
    is_injective,
    is_isomorphism,
    is_mono_cancellation,
    is_mono_upto,
    is_surjective,
    lifting_check,
    orthogonal_class,
    parse,
    pi0_injective,
    print_query,
    print_space,
    self_lifting_scan,
    to_point,
)
from liftprop.cli import run_file
from liftprop.notation import SpaceDecl

CORPUS = sorted(Path(__file__).parent.glob("corpus/*.lift"))


def report(number, detail, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_surjectivity_injectivity_oracles():
    start = time.monotonic()
    cache = HomCache()
    spaces = list(enumerate_preorders(3))
    maps = 0
    mismatches = 0
    for p in spaces:
        for q in spaces:
            for f in cache.hom(p, q):
                maps += 1
                if characterize("surjective", f, cache).holds != is_surjective(f):
                    mismatches += 1
                if characterize("injective", f, cache).holds != is_injective(f):
                    mismatches += 1
    elapsed = time.monotonic() - start
    report(
        1,
        f"surjective/injective lifting forms agree with the set oracles "
        f"on all {maps} maps of size <= 3 ({elapsed:.1f}s)",
        maps == 11345 and mismatches == 0 and elapsed < 60.0,
    )


def test_criterion_2_topological_property_oracles():
    cache = HomCache()
    spaces4 = list(enumerate_preorders(4))
    sizes = [0] * 5
    for p in spaces4:
        sizes[len(p)] += 1
    space_oracles = {
        "connected": is_connected,
        "T0": is_T0,
        "T1": is_T1,
        "hausdorff": is_hausdorff,
    }
    space_mismatches = sum(
        1
        for p in spaces4
        for name, oracle in space_oracles.items()
        if characterize(name, p, cache).holds != oracle(p)
    )
    map_oracles = {
        "dense": has_dense_image,
        "induced": has_induced_topology,
        "pi0-injective": pi0_injective,
    }
    spaces3 = list(enumerate_preorders(3))
    maps = 0
    map_mismatches = 0
    for p in spaces3:
        for q in spaces3:
            for f in cache.hom(p, q):
                maps += 1
                for name, oracle in map_oracles.items():
                    if characterize(name, f, cache).holds != oracle(f):
                        map_mismatches += 1
    report(
        2,
        f"connected/T0/T1/hausdorff agree on all {len(spaces4)} spaces of "
        f"size <= 4; dense/induced/pi0-injective agree on all {maps} maps of size <= 3",
        sizes == [1, 1, 4, 29, 355]
        and space_mismatches == 0
        and maps == 11345
        and map_mismatches == 0,
    )


def test_criterion_3_mono_epi_three_way_agreement():
    cache = HomCache()
    universe = Universe.build(2, cache)
    disagreements = 0
    for f in universe.maps:
        mono = is_mono_upto(f, universe.spaces, cache)
        if not (mono == is_mono_cancellation(f, universe.spaces) == is_injective(f)):
            disagreements += 1
        epi = is_epi_upto(f, universe.spaces, cache)
        if not (epi == is_epi_cancellation(f, universe.spaces) == is_surjective(f)):
            disagreements += 1
    report(
        3,
        f"mono/epi lifting forms, cancellation, and injective/surjective "
        f"agree on all {len(universe.maps)} maps of Universe(2)",
        len(universe.maps) == 69 and disagreements == 0,
    )


def sample_maps_of_size_3(count=100):
    rng = random.Random(0)
    cache = HomCache()
    spaces = list(enumerate_preorders(3))
    out = []
    while len(out) < count:
        homs = cache.hom(rng.choice(spaces), rng.choice(spaces))
        if homs:
            out.append(rng.choice(homs))
    return out


def test_criterion_4_self_lifting_is_isomorphism():
    cache = HomCache()
    universe = Universe.build(2, cache)
    scanned = self_lifting_scan(universe, cache)
    isos = [f for f in universe.maps if is_isomorphism(f)]
    sampled = sample_maps_of_size_3()
    sample_ok = all(
        lifting_check(f, f, cache).holds == is_isomorphism(f) for f in sampled
    )
    report(
        4,
        f"self-lifting maps of Universe(2) are exactly the {len(isos)} "
        f"isomorphisms; {len(sampled)} random size-3 maps agree",
        scanned == isos and len(isos) == 10 and len(sampled) == 100 and sample_ok,
    )


def independent_preorder_count(n):
    # brute force: every reflexive relation on n points, filtered by
    # transitivity; no sharing with the library's enumerator
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    total = 0
    for bits in range(1 << len(pairs)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                rel[i][j] = True
        if all(
            rel[i][k] or not (rel[i][j] and rel[j][k])
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            total += 1
    return total


def test_criterion_5_enumeration_counts():
    counts = [0] * 5
    for p in enumerate_preorders(4):
        counts[len(p)] += 1
    brute = [independent_preorder_count(n) for n in range(5)]
    report(
        5,
        f"labeled preorder counts by size are {counts}, matching the brute-force filter",
        counts == [1, 1, 4, 29, 355] and brute == counts,
    )


def test_criterion_6_two_negations_differ():
    cache = HomCache()
    universe = Universe.build(2, cache)
    left = orthogonal_class("left", [SIERP_TO_PT], universe.spaces, cache)
    right = orthogonal_class("right", [SIERP_TO_PT], universe.spaces, cache)
    induced = [f for f in universe.maps if has_induced_topology(f)]
    to_singleton = [g for g in right if len(g.target) == 1]
    t1_spaces = {p for p in universe.spaces if is_T1(p)}
    report(
        6,
        f"left ({len(left)} maps) and right ({len(right)} maps) classes of the "
        f"Sierpinski collapse differ; the right class over singleton targets "
        f"marks exactly the T1 spaces and the left class the induced maps",
        set(left) != set(right)
        and left == induced
        and len(left) == 32
        and len(right) == 42
        and len(to_singleton) == 3
        and {g.source for g in to_singleton} == t1_spaces
        and len(t1_spaces) == 3,
    )


def reprint_program(program, env):
    lines = []
    for decl in program.declarations:
        if isinstance(decl, SpaceDecl):
            lines.append(print_space(env.spaces[decl.name], decl.name))
        else:
            f = env.maps[decl.name]
            items = ", ".join(f"{a} |-> {b}" for a, b in f.assignment_by_label())
            body = f"{{ {items} }}" if items else "{ }"
            lines.append(f"map {decl.name} : {decl.source} -> {decl.target} = {body}")
    lines.extend(print_query(query) for query in program.queries)
    return "\n".join(lines) + "\n"


def machine_run_all():
    chunks = []
    for path in CORPUS:
        buffer = StringIO()
        assert run_file(str(path), machine=True, out=buffer) == 0
        chunks.append(buffer.getvalue())
    return "".join(chunks)


def test_criterion_7_round_trip_and_stable_output():
    spaces_ok = True
    for space in enumerate_preorders(3):
        text = print_space(space, "S")
        again = elaborate(parse(text)).spaces["S"]
        if again != space or print_space(again, "S") != text:
            spaces_ok = False
    corpus_ok = len(CORPUS) >= 20
    for path in CORPUS:
        program = parse(path.read_text(encoding="utf-8"))
        env = elaborate(program)
        text = reprint_program(program, env)
        reparsed = parse(text)
        env2 = elaborate(reparsed)
        if (
            reparsed.queries != program.queries
            or env2.spaces != env.spaces
            or env2.maps != env.maps
            or reprint_program(reparsed, env2) != text
        ):
            corpus_ok = False
    first = machine_run_all()
    second = machine_run_all()
    report(
        7,
        f"print/parse is the identity on all 35 spaces of size <= 3 and "
        f"{len(CORPUS)} corpus programs; machine output is byte-stable",
        spaces_ok and corpus_ok and first != "" and first == second,
    )


def naive_monotone(source, target, assign):
    n = len(source)
    return all(
        target.leq[assign[i]][assign[j]]
        for i in range(n)
        for j in range(n)
        if source.leq[i][j]
    )


def audit(f, g, square):
    """From-scratch check: the square commutes and admits no diagonal."""
    a, b = f.source, f.target
    x, y = g.source, g.target
    if square.top.source != a or square.top.target != x:
        return False
    if square.bottom.source != b or square.bottom.target != y:
        return False
    top, bottom = square.top.assign, square.bottom.assign
    if any(g.assign[top[i]] != bottom[f.assign[i]] for i in range(len(a))):
        return False
    for assign in cartesian(range(len(x)), repeat=len(b)):
        if not naive_monotone(b, x, assign):
            continue
        if any(assign[f.assign[i]] != top[i] for i in range(len(a))):
            continue
        if any(g.assign[assign[i]] != bottom[i] for i in range(len(b))):
            continue
        return False
    return True


def failing_lifts():
    """Every failing lift exercised by criteria 1 through 4."""
    cache = HomCache()
    found = []

    def probe(f, g):
        result = lifting_check(f, g, cache)
        if not result.holds:
            found.append((f, g, result.counterexample))
        return result.holds

    spaces3 = list(enumerate_preorders(3))
    for p in spaces3:
        for q in spaces3:
            for h in cache.hom(p, q):
                probe(EMPTY_TO_PT, h)
                probe(CODIAG, h)
                probe(h, PT_TO_SIERP_CLOSED)
                probe(h, SIERP_TO_PT)
                probe(h, CODIAG)
    for p in enumerate_preorders(4):
        probe(to_point(p), CODIAG)
        probe(INDISC_TO_PT, to_point(p))
        probe(SIERP_TO_PT, to_point(p))
        for pair in cache.hom(TWO, p):
            if is_injective(pair) and not probe(pair, to_point(VEE)):
                break
    universe = Universe.build(2, cache)
    for h in universe.maps:
        probe(h, h)
        for z in universe.spaces:
            if not probe(codiagonal(z), h):
                break
        for z in universe.spaces:
            if not probe(h, diagonal(z)):
                break
    for h in sample_maps_of_size_3():
        probe(h, h)
    return found


def test_criterion_8_counterexample_audit():
    found = failing_lifts()
    invalid = sum(1 for f, g, square in found if not audit(f, g, square))
    report(
        8,
        f"all {len(found)} counterexample squares from the oracle sweeps "
        f"commute and admit no diagonal",
        len(found) > 0 and invalid == 0,
    )
