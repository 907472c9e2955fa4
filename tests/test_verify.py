"""Agreement suites: shape, ordering, and instance counts."""

import importlib.util
from pathlib import Path

import pytest

import liftprop
import liftprop.cli
from liftprop import (
    MAP_PROPERTIES,
    PROPERTY_IDS,
    SPACE_PROPERTIES,
    FinPreorder,
    SuiteReport,
    characterize,
    enumerate_preorders,
    has_dense_image,
    has_induced_topology,
    is_injective,
    is_surjective,
    pi0_injective,
    verify,
    verify_paper,
)
from liftprop.lifting import HomCache
from liftprop.preorder import class_of

SUITE_ORDER = [
    "surjective",
    "injective",
    "dense",
    "induced",
    "pi0-injective",
    "connected",
    "T0",
    "T1",
    "hausdorff",
    "mono",
    "epi",
    "self-lifting",
]


def test_all_suites_pass_at_size_2():
    reports = verify_paper(2)
    assert [r.suite for r in reports] == SUITE_ORDER
    assert all(isinstance(r, SuiteReport) for r in reports)
    assert all(r.mismatches == 0 for r in reports)
    assert all(r.first_mismatch is None for r in reports)


def test_instance_counts_at_size_2():
    by_suite = {r.suite: r.instances for r in verify_paper(2)}
    assert by_suite["surjective"] == 69  # every map of Universe(2)
    assert by_suite["connected"] == 6  # every space of size <= 2
    assert by_suite["mono"] == by_suite["epi"] == by_suite["self-lifting"] == 69


def test_space_suites_grow_with_the_bound():
    by_suite = {r.suite: r.instances for r in verify_paper(3)}
    assert by_suite["connected"] == 35
    assert by_suite["surjective"] == 11345
    assert by_suite["self-lifting"] == 69  # structure suites stay at size 2


def test_size_bound_is_enforced():
    with pytest.raises(ValueError):
        verify_paper(0)
    with pytest.raises(ValueError):
        verify_paper(6)


def test_lifting_table_is_the_single_source_of_properties():
    assert MAP_PROPERTIES == ("surjective", "injective", "dense", "induced", "pi0-injective")
    assert SPACE_PROPERTIES == ("connected", "T0", "T1", "hausdorff")
    assert PROPERTY_IDS == MAP_PROPERTIES + SPACE_PROPERTIES
    assert [r.suite for r in verify_paper(1)] == [*PROPERTY_IDS, "mono", "epi", "self-lifting"]


def test_benchmark_tracer_sees_every_suite_and_oracle():
    # The benchmark times each suite by wrapping names on liftprop.verify,
    # so verify_paper must call each of them through the module.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = verify.characterize
    tracer = tracing.Tracer(liftprop)
    tracer.install()
    try:
        verify_paper(2)
    finally:
        tracer.uninstall()
    seen = {span[0] for span in tracer.spans}
    for suite, names in tracing.SUITE_SPANS.items():
        assert set(names) <= seen, suite
    assert {f"oracles.{name}" for name in tracing.ORACLES} <= seen
    assert verify.characterize is original


MAP_ORACLES = {
    "surjective": is_surjective,
    "injective": is_injective,
    "dense": has_dense_image,
    "induced": has_induced_topology,
    "pi0-injective": pi0_injective,
}


def test_map_properties_agree_with_their_oracles_between_size_4_representatives():
    """Every map between the 47 representatives of spaces on at most 4 points.

    A lifting form and its oracle both hold or fail together along
    isomorphisms of arrows, so this covers every labeled map on at most 4
    points, where the map suites of verify_paper stop at 3.
    """
    forms = sorted({class_of(space)[0].space.leq for space in enumerate_preorders(4)})
    reps = [FinPreorder(tuple(f"e{x}" for x in range(len(form))), form) for form in forms]
    cache = HomCache()
    maps = [m for p in reps for q in reps for m in cache.hom(p, q)]
    assert list(MAP_ORACLES) == list(MAP_PROPERTIES)
    assert len(reps) == 47 and len(maps) == 87436
    mismatches = [
        (name, m)
        for name, oracle in MAP_ORACLES.items()
        for m in maps
        if characterize(name, m, cache).holds != oracle(m)
    ]
    assert mismatches == []
