"""Agreement suites between the lifting characterizations and the direct oracles.

Each suite sweeps a bounded universe exhaustively and counts mismatches;
a correct engine reports zero everywhere.  Map-quantified suites cap at
size 3, space-quantified suites follow the requested bound, and the
mono/epi and self-lifting suites are pinned to the size-2 universe where
their equivalences are meaningful.
"""

from __future__ import annotations

from ._value import Value
from .lifting import (
    HomCache,
    Universe,
    characterize,
    is_epi_cancellation,
    is_epi_upto,
    is_mono_cancellation,
    is_mono_upto,
    self_lifting_scan,
)
from .oracles import (
    has_dense_image,
    has_induced_topology,
    is_T0,
    is_T1,
    is_connected,
    is_hausdorff,
    is_injective,
    is_surjective,
    pi0_injective,
)
from .preorder import FinPreorder, MonotoneMap, enumerate_preorders, is_isomorphism

MAP_SUITE_CAP = 3
STRUCTURE_SIZE = 2


class SuiteReport(Value):
    __slots__ = ("suite", "instances", "mismatches", "first_mismatch")
    suite: str
    instances: int
    mismatches: int
    first_mismatch: str | None


def _describe(f: MonotoneMap) -> str:
    return f"{f!r} from {f.source!r} to {f.target!r}"


def _map_property_suite(name, oracle, universe: Universe, cache: HomCache) -> SuiteReport:
    mismatches, first = 0, None
    for f in universe.maps:
        if characterize(name, f, cache).holds != oracle(f):
            mismatches += 1
            if first is None:
                first = _describe(f)
    return SuiteReport(name, len(universe.maps), mismatches, first)


def _space_property_suite(name, oracle, spaces: tuple[FinPreorder, ...], cache) -> SuiteReport:
    mismatches, first = 0, None
    for space in spaces:
        if characterize(name, space, cache).holds != oracle(space):
            mismatches += 1
            if first is None:
                first = repr(space)
    return SuiteReport(name, len(spaces), mismatches, first)


def _mono_suite(universe: Universe, cache: HomCache) -> SuiteReport:
    mismatches, first = 0, None
    for f in universe.maps:
        lifted = is_mono_upto(f, universe.spaces, cache)
        cancelled = is_mono_cancellation(f, universe.spaces)
        if not (lifted == cancelled == is_injective(f)):
            mismatches += 1
            if first is None:
                first = _describe(f)
    return SuiteReport("mono", len(universe.maps), mismatches, first)


def _epi_suite(universe: Universe, cache: HomCache) -> SuiteReport:
    mismatches, first = 0, None
    for f in universe.maps:
        lifted = is_epi_upto(f, universe.spaces, cache)
        cancelled = is_epi_cancellation(f, universe.spaces)
        if not (lifted == cancelled == is_surjective(f)):
            mismatches += 1
            if first is None:
                first = _describe(f)
    return SuiteReport("epi", len(universe.maps), mismatches, first)


def _self_lifting_suite(universe: Universe, cache: HomCache) -> SuiteReport:
    holding = set(self_lifting_scan(universe, cache))
    mismatches, first = 0, None
    for f in universe.maps:
        if (f in holding) != is_isomorphism(f):
            mismatches += 1
            if first is None:
                first = _describe(f)
    return SuiteReport("self-lifting", len(universe.maps), mismatches, first)


def verify_paper(max_size: int) -> list[SuiteReport]:
    """Run every suite at the given space-size bound, in a fixed order."""
    if not 1 <= max_size <= 4:
        raise ValueError(f"max_size must be between 1 and 4, got {max_size}")
    cache = HomCache()
    map_universe = Universe.build(min(max_size, MAP_SUITE_CAP), cache)
    spaces = tuple(enumerate_preorders(max_size))
    if map_universe.max_size == STRUCTURE_SIZE:
        structure = map_universe
    else:
        structure = Universe.build(STRUCTURE_SIZE, cache)
    return [
        _map_property_suite("surjective", is_surjective, map_universe, cache),
        _map_property_suite("injective", is_injective, map_universe, cache),
        _map_property_suite("dense", has_dense_image, map_universe, cache),
        _map_property_suite("induced", has_induced_topology, map_universe, cache),
        _map_property_suite("pi0-injective", pi0_injective, map_universe, cache),
        _space_property_suite("connected", is_connected, spaces, cache),
        _space_property_suite("T0", is_T0, spaces, cache),
        _space_property_suite("T1", is_T1, spaces, cache),
        _space_property_suite("hausdorff", is_hausdorff, spaces, cache),
        _mono_suite(structure, cache),
        _epi_suite(structure, cache),
        _self_lifting_suite(structure, cache),
    ]
