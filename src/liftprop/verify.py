"""Agreement suites between the lifting characterizations and the direct oracles.

Each suite sweeps a bounded universe exhaustively and counts mismatches;
a correct engine reports zero everywhere.  Each property of the lifting
table gets one suite, then come mono, epi and self-lifting.  Map-quantified
suites cap at size 3, space-quantified suites follow the requested bound,
and the mono/epi and self-lifting suites are pinned to the size-2 universe
where their equivalences are meaningful.
"""

from __future__ import annotations

from ._value import Value
from .lifting import (
    MAP_PROPERTIES,
    SPACE_PROPERTIES,
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
from .preorder import DEFAULT_SIZE_CAP, MonotoneMap, enumerate_preorders, is_isomorphism

MAP_SUITE_CAP = 3
STRUCTURE_SIZE = 2
# The smallest and largest size bound verify_paper accepts: the space
# suites run up to the largest preorder enumerated.
PAPER_SIZES = (1, DEFAULT_SIZE_CAP)


class SuiteReport(Value):
    __slots__ = ("suite", "instances", "mismatches", "first_mismatch")
    suite: str
    instances: int
    mismatches: int
    first_mismatch: str | None


def _describe(f: MonotoneMap) -> str:
    return f"{f!r} from {f.source!r} to {f.target!r}"


def _suite(name: str, instances, agrees, describe) -> SuiteReport:
    """Count the instances on which ``agrees`` fails, describing the first."""
    mismatches, first = 0, None
    for x in instances:
        if not agrees(x):
            mismatches += 1
            if first is None:
                first = describe(x)
    return SuiteReport(name, len(instances), mismatches, first)


def verify_paper(max_size: int) -> list[SuiteReport]:
    """Run every suite at the given space-size bound, in a fixed order.

    The property suites, in PROPERTY_IDS order, compare ``characterize`` with
    the oracle each name is paired with here.  Every function is looked up
    in this module at call time, so wrappers installed on it see each call.
    """
    low, high = PAPER_SIZES
    if not low <= max_size <= high:
        raise ValueError(f"max_size must be between {low} and {high}, got {max_size}")
    cache = HomCache()
    map_universe = Universe.build(min(max_size, MAP_SUITE_CAP), cache)
    spaces = tuple(enumerate_preorders(max_size))
    if map_universe.max_size == STRUCTURE_SIZE:
        structure = map_universe
    else:
        structure = Universe.build(STRUCTURE_SIZE, cache)
    oracles = {
        "surjective": is_surjective, "injective": is_injective, "dense": has_dense_image,
        "induced": has_induced_topology, "pi0-injective": pi0_injective,
        "connected": is_connected, "T0": is_T0, "T1": is_T1, "hausdorff": is_hausdorff,
    }

    def lifts_as_oracle(name):
        oracle = oracles[name]
        return lambda x: characterize(name, x, cache).holds == oracle(x)

    reports = [
        _suite(name, map_universe.maps, lifts_as_oracle(name), _describe)
        for name in MAP_PROPERTIES
    ]
    reports += [_suite(name, spaces, lifts_as_oracle(name), repr) for name in SPACE_PROPERTIES]
    tests, maps = structure.spaces, structure.maps

    def mono(f):
        lifts = is_mono_upto(f, tests, cache)
        return lifts == is_mono_cancellation(f, tests, cache) == is_injective(f)

    def epi(f):
        lifts = is_epi_upto(f, tests, cache)
        return lifts == is_epi_cancellation(f, tests, cache) == is_surjective(f)

    def self_lifts(f):
        return (f in holding) == is_isomorphism(f)

    reports.append(_suite("mono", maps, mono, _describe))
    reports.append(_suite("epi", maps, epi, _describe))
    holding = set(self_lifting_scan(structure, cache))
    reports.append(_suite("self-lifting", maps, self_lifts, _describe))
    return reports
