"""mono and epi queries: pinned outputs, a brute-force audit, and no universe maps.

``golden/mono_epi_3.lift`` and ``golden/mono_epi_4.lift`` ask mono and epi
of every built-in map and of a few declared ones.  Their outputs, plain
(``.out``) and ``--machine`` (``.jsonl``), are pinned byte for byte; when a
change is meant to alter one, regenerate it with
``liftprop run tests/golden/NAME.lift [--machine]``.  The programs stay out
of ``corpus/``, whose file list the benchmark reads.
"""

import io
import json
from pathlib import Path

import pytest

from liftprop import (
    EMPTY_TO_PT,
    codiagonal,
    diagonal,
    elaborate,
    encode_result,
    enumerate_preorders,
    is_injective,
    is_surjective,
    lifting,
    parse,
)
from liftprop.cli import execute_query, run_file
from liftprop.lifting import HomCache, Universe, epi_lift_result, mono_lift_result
from liftprop.notation import BUILTIN_MAPS, Env, EpiQuery, MonoQuery

import reference

GOLDEN = Path(__file__).parent / "golden"


def load(name):
    program = parse((GOLDEN / name).read_text(encoding="utf-8"))
    return program, elaborate(program)


@pytest.mark.parametrize("machine", [False, True], ids=["plain", "machine"])
def test_mono_epi_size_3_matches_golden_bytes(machine):
    out = io.StringIO()
    assert run_file(str(GOLDEN / "mono_epi_3.lift"), machine, out) == 0
    expected = GOLDEN / f"mono_epi_3.{'jsonl' if machine else 'out'}"
    assert out.getvalue().encode("utf-8") == expected.read_bytes()


def test_mono_epi_size_4_are_injective_surjective_with_audited_counterexamples():
    """Every verdict at size 4 is the direct one, and every counterexample
    is a commuting square of the stated shape that admits no diagonal."""
    program, env = load("mono_epi_4.lift")
    spaces = set(enumerate_preorders(4))
    records = []
    for query in program.queries:
        f = env.maps[query.name]
        outcome = execute_query(query, env)
        result = outcome.result
        records.append(json.dumps(encode_result(outcome), sort_keys=True) + "\n")
        mono = isinstance(query, MonoQuery)
        assert result.holds == (is_injective(f) if mono else is_surjective(f)), outcome.query
        if result.holds:
            continue
        square = result.counterexample
        if mono:
            z = square.left.target
            assert square.left == codiagonal(z) and square.right == f
        else:
            z = square.right.source
            assert square.left == f and square.right == diagonal(z)
        assert z in spaces
        assert reference.commutes(square), outcome.query
        assert reference.diagonal(square) is None, outcome.query
    assert "".join(records).encode("utf-8") == (GOLDEN / "mono_epi_4.jsonl").read_bytes()


def test_mono_epi_queries_never_build_a_universe(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mono and epi must not build a universe")

    monkeypatch.setattr(lifting.Universe, "build", classmethod(refuse))
    env = Env({}, dict(BUILTIN_MAPS))
    for size in range(5):
        for name in ("CODIAG", "PT_TO_SIERP_CLOSED"):
            mono = execute_query(MonoQuery(name, size), env).result
            epi = execute_query(EpiQuery(name, size), env).result
            assert mono.holds == (name != "CODIAG" or size == 0)
            assert epi.holds == (name == "CODIAG" or size <= 1)


SPACES_3 = enumerate_preorders(3)


def relabeled(space):
    """The space with its points in reverse order and fresh labels: isomorphic, not equal."""
    perm = range(len(space) - 1, -1, -1)
    return reference.relabel(space, perm, [f"z{x}" for x in perm])


TEST_SPACE_LISTS = {
    "forwards": SPACES_3,
    "reversed": SPACES_3[::-1],
    "relabeled-and-repeated": [w for z in SPACES_3 for w in (relabeled(z), z, relabeled(z), z)],
}


@pytest.mark.parametrize("spaces", TEST_SPACE_LISTS.values(), ids=TEST_SPACE_LISTS.keys())
def test_mono_epi_equal_the_check_of_every_test_space(spaces):
    """Deciding the first space of each class gives the verdict and the
    counterexample of a check of every space, in the order given."""
    cache = HomCache()
    for f in Universe.build(2, cache).maps + tuple(BUILTIN_MAPS.values()):
        mono = lifting._lift_all(((codiagonal(z), f) for z in spaces), cache)
        epi = lifting._lift_all(((f, diagonal(z)) for z in spaces), cache)
        assert mono_lift_result(f, spaces, cache) == mono, f
        assert epi_lift_result(f, spaces, cache) == epi, f


def test_holding_mono_decides_one_test_space_per_class(monkeypatch):
    calls = []
    check = lifting.lifting_check

    def counting_check(f, g, cache=None):
        calls.append(f.target)
        return check(f, g, cache)

    monkeypatch.setattr(lifting, "lifting_check", counting_check)
    assert mono_lift_result(EMPTY_TO_PT, SPACES_3).holds
    assert len(SPACES_3) == 35 and len(calls) == 14
