"""mono and epi queries: pinned outputs, a brute-force audit, and no universe maps.

``golden/mono_epi_3.lift`` and ``golden/mono_epi_4.lift`` ask mono and epi
of every built-in map and of a few declared ones.  Their outputs, plain
(``.out``) and ``--machine`` (``.jsonl``), are pinned byte for byte; when a
change is meant to alter one, regenerate it with
``liftprop run tests/golden/NAME.lift [--machine]``.  The programs stay out
of ``corpus/``, whose file list the benchmark reads.
"""

import io
import itertools
import json
from pathlib import Path

import pytest

from liftprop import (
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
from liftprop.notation import BUILTIN_MAPS, Env, EpiQuery, MonoQuery

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


def brute_force_has_diagonal(square):
    """Whether any assignment B -> X is a monotone diagonal of the square."""
    f, g, i, j = square.left, square.right, square.top, square.bottom
    b, x = f.target, g.source
    for d in itertools.product(range(len(x)), repeat=len(b)):
        if (
            all(d[f.assign[a]] == i.assign[a] for a in range(len(f.source)))
            and all(g.assign[d[p]] == j.assign[p] for p in range(len(b)))
            and all(x.leq[d[p]][d[q]] for p in range(len(b)) for q in range(len(b)) if b.leq[p][q])
        ):
            return True
    return False


def commutes(square):
    f, g, i, j = square.left, square.right, square.top, square.bottom
    return all(g.assign[i.assign[a]] == j.assign[f.assign[a]] for a in range(len(f.source)))


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
        assert commutes(square), outcome.query
        assert not brute_force_has_diagonal(square), outcome.query
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
