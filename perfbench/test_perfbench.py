"""Tests of the benchmark itself: reference answers, checks, and pinned counters.

Run from the repository root with ``python3 -m pytest perfbench``.  The
pinned counters are exact work counts of one traced pass at seed 1; an
engine change that alters them should say so, since counts do not vary
between runs the way timings do.
"""

import hashlib

import pytest

import naive
import run
from workloads import WORKLOADS

SEED = 1

# Exact per-pass counters of the traced run at seed 1.  verify-paper's do not
# depend on the seed.
PINNED = {
    "cli-cold": {
        "lifting.lifting_check_calls": 373,
        "lifting.commuting_squares": 762,
        "lifting.hom_cache_calls": 1_035,
        "preorder.hom_sets_built": 569,
        "preorder.maps_enumerated": 1_317,
        "preorder.map_validations": 2_074,
        "lifting.pairs_scanned": 997,
        "lifting.universe_maps": 486,
        "notation.output_bytes": 35_205,
    },
    "lift-scan": {
        "lifting.lifting_check_calls": 1_080,
        "lifting.commuting_squares": 40_461,
        "lifting.hom_cache_calls": 2_160,
        "preorder.hom_sets_built": 2_120,
        "preorder.maps_enumerated": 222_486,
        "preorder.map_validations": 262_253,
        "lifting.pairs_scanned": 3_131_592,
        "lifting.universe_maps": 0,
        "notation.output_bytes": 0,
    },
    "quantify": {
        "lifting.lifting_check_calls": 91_170,
        "lifting.commuting_squares": 170_657,
        "lifting.hom_cache_calls": 231_388,
        "preorder.hom_sets_built": 50_354,
        "preorder.maps_enumerated": 488_316,
        "preorder.map_validations": 604_765,
        "lifting.pairs_scanned": 658_560,
        "lifting.universe_maps": 453_800,
        "notation.output_bytes": 14_217_130,
    },
    "verify-paper": {
        "lifting.lifting_check_calls": 59_200,
        "lifting.commuting_squares": 120_922,
        "lifting.hom_cache_calls": 120_650,
        "preorder.hom_sets_built": 3_906,
        "preorder.maps_enumerated": 25_494,
        "preorder.map_validations": 110_686,
        "lifting.pairs_scanned": 232_547,
        "lifting.universe_maps": 11_414,
        "notation.output_bytes": 0,
    },
}


def set_up(name, seed=SEED):
    return run.set_up(WORKLOADS[name], seed)[1]


def op_hash(workload):
    return hashlib.sha256("\n\0".join(workload.op_texts()).encode()).hexdigest()


def test_naive_preorder_counts():
    for n in range(4):
        assert sum(len(s[0]) == n for s in naive.preorders(3)) == naive.LABELED_PREORDERS[n]


def test_naive_lift_matches_documented_counterexample():
    # liftprop lift CODIAG SIERP_TO_PT: top { p |-> b, q |-> s }, bottom { pt |-> pt }
    holds, square = naive.lift(naive.MAPS["CODIAG"], naive.MAPS["SIERP_TO_PT"])
    assert not holds and square == ((0, 1), (0,))
    assert naive.audit(naive.MAPS["CODIAG"], naive.MAPS["SIERP_TO_PT"], *square)
    assert naive.lift(naive.MAPS["EMPTY_TO_PT"], naive.MAPS["CODIAG"]) == (True, None)


def test_naive_mono_epi_are_injective_surjective():
    spaces = naive.preorders(2)
    for f in naive.universe_maps(spaces):
        assert naive.mono(f, spaces) == (len(set(f[2])) == len(f[2]))
        assert naive.epi(f, spaces) == (set(f[2]) == set(range(len(f[1][0]))))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    first = set_up(name)
    try:
        again = WORKLOADS[name](first.lp, SEED, run.ROOT)
        try:
            assert op_hash(again) == op_hash(first)
        finally:
            again.close()
        if name != "verify-paper":
            other = WORKLOADS[name](first.lp, SEED + 1, run.ROOT)
            try:
                assert op_hash(other) != op_hash(first)
            finally:
                other.close()
    finally:
        first.close()


def test_lift_scan_check_rejects_wrong_answers():
    workload = set_up("lift-scan")
    kinds = [op[0] for op in workload.ops]
    iso = kinds.index("iso-self")
    failing = next(k for k in range(len(workload)) if not workload.run(k)[0])
    holds, top, bottom = workload.run(failing)
    assert workload.check(iso, workload.run(iso))
    assert workload.check(failing, (holds, top, bottom))
    assert not workload.check(iso, (False, top, bottom))
    assert not workload.check(failing, (True, None, None))
    assert not workload.check(failing, (False, None, None))


def test_quantify_check_rejects_wrong_answers():
    workload = set_up("quantify")
    for k in (1, 5):  # a mono and a hom query
        digest = workload.digest(k, workload.run(k))
        assert workload.check(k, digest)
        well_formed, size, answer = digest
        wrong = "0" * 64 if isinstance(answer, str) else (not answer[0], None)
        assert not workload.check(k, (well_formed, size, wrong))
        assert not workload.check(k, (False, size, answer))


def test_cli_cold_check_rejects_wrong_output():
    workload = set_up("cli-cold")
    try:
        status, stdout, size = workload.digest(0, workload.run(0))
        assert workload.check(0, (status, stdout, size))
        assert not workload.check(0, (1, stdout, size))
        flipped = stdout.replace('"holds": true', '"holds": false', 1)
        assert flipped != stdout and not workload.check(0, (status, flipped, size))
    finally:
        workload.close()


def test_verify_paper_check_rejects_mismatch():
    workload = set_up("verify-paper")
    good = workload.digest(0, workload.run(0))
    assert workload.check(0, good)
    assert not workload.check(0, [(s, n, 1) for s, n, _ in good])


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_counters(name):
    workload = set_up(name)
    try:
        metrics, failures, _ = run.traced_pass(workload)
    finally:
        workload.close()
    assert failures == 0
    assert {key: metrics[key] for key in PINNED[name]} == PINNED[name]


def test_pass_rate_counts_each_op_once_at_its_mean_time():
    class TwoOps:
        def __len__(self):
            return 2

    # Op 0 ran twice (1 s each) and op 1 once (3 s): one pass takes 4 s.
    assert run.pass_rate(TwoOps(), [1.0, 3.0, 1.0]) == 0.5
