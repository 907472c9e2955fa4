"""Benchmark for liftprop: four workloads, end-to-end metrics or a per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload lift-scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

The package is imported from ``src/`` next to this directory.  A run sets
up (fresh import, input generation, warm-up) a few times, runs the op list
as a closed loop with one caller for at least one pass and ``--seconds``
of op time, then sets up a few more times; ``setup_s`` is the median of
all set-ups.  A fixed reference loop is timed between stretches of ops,
and ``scaled_ops_per_s`` divides each op's time by the reference time
around it, which takes out most of the drift in the machine's speed.
Every op's output is checked against ``naive`` outside the timed region.
The last line of stdout is one JSON object; the lines above it are for
people.  With ``--trace 1`` the run instead times one plain pass of the op
list and one traced pass, and reports the per-layer metrics of the traced
pass.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import naive
from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
# Set-ups before the timed loop and after it; setup_s is the median of all.
SETUP_BEFORE, SETUP_AFTER = 4, 5
STARTUP_PROBES = 5
# The reference loop runs after every REF_EVERY_S of op time, and scaled
# rates are quoted for a machine on which it takes REF_NOMINAL_S.
REF_CELLS, REF_ENTRIES = 1_000, 6_000
REF_EVERY_S = 0.25
REF_NOMINAL_S = 0.005
END_TO_END = {"scaled_ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_package():
    """Import liftprop afresh from SRC, dropping any copy already loaded."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "liftprop" or m.startswith("liftprop.")]:
        del sys.modules[name]
    lp = importlib.import_module("liftprop")
    importlib.import_module("liftprop.cli")
    if Path(lp.__file__).resolve().parent != SRC / "liftprop":
        raise ImportError(f"liftprop was imported from {lp.__file__}, not from {SRC}")
    return lp


def set_up_once(workload_class, seed):
    """One set-up: fresh import, input generation and warm-up; returns (seconds, workload)."""
    start = time.perf_counter()
    naive.forget()
    lp = load_package()
    workload = workload_class(lp, seed, ROOT)
    try:
        workload.warm_up()
    except BaseException:
        workload.close()
        raise
    gc.collect()
    elapsed = time.perf_counter() - start
    naive.forget()
    return elapsed, workload


def set_up(workload_class, seed):
    """Set up SETUP_BEFORE times; return the set-up times and the last workload."""
    times, workload = [], None
    for _ in range(SETUP_BEFORE):
        if workload is not None:
            workload.close()
        elapsed, workload = set_up_once(workload_class, seed)
        times.append(elapsed)
    return times, workload


def more_set_ups(workload_class, seed):
    """Times of SETUP_AFTER more set-ups, whose workloads are dropped at once."""
    times = []
    for _ in range(SETUP_AFTER):
        elapsed, workload = set_up_once(workload_class, seed)
        workload.close()
        times.append(elapsed)
    return times


class _Cell:
    __slots__ = ("key", "rank")

    def __init__(self, key, rank):
        self.key, self.rank = key, rank

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key


def reference_loop():
    """Fixed pure-Python work that imports nothing from liftprop.

    Like the engine, it builds small tuples and objects and hashes them
    into a set.  It then fills and walks a dict of about a megabyte,
    because code with a large working set, such as a universe build, slows
    more than the rest when the machine is busy.
    """
    seen, total = set(), 0
    for i in range(REF_CELLS):
        cell = _Cell(tuple((i >> j) & 3 for j in range(4)), i % 11)
        if cell not in seen:
            seen.add(cell)
        total += cell.rank
    table = {(i, i >> 3, i & 7): [i] for i in range(REF_ENTRIES)}
    for key, value in table.items():
        total += value[0] & key[2]
    return total + len(seen)


def reference_sample():
    """Seconds the reference loop takes right now: the median of three runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(sorted_values, q):
    """Nearest-rank percentile, or None unless at least 10 samples lie beyond it."""
    n = len(sorted_values)
    rank = math.ceil(q * n)
    if n - rank < 10:
        return None
    return sorted_values[rank - 1]


def timed_loop(workload, seconds):
    """Run ops in list order, cycling, for at least one pass and `seconds` of op time.

    Returns (latencies, scaled latencies, reference samples, digests).
    The reference loop is timed before the first op and after every
    REF_EVERY_S of op time.  An op's scaled latency is its latency divided
    by the mean of the two samples around it: its time in units of the
    reference loop.  Outputs are digested outside the timed region; an op
    that raised leaves its exception.
    """
    latencies, scaled, digests, busy, k = [], [], [], 0.0, 0
    refs = [reference_sample()]
    stretch = 0.0
    while busy < seconds or k < len(workload):
        index = k % len(workload)
        start = time.perf_counter()
        try:
            output = workload.run(index)
        except Exception as err:  # an op that raises counts as failed
            print(f"op {index} raised {type(err).__name__}: {err}", file=sys.stderr)
            output = err
        elapsed = time.perf_counter() - start
        busy += elapsed
        stretch += elapsed
        latencies.append(elapsed)
        digests.append((index, output if isinstance(output, Exception) else workload.digest(index, output)))
        k += 1
        if stretch >= REF_EVERY_S or (busy >= seconds and k >= len(workload)):
            refs.append(reference_sample())
            unit = (refs[-2] + refs[-1]) / 2
            scaled += [t / unit for t in latencies[len(scaled):]]
            stretch = 0.0
    return latencies, scaled, refs, digests


def pass_rate(workload, times):
    """Ops per unit of time for one pass of the op list, each op at its mean time.

    A run ends part-way through a pass, so the plain count over the busy
    time would depend on which ops the last pass reached.
    """
    per_op = [[] for _ in range(len(workload))]
    for k, t in enumerate(times):
        per_op[k % len(workload)].append(t)
    return len(workload) / sum(statistics.fmean(ts) for ts in per_op)


def count_failures(workload, digests):
    failures = 0
    for index, digest in digests:
        if isinstance(digest, Exception) or not workload.check(index, digest):
            failures += 1
            print(f"op {index} failed its check", file=sys.stderr)
    return failures


def one_pass(workload):
    """Every op once, in its in-process form; returns (busy seconds, failures, output bytes)."""
    busy, failures, output_bytes = 0.0, 0, 0
    for index in range(len(workload)):
        start = time.perf_counter()
        output = workload.traced_run(index)
        busy += time.perf_counter() - start
        digest = workload.digest(index, output)
        output_bytes += workload.output_bytes(digest)
        if not workload.check(index, digest):
            failures += 1
            print(f"op {index} failed its check", file=sys.stderr)
    return busy, failures, output_bytes


def startup_ms():
    """Median wall time of fresh `python -m liftprop enumerate 0` processes."""
    times = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "liftprop", "enumerate", "0"],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            check=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def report_line(name, value, unit, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<34} {shown:>14} {unit:<6} {note}")


def run_end_to_end(workload, seed, seconds, setup_times, peak_of):
    # The set-up's own objects are frozen so that collections during the
    # ops scan only what the ops allocate.  Checks wait until the peak
    # memory has been read, so the reference answers do not count in it.
    gc.collect()
    gc.freeze()
    latencies, scaled, refs, digests = timed_loop(workload, seconds)
    peak_rss_mb = resource.getrusage(peak_of).ru_maxrss / 1024
    gc.unfreeze()
    setup_times += more_set_ups(type(workload), seed)
    failures = count_failures(workload, digests)
    n = len(latencies)
    ordered = sorted(latencies)
    p50, p90 = percentile(ordered, 0.5), percentile(ordered, 0.9)
    setup_s = statistics.median(setup_times)
    metrics = {
        "scaled_ops_per_s": pass_rate(workload, scaled) / REF_NOMINAL_S,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    report_line("scaled_ops_per_s", metrics["scaled_ops_per_s"], "1/s",
                f"(at a {REF_NOMINAL_S * 1000:g} ms reference loop)")
    busy = sum(latencies)
    report_line("ops_per_s", pass_rate(workload, latencies), "1/s", f"({n} ops in {busy:.3f} s busy)")
    report_line("reference_ms", statistics.median(refs) * 1000, "ms",
                f"(median of {len(refs)} samples, {min(refs) * 1000:.4g} to {max(refs) * 1000:.4g})")
    before, after = setup_times[:SETUP_BEFORE], setup_times[SETUP_BEFORE:]
    report_line("setup_s", setup_s, "s",
                f"(median of {len(setup_times)} set-ups: {statistics.median(before):.4g} over "
                f"{len(before)} before the loop, {statistics.median(after):.4g} over {len(after)} after)")
    if workload.name != "verify-paper":
        for name, value in (("op_p50_ms", p50), ("op_p90_ms", p90)):
            needed = "" if value is not None else ", fewer than 10 samples beyond it"
            report_line(name, None if value is None else value * 1000, "ms", f"(n={n}{needed})")
    report_line("peak_rss_mb", peak_rss_mb, "MB",
                "(max over child processes)" if peak_of == resource.RUSAGE_CHILDREN else "")
    report_line("error_rate", failures / n, "ratio", f"({failures} of {n} ops)")
    return n, failures, metrics


def traced_pass(workload):
    """One plain pass, then one traced pass; returns (layer metrics, failures, tracer)."""
    plain, plain_failures, _ = one_pass(workload)
    tracer = Tracer(workload.lp)
    tracer.install()
    try:
        traced, traced_failures, output_bytes = one_pass(workload)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["notation.output_bytes"] = output_bytes
    metrics["trace.overhead_pct"] = (traced / plain - 1) * 100
    print(f"  plain pass {plain:.3f} s, traced pass {traced:.3f} s")
    return metrics, plain_failures + traced_failures, tracer


def run_traced(workload, seed):
    metrics, failures, tracer = traced_pass(workload)
    metrics["cli.startup_ms"] = startup_ms()
    TRACE_DIR.mkdir(exist_ok=True)
    spans_path = TRACE_DIR / f"trace-{workload.name}-seed{seed}.tsv"
    tracer.write(spans_path)
    print(f"  spans written to {spans_path.relative_to(ROOT)}")
    for name, unit in LAYER_METRICS.items():
        report_line(name, metrics[name], unit)
    return 2 * len(workload), failures, {name: metrics[name] for name in LAYER_METRICS}


def run_workload(name, seed, seconds, trace):
    workload_class = WORKLOADS[name]
    setup_times, workload = set_up(workload_class, seed)
    try:
        digest = hashlib.sha256("\n\0".join(workload.op_texts()).encode()).hexdigest()
        print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
        print(f"  inputs: {len(workload)} ops per pass, sha256 {digest}")
        if trace:
            attempted, failed, values = run_traced(workload, seed)
            units = LAYER_METRICS
        else:
            peak_of = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
            attempted, failed, values = run_end_to_end(workload, seed, seconds, setup_times, peak_of)
            units = END_TO_END
    finally:
        workload.close()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace):
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT,
        )
        status = status or done.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "liftprop" / "__init__.py").is_file():
        print(f"error: no liftprop package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
