"""Outside-in tracing: spans around calls into liftprop's public functions.

``Tracer.install`` replaces module and class attributes of the loaded
liftprop package with timing wrappers; ``uninstall`` puts the originals
back.  Each span is ``(name, start_ns, end_ns, parent)`` where ``parent``
is the index of the enclosing span, or -1.  Spans stay in memory until
``write`` dumps them, one tab-separated line each.

A span's self time is its duration minus the durations of its direct
children.  Only the wrapped entry points produce spans, so self time
includes any unwrapped helpers the function calls.
"""

from __future__ import annotations

import time
from collections import Counter

# Suite name -> span names whose durations make up that suite's time.
MAP_SUITES = ("surjective", "injective", "dense", "induced", "pi0-injective")
SPACE_SUITES = ("connected", "T0", "T1", "hausdorff")
SUITE_SPANS = {name: (f"verify.characterize:{name}",) for name in MAP_SUITES + SPACE_SUITES}
SUITE_SPANS["mono"] = ("verify.is_mono_upto", "verify.is_mono_cancellation")
SUITE_SPANS["epi"] = ("verify.is_epi_upto", "verify.is_epi_cancellation")
SUITE_SPANS["self-lifting"] = ("verify.self_lifting_scan",)

ORACLES = (
    "is_surjective", "is_injective", "has_dense_image", "has_induced_topology",
    "pi0_injective", "is_connected", "is_T0", "is_T1", "is_hausdorff",
)

# Span names whose totals become "<name>_ms" metrics, keyed by metric name.
TIMED = {
    "notation.parse_ms": ("notation.parse",),
    "notation.elaborate_ms": ("notation.elaborate",),
    "notation.print_ms": ("notation.print",),
    "preorder.hom_enumerate_ms": ("preorder.hom_enumerate",),
    "preorder.enumerate_preorders_ms": ("preorder.enumerate_preorders",),
    "lifting.find_diagonal_ms": ("lifting.find_diagonal",),
    "lifting.universe_build_ms": ("lifting.universe_build",),
    "lifting.orthogonal_class_ms": ("lifting.orthogonal_class",),
    "lifting.mono_epi_ms": ("lifting.mono_epi",),
}
TIMED.update({f"verify.suite.{suite}_ms": spans for suite, spans in SUITE_SPANS.items()})

# Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = {
    "cli.startup_ms": "ms",
    **{name: "ms" for name in TIMED},
    "notation.output_bytes": "bytes",
    "preorder.hom_sets_built": "count",
    "preorder.maps_enumerated": "count",
    "preorder.map_validations": "count",
    "lifting.lifting_check_calls": "count",
    "lifting.scan_self_ms": "ms",
    "lifting.pairs_scanned": "count",
    "lifting.commuting_squares": "count",
    "lifting.commuting_ratio": "ratio",
    "lifting.diagonal_found_ratio": "ratio",
    "lifting.hom_cache_calls": "count",
    "lifting.hom_cache_hit_ratio": "ratio",
    "lifting.universe_maps": "count",
    "oracles.self_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Span recorder for one liftprop package instance."""

    def __init__(self, liftprop):
        self.lp = liftprop
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name(args) if callable(name) else name, start, end, parent)
            if after is not None:
                after(result)
            return result

        return traced

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        lp = self.lp
        lifting, cli, verify, preorder = lp.lifting, lp.cli, lp.verify, lp.preorder
        counts = self.counts
        original_hom = lifting.HomCache.hom

        def count_maps(result):
            counts["maps_enumerated"] += len(result)

        def count_found(result):
            counts["diagonals_found"] += result is not None

        def count_universe(result):
            counts["universe_maps"] += len(result.maps)

        def position(maps, target):
            for k, m in enumerate(maps):
                if m is target:
                    return k
            return maps.index(target)

        check = self._wrap("lifting.lifting_check", lifting.lifting_check)

        def lifting_check(f, g, cache=None):
            # Pairs scanned, from the hom lists the check itself used: a
            # holding lift visits every pair, a failing one stops at its
            # counterexample.
            cache = lifting.HomCache() if cache is None else cache
            result = check(f, g, cache)
            tops = original_hom(cache, f.source, g.source)
            bottoms = original_hom(cache, f.target, g.target)
            if result.holds:
                counts["pairs_scanned"] += len(tops) * len(bottoms)
            else:
                square = result.counterexample
                counts["pairs_scanned"] += (
                    position(tops, square.top) * len(bottoms) + position(bottoms, square.bottom) + 1
                )
            return result

        self._patch(lifting, "lifting_check", lifting_check)
        self._patch(cli, "lifting_check", lifting_check)
        self._patch(lifting, "find_diagonal",
                    self._wrap("lifting.find_diagonal", lifting.find_diagonal, count_found))
        self._patch(lifting, "hom_enumerate",
                    self._wrap("preorder.hom_enumerate", lifting.hom_enumerate, count_maps))
        self._patch(lifting.HomCache, "hom", self._wrap("lifting.hom_cache", original_hom))
        build = lifting.Universe.__dict__["build"].__func__
        self._patch(lifting.Universe, "build",
                    classmethod(self._wrap("lifting.universe_build", build, count_universe)))
        enumerate_preorders = self._wrap("preorder.enumerate_preorders", preorder.enumerate_preorders)
        for module in (lifting, verify, cli):
            self._patch(module, "enumerate_preorders", enumerate_preorders)
        self._patch(cli, "orthogonal_class",
                    self._wrap("lifting.orthogonal_class", cli.orthogonal_class))
        for attr in ("mono_lift_result", "epi_lift_result"):
            self._patch(cli, attr, self._wrap("lifting.mono_epi", getattr(cli, attr)))
        self._patch(cli, "parse", self._wrap("notation.parse", cli.parse))
        self._patch(cli, "elaborate", self._wrap("notation.elaborate", cli.elaborate))
        for attr in ("print_result", "encode_result"):
            self._patch(cli, attr, self._wrap("notation.print", getattr(cli, attr)))
        self._patch(verify, "characterize", self._wrap(
            lambda args: f"verify.characterize:{args[0]}", verify.characterize))
        for attr in ("is_mono_upto", "is_mono_cancellation", "is_epi_upto",
                     "is_epi_cancellation", "self_lifting_scan"):
            self._patch(verify, attr, self._wrap(f"verify.{attr}", getattr(verify, attr)))
        for attr in ORACLES:
            self._patch(verify, attr, self._wrap(f"oracles.{attr}", getattr(verify, attr)))
        self._patch(lifting, "is_injective", self._wrap("oracles.is_injective", lifting.is_injective))
        validate = preorder.MonotoneMap.__post_init__

        def post_init(map_self):
            counts["map_validations"] += 1
            validate(map_self)

        self._patch(preorder.MonotoneMap, "__post_init__", post_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer totals over every span recorded so far (no startup/overhead)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        total_ns: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, parent in spans:
            total_ns[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_ns[parent] += end - start
        scan_self = oracle_self = misses = 0
        for index, (name, start, end, parent) in enumerate(spans):
            own = end - start - child_ns[index]
            if name == "lifting.lifting_check":
                scan_self += own
            elif name.startswith("oracles."):
                oracle_self += own
            elif name == "preorder.hom_enumerate" and parent >= 0 and spans[parent][0] == "lifting.hom_cache":
                misses += 1

        def ms(ns):
            return ns / 1e6

        def ratio(part, whole):
            return part / whole if whole else 0.0

        counts = self.counts
        metrics = {name: ms(sum(total_ns[s] for s in names)) for name, names in TIMED.items()}
        checks = calls["lifting.lifting_check"]
        squares = calls["lifting.find_diagonal"]
        hom_calls = calls["lifting.hom_cache"]
        metrics.update({
            "preorder.hom_sets_built": calls["preorder.hom_enumerate"],
            "preorder.maps_enumerated": counts["maps_enumerated"],
            "preorder.map_validations": counts["map_validations"],
            "lifting.lifting_check_calls": checks,
            "lifting.scan_self_ms": ms(scan_self),
            "lifting.pairs_scanned": counts["pairs_scanned"],
            "lifting.commuting_squares": squares,
            "lifting.commuting_ratio": ratio(squares, counts["pairs_scanned"]),
            "lifting.diagonal_found_ratio": ratio(counts["diagonals_found"], squares),
            "lifting.hom_cache_calls": hom_calls,
            "lifting.hom_cache_hit_ratio": ratio(hom_calls - misses, hom_calls),
            "lifting.universe_maps": counts["universe_maps"],
            "oracles.self_ms": ms(oracle_self),
        })
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{index}\t{name}\t{start}\t{end}\t{parent}\n")
