"""Spans around spantree's public functions, and the per-layer metrics.

`Tracer.install` replaces every public function of every spantree module,
both where it is defined and at each `from ... import` site (so
`spantree.cli.tau` and `spantree.witness.primes_up_to` are wrapped too),
with a wrapper that records a span: id, parent id, request id, name, start,
end.  Generator functions get one span per resume, so their time is the
time spent producing items, not the time the consumer holds them.  Spans
stay in memory; `write_spans` saves them when the run ends.

A span's self time is its duration minus the part of it that its child
spans cover.  The layers are the spantree modules; a function belongs to
the module that defines it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "graphs", "spanning", "partitions", "witness", "atlas", "asymptotics")

Span = tuple[int, int, int, str, float, float]  # id, parent, request, name, start, end

# counts taken from arguments and return values: name -> (metric, extractor)
_COUNT_HOOKS = {
    "spanning.tau": ("spanning.vertices", lambda args, result: args[0].n_vertices),
    "graphs.parse_edge_list": ("graphs.edges_parsed", lambda args, result: result.n_edges),
    "atlas.exact_atlas": ("atlas.graphs_scanned", lambda args, result: result.graphs_scanned),
}

# self-time metrics: metric -> functions whose self time it sums
_SELF_METRICS = {
    "atlas.scan_s": ("atlas.exact_atlas",),
    "atlas.save_s": ("atlas.save_atlas",),
    "atlas.load_s": ("atlas.load_atlas", "atlas.load_atlas_dir"),
    "atlas.alpha_s": ("atlas.alpha_exact",),
    "spanning.tau_s": ("spanning.tau",),
    "spanning.laplacian_s": ("spanning.laplacian",),
    "spanning.det_s": ("spanning.det_fraction_free",),
    "graphs.parse_s": ("graphs.parse_edge_list",),
    "graphs.identify_s": ("graphs.identify",),
    "witness.build_s": ("witness.build_witness",),
    "witness.flower_s": ("witness.flower",),
    "partitions.count_s": (
        "partitions.count_partitions",
        "partitions.count_partitions_up_to",
        "partitions.p_set_size",
    ),
    "partitions.enumerate_s": ("partitions.enumerate_partitions", "partitions.p_set_enumerate"),
    "partitions.sieve_s": ("partitions.primes_up_to",),
    "asymptotics.eval_s": (
        "asymptotics.hardy_ramanujan",
        "asymptotics.prime_main_term",
        "asymptotics.cumulative_lower_bound",
        "asymptotics.integral_target",
        "asymptotics.scaled_central_derivative",
    ),
    "asymptotics.lhospital_s": ("asymptotics.check_lhospital",),
}

# call-count metrics: metric -> function whose calls it counts
_CALL_METRICS = {
    "atlas.load_calls": "atlas.load_atlas",
    "spanning.tau_calls": "spanning.tau",
    "graphs.parse_calls": "graphs.parse_edge_list",
    "graphs.identify_calls": "graphs.identify",
    "witness.built": "witness.build_witness",
    "partitions.count_calls": "partitions.count_partitions_up_to",
    "partitions.sieve_calls": "partitions.primes_up_to",
    "cli.calls": "cli.main",
}


class Tracer:
    """Records a span for every call of a wrapped function while installed."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self.yields: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.request = 0  # set by the caller before each top-level call
        self._stack = [0]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent, self.clock()

    def _exit(self, name: str, sid: int, parent: int, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        self.spans.append((sid, parent, self.request, name, start, end))

    def wrap(self, fn, name: str):
        """A wrapper that records a span named `name` around each call of fn."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    sid, parent, start = self._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, sid, parent, start)
                    self.yields[name] += 1
                    yield item

            return gen_wrapper

        hook = _COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            sid, parent, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, sid, parent, start)
            if hook is not None:
                self.counts[hook[0]] += hook[1](args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap spantree's public functions in every spantree namespace."""
        modules = [importlib.import_module(f"spantree.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("spantree"))
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("spantree."):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self.wrap(obj, f"{layer}.{obj.__name__}")
                setattr(module, attr, wrappers[obj])
                self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tstart\tend\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = lo
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if a > cur_hi:
            total += cur_hi - cur_lo
            cur_lo = a
        cur_hi = max(cur_hi, b)
    return total + cur_hi - cur_lo


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, []), start, end)
        for sid, _, _, _, start, end in spans
    }


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced round, as {name: (value, unit)}."""
    own = self_times(tracer.spans)
    by_name: dict[str, float] = defaultdict(float)
    for sid, _, _, name, _, _ in tracer.spans:
        by_name[name] += own[sid]
    out: dict[str, tuple[float, str]] = {}
    for metric, names in _SELF_METRICS.items():
        out[metric] = (sum(by_name[n] for n in names), "s")
    for metric, name in _CALL_METRICS.items():
        out[metric] = (tracer.calls[name], "count")
    for metric, _ in _COUNT_HOOKS.values():
        out[metric] = (tracer.counts[metric], "count")
    out["partitions.enumerated"] = (tracer.yields["partitions.enumerate_partitions"], "count")
    scan_s = out["atlas.scan_s"][0]
    scanned = out["atlas.graphs_scanned"][0]
    out["atlas.masks_per_s"] = (scanned / scan_s if scan_s > 0 else 0.0, "1/s")
    layer_self = 0.0
    for layer in LAYERS:
        value = sum(t for name, t in by_name.items() if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = (value, "s")
        layer_self += value
    out["trace.wall_s"] = (traced_wall_s, "s")
    out["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    out["trace.glue_s"] = (traced_wall_s - layer_self, "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
