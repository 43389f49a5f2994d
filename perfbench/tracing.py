"""Outside-in layer tracing for the traced pass.

The benchmark wraps each layer's public boundary from its own code, at
the attribute its callers look up (``repro.spl.product_line.parse_program``,
``SPLLift.solve`` on the class, ...), and records one span per call: name,
op id, start, end and parent.  The program's own tracer, armed with
``repro.obs.runtime.enable_tracing``, adds the ``ide/*`` phase spans.
Both lists stay in memory until the pass ends.  A span's self time is
its duration minus the part its child spans cover; the layer rows of
``layer_metrics`` are sums of self times, so together with the printed
unattributed remainder they add up to the traced pass.

Bookkeeping done after a wrapped call returns (counting instructions,
lines, distinct constraints) runs inside a ``trace.bookkeeping`` span, so
its cost shows as its own row instead of inflating the caller's layer.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
import weakref
from collections import Counter
from typing import Dict, Iterable, List, Tuple

import repro.cli
import repro.featuremodel
import repro.obs.runtime
import repro.service
import repro.service.worker
import repro.spl.product_line
from repro.baselines.a2 import A2Problem
from repro.core.solver import SPLLift, SPLLiftResults
from repro.ifds.solver import IFDSSolver
from repro.ir.icfg import ICFG
from repro.service.backends.base import InstrumentedStore

_clock = time.perf_counter

#: Self time of each span name lands in one layer row.
SPAN_LAYERS = {
    "minijava.parse": "minijava.parse_s",
    "ir.lower": "ir.lower_s",
    "ir.icfg": "ir.icfg_s",
    "featuremodel.parse": "featuremodel.parse_s",
    "core.lift": "core.lift_s",
    "ide.solve": "ide.solve_s",
    "ide/phase1/tabulation": "ide.solve_s",
    "ide/phase2/values": "ide.solve_s",
    "ide/phase1/summary_reuse": "ide.summary_reuse_s",
    "ide/phase1/summary_harvest": "ide.summary_harvest_s",
    "core.result_lines": "core.result_lines_s",
    "core.result_digest": "core.result_digest_s",
    "service.build_record": "service.build_record_s",
    "service.run_batch": "service.batch_self_s",
    "service.store_put": "service.store_put_s",
    "service.store_get": "service.store_get_s",
    "cli.main": "cli.self_s",
    "baselines.a2_setup": "baselines.a2_setup_s",
    "ifds.init": "ifds.init_s",
    "ifds.solve": "ifds.solve_s",
    "obs.publish": "obs.publish_s",
    "trace.bookkeeping": "trace.bookkeeping_s",
}

#: Spans of the program's own tracer that are read into the span tree.
PROGRAM_SPANS = (
    "ide/phase1/tabulation",
    "ide/phase2/values",
    "ide/phase1/summary_reuse",
    "ide/phase1/summary_harvest",
)

#: ``results.stats`` keys summed over every lifted solve of the pass.
_IDE_STATS = (
    "jump_functions",
    "flow_applications",
    "value_batch_joins",
    "edge_compositions",
    "compose_cache_hits",
    "compose_cache_misses",
    "join_cache_hits",
    "join_cache_misses",
    "bdd_nodes",
    "bdd_apply_calls",
    "bdd_apply_cache_hits",
    "bdd_apply_cache_misses",
    "summaries_reused",
    "summaries_recomputed",
    "summaries_invalidated",
)


class Recorder:
    """Benchmark spans and raw counts of one traced pass, in memory."""

    def __init__(self) -> None:
        #: [name, op, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: List[int] = []
        self._distinct_seen = weakref.WeakSet()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, _clock(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)


# ----------------------------------------------------------------------
# Boundaries
# ----------------------------------------------------------------------


def _count_parse(rec: Recorder, args, result) -> None:
    rec.counts["minijava.parse_calls"] += 1
    rec.counts["minijava.source_kb"] += len(args[0]) / 1024


def _count_icfg(rec: Recorder, args, result) -> None:
    rec.counts["ir.instructions"] += sum(1 for _ in result.reachable_instructions())


def _count_solve(rec: Recorder, args, result) -> None:
    rec.counts["ide.solves"] += 1
    for key in _IDE_STATS:
        rec.counts[f"ide.{key}"] += result.stats.get(key, 0)


def _count_lines(rec: Recorder, args, result) -> None:
    rec.counts["core.result_lines_calls"] += 1
    rec.counts["core.lines_rendered"] += len(result)
    results = args[0]
    if results not in rec._distinct_seen:
        rec._distinct_seen.add(results)
        rec.counts["core.distinct_constraints"] += len(
            {constraint for _, constraint in results.items() if not constraint.is_false}
        )


def _count_put(rec: Recorder, args, result) -> None:
    rec.counts["service.store_puts"] += 1
    rec.counts["service.store_put_mb"] += os.path.getsize(result) / 2**20


def _count_get(rec: Recorder, args, result) -> None:
    rec.counts["service.store_gets"] += 1
    rec.counts["service.store_hits"] += result is not None


def _count_publish(rec: Recorder, args, result) -> None:
    rec.counts["obs.publish_calls"] += 1


def _count_ifds(rec: Recorder, args, result) -> None:
    stats = args[0].stats
    rec.counts["ifds.path_edges"] += stats["path_edges"]
    rec.counts["ifds.flow_applications"] += stats["flow_applications"]


#: (owner, attribute, span name, post-call counter or None)
BOUNDARIES = (
    (repro.spl.product_line, "parse_program", "minijava.parse", _count_parse),
    (repro.spl.product_line, "lower_program", "ir.lower", None),
    (ICFG, "for_entry", "ir.icfg", _count_icfg),
    (repro.featuremodel, "parse_feature_model", "featuremodel.parse", None),
    (repro.cli, "parse_feature_model", "featuremodel.parse", None),
    (SPLLift, "__init__", "core.lift", None),
    (SPLLift, "solve", "ide.solve", _count_solve),
    (SPLLiftResults, "result_lines", "core.result_lines", _count_lines),
    (SPLLiftResults, "result_digest", "core.result_digest", None),
    (repro.service.worker, "build_record", "service.build_record", None),
    (repro.service, "run_batch", "service.run_batch", None),
    (InstrumentedStore, "put", "service.store_put", _count_put),
    (InstrumentedStore, "get", "service.store_get", _count_get),
    (repro.cli, "main", "cli.main", None),
    (A2Problem, "__init__", "baselines.a2_setup", None),
    (IFDSSolver, "__init__", "ifds.init", None),
    (IFDSSolver, "solve", "ifds.solve", _count_ifds),
    (repro.obs.runtime, "publish_stats", "obs.publish", _count_publish),
)


def _wrap(rec: Recorder, name: str, function, count):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = rec.begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            rec.end(index)
        if count is not None:
            index = rec.begin("trace.bookkeeping")
            try:
                count(rec, args, result)
            finally:
                rec.end(index)
        return result

    return traced


@contextlib.contextmanager
def installed(rec: Recorder):
    """Wrap every boundary for the duration of the block, then restore."""
    originals = []
    try:
        for owner, attribute, name, count in BOUNDARIES:
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(rec, name, original.__func__, count))
            else:
                wrapped = _wrap(rec, name, original, count)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)
        yield rec
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# Self times and the per-layer metrics
# ----------------------------------------------------------------------


def program_intervals(events: Iterable[dict]) -> List[Tuple[str, float, float]]:
    """(name, start s, end s) of the program's B/E spans named in
    ``PROGRAM_SPANS`` (its timestamps are ``perf_counter`` microseconds)."""
    intervals = []
    open_spans: List[Tuple[str, float]] = []
    for event in events:
        if event.get("ph") == "B":
            open_spans.append((event["name"], event["ts"] / 1e6))
        elif event.get("ph") == "E" and open_spans:
            name, start = open_spans.pop()
            if name in PROGRAM_SPANS:
                intervals.append((name, start, event["ts"] / 1e6))
    return intervals


def self_times(intervals: Iterable[Tuple[str, float, float]]) -> Dict[str, float]:
    """Self time per span name: duration minus the direct children's
    durations, nesting recovered from containment on one thread."""
    totals: Dict[str, float] = {}
    stack: List[list] = []
    nodes = []
    for name, start, end in sorted(intervals, key=lambda item: (item[1], -item[2])):
        while stack and stack[-1][2] <= start:
            stack.pop()
        node = [name, start, end, end - start]
        if stack:
            stack[-1][3] -= end - start
        stack.append(node)
        nodes.append(node)
    for name, _, _, own in nodes:
        totals[name] = totals.get(name, 0.0) + own
    return totals


def layer_metrics(rec: Recorder, events: List[dict], pass_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass except the setup-time
    ``featuremodel.configs*`` and the run-level ``trace.overhead_pct``."""
    intervals = [(name, start, end) for name, _, start, end, _ in rec.spans]
    own = self_times(intervals + program_intervals(events))
    metrics: Dict[str, float] = {layer: 0.0 for layer in SPAN_LAYERS.values()}
    for name, seconds in own.items():
        metrics[SPAN_LAYERS[name]] += seconds
    attributed = sum(metrics.values())
    metrics["ide.phase1_s"] = own.get("ide/phase1/tabulation", 0.0)
    metrics["ide.phase2_s"] = own.get("ide/phase2/values", 0.0)
    metrics["trace.pass_s"] = pass_s
    metrics["trace.unattributed_s"] = pass_s - attributed
    metrics["trace.coverage"] = attributed / pass_s

    c = rec.counts
    for name in ("minijava.parse_calls", "minijava.source_kb", "ir.instructions",
                 "core.lines_rendered", "service.store_puts", "service.store_put_mb",
                 "service.store_gets", "cli.findings", "ifds.path_edges",
                 "ifds.flow_applications", "obs.publish_calls"):
        metrics[name] = c[name]
    for name in ("jump_functions", "flow_applications", "value_batch_joins",
                 "edge_compositions", "summaries_reused", "summaries_recomputed",
                 "summaries_invalidated"):
        metrics[f"ide.{name}"] = c[f"ide.{name}"]
    metrics["bdd.nodes"] = c["ide.bdd_nodes"]
    metrics["bdd.apply_calls"] = c["ide.bdd_apply_calls"]
    metrics["ide.compose_hit_ratio"] = _ratio(c["ide.compose_cache_hits"], c["ide.compose_cache_misses"])
    metrics["ide.join_hit_ratio"] = _ratio(c["ide.join_cache_hits"], c["ide.join_cache_misses"])
    metrics["bdd.apply_hit_ratio"] = _ratio(c["ide.bdd_apply_cache_hits"], c["ide.bdd_apply_cache_misses"])
    metrics["ide.summary_reuse_ratio"] = _ratio(c["ide.summaries_reused"], c["ide.summaries_recomputed"])
    metrics["service.store_hit_ratio"] = _ratio(c["service.store_hits"], c["service.store_gets"] - c["service.store_hits"])
    metrics["core.render_distinct_ratio"] = _share(c["core.distinct_constraints"], c["core.lines_rendered"])
    metrics["core.renders_per_job"] = _share(c["core.result_lines_calls"], c["ide.solves"])
    return metrics


def _ratio(hits: float, misses: float) -> float:
    return _share(hits, hits + misses)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def chrome_events(rec: Recorder) -> List[dict]:
    """The benchmark spans as Chrome B/E events on the program tracer's
    track, so ``spllift trace summary`` reads them beside its own."""
    pid, tid = os.getpid(), threading.get_ident() & 0xFFFF
    events = []
    for name, op, start, end, parent in rec.spans:
        args = {"op": op, "parent": rec.spans[parent][0] if parent >= 0 else None}
        events.append({"name": name, "ph": "B", "ts": start * 1e6, "pid": pid, "tid": tid, "args": args})
        events.append({"name": name, "ph": "E", "ts": end * 1e6, "pid": pid, "tid": tid})
    return events
