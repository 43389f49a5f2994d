"""Process-global telemetry state and the cross-process protocol.

One process holds one :class:`~repro.obs.metrics.MetricsRegistry`
(always on — recording a counter is a dict update, and only at phase
boundaries, store operations and pool events, never per propagation),
one :class:`~repro.obs.trace.Tracer` that owns the always-on
:class:`~repro.obs.flight.FlightRecorder` (the bounded ring a
postmortem reads; :mod:`repro.obs.flight` states its event budget) and
buffers trace events only while tracing is enabled, optionally one
:class:`~repro.obs.log.EventLog` (``--log FILE`` / ``$SPLLIFT_LOG``) and
optionally one :class:`~repro.obs.progress.ProgressReporter`
(``--progress``).  Long-running loops report through one heartbeat,
:func:`pulse`, which writes the ring and ticks the progress line.

Cross-process flow (``repro.core.parallel`` workers and scheduler jobs):

1. the parent calls :func:`ensure_run_id` / :func:`enable_tracing` /
   :func:`enable_log`, which pin ``$SPLLIFT_RUN_ID`` (a uuid — workers
   must never mint their own, date-dependent or otherwise),
   ``$SPLLIFT_TELEMETRY`` and ``$SPLLIFT_LOG`` in the environment the
   workers inherit; a pool additionally pins ``$SPLLIFT_FLIGHT_DIR``;
2. each worker's entry point calls :func:`activate_worker`, installing a
   **fresh** registry, flight recorder (spilling to
   ``$SPLLIFT_FLIGHT_DIR/flight-<pid>.jsonl`` so even SIGKILL leaves
   evidence) and tracer — under ``fork`` the child would otherwise
   inherit the parent's buffers and double-report them;
3. the worker ships :func:`worker_payload` (metric snapshot + drained
   span buffer) back over its existing result pipe — and, on an
   unhandled exception, a :func:`flight_dump` beside the error;
4. the parent folds it in with :func:`absorb_payload` — counters add,
   spans interleave on the shared monotonic timeline — so a ``-j 8``
   campaign still yields one registry and one coherent trace.

Collector work is tallied per process by one ``gc.callbacks`` hook:
collections per generation and seconds spent in them.
:func:`write_outputs` and :func:`worker_payload` fold the tally into the
registry as ``gc.collections.gen0``–``gen2`` and ``gc.seconds``, so a
pooled batch's report sums its workers.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import uuid
from time import perf_counter
from typing import Dict, List, Optional, TextIO

from repro.obs.flight import FLIGHT_DIR_ENV, FlightRecorder
from repro.obs.log import LOG_ENV, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.trace import Tracer, write_trace

__all__ = [
    "RUN_ID_ENV",
    "TELEMETRY_ENV",
    "metrics",
    "tracer",
    "progress",
    "flight",
    "flight_dump",
    "run_id",
    "ensure_run_id",
    "enable_tracing",
    "disable_tracing",
    "enable_log",
    "disable_log",
    "log_event",
    "pulse",
    "set_progress",
    "write_outputs",
    "publish_stats",
    "reset",
    "activate_worker",
    "worker_payload",
    "absorb_payload",
]

#: Campaign-wide run identifier, minted once in the parent and inherited
#: by every worker through the environment.
RUN_ID_ENV = "SPLLIFT_RUN_ID"

#: Set (to "1") while tracing is enabled, so worker processes — forked
#: or spawned — re-activate span collection on their side of the pipe.
TELEMETRY_ENV = "SPLLIFT_TELEMETRY"


class _CollectorTally:
    """Collector work in this process since the last fold."""

    __slots__ = ("collections", "seconds", "began")

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self.began = 0.0


class _ObsState:
    __slots__ = ("metrics", "tracer", "progress", "log", "collector")

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(recording=False)
        self.progress: Optional[ProgressReporter] = None
        self.log: Optional[EventLog] = None
        self.collector = _CollectorTally()


_state = _ObsState()


def _on_collection(phase: str, info: Dict[str, int]) -> None:
    """The ``gc.callbacks`` hook.  A collection can start inside any
    allocation, one inside the registry or the flight ring included, so
    the hook only adds to the plain tally: no registry write, no ring
    event, no lock."""
    tally = _state.collector
    if phase == "start":
        tally.began = perf_counter()
    else:
        tally.collections[info["generation"]] += 1
        tally.seconds += perf_counter() - tally.began


gc.callbacks.append(_on_collection)


def _fold_collector() -> None:
    """Move the collector tally into the registry as ``gc.*`` counters
    (all four, zeros included) and start a fresh tally."""
    tally, _state.collector = _state.collector, _CollectorTally()
    inc = _state.metrics.inc
    for generation, count in enumerate(tally.collections):
        inc(f"gc.collections.gen{generation}", count)
    inc("gc.seconds", tally.seconds)


# ----------------------------------------------------------------------
# Accessors
# ----------------------------------------------------------------------


def metrics() -> MetricsRegistry:
    """This process's metrics registry (always available)."""
    return _state.metrics


def tracer() -> Tracer:
    """This process's tracer — feeding only the flight ring until
    tracing is enabled."""
    return _state.tracer


def progress() -> Optional[ProgressReporter]:
    """The live progress reporter, or ``None`` (the default)."""
    return _state.progress


def flight() -> FlightRecorder:
    """This process's flight recorder (the tracer's ring, always on)."""
    return _state.tracer.flight


def run_id() -> Optional[str]:
    """The campaign run id, if one has been established."""
    return os.environ.get(RUN_ID_ENV) or None


def ensure_run_id() -> str:
    """The run id, minting one (uuid4) if this process is the first."""
    value = os.environ.get(RUN_ID_ENV)
    if not value:
        value = uuid.uuid4().hex[:16]
        os.environ[RUN_ID_ENV] = value
    return value


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


def enable_tracing() -> Tracer:
    """Start recording trace events (idempotent) and mark the
    environment so worker processes record too.  Mints the run id that
    trace labels, metrics reports and workers inherit."""
    tracer = _state.tracer
    if not tracer.enabled:
        ensure_run_id()
        tracer.enabled = True
        os.environ[TELEMETRY_ENV] = "1"
    return tracer


def disable_tracing() -> None:
    """Stop recording and drop the buffer; the ring keeps its events."""
    _state.tracer.enabled = False
    _state.tracer.drain()
    os.environ.pop(TELEMETRY_ENV, None)


def enable_log(path) -> EventLog:
    """Open the structured JSONL event log and export it to workers."""
    if _state.log is not None:
        _state.log.close()
    _state.log = EventLog(path, run_id=ensure_run_id())
    os.environ[LOG_ENV] = str(path)
    return _state.log


def disable_log() -> None:
    if _state.log is not None:
        _state.log.close()
        _state.log = None
    os.environ.pop(LOG_ENV, None)


def log_event(event: str, level: str = "info", **fields) -> None:
    """Emit one structured event — to the log file (when configured)
    and, span-correlated, into the flight ring (always)."""
    ring = _state.tracer.flight
    if _state.log is not None:
        _state.log.event(event, level=level, span=ring.current_span(), **fields)
    ring.record("log", event, level=level, **fields)


def pulse(phase: str, **fields) -> None:
    """The heartbeat of a long-running loop (worklist pops, batch
    waves): one ``pulse`` event in the flight ring and, when a progress
    reporter is attached, a throttled tick of the progress line."""
    _state.tracer.flight.record("pulse", phase, **fields)
    if _state.progress is not None:
        _state.progress.tick(phase, **fields)


def set_progress(reporter: Optional[ProgressReporter]) -> None:
    _state.progress = reporter


def reset() -> None:
    """Fresh registry, flight ring and tracer (not recording), no
    progress, no log, a zero collector tally (tests, scripts)."""
    _state.tracer.flight.close_spill()
    if _state.log is not None:
        _state.log.close()
    _state.metrics = MetricsRegistry()
    _state.tracer = Tracer(recording=False)
    _state.progress = None
    _state.log = None
    _state.collector = _CollectorTally()


def flight_dump(
    reason: str, job: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """Package this process's ring as a ``spllift-flight/v1`` dict."""
    return _state.tracer.flight.dump(reason, run_id=run_id(), job=job)


def write_outputs(
    trace_path=None, metrics_path=None, stream: Optional[TextIO] = None
) -> None:
    """Write the ``--trace`` file and the ``--metrics`` report
    (``spllift-metrics/v1``) this process collected, announcing each
    with one line on ``stream`` (default stderr)."""
    stream = stream if stream is not None else sys.stderr
    if trace_path:
        count = write_trace(_state.tracer.events(), trace_path, run_id=run_id())
        print(f"trace: {count} event(s) written to {trace_path}", file=stream)
    if metrics_path:
        _fold_collector()
        report = {
            "schema": "spllift-metrics/v1",
            "run_id": run_id(),
            "metrics": _state.metrics.describe(),
        }
        with open(metrics_path, "w") as handle:
            handle.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"metrics written to {metrics_path}", file=stream)


def publish_stats(prefix: str, stats: Dict[str, object]) -> None:
    """Mirror a legacy ``stats`` dict into the registry as counters.

    Only plain-int values are counters (booleans and strings — e.g.
    ``worklist_order`` — stay in the dict-only view).  The dict remains
    the per-solve compatibility view; the registry accumulates across
    solves, which is what campaign-level aggregation wants.  The same
    deltas land in the flight ring as one ``counters`` event per call.
    """
    inc = _state.metrics.inc
    for name, value in stats.items():
        if isinstance(value, bool) or not isinstance(value, int):
            continue
        inc(f"{prefix}.{name}", value)
    _state.tracer.flight.note_counters(prefix, stats)


# ----------------------------------------------------------------------
# Worker protocol
# ----------------------------------------------------------------------


def activate_worker() -> None:
    """Re-initialize telemetry inside a worker process.

    Installs a fresh registry, a zero collector tally and a fresh
    tracer with its own ring, bound to the worker's pid (a forked child
    inherits the parent's — snapshotting those would double-count every
    merged counter and replay the parent's events); the tracer records
    trace events when ``$SPLLIFT_TELEMETRY`` is set.  With
    ``$SPLLIFT_FLIGHT_DIR`` set (pool workers), the new ring spills to
    ``flight-<pid>.jsonl`` so the parent can reconstruct this worker's
    last moments even after SIGKILL.  With ``$SPLLIFT_LOG`` set, the
    worker appends to the shared event log.
    """
    _state.tracer.flight.close_spill()
    _state.metrics = MetricsRegistry()
    _state.collector = _CollectorTally()
    _state.progress = None
    spill_dir = os.environ.get(FLIGHT_DIR_ENV)
    spill_path = (
        os.path.join(spill_dir, f"flight-{os.getpid()}.jsonl")
        if spill_dir
        else None
    )
    _state.tracer = Tracer(
        FlightRecorder(spill_path=spill_path),
        recording=os.environ.get(TELEMETRY_ENV) == "1",
    )
    if _state.log is not None:
        _state.log.close()
    log_path = os.environ.get(LOG_ENV)
    _state.log = EventLog(log_path, run_id=run_id()) if log_path else None


def worker_payload() -> Dict[str, object]:
    """What a worker ships back beside its result: the metric snapshot,
    collector work folded in, and (when tracing) its drained span
    buffer."""
    _fold_collector()
    return {
        "metrics": _state.metrics.snapshot(),
        "events": _state.tracer.drain(),
        "run_id": run_id(),
    }


def absorb_payload(payload: Optional[Dict[str, object]]) -> None:
    """Parent side: merge one worker's payload into this process."""
    if not payload:
        return
    snapshot = payload.get("metrics")
    if snapshot:
        _state.metrics.merge(snapshot)
    events: List[dict] = payload.get("events") or []
    if events:
        _state.tracer.absorb(events)
