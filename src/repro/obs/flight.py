"""The flight recorder: an always-on, bounded ring of recent events.

A :class:`FlightRecorder` is the black box of one process.  Every span
begin/end and complete span of the process's tracer, every
counter publication, log line and worklist heartbeat (``obs.pulse``)
lands here — in a fixed-capacity ring buffer whose append is one deque
operation, so the always-on cost rides the same "phase boundaries only,
never per propagation" discipline the tracer established.  A lifted
tabulation solve records 6 span begin/end pairs, one ``counters`` event
and one ``pulse`` per 256 worklist pops — a budget
``tests/obs/test_flight.py`` pins deterministically, because an
armed-vs-disarmed wall-clock A/B cannot resolve a cost this small.

When something dies, the ring is what's left.  Three exit paths produce
a ``spllift-flight/v1`` **dump**:

- *unhandled exception in a worker* — the worker itself dumps and ships
  the dump beside its error over the result pipe;
- *SIGTERM* (per-job timeout) — the worker's signal handler records the
  signal (the ring's lock is reentrant, so a signal landing mid-record
  cannot deadlock the handler); the parent reads the worker's spill
  file after termination;
- *SIGKILL / hard crash* — nothing in the worker runs, which is why
  workers under a :class:`~repro.core.parallel.ProcessTaskPool` also
  **spill**: with ``$SPLLIFT_FLIGHT_DIR`` set, every recorded event is
  appended (and flushed) to ``flight-<pid>.jsonl`` as it happens, so
  the parent can reconstruct the ring of a worker that never got to
  say goodbye.  Spilling is armed only inside pool workers — events
  there are a handful per job, so the write cost is noise.

The dump names the in-flight job (workers note it via :meth:`note_job`),
the stack of open spans at the moment of death, the last events in
recording order, and the most recent counter snapshot.  ``spllift obs
postmortem`` renders it for humans; ``scripts/check_trace.py --flight``
validates it in CI.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro.obs.log import iter_log
from repro.utils.files import read_utf8

__all__ = [
    "FLIGHT_SCHEMA",
    "FLIGHT_DIR_ENV",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "load_flight_dump",
    "load_spill",
    "render_postmortem",
]

FLIGHT_SCHEMA = "spllift-flight/v1"

#: Directory pool workers spill their ring into (``flight-<pid>.jsonl``);
#: set by the parent pool for the duration of a batch.
FLIGHT_DIR_ENV = "SPLLIFT_FLIGHT_DIR"

#: Ring capacity (events retained per process) — comfortably above the
#: ≥50 events a postmortem reconstruction promises, small enough to
#: never matter for memory.
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Bounded per-process ring of recent observability events.

    Events are small dicts ``{"seq", "ts", "kind", "name", ...fields}``
    with ``ts`` in wall-clock epoch seconds (a postmortem wants "when",
    not a monotonic offset nobody can map back to the incident).  The
    recorder is thread-safe (the HTTP store server records from request
    threads) but optimized for the common single-threaded worker.  Its
    lock is reentrant: a pool worker's SIGTERM handler records into the
    ring on the main thread, possibly while that thread is inside
    :meth:`record` — a plain lock would block the handler forever.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        spill_path: Optional[str] = None,
    ) -> None:
        self.capacity = capacity
        self._events: deque = deque(maxlen=self.capacity)
        self._lock = threading.RLock()
        self._seq = 0
        self._pid = os.getpid()
        #: Per-thread stacks of (span name, start ts) — open spans.
        self._open: Dict[int, List[List[object]]] = {}
        self._job: Optional[Dict[str, object]] = None
        self._counters: Dict[str, int] = {}
        self._spill = None
        self._spill_path = spill_path
        if spill_path:
            self._open_spill(spill_path)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, kind: str, name: str, **fields) -> None:
        """Append one event to the ring (and the spill, when armed)."""
        with self._lock:
            self._seq += 1
            event: Dict[str, object] = {
                "seq": self._seq,
                "ts": round(time.time(), 6),
                "kind": kind,
                "name": name,
            }
            if fields:
                event.update(fields)
            self._events.append(event)
            if self._spill is not None:
                self._spill_write(event)

    def span_begin(self, name: str, args: Optional[dict] = None) -> None:
        self.record("span_begin", name, **(args or {}))
        with self._lock:
            stack = self._open.setdefault(threading.get_ident(), [])
            stack.append([name, time.time()])

    def span_end(self, name: str) -> None:
        with self._lock:
            stack = self._open.get(threading.get_ident())
            if stack and stack[-1][0] == name:
                stack.pop()
        self.record("span_end", name)

    def note_job(self, job: Dict[str, object]) -> None:
        """Remember the in-flight job (what a postmortem must name)."""
        with self._lock:
            self._job = dict(job)
        self.record("job", str(job.get("label", "?")), **job)

    def note_counters(self, prefix: str, stats: Dict[str, object]) -> None:
        """Record a counter-delta event (one per ``publish_stats`` call,
        i.e. per solve — never per increment)."""
        deltas = {
            f"{prefix}.{name}": value
            for name, value in stats.items()
            if isinstance(value, int) and not isinstance(value, bool)
        }
        if not deltas:
            return
        with self._lock:
            for name, value in deltas.items():
                self._counters[name] = self._counters.get(name, 0) + value
        self.record("counters", prefix, counters=deltas)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def current_span(self) -> Optional[str]:
        """The innermost open span on the calling thread, if any."""
        stack = self._open.get(threading.get_ident())
        return stack[-1][0] if stack else None

    def open_spans(self) -> List[Dict[str, object]]:
        """Every open span, outermost first, across all threads."""
        with self._lock:
            spans: List[Dict[str, object]] = []
            for stack in self._open.values():
                for name, started in stack:
                    spans.append({"name": name, "since": round(started, 6)})
            return spans

    def events(self) -> List[dict]:
        with self._lock:
            return [dict(event) for event in self._events]

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------

    def dump(
        self,
        reason: str,
        run_id: Optional[str] = None,
        job: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Package the ring as a ``spllift-flight/v1`` artifact."""
        with self._lock:
            return {
                "schema": FLIGHT_SCHEMA,
                "run_id": run_id,
                "pid": self._pid,
                "reason": reason,
                "capacity": self.capacity,
                "recorded": self._seq,
                "events": [dict(event) for event in self._events],
                "open_spans": [
                    {"name": name, "since": round(started, 6)}
                    for stack in self._open.values()
                    for name, started in stack
                ],
                "job": dict(job) if job else (
                    dict(self._job) if self._job else None
                ),
                "counters": dict(self._counters),
            }

    # ------------------------------------------------------------------
    # Spill (SIGKILL survival)
    # ------------------------------------------------------------------

    def _open_spill(self, path: str) -> None:
        try:
            self._spill = open(path, "a", encoding="utf-8")
        except OSError:
            self._spill = None  # flight is best-effort, never fatal
            return
        self._spill_write(
            {
                "seq": 0,
                "ts": round(time.time(), 6),
                "kind": "flight_open",
                "name": "flight",
                "pid": self._pid,
                "capacity": self.capacity,
                "run_id": os.environ.get("SPLLIFT_RUN_ID") or None,
            }
        )

    def _spill_write(self, event: Dict[str, object]) -> None:
        try:
            self._spill.write(
                json.dumps(event, separators=(",", ":"), sort_keys=True) + "\n"
            )
            self._spill.flush()  # must hit the file before any SIGKILL
        except (OSError, ValueError):
            self._spill = None

    def close_spill(self) -> None:
        if self._spill is not None:
            try:
                self._spill.close()
            except OSError:
                pass
            self._spill = None


# ----------------------------------------------------------------------
# Parent-side reconstruction
# ----------------------------------------------------------------------


def load_spill(
    path, reason: str, capacity: Optional[int] = None
) -> Optional[Dict[str, object]]:
    """Reconstruct a dead worker's flight dump from its spill file.

    Replays the JSONL spill: the header carries pid/run_id/capacity, the
    body is the event stream in recording order.  Open spans are
    re-derived by matching ``span_begin``/``span_end``, counters by
    summing ``counters`` events, and the ring bound is re-applied so the
    reconstruction equals what the worker itself would have dumped.
    Returns ``None`` when the spill is missing or empty.
    """
    try:
        # A torn final line is expected under SIGKILL; the reader skips it.
        records = list(iter_log(path))
    except OSError:
        return None
    header: Dict[str, object] = {}
    events: List[dict] = []
    for event in records:
        if event.get("kind") == "flight_open":
            header = event
        else:
            events.append(event)
    if not header and not events:
        return None
    ring_capacity = capacity or int(header.get("capacity") or DEFAULT_CAPACITY)
    open_spans: List[Dict[str, object]] = []
    counters: Dict[str, int] = {}
    job: Optional[Dict[str, object]] = None
    for event in events:
        kind = event.get("kind")
        if kind == "span_begin":
            open_spans.append(
                {"name": event.get("name"), "since": event.get("ts")}
            )
        elif kind == "span_end":
            for position in range(len(open_spans) - 1, -1, -1):
                if open_spans[position]["name"] == event.get("name"):
                    del open_spans[position]
                    break
        elif kind == "counters":
            for name, value in (event.get("counters") or {}).items():
                if isinstance(value, int):
                    counters[name] = counters.get(name, 0) + value
        elif kind == "job":
            job = {
                key: value
                for key, value in event.items()
                if key not in ("seq", "ts", "kind")
            }
    return {
        "schema": FLIGHT_SCHEMA,
        "run_id": header.get("run_id"),
        "pid": header.get("pid"),
        "reason": reason,
        "capacity": ring_capacity,
        "recorded": events[-1].get("seq", len(events)) if events else 0,
        "events": events[-ring_capacity:],
        "open_spans": open_spans,
        "job": job,
        "counters": counters,
    }


def load_flight_dump(path) -> Dict[str, object]:
    """Load a flight dump (or extract dumps from a batch report).

    Accepts a ``spllift-flight/v1`` file directly, or a
    ``spllift-batch-report/v1`` file, in which case every job row
    carrying a ``flight`` attachment contributes one dump.  Returns a
    dict ``{"dumps": [...]}``; raises ``ValueError`` for anything else
    (the CLI renders that as the one-line error contract).
    """
    try:
        document = json.loads(read_utf8(path))
    except json.JSONDecodeError as error:
        raise ValueError(f"{path} is not valid JSON: {error}") from None
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    schema = document.get("schema")
    if schema == FLIGHT_SCHEMA:
        return {"dumps": [document]}
    if schema == "spllift-batch-report/v1":
        dumps = []
        for row in document.get("jobs", []):
            flight = row.get("flight") if isinstance(row, dict) else None
            if isinstance(flight, dict):
                flight = dict(flight)
                flight.setdefault("job", {})
                if not flight["job"]:
                    flight["job"] = {
                        "label": row.get("label"),
                        "analysis": row.get("analysis"),
                        "digest": row.get("digest"),
                    }
                flight["outcome"] = row.get("status")
                dumps.append(flight)
        if not dumps:
            raise ValueError(
                f"{path}: batch report carries no flight dumps "
                "(no worker died with flight recording armed)"
            )
        return {"dumps": dumps}
    raise ValueError(
        f"{path}: expected schema {FLIGHT_SCHEMA!r} or "
        f"'spllift-batch-report/v1', got {schema!r}"
    )


def render_postmortem(dump: Dict[str, object], last: int = 50) -> List[str]:
    """Human-readable reconstruction of one flight dump, as lines."""
    lines: List[str] = []
    run_id = dump.get("run_id") or "-"
    reason = dump.get("reason") or "unknown"
    lines.append(
        f"flight: pid {dump.get('pid', '?')}  run {run_id}  reason: {reason}"
    )
    job = dump.get("job")
    if job:
        label = job.get("label", "?")
        analysis = job.get("analysis", "?")
        digest = str(job.get("digest") or "")[:12]
        detail = f"in-flight job: {label}  analysis={analysis}"
        if digest:
            detail += f"  digest={digest}"
        if job.get("fm_mode"):
            detail += f"  fm_mode={job['fm_mode']}"
        lines.append(detail)
    else:
        lines.append("in-flight job: (none recorded)")
    open_spans = dump.get("open_spans") or []
    if open_spans:
        lines.append(f"open spans at death ({len(open_spans)}):")
        for span in open_spans:
            lines.append(f"  {span.get('name')}")
    else:
        lines.append("open spans at death: (none)")
    events = dump.get("events") or []
    recorded = dump.get("recorded", len(events))
    shown = events[-last:] if last else events
    lines.append(
        f"last {len(shown)} of {recorded} event(s) "
        f"(ring capacity {dump.get('capacity', '?')}):"
    )
    base = shown[0].get("ts") if shown else 0.0
    for event in shown:
        offset = float(event.get("ts", base)) - float(base or 0.0)
        kind = event.get("kind", "?")
        name = event.get("name", "?")
        extras = {
            key: value
            for key, value in event.items()
            if key not in ("seq", "ts", "kind", "name")
        }
        suffix = ""
        if extras:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(extras.items())
            )
            suffix = f"  ({rendered})"
        lines.append(f"  +{offset:8.3f}s  {kind:<10} {name}{suffix}")
    counters = dump.get("counters") or {}
    if counters:
        lines.append(f"counters at death ({len(counters)}):")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name}: {value}")
    return lines
