"""Span-based tracing in the Chrome ``trace_event`` format.

One :class:`Tracer` per process sees every span and retrospective
complete span.  Each of them always reaches the process's flight ring
(:class:`~repro.obs.flight.FlightRecorder`, the tracer owns it); while a
trace file is being recorded (``enabled``), each is also buffered as a
Chrome begin/end pair (``ph: "B"``/``"E"``), timestamped with the
monotonic clock in microseconds — the unit Chrome's format specifies.
On Linux ``time.perf_counter`` reads the system-wide
``CLOCK_MONOTONIC``, so events recorded in forked worker processes
merge with the parent's on one consistent timeline.  Readers still
accept instants (``ph: "i"``) from trace files written by older
versions.

:func:`write_trace` emits a file that is simultaneously

- **valid JSON** (an array, so strict tools can ``json.load`` it),
- **one event per line** (so it greps/diffs like JSONL), and
- **Chrome trace_event compatible** (so it opens directly in Perfetto
  or ``chrome://tracing``), including ``process_name`` metadata rows
  labelling the main process and each worker pid.

:func:`summarize_trace` aggregates a trace into a per-span-name time
breakdown plus a top-level coverage figure — what ``spllift trace
summary`` prints.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.flight import FlightRecorder
from repro.utils.files import read_utf8

__all__ = [
    "Tracer",
    "write_trace",
    "read_trace",
    "summarize_trace",
    "fold_trace",
]


class _Span:
    """Context manager emitting a begin on enter and an end on exit."""

    __slots__ = ("_tracer", "_name", "_args")

    def __init__(self, tracer: "Tracer", name: str, args: Optional[dict]) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        self._tracer._emit("B", self._name, self._args)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._emit("E", self._name, None)
        return False


class Tracer:
    """The process's one tracer: flight ring always, trace buffer while
    recording.

    Buffered events are plain dicts in the Chrome ``trace_event`` shape;
    ``ts`` is ``time.perf_counter()`` in microseconds.  The pid/tid are
    sampled at construction time, which is why worker processes install
    a fresh tracer after fork (:func:`repro.obs.runtime.activate_worker`)
    — the inherited buffer and ring would otherwise replay the parent's
    events.
    """

    def __init__(
        self,
        flight: Optional[FlightRecorder] = None,
        recording: bool = True,
    ) -> None:
        #: The flight ring every event reaches, recording or not.
        self.flight = flight if flight is not None else FlightRecorder()
        #: True while a trace file is being recorded: only then are
        #: Chrome events buffered.
        self.enabled = recording
        self._events: List[dict] = []
        self._pid = os.getpid()
        self._tid = threading.get_ident() & 0xFFFF

    # -- recording -----------------------------------------------------

    def _buffer(
        self, ph: str, name: str, ts: float, tid: int, args: Optional[dict]
    ) -> None:
        event = {"name": name, "ph": ph, "ts": ts, "pid": self._pid, "tid": tid}
        if args:
            event["args"] = args
        self._events.append(event)

    def _emit(self, ph: str, name: str, args: Optional[dict]) -> None:
        if ph == "B":
            self.flight.span_begin(name, args)
        else:
            self.flight.span_end(name)
        if self.enabled:
            self._buffer(ph, name, time.perf_counter() * 1e6, self._tid, args)

    def span(self, name: str, **args) -> _Span:
        """Context manager tracing one nested span."""
        return _Span(self, name, args or None)

    def complete(
        self,
        name: str,
        start_us: float,
        end_us: float,
        tid: Optional[int] = None,
        **args,
    ) -> None:
        """Record a span retrospectively from captured timestamps.

        Used by the parent process for worker task lifetimes: the B/E
        pair lands on ``tid`` (default: this tracer's thread), letting
        concurrent tasks occupy separate rows instead of producing
        improperly-nested events on one track.
        """
        self.flight.record(
            "complete",
            name,
            duration_us=round(float(end_us) - float(start_us), 1),
            **args,
        )
        if self.enabled:
            track = self._tid if tid is None else tid
            self._buffer("B", name, start_us, track, args)
            self._buffer("E", name, end_us, track, None)

    # -- aggregation ---------------------------------------------------

    def events(self) -> List[dict]:
        return list(self._events)

    def drain(self) -> List[dict]:
        """Return and clear the buffer (worker → parent shipping)."""
        events, self._events = self._events, []
        return events

    def absorb(self, events: Iterable[dict]) -> None:
        """Append events shipped from another process (while recording)."""
        if self.enabled:
            self._events.extend(events)


# ----------------------------------------------------------------------
# Trace files
# ----------------------------------------------------------------------


def write_trace(
    events: Iterable[dict], path, run_id: Optional[str] = None
) -> int:
    """Write events as a one-event-per-line Chrome trace; returns count.

    Events are sorted by timestamp (workers ship theirs out of order
    relative to the parent's) and prefixed with ``process_name``
    metadata rows so Perfetto labels the main process and each worker.
    """
    events = sorted(events, key=lambda event: event.get("ts", 0.0))
    pids: List[int] = []
    for event in events:
        pid = event.get("pid")
        if pid is not None and pid not in pids:
            pids.append(pid)
    metadata = []
    for position, pid in enumerate(pids):
        label = "spllift" if position == 0 else f"spllift worker {pid}"
        if run_id:
            label += f" [{run_id}]"
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    lines = [
        json.dumps(event, separators=(",", ":"), sort_keys=True)
        for event in metadata + events
    ]
    with open(path, "w") as handle:
        handle.write("[\n")
        handle.write(",\n".join(lines))
        handle.write("\n]\n")
    return len(events)


def read_trace(path) -> List[dict]:
    """Load a trace written by :func:`write_trace` (or plain JSONL).

    A file that is not UTF-8 text, or not a trace, raises ``ValueError``
    with a one-line message that names it."""
    text = read_utf8(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        pass  # not one JSON document: read it as JSONL below
    else:
        if isinstance(data, dict):  # {"traceEvents": [...]} object format,
            # or a single-event JSONL line (itself valid JSON)
            data = data.get("traceEvents", [data] if "ph" in data else [])
        if not isinstance(data, list):
            raise ValueError(f"{path} is not a valid trace file: no event list")
        return [event for event in data if isinstance(event, dict)]
    events = []
    for line in text.splitlines():
        line = line.strip().rstrip(",")
        if not line or line in ("[", "]"):
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path} is not a valid trace file: {error}") from None
        if isinstance(event, dict):
            events.append(event)
    return events


def summarize_trace(events: List[dict]) -> Dict[str, object]:
    """Per-span-name totals plus top-level wall-clock coverage.

    Returns ``wall_us`` (first B/i to last E/i timestamp), ``rows``
    (name, count, total_us, pct-of-wall, max depth) sorted by total
    time, and ``top_level_us`` — time covered by depth-0 spans across
    all tracks, the figure behind "breakdown sums to ≥90% of wall".
    Top-level coverage merges depth-0 intervals across processes, so
    concurrent workers don't count the same wall-clock second twice.
    """
    timestamps = [
        float(event["ts"])
        for event in events
        if event.get("ph") in ("B", "E", "i", "X")
    ]
    wall = (max(timestamps) - min(timestamps)) if timestamps else 0.0

    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    depths: Dict[str, int] = {}
    intervals: List[Tuple[float, float]] = []  # depth-0 spans, any track
    stacks: Dict[Tuple[int, int], List[Tuple[str, float]]] = {}
    for event in sorted(events, key=lambda event: float(event.get("ts", 0.0))):
        ph = event.get("ph")
        if ph not in ("B", "E"):
            continue
        track = (event.get("pid", 0), event.get("tid", 0))
        stack = stacks.setdefault(track, [])
        if ph == "B":
            depth = len(stack)
            name = str(event["name"])
            depths[name] = max(depths.get(name, 0), depth)
            stack.append((name, float(event["ts"])))
        elif stack:
            name, started = stack.pop()
            elapsed = float(event["ts"]) - started
            totals[name] = totals.get(name, 0.0) + elapsed
            counts[name] = counts.get(name, 0) + 1
            if not stack:
                intervals.append((started, float(event["ts"])))

    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    top_level = sum(end - start for start, end in merged)

    rows = [
        {
            "name": name,
            "count": counts[name],
            "total_us": total,
            "pct": (100.0 * total / wall) if wall else 0.0,
            "depth": depths.get(name, 0),
        }
        for name, total in sorted(totals.items(), key=lambda item: -item[1])
    ]
    return {
        "wall_us": wall,
        "rows": rows,
        "top_level_us": top_level,
        "coverage_pct": (100.0 * top_level / wall) if wall else 0.0,
    }


def fold_trace(events: List[dict]) -> List[str]:
    """Collapse a span trace into folded-stack lines for flamegraph tools.

    Output is Brendan Gregg's "folded" format — one line per distinct
    call stack, ``frame;frame;...;frame <value>`` — with the value being
    the stack's **self time in integer microseconds** (time inside the
    innermost frame not covered by its child spans), summed over every
    occurrence on any ``(pid, tid)`` track.  Feeding the lines to
    ``flamegraph.pl`` (or any speedscope-style importer) reproduces the
    span hierarchy with correct inclusive widths, because a stack's
    inclusive time is its own self time plus its descendants'.

    Frames containing ``;`` (the stack separator) or whitespace are
    sanitized to ``_``; zero-self-time stacks are dropped.  Lines are
    sorted for deterministic output.
    """
    folded: Dict[str, float] = {}
    # Per-track stack of [name, start_ts, child_time_us].
    stacks: Dict[Tuple[int, int], List[List[object]]] = {}
    for event in sorted(events, key=lambda event: float(event.get("ts", 0.0))):
        ph = event.get("ph")
        if ph not in ("B", "E"):
            continue
        track = (event.get("pid", 0), event.get("tid", 0))
        stack = stacks.setdefault(track, [])
        if ph == "B":
            name = "".join(
                "_" if ch == ";" or ch.isspace() else ch
                for ch in str(event["name"])
            )
            stack.append([name, float(event["ts"]), 0.0])
        elif stack:
            name, started, child_time = stack.pop()
            elapsed = float(event["ts"]) - started
            if stack:
                stack[-1][2] += elapsed
            path = ";".join(frame[0] for frame in stack) if stack else ""
            key = f"{path};{name}" if path else name
            folded[key] = folded.get(key, 0.0) + max(0.0, elapsed - child_time)
    return sorted(
        f"{key} {int(round(value))}"
        for key, value in folded.items()
        if int(round(value)) > 0
    )
