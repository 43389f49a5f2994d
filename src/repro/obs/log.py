"""Structured JSONL event log — one line per operational event.

Where the tracer answers "where did the time go" and the metrics
registry answers "how much work happened", the event log answers "what
happened, in order, with ids" — the thing an operator greps when a
fleet misbehaves.  One :class:`EventLog` per process appends JSON lines

    {"ts": ..., "level": "info", "event": "job.done", "run_id": "...",
     "pid": 12345, "span": "scheduler.job", ...fields}

to a file opened with ``--log FILE`` or ``$SPLLIFT_LOG``.  Workers
inherit the path through the environment and append to the *same* file
— appends of one ``write()`` under ~4 KiB are atomic on POSIX, and
every line carries its pid, so interleaving is safe and attributable.

``span`` is the innermost open flight-recorder span at emit time, which
is what correlates a log line with the trace/flight view of the same
moment.  Every emitted line is also mirrored into the flight ring (kind
``log``) so a postmortem shows the dead worker's last words even when
no ``--log`` file was configured.

The log is best-effort: a full disk or yanked file never takes the
analysis down (digests must stay bit-identical with logging enabled —
that includes "enabled but failing").
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional

from repro.utils.files import not_utf8_message

__all__ = [
    "LOG_ENV",
    "EventLog",
    "iter_log",
    "decode_line",
    "parse_line",
    "format_line",
]

#: Path of the shared JSONL event log; set by ``--log`` in the parent
#: and inherited by every worker.
LOG_ENV = "SPLLIFT_LOG"


class EventLog:
    """Append-only JSONL sink for one process."""

    def __init__(self, path, run_id: Optional[str] = None) -> None:
        self.path = str(path)
        self.run_id = run_id
        try:
            self._handle = open(self.path, "a", encoding="utf-8")
        except OSError:
            self._handle = None
        self._pid = os.getpid()

    @property
    def active(self) -> bool:
        return self._handle is not None

    def event(
        self,
        event: str,
        level: str = "info",
        span: Optional[str] = None,
        **fields,
    ) -> Optional[Dict[str, object]]:
        """Emit one event line; returns the record (or ``None`` if dead)."""
        if self._handle is None:
            return None
        record: Dict[str, object] = {
            "ts": round(time.time(), 6),
            "level": level,
            "event": event,
            "run_id": self.run_id,
            "pid": self._pid,
        }
        if span:
            record["span"] = span
        if fields:
            record.update(fields)
        try:
            self._handle.write(
                json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
            )
            self._handle.flush()
        except (OSError, ValueError):
            self.close()
            return None
        return record

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


# ----------------------------------------------------------------------
# Reading (``spllift obs tail``, flight spills)
# ----------------------------------------------------------------------


def iter_log(path):
    """Yield the records of a JSON-lines file — an event log or a flight
    spill — skipping blank and torn lines.  A line that is not UTF-8
    raises ``ValueError`` naming the file and the byte's offset."""
    with open(path, "rb") as handle:
        offset = 0
        for raw in handle:
            record = parse_line(decode_line(path, raw, offset))
            offset += len(raw)
            if record is not None:
                yield record


def decode_line(path, raw: bytes, offset: int) -> str:
    """One line of a JSON-lines file that starts ``offset`` bytes into
    it, decoded as UTF-8 (``ValueError`` naming the file if it is not)."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ValueError(not_utf8_message(path, error, offset)) from None


def parse_line(line: str) -> Optional[Dict[str, object]]:
    """One JSON-lines record, or ``None`` for a blank, torn (a concurrent
    writer's, or one cut short by SIGKILL) or non-object line."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def format_line(record: Dict[str, object]) -> str:
    """One human-readable line per record (``spllift obs tail``)."""
    ts = record.get("ts")
    if isinstance(ts, (int, float)):
        clock = time.strftime("%H:%M:%S", time.localtime(ts))
        clock += f".{int(round((ts % 1) * 1000)):03d}"
    else:
        clock = "--:--:--"
    level = str(record.get("level", "info"))
    event = str(record.get("event", "?"))
    parts = [f"{clock} {level:<5} {event}"]
    pid = record.get("pid")
    if pid is not None:
        parts.append(f"pid={pid}")
    span = record.get("span")
    if span:
        parts.append(f"span={span}")
    skip = {"ts", "level", "event", "run_id", "pid", "span"}
    for key in sorted(record):
        if key in skip:
            continue
        value = record[key]
        if isinstance(value, float):
            value = round(value, 4)
        parts.append(f"{key}={value}")
    return "  ".join(parts)
