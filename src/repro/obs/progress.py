"""Opt-in live progress line for long-running solves.

A :class:`ProgressReporter` renders a single carriage-return-updated
stderr line — worklist depth, jump functions, BDD nodes, elapsed time —
from throttled ``tick`` calls.  Its one caller is the heartbeat
:func:`repro.obs.runtime.pulse`, which the IDE and IFDS worklist loops
call once per 256 pops and the batch scheduler once per wave.  The
throttle is wall-clock based (default 4 updates/second), so an enabled
progress line costs a pulse one clock read between updates, and a
disabled one costs nothing beyond the pulse itself.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Optional, TextIO

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Throttled single-line progress display on a terminal stream."""

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        interval: float = 0.25,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._started = time.perf_counter()
        # -inf, not 0.0: perf_counter's epoch is unspecified (it can start
        # near zero at boot/process start), and the first tick must land.
        self._last_emit = float("-inf")
        self._dirty = False
        self._width = 0
        #: Optional provider of extra fields (e.g. live BDD node count),
        #: set by the layer that knows about them (``SPLLift.solve``).
        self.extra: Optional[Callable[[], Dict[str, object]]] = None
        self.updates = 0

    def tick(self, phase: str, **fields) -> None:
        """Maybe render one update (rate-limited to ``interval``)."""
        now = time.perf_counter()
        if now - self._last_emit < self.interval:
            return
        self._last_emit = now
        if self.extra is not None:
            for name, value in self.extra().items():
                fields.setdefault(name, value)
        parts = [phase]
        parts.extend(
            f"{name} {value:,}" if isinstance(value, int) else f"{name} {value}"
            for name, value in fields.items()
        )
        parts.append(f"{now - self._started:.1f}s")
        line = " | ".join(parts)
        self._width = max(self._width, len(line))
        try:
            self._stream.write("\r" + line.ljust(self._width))
            self._stream.flush()
        except (OSError, ValueError):
            return  # closed/broken stream: progress is best-effort
        self._dirty = True
        self.updates += 1

    def finish(self) -> None:
        """Clear the progress line (call once the work completes)."""
        if not self._dirty:
            return
        try:
            self._stream.write("\r" + " " * self._width + "\r")
            self._stream.flush()
        except (OSError, ValueError):
            pass
        self._dirty = False
