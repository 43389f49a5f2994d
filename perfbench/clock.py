"""Speed-normalized time for the workload processes.

The benchmark runs on a few cores of a shared host, whose speed moves
with its neighbours' load: the same pass takes 40% longer in a slow
phase, and CPU time slows with it, so no clock of the process can tell
the program's own cost from the host's.  ``NormalClock`` measures the
host's speed beside the program instead.  Every ``PERIOD_S`` of wall
time a ``SIGALRM`` handler runs ``probe``, a fixed piece of pure-Python
work that belongs to the benchmark, and records when it started and
ended.  A stretch of wall time between two probes then counts as

    wall seconds × REFERENCE_PROBE_S ÷ (mean duration of the two probes)

that is, the seconds it would have taken at the speed at which the probe
takes ``REFERENCE_PROBE_S``.  The probes' own time counts as nothing, so
an op's normalized time holds only the program's work.  A program change
that does more work still takes proportionally longer; a slow phase of
the host slows the probe and the program alike and cancels out.

The probe mixes the two kinds of work the program does most: integer
arithmetic over dict lookups, and calls that build tuples and test them
against a set.  Either alone tracked the program's slowdowns less
closely (see README.md).  Garbage collection is off while it runs, and
it frees everything it allocates, so it never starts a collection of
the program's objects.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import List

#: Wall time between probes.
PERIOD_S = 0.02
#: A probe's duration at the reference speed: its median on this
#: benchmark's 2 GHz Xeon host in a quiet phase.
REFERENCE_PROBE_S = 0.00035

_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(512)}


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


_NODES = [_Node(i, 7 * i) for i in range(256)]


def _pair(x: _Node, y: _Node) -> tuple:
    return (x.a, y.b)


def probe() -> int:
    """Fixed work, about 0.5 ms: dict lookups with integer arithmetic,
    then calls that build tuples into a set."""
    table, acc = _TABLE, 0
    for i in range(1500):
        acc = (acc + table[i & 511]) & 0xFFFFF
    nodes, seen = _NODES, set()
    for i in range(750):
        key = _pair(nodes[i & 255], nodes[(i * 7) & 255])
        if key in seen:
            acc += 1
        else:
            seen.add(key)
    return acc


class NormalClock:
    """Probe the host's speed while armed; convert wall-clock intervals
    (``time.perf_counter`` readings) into normalized seconds.  Unarmed,
    or before its first probe, it reads wall seconds."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._indexed = 0
        self._offsets: List[float] = []  # normalized time at each probe's start
        self._factors: List[float] = []  # normalized s per wall s after each probe

    def arm(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        began = time.perf_counter()
        probe()
        ended = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(began)
        self.ends.append(ended)

    def _index(self) -> None:
        count = len(self.starts)
        if self._indexed == count:
            return
        starts, ends = self.starts[:count], self.ends[:count]
        durations = [end - start for start, end in zip(starts, ends)]
        factors = [
            2 * REFERENCE_PROBE_S / (durations[k] + durations[k + 1]) for k in range(count - 1)
        ] + [REFERENCE_PROBE_S / durations[-1]]
        offsets = [0.0]
        for k in range(count - 1):
            offsets.append(offsets[-1] + (starts[k + 1] - ends[k]) * factors[k])
        self._offsets, self._factors, self._indexed = offsets, factors, count

    def _reading(self, t: float) -> float:
        self._index()
        starts, ends = self.starts, self.ends
        count = self._indexed
        if count == 0:
            return t
        if t <= starts[0]:
            return (t - starts[0]) * REFERENCE_PROBE_S / (ends[0] - starts[0])
        k = bisect.bisect_right(starts, t, 0, count) - 1
        if t <= ends[k]:
            return self._offsets[k]
        return self._offsets[k] + (t - ends[k]) * self._factors[k]

    def seconds(self, began: float, ended: float) -> float:
        """Normalized seconds of the wall interval [began, ended]."""
        return self._reading(ended) - self._reading(began)

    def probe_seconds(self, began: float, ended: float) -> float:
        """Wall seconds the probes took within [began, ended]."""
        starts, ends = self.starts, self.ends
        first = max(0, bisect.bisect_right(ends, began))
        last = bisect.bisect_left(starts, ended)
        return sum(
            min(ends[k], ended) - max(starts[k], began) for k in range(first, last)
        )
