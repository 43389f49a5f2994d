"""Named counters, gauges and histograms behind one registry API.

The registry is the single sink for every work counter in the system —
the IDE/IFDS solver counters, the BDD engine's apply-cache statistics,
the process pool's task accounting and the result store's hit/latency
figures all land here (the historical per-component ``stats`` dicts
remain as compatibility views).  Three primitives cover all of them:

- **counters** — monotonically increasing totals (``inc``): integers,
  save a time total such as ``gc.seconds``;
- **gauges** — last-written level samples (``gauge``/``gauge_max``);
- **histograms** — value distributions with exponential buckets,
  tracking count/sum/min/max (``observe``; latencies in seconds).

Everything is plain data: :meth:`MetricsRegistry.snapshot` returns a
JSON- and pickle-friendly dict, and :meth:`MetricsRegistry.merge` folds
such a snapshot back in — which is how worker processes ship their
metrics over the result pipes and the parent aggregates a whole
campaign into one coherent registry (counters and histograms add,
gauges combine via ``max``, the only order-independent choice).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "HISTOGRAM_BOUNDS",
    "render_prometheus",
]

#: Exponential bucket upper bounds (seconds when observing latencies):
#: 1µs, 4µs, 16µs, … ~4.4min, plus the implicit +inf overflow bucket.
HISTOGRAM_BOUNDS: Tuple[float, ...] = tuple(1e-6 * 4**i for i in range(14))


class Histogram:
    """Count/sum/min/max plus exponential buckets over observed values."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: List[int] = [0] * (len(HISTOGRAM_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.buckets[bisect_left(HISTOGRAM_BOUNDS, value)] += 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": list(self.buckets),
        }

    def merge(self, snapshot: Dict[str, object]) -> None:
        self.count += int(snapshot["count"])
        self.total += float(snapshot["sum"])
        for bound in ("min", "max"):
            other = snapshot.get(bound)
            if other is None:
                continue
            mine = getattr(self, bound)
            if mine is None:
                setattr(self, bound, other)
            elif bound == "min":
                self.min = min(mine, other)
            else:
                self.max = max(mine, other)
        for index, count in enumerate(snapshot.get("buckets", ())):
            if index < len(self.buckets):
                self.buckets[index] += int(count)


class MetricsRegistry:
    """One process's named counters, gauges and histograms."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- write side ----------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if higher (high-water mark)."""
        if value > self._gauges.get(name, float("-inf")):
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.observe(value)

    # -- read side -----------------------------------------------------

    def counter_value(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    @property
    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    def hit_ratio(self, hits: str, misses: str) -> Optional[float]:
        """``hits / (hits + misses)`` over two counters, ``None`` if both 0."""
        hit_count = self._counters.get(hits, 0)
        total = hit_count + self._counters.get(misses, 0)
        return hit_count / total if total else None

    # -- aggregation ---------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Plain-data snapshot, suitable for pipes, pickling and JSON."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in self._histograms.items()
            },
        }

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` from another process into this registry.

        Counters and histogram contents add; gauges combine via ``max``
        (the only merge that is independent of worker arrival order).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge_max(name, float(value))
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.merge(data)

    def describe(self) -> Dict[str, object]:
        """Human/JSON-facing report: snapshot plus derived histogram stats."""
        histograms: Dict[str, object] = {}
        for name, histogram in sorted(self._histograms.items()):
            row = histogram.snapshot()
            row["mean"] = histogram.mean
            histograms[name] = row
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": histograms,
        }


# ----------------------------------------------------------------------
# Prometheus text exposition (``GET /metrics`` on ``spllift serve``)
# ----------------------------------------------------------------------


def _prom_name(name: str) -> str:
    """Sanitize a dotted registry name into the Prometheus charset."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return "spllift_" + (cleaned or "unnamed")


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: "MetricsRegistry") -> str:
    """Render a registry in the Prometheus plaintext exposition format.

    Counters become ``counter`` families, gauges ``gauge``, histograms
    ``histogram`` with cumulative ``le`` buckets over
    :data:`HISTOGRAM_BOUNDS` (plus ``+Inf``), ``_sum`` and ``_count``.
    Names are sanitized (dots → underscores) and prefixed ``spllift_``
    so they scrape cleanly next to everyone else's metrics.
    """
    lines: List[str] = []
    for name, value in sorted(registry.counters.items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, value in sorted(registry.gauges.items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")
    for name in sorted(registry._histograms):
        histogram = registry._histograms[name]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for index, bound in enumerate(HISTOGRAM_BOUNDS):
            cumulative += histogram.buckets[index]
            lines.append(
                f'{prom}_bucket{{le="{_prom_value(bound)}"}} {cumulative}'
            )
        lines.append(f'{prom}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{prom}_sum {_prom_value(histogram.total)}")
        lines.append(f"{prom}_count {histogram.count}")
    return "\n".join(lines) + "\n" if lines else ""

