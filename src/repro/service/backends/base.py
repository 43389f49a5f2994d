"""The store-backend contract and its shared instrumentation layer.

Every result-store backend exposes the same three-method cache API the
service has always had — :meth:`get`, :meth:`put`, :meth:`contains` —
plus the maintenance surface the CLI needs (:meth:`stats`,
:meth:`clear`, :meth:`prune`).  :class:`StoreBackend` is the structural
protocol; :class:`InstrumentedStore` is the base class the concrete
backends (directory, sqlite, HTTP) actually inherit, which owns the
cross-cutting concerns so each backend only implements the raw
``_get``/``_put``/``_contains`` primitives:

- **metrics** — every operation ticks the aggregate ``store.*`` counters
  (``get_hits``/``get_misses``/``puts``; a ``get`` that names a schema
  counts a record of another schema as a miss) and feeds both the
  aggregate latency histograms (``store.get_seconds``/
  ``store.put_seconds``) and the per-backend ones
  (``store.<kind>.get_seconds``/…), so a mixed fleet's telemetry shows
  where the time goes per backend;
- **record validation** — ``put`` rejects records without a usable
  ``digest`` before the backend sees them, identically across backends;
- **session accounting** — :meth:`session_stats` is the ``session``
  block of every backend's :meth:`stats` report (this-process traffic:
  all stores share one metrics registry).

A backend is a *cache*: ``get`` must fail open — corrupt, mis-keyed, or
unreachable records are misses, never errors — so degradation is always
toward recomputing, never toward a wrong answer.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Optional, Protocol, runtime_checkable

from repro.obs import runtime as obs

__all__ = ["StoreBackend", "InstrumentedStore", "RESULT_SCHEMA", "encode_record"]

#: The record kind of a job's result (see :mod:`repro.service.worker`).
#: A stored record of any other kind is not served as a result.
RESULT_SCHEMA = "spllift-result/v2"


def encode_record(record: Dict[str, object]) -> str:
    """The stored text of a record, the same for every backend: sorted
    keys and no whitespace.  Any ``indent`` would make :mod:`json` fall
    back from its C encoder to pure Python.  Readers take any JSON."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@runtime_checkable
class StoreBackend(Protocol):
    """What every result-store backend looks like to the service."""

    #: Short backend identifier ("dir", "sqlite", "http") used in metric
    #: names and stats reports.
    kind: str

    def get(
        self, digest: str, schema: Optional[str] = None
    ) -> Optional[Dict[str, object]]:
        """The stored record, or ``None`` on a miss (fail-open); with
        ``schema``, a record of another schema is a miss too."""

    def put(self, record: Dict[str, object]) -> object:
        """Persist a record under its own ``digest`` key."""

    def contains(self, digest: str) -> bool:
        """Whether a record with this digest is present."""

    def stats(self) -> Dict[str, object]:
        """Record count, total bytes, per-kind breakdown, corrupt count."""

    def clear(self) -> int:
        """Delete every record; returns the number removed."""

    def prune(self, max_bytes: int) -> Dict[str, object]:
        """Evict least-recently-used records until the store fits."""


class InstrumentedStore:
    """Shared ``get``/``put``/``contains`` instrumentation for backends.

    Subclasses set :attr:`kind` and implement ``_get``/``_put``/
    ``_contains`` (plus the maintenance methods); the public methods here
    add timing, hit/miss accounting, and record validation.
    """

    kind: str = "store"

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def get(
        self, digest: str, schema: Optional[str] = None
    ) -> Optional[Dict[str, object]]:
        """The stored record, or ``None`` on a miss (including corrupt,
        mis-keyed, or unreachable records — a cache must fail open,
        toward recomputing).  With ``schema``, a record of another
        schema (an older version's) is a miss as well: the caller
        recomputes it, so it counts as one."""
        t0 = time.perf_counter()
        record = self._get(digest)
        elapsed = time.perf_counter() - t0
        if schema is not None and record is not None and record.get("schema") != schema:
            record = None
        metrics = obs.metrics()
        metrics.observe("store.get_seconds", elapsed)
        metrics.observe(f"store.{self.kind}.get_seconds", elapsed)
        metrics.inc("store.get_hits" if record is not None else "store.get_misses")
        return record

    def contains(self, digest: str) -> bool:
        return self._contains(digest)

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def put(self, record: Dict[str, object]) -> object:
        """Persist a record under its own ``digest`` key (atomically)."""
        digest = record.get("digest")
        if not isinstance(digest, str) or len(digest) < 8:
            raise ValueError(f"record has no usable digest: {digest!r}")
        t0 = time.perf_counter()
        location = self._put(record)
        elapsed = time.perf_counter() - t0
        metrics = obs.metrics()
        metrics.observe("store.put_seconds", elapsed)
        metrics.observe(f"store.{self.kind}.put_seconds", elapsed)
        metrics.inc("store.puts")
        return location

    # ------------------------------------------------------------------
    # Backend primitives
    # ------------------------------------------------------------------

    def _get(self, digest: str) -> Optional[Dict[str, object]]:
        raise NotImplementedError

    def _put(self, record: Dict[str, object]) -> object:
        raise NotImplementedError

    def _contains(self, digest: str) -> bool:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared reporting
    # ------------------------------------------------------------------

    @staticmethod
    def session_stats() -> Dict[str, object]:
        """This-process store traffic (all stores share one registry):
        what ``spllift cache stats`` and the batch summary report as the
        session hit ratio."""
        metrics = obs.metrics()
        return {
            "gets": metrics.counter_value("store.get_hits")
            + metrics.counter_value("store.get_misses"),
            "hits": metrics.counter_value("store.get_hits"),
            "misses": metrics.counter_value("store.get_misses"),
            "puts": metrics.counter_value("store.puts"),
            "remote_errors": metrics.counter_value("store.remote_errors"),
            "hit_ratio": metrics.hit_ratio("store.get_hits", "store.get_misses"),
        }
