"""Single-file sqlite result-store backend.

One database file holds the whole store — the natural shape for a host
where several schedulers (CI runners, user sessions) share warm results
without an NFS-hostile directory tree of tiny JSON files.  Concurrency
safety comes from sqlite itself:

- **WAL journal mode** — readers never block the writer and vice versa,
  so two ``BatchScheduler`` processes can hammer one file;
- **busy-timeout + bounded retry** — a locked database blocks up to the
  busy timeout inside sqlite, and genuinely contended statements are
  retried a few times on top (``store.sqlite.busy_retries`` counts
  them) before the operation degrades: reads fail open as misses,
  writes are dropped (the record will be recomputed or re-put), and
  only maintenance commands surface the error;
- **connection per process** — connections are not fork-safe, so the
  lazily opened handle is keyed by PID and reopened in children.

Records live in one table, keyed by digest, with the JSON payload stored
verbatim plus the metadata (`schema`, size, last-use clock) that
``stats``/``prune`` need without decoding every payload.  ``get``
touches ``last_used`` so LRU pruning ranks by real use, not by write
time — sqlite gives us an atime the filesystem cannot take away.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, Optional

from repro.obs import runtime as obs
from repro.service.backends.base import InstrumentedStore, encode_record

__all__ = ["SqliteStore"]

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS records (
    digest    TEXT PRIMARY KEY,
    schema    TEXT NOT NULL,
    payload   TEXT NOT NULL,
    size      INTEGER NOT NULL,
    created   REAL NOT NULL,
    last_used REAL NOT NULL
)
"""

#: Retries on top of sqlite's own busy timeout before degrading.
_BUSY_RETRIES = 5
_BUSY_BACKOFF_SECONDS = 0.05


def _is_busy(error: sqlite3.OperationalError) -> bool:
    message = str(error).lower()
    return "locked" in message or "busy" in message


class SqliteStore(InstrumentedStore):
    """Result store in a single sqlite file (safe for concurrent use)."""

    kind = "sqlite"

    def __init__(self, path, busy_timeout: float = 5.0) -> None:
        self.path = Path(path)
        self.busy_timeout = busy_timeout
        self._connection: Optional[sqlite3.Connection] = None
        self._owner_pid: Optional[int] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        """The per-process connection (reopened after fork)."""
        pid = os.getpid()
        if self._connection is None or self._owner_pid != pid:
            if self.path.exists() and self.path.is_dir():
                raise sqlite3.OperationalError(
                    f"sqlite store path is a directory: {self.path}"
                )
            if self.path.parent and not self.path.parent.exists():
                self.path.parent.mkdir(parents=True, exist_ok=True)
            connection = sqlite3.connect(
                str(self.path),
                timeout=self.busy_timeout,
                check_same_thread=False,
            )
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(
                f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}"
            )
            connection.execute(_SCHEMA_SQL)
            connection.commit()
            self._connection = connection
            self._owner_pid = pid
        return self._connection

    def close(self) -> None:
        if self._connection is not None and self._owner_pid == os.getpid():
            self._connection.close()
        self._connection = None
        self._owner_pid = None

    def _execute(self, operation):
        """Run ``operation(connection)`` with bounded busy retry.

        The connection's own busy timeout absorbs most contention; the
        retry loop on top covers the rare statement that still comes
        back ``SQLITE_BUSY`` (e.g. a WAL checkpoint racing a writer).
        """
        last_error: Optional[sqlite3.OperationalError] = None
        for attempt in range(_BUSY_RETRIES + 1):
            try:
                with self._lock:
                    return operation(self._connect())
            except sqlite3.OperationalError as error:
                if not _is_busy(error):
                    raise
                last_error = error
                obs.metrics().inc("store.sqlite.busy_retries")
                time.sleep(_BUSY_BACKOFF_SECONDS * (attempt + 1))
        raise last_error  # exhausted: let the caller's policy decide

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def _get(self, digest: str) -> Optional[Dict[str, object]]:
        if not self.path.is_file():
            return None

        def read(connection: sqlite3.Connection):
            row = connection.execute(
                "SELECT payload FROM records WHERE digest = ?", (digest,)
            ).fetchone()
            if row is not None:
                connection.execute(
                    "UPDATE records SET last_used = ? WHERE digest = ?",
                    (time.time(), digest),
                )
                connection.commit()
            return row

        try:
            row = self._execute(read)
        except sqlite3.Error:
            return None  # fail open: a broken store is a cold store
        if row is None:
            return None
        try:
            record = json.loads(row[0])
        except json.JSONDecodeError:
            return None
        if not isinstance(record, dict) or record.get("digest") != digest:
            return None
        return record

    def _contains(self, digest: str) -> bool:
        if not self.path.is_file():
            return False

        def probe(connection: sqlite3.Connection):
            return connection.execute(
                "SELECT 1 FROM records WHERE digest = ?", (digest,)
            ).fetchone()

        try:
            return self._execute(probe) is not None
        except sqlite3.Error:
            return False

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def _put(self, record: Dict[str, object]) -> str:
        digest = str(record["digest"])
        payload = encode_record(record)
        now = time.time()

        def write(connection: sqlite3.Connection):
            connection.execute(
                "INSERT INTO records "
                "(digest, schema, payload, size, created, last_used) "
                "VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(digest) DO UPDATE SET "
                "schema = excluded.schema, payload = excluded.payload, "
                "size = excluded.size, last_used = excluded.last_used",
                (
                    digest,
                    str(record.get("schema", "unknown")),
                    payload,
                    len(payload),
                    now,
                    now,
                ),
            )
            connection.commit()

        try:
            self._execute(write)
        except sqlite3.Error:
            # Dropping a cache write is safe — the record is recomputable
            # — and better than failing a batch over a contended file.
            obs.metrics().inc("store.sqlite.dropped_puts")
        return digest

    # ------------------------------------------------------------------
    # Maintenance (errors surface here: these are explicit admin ops)
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Same report shape as the directory backend.

        A missing database reports zeros without creating the file (so
        ``spllift cache stats`` on a fresh spec is not a write).
        """
        records = 0
        total_bytes = 0
        corrupt = 0
        kinds: Dict[str, int] = {}
        if self.path.exists():

            def scan(connection: sqlite3.Connection):
                return connection.execute(
                    "SELECT digest, schema, payload, size FROM records"
                ).fetchall()

            for digest, schema, payload, size in self._execute(scan):
                records += 1
                total_bytes += int(size)
                try:
                    decoded = json.loads(payload)
                except json.JSONDecodeError:
                    corrupt += 1
                    continue
                if not isinstance(decoded, dict) or decoded.get("digest") != digest:
                    corrupt += 1
                    continue
                kinds[str(schema)] = kinds.get(str(schema), 0) + 1
        return {
            "backend": self.kind,
            "root": str(self.path),
            "records": records,
            "bytes": total_bytes,
            "kinds": kinds,
            "corrupt": corrupt,
            "session": self.session_stats(),
        }

    def clear(self) -> int:
        if not self.path.exists():
            return 0

        def wipe(connection: sqlite3.Connection):
            (count,) = connection.execute(
                "SELECT COUNT(*) FROM records"
            ).fetchone()
            connection.execute("DELETE FROM records")
            connection.commit()
            return int(count)

        return self._execute(wipe)

    def prune(self, max_bytes: int) -> Dict[str, object]:
        """LRU eviction by the ``last_used`` column (updated on every
        ``get``) — the same contract as the directory backend, with a
        use clock no mount option can disable."""
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if not self.path.exists():
            return {
                "removed": 0,
                "freed_bytes": 0,
                "remaining_bytes": 0,
                "remaining_records": 0,
            }

        def evict(connection: sqlite3.Connection):
            rows = connection.execute(
                "SELECT digest, size FROM records ORDER BY last_used, digest"
            ).fetchall()
            total = sum(int(size) for _, size in rows)
            removed = 0
            freed = 0
            for digest, size in rows:
                if total <= max_bytes:
                    break
                connection.execute(
                    "DELETE FROM records WHERE digest = ?", (digest,)
                )
                total -= int(size)
                freed += int(size)
                removed += 1
            connection.commit()
            return {
                "removed": removed,
                "freed_bytes": freed,
                "remaining_bytes": total,
                "remaining_records": len(rows) - removed,
            }

        return self._execute(evict)
