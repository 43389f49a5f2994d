"""Directory-backed content-addressed result store (the default backend).

Layout (one JSON document per record, sharded by digest prefix)::

    <root>/
        objects/
            ab/
                ab3f…e2.json

Records are keyed by the :class:`~repro.service.jobs.AnalysisJob` digest
(or, for cached experiment metrics, an analogous content hash) and carry
their own ``digest`` field; a record whose field disagrees with its file
name, or that fails to decode, is treated as a miss — the store is a
cache, so corruption degrades to a cold solve, never to a wrong answer.
Writes go through a temp file + ``os.replace`` so concurrent writers and
crashes can never leave a half-written record behind.

This is one of three interchangeable backends behind the
:class:`~repro.service.backends.base.StoreBackend` protocol — see
:mod:`repro.service.backends` for the sqlite and HTTP ones and the
URL-style selection (``path`` / ``sqlite://…`` / ``http://…``).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.service.backends.base import (
    RESULT_SCHEMA,
    InstrumentedStore,
    encode_record,
)

__all__ = ["ResultStore", "default_cache_dir", "RESULT_SCHEMA"]


def default_cache_dir() -> Path:
    """``$SPLLIFT_CACHE_DIR`` or ``~/.cache/spllift``."""
    env = os.environ.get("SPLLIFT_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "spllift"


class ResultStore(InstrumentedStore):
    """On-disk content-addressed store of serialized analysis results."""

    kind = "dir"

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    @property
    def _objects(self) -> Path:
        return self.root / "objects"

    def path_for(self, digest: str) -> Path:
        """Where a record with this digest lives (whether or not it exists)."""
        return self._objects / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def _contains(self, digest: str) -> bool:
        return self.path_for(digest).is_file()

    def _get(self, digest: str) -> Optional[Dict[str, object]]:
        path = self.path_for(digest)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            return None
        if not isinstance(record, dict) or record.get("digest") != digest:
            return None
        return record

    def iter_records(self) -> Iterator[Dict[str, object]]:
        """All decodable records (corrupt files are skipped)."""
        if not self._objects.is_dir():
            return
        for shard in sorted(self._objects.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                try:
                    record = json.loads(path.read_text())
                except (OSError, json.JSONDecodeError):
                    continue
                if isinstance(record, dict):
                    yield record

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def _put(self, record: Dict[str, object]) -> Path:
        digest = str(record["digest"])
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = encode_record(record)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".{digest[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Record count, total bytes, per-kind breakdown, corrupt count.

        A single walk over the store, so the counts agree with each other
        even when records are corrupt: ``records`` counts every file,
        ``kinds`` classifies the decodable ones, and ``corrupt`` counts
        the rest (undecodable JSON, non-dict payloads, vanished files) —
        ``records == sum(kinds.values()) + corrupt`` always holds.

        A missing or empty store reports zeros; a root that exists but is
        not a directory is a genuine configuration error and raises
        ``NotADirectoryError`` (the CLI renders it as a one-line error).
        """
        if self.root.exists() and not self.root.is_dir():
            raise NotADirectoryError(20, "cache root is not a directory", str(self.root))
        records = 0
        total_bytes = 0
        corrupt = 0
        kinds: Dict[str, int] = {}
        if self._objects.is_dir():
            for shard in sorted(self._objects.iterdir()):
                if not shard.is_dir():
                    continue
                for path in sorted(shard.glob("*.json")):
                    records += 1
                    try:
                        total_bytes += path.stat().st_size
                    except OSError:
                        pass
                    try:
                        record = json.loads(path.read_text())
                    except (OSError, json.JSONDecodeError):
                        corrupt += 1
                        continue
                    if not isinstance(record, dict):
                        corrupt += 1
                        continue
                    kind = str(record.get("schema", "unknown"))
                    kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "backend": self.kind,
            "root": str(self.root),
            "records": records,
            "bytes": total_bytes,
            "kinds": kinds,
            "corrupt": corrupt,
            "session": self.session_stats(),
        }

    def prune(self, max_bytes: int) -> Dict[str, object]:
        """Evict least-recently-used records until the store fits.

        Records are ranked by one clock chosen *store-wide*: access time
        when the filesystem demonstrably maintains it (some record shows
        ``atime > mtime``, i.e. a read after the write), else
        modification time for every record.  Mixing the two per file —
        the old ``max(atime, mtime)`` — interleaves "last read" and
        "last written" rankings on ``relatime``/``noatime`` mounts, where
        only *some* files ever get an atime bump, and evicts recently
        read records ahead of long-untouched ones.  Shard directories
        left empty are removed.  Returns a summary dict with
        ``removed``, ``freed_bytes``, ``remaining_bytes`` and
        ``remaining_records``.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        infos: List[Tuple[os.stat_result, Path]] = []
        total = 0
        if self._objects.is_dir():
            for shard in self._objects.iterdir():
                if not shard.is_dir():
                    continue
                for path in shard.glob("*.json"):
                    try:
                        info = path.stat()
                    except OSError:
                        continue
                    infos.append((info, path))
                    total += info.st_size
        atime_tracked = any(info.st_atime > info.st_mtime for info, _ in infos)
        entries = [
            (info.st_atime if atime_tracked else info.st_mtime, info.st_size, path)
            for info, path in infos
        ]
        entries.sort(key=lambda entry: (entry[0], str(entry[2])))
        removed = 0
        freed = 0
        for last_use, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            freed += size
            removed += 1
            try:
                path.parent.rmdir()  # only succeeds once the shard is empty
            except OSError:
                pass
        return {
            "removed": removed,
            "freed_bytes": freed,
            "remaining_bytes": total,
            "remaining_records": len(entries) - removed,
        }

    def clear(self) -> int:
        """Delete every record; returns the number removed."""
        removed = 0
        if not self._objects.is_dir():
            return removed
        for shard in list(self._objects.iterdir()):
            if not shard.is_dir():
                continue
            for path in list(shard.glob("*.json")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
            try:
                shard.rmdir()
            except OSError:
                pass
        return removed
