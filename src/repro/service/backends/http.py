"""HTTP result-store backend: the client side of ``spllift serve``.

A fleet of schedulers on different hosts shares one warm store by
pointing ``--cache-dir`` at a served URL (``http://host:port``).  The
protocol is deliberately tiny — JSON records over stdlib HTTP verbs
against the daemon in :mod:`repro.service.server`:

====================  =====================================================
``GET /objects/<d>``   the record (200) or a miss (404)
``HEAD /objects/<d>``  presence probe
``PUT /objects/<d>``   store a record (body = JSON, digest must match)
``GET /stats``         the served store's stats report
``POST /clear``        delete everything → ``{"removed": n}``
``POST /prune``        body ``{"max_bytes": n}`` → prune summary
``GET /health``        liveness probe with backend kind
====================  =====================================================

The cache operations (``get``/``put``/``contains``) **fail open**: any
network failure — connection refused, timeout, a mid-flight 5xx — is a
miss (or a dropped write) counted in ``store.remote_errors``, never an
exception.  A fleet whose store daemon dies degrades to cold solves and
keeps producing correct results.  The maintenance operations
(``stats``/``clear``/``prune``) are explicit admin commands, so there a
dead server *is* the answer: they raise, and the CLI renders the
one-line error.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Dict, Optional

from repro.obs import runtime as obs
from repro.service.backends.base import InstrumentedStore, encode_record

__all__ = ["HttpStore", "RemoteStoreError"]


class RemoteStoreError(OSError):
    """A store-admin operation failed against the served store."""


class HttpStore(InstrumentedStore):
    """Client store talking to a ``spllift serve`` daemon."""

    kind = "http"

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
    ) -> bytes:
        """One HTTP round-trip; raises ``urllib.error`` family on failure
        (including non-2xx statuses, as ``HTTPError``).

        Trace context propagates with the request: the campaign run id
        and the client's innermost open span ride as
        ``X-SPLLIFT-Run-Id``/``X-SPLLIFT-Parent-Span`` headers, so the
        server's request spans correlate with the client's timeline.
        """
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=body, method=method
        )
        if body is not None:
            request.add_header("Content-Type", "application/json")
        run = obs.run_id()
        if run:
            request.add_header("X-SPLLIFT-Run-Id", run)
        parent = obs.flight().current_span()
        if parent:
            request.add_header("X-SPLLIFT-Parent-Span", parent)
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return response.read()

    def _remote_error(self) -> None:
        obs.metrics().inc("store.remote_errors")

    # ------------------------------------------------------------------
    # Read side (fail open)
    # ------------------------------------------------------------------

    def _get(self, digest: str) -> Optional[Dict[str, object]]:
        try:
            payload = self._request("GET", f"/objects/{digest}")
        except urllib.error.HTTPError as error:
            if error.code != 404:
                self._remote_error()
            return None
        except (urllib.error.URLError, OSError, ValueError):
            self._remote_error()
            return None
        try:
            record = json.loads(payload)
        except json.JSONDecodeError:
            self._remote_error()
            return None
        if not isinstance(record, dict) or record.get("digest") != digest:
            return None
        return record

    def _contains(self, digest: str) -> bool:
        try:
            self._request("HEAD", f"/objects/{digest}")
        except urllib.error.HTTPError as error:
            if error.code != 404:
                self._remote_error()
            return False
        except (urllib.error.URLError, OSError, ValueError):
            self._remote_error()
            return False
        return True

    # ------------------------------------------------------------------
    # Write side (fail open: a dropped cache write is recomputable)
    # ------------------------------------------------------------------

    def _put(self, record: Dict[str, object]) -> str:
        digest = str(record["digest"])
        body = encode_record(record).encode("utf-8")
        try:
            self._request("PUT", f"/objects/{digest}", body=body)
        except (urllib.error.URLError, OSError, ValueError):
            self._remote_error()
        return digest

    # ------------------------------------------------------------------
    # Maintenance (admin commands: errors surface)
    # ------------------------------------------------------------------

    def _admin(self, method: str, path: str, body: Optional[bytes] = None) -> object:
        try:
            payload = self._request(method, path, body=body)
        except (urllib.error.URLError, OSError, ValueError) as error:
            raise RemoteStoreError(
                f"store server {self.base_url} unreachable: {error}"
            ) from error
        try:
            return json.loads(payload) if payload else {}
        except json.JSONDecodeError as error:
            raise RemoteStoreError(
                f"store server {self.base_url} sent a malformed response"
            ) from error

    def stats(self) -> Dict[str, object]:
        """The *served* store's stats, with this client's session block
        (the server cannot know which process is asking)."""
        report = self._admin("GET", "/stats")
        if not isinstance(report, dict):
            raise RemoteStoreError(
                f"store server {self.base_url} sent a malformed stats report"
            )
        report["backend"] = self.kind
        report["url"] = self.base_url
        report["session"] = self.session_stats()
        return report

    def clear(self) -> int:
        summary = self._admin("POST", "/clear")
        return int(summary.get("removed", 0)) if isinstance(summary, dict) else 0

    def prune(self, max_bytes: int) -> Dict[str, object]:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        body = json.dumps({"max_bytes": max_bytes}).encode("utf-8")
        summary = self._admin("POST", "/prune", body=body)
        if not isinstance(summary, dict):
            raise RemoteStoreError(
                f"store server {self.base_url} sent a malformed prune summary"
            )
        return summary

    def health(self) -> Dict[str, object]:
        """Liveness probe (raises :class:`RemoteStoreError` when down)."""
        report = self._admin("GET", "/health")
        return report if isinstance(report, dict) else {}
