"""Tests for the pluggable store backends (sqlite, HTTP) and open_store.

The concurrency tests run two real ``BatchScheduler`` processes against
one shared backend — one sqlite file, one served HTTP store — and
assert nothing corrupts and a follow-up run is served 100% warm.
"""

import json
import multiprocessing
import sqlite3
import threading

import pytest

from repro.service import (
    AnalysisJob,
    HttpStore,
    RemoteStoreError,
    ResultStore,
    SqliteStore,
    StoreBackend,
    make_server,
    open_store,
    run_batch,
)
from repro.service.backends.base import encode_record
from repro.spl.examples import FIGURE1_SOURCE

DIGEST = "ab" * 32


def _record(digest=DIGEST, **extra):
    record = {
        "schema": "spllift-result/v2",
        "digest": digest,
        "constraints": ["!F & G & !H"],
        "lines": ["Main.main:4|print(y);|y|0"],
    }
    record.update(extra)
    return record


def _job(analysis="taint", **kwargs):
    kwargs.setdefault("label", "fig1")
    kwargs.setdefault("source", FIGURE1_SOURCE)
    return AnalysisJob(analysis=analysis, **kwargs)


@pytest.fixture
def sqlite_store(tmp_path):
    return SqliteStore(tmp_path / "store.db")


@pytest.fixture
def served(tmp_path):
    """A served sqlite store: yields (client, server, backing store)."""
    backing = SqliteStore(tmp_path / "served.db")
    server = make_server(backing, port=0)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield HttpStore(f"http://{host}:{port}"), server, backing
    finally:
        server.shutdown()
        thread.join(timeout=5)


class TestOpenStore:
    def test_none_is_default_dir_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SPLLIFT_CACHE_DIR", str(tmp_path / "d"))
        store = open_store(None)
        assert isinstance(store, ResultStore)

    def test_path_spec(self, tmp_path):
        store = open_store(str(tmp_path / "cache"))
        assert isinstance(store, ResultStore)
        assert store.kind == "dir"

    def test_sqlite_spec(self, tmp_path):
        store = open_store(f"sqlite://{tmp_path / 'f.db'}")
        assert isinstance(store, SqliteStore)
        assert store.kind == "sqlite"

    def test_http_spec(self):
        store = open_store("http://127.0.0.1:9")
        assert isinstance(store, HttpStore)
        assert store.kind == "http"

    def test_all_backends_satisfy_protocol(self, tmp_path):
        for store in (
            ResultStore(tmp_path / "d"),
            SqliteStore(tmp_path / "f.db"),
            HttpStore("http://127.0.0.1:9"),
        ):
            assert isinstance(store, StoreBackend)


class TestSqliteRoundTrip:
    def test_put_then_get(self, sqlite_store):
        sqlite_store.put(_record())
        assert sqlite_store.contains(DIGEST)
        assert sqlite_store.get(DIGEST) == _record()

    def test_miss_on_absent(self, sqlite_store):
        assert sqlite_store.get(DIGEST) is None
        assert not sqlite_store.contains(DIGEST)

    def test_get_on_missing_file_does_not_create_it(self, sqlite_store):
        assert sqlite_store.get(DIGEST) is None
        assert not sqlite_store.path.exists()

    def test_put_overwrites(self, sqlite_store):
        sqlite_store.put(_record(facts=1))
        sqlite_store.put(_record(facts=2))
        assert sqlite_store.get(DIGEST)["facts"] == 2

    def test_put_requires_digest(self, sqlite_store):
        with pytest.raises(ValueError, match="digest"):
            sqlite_store.put({"schema": "spllift-result/v2"})

    def test_mis_keyed_record_is_a_miss(self, sqlite_store):
        """A row whose payload digest disagrees with its key fails open."""
        sqlite_store.put(_record())
        connection = sqlite_store._connect()
        connection.execute(
            "UPDATE records SET payload = ? WHERE digest = ?",
            (json.dumps(_record(digest="cd" * 32)), DIGEST),
        )
        connection.commit()
        assert sqlite_store.get(DIGEST) is None

    def test_corrupt_database_file_fails_open_on_reads(self, tmp_path):
        path = tmp_path / "broken.db"
        path.write_text("this is not a database")
        store = SqliteStore(path)
        assert store.get(DIGEST) is None
        assert not store.contains(DIGEST)

    def test_corrupt_database_file_surfaces_on_stats(self, tmp_path):
        path = tmp_path / "broken.db"
        path.write_text("this is not a database")
        with pytest.raises(sqlite3.Error):
            SqliteStore(path).stats()


class TestSqliteMaintenance:
    def test_stats_zeros_on_missing_file(self, sqlite_store):
        stats = sqlite_store.stats()
        assert stats["records"] == 0
        assert stats["bytes"] == 0
        assert stats["corrupt"] == 0
        assert stats["backend"] == "sqlite"
        assert not sqlite_store.path.exists()

    def test_stats_counts_by_kind(self, sqlite_store):
        sqlite_store.put(_record())
        sqlite_store.put(_record(digest="cd" * 32, schema="other/v1"))
        stats = sqlite_store.stats()
        assert stats["records"] == 2
        assert stats["bytes"] > 0
        assert stats["kinds"] == {"spllift-result/v2": 1, "other/v1": 1}

    def test_clear(self, sqlite_store):
        sqlite_store.put(_record())
        sqlite_store.put(_record(digest="cd" * 32))
        assert sqlite_store.clear() == 2
        assert sqlite_store.stats()["records"] == 0
        assert sqlite_store.clear() == 0

    def test_prune_evicts_least_recently_used(self, sqlite_store):
        digests = [f"{i:02x}" * 32 for i in range(4)]
        for digest in digests:
            sqlite_store.put(_record(digest=digest))
        # Reading the two oldest-written records makes them the *newest*
        # used — sqlite's last_used clock ranks by real use.
        sqlite_store.get(digests[0])
        sqlite_store.get(digests[1])
        before = sqlite_store.stats()["bytes"]
        summary = sqlite_store.prune(max_bytes=before // 2)
        assert summary["removed"] == 2
        assert not sqlite_store.contains(digests[2])
        assert not sqlite_store.contains(digests[3])
        assert sqlite_store.contains(digests[0])
        assert sqlite_store.contains(digests[1])

    def test_prune_negative_budget_rejected(self, sqlite_store):
        with pytest.raises(ValueError, match="max_bytes"):
            sqlite_store.prune(max_bytes=-1)

    def test_prune_zeros_on_missing_file(self, sqlite_store):
        summary = sqlite_store.prune(max_bytes=0)
        assert summary == {
            "removed": 0,
            "freed_bytes": 0,
            "remaining_bytes": 0,
            "remaining_records": 0,
        }


class TestHttpRoundTrip:
    def test_put_then_get(self, served):
        client, _, backing = served
        client.put(_record())
        assert client.contains(DIGEST)
        assert client.get(DIGEST) == _record()
        assert backing.contains(DIGEST)  # landed in the served store

    def test_miss_on_absent(self, served):
        client, _, _ = served
        assert client.get(DIGEST) is None
        assert not client.contains(DIGEST)

    def test_server_rejects_mis_keyed_put(self, served):
        client, _, backing = served
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            client._request(
                "PUT",
                f"/objects/{'cd' * 32}",
                body=json.dumps(_record()).encode(),
            )
        assert excinfo.value.code == 400
        assert not backing.contains("cd" * 32)

    def test_stats_and_health(self, served):
        client, _, _ = served
        client.put(_record())
        stats = client.stats()
        assert stats["records"] == 1
        assert stats["backend"] == "http"
        assert stats["url"].startswith("http://")
        assert client.health()["ok"] is True

    def test_clear_and_prune(self, served):
        client, _, _ = served
        client.put(_record())
        client.put(_record(digest="cd" * 32))
        summary = client.prune(max_bytes=0)
        assert summary["removed"] == 2
        client.put(_record())
        assert client.clear() == 1


class TestRecordEncoding:
    """Every backend writes a record as its ``encode_record`` text."""

    RECORD = _record(stats={"b": 1, "a": [1, 2]}, facts=3)

    def test_directory_file_equals_sqlite_payload(self, tmp_path, sqlite_store):
        path = ResultStore(tmp_path / "dir").put(self.RECORD)
        sqlite_store.put(self.RECORD)
        with sqlite3.connect(sqlite_store.path) as connection:
            (payload,) = connection.execute(
                "SELECT payload FROM records"
            ).fetchone()
        assert path.read_text() == encode_record(self.RECORD) == payload
        assert payload == json.dumps(
            self.RECORD, sort_keys=True, separators=(",", ":")
        )

    def test_http_put_body(self, served):
        client, _, _ = served
        bodies = []
        request = client._request

        def spy(method, path, body=None):
            bodies.append(body)
            return request(method, path, body=body)

        client._request = spy
        client.put(self.RECORD)
        assert bodies == [encode_record(self.RECORD).encode("utf-8")]

    def test_indented_directory_file_is_still_served(self, tmp_path):
        store = ResultStore(tmp_path / "dir")
        path = store.path_for(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(self.RECORD, sort_keys=True, indent=1))
        assert store.get(DIGEST) == self.RECORD


class TestHttpFailOpen:
    def test_dead_server_reads_are_misses(self):
        from repro.obs import runtime as obs

        client = HttpStore("http://127.0.0.1:9", timeout=0.5)
        before = obs.metrics().counters.get("store.remote_errors", 0)
        assert client.get(DIGEST) is None
        assert not client.contains(DIGEST)
        client.put(_record())  # dropped, not raised
        after = obs.metrics().counters.get("store.remote_errors", 0)
        assert after >= before + 3

    def test_dead_server_admin_ops_raise(self):
        client = HttpStore("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(RemoteStoreError):
            client.stats()
        with pytest.raises(RemoteStoreError):
            client.health()

    def test_remote_store_error_is_oserror(self):
        # The CLI maps OSError to a one-line message; RemoteStoreError
        # must ride that path.
        assert issubclass(RemoteStoreError, OSError)


def _fleet_worker(spec, analyses, queue):
    """One scheduler process of the fleet (module-level: must pickle)."""
    jobs = [_job(analysis=analysis) for analysis in analyses]
    report = run_batch(jobs, store=open_store(spec), use_pool=False)
    queue.put(
        {
            "failed": report.failed,
            "digests": [o.result_digest for o in report.outcomes],
        }
    )


class TestConcurrentSchedulers:
    ANALYSES = ("taint", "uninit", "rd")

    def _run_fleet(self, spec):
        context = multiprocessing.get_context("spawn")
        queue = context.Queue()
        workers = [
            context.Process(
                target=_fleet_worker, args=(spec, self.ANALYSES, queue)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        results = [queue.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=30)
        return results

    def _assert_fleet_ok(self, spec, results):
        for result in results:
            assert result["failed"] == 0
        # Both schedulers computed (or were served) identical results.
        assert results[0]["digests"] == results[1]["digests"]
        # No corrupt records: every stored record round-trips and is
        # keyed by its own digest.
        store = open_store(spec)
        jobs = [_job(analysis=analysis) for analysis in self.ANALYSES]
        for job in jobs:
            record = store.get(job.digest)
            assert record is not None
            assert record["digest"] == job.digest
        # A third run is served 100% from the shared store.
        warm = run_batch(jobs, store=store, use_pool=False)
        assert warm.cached == len(jobs)
        assert warm.computed == 0

    def test_two_schedulers_one_sqlite_file(self, tmp_path):
        spec = f"sqlite://{tmp_path / 'fleet.db'}"
        self._assert_fleet_ok(spec, self._run_fleet(spec))

    def test_two_schedulers_one_served_store(self, served):
        client, server, _ = served
        spec = client.base_url
        self._assert_fleet_ok(spec, self._run_fleet(spec))
