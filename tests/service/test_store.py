"""Tests for the content-addressed on-disk result store."""

import json

import pytest

from repro.service import ResultStore, default_cache_dir

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


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestRoundTrip:
    def test_put_then_get(self, store):
        store.put(_record())
        assert store.contains(DIGEST)
        assert store.get(DIGEST) == _record()

    def test_miss_on_absent(self, store):
        assert store.get(DIGEST) is None
        assert not store.contains(DIGEST)

    def test_sharded_layout(self, store):
        path = store.put(_record())
        assert path == store.path_for(DIGEST)
        assert path.parent.name == DIGEST[:2]
        assert path.name == f"{DIGEST}.json"

    def test_put_overwrites(self, store):
        store.put(_record(facts=1))
        store.put(_record(facts=2))
        assert store.get(DIGEST)["facts"] == 2

    def test_no_leftover_temp_files(self, store):
        store.put(_record())
        leftovers = [
            p for p in store.path_for(DIGEST).parent.iterdir()
            if p.suffix == ".tmp"
        ]
        assert leftovers == []


class TestFailOpen:
    def test_corrupt_record_is_a_miss(self, store):
        path = store.put(_record())
        path.write_text("{definitely not json")
        assert store.get(DIGEST) is None

    def test_mis_keyed_record_is_a_miss(self, store):
        path = store.put(_record())
        path.write_text(json.dumps(_record(digest="cd" * 32)))
        assert store.get(DIGEST) is None

    def test_non_object_record_is_a_miss(self, store):
        path = store.put(_record())
        path.write_text('["a", "list"]')
        assert store.get(DIGEST) is None

    def test_put_requires_digest(self, store):
        with pytest.raises(ValueError, match="digest"):
            store.put({"schema": "spllift-result/v2"})


class TestMaintenance:
    def test_stats_empty(self, store):
        stats = store.stats()
        assert stats["records"] == 0
        assert stats["bytes"] == 0
        assert stats["kinds"] == {}
        assert stats["corrupt"] == 0

    def test_stats_counts_by_kind(self, store):
        store.put(_record())
        store.put(_record(digest="cd" * 32, schema="other/v1"))
        stats = store.stats()
        assert stats["records"] == 2
        assert stats["bytes"] > 0
        assert stats["kinds"] == {"spllift-result/v2": 1, "other/v1": 1}
        assert stats["corrupt"] == 0

    def test_stats_counts_agree_on_corrupt_records(self, store):
        """The single-pass regression: ``records`` counts every file and
        ``kinds``/``corrupt`` partition it, even with corrupt records
        (the old double-walk let the two passes disagree)."""
        store.put(_record())
        store.put(_record(digest="cd" * 32, schema="other/v1"))
        store.put(_record(digest="ef" * 32)).write_text("{broken json")
        store.put(_record(digest="12" * 32)).write_text('["not", "a", "dict"]')
        stats = store.stats()
        assert stats["records"] == 4
        assert stats["corrupt"] == 2
        assert stats["kinds"] == {"spllift-result/v2": 1, "other/v1": 1}
        assert stats["records"] == sum(stats["kinds"].values()) + stats["corrupt"]

    def test_iter_records_skips_corrupt(self, store):
        store.put(_record())
        path = store.put(_record(digest="cd" * 32))
        path.write_text("{broken")
        records = list(store.iter_records())
        assert len(records) == 1
        assert records[0]["digest"] == DIGEST

    def test_clear(self, store):
        store.put(_record())
        store.put(_record(digest="cd" * 32))
        assert store.clear() == 2
        assert store.stats()["records"] == 0
        assert store.clear() == 0


class TestPrune:
    def _fill(self, store, count):
        """Insert ``count`` records with strictly increasing use times."""
        import os

        paths = []
        for i in range(count):
            digest = f"{i:02x}" * 32
            path = store.put(_record(digest=digest))
            stamp = 1_000_000 + i * 100
            os.utime(path, (stamp, stamp))
            paths.append((digest, path))
        return paths

    def test_noop_under_budget(self, store):
        self._fill(store, 3)
        before = store.stats()
        summary = store.prune(max_bytes=before["bytes"])
        assert summary["removed"] == 0
        assert summary["freed_bytes"] == 0
        assert store.stats()["records"] == 3

    def test_evicts_least_recently_used_first(self, store):
        paths = self._fill(store, 6)
        sizes = [p.stat().st_size for _, p in paths]
        budget = sum(sizes[3:])  # room for exactly the 3 newest
        summary = store.prune(max_bytes=budget)
        assert summary["removed"] == 3
        for digest, _ in paths[:3]:
            assert not store.contains(digest)
        for digest, _ in paths[3:]:
            assert store.contains(digest)

    def test_prune_to_zero_removes_everything(self, store):
        self._fill(store, 4)
        summary = store.prune(max_bytes=0)
        assert summary["removed"] == 4
        assert summary["remaining_bytes"] == 0
        assert summary["remaining_records"] == 0
        assert store.stats()["records"] == 0

    def test_empty_shards_are_removed(self, store):
        paths = self._fill(store, 2)
        store.prune(max_bytes=0)
        for _, path in paths:
            assert not path.parent.exists()

    def test_idempotent(self, store):
        self._fill(store, 4)
        budget = store.stats()["bytes"] // 2
        store.prune(max_bytes=budget)
        summary = store.prune(max_bytes=budget)
        assert summary["removed"] == 0

    def test_negative_budget_rejected(self, store):
        with pytest.raises(ValueError, match="max_bytes"):
            store.prune(max_bytes=-1)

    def test_summary_accounting(self, store):
        self._fill(store, 5)
        before = store.stats()["bytes"]
        summary = store.prune(max_bytes=before // 3)
        assert summary["freed_bytes"] + summary["remaining_bytes"] == before
        assert summary["remaining_records"] == store.stats()["records"]
        assert summary["remaining_bytes"] <= before // 3

    def test_prune_on_empty_store(self, store):
        summary = store.prune(max_bytes=0)
        assert summary == {
            "removed": 0,
            "freed_bytes": 0,
            "remaining_bytes": 0,
            "remaining_records": 0,
        }

    def test_mtime_clock_on_noatime_mounts(self, store):
        """On a noatime mount reads never advance atime, so every record
        shows a stale constant atime; LRU must fall back to mtime for
        *all* entries instead of mixing the two clocks per file."""
        import os

        paths = []
        for i in range(4):
            digest = f"{i:02x}" * 32
            path = store.put(_record(digest=digest))
            os.utime(path, (500_000, 1_000_000 + i * 100))
            paths.append((digest, path))
        sizes = [p.stat().st_size for _, p in paths]
        summary = store.prune(max_bytes=sum(sizes[2:]))
        assert summary["removed"] == 2
        for digest, _ in paths[:2]:
            assert not store.contains(digest)
        for digest, _ in paths[2:]:
            assert store.contains(digest)

    def test_atime_clock_when_reads_are_tracked(self, store):
        """When atimes demonstrably advance past mtimes, reads are the
        LRU clock — even where it disagrees with write order."""
        import os

        paths = []
        for i in range(4):
            digest = f"{i:02x}" * 32
            path = store.put(_record(digest=digest))
            # Write clock runs backwards; read clock runs forwards.
            mtime = 1_000_000 - i * 100
            atime = 2_000_000 + i * 100
            os.utime(path, (atime, mtime))
            paths.append((digest, path))
        sizes = [p.stat().st_size for _, p in paths]
        summary = store.prune(max_bytes=sum(sizes[2:]))
        assert summary["removed"] == 2
        # Least-recently-*read* evicted first, despite newest mtimes.
        for digest, _ in paths[:2]:
            assert not store.contains(digest)
        for digest, _ in paths[2:]:
            assert store.contains(digest)


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SPLLIFT_CACHE_DIR", str(tmp_path / "here"))
        assert default_cache_dir() == tmp_path / "here"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("SPLLIFT_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "spllift"
