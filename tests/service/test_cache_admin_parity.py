"""Admin-op parity for stores holding mixed record kinds.

``spllift cache stats/prune/clear`` must behave identically whether the
spec names a directory store, a ``sqlite://`` file or a served
``http://`` endpoint — and must treat summary records
(``spllift-summary/v1``) as first-class citizens: counted by kind,
pruned and cleared together with result records.
"""

import hashlib
import threading

import pytest

from repro.analyses import PossibleTypesAnalysis
from repro.cli import main
from repro.core import SPLLift
from repro.ide.summaries import SUMMARY_SCHEMA, summary_cache_for
from repro.service import make_server, open_store
from repro.spl import device_spl


def _fake_result_record():
    payload = "parity-test-result"
    return {
        "schema": "spllift-result/v2",
        "digest": hashlib.sha256(payload.encode()).hexdigest(),
        "subject": "parity-test",
        "constraints": [],
        "lines": [],
    }


def _populate(spec):
    """One result record plus real summary records from a tiny solve."""
    store = open_store(spec)
    store.put(_fake_result_record())
    product_line = device_spl()
    spllift = SPLLift(
        PossibleTypesAnalysis(product_line.icfg),
        feature_model=product_line.feature_model,
    )
    spllift.solve(summaries=summary_cache_for(spllift, store))
    return store


@pytest.fixture(params=["dir", "sqlite", "http"])
def spec(request, tmp_path):
    if request.param == "dir":
        yield str(tmp_path / "cache")
        return
    if request.param == "sqlite":
        yield f"sqlite://{tmp_path / 'cache.db'}"
        return
    backing = open_store(f"sqlite://{tmp_path / 'served.db'}")
    server = make_server(backing, port=0)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        thread.join(timeout=5)


class TestAdminParity:
    def test_stats_counts_summary_kind(self, spec, capsys):
        _populate(spec)
        assert main(["cache", "stats", "--cache-dir", spec]) == 0
        out = capsys.readouterr().out
        assert "spllift-result/v2: 1" in out
        kind_line = next(
            line for line in out.splitlines() if SUMMARY_SCHEMA in line
        )
        count = int(kind_line.rsplit(":", 1)[1])
        assert count > 0

    def test_clear_removes_all_kinds(self, spec, capsys):
        store = _populate(spec)
        before = store.stats()["records"]
        assert before > 1  # result + at least one summary

        assert main(["cache", "clear", "--cache-dir", spec]) == 0
        out = capsys.readouterr().out
        assert f"removed {before} record(s)" in out

        assert main(["cache", "stats", "--cache-dir", spec]) == 0
        out = capsys.readouterr().out
        assert "records:    0" in out

    def test_prune_to_zero_evicts_all_kinds(self, spec, capsys):
        _populate(spec)
        assert (
            main(
                ["cache", "prune", "--cache-dir", spec, "--max-bytes", "0"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "remaining: 0 record(s), 0 bytes" in out

    def test_prune_under_budget_keeps_summaries(self, spec, capsys):
        store = _populate(spec)
        before = store.stats()["records"]
        assert (
            main(
                [
                    "cache",
                    "prune",
                    "--cache-dir",
                    spec,
                    "--max-bytes",
                    "99999999",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"remaining: {before} record(s)" in out

    def test_warm_reuse_survives_generous_prune(self, spec):
        """Pruning under budget must leave the summaries usable — a warm
        solve afterwards still reuses (the end-to-end admin contract)."""
        store = _populate(spec)
        assert (
            main(
                [
                    "cache",
                    "prune",
                    "--cache-dir",
                    spec,
                    "--max-bytes",
                    "99999999",
                ]
            )
            == 0
        )
        product_line = device_spl()
        spllift = SPLLift(
            PossibleTypesAnalysis(product_line.icfg),
            feature_model=product_line.feature_model,
        )
        warm = spllift.solve(summaries=summary_cache_for(spllift, store))
        assert warm.stats["summaries_reused"] > 0
        assert warm.stats["summaries_invalidated"] == 0
