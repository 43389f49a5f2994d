"""Tests for the service-facing CLI: ``spllift batch`` / ``spllift cache``
and the clean one-line error contract of every subcommand."""

import json

import pytest

from repro.cli import main
from repro.obs import runtime as obs
from repro.spl.examples import FIGURE1_SOURCE


@pytest.fixture
def manifest(tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(
        json.dumps(
            {
                "jobs": [
                    {
                        "source": FIGURE1_SOURCE,
                        "analysis": "taint",
                        "label": "fig1",
                    },
                    {
                        "source": FIGURE1_SOURCE,
                        "analysis": "uninit",
                        "label": "fig1",
                    },
                ]
            }
        )
    )
    return str(path)


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "store")


class TestBatch:
    def test_cold_then_warm(self, manifest, cache_dir, capsys):
        rc = main(
            ["batch", manifest, "--cache-dir", cache_dir, "--no-pool"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 computed" in out and "0 failed" in out
        rc = main(
            ["batch", manifest, "--cache-dir", cache_dir, "--no-pool"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 cached" in out and "0 computed" in out

    def test_report_file(self, manifest, cache_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "batch",
                manifest,
                "--cache-dir",
                cache_dir,
                "--no-pool",
                "--report",
                str(report_path),
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == "spllift-batch-report/v1"
        assert report["computed"] == 2
        assert all(row["result_digest"] for row in report["jobs"])

    def test_pooled_batch_matches_inline(self, manifest, tmp_path, capsys):
        cold = tmp_path / "pool.json"
        warm = tmp_path / "inline.json"
        assert (
            main(["batch", manifest, "--no-store", "--report", str(cold)])
            == 0
        )
        assert (
            main(
                [
                    "batch",
                    manifest,
                    "--no-store",
                    "--no-pool",
                    "--report",
                    str(warm),
                ]
            )
            == 0
        )
        capsys.readouterr()
        pooled = json.loads(cold.read_text())["jobs"]
        inline = json.loads(warm.read_text())["jobs"]
        assert [r["result_digest"] for r in pooled] == [
            r["result_digest"] for r in inline
        ]

    def test_metrics_count_the_jobs_that_parsed(self, manifest, tmp_path, capsys):
        """Both jobs analyze one source: the second shares the first's
        frontend."""
        obs.reset()
        metrics = tmp_path / "metrics.json"
        argv = ["batch", manifest, "--no-store", "--no-pool"]
        assert main(argv + ["--metrics", str(metrics)]) == 0
        counters = json.loads(metrics.read_text())["metrics"]["counters"]
        assert counters["worker.frontend_hits"] == 1
        assert counters["worker.frontend_misses"] == 1
        obs.reset()

    def test_timeout_the_pool_cannot_enforce_warns(
        self, manifest, monkeypatch, capsys
    ):
        """With no worker process, the jobs run in-process, where no
        deadline can stop them: the results stand, and one warning says
        how many jobs ran without the bound."""

        def no_context():
            raise OSError("processes forbidden")

        monkeypatch.setattr("repro.core.parallel._pool_context", no_context)
        assert main(["batch", manifest, "--no-store"]) == 0
        assert "warning" not in capsys.readouterr().err
        assert main(["batch", manifest, "--no-store", "--timeout", "0.001"]) == 0
        captured = capsys.readouterr()
        assert "2 computed" in captured.out and "0 failed" in captured.out
        assert [
            line
            for line in captured.err.splitlines()
            if line.startswith("spllift: warning:")
        ] == [
            "spllift: warning: 2 job(s) ran in-process without the "
            "--timeout 0.001s bound: no worker process could start"
        ]

    def test_failed_job_exits_nonzero(self, tmp_path, cache_dir, capsys):
        manifest = tmp_path / "bad.json"
        manifest.write_text(
            json.dumps(
                {"jobs": [{"source": "class Main {", "analysis": "taint"}]}
            )
        )
        rc = main(
            ["batch", str(manifest), "--cache-dir", cache_dir, "--no-pool"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "1 failed" in out

    def test_paper_campaign_manifest_parses(self):
        # The checked-in manifests must stay loadable (the CI smoke uses
        # them); parse only — running 12 jobs is the smoke's job.
        from pathlib import Path

        from repro.service import load_manifest

        manifests = Path(__file__).resolve().parent.parent / "benchmarks" / "manifests"
        jobs = load_manifest(str(manifests / "paper.json"))
        assert len(jobs) == 12
        smoke = load_manifest(str(manifests / "smoke.json"))
        assert 0 < len(smoke) <= 6


class TestCache:
    def test_stats_and_clear(self, manifest, cache_dir, capsys):
        main(["batch", manifest, "--cache-dir", cache_dir, "--no-pool"])
        capsys.readouterr()
        rc = main(["cache", "stats", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "records:    2" in out
        assert "corrupt:    0" in out
        assert "spllift-result/v2: 2" in out
        rc = main(["cache", "clear", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "removed 2 record(s)" in out
        rc = main(["cache", "stats", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert "records:    0" in out

    def test_stats_reports_corrupt_records(self, manifest, cache_dir, capsys):
        from pathlib import Path

        main(["batch", manifest, "--cache-dir", cache_dir, "--no-pool"])
        capsys.readouterr()
        victim = next((Path(cache_dir) / "objects").rglob("*.json"))
        victim.write_text("{broken json")
        rc = main(["cache", "stats", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "records:    2" in out
        assert "corrupt:    1" in out
        assert "spllift-result/v2: 1" in out

    def test_stats_reports_total_bytes(self, manifest, cache_dir, capsys):
        main(["batch", manifest, "--cache-dir", cache_dir, "--no-pool"])
        capsys.readouterr()
        rc = main(["cache", "stats", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert rc == 0
        (bytes_line,) = [l for l in out.splitlines() if l.startswith("bytes:")]
        assert int(bytes_line.split()[-1]) > 0

    def test_prune_to_zero_evicts_everything(self, manifest, cache_dir, capsys):
        main(["batch", manifest, "--cache-dir", cache_dir, "--no-pool"])
        capsys.readouterr()
        rc = main(["cache", "prune", "--cache-dir", cache_dir, "--max-bytes", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pruned 2 record(s)" in out
        assert "remaining: 0 record(s), 0 bytes" in out
        rc = main(["cache", "stats", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert "records:    0" in out

    def test_prune_under_budget_is_noop(self, manifest, cache_dir, capsys):
        main(["batch", manifest, "--cache-dir", cache_dir, "--no-pool"])
        capsys.readouterr()
        rc = main(
            ["cache", "prune", "--cache-dir", cache_dir, "--max-bytes", "99999999"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "pruned 0 record(s)" in out
        rc = main(["cache", "stats", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert "records:    2" in out

    def test_prune_without_max_bytes_is_error(self, cache_dir, capsys):
        rc = main(["cache", "prune", "--cache-dir", cache_dir])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("spllift: error: ")

    def test_stats_on_missing_dir_reports_zeros(self, tmp_path, capsys):
        rc = main(
            ["cache", "stats", "--cache-dir", str(tmp_path / "never-made")]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert "records:    0" in captured.out
        assert "bytes:      0" in captured.out
        # Asking for stats must not create the directory.
        assert not (tmp_path / "never-made").exists()

    def test_stats_on_file_path_is_one_line_error(self, tmp_path, capsys):
        not_a_dir = tmp_path / "plain-file"
        not_a_dir.write_text("hello")
        rc = main(["cache", "stats", "--cache-dir", str(not_a_dir)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("spllift: error: ")
        assert len(captured.err.strip().splitlines()) == 1


class TestBackendSpecs:
    """URL-style --cache-dir specs select the sqlite/HTTP backends."""

    def test_batch_and_stats_via_sqlite_spec(self, manifest, tmp_path, capsys):
        spec = f"sqlite://{tmp_path / 'store.db'}"
        rc = main(["batch", manifest, "--cache-dir", spec, "--no-pool"])
        assert rc == 0
        rc = main(["batch", manifest, "--cache-dir", spec, "--no-pool"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 cached" in out
        rc = main(["cache", "stats", "--cache-dir", spec])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend:    sqlite" in out
        assert "records:    2" in out

    def test_sqlite_stats_on_missing_file_reports_zeros(self, tmp_path, capsys):
        spec = f"sqlite://{tmp_path / 'missing.db'}"
        rc = main(["cache", "stats", "--cache-dir", spec])
        out = capsys.readouterr().out
        assert rc == 0
        assert "records:    0" in out
        assert not (tmp_path / "missing.db").exists()

    def test_corrupt_sqlite_file_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "broken.db"
        path.write_text("this is not a database")
        rc = main(["cache", "stats", "--cache-dir", f"sqlite://{path}"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("spllift: error: ")
        assert len(captured.err.strip().splitlines()) == 1

    def test_http_stats_with_dead_server_is_one_line_error(self, capsys):
        rc = main(["cache", "stats", "--cache-dir", "http://127.0.0.1:9"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("spllift: error: ")
        assert "Traceback" not in captured.err

    def test_serve_refuses_http_spec(self, capsys):
        rc = main(["serve", "--cache-dir", "http://127.0.0.1:9"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "cannot serve an http:// store" in captured.err

    def test_batch_against_served_store(self, manifest, tmp_path, capsys):
        import threading

        from repro.service import make_server, open_store

        backing = open_store(f"sqlite://{tmp_path / 'served.db'}")
        server = make_server(backing, port=0)
        host, port = server.server_address
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            spec = f"http://{host}:{port}"
            rc = main(["batch", manifest, "--cache-dir", spec, "--no-pool"])
            assert rc == 0
            rc = main(["batch", manifest, "--cache-dir", spec, "--no-pool"])
            out = capsys.readouterr().out
            assert rc == 0
            assert "2 cached" in out and "0 computed" in out
        finally:
            server.shutdown()
            thread.join(timeout=5)


class TestDagCli:
    def test_dag_manifest_runs_and_reports_waves(self, tmp_path, capsys):
        manifest = tmp_path / "dag.json"
        manifest.write_text(
            json.dumps(
                {
                    "jobs": [
                        {"id": "a", "source": FIGURE1_SOURCE,
                         "analysis": "taint"},
                        {"id": "b", "after": ["a"], "source": FIGURE1_SOURCE,
                         "analysis": "uninit"},
                    ]
                }
            )
        )
        rc = main(
            [
                "batch",
                str(manifest),
                "--cache-dir",
                str(tmp_path / "store"),
                "--no-pool",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 computed" in out
        assert "2 wave(s)" in out

    def test_cycle_is_one_line_error(self, tmp_path, capsys):
        manifest = tmp_path / "cycle.json"
        manifest.write_text(
            json.dumps(
                {
                    "jobs": [
                        {"id": "a", "after": ["b"], "source": FIGURE1_SOURCE,
                         "analysis": "taint"},
                        {"id": "b", "after": ["a"], "source": FIGURE1_SOURCE,
                         "analysis": "uninit"},
                    ]
                }
            )
        )
        rc = main(["batch", str(manifest)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("spllift: error: dependency cycle")
        assert len(captured.err.strip().splitlines()) == 1

    def test_unknown_dependency_id_is_one_line_error(self, tmp_path, capsys):
        manifest = tmp_path / "ghost.json"
        manifest.write_text(
            json.dumps(
                {
                    "jobs": [
                        {"id": "a", "after": ["ghost"],
                         "source": FIGURE1_SOURCE, "analysis": "taint"},
                    ]
                }
            )
        )
        rc = main(["batch", str(manifest)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown dependency id" in captured.err
        assert len(captured.err.strip().splitlines()) == 1


class TestCleanErrors:
    """Every user error: exit code 2, one ``spllift: error:`` line, no
    traceback."""

    def _check(self, capsys, rc):
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("spllift: error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        return captured

    def test_analyze_missing_file(self, capsys):
        rc = main(["analyze", "no-such-file.mj"])
        self._check(capsys, rc)

    def test_analyze_unparseable_source(self, tmp_path, capsys):
        path = tmp_path / "broken.mj"
        path.write_text("class Main { void main( {")
        rc = main(["analyze", str(path)])
        self._check(capsys, rc)

    def test_analyze_bad_feature_model(self, tmp_path, capsys):
        source = tmp_path / "ok.mj"
        source.write_text(FIGURE1_SOURCE)
        fm = tmp_path / "bad.fm"
        fm.write_text("root A {{{")
        rc = main(["analyze", str(source), "--feature-model", str(fm)])
        self._check(capsys, rc)

    @pytest.mark.parametrize(
        "source, extra",
        [
            ("class Main { void main() { int y = 1 @ 2; } }", []),
            # Identifiers and integers are ASCII, though str.isalpha and
            # str.isdigit accept these characters.
            ("class Main { void main() { int x = \u00b2; } }", []),
            ("class Main { void main() { int y = \u0663; } }", []),
            ("class Main { void main() { int \u00e9t\u00e9 = 1; } }", []),
            ("class Main { void main() { int y = zz; } }", []),
            (FIGURE1_SOURCE, ["--entry", "Nope.main"]),
        ],
        ids=[
            "lex",
            "non-ascii-digit",
            "arabic-indic-digit",
            "non-ascii-ident",
            "undeclared-local",
            "unknown-entry-class",
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["run"], ["metrics"], ["interfaces", "--feature", "F"]],
        ids=["analyze", "run", "metrics", "interfaces"],
    )
    def test_frontend_error(self, tmp_path, capsys, command, source, extra):
        path = tmp_path / "input.mj"
        path.write_text(source, encoding="utf-8")
        rc = main([*command, str(path), *extra])
        # No partial report on stdout: the error is the whole output.
        assert self._check(capsys, rc).out == ""

    def test_batch_missing_manifest(self, capsys):
        rc = main(["batch", "no-such-manifest.json"])
        self._check(capsys, rc)

    def test_batch_unparseable_manifest(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        rc = main(["batch", str(path)])
        self._check(capsys, rc)

    def test_batch_unknown_analysis(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {"jobs": [{"source": FIGURE1_SOURCE, "analysis": "astro"}]}
            )
        )
        rc = main(["batch", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("spllift: error: unknown analysis")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "options, named",
        [({"reorder": "sift"}, "reorder"), ({"worklist_order": "bogus"}, "bogus")],
        ids=["unknown-option", "bad-option-value"],
    )
    def test_batch_bad_job_option(self, tmp_path, capsys, options, named):
        """An option no solve reads, or a value it cannot take, fails
        the manifest before any of its jobs runs."""
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "jobs": [
                        {"source": FIGURE1_SOURCE, "analysis": "taint"},
                        {
                            "source": FIGURE1_SOURCE,
                            "analysis": "uninit",
                            "options": options,
                        },
                    ]
                }
            )
        )
        store = tmp_path / "store"
        rc = main(["batch", str(path), "--cache-dir", str(store)])
        captured = self._check(capsys, rc)
        assert named in captured.err
        assert captured.out == ""
        assert not store.exists()  # the store was never opened

    def _check_batch_option(self, capsys, manifest, tmp_path, *option):
        """A bad numeric option fails the batch before any job runs."""
        store = tmp_path / "store"
        rc = main(["batch", manifest, "--cache-dir", str(store), *option])
        captured = self._check(capsys, rc)
        assert option[0] in captured.err
        assert captured.out == ""
        assert not store.exists()  # the store was never opened
        return captured

    def test_batch_negative_retries(self, manifest, tmp_path, capsys):
        self._check_batch_option(capsys, manifest, tmp_path, "--retries", "-1")

    @pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf"])
    def test_batch_nonpositive_timeout(self, manifest, tmp_path, capsys, seconds):
        self._check_batch_option(
            capsys, manifest, tmp_path, "--timeout", seconds
        )

    def test_batch_timeout_without_pool(self, manifest, tmp_path, capsys):
        """An in-process job cannot be stopped, so ``--no-pool`` would
        run every job to the end whatever ``--timeout`` says."""
        captured = self._check_batch_option(
            capsys, manifest, tmp_path, "--timeout", "0.001", "--no-pool"
        )
        assert "--no-pool" in captured.err

    def test_batch_negative_jobs(self, manifest, tmp_path, capsys):
        captured = self._check_batch_option(
            capsys, manifest, tmp_path, "--jobs", "-3"
        )
        assert "-3" in captured.err
        # 0 still means one worker per CPU.
        assert main(["batch", manifest, "--no-store", "--no-pool", "--jobs", "0"]) == 0

    def test_serve_port_out_of_range(self, tmp_path, capsys):
        for port in ("70000", "-1"):
            rc = main(
                ["serve", "--cache-dir", str(tmp_path / "store"), "--port", port]
            )
            captured = self._check(capsys, rc)
            assert "--port" in captured.err and port in captured.err
        assert not (tmp_path / "store").exists()

    def test_run_missing_file(self, capsys):
        rc = main(["run", "no-such-file.mj"])
        self._check(capsys, rc)

    def test_metrics_missing_file(self, capsys):
        rc = main(["metrics", "no-such-file.mj"])
        self._check(capsys, rc)

    def test_interfaces_missing_file(self, capsys):
        rc = main(["interfaces", "no-such-file.mj", "--feature", "F"])
        self._check(capsys, rc)

    #: Bytes that are not UTF-8 (a UTF-16 byte-order mark).
    NOT_UTF8 = b"\xff\xfe"

    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["run"], ["metrics"], ["interfaces", "--feature", "F"]],
        ids=["analyze", "run", "metrics", "interfaces"],
    )
    def test_non_utf8_source(self, tmp_path, capsys, command):
        path = tmp_path / "input.mj"
        path.write_bytes(self.NOT_UTF8 + FIGURE1_SOURCE.encode("utf-8"))
        rc = main([*command, str(path)])
        captured = self._check(capsys, rc)
        assert str(path) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["run"], ["metrics"], ["interfaces", "--feature", "F"]],
        ids=["analyze", "run", "metrics", "interfaces"],
    )
    def test_non_utf8_feature_model(self, tmp_path, capsys, command):
        source = tmp_path / "ok.mj"
        source.write_text(FIGURE1_SOURCE)
        model = tmp_path / "model.fm"
        model.write_bytes(self.NOT_UTF8 + b"featuremodel m root R { }\n")
        rc = main([*command, str(source), "--feature-model", str(model)])
        captured = self._check(capsys, rc)
        assert str(model) in captured.err
        assert captured.out == ""

    def test_batch_non_utf8_manifest(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_bytes(self.NOT_UTF8 + b'{"campaign": "paper"}')
        rc = main(["batch", str(path), "--no-store"])
        assert str(path) in self._check(capsys, rc).err

    def test_batch_non_utf8_source_file(self, tmp_path, capsys):
        source = tmp_path / "input.mj"
        source.write_bytes(self.NOT_UTF8 + FIGURE1_SOURCE.encode("utf-8"))
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"jobs": [{"file": "input.mj", "analysis": "taint"}]})
        )
        rc = main(["batch", str(path), "--no-store"])
        captured = self._check(capsys, rc)
        assert str(source) in captured.err
        assert captured.out == ""

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
