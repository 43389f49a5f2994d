"""Tests for the counter-drift CI gate: ``spllift obs diff``, which CI
runs as ``python -m repro.cli obs diff BASELINE CURRENT ...``."""

import contextlib
import io
import json
from pathlib import Path
from types import SimpleNamespace

from repro.cli import main


def snapshot(path: Path, counters=None, gauges=None, histograms=None):
    path.write_text(
        json.dumps(
            {
                "schema": "spllift-metrics/v1",
                "metrics": {
                    "counters": counters or {},
                    "gauges": gauges or {},
                    "histograms": histograms or {},
                },
            }
        )
    )
    return path


def run(*argv):
    """``spllift obs diff`` on ``argv``: its exit status and output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        returncode = main(["obs", "diff", *map(str, argv)])
    return SimpleNamespace(
        returncode=returncode, stdout=stdout.getvalue(), stderr=stderr.getvalue()
    )


class TestCompareMetrics:
    def test_identical_snapshots_pass(self, tmp_path):
        base = snapshot(tmp_path / "a.json", counters={"ide.jumps": 100})
        cur = snapshot(tmp_path / "b.json", counters={"ide.jumps": 100})
        result = run(base, cur)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK" in result.stdout

    def test_injected_drift_fails(self, tmp_path):
        """The CI self-test: a 50% counter blowup must exit nonzero."""
        base = snapshot(
            tmp_path / "a.json",
            counters={"ide.jumps": 1000, "bdd.apply_cache_misses": 400},
        )
        cur = snapshot(
            tmp_path / "b.json",
            counters={"ide.jumps": 1500, "bdd.apply_cache_misses": 400},
        )
        result = run(base, cur, "--threshold", "0.1")
        assert result.returncode == 1
        assert "ide.jumps" in result.stdout
        assert "DRIFT" in result.stdout

    def test_drift_within_threshold_passes(self, tmp_path):
        base = snapshot(tmp_path / "a.json", counters={"ide.jumps": 1000})
        cur = snapshot(tmp_path / "b.json", counters={"ide.jumps": 1049})
        assert run(base, cur, "--threshold", "0.05").returncode == 0

    def test_large_drop_also_fails(self, tmp_path):
        """A silent work drop is as suspicious as a blowup."""
        base = snapshot(tmp_path / "a.json", counters={"ide.jumps": 1000})
        cur = snapshot(tmp_path / "b.json", counters={"ide.jumps": 100})
        assert run(base, cur).returncode == 1

    def test_per_counter_threshold_override(self, tmp_path):
        base = snapshot(
            tmp_path / "a.json",
            counters={"bdd.apply_calls": 100, "ide.jumps": 100},
        )
        cur = snapshot(
            tmp_path / "b.json",
            counters={"bdd.apply_calls": 140, "ide.jumps": 100},
        )
        # 40% over a 10% default fails...
        assert run(base, cur).returncode == 1
        # ...but a bdd.* override admits it without loosening ide.jumps.
        result = run(base, cur, "--threshold-for", "bdd.*=0.5")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_most_specific_override_wins(self, tmp_path):
        base = snapshot(tmp_path / "a.json", counters={"bdd.apply_calls": 100})
        cur = snapshot(tmp_path / "b.json", counters={"bdd.apply_calls": 140})
        result = run(
            base,
            cur,
            "--threshold-for",
            "bdd.*=0.5",
            "--threshold-for",
            "bdd.apply_calls=0.1",
        )
        assert result.returncode == 1

    def test_missing_key_fails_unless_allowed(self, tmp_path):
        base = snapshot(tmp_path / "a.json", counters={"ide.jumps": 10})
        cur = snapshot(tmp_path / "b.json", counters={})
        assert run(base, cur).returncode == 1
        assert run(base, cur, "--allow-missing").returncode == 0

    def test_missing_key_named_in_diff(self, tmp_path):
        """A one-sided counter must be named, not skipped or crashed on."""
        base = snapshot(
            tmp_path / "a.json",
            counters={"ide.jumps": 10, "datalog.rules_fired": 7},
        )
        cur = snapshot(tmp_path / "b.json", counters={"ide.jumps": 10})
        result = run(base, cur)
        assert result.returncode == 1
        assert "datalog.rules_fired: missing from current" in result.stdout
        assert "MISSING" in result.stdout
        assert "1 missing" in result.stdout

    def test_missing_key_printed_under_quiet(self, tmp_path):
        """--quiet must still surface what failed the gate."""
        base = snapshot(tmp_path / "a.json", counters={"datalog.iterations": 3})
        cur = snapshot(tmp_path / "b.json", counters={})
        result = run(base, cur, "--quiet")
        assert result.returncode == 1
        assert "datalog.iterations: missing from current" in result.stdout

    def test_missing_from_baseline_also_reported(self, tmp_path):
        base = snapshot(tmp_path / "a.json", counters={})
        cur = snapshot(tmp_path / "b.json", counters={"datalog.strata": 1})
        result = run(base, cur)
        assert result.returncode == 1
        assert "datalog.strata: missing from baseline" in result.stdout

    def test_allow_missing_not_marked_as_violation(self, tmp_path):
        base = snapshot(tmp_path / "a.json", counters={"ide.jumps": 10})
        cur = snapshot(tmp_path / "b.json", counters={})
        result = run(base, cur, "--allow-missing")
        assert result.returncode == 0
        assert "OK" in result.stdout
        assert "MISSING" not in result.stdout  # reported, not flagged

    def test_only_and_ignore_filters(self, tmp_path):
        base = snapshot(
            tmp_path / "a.json",
            counters={"ide.jumps": 100, "noise.value": 1},
        )
        cur = snapshot(
            tmp_path / "b.json",
            counters={"ide.jumps": 100, "noise.value": 99},
        )
        assert run(base, cur).returncode == 1
        assert run(base, cur, "--only", "ide.*").returncode == 0
        assert run(base, cur, "--ignore", "noise.*").returncode == 0

    def test_gauges_and_histograms_compared(self, tmp_path):
        base = snapshot(
            tmp_path / "a.json",
            gauges={"bdd.unique_load_factor": 0.5},
            histograms={"span.solve": {"count": 4, "mean": 1.0}},
        )
        cur = snapshot(
            tmp_path / "b.json",
            gauges={"bdd.unique_load_factor": 0.95},
            histograms={"span.solve": {"count": 4, "mean": 2.0}},
        )
        result = run(base, cur)
        assert result.returncode == 1
        assert "bdd.unique_load_factor" in result.stdout
        # Histogram means are derived, not gated; counts are.
        assert "span.solve.count" in result.stdout

    def test_malformed_input_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = snapshot(tmp_path / "good.json", counters={})
        result = run(bad, good)
        assert result.returncode == 2
        assert result.stderr.startswith("spllift: error: ")
        assert len(result.stderr.strip().splitlines()) == 1

    def test_real_snapshot_roundtrip(self, tmp_path):
        """A snapshot produced by the live registry gates against itself."""
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("ide.jumps", 42)
        registry.gauge("bdd.unique_load_factor", 0.25)
        registry.observe("solve.seconds", 1.5)
        document = {
            "schema": "spllift-metrics/v1",
            "metrics": registry.describe(),
        }
        path = tmp_path / "live.json"
        path.write_text(json.dumps(document))
        assert run(path, path).returncode == 0
