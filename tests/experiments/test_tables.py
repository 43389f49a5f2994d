"""Smoke tests for the table generators, on tiny subjects."""

import pytest

from repro.analyses import TaintAnalysis, UninitializedVariablesAnalysis
from repro.experiments import (
    correlation,
    render_qualitative,
    render_table1,
    render_table2,
    render_table3,
    run_qualitative,
    run_table1,
    run_table2,
    run_table3,
)
from repro.spl import device_spl, figure1

TINY_SUBJECTS = (("figure1", figure1), ("device", device_spl))
TINY_ANALYSES = (
    ("Taint", TaintAnalysis),
    ("Uninitialized Variables", UninitializedVariablesAnalysis),
)


class TestTable1:
    def test_rows(self):
        rows = run_table1(TINY_SUBJECTS)
        assert [r.benchmark for r in rows] == ["figure1", "device"]
        fig1 = rows[0]
        assert fig1.features_reachable == 3
        assert fig1.configurations_reachable == 8
        assert fig1.configurations_valid == 8

    def test_render(self):
        text = render_table1(run_table1(TINY_SUBJECTS))
        assert "Table 1" in text
        assert "figure1" in text
        assert "KLOC" in text


class TestTable2:
    def test_rows(self):
        rows = run_table2(TINY_SUBJECTS, TINY_ANALYSES, cutoff_seconds=30)
        assert len(rows) == 2
        for row in rows:
            assert len(row.cells) == 2
            for cell in row.cells:
                assert cell.spllift_seconds > 0
                assert cell.a2.total_seconds > 0
                assert not cell.a2.estimated  # tiny subjects finish

    def test_speedup_defined(self):
        rows = run_table2(TINY_SUBJECTS, TINY_ANALYSES, cutoff_seconds=30)
        for row in rows:
            for cell in row.cells:
                assert cell.speedup > 0

    def test_render(self):
        rows = run_table2(TINY_SUBJECTS, TINY_ANALYSES, cutoff_seconds=30)
        text = render_table2(rows)
        assert "Table 2" in text


class TestTable3:
    def test_rows_and_render(self):
        rows = run_table3(TINY_SUBJECTS, TINY_ANALYSES)
        assert len(rows) == 2
        for row in rows:
            for cell in row.cells:
                assert cell.regarded_seconds > 0
                assert cell.ignored_seconds > 0
                assert cell.a2_average_seconds > 0
        assert "Table 3" in render_table3(rows)

    def test_job_dying_in_the_pool_is_rerun_in_the_parent(self, monkeypatch):
        """Every SPLLIFT job's pool worker dies on each attempt (the
        ``_test_crash_always`` hook, inert in-process); the parent re-runs
        the failed jobs and the table still fills every cell."""
        import dataclasses

        from repro.experiments import table3

        build = table3.spllift_job

        def crashing_job(*args, **kwargs):
            job = build(*args, **kwargs)
            options = {**job.options, "_test_crash_always": True}
            return dataclasses.replace(job, options=options)

        monkeypatch.setattr(table3, "spllift_job", crashing_job)
        rows = run_table3(TINY_SUBJECTS, TINY_ANALYSES, parallel=2)
        assert [len(row.cells) for row in rows] == [2, 2]
        for row in rows:
            for cell in row.cells:
                assert cell.regarded_seconds > 0
                assert cell.ignored_seconds > 0
                assert cell.a2_average_seconds > 0


class TestQualitative:
    def test_rows_and_render(self):
        rows = run_qualitative(TINY_SUBJECTS, TINY_ANALYSES)
        assert len(rows) == 4
        for row in rows:
            assert row.spllift_edges > 0
            assert row.a2_full_edges > 0
        assert "correlation" in render_qualitative(rows).lower()

    def test_correlation_function(self):
        assert correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert correlation([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)
        assert correlation([1, 1, 1], [1, 2, 3]) == 0.0
        with pytest.raises(ValueError):
            correlation([1], [1])


class TestCLI:
    def test_main_table1(self, capsys):
        import repro.experiments.__main__ as cli
        from repro.experiments import table1 as t1

        # run against the tiny subjects by monkey-patching the default
        original = t1.run_table1
        try:
            t1_rows = original(TINY_SUBJECTS)
            assert t1_rows
        finally:
            pass
        assert cli.main(["table1"]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
