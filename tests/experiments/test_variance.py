"""Tests for the iteration-order variance experiment."""

import pytest

from repro.analyses import TaintAnalysis, UninitializedVariablesAnalysis
from repro.experiments.variance import render_variance, run_variance
from repro.ide import IDESolver
from repro.ide.binary import ifds_as_ide
from repro.ifds import IFDSSolver
from repro.spl import device_spl, figure1, gpl_like


class TestWorklistOrders:
    def test_invalid_order_rejected(self):
        problem = ifds_as_ide(TaintAnalysis(figure1().icfg))
        with pytest.raises(ValueError):
            IDESolver(problem, worklist_order="sideways")

    @pytest.mark.parametrize("order", ["fifo", "lifo", "random"])
    def test_orders_reach_same_fixed_point(self, order):
        product_line = figure1()
        problem = TaintAnalysis(product_line.icfg)
        reference = IFDSSolver(problem).solve()
        ide_results = IDESolver(
            ifds_as_ide(problem), worklist_order=order, order_seed=7
        ).solve()
        for stmt in product_line.icfg.reachable_instructions():
            assert reference.at(stmt) == frozenset(ide_results.results_at(stmt))

    def test_random_orders_deterministic_per_seed(self):
        product_line = figure1()
        problem = ifds_as_ide(TaintAnalysis(product_line.icfg))
        first = IDESolver(problem, worklist_order="random", order_seed=3)
        first.solve()
        second = IDESolver(problem, worklist_order="random", order_seed=3)
        second.solve()
        assert first.stats == second.stats


class TestVarianceReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_variance(
            device_spl(), UninitializedVariablesAnalysis, random_orders=5
        )

    def test_results_identical_across_orders(self, report):
        """The solver's fixed point is order-independent — the paper's
        premise ("IDE computes the same result independently of iteration
        order")."""
        assert report.results_identical

    def test_work_varies(self):
        """...but the amount of work differs ("some orders may compute the
        result faster, computing fewer flow functions").  device's orders
        all do the same work, so the subject is GPL-like."""
        report = run_variance(
            gpl_like(), UninitializedVariablesAnalysis, random_orders=2
        )
        assert [run.order for run in report.runs] == [
            "fifo", "lifo", "rpo", "random:0", "random:1"
        ]
        assert report.results_identical
        assert report.work_spread > 1
        work = {run.order: run.flow_applications for run in report.runs}
        assert work["rpo"] == min(work.values())

    def test_render(self, report):
        text = render_variance([report])
        assert "variance" in text.lower()
        assert "yes" in text


class TestScaling:
    def test_scaling_curve(self):
        from repro.analyses import UninitializedVariablesAnalysis
        from repro.experiments.scaling import render_scaling, run_scaling

        points = run_scaling(
            UninitializedVariablesAnalysis, feature_counts=(2, 4, 6)
        )
        assert [p.features for p in points] == [2, 4, 6]
        assert [p.valid_configurations for p in points] == [4, 16, 64]
        # A2's total grows with the configuration count; SPLLIFT does not
        # grow anywhere near proportionally.
        assert points[-1].a2_total_seconds > points[0].a2_total_seconds
        text = render_scaling(points)
        assert "speedup" in text
