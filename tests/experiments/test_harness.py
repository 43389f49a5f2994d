"""Tests for the experiment harness (protocol mechanics, not timings)."""

import pytest

from repro.analyses import TaintAnalysis, UninitializedVariablesAnalysis
from repro.experiments.harness import measure_call_graph, run_a2_campaign
from repro.service.worker import solve_product_line
from repro.spl import device_spl, figure1


class TestRunSPLLift:
    """The experiments run SPLLIFT through the service's one lifted pass."""

    def test_returns_time_and_results(self):
        _, results = solve_product_line(figure1(), TaintAnalysis)
        assert results.solve_seconds > 0
        assert results.stats["jump_functions"] > 0

    def test_fm_modes(self):
        product_line = device_spl()
        for fm_mode in ("edge", "seed", "ignore"):
            _, results = solve_product_line(
                product_line, UninitializedVariablesAnalysis, fm_mode
            )
            assert results.solve_seconds > 0


class TestA2Campaign:
    def test_full_enumeration(self):
        campaign = run_a2_campaign(figure1(), TaintAnalysis, cutoff_seconds=120)
        assert not campaign.estimated
        assert campaign.configurations_run == campaign.valid_configurations == 8
        assert campaign.total_seconds == campaign.measured_seconds > 0

    def test_cutoff_triggers_estimation(self):
        campaign = run_a2_campaign(figure1(), TaintAnalysis, cutoff_seconds=0.0)
        assert campaign.estimated
        assert campaign.configurations_run < campaign.valid_configurations
        assert campaign.estimated_total_seconds > 0
        # Estimate follows the paper: anchor average × #valid configs.
        assert campaign.estimated_total_seconds == pytest.approx(
            campaign.per_configuration_seconds * campaign.valid_configurations
        )

    def test_stats_recorded(self):
        campaign = run_a2_campaign(figure1(), TaintAnalysis, cutoff_seconds=120)
        assert campaign.stats_full["path_edges"] > 0


class TestCallGraphTiming:
    def test_measures_fresh_build(self):
        assert measure_call_graph(figure1()) > 0
