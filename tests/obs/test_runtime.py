"""Tests for the process-global obs runtime, the heartbeat and the
compat stats view."""

import gc
import io
import json
import os

from repro.analyses import TaintAnalysis, UninitializedVariablesAnalysis
from repro.cli import main
from repro.core import SPLLift
from repro.ide import IDESolver
from repro.ide.binary import ifds_as_ide
from repro.ifds import IFDSSolver
from repro.obs import runtime as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.trace import Tracer
from repro.spl import figure1, figure1_with_model
from repro.spl.benchmarks import gpl_like
from repro.spl.examples import FIGURE1_SOURCE
from repro.utils import collector


class TestRuntimeState:
    def test_defaults(self):
        assert isinstance(obs.metrics(), MetricsRegistry)
        assert isinstance(obs.tracer(), Tracer)
        assert obs.progress() is None
        assert not obs.tracer().enabled

    def test_enable_tracing_is_idempotent(self):
        first = obs.enable_tracing()
        second = obs.enable_tracing()
        assert first is second
        assert obs.tracer().enabled
        assert os.environ[obs.TELEMETRY_ENV] == "1"
        assert obs.run_id()  # minted for trace labels and workers
        obs.disable_tracing()
        assert not obs.tracer().enabled
        assert obs.TELEMETRY_ENV not in os.environ

    def test_run_id_minted_once_and_inherited(self):
        assert obs.run_id() is None
        minted = obs.ensure_run_id()
        assert obs.ensure_run_id() == minted
        assert os.environ[obs.RUN_ID_ENV] == minted
        assert obs.run_id() == minted
        assert len(minted) == 16

    def test_publish_stats_skips_non_counters(self):
        obs.publish_stats(
            "x", {"n": 3, "flag": True, "order": "rpo", "rate": 0.5}
        )
        assert obs.metrics().counter_value("x.n") == 3
        assert obs.metrics().counters == {"x.n": 3}

    def test_activate_worker_installs_fresh_state(self):
        obs.metrics().inc("parent_only", 7)
        obs.activate_worker()
        assert obs.metrics().counter_value("parent_only") == 0
        assert not obs.tracer().enabled

    def test_activate_worker_respects_telemetry_env(self):
        obs.enable_tracing()
        with obs.tracer().span("parent"):
            pass
        obs.activate_worker()  # simulates the post-fork child
        assert obs.tracer().enabled
        assert obs.tracer().events() == []  # parent's buffer not inherited

    def test_worker_payload_roundtrip(self):
        obs.enable_tracing()
        obs.activate_worker()
        obs.metrics().inc("pool.tasks_completed")
        with obs.tracer().span("pool/task"):
            pass
        payload = obs.worker_payload()
        obs.reset()
        obs.enable_tracing()
        obs.absorb_payload(payload)
        assert obs.metrics().counter_value("pool.tasks_completed") == 1
        assert [e["name"] for e in obs.tracer().events()] == [
            "pool/task",
            "pool/task",
        ]
        obs.absorb_payload(None)  # tolerated: crashed worker, old protocol
        assert obs.metrics().counter_value("pool.tasks_completed") == 1


class TestCollectorTally:
    """One ``gc.callbacks`` hook tallies collector work per process;
    ``write_outputs`` and ``worker_payload`` fold the tally into the
    registry as four ``gc.*`` counters.  The tests zero the tally and
    force collections with the collector paused, so no automatic one
    adds to the count."""

    KEYS = (
        "gc.collections.gen0",
        "gc.collections.gen1",
        "gc.collections.gen2",
        "gc.seconds",
    )

    @staticmethod
    def _report(tmp_path):
        path = tmp_path / "metrics.json"
        obs.write_outputs(metrics_path=str(path), stream=io.StringIO())
        return json.loads(path.read_text())["metrics"]["counters"]

    def test_analyze_metrics_report_all_four_keys(self, tmp_path, capsys):
        source = tmp_path / "fig1.mj"
        source.write_text(FIGURE1_SOURCE)
        path = tmp_path / "metrics.json"
        main(["analyze", str(source), "--analysis", "taint", "--metrics", str(path)])
        counters = json.loads(path.read_text())["metrics"]["counters"]
        assert set(self.KEYS) <= set(counters)

    def test_forced_collection_adds_one_gen2(self, tmp_path):
        with collector.paused():
            obs.reset()
            gc.collect()
            counters = self._report(tmp_path)
        assert counters["gc.collections.gen2"] == 1
        assert counters["gc.collections.gen0"] == 0
        assert counters["gc.collections.gen1"] == 0
        assert counters["gc.seconds"] > 0.0

    def test_folding_twice_counts_once(self, tmp_path):
        with collector.paused():
            obs.reset()
            gc.collect()
            obs.worker_payload()
            counters = self._report(tmp_path)
        assert counters["gc.collections.gen2"] == 1

    def test_parent_report_sums_its_workers(self, tmp_path):
        with collector.paused():
            obs.reset()  # the worker's fresh state
            gc.collect()
            payload = obs.worker_payload()
            obs.reset()  # the parent's fresh state
            obs.absorb_payload(payload)
            gc.collect()
            counters = self._report(tmp_path)
        worker = payload["metrics"]["counters"]
        assert worker["gc.collections.gen2"] == 1
        assert counters["gc.collections.gen2"] == 2
        assert counters["gc.seconds"] > worker["gc.seconds"] > 0.0

    def test_reset_and_activate_worker_zero_the_tally(self, tmp_path):
        with collector.paused():
            gc.collect()
            obs.reset()
            after_reset = self._report(tmp_path)
            gc.collect()
            obs.activate_worker()
            in_worker = self._report(tmp_path)
        for counters in (after_reset, in_worker):
            assert counters["gc.collections.gen2"] == 0
            assert counters["gc.seconds"] == 0.0


class TestHeartbeat:
    """``obs.pulse`` is the one heartbeat of the worklist loops and the
    batch scheduler: a ring event always, a progress tick when a
    reporter is attached."""

    @staticmethod
    def _pulses(name):
        return [
            e["pops"]
            for e in obs.flight().events()
            if e["kind"] == "pulse" and e["name"] == name
        ]

    def test_pulse_without_progress_records_the_ring(self):
        obs.pulse("phase", worklist=3)
        (event,) = obs.flight().events()
        assert (event["kind"], event["name"], event["worklist"]) == (
            "pulse", "phase", 3,
        )

    def test_pulse_ticks_an_attached_reporter(self):
        stream = io.StringIO()
        obs.set_progress(ProgressReporter(stream=stream, interval=0.0))
        obs.pulse("phase", worklist=3)
        assert obs.progress().updates == 1
        assert "phase | worklist 3" in stream.getvalue()
        assert [e["kind"] for e in obs.flight().events()] == ["pulse"]

    def test_ifds_solve_pulses_every_256_pops(self):
        solver = IFDSSolver(UninitializedVariablesAnalysis(gpl_like().icfg))
        solver.solve()
        pulses = self._pulses("ifds/tabulation")
        assert solver.stats["path_edges"] >= 512
        assert pulses == [256 * k for k in range(1, len(pulses) + 1)]
        assert len(pulses) >= 2

    def test_progress_draws_from_ide_and_ifds_loops(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, interval=0.0)
        obs.set_progress(reporter)
        product_line = gpl_like()
        SPLLift(
            UninitializedVariablesAnalysis(product_line.icfg),
            feature_model=product_line.feature_model,
        ).solve()
        lifted = reporter.updates
        assert lifted == len(self._pulses("ide/phase1")) > 0
        assert "bdd_nodes" in stream.getvalue()  # SPLLift's extra hook
        IFDSSolver(UninitializedVariablesAnalysis(product_line.icfg)).solve()
        assert reporter.updates - lifted == len(
            self._pulses("ifds/tabulation")
        ) > 0
        assert "ifds/tabulation | pops 256" in stream.getvalue()


class TestCompatStatsView:
    """The ISSUE 5 gate: legacy ``stats`` dicts stay authoritative and
    the registry mirrors them exactly."""

    def test_ide_solver_stats_mirrored_as_counters(self):
        solver = IDESolver(ifds_as_ide(TaintAnalysis(figure1().icfg)))
        solver.solve()
        registry = obs.metrics()
        mirrored = 0
        for name, value in solver.stats.items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            assert registry.counter_value(f"ide.solver.{name}") == value
            mirrored += 1
        assert mirrored >= 4  # jump_functions, flow_applications, ...
        assert "jump_functions" in solver.stats  # legacy keys still there

    def test_ifds_solver_stats_mirrored_as_counters(self):
        solver = IFDSSolver(TaintAnalysis(figure1().icfg))
        solver.solve()
        registry = obs.metrics()
        for name, value in solver.stats.items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            assert registry.counter_value(f"ifds.solver.{name}") == value

    def test_registry_accumulates_across_solves(self):
        problem = ifds_as_ide(TaintAnalysis(figure1().icfg))
        first = IDESolver(problem)
        first.solve()
        second = IDESolver(ifds_as_ide(TaintAnalysis(figure1().icfg)))
        second.solve()
        total = obs.metrics().counter_value("ide.solver.jump_functions")
        assert total == (
            first.stats["jump_functions"] + second.stats["jump_functions"]
        )

    def test_spllift_solve_publishes_bdd_gauges(self):
        product_line = figure1_with_model()
        SPLLift(
            UninitializedVariablesAnalysis(product_line.icfg),
            feature_model=product_line.feature_model,
        ).solve()
        gauges = obs.metrics().gauges
        assert any(name.startswith("bdd.") for name in gauges)


class TestSolverTracing:
    def test_sequential_solve_emits_phase_spans(self):
        obs.enable_tracing()
        product_line = figure1_with_model()
        SPLLift(
            UninitializedVariablesAnalysis(product_line.icfg),
            feature_model=product_line.feature_model,
        ).solve()
        names = {e["name"] for e in obs.tracer().events()}
        assert {
            "spllift/solve",
            "ide/solve",
            "ide/phase1/tabulation",
            "ide/phase2/values",
            "ide/phase2/i",
            "ide/phase2/ii",
        } <= names

    def test_datalog_solve_runs_the_ide_value_phase(self):
        """The Datalog engine replaces phase I only: the IDE solver's
        phase II spans open inside its values span."""
        obs.enable_tracing()
        product_line = figure1_with_model()
        SPLLift(
            UninitializedVariablesAnalysis(product_line.icfg),
            feature_model=product_line.feature_model,
        ).solve(engine="datalog")
        events = [(e["name"], e["ph"]) for e in obs.tracer().events()]
        begin = events.index(("datalog/values", "B"))
        end = events.index(("datalog/values", "E"))
        for phase in ("ide/phase2/i", "ide/phase2/ii"):
            assert (phase, "B") in events[begin:end]
            assert (phase, "E") in events[begin:end]

    def test_untraced_solve_buffers_nothing(self):
        product_line = figure1_with_model()
        SPLLift(
            UninitializedVariablesAnalysis(product_line.icfg),
            feature_model=product_line.feature_model,
        ).solve()
        assert obs.tracer().events() == []
