"""The collector policy (repro.utils.collector): the cyclic garbage
collector is paused for each fixed point, batch job and ``spllift
analyze``, a finished lone job's program dies young, and no program of
an inline batch outlives the batch."""

import gc
import weakref
from contextlib import contextmanager
from itertools import islice

import pytest

import repro.service.worker
import repro.spl.product_line
from repro.analyses import PossibleTypesAnalysis, TaintAnalysis
from repro.baselines import solve_a2
from repro.baselines.a2 import measure_a2
from repro.cli import main
from repro.core import SPLLift
from repro.featuremodel import render_feature_model
from repro.ifds.flowfunctions import FlowFunction
from repro.service import execute_job, paper_campaign_jobs, run_batch
from repro.spl import figure1, figure1_with_model
from repro.spl.benchmarks import gpl_like
from repro.utils import collector


@pytest.fixture(autouse=True)
def collector_on():
    """Each test starts with the collector on, and leaves it as found."""
    was_on = gc.isenabled()
    gc.enable()
    yield
    if not was_on:
        gc.disable()


class TestPaused:
    def test_on_is_off_inside_and_on_after(self):
        with collector.paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_on_comes_back_when_the_block_raises(self):
        with pytest.raises(RuntimeError):
            with collector.paused():
                assert not gc.isenabled()
                raise RuntimeError("unit failed")
        assert gc.isenabled()

    def test_off_stays_off(self):
        gc.disable()
        with collector.paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_stays_off_until_the_outermost_exits(self):
        with collector.paused():
            with collector.paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


@contextmanager
def _collections(starts):
    """Append the generation of every collection that starts in the
    block to ``starts``."""

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        yield
    finally:
        gc.callbacks.remove(count)


class _Recording(FlowFunction):
    """A flow function that records whether the collector was on each
    time the solver applied it."""

    def __init__(self, inner, seen):
        self.inner = inner
        self.seen = seen

    def compute_targets(self, fact):
        self.seen.append(gc.isenabled())
        return self.inner.compute_targets(fact)


class _RecordingTaint(TaintAnalysis):
    def __init__(self, icfg):
        super().__init__(icfg)
        self.seen = []

    def normal_flow(self, stmt, succ):
        return _Recording(super().normal_flow(stmt, succ), self.seen)


class TestFixedPoints:
    def test_a2_solve_runs_paused(self):
        analysis = _RecordingTaint(figure1().icfg)
        solve_a2(analysis, {"G"})
        assert analysis.seen and not any(analysis.seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("run", [solve_a2, measure_a2])
    def test_a2_tables_die_with_the_solver_uncollected(self, run):
        """Leaving the pause starts no collection, so a solver's tables
        die with the solver instead of being walked by a young
        collection first.  Without the pause these 20 runs started 78
        collections; with a pause whose exit allocates, or one around
        the solve alone in ``measure_a2``, one per run."""
        product_line = gpl_like()
        analysis = PossibleTypesAnalysis(product_line.icfg)
        configurations = list(islice(product_line.valid_configurations(), 20))
        starts = []
        gc.collect()
        with _collections(starts):
            for configuration in configurations:
                run(analysis, configuration)
        assert len(starts) < len(configurations) // 4

    def test_lifted_solve_starts_no_collection(self):
        """``SPLLift.solve`` is one unit: the IDE solver dies inside it,
        so building the results after the fixed point starts no young
        collection over the solver's tables."""
        product_line = gpl_like()
        starts, solving = [], [False]

        def count(phase, info):
            if phase == "start" and solving[0]:
                starts.append(info["generation"])

        gc.callbacks.append(count)
        try:
            for _ in range(3):
                lift = SPLLift(
                    PossibleTypesAnalysis(product_line.icfg),
                    feature_model=product_line.feature_model,
                )
                gc.collect()
                solving[0] = True
                lift.solve()
                solving[0] = False
        finally:
            gc.callbacks.remove(count)
        assert starts == []

    @pytest.mark.parametrize("engine", ["tabulate", "datalog"])
    def test_lifted_solve_runs_paused(self, engine):
        product_line = figure1_with_model()
        analysis = _RecordingTaint(product_line.icfg)
        SPLLift(analysis, feature_model=product_line.feature_model).solve(
            engine=engine
        )
        assert analysis.seen and not any(analysis.seen)
        assert gc.isenabled()


@pytest.fixture
def lowered_methods(monkeypatch):
    """Weak references to the methods of every program lowered from now
    on (the job's or the command's own)."""
    refs = []
    lower = repro.spl.product_line.lower_program

    def spy(ast):
        program = lower(ast)
        refs.extend(
            weakref.ref(method)
            for ir_class in program.classes.values()
            for method in ir_class.methods.values()
        )
        return program

    monkeypatch.setattr(repro.spl.product_line, "lower_program", spy)
    return refs


def _alive(refs):
    return sum(ref() is not None for ref in refs)


class TestUnitsDieYoung:
    """Without the pause, collections inside the unit promote its program
    to an older generation, and every one of its methods outlives a young
    collection after the unit."""

    @pytest.mark.parametrize(
        "subject, analysis",
        [("GPL-like", "possible_types"), ("MM08-like", "uninitialized_variables")],
    )
    def test_job_program_dies_in_one_young_collection(
        self, lowered_methods, subject, analysis
    ):
        (job,) = paper_campaign_jobs(subjects=(subject,), analyses=(analysis,))
        execute_job(job)
        assert lowered_methods
        gc.collect(0)
        assert _alive(lowered_methods) == 0

    def test_analyze_program_dies_in_one_young_collection(
        self, lowered_methods, tmp_path, capsys
    ):
        product_line = gpl_like()
        source = tmp_path / "gpl.mj"
        source.write_text(product_line.source)
        model = tmp_path / "gpl.fm"
        model.write_text(render_feature_model(product_line.feature_model))
        del product_line
        argv = ["analyze", str(source), "--feature-model", str(model)]
        assert main(argv + ["--analysis", "types"]) == 1
        assert lowered_methods
        gc.collect(0)
        assert _alive(lowered_methods) == 0
        assert gc.isenabled()


class TestBatchPrograms:
    """An inline batch keeps one program, the last job's, between its
    jobs: a job with another source releases it, and so does the end of
    the batch."""

    @pytest.fixture
    def jobs(self):
        return paper_campaign_jobs(
            subjects=("GPL-like", "MM08-like"),
            analyses=("possible_types", "uninitialized_variables"),
        )

    def test_another_source_releases_the_previous_program(
        self, lowered_methods, jobs, monkeypatch
    ):
        alive_at_parse = []
        parse = repro.spl.product_line.parse_program

        def spy(source):
            gc.collect()
            alive_at_parse.append(_alive(lowered_methods))
            return parse(source)

        monkeypatch.setattr(repro.spl.product_line, "parse_program", spy)
        report = run_batch(jobs, store=None, use_pool=False)
        assert report.failed == 0
        assert alive_at_parse == [0, 0]

    @pytest.mark.parametrize("failing", [None, 1, 3])
    def test_no_program_outlives_its_batch(
        self, lowered_methods, jobs, monkeypatch, failing
    ):
        """Also when a job raises with its program in the slot."""
        build = repro.service.worker.build_record

        def build_or_fail(job, results, solve_seconds):
            if failing is not None and job is jobs[failing]:
                raise RuntimeError("record failed")
            return build(job, results, solve_seconds)

        monkeypatch.setattr(repro.service.worker, "build_record", build_or_fail)
        report = run_batch(jobs, store=None, use_pool=False)
        assert report.failed == (failing is not None)
        assert lowered_methods
        gc.collect()
        assert _alive(lowered_methods) == 0
