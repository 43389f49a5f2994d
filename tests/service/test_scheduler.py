"""Tests for the batch scheduler: warm path, pool, crashes, timeouts.

The fault-injection hooks (``_test_crash_marker``, ``_test_crash_always``,
``_test_sleep``) only fire inside pool worker processes (gated on the
``SPLLIFT_WORKER`` env var), so the kill-mid-job tests here exercise the
real crash/retry machinery with real SIGKILLed processes.
"""

import time
from pathlib import Path

import pytest

import repro.spl.product_line
from repro.obs import runtime as obs
from repro.service import (
    AnalysisJob,
    BatchScheduler,
    ResultStore,
    canonical_feature_model_text,
    execute_job,
    expand_lines,
    load_manifest,
    paper_campaign_jobs,
    run_batch,
)
from repro.service.store import RESULT_SCHEMA
from repro.spl.examples import FIGURE1_SOURCE, figure1_with_model

BROKEN_SOURCE = "class Main { void main() { this does not parse } }"

SMOKE_MANIFEST = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "manifests" / "smoke.json"
)


def _job(analysis="taint", **kwargs):
    kwargs.setdefault("label", "fig1")
    kwargs.setdefault("source", FIGURE1_SOURCE)
    return AnalysisJob(analysis=analysis, **kwargs)


class TestWarmPath:
    def test_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cold = run_batch([_job()], store=store, use_pool=False)
        assert cold.computed == 1 and cold.failed == 0
        warm = run_batch([_job()], store=store, use_pool=False)
        assert warm.cached == 1 and warm.computed == 0
        assert warm.outcomes[0].executor == "store"
        assert (
            cold.outcomes[0].result_digest == warm.outcomes[0].result_digest
        )

    def test_v1_record_is_recomputed_and_replaced(self, tmp_path):
        job = _job(analysis="reaching_definitions")
        (fresh,) = run_batch([job], store=None, use_pool=False).outcomes
        # The record an earlier version stored: every line in full.
        v1 = {
            "schema": "spllift-result/v1",
            "digest": job.digest,
            "job": job.describe(),
            "result_digest": fresh.result_digest,
            "lines": list(expand_lines(fresh.record)),
            "facts": fresh.record["facts"],
            "stats": {},
            "solve_seconds": 0.0,
        }
        store = ResultStore(tmp_path / "store")
        store.put(v1)
        report = run_batch([job], store=store, use_pool=False)
        assert report.cached == 0 and report.computed == 1
        assert report.describe()["jobs"][0]["status"] == "computed"
        stored = store.get(job.digest)
        assert stored["schema"] == RESULT_SCHEMA == "spllift-result/v2"
        assert stored["result_digest"] == v1["result_digest"]
        assert report.outcomes[0].result_digest == v1["result_digest"]
        assert list(expand_lines(stored)) == v1["lines"]
        warm = run_batch([job], store=store, use_pool=False)
        assert warm.cached == 1

    def test_record_of_another_schema_is_a_store_miss(self, tmp_path):
        """The warm path asks the store for a ``RESULT_SCHEMA`` record;
        one of another schema is a miss in the store's own counters."""
        job = _job()
        (fresh,) = run_batch([job], store=None, use_pool=False).outcomes
        store = ResultStore(tmp_path / "store")
        store.put({**fresh.record, "schema": "spllift-result/v1"})
        obs.reset()
        report = run_batch([job], store=store, use_pool=False)
        assert (report.computed, report.cached) == (1, 0)
        metrics = obs.metrics()
        assert metrics.counter_value("store.get_hits") == 0
        assert metrics.counter_value("store.get_misses") == 1
        assert store.stats()["session"]["hit_ratio"] == 0.0

    def test_no_store_always_computes(self):
        for _ in range(2):
            report = run_batch([_job()], store=None, use_pool=False)
            assert report.computed == 1

    def test_different_jobs_do_not_alias(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_batch([_job()], store=store, use_pool=False)
        other = run_batch(
            [_job(analysis="uninit")], store=store, use_pool=False
        )
        assert other.computed == 1  # different digest: not served warm

    def test_report_shape(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        report = run_batch([_job()], store=store, use_pool=False)
        document = report.describe()
        assert document["schema"] == "spllift-batch-report/v1"
        assert document["computed"] == 1
        (row,) = document["jobs"]
        assert row["status"] == "computed"
        assert row["result_digest"]
        assert row["digest"] == _job().digest


class TestPoolEquivalence:
    def test_pool_matches_inline_digest(self, tmp_path):
        jobs = [_job(), _job(analysis="uninit")]
        pooled = run_batch(jobs, store=None, use_pool=True)
        assert pooled.failed == 0
        assert {o.executor for o in pooled.outcomes} <= {"pool", "inline"}
        for outcome, job in zip(pooled.outcomes, jobs):
            record = execute_job(job)
            assert outcome.result_digest == record["result_digest"]

    def test_pool_populates_store_for_warm_runs(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        jobs = [_job()]
        cold = run_batch(jobs, store=store, use_pool=True)
        assert cold.failed == 0
        warm = run_batch(jobs, store=store, use_pool=True)
        assert warm.cached == 1
        assert (
            cold.outcomes[0].result_digest == warm.outcomes[0].result_digest
        )


class TestFailureHandling:
    def test_worker_error_is_terminal_not_a_crash(self):
        report = run_batch(
            [_job(source=BROKEN_SOURCE)], store=None, use_pool=True
        )
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 1  # deterministic failure: no retry
        assert "ParseError" in outcome.error

    def test_inline_errors_are_isolated_per_job(self):
        report = run_batch(
            [_job(source=BROKEN_SOURCE), _job()], store=None, use_pool=False
        )
        first, second = report.outcomes
        assert first.status == "failed" and "ParseError" in first.error
        assert second.status == "computed"
        assert not report.ok

    def test_killed_worker_is_retried(self, tmp_path):
        marker = tmp_path / "crashed-once"
        job = _job(options={"_test_crash_marker": str(marker)})
        report = run_batch([job], store=None, use_pool=True, max_retries=1)
        outcome = report.outcomes[0]
        assert marker.exists()  # the first attempt really died
        assert outcome.status == "computed"
        assert outcome.attempts == 2
        assert outcome.result_digest == execute_job(_job())["result_digest"]

    def test_exhausted_retries_fail_the_job_not_the_batch(self):
        jobs = [_job(options={"_test_crash_always": True}), _job()]
        report = run_batch(jobs, store=None, use_pool=True, max_retries=1)
        doomed, healthy = report.outcomes
        assert doomed.status == "failed"
        assert doomed.attempts == 2  # initial + 1 retry
        assert "worker crashed" in doomed.error
        assert healthy.status == "computed"
        assert not report.ok

    def test_timeout_is_terminal(self):
        job = _job(options={"_test_sleep": 30})
        report = run_batch(
            [job], store=None, use_pool=True, job_timeout=0.5, max_retries=3
        )
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 1
        assert "timed out" in outcome.error

    def test_crash_hooks_inert_inline(self, tmp_path):
        # A worker hook must never kill the calling process.
        marker = tmp_path / "never-created"
        job = _job(
            options={"_test_crash_marker": str(marker), "_test_crash_always": True}
        )
        report = run_batch([job], store=None, use_pool=False)
        assert report.outcomes[0].status == "computed"
        assert not marker.exists()

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            BatchScheduler(max_retries=-1)

    def test_crash_with_zero_retries_fails_after_one_attempt(self):
        job = _job(options={"_test_crash_always": True})
        report = run_batch([job], store=None, use_pool=True, max_retries=0)
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 1  # no retry budget at all
        assert "worker crashed" in outcome.error


class TestEngineLabel:
    """The flight ring's job note and the ``job.start`` event name the
    engine the job solves on; only the job's ``engine`` option picks it."""

    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.reset()
        yield
        obs.reset()

    @staticmethod
    def _labels():
        events = obs.flight().events()
        return (
            [e["engine"] for e in events if e["kind"] == "job"],
            [e["engine"] for e in events if e["name"] == "job.start"],
        )

    def test_job_option_wins_over_environment(self, monkeypatch):
        # The variable once chose the engine of a job that names none.
        monkeypatch.setenv("SPLLIFT_ENGINE", "datalog")
        report = run_batch(
            [_job(), _job(options={"engine": "datalog"})], None, use_pool=False
        )
        assert [o.status for o in report.outcomes] == ["computed"] * 2
        assert self._labels() == (
            ["tabulate", "datalog"],
            ["tabulate", "datalog"],
        )

    def test_stored_record_names_the_job_engine(self, tmp_path, monkeypatch):
        """A record is stored under its job digest, which names no
        engine when the job sets none: the environment must not slip a
        datalog-solved record in under it."""
        monkeypatch.setenv("SPLLIFT_ENGINE", "datalog")
        store = ResultStore(tmp_path / "store")
        report = run_batch([_job()], store, use_pool=False)
        record = store.get(report.outcomes[0].job.digest)
        assert "engine" not in record["stats"]  # tabulation stats
        assert "jump_functions" in record["stats"]


class TestDefaultOrder:
    def test_stored_record_solves_rpo(self, tmp_path):
        """A job that names no order solves phase I in rpo, the IDE
        default, as ``spllift analyze`` does."""
        store = ResultStore(tmp_path / "store")
        report = run_batch([_job()], store, use_pool=False)
        record = store.get(report.outcomes[0].job.digest)
        assert record["stats"]["worklist_order"] == "rpo"


class TestWorkerReporting:
    def test_degraded_inline_reports_one_worker(self, monkeypatch):
        """The workers-reporting regression: a batch whose pool could not
        start must report the parallelism actually achieved (1, inline),
        not the configured maximum."""

        def no_context():
            raise OSError("processes forbidden")

        monkeypatch.setattr("repro.core.parallel._pool_context", no_context)
        report = run_batch(
            [_job(), _job(analysis="uninit")],
            store=None,
            use_pool=True,
            max_workers=8,
        )
        assert report.failed == 0
        assert report.workers == 1
        assert report.executors == {"inline": 2}
        document = report.describe()
        assert document["workers"] == 1
        assert document["executors"] == {"inline": 2}
        assert all(row["executor"] == "inline" for row in document["jobs"])

    def test_all_cached_batch_reports_zero_workers(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_batch([_job()], store=store, use_pool=False)
        warm = run_batch([_job()], store=store, use_pool=True, max_workers=8)
        assert warm.cached == 1
        assert warm.workers == 0
        assert warm.executors == {"store": 1}

    def test_pool_batch_reports_achieved_workers(self):
        report = run_batch(
            [_job(), _job(analysis="uninit")], store=None, use_pool=True
        )
        if any(o.executor == "pool" for o in report.outcomes):
            assert 1 <= report.workers <= 2
        else:  # start-method unavailable: degraded inline
            assert report.workers == 1
        assert sum(report.executors.values()) == 2

    def test_wait_loop_does_not_busy_wait(self):
        """The busy-wait regression: while a worker sleeps, the parent
        must block in ``connection.wait`` and burn (almost) no CPU."""
        job = _job(options={"_test_sleep": 1.0})
        cpu_before = time.process_time()
        report = run_batch([job], store=None, use_pool=True)
        cpu_spent = time.process_time() - cpu_before
        if report.outcomes[0].executor == "pool":
            assert cpu_spent < 0.5, f"parent burned {cpu_spent:.3f}s CPU"


@pytest.fixture
def parses(monkeypatch):
    """The sources ``ProductLine`` parses from now on, in order."""
    sources = []
    parse = repro.spl.product_line.parse_program

    def spy(source):
        sources.append(source)
        return parse(source)

    monkeypatch.setattr(repro.spl.product_line, "parse_program", spy)
    return sources


def _frontend_counts():
    metrics = obs.metrics()
    return (
        metrics.counter_value("worker.frontend_hits"),
        metrics.counter_value("worker.frontend_misses"),
    )


def _assert_lone_results(report, jobs):
    """Each job's record equals a lone ``execute_job`` run's, which
    parses its own program."""
    assert report.failed == 0
    for outcome, job in zip(report.outcomes, jobs):
        record = execute_job(job)
        assert outcome.result_digest == record["result_digest"], job.label
        assert outcome.record["stats"] == record["stats"], job.label


class TestSharedFrontend:
    """The jobs of an inline batch share the frontend of the previous
    job when their source and entry equal its own."""

    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_inline_batch_parses_each_source_once(self, parses):
        jobs = load_manifest(str(SMOKE_MANIFEST))  # 2 sources x 2 analyses
        report = run_batch(jobs, store=None, use_pool=False)
        assert parses == [jobs[0].source, jobs[2].source]
        assert _frontend_counts() == (2, 2)
        assert obs.metrics().hit_ratio(
            "worker.frontend_hits", "worker.frontend_misses"
        ) == 0.5
        _assert_lone_results(report, jobs)

    def test_pool_workers_parse_their_own_job(self):
        jobs = load_manifest(str(SMOKE_MANIFEST))
        report = run_batch(jobs, store=None, use_pool=True)
        assert report.failed == 0
        if report.executors == {"pool": 4}:
            assert _frontend_counts() == (0, 4)

    def test_another_entry_or_source_does_not_share(self, parses):
        other_source = FIGURE1_SOURCE.replace("int y = 0;", "int y = 1;")
        jobs = [
            _job(),
            _job(entry="Main.foo"),
            _job(source=other_source),
        ]
        report = run_batch(jobs, store=None, use_pool=False)
        assert parses == [FIGURE1_SOURCE, FIGURE1_SOURCE, other_source]
        assert _frontend_counts() == (0, 3)
        _assert_lone_results(report, jobs)

    def test_another_feature_model_shares_and_solves_under_its_own(
        self, parses
    ):
        model = canonical_feature_model_text(figure1_with_model().feature_model)
        jobs = [_job(), _job(feature_model_text=model)]
        report = run_batch(jobs, store=None, use_pool=False)
        assert parses == [FIGURE1_SOURCE]
        assert _frontend_counts() == (1, 1)
        _assert_lone_results(report, jobs)
        assert report.outcomes[0].result_digest != report.outcomes[1].result_digest

    def test_lone_job_owns_its_program(self, parses):
        execute_job(_job())
        execute_job(_job())
        assert len(parses) == 2
        assert _frontend_counts() == (0, 2)

    def test_a_shared_frontend_keeps_its_spans(self):
        """A shared frontend's spans close at once, so every job records
        the same spans in the flight ring."""
        run_batch([_job(), _job(analysis="uninit")], store=None, use_pool=False)
        begun = [
            event["name"]
            for event in obs.flight().events()
            if event["kind"] == "span_begin"
            and event["name"].startswith("frontend/")
        ]
        assert begun == ["frontend/parse", "frontend/lower", "frontend/icfg"] * 2


class TestCampaignEquivalence:
    def test_paper_campaign_inline_matches_lone_jobs(self, parses):
        """The 12-job batch run inline, sharing one frontend per subject,
        is bit-identical to lone jobs, results and solver counters."""
        jobs = paper_campaign_jobs()
        report = run_batch(jobs, store=None, use_pool=False)
        assert len(parses) == 4
        _assert_lone_results(report, jobs)

    def test_paper_campaign_pool_matches_single_process(self):
        """The acceptance check: the 12-job batch through the pool is
        bit-identical to single-process execution, job by job."""
        jobs = paper_campaign_jobs()
        report = run_batch(jobs, store=None, use_pool=True)
        assert report.failed == 0
        for outcome, job in zip(report.outcomes, jobs):
            record = execute_job(job)
            assert outcome.result_digest == record["result_digest"], (
                job.label,
                job.analysis,
            )
