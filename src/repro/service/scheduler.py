"""Batch scheduler: fan analysis jobs across a pool of worker processes.

The scheduler is deliberately not a ``ProcessPoolExecutor``: a pool
worker killed mid-job (OOM killer, segfault in a native extension, the
fault-injection tests) takes a ``concurrent.futures`` pool down with a
``BrokenProcessPool`` for *every* in-flight job.  The per-job-process
machinery lives in :class:`repro.core.parallel.ProcessTaskPool` (shared
with the experiment campaigns); this module adds the job semantics:

- **store first** — jobs whose digest is already in the result store are
  served without touching a worker (the warm path); a stored record of
  another schema than ``RESULT_SCHEMA`` counts as absent, so the job is
  recomputed and its record overwritten;
- **crash → bounded retry** — a worker that dies without reporting is
  re-queued up to ``max_retries`` times; exhausted retries become a
  per-job failure, never a crashed batch;
- **error → terminal** — a worker that *reports* an exception failed
  deterministically; retrying would fail identically, so it does not;
- **timeout → terminal** — a job exceeding ``job_timeout`` seconds is
  terminated and failed (the work is deterministic: it would time out
  again);
- **graceful degradation** — if worker processes cannot be spawned at
  all (restricted environments), the batch falls back to in-process
  execution with identical results;
- **one frontend per source inline** — the jobs a batch runs in-process
  share their frontend (:func:`~repro.service.worker.shared_frontend`):
  a job whose source and entry equal the previous job's reuses its IR
  and ICFG.  The slot lives for one :meth:`BatchScheduler.run` and is
  emptied when it returns; pool workers parse their own job.

Batches may carry a dependency **DAG** (manifest entries with
``id``/``after``, see :class:`~repro.service.jobs.BatchPlan`).  The
scheduler then dispatches in waves of ready jobs: a job becomes ready
once every predecessor has settled successfully, and each wave fans over
the same pool.  Three DAG-specific rules:

- **store-first edges** — a *cached* job settles immediately, before any
  scheduling, so its dependents don't wait for it (results are
  content-addressed: an edge is an ordering constraint, not a data
  flow the scheduler must reenact);
- **failed-predecessor skip** — a job whose predecessor failed (or was
  itself skipped) is marked ``skipped``, transitively, instead of
  running against a missing precondition;
- **wait accounting** — every outcome records ``wait_seconds``, the time
  the job spent blocked on predecessors before dispatch (0 for jobs
  ready at batch start), mirrored into the
  ``scheduler.dag_wait_seconds`` histogram.

The pool blocks on ``multiprocessing.connection.wait`` over result pipes
and process sentinels (timeout derived from the nearest job deadline),
so an idle scheduler burns no CPU.  :attr:`BatchReport.workers` reports
the parallelism *actually achieved* — 1 when every cold job degraded to
inline execution, 0 when the whole batch was served from the store —
and :meth:`BatchReport.describe` carries a per-executor breakdown.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.parallel import ProcessTaskPool
from repro.obs import runtime as obs
from repro.service.backends.base import RESULT_SCHEMA
from repro.service.jobs import AnalysisJob, BatchPlan, ServiceError
from repro.service.worker import execute_job, shared_frontend

__all__ = ["JobOutcome", "BatchReport", "BatchScheduler", "run_batch"]

#: Outcome.status values.
CACHED, COMPUTED, FAILED, SKIPPED = "cached", "computed", "failed", "skipped"


@dataclass
class JobOutcome:
    """What happened to one job of a batch."""

    job: AnalysisJob
    status: str  # cached | computed | failed | skipped
    attempts: int = 0
    seconds: float = 0.0
    record: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    executor: str = "store"  # store | pool | inline | none
    wait_seconds: float = 0.0  # time spent blocked on DAG predecessors
    #: ``spllift-flight/v1`` dump captured from a dead/failed worker
    #: attempt of this job (``spllift obs postmortem`` reads these off
    #: the batch report).
    flight: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.status in (CACHED, COMPUTED)

    @property
    def result_digest(self) -> Optional[str]:
        if self.record is None:
            return None
        return self.record.get("result_digest")

    def describe(self) -> Dict[str, object]:
        """Report row (the ``spllift batch --report`` JSON shape)."""
        row: Dict[str, object] = {
            "label": self.job.label,
            "analysis": self.job.analysis,
            "fm_mode": self.job.fm_mode,
            "digest": self.job.digest,
            "status": self.status,
            "attempts": self.attempts,
            "seconds": round(self.seconds, 6),
            "executor": self.executor,
            "wait_seconds": round(self.wait_seconds, 6),
        }
        if self.record is not None:
            row["result_digest"] = self.record.get("result_digest")
            row["facts"] = self.record.get("facts")
        if self.error is not None:
            row["error"] = self.error
        if self.flight is not None:
            row["flight"] = self.flight
        return row


@dataclass
class BatchReport:
    """Outcome of a whole batch, in submission order.

    ``workers`` is the number of worker processes that actually ran
    concurrently at the batch's peak — not the configured maximum.  An
    all-cached batch used none; a batch degraded to inline execution
    used the calling process only.
    """

    outcomes: List[JobOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    waves: int = 1  # dispatch waves (1 for dependency-free batches)

    @property
    def cached(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == CACHED)

    @property
    def computed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == COMPUTED)

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == FAILED)

    @property
    def skipped(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == SKIPPED)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.skipped == 0

    @property
    def executors(self) -> Dict[str, int]:
        """How many jobs each executor kind handled (store/pool/inline)."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.executor] = counts.get(outcome.executor, 0) + 1
        return counts

    def describe(self) -> Dict[str, object]:
        return {
            "schema": "spllift-batch-report/v1",
            "jobs": [outcome.describe() for outcome in self.outcomes],
            "cached": self.cached,
            "computed": self.computed,
            "failed": self.failed,
            "skipped": self.skipped,
            "wall_seconds": round(self.wall_seconds, 6),
            "workers": self.workers,
            "waves": self.waves,
            "executors": self.executors,
        }


class BatchScheduler:
    """Schedule a batch of :class:`AnalysisJob` over worker processes."""

    def __init__(
        self,
        store=None,
        max_workers: Optional[int] = None,
        job_timeout: Optional[float] = None,
        max_retries: int = 1,
        use_pool: bool = True,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.store = store
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.use_pool = use_pool

    # ------------------------------------------------------------------

    def run_plan(self, plan: BatchPlan) -> BatchReport:
        """Run a parsed manifest plan (jobs + dependency DAG)."""
        return self.run(plan.jobs, dependencies=plan.dependencies)

    def run(
        self,
        jobs: Sequence[AnalysisJob],
        dependencies: Optional[Sequence[Sequence[int]]] = None,
    ) -> BatchReport:
        """Run ``jobs``; ``dependencies[i]`` (job indices) must settle
        successfully before job ``i`` dispatches."""
        started = time.perf_counter()
        obs.ensure_run_id()
        if dependencies is not None and len(dependencies) != len(jobs):
            raise ServiceError(
                f"dependency list covers {len(dependencies)} of "
                f"{len(jobs)} jobs"
            )
        deps: List[frozenset] = [
            frozenset(dependencies[index]) if dependencies else frozenset()
            for index in range(len(jobs))
        ]
        outcomes: Dict[int, JobOutcome] = {}
        metrics = obs.metrics()
        peak_workers = 0
        waves = 0

        def tick() -> None:
            """One heartbeat per wave: wave, settled/total, hit ratio."""
            counts: Dict[str, int] = {}
            for outcome in outcomes.values():
                counts[outcome.status] = counts.get(outcome.status, 0) + 1
            fields: Dict[str, object] = {
                "wave": max(1, waves),
                "jobs": f"{len(outcomes)}/{len(jobs)}",
                "cached": counts.get(CACHED, 0),
                "computed": counts.get(COMPUTED, 0),
            }
            if counts.get(FAILED):
                fields["failed"] = counts[FAILED]
            if counts.get(SKIPPED):
                fields["skipped"] = counts[SKIPPED]
            ratio = metrics.hit_ratio("store.get_hits", "store.get_misses")
            if ratio is not None:
                fields["store hits"] = f"{ratio:.0%}"
            obs.pulse("batch", **fields)

        obs.log_event("batch.start", jobs=len(jobs))
        with shared_frontend(), obs.tracer().span(
            "service/batch", jobs=len(jobs), run_id=obs.run_id()
        ):
            # Warm path first, dependencies notwithstanding: a cached job
            # settles its outgoing edges without running (store-first).
            # A record of another schema (an older ``spllift-result/v1``)
            # is a miss: the job runs again and its record replaces it.
            for index, job in enumerate(jobs):
                record = (
                    self.store.get(job.digest, schema=RESULT_SCHEMA)
                    if self.store
                    else None
                )
                if record is not None:
                    outcomes[index] = JobOutcome(
                        job=job, status=CACHED, record=record, executor="store"
                    )
                    obs.log_event(
                        "job.cached", label=job.label, digest=job.digest[:12]
                    )
            tick()

            pending = [
                index for index in range(len(jobs)) if index not in outcomes
            ]
            while pending:
                # Settle skips first (transitively: a skip settles too).
                still_pending: List[int] = []
                for index in pending:
                    settled_bad = [
                        dep
                        for dep in deps[index]
                        if dep in outcomes and not outcomes[dep].ok
                    ]
                    if settled_bad:
                        predecessors = ", ".join(
                            jobs[dep].label for dep in sorted(settled_bad)
                        )
                        outcomes[index] = JobOutcome(
                            job=jobs[index],
                            status=SKIPPED,
                            executor="none",
                            error=f"predecessor failed: {predecessors}",
                            wait_seconds=(
                                time.perf_counter() - started if waves else 0.0
                            ),
                        )
                        obs.log_event(
                            "job.skipped",
                            level="warning",
                            label=jobs[index].label,
                            predecessors=predecessors,
                        )
                    else:
                        still_pending.append(index)
                pending = still_pending
                ready = [
                    index
                    for index in pending
                    if all(dep in outcomes for dep in deps[index])
                ]
                if not pending:
                    break
                if not ready:
                    # Unreachable for plans validated at parse time; a
                    # hand-built dependency list can still deadlock.
                    stuck = ", ".join(jobs[index].label for index in pending)
                    raise ServiceError(
                        f"dependency deadlock: no runnable job among {stuck}"
                    )

                wave_wait = time.perf_counter() - started if waves else 0.0
                waves += 1
                pool = ProcessTaskPool(
                    max_workers=self.max_workers,
                    task_timeout=self.job_timeout,
                    max_retries=self.max_retries,
                    use_pool=self.use_pool,
                )
                tasks = [(execute_job, (jobs[index],)) for index in ready]
                results = pool.run(tasks)
                peak_workers = max(peak_workers, pool.peak_workers)
                for index, task in zip(ready, results):
                    if task.ok:
                        if self.store is not None:
                            with obs.tracer().span(
                                "service/store_put", label=jobs[index].label
                            ):
                                self.store.put(task.result)
                        outcomes[index] = JobOutcome(
                            job=jobs[index],
                            status=COMPUTED,
                            attempts=task.attempts,
                            seconds=task.seconds,
                            record=task.result,
                            executor=task.executor,
                            wait_seconds=wave_wait,
                            flight=task.flight,
                        )
                        obs.log_event(
                            "job.computed",
                            label=jobs[index].label,
                            digest=jobs[index].digest[:12],
                            attempts=task.attempts,
                            seconds=round(task.seconds, 6),
                            executor=task.executor,
                        )
                    else:
                        outcomes[index] = JobOutcome(
                            job=jobs[index],
                            status=FAILED,
                            attempts=task.attempts,
                            seconds=task.seconds,
                            error=task.error,
                            executor=task.executor,
                            wait_seconds=wave_wait,
                            flight=task.flight,
                        )
                        obs.log_event(
                            "job.failed",
                            level="error",
                            label=jobs[index].label,
                            digest=jobs[index].digest[:12],
                            attempts=task.attempts,
                            error=task.error,
                        )
                pending = [index for index in pending if index not in outcomes]
                tick()

        ordered = [outcomes[index] for index in range(len(jobs))]
        for outcome in ordered:
            metrics.inc(f"scheduler.jobs_{outcome.status}")
            metrics.inc("scheduler.job_attempts", outcome.attempts)
            metrics.observe("scheduler.job_seconds", outcome.seconds)
        if any(deps):
            for outcome, dep_set in zip(ordered, deps):
                if dep_set:
                    metrics.observe(
                        "scheduler.dag_wait_seconds", outcome.wait_seconds
                    )
        if any(outcome.executor == "pool" for outcome in ordered):
            workers = max(1, peak_workers)
        elif any(outcome.executor == "inline" for outcome in ordered):
            workers = 1
        else:
            workers = 0  # everything came from the store (or was skipped)
        report = BatchReport(
            outcomes=ordered,
            wall_seconds=time.perf_counter() - started,
            workers=workers,
            waves=max(1, waves),
        )
        obs.log_event(
            "batch.done",
            jobs=len(jobs),
            cached=report.cached,
            computed=report.computed,
            failed=report.failed,
            skipped=report.skipped,
            waves=report.waves,
            wall_seconds=round(report.wall_seconds, 6),
        )
        return report


def run_batch(
    jobs: Sequence[AnalysisJob],
    store=None,
    max_workers: Optional[int] = None,
    job_timeout: Optional[float] = None,
    max_retries: int = 1,
    use_pool: bool = True,
    dependencies: Optional[Sequence[Sequence[int]]] = None,
) -> BatchReport:
    """One-call convenience wrapper around :class:`BatchScheduler`."""
    scheduler = BatchScheduler(
        store=store,
        max_workers=max_workers,
        job_timeout=job_timeout,
        max_retries=max_retries,
        use_pool=use_pool,
    )
    return scheduler.run(jobs, dependencies=dependencies)
