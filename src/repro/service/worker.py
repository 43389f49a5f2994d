"""Worker side of the analysis service: execute one job, end to end.

:func:`execute_job` is the whole pipeline — parse the MiniJava source,
parse the feature model, lower, build the ICFG, lift, solve, serialize —
run either in-process (inline fallback) or inside a pool worker process
(dispatched by :class:`~repro.core.parallel.ProcessTaskPool`).

The produced **record** is self-describing and store-ready::

    {"schema": "spllift-result/v1",
     "digest": <job digest>, "job": {…},
     "result_digest": <sha256 over the canonical lines>,
     "lines": ["Main.main:4|print(y);|y|!F & G & !H", …],
     "findings": <satisfiable non-zero facts>,
     "stats": {…solver counters…}, "solve_seconds": …}

Fault injection: the ``_test_crash_marker`` / ``_test_crash_always`` job
options make a *pool worker* die with SIGKILL (before doing any work) so
the scheduler's crash/retry path can be tested deterministically.  They
are inert in-process — a worker hook must never kill the caller — and,
like every ``_``-prefixed option, excluded from the job digest.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict

from repro.datalog import resolve_engine
from repro.obs import runtime as obs
from repro.service.jobs import AnalysisJob, resolve_analysis
from repro.service.store import RESULT_SCHEMA

__all__ = ["execute_job", "build_record"]

#: Set in pool worker processes; gates the fault-injection hooks.
_WORKER_ENV = "SPLLIFT_WORKER"


def _maybe_crash(job: AnalysisJob) -> None:
    if os.environ.get(_WORKER_ENV) != "1":
        return
    marker = job.options.get("_test_crash_marker")
    if marker:
        if not os.path.exists(str(marker)):
            with open(str(marker), "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
    if job.options.get("_test_crash_always"):
        os.kill(os.getpid(), signal.SIGKILL)
    sleep = job.options.get("_test_sleep")
    if sleep:
        time.sleep(float(sleep))


def _engine_label(job: AnalysisJob) -> str:
    """The engine ``SPLLift.solve`` will run ``job`` on: its ``engine``
    option, else ``$SPLLIFT_ENGINE``, else tabulate.  A bad environment
    value is named as given; the solve then fails the job on it."""
    try:
        return resolve_engine(job.options.get("engine"))
    except ValueError:
        return str(os.environ.get("SPLLIFT_ENGINE"))


def execute_job(job: AnalysisJob) -> Dict[str, object]:
    """Run one analysis job and return its store-ready record."""
    engine = _engine_label(job)
    # Before any work (and before the fault-injection hooks): a flight
    # postmortem must be able to name the job a dead worker was running.
    obs.flight().note_job(
        {
            "label": job.label,
            "analysis": job.analysis,
            "fm_mode": job.fm_mode,
            "digest": job.digest,
            "engine": engine,
        }
    )
    obs.log_event(
        "job.start",
        label=job.label,
        analysis=job.analysis,
        digest=job.digest[:12],
        engine=engine,
    )
    with obs.tracer().span(
        "service/job",
        label=job.label,
        analysis=job.analysis,
        digest=job.digest[:12],
        run_id=obs.run_id(),
    ):
        record = _execute_job(job)
    obs.log_event(
        "job.done",
        label=job.label,
        digest=job.digest[:12],
        facts=record.get("facts"),
        solve_seconds=record.get("solve_seconds"),
    )
    return record


def _execute_job(job: AnalysisJob) -> Dict[str, object]:
    from repro.core.solver import SPLLift
    from repro.spl.product_line import ProductLine

    _maybe_crash(job)
    product_line = ProductLine(
        name=job.label,
        source=job.source,
        feature_model=job.feature_model(),
        entry=job.entry,
    )
    analysis = resolve_analysis(job.analysis)(product_line.icfg)
    feature_model = (
        product_line.feature_model if job.fm_mode != "ignore" else None
    )
    spllift = SPLLift(
        analysis, feature_model=feature_model, fm_mode=job.fm_mode
    )
    # A job that sets no worklist order runs fifo whatever
    # $SPLLIFT_WORKLIST_ORDER says; its other options default as in solve.
    options = {"worklist_order": "fifo", **job.solve_options()}
    started = time.perf_counter()
    results = spllift.solve(**options)
    elapsed = time.perf_counter() - started
    return build_record(job, results, solve_seconds=elapsed)


def build_record(job: AnalysisJob, results, solve_seconds: float) -> Dict[str, object]:
    """Package solved :class:`SPLLiftResults` as a store record.  The
    lines are rendered once and the digest is taken over those lines."""
    from repro.core.solver import lines_digest
    from repro.ifds.problem import ZERO

    facts = sum(
        1
        for (_, fact), constraint in results.items()
        if fact is not ZERO and not constraint.is_false
    )
    lines = results.result_lines()
    return {
        "schema": RESULT_SCHEMA,
        "digest": job.digest,
        "job": job.describe(),
        "result_digest": lines_digest(lines),
        "lines": lines,
        "facts": facts,
        "stats": dict(results.stats),
        "solve_seconds": round(solve_seconds, 6),
    }

