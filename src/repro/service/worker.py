"""Worker side of the analysis service: execute one job, end to end.

:func:`solve_product_line` is the one lifted pass — parse, lower, build
the ICFG, lift, solve — with one span per stage.  ``spllift analyze``
calls it directly; :func:`execute_job` calls it on the product line a
job describes and serializes the result, run either in-process (inline
fallback) or inside a pool worker process (dispatched by
:class:`~repro.core.parallel.ProcessTaskPool`).  The Table 2/3 campaigns
reach it through the batch scheduler.

The produced **record** is self-describing and store-ready::

    {"schema": "spllift-result/v2",
     "digest": <job digest>, "job": {…},
     "result_digest": <sha256 over the expanded canonical lines>,
     "constraints": ["!F & G & !H", "true", …],
     "lines": ["Main.main:4|print(y);|y|0", …],
     "facts": <satisfiable non-zero facts>,
     "stats": {…solver counters…}, "solve_seconds": …}

``constraints`` holds each distinct rendered constraint once, sorted;
each of the sorted ``lines`` is a ``location|statement|fact|`` head and
the index of its constraint in that table.  :func:`expand_lines` turns a
record back into the full ``location|statement|fact|constraint`` lines
that ``result_digest`` hashes.

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
from typing import Callable, Dict, Optional, Tuple

from repro.core.solver import ResultLines, SPLLift, SPLLiftResults
from repro.datalog import resolve_engine
from repro.ifds.problem import IFDSProblem
from repro.ir.icfg import ICFG
from repro.obs import runtime as obs
from repro.service.jobs import AnalysisJob, resolve_analysis
from repro.service.store import RESULT_SCHEMA
from repro.spl.product_line import ProductLine
from repro.utils import collector

__all__ = ["solve_product_line", "execute_job", "build_record", "expand_lines"]

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


def execute_job(job: AnalysisJob) -> Dict[str, object]:
    """Run one analysis job and return its store-ready record.

    The whole job, parse to record, runs with the cyclic collector
    paused (:mod:`repro.utils.collector`).  Its program lives in
    :func:`_execute_job`'s frame, so it is garbage before the collector
    comes back on, and the first young collection after the job
    reclaims it.
    """
    with collector.paused():
        engine = resolve_engine(job.options.get("engine"))
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
    _maybe_crash(job)
    product_line = ProductLine(
        name=job.label,
        source=job.source,
        feature_model=job.feature_model(),
        entry=job.entry,
    )
    _, results = solve_product_line(
        product_line,
        resolve_analysis(job.analysis),
        job.fm_mode,
        **job.solve_options(),
    )
    with obs.tracer().span("service/build_record"):
        return build_record(job, results, solve_seconds=results.solve_seconds)


def solve_product_line(
    product_line: ProductLine,
    analysis_factory: Callable[[ICFG], IFDSProblem],
    fm_mode: str = "edge",
    summary_store: Optional[object] = None,
    **solve_options,
) -> Tuple[IFDSProblem, SPLLiftResults]:
    """The one lifted pass over ``product_line``; returns the (unlifted)
    analysis and its lifted results.

    Forces the stages in order, each in its own span: ``frontend/parse``,
    ``frontend/lower``, ``frontend/icfg``, ``spllift/lift`` (the analysis
    and its lifting, feature model included) and ``spllift/solve``.
    Stages the product line already holds cost nothing.  With
    ``summary_store`` (an opened store backend) the solve reuses and
    refreshes per-method summaries; ``solve_options`` are the other
    :meth:`SPLLift.solve` keyword arguments.
    """
    tracer = obs.tracer()
    with tracer.span("frontend/parse"):
        product_line.ast
    with tracer.span("frontend/lower"):
        product_line.ir
    with tracer.span("frontend/icfg"):
        icfg = product_line.icfg
    with tracer.span("spllift/lift"):
        spllift = SPLLift(
            analysis_factory(icfg),
            feature_model=product_line.feature_model,
            fm_mode=fm_mode,
        )
    if summary_store is not None:
        from repro.ide.summaries import summary_cache_for

        solve_options["summaries"] = summary_cache_for(spllift, summary_store)
    return spllift.analysis, spllift.solve(**solve_options)


def build_record(job: AnalysisJob, results, solve_seconds: float) -> Dict[str, object]:
    """Package solved :class:`SPLLiftResults` as a store record.  The
    lines are rendered once, and the digest is taken over those lines."""
    lines = results.result_lines()
    return {
        "schema": RESULT_SCHEMA,
        "digest": job.digest,
        "job": job.describe(),
        "result_digest": lines.digest(),
        "constraints": lines.constraints,
        "lines": lines.rows(),
        "facts": lines.facts,
        "stats": dict(results.stats),
        "solve_seconds": round(solve_seconds, 6),
    }


def expand_lines(record: Dict[str, object]) -> ResultLines:
    """The canonical lines of a result record, expanded: its items are
    the full ``location|statement|fact|constraint`` lines, and its
    ``digest()`` is the record's ``result_digest``."""
    return ResultLines.from_rows(
        record["constraints"], record["lines"], record["facts"]
    )
