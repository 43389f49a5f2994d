"""Worker side of the analysis service: execute one job, end to end.

:func:`solve_product_line` is the one lifted pass — parse, lower, build
the ICFG, lift, solve — with one span per stage.  ``spllift analyze``
calls it directly; :func:`execute_job` calls it on the product line a
job describes and serializes the result, run either in-process (inline
fallback) or inside a pool worker process (dispatched by
:class:`~repro.core.parallel.ProcessTaskPool`).  The Table 2/3 campaigns
reach it through the batch scheduler.

The jobs of one inline batch share their frontend
(:func:`shared_frontend`): a job whose source and entry equal the
previous job's starts from that job's IR and ICFG, so a batch parses,
lowers and builds the call graph once per subject, as the paper's
Table 2 does.  Each job still builds its own feature model, lifting and
solver.  A lone job and a pool worker's job own their program.

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
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.solver import ResultLines, SPLLift, SPLLiftResults
from repro.datalog import resolve_engine
from repro.ifds.problem import IFDSProblem
from repro.ir.icfg import ICFG
from repro.obs import runtime as obs
from repro.service.jobs import AnalysisJob, resolve_analysis
from repro.service.store import RESULT_SCHEMA
from repro.spl.product_line import ProductLine
from repro.utils import collector

__all__ = [
    "solve_product_line",
    "execute_job",
    "shared_frontend",
    "build_record",
    "expand_lines",
]

#: Set in pool worker processes; gates the fault-injection hooks and
#: keeps a pool worker's job off the shared frontend.
_WORKER_ENV = "SPLLIFT_WORKER"


class _FrontendSlot:
    """The IR and ICFG of the last job, keyed by its source and entry.
    One slot, not a map: a job with another key empties it before it
    parses, so at most one program outlives its job.  The AST is not
    kept; nothing after lowering reads it."""

    __slots__ = ("key", "ir", "icfg")

    def __init__(self) -> None:
        self.key = self.ir = self.icfg = None

    def product_line(self, job: AnalysisJob) -> ProductLine:
        """The job's product line, holding the slot's IR and ICFG if the
        job's source and entry are the slot's key; counts the frontend
        as ``worker.frontend_hits`` or ``worker.frontend_misses``."""
        shared = self.key == (job.source, job.entry)
        obs.metrics().inc(
            "worker.frontend_hits" if shared else "worker.frontend_misses"
        )
        if not shared:
            self.key = self.ir = self.icfg = None
        return ProductLine(
            name=job.label,
            source=job.source,
            feature_model=job.feature_model(),
            entry=job.entry,
            _ir=self.ir,
            _icfg=self.icfg,
        )

    def keep(self, product_line: ProductLine) -> None:
        self.key = (product_line.source, product_line.entry)
        self.ir, self.icfg = product_line.ir, product_line.icfg


#: The open :func:`shared_frontend` slot, ``None`` outside a batch.
_slot: Optional[_FrontendSlot] = None


@contextmanager
def shared_frontend() -> Iterator[None]:
    """Let the jobs :func:`execute_job` runs in this process inside the
    block share their frontend; the slot is emptied when the block
    exits.  A pool worker forked inside the block inherits the slot but
    neither reads nor fills it."""
    global _slot
    _slot = _FrontendSlot()
    try:
        yield
    finally:
        _slot = None


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
    paused (:mod:`repro.utils.collector`).  A lone job's program lives
    in :func:`_execute_job`'s frame, so it is garbage before the
    collector comes back on, and the first young collection after the
    job reclaims it.  Inside :func:`shared_frontend` the job's IR and
    ICFG stay in the slot until a job with another source or entry, or
    the end of the batch, releases them.  Each job counts its frontend
    as ``worker.frontend_hits`` (shared) or ``worker.frontend_misses``
    (built) in the metrics registry.
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
    slot = _slot
    if slot is None or os.environ.get(_WORKER_ENV) == "1":
        slot = _FrontendSlot()  # the job's own: it dies with this frame
    product_line = slot.product_line(job)
    _, results = solve_product_line(
        product_line,
        resolve_analysis(job.analysis),
        job.fm_mode,
        **job.solve_options(),
    )
    slot.keep(product_line)
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
    Stages the product line already holds cost nothing, and one that
    holds its IR is not parsed: the frontend spans of a batch job that
    shares the previous job's IR and ICFG close at once.  With
    ``summary_store`` (an opened store backend) the solve reuses and
    refreshes per-method summaries; ``solve_options`` are the other
    :meth:`SPLLift.solve` keyword arguments.
    """
    tracer = obs.tracer()
    with tracer.span("frontend/parse"):
        if not product_line.lowered:
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
