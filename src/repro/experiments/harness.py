"""Shared machinery for the experiment harness.

Implements the paper's measurement protocol (Section 6.2):

- each benchmark/analysis combination is run once;
- the A2 baseline must run once per valid configuration; beyond a cutoff
  the total is *estimated* "by taking the average of a run of A2 with all
  features enabled and with no features enabled and then multiplying by
  the number of valid configurations";
- call-graph construction time (the "Soot/CG" column) is measured
  separately because SPLLIFT and A2 share it as a prerequisite.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.baselines.a2 import measure_a2
from repro.core.parallel import ProcessTaskPool, resolve_parallel
from repro.datalog import resolve_engine
from repro.ifds.problem import IFDSProblem
from repro.service import (
    AnalysisJob,
    canonical_analysis_name,
    execute_job,
    run_batch,
)
from repro.spl.product_line import ProductLine

__all__ = [
    "A2Campaign",
    "fan_out",
    "measure_call_graph",
    "run_a2_campaign",
    "spllift_column",
    "spllift_job",
    "ENUMERATION_LIMIT",
]

#: Above this many valid configurations, A2 is never enumerated — the
#: total is estimated from the full/empty runs straight away (the paper's
#: BerkeleyDB case, where even counting took too long).
ENUMERATION_LIMIT = 200_000


def measure_call_graph(product_line: ProductLine) -> float:
    """Seconds for the shared analysis prerequisite (the "Soot/CG" column):
    parsing, lowering, and call-graph/ICFG construction from scratch."""
    fresh = ProductLine(
        name=product_line.name, source=product_line.source, entry=product_line.entry
    )
    started = time.perf_counter()
    fresh.icfg
    return time.perf_counter() - started


def spllift_job(
    product_line: ProductLine,
    analysis_name: str,
    fm_mode: str = "edge",
    engine: Optional[str] = None,
) -> AnalysisJob:
    """The analysis-service job of one SPLLIFT table cell.

    ``analysis_name`` is the table's name for the analysis (``"Possible
    Types"``), an alias of its service name.  The default engine is
    *omitted* from the options, so job digests — and every
    already-populated result store — stay those of runs that never name
    an engine; a non-default engine is part of the job identity.
    """
    resolved = resolve_engine(engine)
    return AnalysisJob.from_product_line(
        product_line,
        canonical_analysis_name(analysis_name),
        fm_mode=fm_mode,
        options={} if resolved == "tabulate" else {"engine": resolved},
    )


def spllift_column(
    jobs: Sequence[AnalysisJob], store=None, workers: int = 1
) -> List[float]:
    """The SPLLIFT column of a table: each job's ``solve_seconds``, from
    one batch over the cells' jobs, through ``store`` when given (a warm
    hit reports the time recorded by its cold run).  A job the batch
    reports failed is re-run in the parent; the work is deterministic,
    so only the time can differ."""
    report = run_batch(jobs, store=store, max_workers=workers, use_pool=workers > 1)
    seconds = []
    for outcome in report.outcomes:
        record = outcome.record
        if not outcome.ok:
            record = execute_job(outcome.job)
            if store is not None:
                store.put(record)
        seconds.append(float(record["solve_seconds"]))
    return seconds


def fan_out(tasks: Sequence[Tuple[Callable, tuple]], workers: int) -> List[object]:
    """Results of ``(function, args)`` tasks in submission order, over
    ``workers`` processes when there are several workers and tasks.  A
    task whose worker fails for any reason is re-run in the parent; the
    work is deterministic, so results cannot differ."""
    outcomes = [None] * len(tasks)
    if workers > 1 and len(tasks) > 1:
        outcomes = ProcessTaskPool(max_workers=workers, max_retries=1).run(tasks)
    return [
        outcome.result if outcome is not None and outcome.ok else function(*args)
        for outcome, (function, args) in zip(outcomes, tasks)
    ]


@dataclass
class A2Campaign:
    """Outcome of running A2 over (possibly part of) the configurations."""

    configurations_run: int
    valid_configurations: int
    measured_seconds: float
    estimated: bool
    estimated_total_seconds: float
    per_configuration_seconds: float
    stats_full: Dict[str, int] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return (
            self.estimated_total_seconds if self.estimated else self.measured_seconds
        )

    @property
    def average_seconds(self) -> float:
        """Average per-configuration time ("average A2" in Table 3)."""
        return self.per_configuration_seconds


def _enumerate_a2_parallel(
    analysis: IFDSProblem,
    configurations: Iterable[frozenset],
    cutoff_seconds: float,
    workers: int,
) -> Tuple[float, int]:
    """Fan A2 configuration runs over worker processes, in waves.

    Times are accumulated in *submission* order and the cutoff is applied
    to that prefix, so the campaign stops after the same configurations
    (and reports the same ``configurations_run``) as the sequential loop;
    only the wall-clock changes.  Returns ``(measured_total, runs)``.
    """
    config_iter = iter(configurations)
    total = 0.0
    runs = 0
    while True:
        wave = list(itertools.islice(config_iter, workers * 2))
        if not wave:
            break
        tasks = [(measure_a2, (analysis, configuration)) for configuration in wave]
        for seconds, _ in fan_out(tasks, workers):
            total += seconds
            runs += 1
            if total > cutoff_seconds:
                return total, runs
    return total, runs


def run_a2_campaign(
    product_line: ProductLine,
    analysis_class: Type[IFDSProblem],
    cutoff_seconds: float = 60.0,
    parallel: Optional[int] = None,
) -> A2Campaign:
    """Run A2 over all valid configurations, with cutoff + estimation.

    ``parallel`` (default ``$SPLLIFT_PARALLEL``, else 1) fans the
    configuration enumeration over worker processes; the estimation
    anchors always run in the parent, and the cutoff is applied to the
    submission-order prefix so the campaign's accounting is identical to
    the sequential protocol.
    """
    workers = resolve_parallel(parallel)
    analysis = analysis_class(product_line.icfg)
    valid_count = product_line.count_valid_configurations()
    reachable = product_line.features_reachable

    def run_one(configuration) -> Tuple[float, Dict[str, int]]:
        return measure_a2(analysis, configuration)

    # The paper's estimation anchors: all features on, all features off.
    full_seconds, stats_full = run_one(frozenset(reachable))
    empty_seconds, _ = run_one(frozenset())
    anchor_average = (full_seconds + empty_seconds) / 2.0

    if valid_count > ENUMERATION_LIMIT:
        return A2Campaign(
            configurations_run=2,
            valid_configurations=valid_count,
            measured_seconds=full_seconds + empty_seconds,
            estimated=True,
            estimated_total_seconds=anchor_average * valid_count,
            per_configuration_seconds=anchor_average,
            stats_full=stats_full,
        )

    if workers > 1:
        total, runs = _enumerate_a2_parallel(
            analysis, product_line.valid_configurations(), cutoff_seconds, workers
        )
    else:
        total = 0.0
        runs = 0
        for configuration in product_line.valid_configurations():
            seconds, _ = run_one(configuration)
            total += seconds
            runs += 1
            if total > cutoff_seconds:
                break
    if runs == valid_count:
        return A2Campaign(
            configurations_run=runs,
            valid_configurations=valid_count,
            measured_seconds=total,
            estimated=False,
            estimated_total_seconds=total,
            per_configuration_seconds=total / max(runs, 1),
            stats_full=stats_full,
        )
    # Cutoff hit: estimate the remainder from the anchors (paper protocol).
    return A2Campaign(
        configurations_run=runs,
        valid_configurations=valid_count,
        measured_seconds=total,
        estimated=True,
        estimated_total_seconds=anchor_average * valid_count,
        per_configuration_seconds=anchor_average,
        stats_full=stats_full,
    )
