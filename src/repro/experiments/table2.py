"""Table 2: performance of SPLLIFT vs. the A2 baseline.

Paper layout: per benchmark, the shared call-graph time ("Soot/CG"), then
for each of the three client analyses the SPLLIFT wall time and A2's total
wall time over all valid configurations — estimated coarsely ("days",
"years") where the cutoff was hit, shown in gray in the paper and with a
"≈" prefix here.

The headline claim this table reproduces: SPLLIFT avoids A2's exponential
blowup and wins by several orders of magnitude on constrained subjects,
while never being catastrophically slower on tiny ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Type

from repro.analyses import PAPER_ANALYSES
from repro.core.parallel import resolve_parallel
from repro.experiments.harness import (
    A2Campaign,
    fan_out,
    measure_call_graph,
    run_a2_campaign,
    spllift_column,
    spllift_job,
)
from repro.ifds.problem import IFDSProblem
from repro.obs import runtime as obs
from repro.spl.benchmarks import paper_subjects
from repro.spl.product_line import ProductLine
from repro.utils.tables import render_table
from repro.utils.timing import format_count, format_duration, format_estimate

__all__ = ["Table2Cell", "Table2Row", "run_table2", "render_table2"]


@dataclass
class Table2Cell:
    analysis: str
    spllift_seconds: float
    a2: A2Campaign

    @property
    def speedup(self) -> float:
        if self.spllift_seconds == 0:
            return float("inf")
        return self.a2.total_seconds / self.spllift_seconds


@dataclass
class Table2Row:
    benchmark: str
    valid_configurations: int
    call_graph_seconds: float
    cells: List[Table2Cell] = field(default_factory=list)


def _a2_cell_task(
    product_line: ProductLine,
    analysis_class: Type[IFDSProblem],
    cutoff_seconds: float,
) -> A2Campaign:
    """The A2 half of one Table 2 cell, runnable in a worker process."""
    with obs.tracer().span(
        "table2/cell",
        subject=product_line.name,
        analysis=analysis_class.__name__,
    ):
        return run_a2_campaign(
            product_line, analysis_class, cutoff_seconds=cutoff_seconds
        )


def run_table2(
    subjects: Sequence[Tuple[str, Callable[[], ProductLine]]] = None,
    analyses: Sequence[Tuple[str, Type[IFDSProblem]]] = PAPER_ANALYSES,
    cutoff_seconds: float = 60.0,
    store=None,
    parallel: Optional[int] = None,
    engine: Optional[str] = None,
) -> List[Table2Row]:
    """Run the full Table 2 campaign (SPLLIFT and A2 per subject/analysis).

    The SPLLIFT column is one batch of analysis-service jobs
    (:func:`~repro.experiments.harness.spllift_column`); each cell
    reports its record's ``solve_seconds``.  With ``store`` (a result
    store backend) warm hits skip the solver and report the recorded
    cold-run timing.

    ``parallel`` (default ``$SPLLIFT_PARALLEL``, else 1) fans the
    SPLLIFT jobs and the cells' A2 campaigns over worker processes; rows
    are assembled in submission order, so the rendered table and every
    stored result digest are identical to a sequential campaign.

    ``engine`` selects the SPLLIFT evaluation engine for every cell
    (``tabulate``/``datalog``; results are bit-identical, timings are
    the A/B of interest).
    """
    subjects = subjects if subjects is not None else paper_subjects()
    workers = resolve_parallel(parallel)
    with obs.tracer().span("table2/campaign", workers=workers):
        # Subjects are built (and their call-graph time measured) once.
        rows, jobs, tasks = [], [], []
        for name, builder in subjects:
            product_line = builder()
            rows.append(
                Table2Row(
                    benchmark=name,
                    valid_configurations=product_line.count_valid_configurations(),
                    call_graph_seconds=measure_call_graph(product_line),
                )
            )
            for analysis_name, analysis_class in analyses:
                jobs.append(spllift_job(product_line, analysis_name, engine=engine))
                tasks.append(
                    (_a2_cell_task, (product_line, analysis_class, cutoff_seconds))
                )
        seconds = iter(spllift_column(jobs, store, workers))
        campaigns = iter(fan_out(tasks, workers))
    for row in rows:
        for analysis_name, _ in analyses:
            row.cells.append(
                Table2Cell(
                    analysis=analysis_name,
                    spllift_seconds=next(seconds),
                    a2=next(campaigns),
                )
            )
    return rows


def _a2_cell(campaign: A2Campaign) -> str:
    if campaign.estimated:
        return format_estimate(campaign.estimated_total_seconds)
    return format_duration(campaign.measured_seconds)


def render_table2(rows: List[Table2Row]) -> str:
    """Render like the paper's Table 2 (≈ marks coarse estimates)."""
    headers = ["Benchmark", "Configs valid", "CG"]
    analysis_names = [cell.analysis for cell in rows[0].cells] if rows else []
    for analysis_name in analysis_names:
        short = "".join(word[0] for word in analysis_name.split())
        headers.extend((f"{short} SPLLIFT", f"{short} A2"))
    body = []
    for row in rows:
        cells = [
            row.benchmark,
            format_count(row.valid_configurations),
            format_duration(row.call_graph_seconds),
        ]
        for cell in row.cells:
            cells.append(format_duration(cell.spllift_seconds))
            cells.append(_a2_cell(cell.a2))
        body.append(tuple(cells))
    legend = (
        "\n(PT=Possible Types, RD=Reaching Definitions, UV=Uninitialized "
        "Variables; ≈ marks the paper's cutoff-and-estimate protocol)"
    )
    return (
        render_table(
            headers, body, title="Table 2: SPLLIFT vs A2 performance"
        )
        + legend
    )
