"""Table 3: the cost of regarding the feature model.

Paper layout: per benchmark and client analysis, SPLLIFT's wall time with
the feature model *regarded* vs. explicitly *ignored*, plus (in gray) the
average duration of a single A2 run — "a lower bound for any
feature-sensitive analysis" since A2 considers just one configuration.

The paper's finding: regarding the model usually costs little, because
the early termination it enables counterbalances the extra constraint
work (Section 4.2); SPLLIFT often lands close to the A2 gold standard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Type

from repro.analyses import PAPER_ANALYSES
from repro.baselines.a2 import measure_a2
from repro.core.parallel import resolve_parallel
from repro.experiments.harness import fan_out, spllift_column, spllift_job
from repro.ifds.problem import IFDSProblem
from repro.obs import runtime as obs
from repro.spl.benchmarks import paper_subjects
from repro.spl.product_line import ProductLine
from repro.utils.tables import render_table
from repro.utils.timing import format_duration

__all__ = ["Table3Cell", "Table3Row", "run_table3", "render_table3"]


@dataclass
class Table3Cell:
    analysis: str
    regarded_seconds: float
    ignored_seconds: float
    a2_average_seconds: float


@dataclass
class Table3Row:
    benchmark: str
    cells: List[Table3Cell] = field(default_factory=list)


def _a2_average(
    product_line: ProductLine,
    analysis_class: Type[IFDSProblem],
    sample_limit: int = 12,
) -> float:
    """Average single-configuration A2 time over a deterministic sample
    (the A2 half of one Table 3 cell, runnable in a worker process)."""
    with obs.tracer().span(
        "table3/cell",
        subject=product_line.name,
        analysis=analysis_class.__name__,
    ):
        analysis = analysis_class(product_line.icfg)
        configurations = [frozenset(), frozenset(product_line.features_reachable)]
        for configuration in product_line.valid_configurations():
            configurations.append(configuration)
            if len(configurations) >= sample_limit:
                break
        total = sum(
            measure_a2(analysis, configuration)[0]
            for configuration in configurations
        )
        return total / len(configurations)


def run_table3(
    subjects: Sequence[Tuple[str, Callable[[], ProductLine]]] = None,
    analyses: Sequence[Tuple[str, Type[IFDSProblem]]] = PAPER_ANALYSES,
    store=None,
    parallel: Optional[int] = None,
    engine: Optional[str] = None,
) -> List[Table3Row]:
    """Measure feature-model regarded vs ignored vs A2-average.

    The SPLLIFT rows are one batch of analysis-service jobs, an
    ``edge`` and an ``ignore`` job per cell, through ``store`` when
    given (warm hits report the recorded cold-run timing).  ``parallel``
    (default ``$SPLLIFT_PARALLEL``, else 1) fans those jobs and the A2
    averages over worker processes with submission-order assembly,
    exactly as :func:`repro.experiments.table2.run_table2`.  ``engine``
    selects the SPLLIFT evaluation engine for every cell.
    """
    subjects = subjects if subjects is not None else paper_subjects()
    workers = resolve_parallel(parallel)
    with obs.tracer().span("table3/campaign", workers=workers):
        rows, jobs, tasks = [], [], []
        for name, builder in subjects:
            product_line = builder()
            rows.append(Table3Row(benchmark=name))
            for analysis_name, analysis_class in analyses:
                for fm_mode in ("edge", "ignore"):
                    jobs.append(
                        spllift_job(product_line, analysis_name, fm_mode, engine)
                    )
                tasks.append((_a2_average, (product_line, analysis_class)))
        seconds = iter(spllift_column(jobs, store, workers))
        averages = iter(fan_out(tasks, workers))
    for row in rows:
        for analysis_name, _ in analyses:
            row.cells.append(
                Table3Cell(
                    analysis=analysis_name,
                    regarded_seconds=next(seconds),
                    ignored_seconds=next(seconds),
                    a2_average_seconds=next(averages),
                )
            )
    return rows


def render_table3(rows: List[Table3Row]) -> str:
    """Render like the paper's Table 3."""
    headers = ["Benchmark", "Feature model"] + (
        [cell.analysis for cell in rows[0].cells] if rows else []
    )
    body = []
    for row in rows:
        body.append(
            (
                row.benchmark,
                "regarded",
                *(format_duration(c.regarded_seconds) for c in row.cells),
            )
        )
        body.append(
            (
                "",
                "ignored",
                *(format_duration(c.ignored_seconds) for c in row.cells),
            )
        )
        body.append(
            (
                "",
                "average A2",
                *(format_duration(c.a2_average_seconds) for c in row.cells),
            )
        )
    note = (
        "\n(average A2 = one configuration only; a lower bound for any "
        "feature-sensitive analysis)"
    )
    return (
        render_table(
            headers, body, title="Table 3: feature-model impact on SPLLIFT"
        )
        + note
    )
