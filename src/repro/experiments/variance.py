"""The iteration-order variance experiment (Section 6.2).

The paper: "During our experiments, we found a relatively high variance in
the analysis times.  As we found, this is caused due to non-determinism in
the order in which the IDE solution is computed.  As a fixed-point
algorithm, IDE computes the same result independently of iteration order,
but some orders may compute the result faster (computing fewer flow
functions) than others. ... We did find, however, that the analysis time
taken strongly correlates with the number of flow functions constructed."

This experiment makes the paper's JVM hash-ordering accident a controlled
variable: it runs the same lifted analysis under many random worklist
orders, verifies that the *results* are identical, and reports the spread
of work (flow-function applications) and time together with their
correlation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Tuple, Type

from repro.core.solver import SPLLift
from repro.experiments.qualitative import correlation
from repro.ide.solver import IDESolver
from repro.ifds.problem import IFDSProblem
from repro.spl.product_line import ProductLine
from repro.utils.tables import render_table
from repro.utils.timing import format_duration

__all__ = ["VarianceRun", "VarianceReport", "run_variance", "render_variance"]


@dataclass
class VarianceRun:
    order: str
    seconds: float
    flow_applications: int
    jump_functions: int


@dataclass
class VarianceReport:
    benchmark: str
    analysis: str
    runs: List[VarianceRun]
    results_identical: bool

    @property
    def time_spread(self) -> float:
        times = [run.seconds for run in self.runs]
        return max(times) / min(times) if min(times) > 0 else float("inf")

    @property
    def work_spread(self) -> float:
        work = [run.flow_applications for run in self.runs]
        return max(work) / min(work) if min(work) > 0 else float("inf")

    @property
    def work_time_correlation(self) -> float:
        return correlation(
            [float(run.flow_applications) for run in self.runs],
            [run.seconds for run in self.runs],
        )


def run_variance(
    product_line: ProductLine,
    analysis_class: Type[IFDSProblem],
    random_orders: int = 8,
) -> VarianceReport:
    """Solve the same lifted problem under fifo, lifo, rpo (the default)
    and random orders."""
    from repro.constraints.bddsystem import BddConstraintSystem

    orders: List[Tuple[str, str, int]] = [
        (order, order, 0) for order in ("fifo", "lifo", "rpo")
    ]
    orders.extend(
        (f"random:{seed}", "random", seed) for seed in range(random_orders)
    )
    # One shared constraint system so results are comparable by node
    # identity across runs (canonical BDDs). The shared operation cache
    # slightly favours later runs; the work counts are unaffected.
    system = BddConstraintSystem()
    runs: List[VarianceRun] = []
    reference = None
    identical = True
    for name, order, seed in orders:
        spllift = SPLLift(
            analysis_class(product_line.icfg),
            feature_model=product_line.feature_model,
            system=system,
        )
        solver = IDESolver(spllift.problem, worklist_order=order, order_seed=seed)
        started = time.perf_counter()
        results = solver.solve()
        elapsed = time.perf_counter() - started
        runs.append(
            VarianceRun(
                order=name,
                seconds=elapsed,
                flow_applications=solver.stats["flow_applications"],
                jump_functions=solver.stats["jump_functions"],
            )
        )
        snapshot = {
            key: value
            for key, value in results.items()
            if value != system.false
        }
        if reference is None:
            reference = snapshot
        elif snapshot != reference:
            identical = False
    return VarianceReport(
        benchmark=product_line.name,
        analysis=analysis_class.__name__,
        runs=runs,
        results_identical=identical,
    )


def render_variance(reports: List[VarianceReport]) -> str:
    headers = (
        "Benchmark",
        "Analysis",
        "orders",
        "time min..max",
        "work min..max",
        "work/time r",
        "same results",
    )
    body = []
    for report in reports:
        times = [run.seconds for run in report.runs]
        work = [run.flow_applications for run in report.runs]
        body.append(
            (
                report.benchmark,
                report.analysis,
                str(len(report.runs)),
                f"{format_duration(min(times))}..{format_duration(max(times))}",
                f"{min(work)}..{max(work)}",
                f"{report.work_time_correlation:.2f}",
                "yes" if report.results_identical else "NO",
            )
        )
    return render_table(
        headers, body, title="Iteration-order variance (Section 6.2)"
    )
