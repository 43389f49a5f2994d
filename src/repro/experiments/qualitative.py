"""Section 6.2's qualitative performance analysis.

Two observations from the paper:

1. "the analysis time taken strongly correlates with the number of flow
   functions constructed in the exploded super graph (the correlation
   coefficient was above 0.99 in all cases)";
2. "in all our benchmark setups, the A2 analysis for the full
   configuration, in which all features are enabled, constructed almost
   as many edges as SPLLIFT did on its unique run" — SPLLIFT's extra
   per-edge cost (constraints instead of booleans) is low.

This module measures both on the reproduction's subjects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple, Type

from repro.analyses import PAPER_ANALYSES
from repro.baselines.a2 import measure_a2
from repro.ifds.problem import IFDSProblem
from repro.service.worker import solve_product_line
from repro.spl.benchmarks import paper_subjects
from repro.spl.product_line import ProductLine
from repro.utils.tables import render_table
from repro.utils.timing import format_duration

__all__ = [
    "QualitativeRow",
    "run_qualitative",
    "render_qualitative",
    "correlation",
]


@dataclass
class QualitativeRow:
    benchmark: str
    analysis: str
    spllift_seconds: float
    spllift_edges: int
    a2_full_seconds: float
    a2_full_edges: int

    @property
    def edge_ratio(self) -> float:
        """SPLLIFT edges / A2-full-configuration edges."""
        if self.a2_full_edges == 0:
            return float("inf")
        return self.spllift_edges / self.a2_full_edges


def correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient."""
    n = len(xs)
    if n != len(ys) or n < 2:
        raise ValueError("need two same-length samples of size >= 2")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def run_qualitative(
    subjects: Sequence[Tuple[str, Callable[[], ProductLine]]] = None,
    analyses: Sequence[Tuple[str, Type[IFDSProblem]]] = PAPER_ANALYSES,
) -> List[QualitativeRow]:
    """Collect edge counts and times for SPLLIFT vs full-config A2."""
    subjects = subjects if subjects is not None else paper_subjects()
    rows: List[QualitativeRow] = []
    for name, builder in subjects:
        product_line = builder()
        for analysis_name, analysis_class in analyses:
            _, results = solve_product_line(product_line, analysis_class)
            a2_seconds, a2_stats = measure_a2(
                analysis_class(product_line.icfg),
                frozenset(product_line.features_reachable),
            )
            rows.append(
                QualitativeRow(
                    benchmark=name,
                    analysis=analysis_name,
                    spllift_seconds=results.solve_seconds,
                    spllift_edges=results.stats["jump_functions"],
                    a2_full_seconds=a2_seconds,
                    a2_full_edges=a2_stats["path_edges"],
                )
            )
    return rows


def render_qualitative(rows: List[QualitativeRow]) -> str:
    headers = (
        "Benchmark",
        "Analysis",
        "SPLLIFT time",
        "SPLLIFT edges",
        "A2-full time",
        "A2-full edges",
        "edge ratio",
    )
    body = [
        (
            row.benchmark,
            row.analysis,
            format_duration(row.spllift_seconds),
            str(row.spllift_edges),
            format_duration(row.a2_full_seconds),
            str(row.a2_full_edges),
            f"{row.edge_ratio:.2f}",
        )
        for row in rows
    ]
    times = [row.spllift_seconds for row in rows]
    edges = [float(row.spllift_edges) for row in rows]
    r = correlation(edges, times)
    note = (
        f"\nPearson correlation (SPLLIFT edges vs time) across runs: {r:.3f}"
        "\n(paper: above 0.99 in all cases; edge ratio ≈ 1 supports the"
        " claim that full-config A2 builds almost as many edges as SPLLIFT)"
    )
    return (
        render_table(headers, body, title="Qualitative analysis (Section 6.2)")
        + note
    )
