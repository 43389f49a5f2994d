"""Scaling experiment: analysis cost as the number of features grows.

The paper's headline claim in series form: for a family of subjects that
are identical except for their number of (unconstrained) reachable
features, A2's total cost doubles per feature (2^n valid configurations)
while SPLLIFT's single pass stays essentially flat.  This is the implicit
"figure" behind "minutes instead of years" — the paper states it via
Table 2; this module measures the curve directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Type

from repro.baselines.a2 import measure_a2
from repro.core.solver import SPLLift
from repro.ifds.problem import IFDSProblem
from repro.spl.generator import SubjectSpec, generate_subject
from repro.utils.tables import render_table
from repro.utils.timing import format_count, format_duration, format_estimate

__all__ = ["ScalingPoint", "run_scaling", "render_scaling"]


@dataclass
class ScalingPoint:
    features: int
    valid_configurations: int
    spllift_seconds: float
    a2_per_configuration_seconds: float

    @property
    def a2_total_seconds(self) -> float:
        return self.a2_per_configuration_seconds * self.valid_configurations

    @property
    def speedup(self) -> float:
        if self.spllift_seconds == 0:
            return float("inf")
        return self.a2_total_seconds / self.spllift_seconds


def _subject(feature_count: int, seed: int):
    return generate_subject(
        SubjectSpec(
            name=f"scale-{feature_count}",
            seed=seed,
            classes=6,
            methods_per_class=(2, 4),
            statements_per_method=(6, 10),
            annotation_density=0.35,
            entry_fanout=8,
            reachable_features=[f"S{i}" for i in range(feature_count)],
        )
    )


def run_scaling(
    analysis_class: Type[IFDSProblem],
    feature_counts: Sequence[int] = (2, 4, 6, 8, 10, 12, 14),
    seed: int = 7,
) -> List[ScalingPoint]:
    """Measure SPLLIFT and per-configuration A2 across feature counts.

    The subjects share the generator seed, so the *code* stays comparable
    while only the number of distinct features in annotations grows.
    """
    points: List[ScalingPoint] = []
    for count in feature_counts:
        product_line = _subject(count, seed)
        analysis = analysis_class(product_line.icfg)
        spllift = SPLLift(analysis, feature_model=product_line.feature_model)
        started = time.perf_counter()
        spllift.solve()
        spllift_seconds = time.perf_counter() - started
        # A2 anchors (the paper's estimation protocol).
        reachable = product_line.features_reachable
        anchor_total = sum(
            measure_a2(analysis, config)[0]
            for config in (frozenset(), frozenset(reachable))
        )
        points.append(
            ScalingPoint(
                features=len(reachable),
                valid_configurations=product_line.count_valid_configurations(),
                spllift_seconds=spllift_seconds,
                a2_per_configuration_seconds=anchor_total / 2.0,
            )
        )
    return points


def render_scaling(points: List[ScalingPoint]) -> str:
    headers = (
        "features",
        "valid configs",
        "SPLLIFT (1 pass)",
        "A2 per config",
        "A2 total (est.)",
        "speedup",
    )
    body = []
    for point in points:
        total = point.a2_total_seconds
        body.append(
            (
                str(point.features),
                format_count(point.valid_configurations),
                format_duration(point.spllift_seconds),
                format_duration(point.a2_per_configuration_seconds),
                format_estimate(total) if total >= 60 else format_duration(total),
                f"{point.speedup:,.0f}x",
            )
        )
    return render_table(
        headers,
        body,
        title="Scaling with feature count (the paper's headline, as a curve)",
    )
