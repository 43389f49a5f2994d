"""Experiment harness: regenerates every table of the paper's evaluation.

- :mod:`repro.experiments.table1` — benchmark key information,
- :mod:`repro.experiments.table2` — SPLLIFT vs A2 performance,
- :mod:`repro.experiments.table3` — feature-model impact,
- :mod:`repro.experiments.qualitative` — edge-count correlation
  (Section 6.2's qualitative analysis),
- :mod:`repro.experiments.variance` — iteration-order variance
  (Section 6.2's non-determinism observation),
- :mod:`repro.experiments.scaling` — the headline claim as a curve
  (SPLLIFT flat, A2 exponential in the feature count).

Run ``python -m repro.experiments all`` for the full campaign.
"""

from repro.experiments.harness import (
    A2Campaign,
    ENUMERATION_LIMIT,
    measure_call_graph,
    run_a2_campaign,
)
from repro.experiments.qualitative import (
    QualitativeRow,
    correlation,
    render_qualitative,
    run_qualitative,
)
from repro.experiments.table1 import Table1Row, render_table1, run_table1
from repro.experiments.scaling import (
    ScalingPoint,
    render_scaling,
    run_scaling,
)
from repro.experiments.variance import (
    VarianceReport,
    VarianceRun,
    render_variance,
    run_variance,
)
from repro.experiments.table2 import (
    Table2Cell,
    Table2Row,
    render_table2,
    run_table2,
)
from repro.experiments.table3 import (
    Table3Cell,
    Table3Row,
    render_table3,
    run_table3,
)

__all__ = [
    "A2Campaign",
    "ENUMERATION_LIMIT",
    "measure_call_graph",
    "run_a2_campaign",
    "Table1Row",
    "run_table1",
    "render_table1",
    "Table2Cell",
    "Table2Row",
    "run_table2",
    "render_table2",
    "Table3Cell",
    "Table3Row",
    "run_table3",
    "render_table3",
    "QualitativeRow",
    "run_qualitative",
    "render_qualitative",
    "correlation",
    "VarianceRun",
    "VarianceReport",
    "run_variance",
    "render_variance",
    "ScalingPoint",
    "run_scaling",
    "render_scaling",
]
