"""Benchmark: iteration-order variance (Section 6.2's observation).

Runs the same lifted analysis under several worklist orders and checks
the paper's two claims: identical results, and work (flow functions
constructed) varying with the order and correlating with time.
"""

import pytest

from repro.analyses import (
    ReachingDefinitionsAnalysis,
    UninitializedVariablesAnalysis,
)
from repro.experiments.variance import run_variance


@pytest.mark.parametrize(
    "subject_name,analysis_class",
    [
        ("MM08-like", ReachingDefinitionsAnalysis),
        ("GPL-like", ReachingDefinitionsAnalysis),
        ("GPL-like", UninitializedVariablesAnalysis),
    ],
)
def test_order_variance(benchmark, subjects, subject_name, analysis_class):
    product_line = subjects[subject_name]
    report = benchmark.pedantic(
        run_variance,
        args=(product_line, analysis_class),
        kwargs={"random_orders": 6},
        rounds=1,
        iterations=1,
    )
    assert report.results_identical  # fixed point is order-independent
    assert report.work_spread > 1.0  # rpo does less than lifo on each
