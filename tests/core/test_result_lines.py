"""The canonical result rendering: memoized, byte-identical, once per job.

``SPLLiftResults.result_lines`` renders each distinct constraint,
statement prefix and fact once per call.  Every test here compares it
against the plain per-pair rendering, byte for byte, on both constraint
backends.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyses import (
    NullnessAnalysis,
    PossibleTypesAnalysis,
    ReachingDefinitionsAnalysis,
    TaintAnalysis,
    UninitializedVariablesAnalysis,
)
from repro.constraints import DnfConstraintSystem
from repro.core import SPLLift
from repro.core.solver import SPLLiftResults, lines_digest
from repro.service import AnalysisJob, build_record
from repro.spl import SubjectSpec, device_spl, figure1, generate_subject, gpl_like

ANALYSES = [
    TaintAnalysis,
    PossibleTypesAnalysis,
    ReachingDefinitionsAnalysis,
    UninitializedVariablesAnalysis,
    NullnessAnalysis,
]


def reference_lines(results):
    """The unmemoized rendering: one ``str``/``repr`` per pair."""
    return sorted(
        f"{stmt.location}|{stmt}|{fact!r}|{constraint}"
        for (stmt, fact), constraint in results.items()
        if not constraint.is_false
    )


def solve(product_line, analysis_class, system=None):
    return SPLLift(
        analysis_class(product_line.icfg),
        feature_model=product_line.feature_model,
        system=system,
    ).solve()


@pytest.mark.parametrize("analysis_class", ANALYSES)
def test_figure1(analysis_class):
    results = solve(figure1(), analysis_class)
    lines = results.result_lines()
    assert lines
    assert lines == reference_lines(results)


def test_gpl_like_reaching_definitions():
    results = solve(gpl_like(), ReachingDefinitionsAnalysis)
    lines = results.result_lines()
    # Many lines share few constraints: the case the memo is built for.
    distinct = {c for _, c in results.items() if not c.is_false}
    assert len(distinct) * 10 < len(lines)
    assert lines == reference_lines(results)


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    density=st.floats(min_value=0.1, max_value=0.6),
    analysis_class=st.sampled_from(ANALYSES),
)
@settings(max_examples=15, deadline=None)
def test_generated_subjects(seed, density, analysis_class):
    spec = SubjectSpec(
        name=f"lines-{seed}",
        seed=seed,
        classes=3,
        methods_per_class=(2, 3),
        statements_per_method=(3, 7),
        annotation_density=density,
        entry_fanout=4,
        reachable_features=("A", "B", "C"),
    )
    results = solve(generate_subject(spec), analysis_class)
    assert results.result_lines() == reference_lines(results)


@pytest.mark.parametrize("product_line", [figure1, device_spl], ids=["figure1", "device"])
@pytest.mark.parametrize("analysis_class", [TaintAnalysis, UninitializedVariablesAnalysis])
def test_dnf_backend(product_line, analysis_class):
    results = solve(product_line(), analysis_class, system=DnfConstraintSystem())
    assert results.system.name == "dnf"
    lines = results.result_lines()
    assert lines
    assert lines == reference_lines(results)


def test_build_record_renders_once(monkeypatch):
    product_line = device_spl()
    results = solve(product_line, ReachingDefinitionsAnalysis)
    job = AnalysisJob.from_product_line(product_line, "reaching_definitions")
    calls = []
    original = SPLLiftResults.result_lines

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(SPLLiftResults, "result_lines", counted)
    record = build_record(job, results, solve_seconds=0.0)
    assert calls == [results]
    monkeypatch.undo()
    assert record["lines"] == reference_lines(results)
    assert record["result_digest"] == results.result_digest()
    assert record["result_digest"] == lines_digest(record["lines"])
