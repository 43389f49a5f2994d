"""The canonical result rendering: compact, byte-identical, once per job.

``SPLLiftResults.result_lines`` renders each distinct constraint,
statement prefix and fact once per call, and holds each distinct
constraint's text once (``ResultLines``).  Every test here compares its
expanded lines against the plain per-pair rendering, byte for byte, on
both constraint backends, and against the sha256 of their joined text.
"""

import hashlib
import threading

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
from repro.core import ResultLines, SPLLift
from repro.core.solver import SPLLiftResults, lines_digest
from repro.ifds.problem import ZERO
from repro.service import (
    AnalysisJob,
    build_record,
    expand_lines,
    make_server,
    open_store,
    resolve_analysis,
)
from repro.service.store import RESULT_SCHEMA
from repro.spl import SubjectSpec, device_spl, figure1, generate_subject, gpl_like
from repro.spl.benchmarks import paper_subjects
from repro.spl.examples import FIGURE1_SOURCE
from repro.spl.product_line import ProductLine

ANALYSES = [
    TaintAnalysis,
    PossibleTypesAnalysis,
    ReachingDefinitionsAnalysis,
    UninitializedVariablesAnalysis,
    NullnessAnalysis,
]

PAPER_ANALYSES = ("possible_types", "reaching_definitions", "uninitialized_variables")


def reference_lines(results):
    """The unmemoized rendering: one ``str``/``repr`` per pair."""
    return sorted(
        f"{stmt.location}|{stmt}|{fact!r}|{constraint}"
        for (stmt, fact), constraint in results.items()
        if not constraint.is_false
    )


def reference_digest(lines):
    """sha256 over the whole joined text, built in one piece."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def solve(product_line, analysis_class, system=None):
    return SPLLift(
        analysis_class(product_line.icfg),
        feature_model=product_line.feature_model,
        system=system,
    ).solve()


def assert_head_order_contract(results):
    """Sorting on ``location|statement|fact|`` heads gives the order of
    the full lines, and the two conditions that make it so hold."""
    pairs = [
        (stmt, fact, constraint)
        for (stmt, fact), constraint in results.items()
        if not constraint.is_false
    ]
    statements = {stmt for stmt, _, _ in pairs}
    locations = {stmt.location for stmt in statements}
    assert len(locations) == len(statements)  # one statement per location
    assert not any("|" in location for location in locations)
    assert not any("|" in repr(fact) for _, fact, _ in pairs)
    entries = [
        (f"{stmt.location}|{stmt}|{fact!r}|", f"{constraint}")
        for stmt, fact, constraint in pairs
    ]
    by_head = [head + text for head, text in sorted(entries, key=lambda e: e[0])]
    assert by_head == sorted(head + text for head, text in entries)


@pytest.mark.parametrize("analysis_class", ANALYSES)
def test_figure1(analysis_class):
    results = solve(figure1(), analysis_class)
    lines = results.result_lines()
    assert lines
    assert list(lines) == reference_lines(results)


def test_gpl_like_reaching_definitions():
    results = solve(gpl_like(), ReachingDefinitionsAnalysis)
    lines = results.result_lines()
    # Many lines share few constraints: the case the table is built for.
    distinct = {c for _, c in results.items() if not c.is_false}
    assert len(distinct) * 10 < len(lines)
    assert len(lines.constraints) == len(distinct)
    assert list(lines) == reference_lines(results)


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
    assert_head_order_contract(results)
    lines = results.result_lines()
    assert list(lines) == reference_lines(results)
    assert lines.digest() == reference_digest(reference_lines(results))


@pytest.mark.parametrize("product_line", [figure1, device_spl], ids=["figure1", "device"])
@pytest.mark.parametrize("analysis_class", [TaintAnalysis, UninitializedVariablesAnalysis])
def test_dnf_backend(product_line, analysis_class):
    results = solve(product_line(), analysis_class, system=DnfConstraintSystem())
    assert results.system.name == "dnf"
    lines = results.result_lines()
    assert lines
    assert list(lines) == reference_lines(results)
    stored = ResultLines.from_rows(lines.constraints, lines.rows(), lines.facts)
    assert list(stored) == list(lines)


def test_build_record_renders_once(monkeypatch):
    product_line = device_spl()
    results = solve(product_line, ReachingDefinitionsAnalysis)
    job = AnalysisJob.from_product_line(product_line, "reaching_definitions")
    calls = []
    original = SPLLiftResults.result_lines

    def counted(self):
        calls.append(self)
        return original(self)

    def forbidden(self):
        raise AssertionError("build_record must digest the lines it rendered")

    monkeypatch.setattr(SPLLiftResults, "result_lines", counted)
    monkeypatch.setattr(SPLLiftResults, "result_digest", forbidden)
    record = build_record(job, results, solve_seconds=0.0)
    assert calls == [results]
    monkeypatch.undo()
    expected = reference_lines(results)
    assert record["schema"] == RESULT_SCHEMA == "spllift-result/v2"
    assert list(expand_lines(record)) == expected
    assert record["result_digest"] == results.result_digest()
    assert record["result_digest"] == reference_digest(expected)
    assert record["facts"] == sum(
        1
        for (_, fact), constraint in results.items()
        if fact is not ZERO and not constraint.is_false
    )


class TestResultLinesSequence:
    LINES = ResultLines(
        ["!F", "F & G"],
        ["A.m:0|x = 1;|x|", "A.m:1|y = 2;  #if (F || G)|y|"],
        [1, 0],
        2,
    )

    def test_items_are_expanded_lines(self):
        lines = self.LINES
        assert len(lines) == 2
        assert lines[0] == "A.m:0|x = 1;|x|F & G"
        assert lines[-1] == "A.m:1|y = 2;  #if (F || G)|y|!F"
        assert lines[0:1] == ["A.m:0|x = 1;|x|F & G"]
        assert list(reversed(lines)) == [lines[1], lines[0]]
        assert "A.m:0|x = 1;|x|F & G" in lines
        assert lines.index(lines[1]) == 1

    def test_rows_point_into_the_table(self):
        assert self.LINES.rows() == [
            "A.m:0|x = 1;|x|1",
            "A.m:1|y = 2;  #if (F || G)|y|0",
        ]

    def test_a_row_splits_at_its_last_pipe(self):
        lines = ResultLines.from_rows(self.LINES.constraints, self.LINES.rows(), 2)
        assert list(lines) == list(self.LINES)
        assert lines.rows() == self.LINES.rows()

    def test_digest_is_the_sha256_of_the_joined_lines(self):
        assert self.LINES.digest() == reference_digest(list(self.LINES))
        assert lines_digest(list(self.LINES)) == self.LINES.digest()

    def test_digest_streams_across_chunks(self, monkeypatch):
        import repro.core.solver as solver

        monkeypatch.setattr(solver, "_DIGEST_CHUNK", 1)
        assert self.LINES.digest() == reference_digest(list(self.LINES))
        assert lines_digest([]) == reference_digest([])


# ----------------------------------------------------------------------
# The 12 paper pairs (Tables 2/3)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def paper_pairs():
    pairs = []
    for name, build in paper_subjects():
        product_line = build()
        for analysis in PAPER_ANALYSES:
            job = AnalysisJob.from_product_line(product_line, analysis, label=name)
            results = SPLLift(
                resolve_analysis(analysis)(product_line.icfg),
                feature_model=product_line.feature_model,
            ).solve()
            pairs.append((job, results))
    return pairs


def test_paper_pairs_keep_the_head_order_contract(paper_pairs):
    assert len(paper_pairs) == 12
    for _, results in paper_pairs:
        assert_head_order_contract(results)


def test_paper_records_expand_to_the_reference_lines(paper_pairs):
    piped = 0
    for job, results in paper_pairs:
        record = build_record(job, results, solve_seconds=0.0)
        expected = reference_lines(results)
        assert list(expand_lines(record)) == expected
        assert record["result_digest"] == reference_digest(expected)
        assert record["constraints"] == sorted(set(record["constraints"]))
        piped += sum(
            1
            for (stmt, _), constraint in results.items()
            if "|" in str(stmt) and not constraint.is_false
        )
    # Statements render their `#if (A || B)` annotation: the rows whose
    # statement holds a `|` are there to be split at the last one.
    assert piped > 1000


# ----------------------------------------------------------------------
# Read back through every store backend
# ----------------------------------------------------------------------


@pytest.fixture(params=["dir", "sqlite", "http"])
def store(request, tmp_path):
    if request.param == "dir":
        yield open_store(str(tmp_path / "cache"))
        return
    if request.param == "sqlite":
        yield open_store(f"sqlite://{tmp_path / 'cache.db'}")
        return
    server = make_server(open_store(f"sqlite://{tmp_path / 'served.db'}"), port=0)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield open_store(f"http://{host}:{port}")
    finally:
        server.shutdown()
        thread.join(timeout=5)


@pytest.mark.parametrize("analysis", ["taint", "reaching_definitions"])
def test_record_read_back_expands_to_the_reference_lines(store, analysis):
    source = FIGURE1_SOURCE.replace("#ifdef (F)", "#ifdef (F || H)")
    product_line = ProductLine(name="fig1-or", source=source)
    job = AnalysisJob.from_product_line(product_line, analysis)
    results = SPLLift(resolve_analysis(analysis)(product_line.icfg)).solve()
    store.put(build_record(job, results, solve_seconds=0.0))
    record = store.get(job.digest)
    expected = reference_lines(results)
    assert any("#if (F || H)|" in line for line in expected)
    lines = expand_lines(record)
    assert list(lines) == expected
    assert lines.digest() == record["result_digest"] == reference_digest(expected)
