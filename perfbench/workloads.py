"""The three workloads: inputs drawn from a seed, the ops, their outputs.

Imported only inside a workload process (``child.py``), after ``src/``
is on ``sys.path``.  Everything the ops call is a public entry point of
the program: ``repro.service.run_batch``, ``repro.baselines.solve_a2``
and ``repro.cli.main``.  Each is looked up on its module at call time,
so the traced pass sees the wrappers ``tracing.py`` installs there.

Seeds.  Seed 0 (``DEFAULT_SEED``) runs the paper subjects exactly as
``repro.spl.benchmarks`` builds them.  Any other seed runs an isomorphic
variant of each: classes and methods are declared in another order and
every generated identifier is renamed by a seeded bijection within its
family (classes, methods, fields, locals).  Feature names and the
feature model stay.  The variant changes every input byte, digest and
output line, but not the amount of work: the exact solver counters are
identical across seeds.  Redrawing the subjects from other generator
seeds instead changes the work per pass several-fold (GPL-like
reaching-definitions jump functions ranged 902–21,693 over 25 redraws),
which no run-to-run bound could absorb.  The seed also draws the edit
targets of ``edit_loop`` and the configuration order of ``a2_sweep``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import shutil
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import repro.baselines.a2 as a2
import repro.cli as cli
import repro.service as service
from repro.analyses import PossibleTypesAnalysis, UninitializedVariablesAnalysis
from repro.featuremodel import render_feature_model
from repro.minijava.parser import parse_program
from repro.minijava.pretty import pretty_print
from repro.spl.benchmarks import gpl_like, mm08_like, paper_subjects
from repro.spl.edits import apply_scripted_edit, dirty_closure
from repro.spl.product_line import ProductLine

DEFAULT_SEED = 0

#: Identifier families of the subject generator, renamed within family.
_FAMILIES = tuple(
    re.compile(pattern)
    for pattern in (r"C\d+", r"c\d+_m\d+", r"state\d+", r"dep\d+", r"v\d+", r"p\d+", r"o\d+")
)
_IDENTIFIER = re.compile(r"\b[A-Za-z_]\w*\b")

#: An op: (op id, call).  The call's return value goes to ``rows``.
Op = Tuple[str, Callable[[], object]]
#: An output row: [op id, began, ended (``time.perf_counter`` readings),
#: output fingerprint or None, error or None].
Row = list


def variant(product_line: ProductLine, seed: int) -> ProductLine:
    """The seed's isomorphic variant of a subject (itself for seed 0)."""
    if seed == DEFAULT_SEED:
        return product_line
    rng = random.Random(f"{product_line.name}:{seed}")
    program = parse_program(product_line.source)
    rng.shuffle(program.classes)
    for cls in program.classes:
        rng.shuffle(cls.methods)
    text = pretty_print(program, with_annotations=True)
    names = set(_IDENTIFIER.findall(text))
    mapping: Dict[str, str] = {}
    for family in _FAMILIES:
        members = sorted(name for name in names if family.fullmatch(name))
        shuffled = list(members)
        rng.shuffle(shuffled)
        mapping.update(zip(members, shuffled))
    text = _IDENTIFIER.sub(lambda match: mapping.get(match.group(0), match.group(0)), text)
    return ProductLine(
        name=product_line.name,
        source=text,
        feature_model=product_line.feature_model,
        entry=product_line.entry,
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """An op's call returns one output row by default; a workload whose
    call covers several outputs (``Campaign``) overrides ``rows`` and
    ``failed``."""

    def begin_pass(self) -> None:
        pass

    def end_pass(self) -> None:
        pass

    def rows(self, op_id: str, began: float, ended: float, outcome) -> Tuple[List[Row], Dict[str, int]]:
        fingerprint, counts = self.fingerprint(outcome)
        return [[op_id, began, ended, fingerprint, None]], counts

    def failed(self, op_id: str, began: float, ended: float, error: str) -> List[Row]:
        return [[op_id, began, ended, None, error]]


class Campaign(Workload):
    """The paper's Table 2/3 lifted campaign, cold: 4 subjects × 3
    analyses as one ``run_batch(jobs, store, use_pool=False)``, the call
    ``spllift batch --no-pool`` makes.  A pass is that one batch against
    a fresh, empty directory store.  Its output rows are the batch
    report's jobs.  The batch runs them back to back from its start
    (before them it only looks the 12 digests up in the empty store;
    after them come the 12 puts), so job k is taken to span the
    report's seconds of job k from the end of job k-1."""

    name = "campaign"
    analyses = ("possible_types", "reaching_definitions", "uninitialized_variables")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.jobs = []
        for name, build in paper_subjects():
            product_line = variant(build(), seed)
            for analysis in self.analyses:
                self.jobs.append(
                    service.AnalysisJob.from_product_line(product_line, analysis, label=name)
                )
        self._passes = 0
        self._store_dir = self._store = None

    @staticmethod
    def key(job) -> str:
        return f"{job.label}/{job.analysis}"

    def begin_pass(self) -> None:
        self._passes += 1
        self._store_dir = self.workdir / f"store-{self._passes}"
        self._store = service.ResultStore(self._store_dir)

    def end_pass(self) -> None:
        shutil.rmtree(self._store_dir, ignore_errors=True)

    def ops(self) -> Iterator[Op]:
        yield "batch", lambda: service.run_batch(self.jobs, self._store, use_pool=False)

    def rows(self, op_id: str, began: float, ended: float, report) -> Tuple[List[Row], Dict[str, int]]:
        rows = []
        for outcome in report.outcomes:
            error = None if outcome.status == "computed" else f"{outcome.status}: {outcome.error}"
            rows.append([self.key(outcome.job), began, began + outcome.seconds, outcome.result_digest, error])
            began += outcome.seconds
        return rows, {}

    def failed(self, op_id: str, began: float, ended: float, error: str) -> List[Row]:
        return [[self.key(job), began, ended, None, error] for job in self.jobs]


class A2Sweep(Workload):
    """The paper's per-configuration baseline A2 over every valid
    configuration of GPL-like and MM08-like, for possible_types and
    uninitialized_variables: one ``solve_a2`` per op, no time cutoff."""

    name = "a2_sweep"
    analyses = (
        ("possible_types", PossibleTypesAnalysis),
        ("uninitialized_variables", UninitializedVariablesAnalysis),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        #: (group key, analysis instance, configurations, product line)
        self.groups: List[Tuple[str, object, list, ProductLine]] = []
        #: Rendered ``location|statement|`` per statement, shared by every
        #: configuration of a subject (statement identities are shared).
        self.prefix: Dict[object, str] = {}
        self._line_hash: Dict[tuple, int] = {}
        #: Valid configurations enumerated in setup, and the time it took
        #: (the traced run's featuremodel.configs and .configs_s).
        self.configurations = 0
        self.configs_s = 0.0
        rng = random.Random(f"a2_sweep:{seed}")
        for name, build in (("GPL-like", gpl_like), ("MM08-like", mm08_like)):
            product_line = variant(build(), seed)
            started = time.perf_counter()
            configurations = list(product_line.valid_configurations())
            self.configs_s += time.perf_counter() - started
            self.configurations += len(configurations)
            for statement in product_line.icfg.reachable_instructions():
                self.prefix[statement] = f"{statement.location}|{statement}|"
            for analysis, problem in self.analyses:
                order = list(configurations)
                rng.shuffle(order)
                inner = problem(product_line.icfg)
                self.groups.append((f"{name}/{analysis}", inner, order, product_line))

    @staticmethod
    def key(group: str, configuration) -> str:
        return f"{group}/{'+'.join(sorted(configuration)) or '-'}"

    def ops(self) -> Iterator[Op]:
        for group, inner, configurations, _ in self.groups:
            for configuration in configurations:
                yield self.key(group, configuration), (
                    lambda inner=inner, configuration=configuration: a2.solve_a2(inner, configuration)
                )

    def fingerprint(self, results) -> Tuple[str, Dict[str, int]]:
        pairs = ((statement, fact) for statement in results.statements() for fact in results.at(statement))
        return a2_digest(pairs, self.prefix, self._line_hash), {}


def a2_digest(pairs, prefix: Dict[object, str], memo: Dict[tuple, int]) -> str:
    """Order-independent digest of an A2 result's (statement, fact) pairs:
    their count and the sum mod 2**64 of each ``location|statement|fact``
    line's sha256 prefix.  ``prefix`` holds the rendered
    ``location|statement|`` per statement; ``memo`` caches each line's
    hash, so an op after the first few costs one lookup per fact."""
    total = count = 0
    for pair in pairs:
        value = memo.get(pair)
        if value is None:
            statement, fact = pair
            line = f"{prefix[statement]}{fact!r}".encode("utf-8")
            value = memo[pair] = int.from_bytes(hashlib.sha256(line).digest()[:8], "big")
        total += value
        count += 1
    return f"{count}:{total % 2**64:016x}"


class EditLoop(Workload):
    """The developer edit loop: ``spllift analyze EDIT --incremental-cache
    DIR`` in-process through ``repro.cli.main``: five one-method edits per
    paper subject (see ``edit_targets``), each analysed for both analyses
    (40 ops), every pass starting from the same cold-populated summary
    store."""

    name = "edit_loop"
    analyses = (("possible_types", "types"), ("uninitialized_variables", "uninit"))
    edits = 5

    def __init__(self, seed: int, workdir: Path, populate: bool = True) -> None:
        self.workdir = workdir
        self.template = workdir / "summaries"
        self.inputs: List[Tuple[str, List[str]]] = []
        self.cold: List[Tuple[str, List[str]]] = []
        for name, build in paper_subjects():
            product_line = variant(build(), seed)
            stem = name.lower().replace("-like", "")
            source = workdir / f"{stem}.mj"
            source.write_text(product_line.source)
            model = workdir / f"{stem}.fm"
            model.write_text(render_feature_model(product_line.feature_model))
            rng = random.Random(f"edit_loop:{seed}:{name}")
            edits = []
            for index, target in enumerate(edit_targets(product_line, self.edits, rng)):
                edited = workdir / f"{stem}-{index}.mj"
                edited.write_text(apply_scripted_edit(product_line.source, target))
                edits.append((f"{index}:{target}", edited))
            for analysis, flag in self.analyses:
                common = ["--feature-model", str(model), "--analysis", flag]
                self.cold.append((f"{name}/{analysis}", ["analyze", str(source), *common]))
                for label, edited in edits:
                    self.inputs.append((f"{name}/{analysis}/{label}", ["analyze", str(edited), *common]))
        if populate:
            for _, argv in self.cold:
                analyze(argv + ["--incremental-cache", str(self.template)])
        self._store = None

    def begin_pass(self) -> None:
        self._store = self.workdir / "pass-store"
        shutil.rmtree(self._store, ignore_errors=True)
        shutil.copytree(self.template, self._store)

    def end_pass(self) -> None:
        shutil.rmtree(self._store, ignore_errors=True)

    def ops(self) -> Iterator[Op]:
        for key, argv in self.inputs:
            yield key, lambda argv=argv: analyze(argv + ["--incremental-cache", str(self._store)])

    @staticmethod
    def fingerprint(outcome) -> Tuple[str, Dict[str, int]]:
        code, stdout = outcome
        return edit_fingerprint(code, stdout), {"cli.findings": findings_printed(stdout)}


def edit_targets(product_line: ProductLine, count: int, rng: random.Random) -> List[str]:
    """One method from each of ``count`` equal strata of the reachable
    non-entry methods ranked by dirty-closure size, so every seed edits a
    like mix of leaf and widely-called methods.  Within a stratum the
    seed draws among the methods whose closure is as large as the
    stratum's middle one: a draw across the whole stratum changed the
    work of an edit with the seed (BerkeleyDB-like's top stratum holds
    closures of 22 to 46 methods)."""
    icfg = product_line.icfg
    graph = icfg.call_graph
    entries = set(icfg.entry_points)
    ranked = sorted(
        (len(dirty_closure(graph, method)), method.qualified_name)
        for method in graph.reachable_methods
        if method not in entries
    )
    targets = []
    for k in range(count):
        stratum = ranked[len(ranked) * k // count : len(ranked) * (k + 1) // count]
        size = stratum[len(stratum) // 2][0]
        targets.append(rng.choice([name for closure, name in stratum if closure == size]))
    return targets


def analyze(argv: List[str]) -> Tuple[int, str]:
    """``spllift analyze ...`` in-process; returns (exit code, stdout).
    Exit 1 only means findings were printed; exit 2 (an error) raises.
    Stderr (the one-line summary-reuse report) is discarded."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code not in (0, 1):
        raise RuntimeError(f"spllift exited {code}: {stderr.getvalue().strip()}")
    return code, stdout.getvalue()


def edit_fingerprint(code: int, stdout: str) -> str:
    """Exit code and sha256 of the headline plus the sorted findings.

    Sorted because ``--analysis types`` prints its findings in an order
    that changes with ``PYTHONHASHSEED`` (same findings, three stdout
    digests for three hash seeds), and the reference runs in another
    process than the op."""
    lines = stdout.splitlines()
    body = lines[1:]
    findings = sorted("\n".join(body[i : i + 2]) for i in range(0, len(body), 2))
    return f"{code}:{_sha256(chr(10).join(lines[:1] + findings))}"


def findings_printed(stdout: str) -> int:
    """The N of the ``<analysis>: N finding(s)`` headline (0 if none)."""
    match = re.match(r"\S+: (\d+) finding", stdout)
    return int(match.group(1)) if match else 0


WORKLOADS = {cls.name: cls for cls in (Campaign, A2Sweep, EditLoop)}
