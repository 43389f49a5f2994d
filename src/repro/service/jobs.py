"""The analysis-service job model: content-addressed analysis requests.

An analysis request is the tuple *(program digest, analysis name,
feature-model digest, fm_mode, solver options)*.  Two requests with the
same canonical content hash are the same job — no matter whether the
program arrived as a file path, inline source, or a generated benchmark
subject — which is what lets the result store serve warm re-runs without
touching the solver.

Canonical hashing:

- the **program digest** is the sha256 of the MiniJava source bytes
  (UTF-8, exactly as written — the parser is whitespace-sensitive enough
  that normalizing would risk aliasing distinct programs);
- the **feature-model digest** is the sha256 of the model's canonical
  textual rendering (:func:`canonical_feature_model_text`), so a model
  parsed from a file and the structurally identical model built
  programmatically hash the same;
- the **job digest** is the sha256 of a canonical JSON document over both
  digests plus analysis name, fm_mode, entry point and the *public*
  solver options (keys starting with ``_`` are test/debug hooks and do
  not change the result, so they are excluded).

The public options are the :data:`JOB_OPTIONS` — ``engine``,
``worklist_order`` and ``order_seed`` — and a job whose public options
name any other key, or a malformed value, is a :class:`ServiceError`
when it is built, before any job of its batch runs.

Batch manifests (``spllift batch <manifest>``) are JSON::

    {"jobs": [
        {"file": "shop.mj", "feature_model": "shop.fm",
         "analysis": "taint", "fm_mode": "edge"},
        {"subject": "GPL-like", "analysis": "possible_types"}
    ]}

or, for the paper's Table 2/3 campaign, simply ``{"campaign": "paper"}``
(the 12 subject×analysis jobs).

Manifests may also be dependency **DAGs**: a job entry can carry an
``id`` (any unique string) and ``after`` (a list of predecessor ids)::

    {"jobs": [
        {"id": "rd",    "subject": "GPL-like", "analysis": "rd"},
        {"id": "types", "subject": "GPL-like", "analysis": "types"},
        {"id": "uninit", "subject": "GPL-like", "analysis": "uninit",
         "after": ["rd", "types"]}
    ]}

:func:`parse_manifest_plan` returns the :class:`BatchPlan` (jobs +
dependency edges, validated acyclic with every id resolved); the
scheduler dispatches jobs in topological order as their predecessors
complete.  Edges are *ordering* constraints — results stay
content-addressed per job, so a dependency already present in the
result store satisfies its edges without running ("store-first edges").
Unknown ids, duplicate ids, self-edges and cycles are
:class:`ServiceError`\\ s (CLI exit 2).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.datalog import resolve_engine
from repro.featuremodel.model import FeatureModel
from repro.featuremodel.printer import render_feature_model
from repro.ifds.worklist import IDE_DEFAULT_ORDER, resolve_worklist_order
from repro.ifds.problem import IFDSProblem
from repro.ir.icfg import ICFG
from repro.utils.files import read_utf8

__all__ = [
    "ServiceError",
    "AnalysisJob",
    "ANALYSIS_ALIASES",
    "JOB_OPTIONS",
    "BatchPlan",
    "canonical_analysis_name",
    "resolve_analysis",
    "known_analyses",
    "canonical_feature_model_text",
    "load_manifest",
    "load_manifest_plan",
    "parse_manifest",
    "parse_manifest_plan",
    "paper_campaign_jobs",
    "read_text",
]

JOB_SCHEMA = "spllift-job/v1"


class ServiceError(ValueError):
    """A user-facing analysis-service error (bad manifest, unknown
    analysis, unreadable input) — rendered as a clean one-line message by
    the CLI, never as a traceback."""


# ----------------------------------------------------------------------
# Analysis registry
# ----------------------------------------------------------------------

#: alias -> canonical snake_case analysis name.
ANALYSIS_ALIASES: Dict[str, str] = {
    "taint": "taint",
    "uninit": "uninitialized_variables",
    "uninitialized_variables": "uninitialized_variables",
    "uninitialized variables": "uninitialized_variables",
    "nullness": "nullness",
    "types": "possible_types",
    "possible_types": "possible_types",
    "possible types": "possible_types",
    "rd": "reaching_definitions",
    "reaching_definitions": "reaching_definitions",
    "reaching definitions": "reaching_definitions",
    "typestate": "typestate",
}


def _analysis_factories() -> Dict[str, Callable[[ICFG], IFDSProblem]]:
    # Imported lazily so `repro.service.jobs` stays importable from a bare
    # worker bootstrap without dragging every analysis module in up front.
    from repro.analyses import (
        NullnessAnalysis,
        PossibleTypesAnalysis,
        ReachingDefinitionsAnalysis,
        TaintAnalysis,
        UninitializedVariablesAnalysis,
    )
    from repro.analyses.typestate import FILE_PROTOCOL, TypestateAnalysis

    return {
        "taint": TaintAnalysis,
        "uninitialized_variables": UninitializedVariablesAnalysis,
        "nullness": NullnessAnalysis,
        "possible_types": PossibleTypesAnalysis,
        "reaching_definitions": ReachingDefinitionsAnalysis,
        "typestate": lambda icfg: TypestateAnalysis(icfg, FILE_PROTOCOL),
    }


def known_analyses() -> Tuple[str, ...]:
    """The canonical analysis names, sorted."""
    return tuple(sorted(set(ANALYSIS_ALIASES.values())))


def canonical_analysis_name(name: str) -> str:
    """Normalize an analysis name or alias; raise :class:`ServiceError`
    for unknown names."""
    canonical = ANALYSIS_ALIASES.get(str(name).strip().lower())
    if canonical is None:
        raise ServiceError(
            f"unknown analysis {name!r} (known: {', '.join(known_analyses())})"
        )
    return canonical


def resolve_analysis(name: str) -> Callable[[ICFG], IFDSProblem]:
    """The factory building the (unlifted) IFDS problem for ``name``."""
    return _analysis_factories()[canonical_analysis_name(name)]


# ----------------------------------------------------------------------
# Canonical feature-model text
# ----------------------------------------------------------------------


def canonical_feature_model_text(model: Optional[FeatureModel]) -> str:
    """The model's canonical textual form ("" for no/empty model).

    Uses the round-trippable printer; a rootless model (the default
    ``FeatureModel()``, which constrains nothing) canonicalizes to the
    empty string so that "no feature model" hashes identically however it
    was expressed.
    """
    if model is None or model.root is None:
        if model is not None and model.cross_tree:
            # Rootless but constrained: canonicalize the constraints alone.
            return "".join(f"constraint {f};\n" for f in model.cross_tree)
        return ""
    return render_feature_model(model)


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The job itself
# ----------------------------------------------------------------------

#: The public job options — the ``SPLLift.solve`` keyword arguments a job
#: may set — each with the check its value must pass.
JOB_OPTIONS: Dict[str, Callable[[object], object]] = {
    "engine": resolve_engine,
    "worklist_order": partial(resolve_worklist_order, default=IDE_DEFAULT_ORDER),
    "order_seed": int,
}


@dataclass(frozen=True)
class AnalysisJob:
    """One content-addressed analysis request."""

    label: str
    source: str
    analysis: str
    feature_model_text: str = ""
    fm_mode: str = "edge"
    entry: str = "Main.main"
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "analysis", canonical_analysis_name(self.analysis)
        )
        if self.fm_mode not in ("edge", "seed", "ignore"):
            raise ServiceError(
                f"fm_mode must be edge/seed/ignore, got {self.fm_mode!r}"
            )
        self.solve_options()  # reject unknown or malformed options now

    def solve_options(self) -> Dict[str, object]:
        """The ``SPLLift.solve`` keyword arguments the public options
        set, each value checked by its :data:`JOB_OPTIONS` entry.

        Raises :class:`ServiceError` naming an unknown or malformed
        option; ``_``-prefixed test hooks are not checked.
        """
        selected: Dict[str, object] = {}
        for key, value in self.public_options.items():
            check = JOB_OPTIONS.get(key)
            if check is None:
                raise ServiceError(
                    f"unknown job option {key!r} "
                    f"(known: {', '.join(sorted(JOB_OPTIONS))})"
                )
            try:
                selected[key] = check(value)
            except (TypeError, ValueError) as error:
                raise ServiceError(f"job option {key!r}: {error}") from None
        return selected

    # -- digests -------------------------------------------------------

    @property
    def program_digest(self) -> str:
        return _sha256_text(self.source)

    @property
    def feature_model_digest(self) -> str:
        return _sha256_text(self.feature_model_text)

    @property
    def public_options(self) -> Dict[str, object]:
        """Solver options that affect the result (``_``-prefixed keys are
        test/debug hooks, excluded from the identity)."""
        return {
            key: self.options[key]
            for key in sorted(self.options)
            if not key.startswith("_")
        }

    @property
    def digest(self) -> str:
        """The job's content hash — the result store key."""
        document = json.dumps(
            {
                "schema": JOB_SCHEMA,
                "program": self.program_digest,
                "feature_model": self.feature_model_digest,
                "analysis": self.analysis,
                "fm_mode": self.fm_mode,
                "entry": self.entry,
                "options": self.public_options,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return _sha256_text(document)

    def describe(self) -> Dict[str, object]:
        """Job metadata in the shape stored records and reports carry."""
        return {
            "label": self.label,
            "analysis": self.analysis,
            "fm_mode": self.fm_mode,
            "entry": self.entry,
            "program_digest": self.program_digest,
            "feature_model_digest": self.feature_model_digest,
            "options": self.public_options,
        }

    # -- constructors --------------------------------------------------

    @classmethod
    def from_product_line(
        cls,
        product_line,
        analysis: str,
        fm_mode: str = "edge",
        label: Optional[str] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> "AnalysisJob":
        """Build a job from an in-memory :class:`ProductLine`."""
        return cls(
            label=label if label is not None else product_line.name,
            source=product_line.source,
            analysis=analysis,
            feature_model_text=canonical_feature_model_text(
                product_line.feature_model
            ),
            fm_mode=fm_mode,
            entry=product_line.entry,
            options=dict(options or {}),
        )

    @classmethod
    def from_files(
        cls,
        file: str,
        analysis: str,
        feature_model: Optional[str] = None,
        fm_mode: str = "edge",
        entry: str = "Main.main",
        options: Optional[Mapping[str, object]] = None,
        base_dir: Optional[Path] = None,
    ) -> "AnalysisJob":
        """Build a job from a source file (+ optional feature-model file).

        The feature model is parsed and canonically re-rendered so the
        digest is representation-independent; unreadable or unparseable
        inputs raise :class:`ServiceError`.
        """
        base = Path(base_dir) if base_dir is not None else Path(".")
        source_path = Path(file)
        if not source_path.is_absolute():
            source_path = base / source_path
        source = read_text(source_path)
        fm_text = ""
        if feature_model:
            fm_path = Path(feature_model)
            if not fm_path.is_absolute():
                fm_path = base / fm_path
            fm_text = canonical_feature_model_text(
                _parse_fm(read_text(fm_path), fm_path)
            )
        return cls(
            label=str(file),
            source=source,
            analysis=analysis,
            feature_model_text=fm_text,
            fm_mode=fm_mode,
            entry=entry,
            options=dict(options or {}),
        )

    def feature_model(self) -> FeatureModel:
        """The job's feature model, parsed back from canonical text."""
        if not self.feature_model_text:
            return FeatureModel()
        if self.feature_model_text.startswith("constraint "):
            # The rootless canonical form (constraints only) is not part
            # of the textual grammar, which always requires a root.
            from repro.constraints.formula import parse_formula

            formulas = []
            for line in self.feature_model_text.splitlines():
                body = line.strip()[len("constraint "):].rstrip(";")
                formulas.append(parse_formula(body))
            return FeatureModel(cross_tree=formulas)
        return _parse_fm(self.feature_model_text, None)


def read_text(path) -> str:
    """The text of an input file (source, feature model, manifest).

    Decoded as UTF-8, the encoding a job digest hashes a program in; an
    unreadable or undecodable file is a :class:`ServiceError` naming it.
    """
    try:
        return read_utf8(path)
    except OSError as error:
        raise ServiceError(f"cannot read {path}: {error.strerror}") from error
    except ValueError as error:
        raise ServiceError(str(error)) from None


def _parse_fm(text: str, path: Optional[Path]) -> FeatureModel:
    from repro.featuremodel import FeatureModelError, parse_feature_model

    try:
        return parse_feature_model(text)
    except FeatureModelError as error:
        where = f" in {path}" if path is not None else ""
        raise ServiceError(f"bad feature model{where}: {error}") from error


# ----------------------------------------------------------------------
# Campaigns and manifests
# ----------------------------------------------------------------------

_SUBJECT_BUILDERS: Dict[str, str] = {
    # name -> attribute on repro.spl.benchmarks
    "BerkeleyDB-like": "berkeleydb_like",
    "GPL-like": "gpl_like",
    "Lampiro-like": "lampiro_like",
    "MM08-like": "mm08_like",
}

#: The paper's Table 2/3 client lineup, canonical names, table order.
PAPER_CAMPAIGN_ANALYSES = (
    "possible_types",
    "reaching_definitions",
    "uninitialized_variables",
)


def _build_subject(name: str):
    import repro.spl.benchmarks as benchmarks

    attribute = _SUBJECT_BUILDERS.get(name)
    if attribute is None:
        raise ServiceError(
            f"unknown benchmark subject {name!r} "
            f"(known: {', '.join(sorted(_SUBJECT_BUILDERS))})"
        )
    return getattr(benchmarks, attribute)()


def paper_campaign_jobs(
    subjects: Optional[Tuple[str, ...]] = None,
    analyses: Tuple[str, ...] = PAPER_CAMPAIGN_ANALYSES,
    fm_mode: str = "edge",
) -> List[AnalysisJob]:
    """The Table 2/3 batch: 4 subjects × 3 analyses = 12 jobs."""
    names = subjects if subjects is not None else tuple(_SUBJECT_BUILDERS)
    jobs = []
    for name in names:
        product_line = _build_subject(name)
        for analysis in analyses:
            jobs.append(
                AnalysisJob.from_product_line(
                    product_line, analysis, fm_mode=fm_mode, label=name
                )
            )
    return jobs


@dataclass(frozen=True)
class BatchPlan:
    """A validated batch: jobs plus their dependency edges.

    ``dependencies[i]`` holds the indices of the jobs that must complete
    before ``jobs[i]`` may run; ``ids[i]`` is the manifest id (auto-named
    ``#<position>`` when the entry declared none).  Construction via
    :func:`parse_manifest_plan` guarantees the edge list is acyclic and
    every referenced id exists.
    """

    jobs: Tuple[AnalysisJob, ...]
    ids: Tuple[str, ...]
    dependencies: Tuple[Tuple[int, ...], ...]

    @property
    def has_dependencies(self) -> bool:
        return any(self.dependencies)

    def topological_order(self) -> List[int]:
        """Job indices in a dependency-respecting order (Kahn's
        algorithm, stable by position); raises :class:`ServiceError`
        naming the jobs on a cycle."""
        indegree = [len(set(deps)) for deps in self.dependencies]
        dependents: Dict[int, List[int]] = {}
        for index, deps in enumerate(self.dependencies):
            for dep in set(deps):
                dependents.setdefault(dep, []).append(index)
        ready = [index for index, count in enumerate(indegree) if count == 0]
        order: List[int] = []
        while ready:
            index = ready.pop(0)
            order.append(index)
            for dependent in dependents.get(index, ()):
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self.jobs):
            stuck = sorted(
                self.ids[index]
                for index, count in enumerate(indegree)
                if count > 0
            )
            raise ServiceError(
                "dependency cycle in manifest involving: " + ", ".join(stuck)
            )
        return order


def parse_manifest(document: object, base_dir: Path) -> List[AnalysisJob]:
    """Turn a decoded manifest document into jobs (see module docstring)."""
    return list(parse_manifest_plan(document, base_dir).jobs)


def parse_manifest_plan(document: object, base_dir: Path) -> BatchPlan:
    """Turn a decoded manifest document into a validated
    :class:`BatchPlan` (jobs + dependency DAG, see module docstring)."""
    if not isinstance(document, dict):
        raise ServiceError("manifest must be a JSON object")
    campaign = document.get("campaign")
    jobs: List[AnalysisJob] = []
    ids: List[str] = []
    after: List[Tuple[str, ...]] = []
    if campaign is not None:
        if campaign != "paper":
            raise ServiceError(
                f"unknown campaign {campaign!r} (known: paper)"
            )
        for job in paper_campaign_jobs():
            jobs.append(job)
            ids.append(f"#{len(ids)}")
            after.append(())
    entries = document.get("jobs", [])
    if not isinstance(entries, list):
        raise ServiceError('manifest "jobs" must be a list')
    for position, entry in enumerate(entries):
        jobs.append(_job_from_spec(entry, position, base_dir))
        job_id, predecessors = _edges_from_spec(entry, position)
        ids.append(job_id if job_id is not None else f"#{len(ids)}")
        after.append(predecessors)
    if not jobs:
        raise ServiceError("manifest contains no jobs")
    seen: Dict[str, int] = {}
    for index, job_id in enumerate(ids):
        if job_id in seen:
            raise ServiceError(f"duplicate job id {job_id!r} in manifest")
        seen[job_id] = index
    dependencies: List[Tuple[int, ...]] = []
    for index, predecessors in enumerate(after):
        resolved = []
        for predecessor in predecessors:
            target = seen.get(predecessor)
            if target is None:
                raise ServiceError(
                    f"job {ids[index]!r}: unknown dependency id "
                    f"{predecessor!r}"
                )
            if target == index:
                raise ServiceError(
                    f"job {ids[index]!r} cannot depend on itself"
                )
            resolved.append(target)
        dependencies.append(tuple(resolved))
    plan = BatchPlan(
        jobs=tuple(jobs), ids=tuple(ids), dependencies=tuple(dependencies)
    )
    plan.topological_order()  # raises on cycles — validate at parse time
    return plan


def _edges_from_spec(
    entry: object, position: int
) -> Tuple[Optional[str], Tuple[str, ...]]:
    """The (id, after) pair of one manifest entry, type-checked."""
    if not isinstance(entry, dict):
        return None, ()  # _job_from_spec already rejected it
    job_id = entry.get("id")
    if job_id is not None and (not isinstance(job_id, str) or not job_id):
        raise ServiceError(f'job #{position}: "id" must be a non-empty string')
    predecessors = entry.get("after", [])
    if not isinstance(predecessors, list) or not all(
        isinstance(item, str) for item in predecessors
    ):
        raise ServiceError(f'job #{position}: "after" must be a list of job ids')
    return job_id, tuple(predecessors)


def _job_from_spec(entry: object, position: int, base_dir: Path) -> AnalysisJob:
    if not isinstance(entry, dict):
        raise ServiceError(f"job #{position}: each job must be a JSON object")
    analysis = entry.get("analysis")
    if not analysis:
        raise ServiceError(f'job #{position}: missing "analysis"')
    fm_mode = entry.get("fm_mode", "edge")
    options = entry.get("options", {})
    if not isinstance(options, dict):
        raise ServiceError(f'job #{position}: "options" must be an object')
    subject = entry.get("subject")
    if subject is not None:
        product_line = _build_subject(subject)
        return AnalysisJob.from_product_line(
            product_line,
            analysis,
            fm_mode=fm_mode,
            label=entry.get("label", subject),
            options=options,
        )
    file = entry.get("file")
    if file is None and "source" not in entry:
        raise ServiceError(
            f'job #{position}: needs one of "file", "subject" or "source"'
        )
    if file is not None:
        return AnalysisJob.from_files(
            file,
            analysis,
            feature_model=entry.get("feature_model"),
            fm_mode=fm_mode,
            entry=entry.get("entry", "Main.main"),
            options=options,
            base_dir=base_dir,
        )
    fm_text = entry.get("feature_model_text", "")
    if fm_text:
        fm_text = canonical_feature_model_text(_parse_fm(fm_text, None))
    return AnalysisJob(
        label=entry.get("label", f"job-{position}"),
        source=entry["source"],
        analysis=analysis,
        feature_model_text=fm_text,
        fm_mode=fm_mode,
        entry=entry.get("entry", "Main.main"),
        options=options,
    )


def load_manifest(path: str) -> List[AnalysisJob]:
    """Read and parse a batch manifest file (jobs only)."""
    return list(load_manifest_plan(path).jobs)


def load_manifest_plan(path: str) -> BatchPlan:
    """Read and parse a batch manifest file into a :class:`BatchPlan`."""
    manifest_path = Path(path)
    text = read_text(manifest_path)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise ServiceError(f"bad manifest {path}: {error}") from error
    return parse_manifest_plan(document, manifest_path.parent)
