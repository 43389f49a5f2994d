"""The analysis service: batch scheduling, worker pool, result store.

The production layer over the single-shot :class:`~repro.core.SPLLift`
facade (see DESIGN.md §"Service architecture"):

- :mod:`repro.service.jobs` — content-addressed job model + manifests
  (flat job lists or dependency DAGs via :class:`BatchPlan`);
- :mod:`repro.service.backends` — pluggable result-store backends
  behind one protocol: directory (:mod:`repro.service.store`), sqlite,
  and HTTP, selected by URL-style spec (:func:`open_store`);
- :mod:`repro.service.server` — the ``spllift serve`` daemon sharing
  one store with a fleet of schedulers;
- :mod:`repro.service.worker` — the one lifted pass (parse → lower →
  ICFG → lift → solve), per-job execution and serialization;
- :mod:`repro.service.scheduler` — process-pool fan-out with per-job
  timeout, bounded crash retry, in-process fallback, and topological
  DAG dispatch with store-first edges.
"""

from repro.service.backends import (
    BACKEND_KINDS,
    HttpStore,
    RemoteStoreError,
    SqliteStore,
    StoreBackend,
    open_store,
)
from repro.service.jobs import (
    AnalysisJob,
    BatchPlan,
    ServiceError,
    canonical_analysis_name,
    canonical_feature_model_text,
    known_analyses,
    load_manifest,
    load_manifest_plan,
    paper_campaign_jobs,
    parse_manifest,
    parse_manifest_plan,
    resolve_analysis,
)
from repro.service.scheduler import (
    BatchReport,
    BatchScheduler,
    JobOutcome,
    run_batch,
)
from repro.service.server import make_server, serve_store
from repro.service.store import ResultStore, default_cache_dir
from repro.service.worker import build_record, execute_job, expand_lines

__all__ = [
    "AnalysisJob",
    "BACKEND_KINDS",
    "BatchPlan",
    "ServiceError",
    "BatchReport",
    "BatchScheduler",
    "HttpStore",
    "JobOutcome",
    "RemoteStoreError",
    "ResultStore",
    "SqliteStore",
    "StoreBackend",
    "run_batch",
    "build_record",
    "execute_job",
    "expand_lines",
    "canonical_analysis_name",
    "canonical_feature_model_text",
    "default_cache_dir",
    "known_analyses",
    "load_manifest",
    "load_manifest_plan",
    "make_server",
    "open_store",
    "paper_campaign_jobs",
    "parse_manifest",
    "parse_manifest_plan",
    "resolve_analysis",
    "serve_store",
]
