"""`repro.obs` — zero-dependency telemetry: metrics, tracing, progress,
flight recording and structured logging.

Import discipline: this package must import **only the standard
library** (plus its own submodules), because instrumented modules deep
inside ``repro`` import it during package initialization.  Those
modules use ``from repro.obs import runtime as obs`` — a submodule
import that is safe while ``repro/__init__`` is still executing.
"""

from repro.obs.flight import (
    FLIGHT_CAPACITY_ENV,
    FLIGHT_DIR_ENV,
    FLIGHT_SCHEMA,
    FlightRecorder,
    FlightTracer,
    load_flight_dump,
    load_spill,
    render_postmortem,
)
from repro.obs.log import LOG_ENV, EventLog, format_line, iter_log
from repro.obs.metrics import (
    HISTOGRAM_BOUNDS,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.progress import ProgressReporter
from repro.obs.runtime import (
    RUN_ID_ENV,
    TELEMETRY_ENV,
    absorb_payload,
    activate_worker,
    disable_log,
    disable_tracing,
    enable_log,
    enable_tracing,
    ensure_run_id,
    event_log,
    flight,
    flight_dump,
    log_event,
    metrics,
    progress,
    publish_stats,
    reset,
    run_id,
    set_progress,
    tracer,
    tracing_enabled,
    worker_payload,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    read_trace,
    summarize_trace,
    write_trace,
)

__all__ = [
    "HISTOGRAM_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
    "ProgressReporter",
    "RUN_ID_ENV",
    "TELEMETRY_ENV",
    "FLIGHT_SCHEMA",
    "FLIGHT_DIR_ENV",
    "FLIGHT_CAPACITY_ENV",
    "LOG_ENV",
    "EventLog",
    "FlightRecorder",
    "FlightTracer",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "read_trace",
    "summarize_trace",
    "write_trace",
    "load_flight_dump",
    "load_spill",
    "render_postmortem",
    "iter_log",
    "format_line",
    "absorb_payload",
    "activate_worker",
    "disable_log",
    "disable_tracing",
    "enable_log",
    "enable_tracing",
    "ensure_run_id",
    "event_log",
    "flight",
    "flight_dump",
    "log_event",
    "metrics",
    "progress",
    "publish_stats",
    "reset",
    "run_id",
    "set_progress",
    "tracer",
    "tracing_enabled",
    "worker_payload",
]
