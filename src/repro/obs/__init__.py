"""`repro.obs` — zero-dependency telemetry: metrics, tracing, progress,
flight recording and structured logging.

Events travel one path per process: the one tracer sends every span
and complete span to the always-on flight ring and, while a trace file
is recorded, to its Chrome buffer; :func:`pulse` is the one heartbeat
of long-running loops (ring, plus the ``--progress`` line);
:func:`log_event` writes the ring and, with ``--log``, the JSONL file.

Import discipline: this package must import **only the standard
library** (plus its own submodules), because instrumented modules deep
inside ``repro`` import it during package initialization.  Those
modules use ``from repro.obs import runtime as obs`` — a submodule
import that is safe while ``repro/__init__`` is still executing.
"""

from repro.obs.flight import (
    FLIGHT_DIR_ENV,
    FLIGHT_SCHEMA,
    FlightRecorder,
    load_flight_dump,
    load_spill,
    render_postmortem,
)
from repro.obs.log import LOG_ENV, EventLog, format_line, iter_log, parse_line
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
    flight,
    flight_dump,
    log_event,
    metrics,
    progress,
    publish_stats,
    pulse,
    reset,
    run_id,
    set_progress,
    tracer,
    worker_payload,
    write_outputs,
)
from repro.obs.trace import (
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
    "LOG_ENV",
    "EventLog",
    "FlightRecorder",
    "Tracer",
    "read_trace",
    "summarize_trace",
    "write_trace",
    "load_flight_dump",
    "load_spill",
    "render_postmortem",
    "iter_log",
    "parse_line",
    "format_line",
    "absorb_payload",
    "activate_worker",
    "disable_log",
    "disable_tracing",
    "enable_log",
    "enable_tracing",
    "ensure_run_id",
    "flight",
    "flight_dump",
    "log_event",
    "metrics",
    "progress",
    "publish_stats",
    "pulse",
    "reset",
    "run_id",
    "set_progress",
    "tracer",
    "worker_payload",
    "write_outputs",
]
