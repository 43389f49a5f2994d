"""Process fan-out at job granularity: one worker process per task.

:class:`ProcessTaskPool` runs ``(callable, args)`` tasks over
short-lived worker processes.  It backs every fan-out in the project —
the :class:`~repro.service.scheduler.BatchScheduler`, the Table 2/3
campaign cells and the A2 configuration waves — with one process per
task attempt (SIGKILL-safe, no ``BrokenProcessPool``), bounded crash
retry, per-task timeout, and graceful inline degradation when processes
cannot be spawned.  The wait loop blocks on
:func:`multiprocessing.connection.wait` over the result pipes *and* the
process sentinels, with the timeout derived from the nearest task
deadline — no polling, no busy-wait.

A single lifted solve is always sequential: partitioning one solve by
seed across processes measured slower than solving it in one process,
so parallelism lives only at the granularity of whole jobs.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import shutil
import signal
import tempfile
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.obs import runtime as obs
from repro.obs.flight import FLIGHT_DIR_ENV, load_spill

__all__ = [
    "PARALLEL_ENV",
    "resolve_parallel",
    "TaskOutcome",
    "ProcessTaskPool",
]

#: Environment default for every ``parallel=None`` fan-out: the
#: experiment runners' Table 2/3 cells and A2 configuration waves.
PARALLEL_ENV = "SPLLIFT_PARALLEL"

#: Set in worker processes: gates the service's fault-injection hooks and
#: pins nested parallelism to 1 (a forked worker must not fork a pool of
#: its own).
_WORKER_ENV = "SPLLIFT_WORKER"

#: TaskOutcome.status values.
COMPUTED, FAILED = "computed", "failed"


def resolve_parallel(parallel: Optional[int] = None) -> int:
    """Resolve a ``parallel=`` argument to a worker count.

    ``None`` falls back to ``$SPLLIFT_PARALLEL`` (unset/empty means 1 —
    sequential); ``0`` or negative means "one worker per CPU".
    """
    if parallel is None:
        raw = os.environ.get(PARALLEL_ENV, "").strip()
        if not raw:
            return 1
        try:
            parallel = int(raw)
        except ValueError:
            raise ValueError(
                f"${PARALLEL_ENV} must be an integer, got {raw!r}"
            ) from None
    parallel = int(parallel)
    if parallel <= 0:
        return max(1, os.cpu_count() or 1)
    return parallel


# ======================================================================
# Generic process-pool engine
# ======================================================================


@dataclasses.dataclass
class TaskOutcome:
    """What happened to one task of a :meth:`ProcessTaskPool.run` batch."""

    index: int
    status: str  # computed | failed
    attempts: int = 1
    seconds: float = 0.0
    result: object = None
    error: Optional[str] = None
    executor: str = "pool"  # pool | inline
    #: ``spllift-flight/v1`` dump from a dead/failed attempt, when one
    #: could be captured (worker exception, timeout, crash — including a
    #: crash on an earlier attempt of a task that later succeeded).
    flight: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == COMPUTED


def _pool_context():
    """The multiprocessing context pool workers run under.

    Module-level so tests can monkeypatch it to raise, forcing the
    inline-degradation path deterministically.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


#: Seconds a terminated worker gets to run its SIGTERM handler (which
#: notes the signal in its spill) before it is SIGKILLed.
_TERM_GRACE = 2.0


def _stop(process) -> None:
    """Terminate a worker and reap it within a bounded wait: SIGTERM
    first, SIGKILL once ``_TERM_GRACE`` seconds pass without an exit (a
    task may ignore or block SIGTERM; the pool must never wait on it)."""
    process.terminate()
    process.join(_TERM_GRACE)
    if process.is_alive():
        process.kill()
        process.join()


def _worker_sigterm(signum, frame) -> None:
    """Record the signal in the flight ring (the spill makes it visible
    to the parent), then die the default SIGTERM death.  The ring's lock
    is reentrant, so this cannot deadlock on a record the signal
    interrupted."""
    obs.flight().record("signal", "SIGTERM")
    obs.flight().close_spill()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _child_main(target, args, connection) -> None:
    """Worker-process entry: run the task, ship the outcome back.

    Sends ``("ok", result, telemetry)`` or ``("error", message,
    telemetry)``, where telemetry is the worker's metric snapshot and
    drained span buffer (:func:`repro.obs.runtime.worker_payload`) —
    plus, on error, the worker's flight dump under ``"flight"``; a
    worker that dies without sending anything is classified as a crash
    (and retried).  Marks the process as a worker so fault-injection
    hooks arm and nested ``parallel=None`` resolution stays sequential.
    """
    os.environ[_WORKER_ENV] = "1"
    os.environ[PARALLEL_ENV] = "1"
    obs.activate_worker()
    try:
        signal.signal(signal.SIGTERM, _worker_sigterm)
    except (ValueError, OSError):  # not the main thread (tests)
        pass
    label = getattr(target, "__qualname__", None) or str(target)
    try:
        with obs.tracer().span("pool/task", target=label, run_id=obs.run_id()):
            result = target(*args)
    except BaseException as error:  # noqa: BLE001 — ship, don't swallow
        obs.flight().record(
            "exception", type(error).__name__, message=str(error)
        )
        telemetry = obs.worker_payload()
        telemetry["flight"] = obs.flight_dump(
            f"unhandled exception: {type(error).__name__}"
        )
        try:
            connection.send(
                ("error", f"{type(error).__name__}: {error}", telemetry)
            )
        finally:
            connection.close()
        return
    telemetry = obs.worker_payload()
    try:
        connection.send(("ok", result, telemetry))
    except Exception as error:  # unpicklable result: report, don't crash
        connection.send(("error", f"{type(error).__name__}: {error}", telemetry))
    finally:
        connection.close()


class ProcessTaskPool:
    """Run ``(callable, args)`` tasks in per-task worker processes.

    Semantics (shared with — and now backing — the batch scheduler):

    - **crash → bounded retry** — a worker that dies without reporting
      is re-queued up to ``max_retries`` times, then failed with a
      ``worker crashed`` error;
    - **error → terminal** — a worker that *reports* an exception failed
      deterministically and is not retried;
    - **timeout → terminal** — a task attempt exceeding ``task_timeout``
      seconds is terminated and failed;
    - **inline degradation** — tasks that cannot run in a process at all
      (no usable start method, fork failure with an empty pool,
      unpicklable arguments under spawn) run in-process instead, with
      per-task exception isolation.

    Results come back in submission order regardless of completion
    order.  ``peak_workers`` records the highest number of concurrently
    live workers, i.e. the parallelism actually achieved.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        max_retries: int = 1,
        use_pool: bool = True,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.use_pool = use_pool
        self.peak_workers = 0
        self._crash_flights: Dict[int, dict] = {}

    def run(self, tasks: Sequence[Tuple[object, tuple]]) -> List[TaskOutcome]:
        """Execute all tasks; outcomes in submission order."""
        tasks = list(tasks)
        outcomes: Dict[int, TaskOutcome] = {}
        self.peak_workers = 0
        self._crash_flights: Dict[int, dict] = {}
        obs.ensure_run_id()  # workers inherit it through the environment
        if tasks and self.use_pool:
            # Workers spill their flight rings here for the duration of
            # the batch, so even a SIGKILLed worker leaves evidence.
            spill_dir = tempfile.mkdtemp(prefix="spllift-flight-")
            previous_dir = os.environ.get(FLIGHT_DIR_ENV)
            os.environ[FLIGHT_DIR_ENV] = spill_dir
            try:
                self._run_pool(tasks, outcomes, spill_dir)
            finally:
                if previous_dir is None:
                    os.environ.pop(FLIGHT_DIR_ENV, None)
                else:
                    os.environ[FLIGHT_DIR_ENV] = previous_dir
                shutil.rmtree(spill_dir, ignore_errors=True)
        for index, (target, args) in enumerate(tasks):
            if index not in outcomes:
                outcomes[index] = self._run_inline(index, target, args)
        # A crash on an early attempt still matters when the retry later
        # succeeded — attach the dump so the report shows what died.
        for index, dump in self._crash_flights.items():
            outcome = outcomes.get(index)
            if outcome is not None and outcome.flight is None:
                outcome.flight = dump
        metrics = obs.metrics()
        metrics.gauge_max("pool.peak_workers", self.peak_workers)
        for outcome in outcomes.values():
            metrics.inc(
                "pool.tasks_completed" if outcome.ok else "pool.tasks_failed"
            )
            if outcome.executor == "inline":
                metrics.inc("pool.tasks_inline")
            metrics.observe("pool.task_seconds", outcome.seconds)
        return [outcomes[index] for index in range(len(tasks))]

    # ------------------------------------------------------------------

    def _run_inline(self, index: int, target, args) -> TaskOutcome:
        t0 = time.perf_counter()
        try:
            result = target(*args)
        except Exception as error:  # noqa: BLE001 — per-task isolation
            return TaskOutcome(
                index=index,
                status=FAILED,
                seconds=time.perf_counter() - t0,
                error=f"{type(error).__name__}: {error}",
                executor="inline",
            )
        return TaskOutcome(
            index=index,
            status=COMPUTED,
            seconds=time.perf_counter() - t0,
            result=result,
            executor="inline",
        )

    def _run_pool(
        self, tasks, outcomes: Dict[int, TaskOutcome], spill_dir: str
    ) -> bool:
        """Fan tasks over worker processes; ``False`` means no process
        could be started at all (every unsettled task degrades inline)."""
        try:
            context = _pool_context()
        except Exception:  # noqa: BLE001 — any context failure degrades
            return False
        from multiprocessing.connection import wait as wait_ready

        pending: Deque[Tuple[int, object, tuple, int]] = deque(
            (index, target, args, 1)
            for index, (target, args) in enumerate(tasks)
        )
        # process -> (index, target, args, attempt, connection, start time)
        running: Dict[object, Tuple[int, object, tuple, int, object, float]] = {}

        try:
            while pending or running:
                while pending and len(running) < self.max_workers:
                    index, target, args, attempt = pending.popleft()
                    parent, child = context.Pipe(duplex=False)
                    process = context.Process(
                        target=_child_main,
                        args=(target, args, child),
                        daemon=True,
                    )
                    try:
                        process.start()
                    except (
                        OSError,
                        ValueError,
                        TypeError,
                        AttributeError,
                        pickle.PicklingError,
                    ):
                        # OSError: resource exhaustion; the rest: spawn
                        # contexts pickling unpicklable targets/arguments.
                        parent.close()
                        child.close()
                        if running:
                            # Let in-flight workers drain, then retry.
                            pending.appendleft((index, target, args, attempt))
                            break
                        return False
                    child.close()
                    running[process] = (
                        index,
                        target,
                        args,
                        attempt,
                        parent,
                        time.perf_counter(),
                    )
                    if len(running) > self.peak_workers:
                        self.peak_workers = len(running)
                if not running:
                    continue

                # Block until a result arrives or a worker dies; with a
                # timeout configured, wake at the nearest task deadline
                # (plus a hair, so `elapsed > timeout` is decisive).
                timeout = None
                if self.task_timeout is not None:
                    nearest = min(entry[5] for entry in running.values())
                    timeout = (
                        max(0.0, nearest + self.task_timeout - time.perf_counter())
                        + 0.01
                    )
                waitables: List[object] = []
                for process, entry in running.items():
                    waitables.append(entry[4])
                    waitables.append(process.sentinel)
                ready = set(wait_ready(waitables, timeout))

                finished = []
                for process, (
                    index,
                    target,
                    args,
                    attempt,
                    conn,
                    t0,
                ) in running.items():
                    elapsed = time.perf_counter() - t0
                    if conn in ready or conn.poll(0):
                        status, payload, telemetry = None, None, None
                        try:
                            message = conn.recv()
                            status, payload = message[0], message[1]
                            if len(message) > 2:
                                telemetry = message[2]
                        except (EOFError, OSError):
                            pass
                        obs.absorb_payload(telemetry)
                        obs.tracer().complete(
                            "pool/dispatch",
                            t0 * 1e6,
                            time.perf_counter() * 1e6,
                            tid=process.pid,
                            index=index,
                            attempt=attempt,
                            status=status or "crashed",
                        )
                        process.join(timeout=5.0)
                        if process.is_alive():
                            _stop(process)
                        if status == "ok":
                            outcomes[index] = TaskOutcome(
                                index=index,
                                status=COMPUTED,
                                attempts=attempt,
                                seconds=elapsed,
                                result=payload,
                            )
                        elif status == "error":
                            outcomes[index] = TaskOutcome(
                                index=index,
                                status=FAILED,
                                attempts=attempt,
                                seconds=elapsed,
                                error=str(payload),
                                flight=telemetry.get("flight")
                                if isinstance(telemetry, dict)
                                else None,
                            )
                        else:  # EOF without a message: a crash
                            self._crash(
                                pending, outcomes, index, target, args,
                                attempt, process, elapsed, spill_dir,
                            )
                    elif process.sentinel in ready or not process.is_alive():
                        process.join()
                        self._crash(
                            pending, outcomes, index, target, args,
                            attempt, process, elapsed, spill_dir,
                        )
                    elif (
                        self.task_timeout is not None
                        and elapsed > self.task_timeout
                    ):
                        _stop(process)  # SIGTERM — the worker's handler
                        # notes the signal in its spill, then dies
                        obs.metrics().inc("pool.tasks_timeout")
                        outcomes[index] = TaskOutcome(
                            index=index,
                            status=FAILED,
                            attempts=attempt,
                            seconds=elapsed,
                            error=f"timed out after {self.task_timeout:g}s "
                            f"(attempt {attempt})",
                            flight=self._spill_dump(
                                spill_dir,
                                process.pid,
                                f"timeout after {self.task_timeout:g}s "
                                f"(SIGTERM, attempt {attempt})",
                            ),
                        )
                    else:
                        continue
                    finished.append(process)
                for process in finished:
                    entry = running.pop(process)
                    entry[4].close()
        finally:
            for process, entry in running.items():
                _stop(process)
                entry[4].close()
        return True

    def _spill_dump(
        self, spill_dir: str, pid, reason: str
    ) -> Optional[dict]:
        """Reconstruct a dead worker's flight dump from its spill file."""
        if not spill_dir or pid is None:
            return None
        return load_spill(
            os.path.join(spill_dir, f"flight-{pid}.jsonl"), reason
        )

    def _crash(
        self,
        pending,
        outcomes,
        index,
        target,
        args,
        attempt,
        process,
        elapsed,
        spill_dir: str = "",
    ) -> None:
        """A worker died without reporting: retry or fail the task."""
        obs.metrics().inc("pool.tasks_crashed")
        dump = self._spill_dump(
            spill_dir,
            process.pid,
            f"worker crashed (exit code {process.exitcode}, "
            f"attempt {attempt})",
        )
        if dump is not None:
            self._crash_flights[index] = dump
        if attempt <= self.max_retries:
            obs.metrics().inc("pool.task_retries")
            pending.append((index, target, args, attempt + 1))
            return
        outcomes[index] = TaskOutcome(
            index=index,
            status=FAILED,
            attempts=attempt,
            seconds=elapsed,
            error=f"worker crashed (exit code {process.exitcode}) "
            f"after {attempt} attempt(s)",
            flight=dump,
        )

