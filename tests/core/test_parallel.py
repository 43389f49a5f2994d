"""Tests for the process fan-out layer (worker count resolution + pool).

The pool tests use module-level targets that only misbehave inside a
worker process (gated on the ``SPLLIFT_WORKER`` env var set by
``_child_main``), so crash and timeout paths exercise real SIGKILLed /
terminated processes without ever endangering the test process.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.core.parallel import PARALLEL_ENV, ProcessTaskPool, resolve_parallel


def _square(value):
    return value * value


def _boom(message):
    raise RuntimeError(message)


def _crash_once(marker):
    if os.environ.get("SPLLIFT_WORKER") and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(9)
    return "recovered"


def _crash_always():
    if os.environ.get("SPLLIFT_WORKER"):
        os._exit(9)
    return "inline"


def _sleep(seconds):
    time.sleep(seconds)
    return "done"


class TestResolveParallel:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv(PARALLEL_ENV, raising=False)
        assert resolve_parallel(None) == 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_ENV, "3")
        assert resolve_parallel(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_ENV, "3")
        assert resolve_parallel(2) == 2

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv(PARALLEL_ENV, raising=False)
        assert resolve_parallel(0) == max(1, os.cpu_count() or 1)
        assert resolve_parallel(-1) == max(1, os.cpu_count() or 1)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_ENV, "many")
        with pytest.raises(ValueError, match=PARALLEL_ENV):
            resolve_parallel(None)


class TestProcessTaskPool:
    def test_results_in_submission_order(self):
        pool = ProcessTaskPool(max_workers=3)
        outcomes = pool.run([(_square, (i,)) for i in range(8)])
        assert [o.result for o in outcomes] == [i * i for i in range(8)]
        assert all(o.ok and o.index == i for i, o in enumerate(outcomes))
        assert 1 <= pool.peak_workers <= 3

    def test_reported_error_is_terminal(self):
        pool = ProcessTaskPool(max_workers=2, max_retries=3)
        (outcome,) = pool.run([(_boom, ("no dice",))])
        assert not outcome.ok
        assert outcome.attempts == 1  # deterministic failure: no retry
        assert "RuntimeError: no dice" in outcome.error

    def test_crash_is_retried(self, tmp_path):
        marker = tmp_path / "crashed-once"
        pool = ProcessTaskPool(max_workers=2, max_retries=1)
        (outcome,) = pool.run([(_crash_once, (str(marker),))])
        assert marker.exists()  # the first attempt really died
        assert outcome.ok and outcome.result == "recovered"
        assert outcome.attempts == 2

    def test_zero_retries_fail_fast(self):
        pool = ProcessTaskPool(max_workers=2, max_retries=0)
        doomed, healthy = pool.run([(_crash_always, ()), (_square, (4,))])
        assert not doomed.ok
        assert doomed.attempts == 1
        assert "worker crashed" in doomed.error
        assert healthy.ok and healthy.result == 16

    def test_timeout_is_terminal(self):
        pool = ProcessTaskPool(max_workers=2, task_timeout=0.4, max_retries=3)
        (outcome,) = pool.run([(_sleep, (30,))])
        assert not outcome.ok
        assert outcome.attempts == 1
        assert "timed out" in outcome.error

    def test_use_pool_false_runs_inline(self):
        pool = ProcessTaskPool(max_workers=4, use_pool=False)
        ok, bad = pool.run([(_square, (3,)), (_boom, ("inline",))])
        assert ok.executor == "inline" and ok.result == 9
        assert bad.executor == "inline" and "RuntimeError" in bad.error
        assert pool.peak_workers == 0

    def test_degrades_inline_when_no_context(self, monkeypatch):
        def no_context():
            raise OSError("processes forbidden")

        monkeypatch.setattr("repro.core.parallel._pool_context", no_context)
        pool = ProcessTaskPool(max_workers=4)
        outcomes = pool.run([(_square, (i,)) for i in range(3)])
        assert [o.result for o in outcomes] == [0, 1, 4]
        assert all(o.executor == "inline" for o in outcomes)
        assert pool.peak_workers == 0

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            ProcessTaskPool(max_retries=-1)



def _run_isolated(code: str, timeout: float, env=None):
    """Run ``code`` in a fresh interpreter in its own process group; a
    hang fails the test and kills the group (grandchildren included)
    instead of hanging the suite."""
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    child_env = dict(os.environ, PYTHONPATH=src_root, **(env or {}))
    child = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=child_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail(f"still running after {timeout:g}s (hung)")
    return child.returncode, out.decode(), err.decode()


class TestWorkerTermination:
    """SIGTERM (the per-task timeout) must always end a worker, and the
    pool must never wait on one without bound."""

    def test_sigterm_during_a_ring_write_still_kills_the_worker(self, tmp_path):
        code = """
            import os, signal, time
            from repro.core.parallel import _worker_sigterm
            from repro.obs import runtime as obs

            obs.activate_worker()
            signal.signal(signal.SIGTERM, _worker_sigterm)
            with obs.flight()._lock:  # the signal lands mid-record
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(10)
            raise SystemExit(3)
        """
        returncode, _, err = _run_isolated(
            code, timeout=8.0, env={"SPLLIFT_FLIGHT_DIR": str(tmp_path)}
        )
        assert returncode == -signal.SIGTERM, err
        (spill,) = tmp_path.glob("flight-*.jsonl")
        events = [json.loads(line) for line in spill.read_text().splitlines()]
        assert ("signal", "SIGTERM") in [(e["kind"], e["name"]) for e in events]

    def test_timeout_of_a_worker_ignoring_sigterm_is_bounded(self):
        code = """
            import signal, time
            from repro.core.parallel import ProcessTaskPool

            def stubborn():
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
                time.sleep(60)

            pool = ProcessTaskPool(task_timeout=1.0, max_retries=0)
            (outcome,) = pool.run([(stubborn, ())])
            print(outcome.status, "|", outcome.error)
        """
        returncode, out, err = _run_isolated(code, timeout=15.0)
        assert returncode == 0, err
        assert out.startswith("failed | timed out after 1s"), out
