"""Shared fixtures for the telemetry tests.

Every test starts from a clean slate: fresh registry, a tracer that is
not recording (with a fresh flight ring), no progress reporter, and
neither telemetry environment variable set — the obs runtime is
process-global state, so leaking it between tests would make counter
assertions order-dependent.
"""

import pytest

from repro.obs import runtime as obs


@pytest.fixture(autouse=True)
def clean_obs(monkeypatch):
    monkeypatch.delenv(obs.RUN_ID_ENV, raising=False)
    monkeypatch.delenv(obs.TELEMETRY_ENV, raising=False)
    obs.reset()
    yield
    obs.reset()
