"""Shared fixtures: small grids and path batches reused across test modules,
the worker rule lowered so that small tests run several workers, and a
record of the threads the chunk driver starts."""

import threading

import numpy as np
import pytest

from chaosbsde import GridSpec, chaos_core, sample_paths


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "worker_rule: run under the shipped worker rule "
                   "(chaos_core._WORKER_RULE), not the lowered one")


def _lower_the_rule(monkeypatch):
    for kernel in chaos_core._WORKER_RULE:
        monkeypatch.setitem(chaos_core._WORKER_RULE, kernel, 0)


@pytest.fixture
def share_everywhere(monkeypatch):
    """Callable that lowers the worker rule's constants to 0, after which
    every kernel call runs min(threads, chunks) workers at every (N, p)."""
    return lambda: _lower_the_rule(monkeypatch)


@pytest.fixture(autouse=True)
def every_call_shares(request, monkeypatch):
    """The worker rule runs a call on one worker where a second cannot
    overlap it, which covers most test sizes; so that ``threads`` >= 2
    still runs the multi-worker paths there, every call may share at every
    (N, p), except in tests marked ``worker_rule``."""
    if request.node.get_closest_marker("worker_rule") is None:
        _lower_the_rule(monkeypatch)


@pytest.fixture
def started_threads(monkeypatch):
    """List of every thread the chunk driver starts during the test."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(chaos_core.threading, "Thread", Counted)
    return started


@pytest.fixture(scope="session")
def small_spec():
    # N and kappa*h chosen so jump counts of 0, 1, 2 all occur in practice
    return GridSpec(T=1.0, N=4, kappa=1.0)


@pytest.fixture(scope="session")
def small_paths(small_spec):
    return sample_paths(small_spec, 4_000, seed=42)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
