"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import faulthandler
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Keep property tests snappy but meaningful; numerical examples are
# expensive enough that hypothesis's default deadline misfires.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")

#: Seconds one test may run before the watchdog dumps every thread's
#: stack and ends the session with exit status 1: a hang becomes a
#: failure with its stacks, not a stuck run.  The slowest test takes
#: about 25 s on a quiet 2-core host.
WATCHDOG_SECONDS = 180.0

#: A copy of the terminal's stderr, taken in ``pytest_configure`` while
#: output capture is suspended (a test's own fd 2 is captured, and a
#: session that exits from the watchdog never shows captured output).
_watchdog_fd: list = []


def pytest_configure(config):
    _watchdog_fd.append(os.dup(2))


def pytest_unconfigure(config):
    while _watchdog_fd:
        os.close(_watchdog_fd.pop())


@pytest.fixture(autouse=True)
def watchdog():
    """Arm ``faulthandler``'s watchdog around each test."""
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True,
                                      file=_watchdog_fd[0])
    yield
    faulthandler.cancel_dump_traceback_later()


ALL_DTYPES = [np.float32, np.float64, np.complex64, np.complex128]
DOUBLE_DTYPES = [np.float64, np.complex128]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def runtime():
    """A small numeric runtime on a 2x2 grid."""
    from repro.dist import ProcessGrid
    from repro.runtime import Runtime

    return Runtime(ProcessGrid(2, 2))


@pytest.fixture
def lanes_for_tiny_tiles(monkeypatch):
    """Every window gets lanes, however little its tasks cost — for
    tests whose subject is the transport (lanes, forks, SIGKILL replay)
    on tiles far below the granularity floor."""
    monkeypatch.setattr("repro.runtime.window.LANE_MIN_FLOPS", 0.0)


@pytest.fixture
def scheduler_builds(monkeypatch):
    """The ``(start, end)`` of every ``DynamicScheduler`` built while
    the test runs — empty when every window was a sweep."""
    from repro.runtime.distributed.scheduling import DynamicScheduler

    built, init = [], DynamicScheduler.__init__

    def recording_init(self, tasks, start, end, *args, **kw):
        built.append((start, end))
        init(self, tasks, start, end, *args, **kw)

    monkeypatch.setattr(DynamicScheduler, "__init__", recording_init)
    return built


def make_runtime(p=2, q=2, numeric=True, **kw):
    from repro.dist import ProcessGrid
    from repro.runtime import Runtime

    return Runtime(ProcessGrid(p, q), numeric=numeric, **kw)
