"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

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


def make_runtime(p=2, q=2, numeric=True):
    from repro.dist import ProcessGrid
    from repro.runtime import Runtime

    return Runtime(ProcessGrid(p, q), numeric=numeric)
