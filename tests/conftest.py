"""Shared fixtures: canonical scales, a deterministic RNG and a derandomized
hypothesis profile."""

import numpy as np
import pytest
from hypothesis import settings

from tsdyn import quantum, uniform

SEED = 0xD1E5

# Property tests draw the same examples on every run and replay nothing from
# an untracked example database, so one checkout passes or fails every time.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def unit5():
    return uniform(0.0, 1.0, 5)


@pytest.fixture
def unit65():
    return uniform(0.0, 1.0, 65)


@pytest.fixture
def q23():
    return quantum(2.0, 3)


def random_scale(rng, kind: str):
    """Draw a small scale of the requested kind with generic spacing."""
    if kind == "uniform":
        n = int(rng.integers(5, 40))
        a = float(rng.uniform(-2.0, 1.0))
        return uniform(a, a + float(rng.uniform(0.5, 3.0)), n)
    if kind == "quantum":
        return quantum(float(rng.uniform(1.3, 3.0)), int(rng.integers(4, 12)))
    from tsdyn import from_points

    n = int(rng.integers(5, 40))
    pts = np.cumsum(rng.uniform(0.05, 1.0, size=n))
    return from_points(pts - pts[0])
