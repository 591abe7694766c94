import numpy as np
import pytest
from hypothesis import settings

from spinsurf import Grid

# CI runs `pytest --hypothesis-profile=ci`: properties without their own
# max_examples draw ten times the default number of examples
settings.register_profile("ci", max_examples=10 * settings.default.max_examples)


@pytest.fixture
def grid1d():
    return Grid(64, 1, 0.1, 1.0, "periodic")


@pytest.fixture
def grid2d():
    return Grid(32, 32, 0.2, 0.2, "periodic")


@pytest.fixture
def grid2d_clamped():
    return Grid(32, 32, 0.2, 0.2, "clamped")


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
