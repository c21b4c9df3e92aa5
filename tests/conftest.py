"""Shared fixtures for the tegkit test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.teg.array import TEGArray
from repro.teg.datasheet import TGM_199_1_4_0_8


def pytest_configure(config) -> None:
    """Register the suite's custom markers."""
    config.addinivalue_line(
        "markers", "slow: long-running example or end-to-end test"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def gradient_delta_t() -> np.ndarray:
    """Radiator-like exponential dT profile over 20 modules."""
    x = np.linspace(0.0, 1.0, 20)
    return 12.0 + 55.0 * np.exp(-2.2 * x)


@pytest.fixture
def small_array(gradient_delta_t: np.ndarray) -> TEGArray:
    """20-module array on the gradient profile."""
    array = TEGArray(TGM_199_1_4_0_8, gradient_delta_t.size)
    array.set_delta_t(gradient_delta_t)
    return array


@pytest.fixture
def module_params(small_array: TEGArray):
    """(emf, resistance) vectors of the small array."""
    return small_array.emf_vector(), small_array.resistance_vector()
