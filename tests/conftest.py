"""Shared fixtures.

The full-resolution profile table is expensive enough (80001 nodes, a
banded Newton solve and the first-order correction) that it is built once
per session and shared; tests that need a quick disposable table build
their own small one.
"""

import numpy as np
import pytest

from gtlab import solve
from gtlab.potential import DoubleWell, first_order_correction, optimal_profile


@pytest.fixture(scope="session")
def well():
    return DoubleWell()


@pytest.fixture(scope="session")
def profile_table(well):
    table = optimal_profile(well)
    return first_order_correction(table, well)


def small_table(well, half_width=8.0, spacing=2e-3, with_phi1=True):
    table = optimal_profile(well, half_width=half_width, spacing=spacing)
    if with_phi1:
        first_order_correction(table, well)
    return table


@pytest.fixture(scope="session")
def coarse_table(well):
    return small_table(well)


@pytest.fixture
def laplacian_shapes(monkeypatch):
    """The grid shapes the solver's residual sees, one per Laplacian call."""
    seen = []
    original = solve.laplacian

    def recorded(values, spacing):
        seen.append(values.shape)
        return original(values, spacing)

    monkeypatch.setattr(solve, "laplacian", recorded)
    return seen
