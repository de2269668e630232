"""Shared fixtures.  Heavy objects (deep ground states, blow-up runs) are
memoized inside inls_lab.experiments, so fixtures here just trigger and
share them across the session."""

import numpy as np
import pytest

from inls_lab import evolution, experiments as exp
from inls_lab.core import line_grid, make_params, radial_grid


@pytest.fixture(scope="session")
def quintic_gs():
    return exp.ground_state("quintic")


@pytest.fixture(scope="session")
def cubic_gs():
    return exp.ground_state("cubic")


@pytest.fixture(scope="session")
def line_gate_gs():
    return exp.ground_state("line_mass_critical")


@pytest.fixture(scope="session")
def radial2_gate_gs():
    return exp.ground_state("radial2_mass_critical")


@pytest.fixture(scope="session")
def radial3_gate_gs():
    return exp.ground_state("radial3_intercritical")


@pytest.fixture(scope="session")
def line_b_gs():
    return exp.ground_state("line_b")


@pytest.fixture(scope="session")
def intercritical_radial_gs():
    return exp.ground_state("radial2_intercritical")


@pytest.fixture(scope="session")
def mc_line():
    """Small mass-critical line setup for cheap functional tests."""
    params = make_params(1, 1.5, 0.5)
    return params, line_grid(12.0, 1024, 0.5)


@pytest.fixture(scope="session")
def ic_radial():
    """Small intercritical radial setup (N=2, sigma=1, b=0.5)."""
    params = make_params(2, 1.0, 0.5)
    return params, radial_grid(2, 12.0, 1024, 0.5)


@pytest.fixture(scope="session")
def plain_line():
    """b = 0 line setup for oracle comparisons."""
    params = make_params(1, 2.0, 0.0)
    return params, line_grid(12.0, 1024, 0.0)


@pytest.fixture(scope="session")
def fine_line():
    """Finer b = 0 line for window-quadrature oracles at 1e-6 tolerances."""
    params = make_params(1, 2.0, 0.0)
    return params, line_grid(12.0, 16384, 0.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def leaky_flow(monkeypatch):
    """Every linear flow of the march gains 1e-6 of amplitude, as a
    non-unitary propagator would."""
    flow = evolution.free_flow

    def leaky(grid, values, dt, slots=1):
        out, G = flow(grid, values, dt, slots)
        return (1.0 + 1e-6) * out, G

    monkeypatch.setattr(evolution, "free_flow", leaky)
