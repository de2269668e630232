"""Invariants of the operator layer in ``core`` and of the cache each grid owns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from inls_lab import make_params
from inls_lab import functionals as fn
from inls_lab.core import (
    grad_norm_sq_values, gradient_values, helmholtz_solve, laplacian_values, line_grid,
    radial_grid,
)
from inls_lab.evolution import step
from inls_lab.ground_state import solve_ground_state
from inls_lab.inequalities import random_bump_field

SETUPS = {
    "line": (make_params(1, 1.5, 0.5), lambda: line_grid(12.0, 256, 0.5)),
    "radial": (make_params(2, 1.0, 0.5), lambda: radial_grid(2, 12.0, 256, 0.5)),
}


def bump(geometry, seed, kind="complex", grid=None):
    params, make_grid = SETUPS[geometry]
    grid = grid or make_grid()
    u = random_bump_field(params, grid, np.random.default_rng(seed))
    return u.with_values(u.values.real) if kind == "real" else u


cases = dict(
    geometry=st.sampled_from(sorted(SETUPS)),
    kind=st.sampled_from(["real", "complex"]),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)


@settings(max_examples=40, deadline=None)
@given(**cases)
def test_summation_by_parts(geometry, kind, seed):
    u = bump(geometry, seed, kind)
    g = u.grid
    pairing = -np.sum(np.conj(u.values) * laplacian_values(g, u.values) * g.weights)
    quad = grad_norm_sq_values(g, u.values)
    assert abs(pairing.imag) <= 1e-12 * quad
    assert pairing.real == pytest.approx(quad, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(**cases)
def test_helmholtz_round_trip(geometry, kind, seed):
    u = bump(geometry, seed, kind)
    g = u.grid
    v = u.values
    back = helmholtz_solve(g, v - laplacian_values(g, v))
    assert back.dtype == v.dtype
    assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))
    # a longdouble rhs is solved as its float64 rounding, bit for bit
    wide = v.astype(np.result_type(v.dtype, np.longdouble)) / 3
    assert np.array_equal(helmholtz_solve(g, wide), helmholtz_solve(g, wide.astype(v.dtype)))


@settings(max_examples=30, deadline=None)
@given(geometry=st.sampled_from(sorted(SETUPS)), seed=st.integers(0, 2 ** 31),
       dt=st.floats(min_value=1e-5, max_value=1e-1))
def test_step_conserves_mass(geometry, seed, dt):
    u = bump(geometry, seed)
    assert fn.mass(step(u, dt)) == pytest.approx(fn.mass(u), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(geometry=st.sampled_from(sorted(SETUPS)), seed=st.integers(0, 2 ** 31),
       dtype=st.sampled_from([np.float64, np.longdouble]))
def test_real_input_is_the_real_part_of_its_complex_cast(geometry, seed, dtype):
    """Each operator has one code path: a real array is operated on as its
    complex cast, and the result is the real part of that, bit for bit."""
    u = bump(geometry, seed, "real")
    v = u.values.astype(dtype)
    for op, out_dtype in ((laplacian_values, v.dtype), (gradient_values, v.dtype),
                          (helmholtz_solve, np.float64)):   # a float64 solve for any rhs
        out = op(u.grid, v)
        assert out.dtype == out_dtype
        assert np.array_equal(out, op(u.grid, v.astype(np.result_type(v, np.complex64))).real)


@pytest.mark.parametrize("geometry", sorted(SETUPS))
@pytest.mark.parametrize("dtypes", [(np.float64, np.longdouble), (np.longdouble, np.float64)])
def test_cache_per_dtype_matches_fresh_grid(geometry, dtypes):
    shared = SETUPS[geometry][1]()
    u = bump(geometry, 5, "real", shared).values
    for dtype in dtypes:
        v = u.astype(dtype)
        for op in (
            lambda g: helmholtz_solve(g, v),
            lambda g: laplacian_values(g, v),
            lambda g: grad_norm_sq_values(g, v),
        ):
            assert np.array_equal(op(shared), op(SETUPS[geometry][1]()))


@pytest.mark.parametrize("geometry", sorted(SETUPS))
def test_interleaved_step_sizes_match_separate_grids(geometry):
    shared = SETUPS[geometry][1]()
    shared_fields = {dt: bump(geometry, 9, grid=shared) for dt in (1e-3, 3e-4)}
    alone = {dt: bump(geometry, 9) for dt in (1e-3, 3e-4)}
    for _ in range(5):
        for dt in shared_fields:
            shared_fields[dt] = step(shared_fields[dt], dt)
    for dt in alone:
        for _ in range(5):
            alone[dt] = step(alone[dt], dt)
    for dt in shared_fields:
        assert np.array_equal(shared_fields[dt].values, alone[dt].values)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(lapack, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(lapack, name, counting)
    return calls


def test_helmholtz_factorizes_once_per_grid(monkeypatch):
    calls = _count_calls(monkeypatch, "dgttrf")
    g = radial_grid(3, 10.0, 512, 0.5)
    rhs = np.exp(-g.nodes ** 2)
    first = helmholtz_solve(g, rhs)
    assert np.array_equal(helmholtz_solve(g, rhs), first)
    helmholtz_solve(g, rhs.astype(np.longdouble))
    assert len(calls) == 1


def test_longdouble_ground_state_solves_once_per_iteration(monkeypatch):
    """The longdouble phase refines in the Petviashvili update, not in the
    Helmholtz solve: one float64 tridiagonal solve per iteration."""
    calls = _count_calls(monkeypatch, "dgttrs")
    gs = solve_ground_state(make_params(2, 0.75, 0.5), radial_grid(2, 14.0, 2048, 0.5),
                            dtype="longdouble")
    assert gs.longdouble_iterations > 0
    assert len(calls) == gs.iterations


def test_propagator_factorizes_once_per_step_size(monkeypatch):
    calls = _count_calls(monkeypatch, "zgttrf")
    u = bump("radial", 3)
    for _ in range(4):
        u = step(u, 1e-3)
    assert len(calls) == 1
    step(u, 5e-4)
    assert len(calls) == 2
