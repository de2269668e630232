"""Invariants of the operators each kind of ``core`` grid carries, and of its caches."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from inls_lab import Field, ValidationError, core, make_params
from inls_lab import functionals as fn
from inls_lab.analysis import decompose
from inls_lab.core import fold, line_grid, radial_grid, unfold
from inls_lab.evolution import step
from inls_lab.ground_state import solve_ground_state
from inls_lab.inequalities import random_bump_field

# one row per kind of grid, each its own discretization: the line, its half grid
# (where a field is the right half of an even one) and the radial shells
SETUPS = {
    "line": (make_params(1, 1.5, 0.5), lambda: line_grid(12.0, 256, 0.5)),
    "half_line": (make_params(1, 1.5, 0.5), lambda: line_grid(12.0, 256, 0.5).half),
    "radial": (make_params(2, 1.0, 0.5), lambda: radial_grid(2, 12.0, 256, 0.5)),
}
# an even field's gradient is odd: the half grid has none (``test_half_grid_rejects_...``)
WITH_GRADIENT = sorted(set(SETUPS) - {"half_line"})


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
    pairing = -np.sum(np.conj(u.values) * g.laplacian(u.values) * g.weights)
    quad = g.grad_sq(u.values)
    assert abs(pairing.imag) <= 1e-12 * quad
    assert pairing.real == pytest.approx(quad, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(**cases)
def test_helmholtz_round_trip(geometry, kind, seed):
    u = bump(geometry, seed, kind)
    g = u.grid
    v = u.values
    solve = g.helmholtz_solver()
    back = solve(v - g.laplacian(v))
    assert back.dtype == v.dtype
    assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))
    # a longdouble rhs is solved as its float64 rounding, bit for bit
    wide = v.astype(np.result_type(v.dtype, np.longdouble)) / 3
    assert np.array_equal(solve(wide), solve(wide.astype(v.dtype)))


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
    g, v = u.grid, u.values.astype(dtype)
    ops = [(g.laplacian, v.dtype), (g.helmholtz_solver(), np.float64)]  # float64 for any rhs
    for op, out_dtype in ops + [(g.gradient, v.dtype)] * (geometry in WITH_GRADIENT):
        out = op(v)
        assert out.dtype == out_dtype
        assert np.array_equal(out, op(v.astype(np.result_type(v, np.complex64))).real)


@pytest.mark.parametrize("geometry", WITH_GRADIENT)
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_gradient_and_grad_sq_is_the_pair_bit_for_bit(geometry, kind):
    """The shared line transform changes no bit of either result."""
    u = bump(geometry, 7, kind)
    grad, grad_sq = u.grid.gradient_and_grad_sq(u.values)
    assert grad.dtype == u.values.dtype
    assert np.array_equal(grad, u.grid.gradient(u.values))
    assert grad_sq == u.grid.grad_sq(u.values)


@pytest.mark.parametrize("geometry", sorted(SETUPS))
@pytest.mark.parametrize("dtypes", [(np.float64, np.longdouble), (np.longdouble, np.float64)])
def test_one_float64_cache_serves_every_dtype(geometry, dtypes):
    """The grid's one float64 cache serves every input dtype: used first in one
    dtype, a grid gives a fresh grid's results in the other."""
    shared = SETUPS[geometry][1]()
    u = bump(geometry, 5, "real", shared).values
    for dtype in dtypes:
        v = u.astype(dtype)
        for op in (
            lambda g: g.helmholtz_solver()(v),
            lambda g: g.laplacian(v),
            lambda g: g.grad_sq(v),
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


@pytest.mark.parametrize("geometry", sorted(SETUPS))
def test_helmholtz_solver_keeps_its_own_factorization(monkeypatch, geometry):
    """A solver factors once however often it solves; the grid keeps no
    factorization from it, so the grid's next solver factors again and gives
    the same bits."""
    calls = _count_calls(monkeypatch, "dgttrf")
    g = SETUPS[geometry][1]()
    rhs = np.exp(-g.nodes ** 2)
    solve = g.helmholtz_solver()
    first = solve(rhs)
    assert np.array_equal(solve(rhs.astype(np.longdouble)), first)
    assert len(calls) == (geometry == "radial")
    assert np.array_equal(g.helmholtz_solver()(rhs), first)
    assert len(calls) == 2 * (geometry == "radial")


@pytest.mark.parametrize("geometry", ["radial"])
def test_shifted_helmholtz_solve_inverts_an_indefinite_operator(geometry):
    """(1 - Lap - V) u = rhs for a potential deep enough to make the operator
    indefinite, as the ground-state Jacobian is; a zero potential is the plain
    Helmholtz solve."""
    params, make_grid = SETUPS[geometry]
    grid = make_grid()
    rhs = np.exp(-grid.nodes ** 2)
    shift = 4.0 * np.exp(-grid.nodes ** 2 / 4.0)
    assert np.min(1.0 - shift) < 0
    u = grid.shifted_helmholtz_solve(rhs, shift.copy())
    residual = u - grid.laplacian(u) - shift * u - rhs
    assert np.max(np.abs(residual)) < 1e-6 * np.max(np.abs(rhs))
    assert np.array_equal(grid.shifted_helmholtz_solve(rhs, np.zeros(grid.n)),
                          grid.helmholtz_solver()(rhs))


@pytest.mark.parametrize("geometry", sorted(set(SETUPS) - {"radial"}))
def test_shifted_helmholtz_solve_needs_a_radial_grid(geometry):
    """Only a radial ground state takes Newton steps: on the line and on its
    half grid the shifted solve raises."""
    grid = SETUPS[geometry][1]()
    with pytest.raises(ValidationError, match=f"radial grid, got {geometry}"):
        grid.shifted_helmholtz_solve(np.exp(-grid.nodes ** 2), np.zeros(grid.n))


@pytest.mark.parametrize("defect", ["float64", "pair"])
def test_ground_state_solves_once_per_iteration(monkeypatch, newton_defect):
    """The polish refines in the Newton update, not in the solve: one float64
    tridiagonal solve per Petviashvili iteration or Newton step, with either
    Newton defect."""
    calls = _count_calls(monkeypatch, "dgttrs")
    gs = solve_ground_state(make_params(2, 0.75, 0.5), radial_grid(2, 14.0, 2048, 0.5))
    assert gs.newton_steps > 0
    assert len(calls) == gs.iterations + gs.newton_steps


def test_propagator_factorizes_once_per_step_size(monkeypatch):
    calls = _count_calls(monkeypatch, "zgttrf")
    u = bump("radial", 3)
    for _ in range(4):
        u = step(u, 1e-3)
    assert len(calls) == 1
    step(u, 5e-4)
    assert len(calls) == 2


# -- the half grid of the line: exactly even fields as cosine series ---------

def even_bump(seed, kind="complex"):
    """An exactly even line field (addition commutes) and its right half."""
    u = bump("line", seed, kind)
    values = u.values + u.values[::-1]
    return u.with_values(values), values[u.grid.n // 2:]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31), kind=st.sampled_from(["real", "complex"]))
def test_half_grid_operators_are_the_full_grid_operators(seed, kind):
    """On an exactly even line field each half-grid operator gives the right
    half of the full grid's, and each quadrature the whole field's, to 1e-12;
    a real field is operated on as its complex cast, bit for bit."""
    u, right = even_bump(seed, kind)
    half, m = u.grid.half, u.grid.n // 2
    for op, full_op in ((half.laplacian, u.grid.laplacian),
                        (half.helmholtz_solver(), u.grid.helmholtz_solver())):
        out, ref = op(right), full_op(u.values)[m:]
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(out.real, op(right.astype(complex)).real)
    assert half.grad_sq(right) == pytest.approx(u.grid.grad_sq(u.values), rel=1e-12)
    for integral in (fn.mass, fn.potential, fn.variance, fn.boundary_mass_fraction):
        assert integral(Field(right, half, u.params)) == pytest.approx(integral(u), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31), kind=st.sampled_from(["real", "complex"]))
def test_half_grid_window_integrals_are_the_full_grid_ones(seed, kind):
    """The window integrals of an exactly even field on the half grid are the
    whole field's, bit for bit (the half-grid field is unfolded first), for
    windows left of, across and right of x = 0; the best window's center is
    the x >= 0 mirror of the full grid's, and its mass agrees to 1e-12, as
    mirrored centers interpolate the prefix sums at mirrored points."""
    u, right = even_bump(seed, kind)
    v = Field(right, u.grid.half, u.params)
    for center, radius in ((-3.0, 4.0), (0.4, 6.0), (1.3, 7.0), (-0.2, 30.0)):
        assert fn.concentrated_mass(v, center, radius) == fn.concentrated_mass(u, center, radius)
        for p in (2.0, 3.5):
            assert fn.lp_norm(v, p, (center, radius)) == fn.lp_norm(u, p, (center, radius))
    (best, at), (ref, ref_at) = fn.sup_concentrated_mass(v, 1.0), fn.sup_concentrated_mass(u, 1.0)
    assert best == pytest.approx(ref, rel=1e-12) and at == abs(ref_at)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31), kind=st.sampled_from(["real", "complex"]))
def test_unfold_undoes_fold_of_an_exactly_even_field(seed, kind):
    """An exactly even field on an even-n line folds to its right half on the
    half grid and unfolds to itself bit for bit; an odd n, a radial grid, a
    field that is not even and one holding a NaN (unequal to its mirror) fold
    to themselves, as any field but a half grid's unfolds to itself.  On an
    even-n and an odd-n line ``mirror`` makes a field that is not even equal
    to its own reverse, bit for bit, and leaves its x >= 0 cells alone; for an
    even n that field folds onto the half grid and unfolds back bit for bit.
    On a radial grid and on a half grid ``mirror`` leaves the values as they are."""
    u, right = even_bump(seed, kind)
    v = fold(u)
    assert v.grid.geometry == "half_line" and v.grid.full is u.grid
    assert np.array_equal(v.values, right)
    w = unfold(v)
    assert w.grid is u.grid and w.values.dtype == u.values.dtype
    assert np.array_equal(w.values, u.values)
    odd, radial = line_grid(12.0, 255, 0.5), bump("radial", seed, kind)
    nan = u.values.copy()
    nan[0] = nan[-1] = np.nan
    for x in (Field(np.exp(-odd.nodes ** 2), odd, u.params), u.with_values(nan),
              bump("line", seed, kind), radial, radial.with_values(np.ones(radial.grid.n))):
        assert fold(x) is x and unfold(x) is x
    for line in (u.grid, odd):
        raw = bump("line", seed, kind, grid=line).values
        even = line.mirror(raw.copy())
        assert not np.array_equal(raw, raw[::-1]) and np.all(np.isfinite(raw))
        assert np.array_equal(even[line.n // 2:], raw[line.n // 2:])
        assert np.array_equal(even, even[::-1])
    even = u.grid.mirror(bump("line", seed, kind).values)
    folded = fold(u.with_values(even))
    assert folded.grid.geometry == "half_line"
    assert np.array_equal(unfold(folded).values, even)
    for y in (radial, v):
        values = y.values.copy()
        assert np.array_equal(y.grid.mirror(values), y.values)


@pytest.mark.parametrize("geometry", sorted(SETUPS))
def test_convolve_is_the_periodic_convolution_on_the_line(geometry):
    """On the line, ``convolve`` is the circular convolution sum over the FFT-ordered
    displacements to 1e-13; every other grid raises."""
    u = bump(geometry, 3)
    kernel = np.random.default_rng(3).standard_normal(u.grid.n)
    if geometry != "line":
        with pytest.raises(ValidationError, match=f"line grid, got {geometry}"):
            u.grid.convolve(kernel, u.values)
        return
    j = np.arange(u.grid.n)
    direct = np.array([np.sum(kernel * u.values[(i - j) % u.grid.n]) for i in j])
    error = np.max(np.abs(u.grid.convolve(kernel, u.values) - direct))
    assert error <= 1e-13 * np.max(np.abs(direct))


def test_half_grid_rejects_operators_without_a_cosine_form():
    """An even field's gradient is odd, and the radial operators have no
    cosine form: on a half grid they raise instead of taking a radial branch.
    So does ``decompose``, whose radial mollifier would divide by sin theta."""
    u, right = even_bump(3)
    half = u.grid.half
    for call in (lambda: half.gradient(right),
                 lambda: half.shifted_helmholtz_solve(right, np.zeros(half.n)),
                 lambda: half.grad_sq(right, r_min=1.0),
                 lambda: fn.radial_momentum(Field(right, half, u.params)),
                 lambda: decompose(Field(right, half, u.params), 2.0, 1.0)):
        with pytest.raises(ValidationError, match="half"):
            call()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31))
def test_cosine_parseval_is_the_line_gradient_quadrature(seed):
    u, right = even_bump(seed)
    G = u.grid.half.free_flow(right, 1e-3)[1]()      # |grad u|^2 of the flow's input
    assert G == pytest.approx(u.grid.grad_sq(u.values), rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(geometry=st.sampled_from(sorted(SETUPS)), seed=st.integers(0, 2 ** 31),
       dt=st.floats(min_value=1e-5, max_value=1e-1))
def test_flow_is_reversible_and_unitary(geometry, seed, dt):
    u = bump(geometry, seed)
    there, _ = u.grid.free_flow(u.values, dt)
    back, _ = u.grid.free_flow(there, -dt)
    assert np.max(np.abs(back - u.values)) <= 1e-13 * np.max(np.abs(u.values))
    mass = lambda v: np.sum(np.abs(v) ** 2 * u.grid.weights)
    assert mass(there) == pytest.approx(mass(u.values), rel=1e-13)


def test_half_and_full_propagators_are_built_once_each(monkeypatch):
    builds, build = [], core._Spectral.propagator

    def counting_build(grid, dt):
        builds.append(grid)
        return build(grid, dt)

    monkeypatch.setattr(core._Spectral, "propagator", counting_build)
    u, right = even_bump(7)
    full, half = u.values, u.grid.half
    for _ in range(3):
        full, _ = u.grid.free_flow(full, 1e-3)
        right, _ = half.free_flow(right, 1e-3)
    assert len(builds) == 2 and builds[0] is u.grid and builds[1] is half
    # the half flow is the full flow of the even field, mirrored
    assert np.max(np.abs(full[u.grid.n // 2:] - right)) <= 1e-13 * np.max(np.abs(right))


def test_half_grid_is_built_on_each_access_without_a_reference_cycle():
    """Each access builds a new half, which holds its line; the line holds no
    half, and no cache a grid keeps in its ``__dict__`` refers back to it.  So
    every kind of grid (and a half's line with it), once its operators have
    built every cache (k and k^2, a solver of its own, a two-slot flow, the flux
    factors), is freed by reference counting alone as soon as it is deleted."""
    line = line_grid(12.0, 256)
    assert line.half is not line.half and line.half.full is line
    for kind in sorted(SETUPS):
        grid = SETUPS[kind][1]()
        rhs = np.exp(-grid.nodes ** 2)
        grid.helmholtz_solver()(rhs)
        for dt in (1e-3, 5e-4, 1e-3):
            grid.free_flow(rhs + 0j, dt, 2)[1]()
        grid.laplacian(rhs)
        assert len(grid.__dict__["_propagators"]) == 2
        refs = [weakref.ref(g) for g in (grid, grid.full) if g is not None]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del grid
            assert [ref() for ref in refs] == [None] * len(refs), kind
        finally:
            if enabled:
                gc.enable()


@pytest.mark.parametrize("grid", [line_grid(12.0, 255), radial_grid(2, 12.0, 256)],
                         ids=["odd-line", "radial"])
def test_half_grid_needs_an_even_line(grid):
    """An odd line has no n/2 right-half cells, and shells have no mirror."""
    with pytest.raises(ValidationError, match="even-n line"):
        grid.half
