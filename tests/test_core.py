import math
from types import SimpleNamespace

import numpy as np
import pytest

from inls_lab import Field, NumericsError, ValidationError, make_params, rescale
from inls_lab.core import _interp_spline, grid_for, line_grid, radial_grid, sample_scaled
from inls_lab.functionals import energy, mass


def test_line_grid_cell_centered_avoids_origin():
    g = line_grid(10.0, 256, 0.5)
    assert np.min(np.abs(g.nodes)) == pytest.approx(g.spacing / 2)
    assert np.all(g.weights > 0)
    assert g.weights.sum() == pytest.approx(20.0)


def test_line_weight_b_mirror_symmetric():
    """The nodes and the cell averages of |x|^-b are symmetric to the last bit,
    also when dx is not a power of two; for odd n the middle node is 0.0."""
    for L, n in ((16.0, 4608), (16.0, 6144), (7.3, 4096), (8.0, 9)):
        g = line_grid(L, n, 0.5)
        assert np.array_equal(g.weight_b, g.weight_b[::-1])
        assert np.array_equal(g.nodes, -g.nodes[::-1])
    assert g.nodes[4] == 0.0


@pytest.mark.parametrize("b", [0.25, 0.5, 0.7])
def test_line_weight_b_odd_n_origin_cell(b):
    """For odd n the middle cell straddles the origin; its weight is the exact
    average 2 (dx/2)^(1-b) / ((1-b) dx) over both halves."""
    g = line_grid(8.0, 9, b)
    dx = g.spacing
    exact = 2.0 * (dx / 2) ** (1 - b) / ((1 - b) * dx)
    assert g.weight_b[4] == pytest.approx(exact, rel=1e-14)


def test_radial_grid_ball_volume():
    for dim in (2, 3):
        g = radial_grid(dim, 8.0, 4096)
        omega = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
        for R in (1.0, 3.0, 8.0):
            inside = g.nodes <= R
            vol = g.weights[inside].sum()
            assert vol == pytest.approx(omega * R ** dim, rel=1e-3)
        assert np.min(g.nodes) == pytest.approx(g.spacing / 2)


def test_radial_grid_total_volume_exact():
    g = radial_grid(3, 5.0, 64)
    omega = math.pi ** 1.5 / math.gamma(2.5)
    assert g.weights.sum() == pytest.approx(omega * 5.0 ** 3, rel=1e-14)


def test_grid_validation():
    with pytest.raises(ValidationError):
        line_grid(10.0, 256, 1.2)        # not integrable on the line
    with pytest.raises(ValidationError):
        radial_grid(1, 10.0, 256)        # dim 1 is line geometry
    with pytest.raises(ValidationError):
        radial_grid(2, -1.0, 256)


@pytest.mark.parametrize("build", [
    lambda: line_grid(math.nan, 256),
    lambda: line_grid(math.inf, 256),
    lambda: radial_grid(2, math.nan, 256),
    lambda: radial_grid(2, math.inf, 256),
    lambda: make_params(1, math.inf, 0.5),
], ids=["line-nan", "line-inf", "radial-nan", "radial-inf", "sigma-inf"])
def test_non_finite_grid_and_params_rejected(build):
    with pytest.raises(ValidationError):
        build()


def test_spectral_laplacian_annihilates_constants():
    params = make_params(1, 2.0, 0.0)
    g = line_grid(10.0, 512)
    u = Field(np.ones(512, dtype=complex), g, params)
    assert np.max(np.abs(g.laplacian(u.values))) < 1e-12


def test_spectral_laplacian_fourier_mode():
    params = make_params(1, 2.0, 0.0)
    g = line_grid(10.0, 512)
    k = 2 * np.pi * 3 / 20.0                       # an exact grid mode
    u = Field(np.sin(k * g.nodes).astype(complex), g, params)
    expected = -k ** 2 * np.sin(k * g.nodes)
    assert np.max(np.abs(g.laplacian(u.values).real - expected)) < 1e-10


def test_radial_laplacian_gaussian_and_order():
    params = make_params(3, 1.0, 0.5)
    errs = []
    for n in (512, 1024, 2048):
        g = radial_grid(3, 10.0, n, 0.5)
        u = Field(np.exp(-g.nodes ** 2 / 2), g, params)
        exact = (g.nodes ** 2 - 3) * np.exp(-g.nodes ** 2 / 2)
        errs.append(np.max(np.abs(g.laplacian(u.values) - exact)[g.nodes < 8.0]))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders)


def test_helmholtz_inverts_operator():
    g = radial_grid(2, 10.0, 1024, 0.5)
    u = np.exp(-g.nodes ** 2)
    rhs = u - g.laplacian(u)
    back = g.helmholtz_solver()(rhs)
    assert np.max(np.abs(back - u)) < 1e-10


def test_rescale_identity():
    params = make_params(1, 1.5, 0.5)
    g = line_grid(12.0, 1024, 0.5)
    u = Field(np.exp(-g.nodes ** 2 / 2) * np.exp(0.3j * g.nodes), g, params)
    v = rescale(u, 1.0)
    assert np.max(np.abs(v.values - u.values)) < 1e-12


def test_rescale_mass_preservation_mass_critical():
    params = make_params(1, 1.5, 0.5)
    g = line_grid(12.0, 4096, 0.5)
    u = Field(np.exp(-g.nodes ** 2 / 2).astype(complex), g, params)
    for rho in (0.7, 1.3, 2.0):
        v = rescale(u, rho)
        assert mass(v) == pytest.approx(mass(u), rel=1e-6)


def test_rescale_energy_scaling_mass_critical():
    params = make_params(1, 1.5, 0.5)
    g = line_grid(12.0, 8192, 0.5)
    u = Field((np.exp(-g.nodes ** 2 / 2) * np.exp(0.2j * g.nodes)).astype(complex), g, params)
    e0 = energy(u)
    for rho in (0.8, 1.25):
        assert energy(rescale(u, rho)) == pytest.approx(rho ** 2 * e0, rel=1e-5)


def test_rescale_warns_on_mass_escape():
    params = make_params(1, 1.5, 0.5)
    g = line_grid(12.0, 1024, 0.5)
    u = Field(np.exp(-g.nodes ** 2 / 18).astype(complex), g, params)   # wide
    with pytest.warns(RuntimeWarning, match="mass"):
        rescale(u, 0.05)


def test_rescale_rejects_nonpositive_rho():
    params = make_params(1, 1.5, 0.5)
    g = line_grid(12.0, 256, 0.5)
    u = Field(np.exp(-g.nodes ** 2), g, params)
    with pytest.raises(ValidationError):
        rescale(u, -1.0)


def test_sample_scaled_radial_even_extension():
    params = make_params(2, 0.75, 0.5)
    g = radial_grid(2, 10.0, 1024, 0.5)
    u = Field(np.exp(-g.nodes ** 2 / 2), g, params)
    # shrinking by rho < 1 samples near r = 0 where the mirror matters
    vals = sample_scaled(u, 0.05)
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("grid", [line_grid(10.0, 512), radial_grid(2, 10.0, 512)],
                         ids=["line", "radial"])
def test_complex_sample_scaled_matches_its_parts(grid, order):
    """One spline of complex data evaluates as the real-part and the
    imaginary-part splines do; the scale 1.3 also exercises the zero extension."""
    x = grid.nodes
    u = Field(np.exp(-x ** 2 / 2 + 1j * (0.7 * x + 0.3 * x ** 2)), grid,
              make_params(grid.dim, 1.0, 0.0))
    for scale in (0.6, 1.3):
        both = sample_scaled(u, scale, order)
        parts = (sample_scaled(u.with_values(u.values.real), scale, order)
                 + 1j * sample_scaled(u.with_values(u.values.imag), scale, order))
        assert both.dtype == np.complex128
        assert np.max(np.abs(both - parts)) <= 1e-15 * np.max(np.abs(parts))


SPLINE_GRIDS = pytest.mark.parametrize("grid", [
    line_grid(12.0, 256), line_grid(12.0, 255), line_grid(12.0, 256).half,
    radial_grid(2, 10.0, 200)], ids=["line-even-n", "line-odd-n", "half", "radial"])


@pytest.mark.parametrize("order", [3, 5])
@SPLINE_GRIDS
def test_spline_is_scipys_bit_for_bit(grid, order):
    """The spline evaluates to the last bit as SciPy's not-a-knot
    ``make_interp_spline`` of the even extension does (complex data as its
    (re, im) columns), inside the domain and, as zero, outside it."""
    from scipy.interpolate import make_interp_spline

    x = grid.nodes
    real = np.exp(-x ** 2 / 3) * (1.0 + 0.1 * np.random.default_rng(5).standard_normal(grid.n))
    pts = np.concatenate([scale * x for scale in (0.37, 1.0, 1.9)])
    for values in (real, real * np.exp(1j * (0.3 * x + 0.1 * x ** 2))):
        xs, ys = grid.even_extension(values)
        inside = (pts >= xs[0]) & (pts <= xs[-1])
        assert not inside.all()
        if np.iscomplexobj(ys):
            ys = np.column_stack([ys.real, ys.imag])
        expected = np.zeros((len(pts),) + ys.shape[1:])
        expected[inside] = make_interp_spline(xs, ys, k=order)(pts[inside])
        got = _interp_spline(grid, values, order)(pts)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cast", [float, complex])
@SPLINE_GRIDS
def test_sample_scaled_leaves_the_field_untouched(grid, cast):
    """The spline's banded solve overwrites its right-hand side, which must not
    be the field's values (a line's even extension is the values themselves)."""
    u = Field(np.exp(-grid.nodes ** 2).astype(cast), grid, make_params(grid.dim, 1.0, 0.0))
    before = u.values.copy()
    sample_scaled(u, 0.7)
    assert u.values.tobytes() == before.tobytes()


def test_spline_rejects_data_it_cannot_interpolate():
    """Non-finite data and a singular collocation matrix (a node given twice)
    are numerical failures, as the checks of SciPy's spline were."""
    grid = line_grid(12.0, 64)
    values = np.exp(-grid.nodes ** 2)
    values[40] = np.nan
    with pytest.raises(NumericsError, match="non-finite"):
        _interp_spline(grid, values)
    xs = np.array([0.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    twice = SimpleNamespace(even_extension=lambda v: (xs, v))
    with pytest.raises(NumericsError, match="singular"):
        _interp_spline(twice, np.cos(xs))


def test_field_length_mismatch_rejected():
    params = make_params(1, 1.5, 0.5)
    g = line_grid(12.0, 256, 0.5)
    with pytest.raises(ValidationError):
        Field(np.zeros(128), g, params)


@pytest.mark.parametrize("params, grid", [
    pytest.param(make_params(1, 2.0, 0.0), line_grid(12.0, 256, 0.5), id="b"),
    pytest.param(make_params(3, 1.0, 0.5), radial_grid(2, 12.0, 256, 0.5), id="dim"),
    pytest.param(make_params(2, 1.0, 0.5), line_grid(12.0, 256, 0.5), id="line-for-radial"),
    pytest.param(make_params(1, 1.5, 0.5), radial_grid(2, 12.0, 256, 0.5), id="radial-for-line"),
])
def test_field_rejects_grid_built_for_other_params(params, grid):
    """A grid built for another (dim, b) would weight the field with the wrong
    |x|^-b or volume elements."""
    with pytest.raises(ValidationError, match="does not match params"):
        Field(np.ones(grid.n, dtype=complex), grid, params)


def test_grid_for_dispatch():
    p1 = make_params(1, 1.5, 0.5)
    p3 = make_params(3, 1.0, 0.5)
    assert grid_for(p1, 10.0, 64).geometry == "line"
    assert grid_for(p3, 10.0, 64).geometry == "radial"


@pytest.mark.parametrize("n", [64, 2048])
def test_half_grid_transforms_are_scipy_fft_dct_bit_for_bit(n):
    """The DCT pair the half grid calls (pocketfft's, past scipy.fft's
    per-call dispatch) is scipy.fft's orthonormal DCT-II and its inverse, bit
    for bit, on real values and on complex values as (re, im) columns."""
    import scipy.fft

    from inls_lab import core

    rng = np.random.default_rng(n)
    real = rng.standard_normal(n)
    for values in (real, real + 1j * rng.standard_normal(n)):
        for fast, public in ((core._dct, scipy.fft.dct), (core._idct, scipy.fft.idct)):
            assert np.array_equal(core._Half._transform(fast, values),
                                  core._Half._transform(public, values))
