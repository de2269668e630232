import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf

from inls_lab import Field, ValidationError, make_params
from inls_lab.core import line_grid
from inls_lab import functionals as fn
from inls_lab.exact import SFamilyParams, s_profile
from inls_lab.inequalities import corpus_rng, random_bump_field

SQRT_PI = math.sqrt(math.pi)


def gaussian_field(params, grid, width=1.0):
    return Field(np.exp(-grid.nodes ** 2 / (2 * width ** 2)).astype(complex), grid, params)


def test_zero_field_functionals(plain_line):
    params, grid = plain_line
    z = Field(np.zeros(grid.n, dtype=complex), grid, params)
    assert fn.mass(z) == 0.0
    assert fn.potential(z) == 0.0
    assert fn.energy(z) == 0.0
    assert fn.grad_norm_sq(z) == 0.0
    assert fn.variance(z) == 0.0


def test_mass_gaussian(plain_line):
    params, grid = plain_line
    assert fn.mass(gaussian_field(params, grid)) == pytest.approx(SQRT_PI, rel=1e-8)


def test_mass_quintic_soliton(quintic_gs):
    # closed form 3^(1/4) sech^(1/2)(2x): mass = sqrt(3) pi / 2
    assert fn.mass(quintic_gs.profile) == pytest.approx(math.sqrt(3) * math.pi / 2, rel=1e-6)


def test_potential_identity_at_ground_state(line_gate_gs):
    gs = line_gate_gs
    sig = gs.params.sigma
    expected = (2 * sig + 2) / (2 * sig) * fn.mass(gs.profile)
    assert fn.potential(gs.profile) == pytest.approx(expected, rel=1e-5)


def test_potential_gaussian_vs_adaptive_quadrature():
    params = make_params(1, 1.0, 0.5)    # subcritical oracle params: b=0.5 weight
    grid = line_grid(12.0, 32768, 0.5)
    u = gaussian_field(params, grid)
    oracle = 2 * quad(lambda x: x ** -0.5 * np.exp(-2 * x ** 2), 0, 12.0, points=[0.0])[0]
    assert fn.potential(u) == pytest.approx(oracle, rel=1e-6)


def test_energy_zero_at_mass_critical_ground_state(line_gate_gs):
    gs = line_gate_gs
    assert abs(fn.energy(gs.profile)) < 1e-5 * fn.mass(gs.profile)


def test_energy_scaled_ground_state(line_gate_gs):
    gs = line_gate_gs
    c, sig = 1.05, gs.params.sigma
    scaled = gs.profile.with_values(c * gs.profile.values)
    expected = (c ** 2 - c ** (2 * sig + 2)) * fn.mass(gs.profile) / (2 * sig)
    assert expected < 0
    assert fn.energy(scaled) == pytest.approx(expected, rel=1e-5)


def test_grad_norm_ground_state(line_gate_gs):
    gs = line_gate_gs
    assert fn.grad_norm_sq(gs.profile) == pytest.approx(
        fn.mass(gs.profile) / gs.params.sigma, rel=1e-5
    )


def test_grad_norm_gaussian(plain_line):
    params, grid = plain_line
    assert fn.grad_norm_sq(gaussian_field(params, grid)) == pytest.approx(SQRT_PI / 2, rel=1e-8)


def test_energy_definitional_identity(mc_line, rng):
    params, grid = mc_line
    u = random_bump_field(params, grid, rng)
    lhs = fn.energy(u)
    rhs = 0.5 * fn.grad_norm_sq(u) - fn.potential(u) / (2 * params.sigma + 2)
    assert lhs == rhs


def test_variance_gaussian(plain_line):
    params, grid = plain_line
    assert fn.variance(gaussian_field(params, grid)) == pytest.approx(SQRT_PI / 2, rel=1e-8)


def test_variance_translated_gaussian(plain_line):
    params, grid = plain_line
    x0 = 1.7
    u = Field(np.exp(-(grid.nodes - x0) ** 2 / 2).astype(complex), grid, params)
    assert fn.variance(u) == pytest.approx(SQRT_PI / 2 + x0 ** 2 * SQRT_PI, rel=1e-6)


def test_radial_momentum_real_field(plain_line, ic_radial):
    for params, grid in (plain_line, ic_radial):
        u = gaussian_field(params, grid)
        assert abs(fn.radial_momentum(u)) < 1e-12


def test_radial_momentum_chirped_gaussian(plain_line):
    params, grid = plain_line
    u = Field(np.exp(-grid.nodes ** 2 / 2) * np.exp(-0.25j * grid.nodes ** 2), grid, params)
    assert fn.radial_momentum(u) == pytest.approx(-SQRT_PI / 4, rel=1e-6)


def test_radial_momentum_matches_variance_rate(quintic_gs):
    # d/dt variance = 4 * radial momentum along the exact blow-up family
    fam = SFamilyParams(T=1.0, lam=1.0, gamma=0.0)
    h = 1e-4
    t0 = 0.4
    mom = fn.radial_momentum(s_profile(fam, quintic_gs, t0))
    dv = (
        fn.variance(s_profile(fam, quintic_gs, t0 + h))
        - fn.variance(s_profile(fam, quintic_gs, t0 - h))
    ) / (2 * h)
    assert 4 * mom == pytest.approx(dv, rel=1e-3)


def test_boundary_mass_fraction_uniform_and_zero():
    """A uniform field puts its share of the cells in the outer shell; the zero
    field reads 0."""
    params = make_params(1, 2.0, 0.0)
    grid = line_grid(16.0, 256)     # nodes at the odd multiples of dx/2 = 1/16
    assert fn.BOUNDARY_SHELL == 0.1
    # |x| >= 0.9 * 16 = 14.4 holds for the 13 outermost cells on each side
    uniform = Field(np.full(grid.n, 2.0 + 0j), grid, params)
    assert fn.boundary_mass_fraction(uniform) == 26 / 256
    assert fn.boundary_mass_fraction(uniform.with_values(0 * uniform.values)) == 0.0


def test_concentrated_mass_full_window(mc_line, rng):
    params, grid = mc_line
    u = random_bump_field(params, grid, rng)
    assert fn.concentrated_mass(u, 0.0, 50.0) == pytest.approx(fn.mass(u), rel=1e-12)


def test_concentrated_mass_gaussian_erf(fine_line):
    params, grid = fine_line
    u = gaussian_field(params, grid)
    expected = SQRT_PI * erf(1.0)
    assert fn.concentrated_mass(u, 0.0, 1.0) == pytest.approx(expected, rel=1e-6)


def test_concentrated_mass_monotone_corpus(mc_line):
    params, grid = mc_line
    rng = corpus_rng(0x1515, "monotone")
    radii = np.linspace(0.3, 11.0, 10)
    for _ in range(100):
        u = random_bump_field(params, grid, rng)
        vals = [fn.concentrated_mass(u, 0.0, r) for r in radii]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= fn.mass(u) + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    radius=st.floats(min_value=0.05, max_value=12.0),
    center=st.floats(min_value=-5.0, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_window_mass_bounded_by_total(radius, center, seed):
    params = make_params(1, 1.5, 0.5)
    grid = line_grid(12.0, 512, 0.5)
    u = random_bump_field(params, grid, np.random.default_rng(seed))
    total = fn.mass(u)
    with pytest.warns(RuntimeWarning) if radius < grid.spacing else _nullcontext():
        val = fn.concentrated_mass(u, center, radius)
    assert -1e-12 <= val <= total * (1 + 1e-12)


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *args):
        return False


def test_sup_concentrated_mass_translated_gaussian(fine_line):
    params, grid = fine_line
    x0 = 2.3
    u = Field(np.exp(-(grid.nodes - x0) ** 2 / 2).astype(complex), grid, params)
    val, ctr = fn.sup_concentrated_mass(u, 1.0)
    assert abs(ctr - x0) <= grid.spacing
    assert val == pytest.approx(SQRT_PI * erf(1.0), rel=1e-5)


def test_sup_concentrated_mass_zero_field(plain_line):
    params, grid = plain_line
    val, _ = fn.sup_concentrated_mass(Field(np.zeros(grid.n, dtype=complex), grid, params), 1.0)
    assert val == 0.0


def test_sup_concentrated_mass_picks_larger_bump(plain_line):
    params, grid = plain_line
    x = grid.nodes
    u = Field(
        (np.exp(-(x + 5) ** 2) + 2 * np.exp(-(x - 5) ** 2)).astype(complex), grid, params
    )
    val, ctr = fn.sup_concentrated_mass(u, 1.0)
    assert abs(ctr - 5.0) < 0.5
    # brute-force oracle over every grid center
    brute = max(fn.concentrated_mass(u, y, 1.0) for y in x[:: max(1, grid.n // 512)])
    assert val >= brute - 1e-12


def test_sup_dominates_every_center_exhaustive():
    params = make_params(1, 1.5, 0.5)
    grid = line_grid(10.0, 512, 0.5)
    u = random_bump_field(params, grid, corpus_rng(0x1515, "supgrid"))
    val, _ = fn.sup_concentrated_mass(u, 0.8)
    for y in grid.nodes:
        assert val >= fn.concentrated_mass(u, y, 0.8) - 1e-12


def test_sup_concentrated_mass_radial_origin(ic_radial):
    params, grid = ic_radial
    u = gaussian_field(params, grid)
    val, ctr = fn.sup_concentrated_mass(u, 1.5)
    assert ctr == 0.0
    assert val == pytest.approx(fn.concentrated_mass(u, 0.0, 1.5), rel=1e-14)


def test_lp_norm_p2_is_sqrt_mass(mc_line, rng):
    params, grid = mc_line
    u = random_bump_field(params, grid, rng)
    assert fn.lp_norm(u, 2.0) == pytest.approx(math.sqrt(fn.mass(u)), rel=1e-12)


def test_lp_norm_gaussian_p4(plain_line):
    params, grid = plain_line
    u = gaussian_field(params, grid)
    assert fn.lp_norm(u, 4.0) == pytest.approx(math.sqrt(math.pi / 2) ** 0.25, rel=1e-6)


def test_lp_norm_plateau():
    params = make_params(1, 1.5, 0.5)
    grid = line_grid(12.0, 8192, 0.5)
    h, half = 0.7, 2.0
    vals = np.where(np.abs(grid.nodes) <= half, h, 0.0).astype(complex)
    u = Field(vals, grid, params)
    p = 3.7
    assert fn.lp_norm(u, p) == pytest.approx(h * (2 * half) ** (1 / p), rel=1e-3)


@pytest.mark.parametrize("radius", [0.0, -1.0])
def test_lp_norm_rejects_nonpositive_region(ic_radial, radius):
    """A window radius <= 0 is bad input, not the window of radius |R|."""
    params, grid = ic_radial
    u = gaussian_field(params, grid)
    with pytest.raises(ValidationError, match="radius"):
        fn.lp_norm(u, 2.0, region=(0.0, radius))


def test_gradient_spectral_vs_fd(plain_line):
    params, grid = plain_line
    u = gaussian_field(params, grid, width=1.3)
    spectral = fn.grad_norm_sq(u)
    v = u.values.real
    dx = grid.spacing
    d4 = (np.roll(v, 2) - 8 * np.roll(v, 1) + 8 * np.roll(v, -1) - np.roll(v, -2)) / (12 * dx)
    fd = float(np.sum(d4 ** 2) * dx)
    assert spectral == pytest.approx(fd, rel=1e-4)


def test_global_existence_threshold_consistency(line_gate_gs):
    # below the ground-state mass the energy dominates a positive multiple
    # of the gradient term (consequence of the sharp interpolation bound)
    gs = line_gate_gs
    params = gs.params
    grid = line_grid(12.0, 2048, 0.5)
    rng = corpus_rng(0x1515, "threshold")
    m_q = gs.q_mass
    expo = (4 - 2 * params.b) / params.dim
    for _ in range(1000):
        u = random_bump_field(params, grid, rng)
        frac = rng.uniform(0.05, 0.98)
        u = u.with_values(u.values * math.sqrt(frac * m_q / fn.mass(u)))
        bound = 0.5 * fn.grad_norm_sq(u) * (1 - (fn.mass(u) / m_q) ** (expo / 2))
        assert fn.energy(u) >= bound - 1e-9 * abs(bound)


def test_radial_center_must_be_origin(ic_radial):
    params, grid = ic_radial
    u = gaussian_field(params, grid)
    with pytest.raises(Exception):
        fn.concentrated_mass(u, 1.0, 0.5)
