import math

import numpy as np
import pytest
from scipy.integrate import quad

from inls_lab import (
    Field, ValidationError, decompose, estimate_blowup_time,
    mass_concentration_series, make_params, rescaled_profile,
    sigma_c_window_series, window_radii,
)
from inls_lab.analysis import BlowupFit, _mollify_radial, smooth_cutoff
from inls_lab.core import radial_grid
from inls_lab.evolution import Trajectory, TrajectorySample
from inls_lab import functionals as fn
from inls_lab.inequalities import corpus_rng, random_bump_field


def synthetic_trajectory(ts, gs_norm):
    traj = Trajectory(termination="resolution_limit")
    for t, g in zip(ts, gs_norm):
        traj.samples.append(TrajectorySample(
            time=float(t), dt=0.0, mass=1.0, energy=0.0,
            grad_norm_sq=float(g) ** 2, variance=0.0, boundary_frac=0.0,
        ))
    return traj


def test_fit_pseudoconformal_rate_synthetic():
    ts = np.linspace(0.0, 0.999, 2500)
    traj = synthetic_trajectory(ts, (1 - ts) ** -1.0)
    fit = estimate_blowup_time(traj, s_c=0.0)
    assert abs(fit.T_hat - 1.0) < 0.01
    assert fit.exponent == pytest.approx(-1.0, abs=0.05)
    assert fit.T_hat > ts[-1]
    assert 0.0 <= fit.r_squared <= 1.0


def test_fit_lower_bound_rate_synthetic():
    ts = np.linspace(0.0, 0.9999, 4000)
    traj = synthetic_trajectory(ts, (1 - ts) ** -0.5)
    fit = estimate_blowup_time(traj, s_c=0.0)
    assert fit.exponent == pytest.approx(-0.5, abs=0.05)
    assert abs(fit.T_hat - 1.0) < 0.01


def test_fit_rejects_flat_series():
    ts = np.linspace(0.0, 1.0, 300)
    traj = synthetic_trajectory(ts, np.full_like(ts, 2.0))
    with pytest.raises(ValidationError, match="no blow-up regime"):
        estimate_blowup_time(traj, s_c=0.0)


def test_fit_rejects_sparse_final_decade():
    ts = np.array([0.0, 0.5, 0.9, 0.99, 0.999])
    traj = synthetic_trajectory(ts, (1 - ts) ** -1.0)
    with pytest.raises(ValidationError, match="final decade"):
        estimate_blowup_time(traj, s_c=0.0)


def test_concentration_series_alpha_gate():
    ts = np.linspace(0.0, 0.99, 200)
    traj = synthetic_trajectory(ts, (1 - ts) ** -1.0)
    fit = BlowupFit(T_hat=1.0, exponent=-1.0, r_squared=1.0, window=(0.5, 0.99))
    with pytest.raises(ValidationError):
        mass_concentration_series(traj, 0.75, fit)
    with pytest.raises(ValidationError, match="snapshots"):
        mass_concentration_series(traj, 0.25, fit)


def test_rescaled_profile_exact_orbit_member(quintic_gs):
    gamma = 0.9
    u = quintic_gs.profile.with_values(np.exp(1j * gamma) * quintic_gs.profile.values)
    out = rescaled_profile(u, quintic_gs)
    assert out.err < 1e-6
    assert out.rho == pytest.approx(1.0, rel=1e-12)
    # theta = -gamma on the circle; a sum a hair below 0 is as close as one above
    assert math.remainder(out.theta + gamma, 2 * math.pi) == pytest.approx(0.0, abs=1e-9)


def test_rescaled_profile_far_field_stays_far(quintic_gs):
    grid = quintic_gs.profile.grid
    m_q = fn.mass(quintic_gs.profile)
    vals = np.exp(-grid.nodes ** 2 / 2).astype(complex)
    u = Field(vals, grid, quintic_gs.params)
    u = u.with_values(u.values * math.sqrt(4 * m_q / fn.mass(u)))  # twice the L2 norm
    out = rescaled_profile(u, quintic_gs)
    assert out.err > 0.1


def test_window_radii_values_and_homogeneity(ic_radial):
    params, grid = ic_radial
    u = Field(np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    R1, rho1 = window_radii(u, u0_mass=1.0)
    u2 = u.with_values(2.0 * u.values)   # doubles the gradient norm
    R2, rho2 = window_radii(u2, u0_mass=1.0)
    # (N=2, sigma=1, b=0.5): R ~ g^{-2/3}, rho ~ g^{4/3}
    assert R2 / R1 == pytest.approx(2 ** (-2.0 / 3.0), rel=1e-12)
    assert rho2 / rho1 == pytest.approx(2 ** (4.0 / 3.0), rel=1e-12)


def test_window_radii_unit_normalization(ic_radial):
    params, grid = ic_radial
    u = Field(np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    g = math.sqrt(fn.grad_norm_sq(u))
    u = u.with_values(u.values / g)      # unit gradient norm
    R, rho = window_radii(u, u0_mass=1.0)
    assert R == pytest.approx(1.0, rel=1e-12)
    assert rho == pytest.approx(1.0, rel=1e-12)


def test_window_radii_sigma_gate():
    params = make_params(2, 2.5, 0.5)    # intercritical but sigma >= 2
    grid = radial_grid(2, 10.0, 256, 0.5)
    u = Field(np.exp(-grid.nodes ** 2), grid, params)
    with pytest.raises(ValidationError):
        window_radii(u, 1.0)
    # the inft series takes its radius from window_radii, gate included
    traj = synthetic_trajectory([0.0], [math.sqrt(fn.grad_norm_sq(u))])
    traj.samples[0].snapshot = u
    with pytest.raises(ValidationError):
        sigma_c_window_series(traj, "inft")


@pytest.mark.parametrize("mode", ["fint", "inft"])
def test_window_series_rejects_zero_gradient_snapshot(ic_radial, mode):
    """|grad u| = 0 (a zero field, as only a hand-edited run directory holds)
    has no window radius in either mode: a ValidationError, so ``analyze``
    exits 2, not a ZeroDivisionError from the negative power."""
    params, grid = ic_radial
    traj = synthetic_trajectory([0.0], [0.0])
    traj.samples[0].snapshot = Field(np.zeros(grid.n, dtype=complex), grid, params)
    with pytest.raises(ValidationError, match="grad u"):
        sigma_c_window_series(traj, mode)
    if mode == "inft":
        with pytest.raises(ValidationError, match="grad u"):
            window_radii(traj.samples[0].snapshot, 1.0)


def test_smooth_cutoff_shape():
    s = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    vals = smooth_cutoff(s)
    assert np.array_equal(vals[:3], [1.0, 1.0, 1.0])
    assert vals[3] == pytest.approx(0.5)
    assert vals[4] == 0.0 and vals[5] == 0.0


def test_decompose_cutoff_saturates(mc_line, rng):
    params, grid = mc_line
    u = random_bump_field(params, grid, rng)
    dec = decompose(u, R=3 * grid.extent, rho_freq=5.0)
    assert np.max(np.abs(dec.u2.values)) < 1e-14
    assert np.max(np.abs(dec.u1L.values + dec.u1H.values - u.values)) < 1e-12


def test_decompose_reconstruction_line_and_radial(mc_line, ic_radial):
    rng = corpus_rng(0x1515, "recon_test")
    for params, grid in (mc_line, ic_radial):
        for _ in range(10):
            u = random_bump_field(params, grid, rng)
            dec = decompose(u, rng.uniform(0.5, 6.0), rng.uniform(1.0, 40.0))
            assert dec.reconstruction_error(u) < 1e-10


def test_decompose_norm_pythagoras(mc_line, rng):
    params, grid = mc_line
    u = random_bump_field(params, grid, rng)
    dec = decompose(u, 2.0, 10.0)
    u1 = dec.u1L.with_values(dec.u1L.values + dec.u1H.values)
    cross = float(np.real(np.sum(u1.values * np.conj(dec.u2.values) * grid.weights)))
    total = fn.mass(u1) + fn.mass(dec.u2) + 2 * cross
    assert total == pytest.approx(fn.mass(u), rel=1e-12)


def test_mollifier_identity_limit(mc_line, ic_radial):
    # kernel much narrower than a cell: the discrete mollifier becomes the identity
    for params, grid in (mc_line, ic_radial):
        x = grid.nodes
        u = Field(np.exp(-x ** 2 / 2).astype(complex), grid, params)
        dec = decompose(u, 2 * grid.extent, rho_freq=100.0 / grid.spacing)
        rel = math.sqrt(fn.mass(dec.u1H.with_values(dec.u1L.values - u.values)) / fn.mass(u))
        assert rel < 1e-3


def test_line_mollifier_narrower_than_a_cell_is_the_identity(mc_line):
    # only displacement 0 lies inside the bump's support: the FFT path returns u1
    params, grid = mc_line
    u = Field(np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    dec = decompose(u, 0.5 * grid.extent, rho_freq=1.5 / grid.spacing)
    assert np.max(np.abs(dec.u1H.values)) < 1e-14


def test_mollifier_smooth_field_convergence(ic_radial):
    params, grid = ic_radial
    u = Field(np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    errs = []
    for rho in (5.0, 10.0, 20.0):
        dec = decompose(u, 2 * grid.extent, rho_freq=rho)
        errs.append(math.sqrt(fn.mass(dec.u1H) / fn.mass(u)))
    assert errs[0] > errs[1] > errs[2]          # mollification error shrinks
    assert errs[2] < 1e-2


def _angular_kernel_reference(grid, rho, i, js):
    """Angular integral of sin^(N-2) theta (A + c cos theta)_+^3 for the pairs
    (i, j), up to a constant factor: closed form for N = 3, adaptive
    quadrature on the support [0, theta*] for N = 2."""
    r = grid.nodes
    A = 1.0 - rho ** 2 * (r[i] ** 2 + r[js] ** 2)
    c = 2.0 * rho ** 2 * r[i] * r[js]
    if grid.dim == 3:
        return (np.maximum(A + c, 0.0) ** 4 - np.maximum(A - c, 0.0) ** 4) / (8.0 * c)
    theta_star = np.arccos(np.clip(-A / c, -1.0, 1.0))
    return np.array([
        quad(lambda th: (a + cc * math.cos(th)) ** 3, 0.0, ts,
             epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, cc, ts in zip(A, c, theta_star)
    ])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("rho", [0.5, 3.0, 20.0])
def test_mollify_radial_matches_angular_reference(dim, rho):
    """The radial mollifier equals the row-normalized exact kernel, from a
    bump wider than the grid (rho = 0.5) to one a few cells wide (rho = 20)."""
    grid = radial_grid(dim, 4.0, 400)
    u1 = np.random.default_rng(dim).uniform(0.5, 1.5, grid.n)
    rows = np.arange(0, grid.n, 23)
    ref = []
    for i in rows:
        js = np.nonzero(np.abs(grid.nodes - grid.nodes[i]) < 1.0 / rho)[0]
        kw = _angular_kernel_reference(grid, rho, i, js) * grid.weights[js]
        ref.append(np.sum(kw * u1[js]) / np.sum(kw))
    got = _mollify_radial(u1, grid, rho)[rows]
    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_mass_concentration_on_family_trajectory():
    """Windows along the minimal-mass family capture essentially the whole
    ground-state mass, approaching it from below."""
    from inls_lab.experiments import ground_state, trajectory

    gs = ground_state("quintic_tracking")
    traj = trajectory("s_family_quintic")
    fit = estimate_blowup_time(traj, gs.params.s_c)
    series = mass_concentration_series(traj, 0.25, fit)
    m_q = fn.mass(gs.profile)
    values = [r.value for r in series]
    assert values[-1] >= 0.9 * m_q
    assert max(values) <= m_q * (1 + 1e-9)
    assert len(series) == len(traj.snapshots())
    products = [r.radius * math.sqrt(s.grad_norm_sq)
                for r, s in zip(series, traj.snapshots())]
    assert products[-1] > products[0]


def test_concentration_series_rejects_fit_before_last_snapshot(quintic_gs):
    """A fit whose T_hat precedes a snapshot would leave that snapshot without
    a window: the series raises rather than return fewer records."""
    ts = [0.0, 0.25, 0.75]
    traj = synthetic_trajectory(ts, [1.0] * len(ts))
    for sample in traj.samples:
        sample.snapshot = quintic_gs.profile
    fit = BlowupFit(T_hat=0.5, exponent=-1.0, r_squared=1.0, window=(0.0, 0.25))
    with pytest.raises(ValidationError, match="T_hat"):
        mass_concentration_series(traj, 0.25, fit)


def test_sigma_c_series_regime_gate(quintic_gs):
    from inls_lab.evolution import StepPolicy, evolve
    from inls_lab.exact import standing_wave

    traj = evolve(standing_wave(quintic_gs, 0.0),
                  StepPolicy(dt0=1e-3, c_dt=1e9, theta=1e9, t_end=0.02,
                             sample_every=5, snapshot_every=1))
    with pytest.raises(ValidationError):
        sigma_c_window_series(traj, "fint")
    with pytest.raises(ValidationError):
        sigma_c_window_series(traj, "nonsense")


def test_sigma_c_series_full_window_saturates(ic_radial):
    from inls_lab.evolution import StepPolicy, evolve

    params, grid = ic_radial
    u0 = Field(1.9 * np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    traj = evolve(u0, StepPolicy(dt0=1e-3, c_dt=1e9, theta=1e9, t_end=0.01,
                                 sample_every=2, snapshot_every=1))
    series = sigma_c_window_series(traj, "fint", c0=100.0)
    snaps = traj.snapshots()
    full = fn.lp_norm(snaps[0].snapshot, params.sigma_c) ** params.sigma_c
    assert series[0].value == pytest.approx(full, rel=1e-12)
    # one record per snapshot, in both modes
    inft = sigma_c_window_series(traj, "inft", c0_tilde=1e-3)
    assert [r.time for r in inft] == [r.time for r in series] == [s.time for s in snaps]
    for scale in ({"c0": 0.0}, {"c0_tilde": -1.0}):
        with pytest.raises(ValidationError, match="c0"):
            sigma_c_window_series(traj, "fint", **scale)
