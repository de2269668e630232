import math

import numpy as np
import pytest
import scipy.fft

from inls_lab import ValidationError, pseudoconformal, s_profile, standing_wave
from inls_lab.core import line_grid, sample_scaled
from inls_lab.exact import SFamilyParams, s_profiles
from inls_lab.ground_state import solve_ground_state
from inls_lab import functionals as fn


def test_standing_wave_t0_is_profile(quintic_gs):
    sw = standing_wave(quintic_gs, 0.0)
    assert np.array_equal(sw.values, quintic_gs.profile.values.astype(complex))


def test_standing_wave_mass_and_energy_invariance(quintic_gs):
    m0 = fn.mass(quintic_gs.profile)
    e0 = fn.energy(quintic_gs.profile)
    for t in (0.3, 2.7, 11.0):
        sw = standing_wave(quintic_gs, t)
        assert fn.mass(sw) == pytest.approx(m0, rel=1e-14)
        assert fn.energy(sw) == pytest.approx(e0, abs=1e-12 * fn.energy_scale(sw))


def test_family_params_validation():
    with pytest.raises(ValidationError):
        SFamilyParams(T=-1.0, lam=1.0)
    with pytest.raises(ValidationError):
        SFamilyParams(T=1.0, lam=0.0)
    for gamma in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="gamma"):
            SFamilyParams(T=1.0, lam=1.0, gamma=gamma)


def test_s_profile_t0_pointwise(quintic_gs):
    fam = SFamilyParams(T=1.0, lam=1.0, gamma=0.0)
    fld = s_profile(fam, quintic_gs, 0.0)
    x = quintic_gs.profile.grid.nodes
    expected = np.exp(1j) * np.exp(-1j * x ** 2 / 4) * quintic_gs.profile.values
    assert np.max(np.abs(fld.values - expected)) < 1e-13


@pytest.mark.parametrize("n", [4096, 1025])
def test_s_profile_is_exactly_even_on_the_line(quintic_gs, n):
    """Taken at x >= 0 and mirrored (through the middle node for an odd n), so
    that a march from it takes the half path."""
    gs = quintic_gs if n == quintic_gs.profile.grid.n else solve_ground_state(
        quintic_gs.params, line_grid(20.0, n))
    fam = SFamilyParams(T=1.0, lam=0.8, gamma=0.3)
    for t in (0.0, 0.5, 0.9):
        v = s_profile(fam, gs, t).values
        assert np.array_equal(v, v[::-1])
    x, s = gs.profile.grid.nodes, fam.T - 0.9       # s_profile's T - t, which is not 0.1 in floats
    expected = (np.exp(0.3j + 0.64j / s - 1j * x ** 2 / (4 * s)) * (0.8 / s) ** 0.5
                * sample_scaled(gs.profile, 0.8 / s, order=5))
    assert np.max(np.abs(v - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_s_profiles_equal_profiles_sampled_one_by_one(quintic_gs):
    """A series sampled from one spline of Q equals, bit for bit, the
    profiles that each sample Q anew with ``sample_scaled``."""
    fam, prof = SFamilyParams(T=1.0, lam=0.8, gamma=0.3), quintic_gs.profile
    x, n, times = prof.grid.nodes, prof.grid.n, (0.0, 0.5, 0.9)
    series = list(s_profiles(fam, quintic_gs, times))
    assert len(series) == len(times)
    for t, fld in zip(times, series):
        s = fam.T - t
        expected = (np.exp(1j * fam.gamma) * np.exp(1j * fam.lam ** 2 / s)
                    * np.exp(-1j * x ** 2 / (4.0 * s)))
        expected *= (fam.lam / s) ** 0.5 * sample_scaled(prof, fam.lam / s, order=5)
        expected[:n // 2] = expected[:(n - 1) // 2:-1]
        assert np.array_equal(fld.values, expected)


def test_s_profile_requires_t_below_T(quintic_gs):
    with pytest.raises(ValidationError):
        s_profile(SFamilyParams(T=0.5, lam=1.0), quintic_gs, 0.5)
    # t -> -inf would sample Q at scale 0: an all-zero field, not a profile
    for t in (-math.inf, math.nan):
        with pytest.raises(ValidationError):
            s_profile(SFamilyParams(T=0.5, lam=1.0), quintic_gs, t)


def test_s_profile_mass_matches_ground_state(quintic_gs):
    fam = SFamilyParams(T=1.0, lam=1.0, gamma=0.4)
    m_q = fn.mass(quintic_gs.profile)
    for t in (0.0, 0.4, 0.8, 0.9):
        assert fn.mass(s_profile(fam, quintic_gs, t)) == pytest.approx(m_q, rel=1e-6)


def test_s_profile_gradient_rate():
    from inls_lab.experiments import ground_state

    gs = ground_state("quintic_tracking")
    fam = SFamilyParams(T=1.0, lam=1.0, gamma=0.0)
    ts = np.linspace(0.70, 0.95, 12)   # quadratic phase dominates here
    gs_norm = [math.sqrt(fn.grad_norm_sq(s_profile(fam, gs, t))) for t in ts]
    slope = np.polyfit(np.log(1.0 - ts), np.log(gs_norm), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.02)


def test_s_profile_energy_time_independent(quintic_gs):
    fam = SFamilyParams(T=1.0, lam=1.0, gamma=0.0)
    scale = fn.energy_scale(s_profile(fam, quintic_gs, 0.0))
    e_vals = [fn.energy(s_profile(fam, quintic_gs, t)) for t in (0.0, 0.2, 0.4, 0.6)]
    for e in e_vals[1:]:
        assert abs(e - e_vals[0]) < 1e-4 * scale
    # theoretical value Var(Q) / (8 lam^2)
    assert e_vals[0] == pytest.approx(fn.variance(quintic_gs.profile) / 8.0, rel=1e-3)


def test_s_profile_sign_convention_by_equation_residual(quintic_gs):
    """Substituting the family into the discrete equation singles out the
    implemented sign pair (quadratic phase -, time phase +)."""
    prof = quintic_gs.profile
    grid, params = prof.grid, prof.params
    x, k = grid.nodes, grid._ops.k(grid)
    W = grid.weight_b

    def candidate(t, sq, sl, h=1e-6):
        def slice_at(tt):
            s = 1.0 - tt
            core = (1.0 / s) ** 0.5 * sample_scaled(prof, 1.0 / s, order=5)
            return np.exp(sl * 1j / s) * np.exp(sq * 1j * x ** 2 / (4.0 * s)) * core

        u0 = slice_at(t)
        ut = (slice_at(t + h) - slice_at(t - h)) / (2 * h)
        lap = scipy.fft.ifft(-(k ** 2) * scipy.fft.fft(u0))
        resid = 1j * ut + lap + W * np.abs(u0) ** (2 * params.sigma) * u0
        return math.sqrt(float(np.sum(np.abs(resid) ** 2 * grid.weights)))

    res = {(sq, sl): candidate(0.3, sq, sl) for sq in (-1, 1) for sl in (-1, 1)}
    best = min(res, key=res.get)
    assert best == (-1, 1)
    assert res[best] * 5 < min(v for key, v in res.items() if key != best)


def test_pseudoconformal_requires_mass_critical(cubic_gs):
    with pytest.raises(ValidationError):
        pseudoconformal(cubic_gs.profile, 0.7)


def test_pseudoconformal_t_zero_rejected(quintic_gs):
    with pytest.raises(ValidationError):
        pseudoconformal(standing_wave(quintic_gs, 0.0), 0.0)


def test_pseudoconformal_mass_preservation(quintic_gs):
    u = standing_wave(quintic_gs, 1.3)
    for t in (0.8, -1.4, 2.0):
        v = pseudoconformal(u, t)
        assert fn.mass(v) == pytest.approx(fn.mass(u), rel=1e-6)


def test_pseudoconformal_involution(quintic_gs):
    grid = quintic_gs.profile.grid
    u = quintic_gs.profile.with_values(
        quintic_gs.profile.values * np.exp(0.3j * grid.nodes) * np.exp(-grid.nodes ** 2 / 40)
    )
    v = pseudoconformal(pseudoconformal(u, 0.8), 1.0 / 0.8)
    num = fn.mass(u.with_values(v.values - u.values))
    assert math.sqrt(num / fn.mass(u)) < 1e-5


def test_pseudoconformal_of_standing_wave_is_family_slice(quintic_gs):
    """The transform applied to the standing-wave slice at time 1/t lands on
    the blow-up family member with T = 0 at time t < 0."""
    t = -0.7
    sw = standing_wave(quintic_gs, 1.0 / t)
    v = pseudoconformal(sw, t)
    ref = s_profile_reference(quintic_gs, -t)
    diff = fn.mass(v.with_values(v.values - ref))
    assert math.sqrt(diff / fn.mass(v)) < 1e-5


def s_profile_reference(gs, s):
    from inls_lab.core import sample_scaled

    x = gs.profile.grid.nodes
    core = (1.0 / s) ** 0.5 * sample_scaled(gs.profile, 1.0 / s, order=5)
    return np.exp(1j / s) * np.exp(-1j * x ** 2 / (4 * s)) * core


def test_quadratic_phase_energy_identity(quintic_gs):
    """E[exp(i|x|^2/(4t)) u0] * 8 t^2 equals the variance at time t along any
    mass-critical solution; exact on the standing wave and the family."""
    x = quintic_gs.profile.grid.nodes
    q = quintic_gs.profile
    var_q = fn.variance(q)
    for t in (0.5, 1.7):
        chirped = q.with_values(np.exp(1j * x ** 2 / (4 * t)) * q.values)
        # standing wave: variance is constant in time
        assert 8 * t ** 2 * fn.energy(chirped) == pytest.approx(var_q, rel=1e-3)
    fam = SFamilyParams(T=1.0, lam=1.0, gamma=0.0)
    u0 = s_profile(fam, quintic_gs, 0.0)
    for t in (0.3, 0.6):
        chirped = u0.with_values(np.exp(1j * x ** 2 / (4 * t)) * u0.values)
        var_t = fn.variance(s_profile(fam, quintic_gs, t))
        assert 8 * t ** 2 * fn.energy(chirped) == pytest.approx(var_t, rel=1e-3)
