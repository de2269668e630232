import math
from types import SimpleNamespace

import numpy as np
import pytest

from inls_lab import Field, ValidationError, make_params
from inls_lab import experiments as exp
from inls_lab import inequalities as ineq
from inls_lab.core import line_grid, radial_grid
from inls_lab import functionals as fn
from inls_lab.inequalities import (
    _corpus, check_banica, check_critical_gn, check_gagliardo, check_radial_gn,
    check_strauss, corpus_rng, random_bump_field, run_critical_gn_report,
    run_gagliardo_report, run_radial_gn_report, run_strauss_report, young_constant,
)
from inls_lab.ground_state import gn_ratio


def test_gagliardo_vanishes_at_ground_state(line_gate_gs):
    gs = line_gate_gs
    val = check_gagliardo(gs.profile, gs.k_opt)
    assert abs(val) <= 1e-5 * fn.potential(gs.profile)


def test_gagliardo_zero_field(line_b_gs):
    z = line_b_gs.profile.with_values(np.zeros(line_b_gs.profile.grid.n))
    assert check_gagliardo(z, line_b_gs.k_opt) == 0.0


def test_gagliardo_corpus_nonpositive(line_b_gs):
    params = line_b_gs.params
    grid = line_grid(12.0, 2048, 0.5)
    rng = corpus_rng(0x1515, "gag_unit")
    for _ in range(300):
        u = random_bump_field(params, grid, rng)
        assert check_gagliardo(u, line_b_gs.k_opt) <= 1e-6 * fn.potential(u)


def test_gagliardo_ratio_scale_invariant(line_gate_gs):
    from inls_lab.analysis import rescale

    u = line_gate_gs.profile.with_values(
        line_gate_gs.profile.values * np.exp(0.1j * line_gate_gs.profile.grid.nodes)
    )
    base = gn_ratio(u)
    for rho in (0.7, 1.4):
        assert gn_ratio(rescale(u, rho)) == pytest.approx(base, rel=1e-4)


def test_banica_real_field_nonpositive(line_b_gs):
    grid = line_b_gs.profile.grid
    v = line_b_gs.profile.with_values(0.5 * line_b_gs.profile.values.astype(complex))
    theta = grid.nodes ** 2
    val = check_banica(v, theta, line_b_gs.q_mass)
    assert val <= 1e-10


def test_banica_scaled_ground_state(line_b_gs):
    v = line_b_gs.profile.with_values(0.9 * line_b_gs.profile.values.astype(complex))
    theta = line_b_gs.profile.grid.nodes ** 2
    assert check_banica(v, theta, line_b_gs.q_mass) <= 1e-10


def test_banica_mass_hypothesis_enforced(line_b_gs):
    v = line_b_gs.profile.with_values(1.5 * line_b_gs.profile.values.astype(complex))
    with pytest.raises(ValidationError):
        check_banica(v, line_b_gs.profile.grid.nodes ** 2, line_b_gs.q_mass)


def test_banica_needs_mass_critical_params():
    # on an intercritical line the energy of a field below ||Q||^2 can be
    # negative, so the bound has no hypothesis to stand on
    params = make_params(1, 3.0, 0.5)
    grid = line_grid(12.0, 1024, 0.5)
    v = Field(0.5 * np.exp(-grid.nodes ** 2).astype(complex), grid, params)
    with pytest.raises(ValidationError, match="mass-critical"):
        check_banica(v, grid.nodes ** 2, q_mass=10.0)


def test_banica_corpus(line_b_gs):
    params = line_b_gs.params
    grid = line_grid(12.0, 2048, 0.5)
    rng = corpus_rng(0x1515, "banica_unit")
    for _ in range(300):
        v = random_bump_field(params, grid, rng)
        v = v.with_values(v.values * math.sqrt(rng.uniform(0.05, 0.9) * line_b_gs.q_mass / fn.mass(v)))
        theta = rng.uniform(-1, 1) * grid.nodes ** 2
        raw = check_banica(v, theta, line_b_gs.q_mass)
        from inls_lab.core import gradient_values

        gt = gradient_values(grid, theta)
        scale = 2 * abs(fn.energy(v)) * float(np.sum(np.abs(v.values) ** 2 * gt ** 2 * grid.weights))
        assert raw <= 1e-6 * max(scale, 1e-300)


def test_banica_energy_quadratic_in_alpha(line_b_gs):
    # the energy of e^{i alpha theta} v is a nonnegative quadratic in alpha
    # whenever mass(v) <= mass(Q)
    grid = line_b_gs.profile.grid
    v = line_b_gs.profile.with_values(0.8 * line_b_gs.profile.values.astype(complex))
    theta = 0.3 * grid.nodes ** 2
    for alpha in (-2.0, -1.0, 0.0, 1.0, 2.0):
        chirped = v.with_values(np.exp(1j * alpha * theta) * v.values)
        assert fn.energy(chirped) >= -1e-10 * fn.energy_scale(chirped)


def test_strauss_supported_inside_R(ic_radial):
    params, grid = ic_radial
    vals = np.where(grid.nodes < 2.0, np.exp(-grid.nodes ** 2), 0.0)
    u = Field(vals.astype(complex), grid, params)
    assert check_strauss(u, 4.0) <= 0.0


def test_strauss_gaussian(ic_radial):
    params, grid = ic_radial
    u = Field(np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    assert check_strauss(u, 1.0) <= 1e-3


def test_strauss_line_rejected(mc_line):
    params, grid = mc_line
    u = Field(np.exp(-grid.nodes ** 2).astype(complex), grid, params)
    with pytest.raises(ValidationError):
        check_strauss(u, 1.0)


def test_strauss_corpus(ic_radial):
    params, grid = ic_radial
    rng = corpus_rng(0x1515, "strauss_unit")
    for _ in range(100):
        u = random_bump_field(params, grid, rng)
        for R in (0.5, 1.0, 3.0):
            tail_sup = np.max(np.abs(u.values[grid.nodes >= R]))
            assert check_strauss(u, R) <= 1e-6 * max(tail_sup, 1e-300) + 1e-12


def test_young_constant_optimality():
    # a b <= eta a^{2/sigma} + C(eta) b^{2/(2-sigma)} with equality achieved
    sigma, eta = 1.0, 0.37
    C = young_constant(sigma, eta)
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = rng.uniform(0.01, 10.0, 2)
        assert a * b <= eta * a ** (2 / sigma) + C * b ** (2 / (2 - sigma)) + 1e-12
    # near-equality at the optimizer b = (sigma a^{2/sigma - 1} / ...) scan
    aa = np.linspace(0.01, 10, 2000)
    bb = np.linspace(0.01, 10, 2000)
    ratio = np.max(np.outer(aa, bb) / (eta * (aa ** 2)[:, None] + C * (bb ** 2)[None, :]))
    assert ratio == pytest.approx(1.0, abs=1e-3)


def test_radial_gn_empty_tail(ic_radial):
    params, grid = ic_radial
    vals = np.where(grid.nodes < 0.8, 1.0, 0.0)
    u = Field(vals.astype(complex), grid, params)
    assert check_radial_gn(u, 1.0, 0.1) <= 0.0


def test_radial_gn_gaussian(ic_radial):
    params, grid = ic_radial
    u = Field(np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    assert check_radial_gn(u, 1.0, 0.1) <= 0.0


def test_radial_gn_eta_sweep_corpus(ic_radial):
    params, grid = ic_radial
    rng = corpus_rng(0x1515, "rgn_unit")
    for _ in range(60):
        u = random_bump_field(params, grid, rng)
        for eta in (1e-2, 1e-1, 1.0):
            assert check_radial_gn(u, 1.0, eta) <= 0.0


def test_radial_gn_sigma_gate():
    params = make_params(2, 2.5, 0.5)
    grid = radial_grid(2, 10.0, 256, 0.5)
    u = Field(np.exp(-grid.nodes ** 2), grid, params)
    with pytest.raises(ValidationError):
        check_radial_gn(u, 1.0, 0.1)


def test_critical_gn_reference_finite(intercritical_radial_gs):
    ref = check_critical_gn(intercritical_radial_gs.profile)
    assert 0 < ref < math.inf


def test_critical_gn_scale_invariance():
    # both sides share the scaling-symmetry homogeneity, so the ratio is
    # invariant; the domain must hold every rescaled copy (widest still dies
    # at the Dirichlet wall, narrowest still resolves)
    from inls_lab.analysis import rescale

    params = make_params(2, 1.0, 0.5)
    grid = radial_grid(2, 24.0, 32768, 0.5)
    u = Field(np.exp(-grid.nodes ** 2 / (2 * 0.5 ** 2)).astype(complex), grid, params)
    base = check_critical_gn(u)
    for rho in (0.1, 0.5, 2.0, 10.0):
        assert check_critical_gn(rescale(u, rho)) == pytest.approx(base, rel=1e-4)


def test_critical_gn_corpus_bounded(intercritical_radial_gs, ic_radial):
    params, grid = ic_radial
    ref = check_critical_gn(intercritical_radial_gs.profile)
    rng = corpus_rng(0x1515, "cgn_unit")
    sup = 0.0
    for _ in range(300):
        u = random_bump_field(params, grid, rng)
        sup = max(sup, check_critical_gn(u))
    assert math.isfinite(sup)
    # reported, not asserted as a theorem constant; desk-scale sanity only
    assert sup < 10 * ref


def test_critical_gn_regime_gate(line_b_gs):
    with pytest.raises(ValidationError):
        check_critical_gn(line_b_gs.profile)


def test_corpus_rng_label_split_deterministic():
    a1 = corpus_rng(7, "alpha").standard_normal(4)
    a2 = corpus_rng(7, "alpha").standard_normal(4)
    b = corpus_rng(7, "beta").standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


# ---------------------------------------------------------------------------
# the seeded-corpus runner contract


def test_report_planted_violation_keeps_witness(line_b_gs, mc_line):
    params, grid = mc_line
    rep = run_gagliardo_report(params, grid, 0.05 * line_b_gs.k_opt, trials=40, seed=3)
    assert rep.max_violation > 0
    assert not rep.passed
    assert isinstance(rep.witness, Field)
    assert check_gagliardo(rep.witness, 0.05 * line_b_gs.k_opt) > 0


def test_report_passing_corpus_has_no_witness(line_b_gs, mc_line):
    params, grid = mc_line
    rep = run_gagliardo_report(params, grid, line_b_gs.k_opt, trials=40, seed=3)
    assert rep.passed
    assert rep.witness is None


def test_report_fails_closed_on_nan(mc_line):
    params, grid = mc_line
    rep = run_gagliardo_report(params, grid, math.nan, trials=20, seed=1)
    assert math.isnan(rep.max_violation)
    assert not rep.passed
    assert isinstance(rep.witness, Field)


def test_report_nan_score_stays_the_worst(mc_line):
    params, grid = mc_line
    scores, scored = iter([-1.0, math.nan, 2.0, -0.5]), []

    def score(u, _, rng):
        scored.append(u)
        return next(scores), u

    rep = _corpus("nan_probe", params, grid, 4, 1, score)
    assert math.isnan(rep.max_violation)
    assert rep.witness is scored[1]


def test_critical_gn_report_reads_minus_one_only_for_a_finite_sup(ic_radial, monkeypatch):
    params, grid = ic_radial
    rep = run_critical_gn_report(params, grid, 0.5, trials=3, seed=1)
    assert rep.max_violation == -1.0 and rep.passed
    assert rep.as_dict()["sup_over_reference"] == rep.extra["sup_ratio"] / 0.5
    monkeypatch.setattr(ineq, "check_critical_gn", lambda u: math.nan)
    rep = run_critical_gn_report(params, grid, 0.5, trials=3, seed=1)
    assert math.isnan(rep.extra["sup_ratio"])
    assert not rep.passed


def test_criterion_12_fails_on_nan_reconstruction(monkeypatch):
    nan_decomposition = SimpleNamespace(reconstruction_error=lambda u: math.nan)
    monkeypatch.setattr(exp, "decompose", lambda u, R, rho: nan_decomposition)
    monkeypatch.setattr(exp, "CORPUS_TRIALS", 4)
    rep = exp.inequality_suite()
    assert math.isnan(rep.details["decomposition_reconstruction_max"])
    assert not rep.passed


def test_report_splits_trials_over_the_sweep(ic_radial):
    # 1000 // 5 radii = 200 each; 1000 // 3 etas = 333 each, so 999 in all
    params, grid = ic_radial
    assert run_strauss_report(params, grid, trials=1000, seed=3).trials == 1000
    assert run_radial_gn_report(params, grid, trials=1000, seed=3).trials == 999


def test_report_same_seed_same_report(line_b_gs, mc_line):
    params, grid = mc_line
    a, b = (run_gagliardo_report(params, grid, 0.05 * line_b_gs.k_opt, trials=40, seed=11)
            for _ in range(2))
    assert a.as_dict() == b.as_dict()
    assert np.array_equal(a.witness.values, b.witness.values)


@pytest.mark.parametrize("grid", [
    line_grid(12.0, 1024, 0.5), radial_grid(2, 12.0, 1024, 0.5),
    line_grid(12.0, 1000, 0.5), radial_grid(2, 12.0, 999, 0.5),
], ids=["line", "radial", "line-ragged", "radial-ragged"])
def test_random_bump_field_matches_two_exp_formula(grid):
    """The blocked plane-wave tables, trimmed to n also when n is not a
    multiple of BLOCK, agree with the Gaussian-times-phase form built from the
    same draws, and leave the stream where that form does."""
    params = make_params(grid.dim, 1.0, 0.5)
    for seed in range(5):
        rng, ref_rng = corpus_rng(seed, "bumps"), corpus_rng(seed, "bumps")
        u = random_bump_field(params, grid, rng)
        x = grid.nodes
        ref = np.zeros(grid.n, dtype=complex)
        for _ in range(int(ref_rng.integers(1, 5))):
            width = ref_rng.uniform(0.4, 1.6)
            center = (ref_rng.uniform(-0.5 * grid.extent, 0.5 * grid.extent)
                      if grid.geometry == "line" else ref_rng.uniform(0.0, 0.4 * grid.extent))
            amp = ref_rng.uniform(0.2, 1.0)
            phase = ref_rng.uniform(0.0, 2.0 * np.pi)
            speed = ref_rng.uniform(-2.0, 2.0)
            ref += (amp * np.exp(-((x - center) ** 2) / (2.0 * width ** 2))
                    * np.exp(1j * (phase + speed * x)))
        assert np.max(np.abs(u.values - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert rng.uniform() == ref_rng.uniform()
