import math

import numpy as np
import pytest

from inls_lab import (
    ConvergenceError, ValidationError, c_of_Mm, gn_ratio, k_opt, make_params,
    pohozaev_residuals, rescale, solve_ground_state,
)
from inls_lab.core import MIN_CELLS, line_grid, radial_grid, sample_scaled
from inls_lab.exact import standing_wave
from inls_lab import functionals as fn, ground_state
from inls_lab.inequalities import corpus_rng, random_bump_field


def test_cubic_soliton_oracle(cubic_gs):
    x = cubic_gs.profile.grid.nodes
    exact = np.sqrt(2) / np.cosh(x)
    assert np.max(np.abs(cubic_gs.profile.values - exact)) < 1e-6
    assert cubic_gs.residual < 1e-8 * math.sqrt(cubic_gs.q_mass)


def test_quintic_soliton_oracle(quintic_gs):
    x = quintic_gs.profile.grid.nodes
    exact = 3 ** 0.25 / np.cosh(2 * x) ** 0.5
    assert np.max(np.abs(quintic_gs.profile.values - exact)) < 1e-6


def test_profile_positive_and_even(line_b_gs):
    vals = line_b_gs.profile.values
    assert np.all(vals > 0)
    assert np.max(np.abs(vals - vals[::-1])) < 1e-14


def test_pohozaev_residuals_tiny_at_gate(radial2_gate_gs):
    r1, r2 = pohozaev_residuals(radial2_gate_gs.profile)
    assert r1 < 1e-6 and r2 < 1e-6


def test_pohozaev_sensitivity_to_perturbation(line_b_gs):
    rng = np.random.default_rng(7)
    gs = line_b_gs
    noisy = gs.profile.values * (1 + 0.01 * rng.standard_normal(gs.profile.grid.n))
    r1, r2 = pohozaev_residuals(gs.profile.with_values(noisy))
    assert r1 > 1e-3 or r2 > 1e-3


def test_pohozaev_residuals_invariant_under_phase_and_sign(line_b_gs, intercritical_radial_gs):
    for gs in (line_b_gs, intercritical_radial_gs):
        ref = pohozaev_residuals(gs.profile)
        for u in (standing_wave(gs, 0.3), gs.profile.with_values(-gs.profile.values)):
            assert pohozaev_residuals(u) == pytest.approx(ref, rel=1e-12)


def test_pohozaev_residuals_zero_field_rejected(line_b_gs):
    with pytest.raises(ValidationError):
        pohozaev_residuals(line_b_gs.profile.with_values(np.zeros(line_b_gs.profile.grid.n)))


def test_mass_critical_gradient_ratio(radial2_gate_gs):
    gs = radial2_gate_gs
    ratio = fn.grad_norm_sq(gs.profile) / fn.mass(gs.profile)
    target = gs.params.dim / (2 - gs.params.b)
    assert ratio == pytest.approx(target, rel=1e-5)


def test_k_opt_mass_critical_form(line_b_gs):
    # exponent (2 - (N sigma + b))/2 vanishes: K = (sigma + 1) / ||Q||^{2 sigma}
    gs = line_b_gs
    expected = (gs.params.sigma + 1) / gs.q_mass ** gs.params.sigma
    assert gs.k_opt == pytest.approx(expected, rel=1e-14)


def test_k_opt_intercritical_arithmetic():
    params = make_params(3, 1.0, 0.5)
    q_mass = 2.37
    # N sigma + b = 3.5, first factor (3.5/0.5)^(-0.75), second 4/(3.5 ||Q||^2)
    expected = 7.0 ** -0.75 * 4.0 / (3.5 * q_mass)
    assert k_opt(params, q_mass) == pytest.approx(expected, rel=1e-14)


def test_k_opt_rejects_bad_domain():
    # validated params never violate 2 sigma + 2 > N sigma + b, so exercise
    # the guard with a hand-built record
    from inls_lab.core import ProblemParams, Regime

    bad = ProblemParams(dim=4, sigma=2.0, b=0.5, s_c=2.0, sigma_c=10.0,
                        regime=Regime.INTERCRITICAL)
    with pytest.raises(ValidationError):
        k_opt(bad, 1.0)
    with pytest.raises(ValidationError):
        k_opt(make_params(1, 1.5, 0.5), -1.0)


def test_gn_ratio_sharp_at_ground_state(line_gate_gs):
    assert gn_ratio(line_gate_gs.profile) == pytest.approx(line_gate_gs.k_opt, rel=1e-5)


def test_gn_ratio_scale_invariance(line_gate_gs):
    base = gn_ratio(line_gate_gs.profile)
    for rho in (0.6, 1.7):
        scaled = rescale(line_gate_gs.profile, rho)
        assert gn_ratio(scaled) == pytest.approx(base, rel=1e-5)


def test_gn_ratio_below_sharp_constant_on_corpus(line_b_gs):
    params = line_b_gs.params
    grid = line_grid(12.0, 2048, 0.5)
    rng = corpus_rng(0x1515, "gs_corpus")
    for _ in range(200):
        u = random_bump_field(params, grid, rng)
        assert gn_ratio(u) <= line_b_gs.k_opt * (1 + 1e-6)


def test_gn_ratio_zero_field_rejected(line_b_gs):
    z = line_b_gs.profile.with_values(np.zeros(line_b_gs.profile.grid.n))
    with pytest.raises(ValidationError):
        gn_ratio(z)


def test_c_of_mm_equals_one_at_pohozaev_values():
    for dim, sigma, b in ((1, 1.5, 0.5), (2, 0.75, 0.5), (3, 0.5, 0.5)):
        params = make_params(dim, sigma, b)
        q_sq = 1.8342
        m = ((params.dim / (2 - params.b) + 1) * q_sq) ** (
            1.0 / ((4 - 2 * params.b) / params.dim + 2.0)
        )
        M = math.sqrt(params.dim / (2 - params.b) * q_sq)
        assert abs(c_of_Mm(M, m, params) - 1.0) < 1e-12


def test_c_of_mm_limits_and_homogeneity():
    params = make_params(1, 1.5, 0.5)
    assert c_of_Mm(1.0, 1e-9, params) < 1e-12
    expo = ((4 - 2 * params.b) / params.dim + 2.0) * params.dim / (2 * (2 - params.b))
    assert c_of_Mm(1.0, 2.0, params) / c_of_Mm(1.0, 1.0, params) == pytest.approx(
        2 ** expo, rel=1e-12
    )


def test_c_of_mm_regime_gate():
    with pytest.raises(ValidationError):
        c_of_Mm(1.0, 1.0, make_params(3, 1.0, 0.5))


def test_non_convergence_raises():
    params = make_params(1, 1.5, 0.5)
    grid = line_grid(12.0, 512, 0.5)
    with pytest.raises(ConvergenceError) as err:
        solve_ground_state(params, grid, max_iter=2)
    assert err.value.residual is not None


def test_float64_solve_on_non_dyadic_line_grid():
    """dx = 32/4608 is not a power of two; the weights stay symmetric, so the
    symmetrized iteration converges."""
    gs = solve_ground_state(make_params(1, 1.5, 0.5), line_grid(16.0, 4608, 0.5))
    assert gs.iterations > 0


def test_non_convergence_raises_in_longdouble():
    """max_iter bounds the iterations on both grids and the Newton steps
    together: the coarse phase spends it, and the fine phase and Newton get
    none."""
    params = make_params(2, 0.75, 0.5)
    grid = radial_grid(2, 14.0, 512, 0.5)
    with pytest.raises(ConvergenceError, match="in 2 iterations and 0 Newton steps"):
        solve_ground_state(params, grid, max_iter=2, dtype="longdouble")


def test_float64_solve_makes_no_newton_steps(line_b_gs, intercritical_radial_gs):
    for gs in (line_b_gs, intercritical_radial_gs):
        assert gs.newton_steps == 0
        assert gs.iterations > 0


def test_longdouble_solve_is_petviashvili_then_newton(radial2_gate_gs):
    gs = radial2_gate_gs
    assert gs.iterations > 0
    assert 0 < gs.newton_steps <= ground_state.NEWTON_STEPS


def test_longdouble_iterations_count_both_grids():
    """A longdouble solve iterates from the Gaussian on n // COARSEN cells to
    HANDOVER_TOL, then on n from the linear interpolant of that iterate, well
    before STEP_TOL; ``iterations`` counts both phases, and Newton still
    converges."""
    params = make_params(2, 0.75, 0.5)
    grid = radial_grid(2, 14.0, 4096, 0.5)
    gs = solve_ground_state(params, grid, dtype="longdouble")
    coarse = radial_grid(2, 14.0, 4096 // ground_state.COARSEN, 0.5)
    Qc, coarse_it, converged = ground_state._petviashvili(
        params, coarse, np.exp(-coarse.nodes ** 2 / 2.0), 2000, ground_state.HANDOVER_TOL)
    assert converged
    _, fine_it, converged = ground_state._petviashvili(
        params, grid, np.interp(grid.nodes, coarse.nodes, Qc), 2000, ground_state.HANDOVER_TOL)
    assert converged and gs.iterations == coarse_it + fine_it
    assert gs.iterations < solve_ground_state(params, grid).iterations
    assert gs.residual / math.sqrt(gs.q_mass) < 1e-10


def _phase_grids(monkeypatch, params, grid, dtype):
    """A solve, and the cell counts of the grids its Petviashvili phases ran on."""
    ns = []
    iterate = ground_state._petviashvili

    def recording(params, grid, *args):
        ns.append(grid.n)
        return iterate(params, grid, *args)

    monkeypatch.setattr(ground_state, "_petviashvili", recording)
    return solve_ground_state(params, grid, dtype=dtype), ns


@pytest.mark.parametrize("dtype, phases", [
    pytest.param("float64", [2048], id="float64"),
    pytest.param("longdouble", [2048 // ground_state.COARSEN, 2048], id="longdouble"),
])
def test_only_longdouble_solves_start_on_the_coarse_grid(monkeypatch, dtype, phases):
    _, ns = _phase_grids(monkeypatch, make_params(2, 0.75, 0.5),
                         radial_grid(2, 14.0, 2048, 0.5), dtype)
    assert ns == phases


def test_longdouble_solve_too_small_to_coarsen_converges(monkeypatch):
    """16 // COARSEN cells is no grid: one phase from the Gaussian, then Newton."""
    assert 16 // ground_state.COARSEN < MIN_CELLS
    with pytest.warns(RuntimeWarning, match="core spans"):
        gs, ns = _phase_grids(monkeypatch, make_params(2, 0.75, 0.5),
                              radial_grid(2, 14.0, 16, 0.5), "longdouble")
    assert ns == [16] and gs.newton_steps > 0


NEWTON_CASES = [
    pytest.param(2, 0.75, 0.5, radial_grid(2, 14.0, 2048, 0.5), id="radial-b0.5"),
    pytest.param(1, 1.5, 0.5, line_grid(16.0, 1024, 0.5), id="line-b0.5"),
    pytest.param(1, 2.0, 0.0, line_grid(16.0, 1024, 0.0), id="line-quintic-b0"),
]


def _newton_solve(monkeypatch, params, grid):
    """A longdouble solve, and the L2 norms of its Newton corrections."""
    norms = []
    solve = ground_state.shifted_helmholtz_solve

    def recording(grid, rhs, shift):
        delta = solve(grid, rhs, shift)
        norms.append(float(np.sqrt(np.sum(delta ** 2 * grid.weights))))
        return delta

    monkeypatch.setattr(ground_state, "shifted_helmholtz_solve", recording)
    return solve_ground_state(params, grid, dtype="longdouble"), norms


@pytest.mark.parametrize("dim, sigma, b, grid", NEWTON_CASES)
def test_newton_polish_matches_longdouble_petviashvili(monkeypatch, dim, sigma, b, grid):
    """The polish converges to the fixed point that Petviashvili iteration
    run wholly in longdouble reaches, the b = 0 line's translation kernel
    notwithstanding."""
    params = make_params(dim, sigma, b)
    gs, norms = _newton_solve(monkeypatch, params, grid)
    start = np.exp(-grid.nodes ** 2 / 2.0).astype(np.longdouble)
    ref, _, converged = ground_state._petviashvili(params, grid, start, 2000)
    assert converged
    assert gs.newton_steps == len(norms) >= 2
    assert float(np.max(np.abs(gs.profile.values - ref))) < 1e-12


@pytest.mark.parametrize("dim, sigma, b, grid", NEWTON_CASES)
def test_newton_steps_shrink_by_two_orders(monkeypatch, dim, sigma, b, grid):
    """Each correction is at most 1e-2 of the one before; the float64
    Jacobian's rounding, not the quadratic rate, bounds the last one."""
    gs, norms = _newton_solve(monkeypatch, make_params(dim, sigma, b), grid)
    assert norms[-1] < ground_state.STEP_TOL
    for before, after in zip(norms, norms[1:]):
        assert after <= 1e-2 * before


def test_newton_cap_exhausted_raises(monkeypatch):
    """One Newton step cannot meet STEP_TOL from the handover: the error
    names the Newton steps and carries the residual."""
    monkeypatch.setattr(ground_state, "NEWTON_STEPS", 1)
    with pytest.raises(ConvergenceError, match="1 Newton steps") as err:
        solve_ground_state(make_params(2, 0.75, 0.5), radial_grid(2, 14.0, 2048, 0.5),
                           dtype="longdouble")
    assert err.value.residual is not None


@pytest.mark.parametrize("dim, sigma, b, grid, match", [
    (1, 2.0, 0.0, line_grid(8.0, 256, 0.0), "tail is not negligible"),
    (2, 1.0, 0.5, radial_grid(2, 16.0, 96, 0.5), "core spans only"),
])
def test_unresolved_ground_state_warns(dim, sigma, b, grid, match):
    with pytest.warns(RuntimeWarning, match=match):
        solve_ground_state(make_params(dim, sigma, b), grid)


def test_under_resolved_stall_is_reported_as_such():
    """The iteration meets STEP_TOL on this grid, but at a residual far above
    tolerance: the resolution warning fires first and the error names the
    residual, not an iteration budget."""
    with pytest.warns(RuntimeWarning, match="core spans"):
        with pytest.raises(ConvergenceError, match="stalled .* residual") as err:
            solve_ground_state(make_params(1, 2.0, 0.0), line_grid(40.0, 64, 0.0))
    assert "did not converge in" not in str(err.value)


@pytest.mark.filterwarnings("ignore:ground-state:RuntimeWarning")
@pytest.mark.parametrize("dtype", ["float64", "longdouble"])
@pytest.mark.parametrize("params, grid", [
    (make_params(1, 2.0, 0.0), line_grid(40.0, 64, 0.0)),
    (make_params(1, 1.2, 0.5), line_grid(30.0, 64, 0.5)),
], ids=["quintic", "sigma1.2-b0.5"])
def test_under_resolved_line_grid_fails_in_both_precisions(params, grid, dtype):
    """64 cells under-resolve both profiles.  float64 stalls above tolerance;
    longdouble's first Newton iterate turns negative, and the solve says so
    instead of returning a sign-changing profile or a NaN residual."""
    match = "under-resolves" if dtype == "longdouble" else "stalled"
    with pytest.raises(ConvergenceError, match=match):
        solve_ground_state(params, grid, dtype=dtype)


def test_grid_param_mismatch_rejected():
    params = make_params(1, 1.5, 0.5)
    with pytest.raises(ValidationError):
        solve_ground_state(params, line_grid(12.0, 512, 0.25))
    with pytest.raises(ValidationError):
        solve_ground_state(params, radial_grid(2, 12.0, 512, 0.5))


def test_dimension_mismatch_rejected_before_iterating(monkeypatch):
    """N = 3 params on a 2-D radial grid: same geometry and b, other dimension.
    The check also precedes a longdouble solve's coarse phase, whose grid is
    built from params and so agrees with them."""
    def no_iteration(*args, **kwargs):
        raise AssertionError("the Petviashvili iteration ran")

    monkeypatch.setattr(ground_state, "_petviashvili", no_iteration)
    for dtype in ("float64", "longdouble"):
        with pytest.raises(ValidationError, match="dim"):
            solve_ground_state(make_params(3, 1.0, 0.5), radial_grid(2, 12.0, 1024, 0.5),
                               dtype=dtype)


@pytest.mark.parametrize(
    "dim,sigma,b,builder",
    [
        (1, 2.0, 0.0, lambda n: line_grid(16.0, n, 0.0)),
        (2, 0.75, 0.5, lambda n: radial_grid(2, 14.0, n, 0.5)),
    ],
)
def test_grid_refinement_convergence(dim, sigma, b, builder):
    """Successive doublings shrink the profile change by at least 3x."""
    params = make_params(dim, sigma, b)
    profiles = {}
    for n in (1024, 2048, 4096):
        profiles[n] = solve_ground_state(params, builder(n))
    diffs = []
    for n in (1024, 2048):
        coarse = profiles[n].profile
        fine = profiles[2 * n].profile
        fine_on_coarse = sample_scaled(fine, 1.0)[:: 1]
        # evaluate the fine profile at the coarse nodes via its spline
        from inls_lab.core import _interp_spline

        ev = _interp_spline(fine.grid, fine.values)
        diffs.append(np.max(np.abs(ev(coarse.grid.nodes) - coarse.values)))
    assert diffs[0] / diffs[1] >= 3.0


def test_unproven_regime_labeling(line_b_gs, radial2_gate_gs):
    assert not line_b_gs.params.proven_regime       # b = 0.5 > 1/3 for N = 1
    assert radial2_gate_gs.params.proven_regime     # b = 0.5 < 2/3 for N = 2
