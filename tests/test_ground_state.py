import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lapack

from inls_lab import (
    ConvergenceError, ValidationError, c_of_Mm, gn_ratio, k_opt, make_params,
    pohozaev_residuals, rescale, solve_ground_state,
)
from inls_lab.cli import main
from inls_lab import core
from inls_lab.core import MIN_CELLS, _interp_spline, line_grid, radial_grid
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


def test_radial_non_convergence_raises():
    """max_iter bounds the iterations of every level and the Newton steps
    together: the coarsest level spends it, and the finer levels and Newton
    (on the float64 pair, as in every radial solve) get none."""
    params = make_params(2, 0.75, 0.5)
    grid = radial_grid(2, 14.0, 512, 0.5)
    with pytest.raises(ConvergenceError, match="in 2 iterations and 0 Newton steps"):
        solve_ground_state(params, grid, max_iter=2)


def _at_step_tol(gs) -> bool:
    """Whether one more Petviashvili iteration moves ``gs``'s profile by less than STEP_TOL."""
    profile = gs.profile
    return ground_state._petviashvili(gs.params, profile.grid, profile.values.copy(), 1,
                                      ground_state.STEP_TOL)[2]


def test_float64_solve_is_petviashvili_then_newton(line_b_gs, intercritical_radial_gs):
    """A radial solve hands over to Newton steps; a line solve is Petviashvili
    iteration alone, to STEP_TOL."""
    assert intercritical_radial_gs.iterations > 0
    assert 0 < intercritical_radial_gs.newton_steps <= ground_state.NEWTON_STEPS
    assert line_b_gs.iterations > 0 and line_b_gs.newton_steps == 0
    assert _at_step_tol(line_b_gs)


def test_radial_pair_converges_in_two_newton_steps(intercritical_radial_gs):
    """``radial2_intercritical`` takes two Newton steps, where a float64 defect
    took a third only to find its grid's rounding floor: the pair's residual
    is 2.0e-14 of ||Q|| (9.0e-11 with the float64 defect), and r1 and r2
    agree to 1e-6 relative, as the discrete energy identity makes them
    (measured 8.7e-11; 1.0e-5 with the float64 defect)."""
    gs = intercritical_radial_gs
    assert gs.newton_steps == 2
    assert gs.residual < 1e-13 * math.sqrt(gs.q_mass)
    assert gs.pohozaev_r1 == pytest.approx(gs.pohozaev_r2, rel=1e-6)


def test_radial_gate_solve_is_petviashvili_then_newton(radial2_gate_gs):
    gs = radial2_gate_gs
    assert gs.iterations > 0
    assert 0 < gs.newton_steps <= ground_state.NEWTON_STEPS


def test_iterations_count_every_level():
    """A solve on 4096 cells iterates from the Gaussian on 256 cells to
    HANDOVER_TOL, then on 1024 and on 4096 cells, each from the linear
    interpolant of the level below, in fewer iterations at each level, well
    before STEP_TOL; ``iterations`` is the sum over the levels, and Newton
    still converges."""
    params = make_params(2, 0.75, 0.5)
    gs = solve_ground_state(params, radial_grid(2, 14.0, 4096, 0.5))
    coarse = radial_grid(2, 14.0, 256, 0.5)
    Q, counts = np.exp(-coarse.nodes ** 2 / 2.0), []
    for n in (256, 1024, 4096):
        grid = radial_grid(2, 14.0, n, 0.5)
        Q, it, converged = ground_state._petviashvili(
            params, grid, np.interp(grid.nodes, coarse.nodes, Q), 2000)
        assert converged
        coarse = grid
        counts.append(it)
    assert gs.iterations == sum(counts)
    assert counts[0] > counts[1] > counts[2]
    assert gs.residual / math.sqrt(gs.q_mass) < 1e-10


def test_max_iter_bounds_every_level_and_newton():
    """``max_iter`` is spent across the levels and the Newton steps: a solve
    given exactly the iterations and Newton steps it takes converges to the
    same profile, and one given one fewer does not."""
    params, grid = make_params(2, 0.75, 0.5), radial_grid(2, 14.0, 2048, 0.5)
    gs = solve_ground_state(params, grid)
    budget = gs.iterations + gs.newton_steps
    assert np.array_equal(solve_ground_state(params, grid, max_iter=budget).profile.values,
                          gs.profile.values)
    with pytest.raises(ConvergenceError, match=f"in {gs.iterations} iterations"):
        solve_ground_state(params, grid, max_iter=budget - 1)


def _phase_grids(monkeypatch, params, grid):
    """A solve, and the cell counts of the grids its Petviashvili phases ran on."""
    ns = []
    iterate = ground_state._petviashvili

    def recording(params, grid, *args):
        ns.append(grid.n)
        return iterate(params, grid, *args)

    with monkeypatch.context() as patch:
        patch.setattr(ground_state, "_petviashvili", recording)
        return solve_ground_state(params, grid), ns


@pytest.mark.parametrize("defect", ["float64", "pair"])
def test_every_solve_starts_on_the_coarse_grid(monkeypatch, newton_defect):
    """A solve with either Newton defect iterates on 2048 // COARSEN^2 cells,
    then on each finer level, COARSEN times finer, up to n."""
    _, ns = _phase_grids(monkeypatch, make_params(2, 0.75, 0.5),
                         radial_grid(2, 14.0, 2048, 0.5))
    assert ns == [128, 512, 2048]


@pytest.mark.parametrize("n, levels", [(1496, [374, 1496]), (1500, [93, 375, 1500])],
                         ids=["1496", "1500"])
def test_levels_stop_where_the_gaussian_core_is_unresolved(monkeypatch, n, levels):
    """A level coarsens while the Gaussian start's core (above 1/2) spans at
    least COARSEN * CORE_CELLS = 32 of its cells: it spans 126 of 1496 and of
    1500 cells, then 31 of 374, which is the coarsest level, but 32 of 375,
    which coarsens once more, to 93 cells."""
    assert ground_state.COARSEN * ground_state.CORE_CELLS == 32
    gs, ns = _phase_grids(monkeypatch, make_params(2, 0.75, 0.5),
                          radial_grid(2, 14.0, n, 0.5))
    assert ns == levels and gs.newton_steps > 0


@pytest.mark.parametrize("defect", ["float64", "pair"])
def test_coarse_phase_needs_the_start_resolved(monkeypatch, newton_defect):
    """The Gaussian start's core (above 1/2) spans 7 of these 96 cells, fewer
    than COARSEN * CORE_CELLS, so 96 // COARSEN cells cannot resolve it: one
    phase on n, then Newton, with either Newton defect."""
    with pytest.warns(RuntimeWarning, match="core spans"):
        gs, ns = _phase_grids(monkeypatch, make_params(2, 1.0, 0.5),
                              radial_grid(2, 16.0, 96, 0.5))
    assert ns == [96] and gs.newton_steps > 0


def test_radial_solve_too_small_to_coarsen_converges(monkeypatch):
    """16 // COARSEN cells is no grid: one phase from the Gaussian, then the
    extended (float64 pair) Newton steps of every radial solve."""
    assert 16 // ground_state.COARSEN < MIN_CELLS
    with pytest.warns(RuntimeWarning, match="core spans"):
        gs, ns = _phase_grids(monkeypatch, make_params(2, 0.75, 0.5),
                              radial_grid(2, 14.0, 16, 0.5))
    assert ns == [16] and gs.newton_steps > 0


NEWTON_CASES = [
    pytest.param(2, 0.75, 0.5, radial_grid(2, 14.0, 2048, 0.5), id="radial-b0.5"),
    pytest.param(1, 1.5, 0.5, line_grid(16.0, 1024, 0.5), id="line-b0.5"),
    pytest.param(1, 2.0, 0.0, line_grid(16.0, 1024, 0.0), id="line-quintic-b0"),
]


@pytest.mark.parametrize("dim, sigma, b, grid", NEWTON_CASES)
def test_both_precisions_run_the_same_phases(monkeypatch, dim, sigma, b, grid):
    """The float64 pair sets only the precision of the radial Newton defect: a
    solve whose defect drops lo (the float64 defect at Q) iterates on the same
    levels (radial 128, 512 and 2048 cells; an even line's half grids, 128
    and 512 cells), as often, and takes as many Newton steps to the same
    profile.  A line solve carries no pair, so there the two solves are one."""
    params = make_params(dim, sigma, b)
    wide, wide_ns = _phase_grids(monkeypatch, params, grid)
    defect = ground_state._newton_defect
    monkeypatch.setattr(ground_state, "_newton_defect",
                        lambda params, grid, Q, lo: defect(params, grid, Q, None))
    narrow, narrow_ns = _phase_grids(monkeypatch, params, grid)
    assert wide_ns == narrow_ns == ([128, 512] if grid.geometry == "line" else [128, 512, 2048])
    assert wide.iterations == narrow.iterations
    assert wide.newton_steps == narrow.newton_steps
    assert float(np.max(np.abs(wide.profile.values - narrow.profile.values))) < 1e-11


@pytest.mark.parametrize("dim, sigma, b, grid", NEWTON_CASES)
def test_only_the_finest_line_level_runs_to_step_tol(monkeypatch, dim, sigma, b, grid):
    """Every coarser level hands over at HANDOVER_TOL.  So does a radial
    solve's finest level, and Newton steps take it on; a line's finest level
    runs to STEP_TOL itself and takes no Newton step."""
    tols = []
    iterate = ground_state._petviashvili

    def recording(params, grid, Q, max_iter, tol):
        tols.append(tol)
        return iterate(params, grid, Q, max_iter, tol)

    monkeypatch.setattr(ground_state, "_petviashvili", recording)
    gs = solve_ground_state(make_params(dim, sigma, b), grid)
    line = grid.geometry == "line"
    finest = ground_state.STEP_TOL if line else ground_state.HANDOVER_TOL
    assert tols == [ground_state.HANDOVER_TOL] * (len(tols) - 1) + [finest] and len(tols) > 1
    assert (gs.newton_steps == 0) == line


@pytest.mark.parametrize("dim, sigma, b, grid", [case for case in NEWTON_CASES
                                                  if case.id.startswith("line")])
def test_even_line_solve_on_the_half_grid_is_the_full_grid_solve(monkeypatch, dim, sigma, b,
                                                                 grid):
    """An even-n line solve iterates on the half grids and mirrors its profile
    back, exactly even; the same solve on the full grids takes as many
    iterations and Newton steps to the same profile."""
    params = make_params(dim, sigma, b)
    gs = solve_ground_state(params, grid)
    assert gs.profile.grid is grid and np.array_equal(gs.profile.values, gs.profile.values[::-1])
    monkeypatch.setattr(core._Line, "even_grid", lambda grid: grid)
    ref = solve_ground_state(params, grid)
    assert (gs.iterations, gs.newton_steps) == (ref.iterations, ref.newton_steps)
    assert float(np.max(np.abs(gs.profile.values - ref.profile.values))) < 1e-12
    assert gs.pohozaev_r1 == pytest.approx(ref.pohozaev_r1, abs=1e-15)


def _check_line_levels(monkeypatch, n, levels):
    """The line solve on n cells iterates on ``levels`` cells and converges to
    STEP_TOL, without Newton steps, to an exactly even profile, the
    all-full-grid solve's, in as many iterations."""
    params, grid = make_params(1, 1.5, 0.5), line_grid(16.0, n, 0.5)
    gs, ns = _phase_grids(monkeypatch, params, grid)
    assert ns == levels
    assert gs.newton_steps == 0 and _at_step_tol(gs)
    assert np.array_equal(gs.profile.values, gs.profile.values[::-1])
    monkeypatch.setattr(core._Line, "even_grid", lambda grid: grid)
    ref = solve_ground_state(params, grid)
    assert gs.iterations == ref.iterations
    assert float(np.max(np.abs(gs.profile.values - ref.profile.values))) < 1e-12


@pytest.mark.parametrize("n, levels", [(1023, [255, 1023]), (1025, [128, 1025]),
                                      (4097, [128, 512, 4097])], ids=["1023", "1025", "4097"])
def test_odd_line_solves_on_the_full_grids(monkeypatch, n, levels):
    """An odd-n line has no half grid: its own level runs on the full grid,
    and a coarser level on its half grid when its own n is even (1025, 4097)."""
    _check_line_levels(monkeypatch, n, levels)


def test_even_line_over_an_odd_level_starts_each_level_at_abs_x(monkeypatch):
    """Every level runs on its half grid when its own n is even and starts
    from the coarser solve's even interpolant, at |x|, whichever grids the two
    run on: 4100 -> 1025 -> 256 runs 2050, 1025 and 128 cells."""
    _check_line_levels(monkeypatch, 4100, [128, 1025, 2050])


def _newton_solve(monkeypatch, params, grid):
    """A solve, and the L2 norms of its Newton corrections."""
    norms = []
    solve = core._Radial.shifted_helmholtz_solve

    def recording(grid, rhs, shift):
        delta = solve(grid, rhs, shift)
        norms.append(float(np.sqrt(np.sum(delta ** 2 * grid.weights))))
        return delta

    monkeypatch.setattr(core._Radial, "shifted_helmholtz_solve", recording)
    return solve_ground_state(params, grid), norms


@pytest.mark.parametrize("dim, sigma, b, grid", NEWTON_CASES)
def test_newton_polish_matches_longdouble_petviashvili(monkeypatch, dim, sigma, b, grid):
    """A float64 solve, radially through the Newton polish and on the line by
    Petviashvili iteration alone, converges to the fixed point that
    Petviashvili iteration reaches in longdouble arrays (the operators'
    multipliers and the Helmholtz solve stay float64), the b = 0 line's
    translation kernel notwithstanding."""
    params = make_params(dim, sigma, b)
    gs, norms = _newton_solve(monkeypatch, params, grid)
    start = np.exp(-grid.nodes ** 2 / 2.0).astype(np.longdouble)
    ref, _, converged = ground_state._petviashvili(params, grid, start, 2000,
                                                   ground_state.STEP_TOL)
    assert converged
    assert gs.newton_steps == len(norms)
    assert len(norms) >= 2 if grid.geometry == "radial" else not norms
    assert float(np.max(np.abs(gs.profile.values - ref))) < 1e-12


@pytest.mark.parametrize("dim, sigma, b, grid", [case for case in NEWTON_CASES
                                                  if case.id.startswith("radial")])
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
        solve_ground_state(make_params(2, 0.75, 0.5), radial_grid(2, 14.0, 2048, 0.5))
    assert err.value.residual is not None


@pytest.mark.parametrize("dim, sigma, b, grid, match", [
    (1, 2.0, 0.0, line_grid(8.0, 256, 0.0), "tail is not negligible"),
    (2, 1.0, 0.5, radial_grid(2, 16.0, 96, 0.5), "core spans only"),
])
def test_unresolved_ground_state_warns(dim, sigma, b, grid, match):
    with pytest.warns(RuntimeWarning, match=match):
        solve_ground_state(make_params(dim, sigma, b), grid)


def test_rounding_floor_stall_is_reported_as_such():
    """On the line gate's profile at twice its cells, Petviashvili iteration
    reaches STEP_TOL, but the FFT's rounding floor (~ eps ||Q|| k_max^2) holds
    the residual (measured 4.0e-8) above tolerance (1.1e-8): the error names
    the residual, not an iteration budget.  Radially the float64 pair lifts that floor: the
    deep grid on which a float64 defect stalled (residual 1.6e-7) converges."""
    with pytest.raises(ConvergenceError, match="stalled .* residual") as err:
        solve_ground_state(make_params(1, 1.5, 0.5), line_grid(15.0, 131072, 0.5))
    assert "did not converge in" not in str(err.value)
    gs = solve_ground_state(make_params(2, 0.75, 0.5), radial_grid(2, 14.0, 131072, 0.5))
    assert gs.newton_steps > 0


@pytest.mark.filterwarnings("ignore:ground-state:RuntimeWarning")
@pytest.mark.parametrize("dtype", ["float64", "longdouble"])
@pytest.mark.parametrize("params, grid", [
    (make_params(1, 2.0, 0.0), line_grid(40.0, 64, 0.0)),
    (make_params(1, 1.2, 0.5), line_grid(30.0, 64, 0.5)),
    (make_params(1, 2.0, 0.0), line_grid(40.0, 48, 0.0)),
], ids=["quintic", "sigma1.2-b0.5", "quintic-48"])
def test_under_resolved_line_grid_fails_in_both_precisions(tmp_path, capsys, params, grid,
                                                           dtype):
    """64 and 48 cells under-resolve the profiles.  Petviashvili iteration
    reaches STEP_TOL, but the residual stalls far above tolerance (measured
    4e-4 to 3.5e-3), and the solve says so instead of returning the profile;
    the CLI's ``ground-state``, given either precision its ``dtype`` key
    accepts (which selects nothing), exits 3 with that message.  48 // COARSEN
    cells cannot resolve the Gaussian start either, so the solve skips them:
    from there the coarse iteration diverged (S = 4.6e9)."""
    cfg = tmp_path / "gs.cfg"
    cfg.write_text(f"dim = 1\nsigma = {params.sigma}\nb = {params.b}\nextent = {grid.extent}\n"
                   f"n = {grid.n}\ndtype = {dtype}\n")
    assert main(["ground-state", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 3
    assert re.search("stalled .* residual .* above tolerance", capsys.readouterr().err)


_FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@given(_FINITE, _FINITE)
def test_two_sum_is_error_free(a, b):
    s, e = ground_state._two_sum(np.array([a]), np.array([b]))
    assert s[0] == a + b
    assert Fraction(float(s[0])) + Fraction(float(e[0])) == Fraction(a) + Fraction(b)


@pytest.mark.parametrize("dim, sigma", [(2, 0.75), (3, 1.0)])
def test_flux_form_laplacian_matches_band_form(dim, sigma):
    """The applied Laplacian (flux differences) is the operator whose bands
    the gttrf factorizations invert: the two, and the ground-state defects
    built on them, differ by rounding, 1e-12 of max |Lap Q| at n = 512, on a
    profile that is 2.2e-2 of its peak at the Dirichlet wall."""
    params, grid = make_params(dim, sigma, 0.5), radial_grid(dim, 14.0, 512, 0.5)
    Q = np.exp(-grid.nodes ** 2 / 51.0)
    lo, dg, up = grid.bands()
    band = dg * Q
    band[1:] += lo * Q[:-1]
    band[:-1] += up * Q[1:]
    flux = grid.laplacian(Q)
    scale = 1e-12 * np.max(np.abs(flux))
    assert np.max(np.abs(flux - band)) < scale
    defect = ground_state._defect(params, grid, Q)[1]
    assert np.max(np.abs(defect - (band - Q + grid.weight_b * Q ** (2 * sigma + 1)))) < scale


def test_pair_defect_matches_longdouble_on_the_deep_radial_grid():
    """On radial3's grid (n = 262144) the pair defect of Q + lo is within 1e-9
    (L2) of a longdouble defect of the same sum (measured 8e-11), where the
    float64 defect of the rounded sum is 1.7e-7 off, above the 2.2e-8
    tolerance of the ground state there."""
    params, grid = make_params(3, 1.0, 0.5), radial_grid(3, 14.0, 262144, 0.5)
    Q = np.exp(-grid.nodes ** 2 / 2.0)
    lo = np.random.default_rng(0).uniform(-0.5, 0.5, grid.n) * np.spacing(Q)
    ref = ground_state._defect(params, grid, Q.astype(np.longdouble) + lo)[1]

    def l2_error(F):
        return float(np.sqrt(np.sum((F - ref) ** 2 * grid.weights)))

    assert l2_error(ground_state._newton_defect(params, grid, Q, lo)[0]) < 1e-9
    assert l2_error(ground_state._newton_defect(params, grid, Q + lo, None)[0]) > 1e-8


def test_radial_solve_holds_only_what_its_phase_uses(monkeypatch):
    """The N = 3 solve at n = 65536, under tracemalloc, peaks at most 13.0
    float64 arrays of n cells above its built grid (11.0 measured; 11.5 while
    the finest level's interpolated start outlived its first update, 19.0
    while the finest level's factorization outlived its iteration and the
    updates kept their temporaries), keeps at most 3.5 (Q and the two flux
    factors, 3.0; 7.5 with that factorization), and leaves no Helmholtz
    factorization on its grid: the next solve there factors anew."""
    params, grid = make_params(3, 1.0, 0.5), radial_grid(3, 14.0, 65536, 0.5)
    solve_ground_state(params, radial_grid(3, 14.0, 512, 0.5))    # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        gs = solve_ground_state(params, grid)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert (gs.iterations, gs.newton_steps) == (148, 3)
    array = 8 * grid.n
    assert peak <= 13.0 * array and kept <= 3.5 * array
    calls, dgttrf = [], lapack.dgttrf
    monkeypatch.setattr(lapack, "dgttrf", lambda *a, **k: calls.append(1) or dgttrf(*a, **k))
    gs.profile.grid.helmholtz_solver()(gs.profile.values)
    assert len(calls) == 1


def test_grid_param_mismatch_rejected():
    params = make_params(1, 1.5, 0.5)
    with pytest.raises(ValidationError):
        solve_ground_state(params, line_grid(12.0, 512, 0.25))
    with pytest.raises(ValidationError):
        solve_ground_state(params, radial_grid(2, 12.0, 512, 0.5))


def test_dimension_mismatch_rejected_before_iterating(monkeypatch):
    """N = 3 params on a 2-D radial grid: same geometry and b, other dimension.
    The check also precedes every coarser level, whose grid is built from
    params and so agrees with them."""
    def no_iteration(*args, **kwargs):
        raise AssertionError("the Petviashvili iteration ran")

    monkeypatch.setattr(ground_state, "_petviashvili", no_iteration)
    with pytest.raises(ValidationError, match="dim"):
        solve_ground_state(make_params(3, 1.0, 0.5), radial_grid(2, 12.0, 1024, 0.5))


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
        # evaluate the fine profile at the coarse nodes via its spline
        ev = _interp_spline(fine.grid, fine.values)
        diffs.append(np.max(np.abs(ev(coarse.grid.nodes) - coarse.values)))
    assert diffs[0] / diffs[1] >= 3.0


def test_unproven_regime_labeling(line_b_gs, radial2_gate_gs):
    assert not line_b_gs.params.proven_regime       # b = 0.5 > 1/3 for N = 1
    assert radial2_gate_gs.params.proven_regime     # b = 0.5 < 2/3 for N = 2
