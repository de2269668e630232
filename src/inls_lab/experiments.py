"""Canned, reproducible experiments mirroring the acceptance criteria.

Each experiment returns an ExperimentReport with a pass flag and the numbers
behind it; the CLI ``reproduce`` subcommand and the acceptance test suite
both run these functions, so the gate is exercised identically everywhere.

Ground states come from one table, ``GROUND_STATES`` (three longdouble
Pohozaev gates, five float64 cases), through one memo, ``ground_state(case)``;
the four blow-up runs behind criteria 6-11 come alike from one table,
``TRAJECTORIES`` (each run's initial field and step policy), through one memo,
``trajectory(run)``.  ``@_experiment(name, budget_s)``
registers each experiment in ``REGISTRY``, times it, and builds its report
from the ``(passed, details)`` it returns; a budget is recorded in the
details and must be met to pass.

Tuning notes baked into the configurations below:

* The deep Pohozaev gates finish in extended precision: at n ~ 2.6e5 the
  float64 evaluation of the elliptic residual is rounding-floor limited
  (~eps/dx^2), while the dilation identity needs that much resolution.  The
  solver reaches that floor in float64 and runs only the remaining
  iterations in longdouble (most of each gate's iterations run in float64;
  the reports record both counts).
* Conservation, splitting-order, family-tracking, and the quadratic-virial
  gates run on the b = 0 mass-critical member (quintic line soliton), where
  Strang splitting retains its clean second order.  With b > 0 the
  singular-weight commutators at the origin cells cost the splitting its
  formal order and seed a slow radiation defect; the b = 0.5 experiments
  below therefore carry looser, honestly measured tolerances.
* The S-family march (criteria 7, 9 and 10) composes the Strang step with
  Suzuki's fourth-order weights: its stop is limited by the time error, and
  at 16 times the Strang dt and c_dt it reaches the same resolution stop in
  under a third of the linear flows with a smaller error at the stop.  A
  sample on every step keeps the samples at least as dense as a Strang
  march's sample every 20 steps.  The b > 0 runs (previous note) and the
  radial run, whose Crank-Nicolson flow is second order in time, stay on
  Strang: a composition cannot raise their order.
* Resolution stops for family tracking sit well below theta = 0.5: past
  roughly eight cells per core width the discretized weight arrests the
  marginal minimal-mass collapse, so the experiments stop while the core is
  still genuinely resolved.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, wraps

import numpy as np

from . import functionals as fn
from .analysis import (
    decompose, estimate_blowup_time, mass_concentration_series, rate_exponent_bound,
    rescaled_profile, sigma_c_window_series, window_radii,
)
from .core import Field, grid_for, line_grid, make_params, radial_grid
from .errors import ValidationError
from .evolution import SUZUKI4, StepPolicy, Trajectory, evolve
from .exact import SFamilyParams, s_profile, standing_wave
from .ground_state import GroundState, c_of_Mm, gn_ratio, solve_ground_state
from .inequalities import (
    DEFAULT_SEED, check_critical_gn, corpus_rng, random_bump_field,
    run_banica_report, run_gagliardo_report, run_critical_gn_report,
    run_radial_gn_report, run_strauss_report,
)


@dataclass
class ExperimentReport:
    name: str
    passed: bool
    elapsed: float
    details: dict = dc_field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "elapsed_seconds": round(self.elapsed, 2),
            "details": _jsonable(self.details),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


# ---------------------------------------------------------------------------
# shared heavy intermediates (memoized for the lifetime of the process)

# case -> (dim, sigma, b, extent, n, dtype); the three deep Pohozaev gates
# iterate in extended precision, the other cases in float64.
GROUND_STATES = {
    "line_mass_critical": (1, 1.5, 0.5, 15.0, 65536, "longdouble"),
    "radial2_mass_critical": (2, 0.75, 0.5, 14.0, 20480, "longdouble"),
    "radial3_intercritical": (3, 1.0, 0.5, 14.0, 262144, "longdouble"),
    "cubic": (1, 1.0, 0.0, 20.0, 4096, "float64"),
    "quintic": (1, 2.0, 0.0, 20.0, 4096, "float64"),
    "quintic_tracking": (1, 2.0, 0.0, 20.0, 16384, "float64"),
    "line_b": (1, 1.5, 0.5, 20.0, 8192, "float64"),
    "radial2_intercritical": (2, 1.0, 0.5, 12.0, 8192, "float64"),
}
POHOZAEV_CASES = ("line_mass_critical", "radial2_mass_critical", "radial3_intercritical")
CORPUS_TRIALS = 1000      # random fields per inequality corpus
S_FAMILY = SFamilyParams(T=1.0, lam=1.0, gamma=0.0)   # the tracked minimal-mass profile


@lru_cache(maxsize=None)
def ground_state(case: str) -> GroundState:
    """The ground state of a ``GROUND_STATES`` case."""
    dim, sigma, b, extent, n, dtype = GROUND_STATES[case]
    params = make_params(dim, sigma, b)
    return solve_ground_state(params, grid_for(params, extent, n), dtype=dtype)


def _above_q(case: str) -> Field:
    """1.05 Q of a line case: negative-energy mass-critical collapse."""
    gs = ground_state(case)
    return gs.profile.with_values(1.05 * gs.profile.values.astype(complex))


def _negative_energy_gaussian() -> Field:
    """Radial N=2 intercritical Gaussian; its energy must be negative."""
    params = make_params(2, 1.0, 0.5)
    grid = radial_grid(2, 10.0, 2048, 0.5)
    u0 = Field(1.9 * np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    if fn.energy(u0) >= 0:
        raise ValidationError("intercritical seed should have negative energy")
    return u0


# run -> (initial field, StepPolicy keywords); each run stops at its
# resolution limit theta, while the core is still resolved.
_COLLAPSE = dict(dt0=5e-4, c_dt=5e-3, sample_every=10, t_end=5.0)
TRAJECTORIES = {
    "s_family_quintic": (
        lambda: s_profile(S_FAMILY, ground_state("quintic_tracking"), 0.0),
        dict(weights=SUZUKI4, dt0=4e-3, c_dt=2e-2, theta=0.039, sample_every=1,
             snapshot_every=50, t_end=5.0),
    ),
    "quintic_collapse": (lambda: _above_q("quintic"),
                         dict(_COLLAPSE, theta=0.15, snapshot_every=50)),
    "inls_collapse": (lambda: _above_q("line_b"),
                      dict(_COLLAPSE, theta=0.10, snapshot_every=50)),
    "intercritical_radial": (_negative_energy_gaussian,
                             dict(_COLLAPSE, theta=0.20, snapshot_every=4)),
}


@lru_cache(maxsize=None)
def trajectory(run: str) -> Trajectory:
    """The evolution of a ``TRAJECTORIES`` run."""
    initial, policy = TRAJECTORIES[run]
    return evolve(initial(), StepPolicy(**policy))


# ---------------------------------------------------------------------------
# registration: each experiment returns (passed, details)

REGISTRY: dict = {}


def _experiment(name: str, budget_s: float | None = None):
    """Register an experiment under ``name``, timed and wrapped in its report;
    with ``budget_s`` the report records the budget and fails a slower run."""
    def register(run):
        @wraps(run)
        def timed(seed: int = DEFAULT_SEED) -> ExperimentReport:
            t0 = time.perf_counter()
            passed, details = run(seed)
            elapsed = time.perf_counter() - t0
            if budget_s is not None:
                details["runtime_budget_seconds"] = budget_s
                passed = passed and elapsed < budget_s
            return ExperimentReport(name, passed, elapsed, details)

        REGISTRY[name] = timed
        return timed

    return register


# ---------------------------------------------------------------------------
# the experiments, one per acceptance criterion


@_experiment("ground_state_oracles")
def soliton_oracles(seed):
    """Criterion 1: closed-form soliton oracles."""
    details = {}
    passed = True
    for name, exact in (
        ("cubic", lambda x: np.sqrt(2.0) / np.cosh(x)),
        ("quintic", lambda x: 3.0 ** 0.25 / np.cosh(2.0 * x) ** 0.5),
    ):
        gs = ground_state(name)
        err = float(np.max(np.abs(gs.profile.values - exact(gs.profile.grid.nodes))))
        details[name] = {"linf_error": err, "iterations": gs.iterations}
        passed &= err < 1e-6
    return passed, details


@_experiment("pohozaev_gate", budget_s=60.0)
def pohozaev_gate(seed):
    """Criterion 2: Pohozaev identity gate."""
    details = {}
    passed = True
    for case in POHOZAEV_CASES:
        gs = ground_state(case)
        p = gs.params
        entry = {
            "r1": gs.pohozaev_r1,
            "r2": gs.pohozaev_r2,
            "relative_residual": gs.residual / math.sqrt(gs.q_mass),
            "iterations": gs.iterations,
            "float64_iterations": gs.float64_iterations,
            "longdouble_iterations": gs.longdouble_iterations,
            "proven_regime": gs.params.proven_regime,
        }
        ok = gs.pohozaev_r1 < 1e-6 and gs.pohozaev_r2 < 1e-6
        if p.mass_critical:
            ratio = fn.grad_norm_sq(gs.profile) / fn.mass(gs.profile)
            target = p.dim / (2.0 - p.b)
            entry["grad_mass_ratio_dev"] = abs(ratio - target) / target
            ok &= entry["grad_mass_ratio_dev"] < 1e-5
        details[case] = entry
        passed &= ok
    return passed, details


@_experiment("gn_sharpness")
def gn_sharpness(seed):
    """Criterion 3: sharpness of the interpolation inequality."""
    details = {}
    passed = True
    for case in POHOZAEV_CASES:
        gs = ground_state(case)
        ratio_dev = abs(gn_ratio(gs.profile) - gs.k_opt) / gs.k_opt
        grid = grid_for(gs.params, 12.0, 2048 if gs.params.dim > 1 else 4096)
        # (P - K D) / (K D) = gn_ratio / K - 1 over the Gagliardo corpus
        corpus = run_gagliardo_report(gs.params, grid, gs.k_opt, CORPUS_TRIALS, seed)
        details[case] = {"sharpness_dev": ratio_dev, "corpus_max_excess": corpus.max_violation}
        passed &= ratio_dev < 1e-5 and corpus.passed
    return passed, details


@_experiment("cmm_exactness")
def cmm_exactness(seed):
    """Criterion 4: exactness of the compactness constant."""
    details = {}
    passed = True
    for dim, sigma, b in ((1, 1.5, 0.5), (2, 0.75, 0.5), (1, 2.0, 0.0), (3, 0.5, 0.5)):
        params = make_params(dim, sigma, b)
        q_sq = 1.37  # any positive ||Q||^2; the identity is exact in it
        m_pow = (params.dim / (2.0 - params.b) + 1.0) * q_sq
        M = math.sqrt(params.dim / (2.0 - params.b) * q_sq)
        m = m_pow ** (1.0 / ((4.0 - 2.0 * params.b) / params.dim + 2.0))
        c_val = c_of_Mm(M, m, params)
        details[f"N{dim}_b{b}"] = {"C": c_val, "deviation": abs(c_val - 1.0)}
        passed &= abs(c_val - 1.0) < 1e-12
    return passed, details


@_experiment("conservation")
def conservation_gate(seed):
    """Criterion 5: conservation + splitting order on the standing wave."""
    gs = ground_state("quintic")
    u0 = standing_wave(gs, 0.0)
    m0 = fn.mass(u0)
    e0 = fn.energy(u0)
    scale = fn.energy_scale(u0)
    traj, l2_error_t1 = _standing_wave_run(gs, 1e-4, 1.0)
    final = traj.samples[-1]
    mass_drift = abs(final.mass - m0) / m0
    energy_drift = abs(final.energy - e0) / scale

    # splitting order against the discrete standing wave at T = 0.5
    errs = [_standing_wave_run(gs, dt, 0.5)[1] for dt in (2e-3, 1e-3, 5e-4)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    details = {
        "mass_drift": mass_drift,
        "energy_drift_scaled": energy_drift,
        "l2_error_t1": l2_error_t1,
        "strang_errors": errs,
        "strang_orders": orders,
        "energy_zero_note": "drift scaled by |kinetic|+|potential| since E[Q] ~ 0",
    }
    passed = (
        mass_drift < 1e-8
        and energy_drift < 1e-6
        and l2_error_t1 < 1e-4
        and all(1.8 <= o <= 2.2 for o in orders)
    )
    return passed, details


def _standing_wave_run(gs: GroundState, dt: float, t_end: float):
    """``evolve`` of the standing wave at the constant step dt (c_dt and theta
    never bind) up to t_end, and the relative L2 error of its final field.

    Samples fall every 2000 steps; requesting snapshots makes the final
    sample keep its field.
    """
    policy = StepPolicy(dt0=dt, c_dt=1e9, theta=1e9, t_end=t_end,
                        sample_every=2000, snapshot_every=5)
    traj = evolve(standing_wave(gs, 0.0), policy)
    u = traj.samples[-1].snapshot
    ref = standing_wave(gs, t_end)
    diff = u.with_values(u.values - ref.values)
    return traj, math.sqrt(fn.mass(diff) / fn.mass(ref))


@_experiment("virial_quadratic")
def virial_gate(seed):
    """Criterion 6: virial identity."""
    details = {}

    # mass-critical: variance is exactly quadratic with curvature 16 E[u0]
    traj = trajectory("quintic_collapse")
    e0 = traj.energies()[0]
    ts, Vs, gnorms = traj.times(), traj.variances(), traj.grad_norms()
    resolved = gnorms <= gnorms[-1] / 2.0
    coeffs = np.polyfit(ts[resolved], Vs[resolved], 2)
    resid = Vs[resolved] - np.polyval(coeffs, ts[resolved])
    curvature_dev = abs(2.0 * coeffs[0] - 16.0 * e0) / abs(16.0 * e0)
    rel_resid = float(np.sqrt(np.mean(resid ** 2)) / np.sqrt(np.mean(Vs[resolved] ** 2)))
    details["mass_critical"] = {
        "d2V_dt2": 2.0 * float(coeffs[0]),
        "sixteen_E": 16.0 * e0,
        "curvature_dev": curvature_dev,
        "fit_residual": rel_resid,
    }
    ok1 = curvature_dev < 0.01 and rel_resid < 1e-3

    # intercritical: pointwise second difference matches
    #   8 (N sigma + b) E - 4 (N sigma + b - 2) |grad u|^2
    itraj = trajectory("intercritical_radial")
    p = itraj.snapshots()[0].snapshot.params
    e0i = itraj.energies()[0]
    a = p.dim * p.sigma + p.b
    ts, Vs, gnorms = itraj.times(), itraj.variances(), itraj.grad_norms()
    resolved_idx = np.where(gnorms <= gnorms[-1] / 2.0)[0]
    devs = []
    for i in resolved_idx[2:-2]:
        h1, h2 = ts[i] - ts[i - 1], ts[i + 1] - ts[i]
        d2 = 2.0 * (h1 * Vs[i + 1] - (h1 + h2) * Vs[i] + h2 * Vs[i - 1]) / (h1 * h2 * (h1 + h2))
        rhs = 8.0 * a * e0i - 4.0 * (a - 2.0) * gnorms[i] ** 2
        devs.append(abs(d2 - rhs) / abs(rhs))
    details["intercritical"] = {"max_pointwise_dev": float(np.max(devs)),
                                "median_pointwise_dev": float(np.median(devs))}
    ok2 = float(np.max(devs)) < 0.02
    return ok1 and ok2, details


@_experiment("s_family_tracking")
def s_family_tracking(seed):
    """Criterion 7 (+10): minimal-mass family tracking and profile convergence."""
    gs = ground_state("quintic_tracking")
    traj = trajectory("s_family_quintic")
    m_q = fn.mass(gs.profile)

    snaps = traj.snapshots()
    final = snaps[-1]
    exact_final = s_profile(S_FAMILY, gs, final.time)
    diff = final.snapshot.with_values(final.snapshot.values - exact_final.values)
    err_stop = math.sqrt(fn.mass(diff) / m_q)

    mass_devs = [abs(fn.mass(s_profile(S_FAMILY, gs, s.time)) - m_q) / m_q for s in snaps]
    fit = estimate_blowup_time(traj, gs.params.s_c)

    resc = [(s.time, rescaled_profile(s.snapshot, gs).err) for s in snaps]
    errs = np.array([e for _, e in resc])
    drops = np.all(errs[1:] <= errs[:-1] * 1.05)

    details = {
        "err_at_stop": err_stop,
        "T_hat": fit.T_hat,
        "T_hat_dev": abs(fit.T_hat - 1.0),
        "exponent": fit.exponent,
        "max_family_mass_dev": float(np.max(mass_devs)),
        "rescaled_err_final": float(errs[-1]),
        "rescaled_err_monotone_5pct": bool(drops),
        "termination": traj.termination,
        "rescaled_series": [(round(t, 4), float(e)) for t, e in resc],
    }
    passed = (
        err_stop < 1e-2
        and abs(fit.T_hat - 1.0) < 0.01
        and abs(fit.exponent + 1.0) < 0.10
        and float(np.max(mass_devs)) < 1e-6
        and traj.termination == "resolution_limit"
        and errs[-1] < 5e-2
        and drops
    )
    return passed, details


@_experiment("theorem1_mass_concentration")
def theorem1_mass_concentration(seed):
    """Criterion 8: mass concentration in shrinking windows."""
    gs = ground_state("line_b")
    traj = trajectory("inls_collapse")
    fit = estimate_blowup_time(traj, gs.params.s_c)
    series = mass_concentration_series(traj, 0.25, fit)
    m_q = fn.mass(gs.profile)
    values = np.array([r.value for r in series])
    i_min = int(np.argmin(values))
    tail = values[i_min:]
    eventually_up = np.all(tail[1:] >= tail[:-1] * (1.0 - 0.01))
    products = [r.window_grad_product for r in series]
    details = {
        "final_fraction_of_Qmass": float(values[-1] / m_q),
        "eventually_nondecreasing": bool(eventually_up),
        "window_grad_product_increasing": bool(products[-1] > products[0]),
        "T_hat": fit.T_hat,
        "exponent": fit.exponent,
        "series": [(round(r.time, 4), float(r.value)) for r in series],
    }
    return values[-1] >= 0.9 * m_q and eventually_up, details


@_experiment("rate_bound")
def rate_bound(seed):
    """Criterion 9: lower-bound rate exponents across the blow-up matrix."""
    details = {}
    passed = True
    for name in TRAJECTORIES:
        traj = trajectory(name)
        s_c = traj.snapshots()[0].snapshot.params.s_c
        fit = estimate_blowup_time(traj, s_c)
        bound = rate_exponent_bound(s_c)
        details[name] = {"exponent": fit.exponent, "bound": bound, "T_hat": fit.T_hat}
        passed &= fit.exponent <= bound
    return passed, details


@_experiment("sigma_c_concentration", budget_s=300.0)
def sigma_c_concentration(seed):
    """Criterion 11: critical-norm window floors."""
    traj = trajectory("intercritical_radial")
    p = traj.snapshots()[0].snapshot.params
    fit = estimate_blowup_time(traj, p.s_c)
    fint = sigma_c_window_series(traj, fit, "fint")
    gnorms = np.array([math.sqrt(s.grad_norm_sq) for s in traj.snapshots()])
    decade = gnorms >= gnorms.max() / 10.0

    fvals = np.array([r.value for r in fint])[decade]
    fint_floor = float(fvals.min() / np.median(fvals))

    u1l_norms = []
    m0 = traj.initial_mass
    for s in traj.snapshots():
        R, rho = window_radii(s.snapshot, m0)
        dec = decompose(s.snapshot, R, rho)
        u1l_norms.append(fn.lp_norm(dec.u1L, p.sigma_c))
    u1l = np.array(u1l_norms)[decade]
    u1l_floor = float(u1l.min() / np.median(u1l))

    details = {
        "fint_min_over_median": fint_floor,
        "u1L_min_over_median": u1l_floor,
        "snapshots_in_decade": int(decade.sum()),
        "T_hat": fit.T_hat,
    }
    return fint_floor >= 0.5 and u1l_floor >= 0.25, details


@_experiment("inequalities")
def inequality_suite(seed):
    """Criterion 12: inequality suite + decomposition reconstruction."""
    line_params = make_params(1, 1.5, 0.5)
    line = line_grid(12.0, 4096, 0.5)
    radial_params = make_params(2, 1.0, 0.5)
    radial = radial_grid(2, 12.0, 2048, 0.5)
    gs_line = ground_state("line_b")
    gs_radial = ground_state("radial2_intercritical")

    reports = [
        run_gagliardo_report(line_params, line, gs_line.k_opt, trials=CORPUS_TRIALS, seed=seed),
        run_banica_report(line_params, line, gs_line.q_mass, trials=CORPUS_TRIALS, seed=seed),
        run_strauss_report(radial_params, radial, trials=CORPUS_TRIALS, seed=seed),
        run_radial_gn_report(radial_params, radial, trials=CORPUS_TRIALS, seed=seed),
        run_critical_gn_report(radial_params, radial, check_critical_gn(gs_radial.profile),
                               trials=CORPUS_TRIALS, seed=seed),
    ]

    recon_worst = 0.0
    rng = corpus_rng(seed, "decomposition")
    for i in range(100):
        params, grid = (line_params, line) if i % 2 == 0 else (radial_params, radial)
        u = random_bump_field(params, grid, rng)
        dec = decompose(u, rng.uniform(0.5, 8.0), rng.uniform(0.5, 50.0))
        recon_worst = max(recon_worst, dec.reconstruction_error(u))

    details = {r.name: r.as_dict() for r in reports}
    details["decomposition_reconstruction_max"] = recon_worst
    passed = all(r.passed for r in reports)
    return passed and recon_worst < 1e-10, details


def reproduce(name: str, seed: int = DEFAULT_SEED) -> ExperimentReport:
    """Run a registered experiment by name."""
    if name not in REGISTRY:
        raise ValidationError(
            f"unknown experiment {name!r}; registered: {', '.join(sorted(REGISTRY))}"
        )
    return REGISTRY[name](seed=seed)


__all__ = ["ExperimentReport", "REGISTRY", "reproduce"] + [run.__name__ for run in REGISTRY.values()]
