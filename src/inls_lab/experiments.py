"""Canned, reproducible experiments mirroring the acceptance criteria.

Each experiment returns an ExperimentReport, its numbers and the gates they
pass by; the CLI ``reproduce`` subcommand and the acceptance test suite
both run these functions, so the gate is exercised identically everywhere.

Ground states come from one table of ``ground-state`` configs,
``GROUND_STATES`` (three Pohozaev gates, five other cases), through
``ground_state(case)``; the four blow-up runs behind criteria 6-11 come alike
from one table of ``evolve`` configs, ``TRAJECTORIES``, through one memo,
``trajectory(run)``, built as ``inls-lab evolve`` builds them; a run and a case
on the same grid keys share one solve.  ``@_experiment(name, budget_s)``
registers each experiment in ``REGISTRY``, times it, and builds its report
from the ``(details, gates)`` it returns; a budget is recorded in the
details and is one more gate, ``elapsed_seconds < budget_s``.

A report passes when each ``Gate(name, value, sense, bound)`` holds ``value sense
bound`` (``<``, ``<=``, ``>=`` or ``is``; a NaN fails) or is ungated (``bound=None``).
Its margin, value / bound inverted for ``>=`` and a negative bound, passes below 1.

Tuning notes baked into the configurations below:

* Every ground state iterates in float64 on a hierarchy of grids, each a
  quarter of the next: from the Gaussian on the coarsest level that resolves
  its core, then on each finer level from the iterate below interpolated,
  each coarser level to the handover step norm.  A line's finest level
  iterates on to the step tolerance, since the FFT's floor holds whatever
  the storage: the line gate passes at 0.74 of the residual tolerance.  A
  radial finest level hands over, then polishes with two Newton steps.  The
  Newton iterate is a float64 pair (Q, lo), since at n ~ 2.6e5 the defect
  of a float64 Q is rounding-floor limited (~eps Q/dr^2, 1.6e-7 against a
  2.2e-8 tolerance) while the dilation identity needs that much resolution; on
  ``radial2_intercritical`` the pair also spares the third step that a
  float64 defect spent at its floor.  The reports record the iterations
  summed over every level and the Newton steps.
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
  radial run stay on Strang: the singular weight caps their order.  On the
  radial grid at b = 0 Suzuki's composition of the Crank-Nicolson step reaches
  round-off (1.5e-13), but at b = 0.5 Strang is order 0.83 and Suzuki 0.99, so
  five substeps buy only a smaller constant.
* Resolution stops for family tracking sit well below theta = 0.5: past
  roughly eight cells per core width the discretized weight arrests the
  marginal minimal-mass collapse, so the experiments stop while the core is
  still genuinely resolved.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import asdict, dataclass
from functools import lru_cache, partial, wraps

import numpy as np

from . import functionals as fn
from .analysis import (
    decompose, estimate_blowup_time, mass_concentration_series, rate_exponent_bound,
    rescaled_profile, sigma_c_window_series, window_radii,
)
from .config import family, initial_field, resolve_config, step_policy
from .core import grid_for, make_params
from .errors import ValidationError
from .evolution import StepPolicy, Trajectory, evolve
from .exact import s_profiles, standing_wave
from .ground_state import RESIDUAL_TOL, GroundState, c_of_Mm, gn_ratio, solve_ground_state
from .inequalities import (
    DEFAULT_SEED, VIOLATION_TOL, check_critical_gn, corpus_rng, pooled, random_bump_field,
    run_banica_report, run_gagliardo_report, run_critical_gn_report, run_radial_gn_report,
    run_strauss_report,
)


@dataclass(frozen=True)
class Gate:
    name: str
    value: float | bool | str
    sense: str
    bound: float | bool | str | None
    _SENSES = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, "is": operator.eq}

    @property
    def passed(self) -> bool:
        return self.bound is None or bool(self._SENSES[self.sense](self.value, self.bound))

    @property
    def margin(self) -> float | None:
        """None for a flag, an ungated value or a value and bound of opposite signs."""
        if self.bound is None or self.sense == "is" or self.value * self.bound < 0:
            return None
        flip = (self.sense == ">=") != (self.bound < 0)
        num, den = (self.bound, self.value) if flip else (self.value, self.bound)
        return num / den if den else math.inf


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    elapsed: float
    details: dict
    gates: tuple

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)

    @property
    def tightest(self) -> Gate | None:
        """The gate with the largest margin (a NaN margin counts as largest)."""
        return max((g for g in self.gates if g.margin is not None), default=None,
                   key=lambda g: math.inf if math.isnan(g.margin) else g.margin)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 2),
            "details": self.details,
            "gates": [{**asdict(g), "margin": g.margin} for g in self.gates],
        }


# ---------------------------------------------------------------------------
# shared heavy intermediates (memoized for the lifetime of the process)

# case -> ground-state config (the grid keys; every other key at its default);
# the first three are the Pohozaev gates.
GROUND_STATES = {
    "line_mass_critical": dict(dim=1, sigma=1.5, b=0.5, extent=15.0, n=65536),
    "radial2_mass_critical": dict(dim=2, sigma=0.75, b=0.5, extent=14.0, n=20480),
    "radial3_intercritical": dict(dim=3, sigma=1.0, b=0.5, extent=14.0, n=262144),
    "cubic": dict(dim=1, sigma=1.0, b=0.0, extent=20.0, n=4096),
    "quintic": dict(dim=1, sigma=2.0, b=0.0, extent=20.0, n=4096),
    "quintic_tracking": dict(dim=1, sigma=2.0, b=0.0, extent=20.0, n=16384),
    "line_b": dict(dim=1, sigma=1.5, b=0.5, extent=20.0, n=8192),
    "radial2_intercritical": dict(dim=2, sigma=1.0, b=0.5, extent=12.0, n=8192),
}
POHOZAEV_CASES = ("line_mass_critical", "radial2_mass_critical", "radial3_intercritical")
CORPUS_TRIALS = 1000      # random fields per inequality corpus


@lru_cache(maxsize=None)
def _solved(params, extent, n) -> GroundState:
    return solve_ground_state(params, grid_for(params, extent, n))


def solved(cfg: dict) -> GroundState:
    """The ground state on a resolved config's grid keys, solved once per set of keys."""
    return _solved(make_params(cfg["dim"], cfg["sigma"], cfg["b"]), cfg["extent"], cfg["n"])


def ground_state(case: str) -> GroundState:
    """The ground state of a ``GROUND_STATES`` case."""
    return solved(resolve_config("ground-state", GROUND_STATES[case]))


# run -> evolve config; each run stops at its resolution limit theta, while
# the core is still resolved.  1.05 Q collapses with negative energy.
_COLLAPSE = dict(dt0=5e-4, c_dt=5e-3, sample_every=10, snapshot_every=50, t_end=5.0)
_ABOVE_Q = dict(initial="ground_state_multiple", initial_c=1.05)
TRAJECTORIES = {
    "s_family_quintic": {**GROUND_STATES["quintic_tracking"], "initial": "s_family",
                         "weights": "suzuki4", "dt0": 4e-3, "c_dt": 2e-2, "theta": 0.039,
                         "sample_every": 1, "snapshot_every": 50, "t_end": 5.0},
    "quintic_collapse": {**GROUND_STATES["quintic"], **_ABOVE_Q, **_COLLAPSE, "theta": 0.15},
    "inls_collapse": {**GROUND_STATES["line_b"], **_ABOVE_Q, **_COLLAPSE, "theta": 0.10},
    "intercritical_radial": {"dim": 2, "sigma": 1.0, "b": 0.5, "extent": 10.0, "n": 2048,
                             "initial": "gaussian", "initial_amplitude": 1.9,
                             **_COLLAPSE, "theta": 0.20, "snapshot_every": 4},
}


@lru_cache(maxsize=None)
def trajectory(run: str) -> Trajectory:
    """The evolution of a ``TRAJECTORIES`` run; a Gaussian blows up by its negative energy."""
    cfg = resolve_config("evolve", TRAJECTORIES[run])
    u0 = initial_field(cfg, solved)
    if cfg["initial"] == "gaussian" and fn.energy(u0) >= 0:
        raise ValidationError(f"{run}: the Gaussian seed should have negative energy")
    return evolve(u0, step_policy(cfg))


# ---------------------------------------------------------------------------
# registration: each experiment returns (details, gates)

REGISTRY: dict = {}


def _experiment(name: str, budget_s: float | None = None):
    """Register an experiment under ``name``, timed and wrapped in its report;
    with ``budget_s`` the report records the budget and gates the run time."""
    def register(run):
        @wraps(run)
        def timed(seed: int = DEFAULT_SEED) -> ExperimentReport:
            t0 = time.perf_counter()
            details, gates = run(seed)
            elapsed = time.perf_counter() - t0
            if budget_s is not None:
                details["runtime_budget_seconds"] = budget_s
                gates.append(Gate("elapsed_seconds", elapsed, "<", budget_s))
            return ExperimentReport(name, elapsed, details, tuple(gates))

        REGISTRY[name] = timed
        return timed

    return register


# ---------------------------------------------------------------------------
# the experiments, one per acceptance criterion


@_experiment("ground_state_oracles")
def soliton_oracles(seed):
    """Criterion 1: closed-form soliton oracles."""
    details, gates = {}, []
    for name, exact in (
        ("cubic", lambda x: np.sqrt(2.0) / np.cosh(x)),
        ("quintic", lambda x: 3.0 ** 0.25 / np.cosh(2.0 * x) ** 0.5),
    ):
        gs = ground_state(name)
        err = float(np.max(np.abs(gs.profile.values - exact(gs.profile.grid.nodes))))
        details[name] = {"linf_error": err, "iterations": gs.iterations}
        gates.append(Gate(f"{name}.linf_error", err, "<", 1e-6))
    return details, gates


@_experiment("pohozaev_gate", budget_s=60.0)
def pohozaev_gate(seed):
    """Criterion 2: Pohozaev identity gate."""
    details, gates = {}, []
    for case in POHOZAEV_CASES:
        gs = ground_state(case)
        p = gs.params
        entry = {
            "r1": gs.pohozaev_r1,
            "r2": gs.pohozaev_r2,
            "relative_residual": gs.residual / math.sqrt(gs.q_mass),
            "iterations": gs.iterations,
            "newton_steps": gs.newton_steps,
            "proven_regime": gs.params.proven_regime,
        }
        bounds = {"r1": 1e-6, "r2": 1e-6, "relative_residual": RESIDUAL_TOL}
        if p.mass_critical:
            ratio = fn.grad_norm_sq(gs.profile) / fn.mass(gs.profile)
            target = p.dim / (2.0 - p.b)
            entry["grad_mass_ratio_dev"] = abs(ratio - target) / target
            bounds["grad_mass_ratio_dev"] = 1e-5
        details[case] = entry
        gates += [Gate(f"{case}.{key}", entry[key], "<", bound) for key, bound in bounds.items()]
    return details, gates


@_experiment("gn_sharpness")
def gn_sharpness(seed):
    """Criterion 3: sharpness of the interpolation inequality."""
    details, gates = {}, []
    states = [ground_state(case) for case in POHOZAEV_CASES]
    # (P - K D) / (K D) = gn_ratio / K - 1 over each Gagliardo corpus
    corpora = pooled([
        partial(run_gagliardo_report, gs.params,
                grid_for(gs.params, 12.0, 2048 if gs.params.dim > 1 else 4096),
                gs.k_opt, CORPUS_TRIALS, seed)
        for gs in states])
    for case, gs, corpus in zip(POHOZAEV_CASES, states, corpora):
        ratio_dev = abs(gn_ratio(gs.profile) - gs.k_opt) / gs.k_opt
        excess = corpus.max_violation
        details[case] = {"sharpness_dev": ratio_dev, "corpus_max_excess": excess}
        gates += [Gate(f"{case}.sharpness_dev", ratio_dev, "<", 1e-5),
                  Gate(f"{case}.corpus_max_excess", excess, "<=", VIOLATION_TOL)]
    return details, gates


@_experiment("cmm_exactness")
def cmm_exactness(seed):
    """Criterion 4: exactness of the compactness constant."""
    details, gates = {}, []
    for dim, sigma, b in ((1, 1.5, 0.5), (2, 0.75, 0.5), (1, 2.0, 0.0), (3, 0.5, 0.5)):
        params = make_params(dim, sigma, b)
        q_sq = 1.37  # any positive ||Q||^2; the identity is exact in it
        m_pow = (params.dim / (2.0 - params.b) + 1.0) * q_sq
        M = math.sqrt(params.dim / (2.0 - params.b) * q_sq)
        m = m_pow ** (1.0 / ((4.0 - 2.0 * params.b) / params.dim + 2.0))
        c_val = c_of_Mm(M, m, params)
        details[f"N{dim}_b{b}"] = {"C": c_val, "deviation": abs(c_val - 1.0)}
        gates.append(Gate(f"N{dim}_b{b}.deviation", abs(c_val - 1.0), "<", 1e-12))
    return details, gates


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
    return details, [Gate("mass_drift", mass_drift, "<", 1e-8),
                     Gate("energy_drift_scaled", energy_drift, "<", 1e-6),
                     Gate("l2_error_t1", l2_error_t1, "<", 1e-4)] + [
        Gate(f"strang_orders[{i}]", o, sense, bound) for i, o in enumerate(orders)
        for sense, bound in ((">=", 1.8), ("<=", 2.2))]


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
    ts, Vs, resolved = traj.times(), traj.variances(), traj.resolved()
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

    # intercritical: pointwise second difference matches
    #   8 (N sigma + b) E - 4 (N sigma + b - 2) |grad u|^2
    itraj = trajectory("intercritical_radial")
    p = itraj.snapshots()[0].snapshot.params
    e0i = itraj.energies()[0]
    a = p.dim * p.sigma + p.b
    ts, Vs, gnorms = itraj.times(), itraj.variances(), itraj.grad_norms()
    devs = []
    for i in np.flatnonzero(itraj.resolved())[2:-2]:
        h1, h2 = ts[i] - ts[i - 1], ts[i + 1] - ts[i]
        d2 = 2.0 * (h1 * Vs[i + 1] - (h1 + h2) * Vs[i] + h2 * Vs[i - 1]) / (h1 * h2 * (h1 + h2))
        rhs = 8.0 * a * e0i - 4.0 * (a - 2.0) * gnorms[i] ** 2
        devs.append(abs(d2 - rhs) / abs(rhs))
    details["intercritical"] = {"max_pointwise_dev": float(np.max(devs)),
                                "median_pointwise_dev": float(np.median(devs))}
    return details, [Gate("mass_critical.curvature_dev", curvature_dev, "<", 0.01),
                     Gate("mass_critical.fit_residual", rel_resid, "<", 1e-3),
                     Gate("intercritical.max_pointwise_dev", float(np.max(devs)), "<", 0.02)]


@_experiment("s_family_tracking")
def s_family_tracking(seed):
    """Criterion 7 (+10): minimal-mass family tracking and profile convergence."""
    gs = ground_state("quintic_tracking")
    traj = trajectory("s_family_quintic")
    fam = family(resolve_config("evolve", TRAJECTORIES["s_family_quintic"]))
    m_q = fn.mass(gs.profile)

    snaps = traj.snapshots()
    final = snaps[-1]
    mass_devs = []
    for snap, exact in zip(snaps, s_profiles(fam, gs, [s.time for s in snaps])):
        mass_devs.append(abs(fn.mass(exact) - m_q) / m_q)
        if snap is final:
            diff = final.snapshot.with_values(final.snapshot.values - exact.values)
            err_stop = math.sqrt(fn.mass(diff) / m_q)
    del exact, diff                     # not held through the rescaled profiles

    fit = estimate_blowup_time(traj, gs.params.s_c)

    resc = [(s.time, rescaled_profile(s.snapshot, gs).err) for s in snaps]
    errs = np.array([e for _, e in resc])
    drops = np.all(errs[1:] <= errs[:-1] * 1.05)

    details = {
        "err_at_stop": err_stop,
        "T_hat": fit.T_hat,
        "T_hat_dev": abs(fit.T_hat - fam.T),
        "exponent": fit.exponent,
        "max_family_mass_dev": float(np.max(mass_devs)),
        "rescaled_err_final": float(errs[-1]),
        "rescaled_err_monotone_5pct": bool(drops),
        "termination": traj.termination,
        "rescaled_series": [(round(t, 4), float(e)) for t, e in resc],
    }
    return details, [
        Gate("err_at_stop", err_stop, "<", 1e-2),
        Gate("T_hat_dev", abs(fit.T_hat - fam.T), "<", 0.01),
        Gate("exponent_dev", abs(fit.exponent + 1.0), "<", 0.10),
        Gate("max_family_mass_dev", float(np.max(mass_devs)), "<", 1e-6),
        Gate("termination", traj.termination, "is", "resolution_limit"),
        Gate("rescaled_err_final", float(errs[-1]), "<", 5e-2),
        Gate("rescaled_err_monotone_5pct", bool(drops), "is", True),
    ]


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
    products = [r.radius * math.sqrt(s.grad_norm_sq)
                for r, s in zip(series, traj.snapshots())]
    details = {
        "final_fraction_of_Qmass": float(values[-1] / m_q),
        "eventually_nondecreasing": bool(eventually_up),
        "window_grad_product_increasing": bool(products[-1] > products[0]),
        "T_hat": fit.T_hat,
        "exponent": fit.exponent,
        "series": [(round(r.time, 4), float(r.value)) for r in series],
    }
    return details, [Gate("final_window_mass", float(values[-1]), ">=", 0.9 * m_q)] + [
        Gate(key, details[key], "is", bound) for key, bound in
        (("eventually_nondecreasing", True), ("window_grad_product_increasing", None))]


@_experiment("rate_bound")
def rate_bound(seed):
    """Criterion 9: lower-bound rate exponents across the blow-up matrix."""
    details, gates = {}, []
    for name in TRAJECTORIES:
        traj = trajectory(name)
        s_c = traj.snapshots()[0].snapshot.params.s_c
        fit = estimate_blowup_time(traj, s_c)
        bound = rate_exponent_bound(s_c)
        details[name] = {"exponent": fit.exponent, "bound": bound, "T_hat": fit.T_hat,
                         "resolved_energy_drift": traj.resolved_energy_drift()}
        gates += [Gate(f"{name}.exponent", fit.exponent, "<=", bound),
                  Gate(f"{name}.resolved_energy_drift", details[name]["resolved_energy_drift"],
                       "<", None)]
    return details, gates


@_experiment("sigma_c_concentration", budget_s=300.0)
def sigma_c_concentration(seed):
    """Criterion 11: critical-norm window floors."""
    traj = trajectory("intercritical_radial")
    p = traj.snapshots()[0].snapshot.params
    fit = estimate_blowup_time(traj, p.s_c)
    fint = sigma_c_window_series(traj, "fint")
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
    return details, [Gate("fint_min_over_median", fint_floor, ">=", 0.5),
                     Gate("u1L_min_over_median", u1l_floor, ">=", 0.25)]


@_experiment("inequalities")
def inequality_suite(seed):
    """Criterion 12: inequality suite + decomposition reconstruction, each
    corpus on the parameters of the ground state it is checked against."""
    gs_line = ground_state("line_b")
    gs_radial = ground_state("radial2_intercritical")
    line = gs_line.params, grid_for(gs_line.params, 12.0, 4096)
    radial = gs_radial.params, grid_for(gs_radial.params, 12.0, 2048)

    def reconstruction_worst():
        errors = []
        rng = corpus_rng(seed, "decomposition")
        for i in range(100):
            params, grid = line if i % 2 == 0 else radial
            u = random_bump_field(params, grid, rng)
            dec = decompose(u, rng.uniform(0.5, 8.0), rng.uniform(0.5, 50.0))
            errors.append(dec.reconstruction_error(u))
        return float(np.max(errors))     # a NaN error is the worst

    # the longest first: the pool waits for its slowest worker
    recon_worst, *reports = pooled([
        reconstruction_worst,
        partial(run_banica_report, *line, gs_line.q_mass, CORPUS_TRIALS, seed),
        partial(run_gagliardo_report, *line, gs_line.k_opt, CORPUS_TRIALS, seed),
        partial(run_critical_gn_report, *radial, check_critical_gn(gs_radial.profile),
                CORPUS_TRIALS, seed),
        partial(run_radial_gn_report, *radial, CORPUS_TRIALS, seed),
        partial(run_strauss_report, *radial, CORPUS_TRIALS, seed),
    ])
    by_name = {rep.name: rep for rep in reports}     # back in report order
    reports = [by_name[n] for n in ("gagliardo", "banica", "strauss", "radial_gn", "critical_gn")]
    details = {r.name: r.as_dict() for r in reports}
    details["decomposition_reconstruction_max"] = recon_worst
    return details, [Gate("decomposition_reconstruction_max", recon_worst, "<", 1e-10)] + [
        g for r in reports for g in (
            Gate(f"{r.name}.max_violation", r.max_violation, "<=", VIOLATION_TOL),
            Gate(f"{r.name}.trials", float(r.trials), ">=", 100.0))]


def reproduce(name: str, seed: int = DEFAULT_SEED) -> ExperimentReport:
    """Run a registered experiment by name."""
    if name not in REGISTRY:
        raise ValidationError(
            f"unknown experiment {name!r}; registered: {', '.join(sorted(REGISTRY))}"
        )
    return REGISTRY[name](seed=seed)


__all__ = ["ExperimentReport", "Gate", "REGISTRY", "reproduce"] + [run.__name__ for run in REGISTRY.values()]
