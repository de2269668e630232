import math

import numpy as np
import pytest

from inls_lab import Field, NumericsError, StepPolicy, ValidationError, evolve, make_params
from inls_lab import core, evolution
from inls_lab.core import line_grid, radial_grid
from inls_lab.evolution import LADDER_RUNGS, STRANG, SUZUKI4, step
from inls_lab.exact import standing_wave
from inls_lab import functionals as fn


def test_zero_field_is_fixed_point(plain_line):
    params, grid = plain_line
    out = step(Field(np.zeros(grid.n, dtype=complex), grid, params), 1e-3)
    assert np.all(out.values == 0)


def test_constant_field_pure_phase_rotation(plain_line):
    # b = 0: the potential phase is spatially constant, the Laplacian vanishes
    params, grid = plain_line
    c = 0.7 + 0.1j
    out = step(Field(np.full(grid.n, c), grid, params), 1e-3)
    expected = c * np.exp(1j * 1e-3 * abs(c) ** (2 * params.sigma))
    assert np.max(np.abs(out.values - expected)) < 1e-13


def test_nan_detection(plain_line):
    params, grid = plain_line
    vals = np.ones(grid.n, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(NumericsError):
        step(Field(vals, grid, params), 1e-3)


def test_step_requires_positive_dt(plain_line):
    params, grid = plain_line
    for dt in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            step(Field(np.ones(grid.n, dtype=complex), grid, params), dt)


def test_standing_wave_short_run(quintic_gs):
    u0 = standing_wave(quintic_gs, 0.0)
    traj = evolve(u0, StepPolicy(dt0=1e-3, c_dt=1e9, theta=1e9, t_end=0.1, sample_every=20))
    final = traj.samples[-1]
    ref = standing_wave(quintic_gs, final.time)
    diff = final.snapshot if final.snapshot else None
    assert traj.termination == "t_end"
    assert abs(final.mass - traj.initial_mass) / traj.initial_mass < 1e-10
    g0 = fn.grad_norm_sq(u0)
    assert final.grad_norm_sq == pytest.approx(g0, rel=1e-4)


def test_free_gaussian_width_law(plain_line):
    # amplitude 1e-6 turns the nonlinearity off; the density variance obeys
    # sigma^2(t) = sigma^2(0) (1 + t^2 / sigma^4(0))
    params, grid = plain_line
    u0 = Field(1e-6 * np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    s0 = fn.variance(u0) / fn.mass(u0)
    traj = evolve(u0, StepPolicy(dt0=5e-4, c_dt=1e9, theta=1e9, t_end=1.0, sample_every=100))
    final = traj.samples[-1]
    s_t = final.variance / final.mass
    predicted = s0 * (1 + final.time ** 2 / s0 ** 2)
    assert s_t == pytest.approx(predicted, rel=1e-4)


def test_subthreshold_runs_to_t_end(quintic_gs):
    u0 = quintic_gs.profile.with_values(0.5 * quintic_gs.profile.values.astype(complex))
    traj = evolve(u0, StepPolicy(dt0=1e-3, c_dt=5e-3, theta=0.5, t_end=0.5, sample_every=20))
    assert traj.termination == "t_end"
    gnorms = traj.grad_norms()
    assert gnorms.max() < 4 * gnorms[0]     # global regime: no collapse
    assert not traj.mass_drift_flag


def test_mass_drift_is_flagged(plain_line, leaky_flow):
    params, grid = plain_line
    u0 = Field(0.3 * np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    traj = evolve(u0, StepPolicy(dt0=0.01, c_dt=1e9, theta=1e9, t_end=0.1))
    assert traj.termination == "t_end"
    assert traj.mass_drift_flag


def test_supercritical_hits_resolution_limit(quintic_gs):
    u0 = quintic_gs.profile.with_values(1.05 * quintic_gs.profile.values.astype(complex))
    traj = evolve(u0, StepPolicy(dt0=5e-4, c_dt=5e-3, theta=0.15, t_end=10.0, sample_every=10))
    assert traj.termination == "resolution_limit"
    gnorms = traj.grad_norms()
    # gradient growth is monotone over the final stretch of the collapse
    tail = gnorms[-10:]
    assert np.all(np.diff(tail) > -1e-9)
    assert gnorms[-1] * u0.grid.spacing > 0.15


def test_adaptive_dt_follows_gradient(quintic_gs):
    u0 = quintic_gs.profile.with_values(1.05 * quintic_gs.profile.values.astype(complex))
    policy = StepPolicy(dt0=5e-4, c_dt=5e-3, theta=0.15, t_end=10.0, sample_every=10)
    traj = evolve(u0, policy)
    for s in traj.samples[2:]:
        if s.dt > 0:
            assert s.dt <= policy.dt0 + 1e-15


def test_singular_weight_standing_wave_regression(line_b_gs):
    """With b > 0 the splitting keeps mass exact but loses its formal order
    at the singular origin cells; this pins the honestly measured level."""
    u0 = standing_wave(line_b_gs, 0.0)
    traj = evolve(u0, StepPolicy(dt0=1e-4, c_dt=1e9, theta=1e9, t_end=0.1,
                                 sample_every=500, snapshot_every=10 ** 6))
    final = traj.samples[-1]
    assert abs(final.mass - traj.initial_mass) / traj.initial_mass < 1e-10
    ref = standing_wave(line_b_gs, final.time)
    diff = final.snapshot.with_values(final.snapshot.values - ref.values)
    rel = math.sqrt(fn.mass(diff) / traj.initial_mass)
    assert rel < 1e-2          # measured ~3e-3 at n=8192, dt=1e-4, t=0.1
    # the radiated defect carries O(1) gradient energy; only mass survives
    # as a clean invariant here (see b=0 runs for the clean-order gates)


def test_trajectory_times_strictly_increasing(quintic_gs):
    u0 = standing_wave(quintic_gs, 0.0)
    traj = evolve(u0, StepPolicy(dt0=1e-3, c_dt=1e9, theta=1e9, t_end=0.05, sample_every=7))
    ts = traj.times()
    assert np.all(np.diff(ts) > 0)


def test_policy_validation():
    with pytest.raises(ValidationError):
        StepPolicy(dt0=-1e-3)
    with pytest.raises(ValidationError):
        StepPolicy(theta=1e9, t_end=None)
    with pytest.raises(ValidationError):
        StepPolicy(theta=1e9, t_end=math.inf)
    with pytest.raises(ValidationError):
        StepPolicy(t_end=1.0, sample_every=0)
    with pytest.raises(ValidationError):
        StepPolicy(t_end=1.0, snapshot_every=0)
    # weights that do not sum to 1 would march sum(w) * dt while t advances by dt
    for weights in ((), (0.5, math.nan, 0.5), (1.0, math.inf), (0.5, 0.5 + 1e-11), (2.0,)):
        with pytest.raises(ValidationError):
            StepPolicy(t_end=1.0, weights=weights)


def test_snapshots_recorded_on_cadence(quintic_gs):
    u0 = standing_wave(quintic_gs, 0.0)
    traj = evolve(
        u0, StepPolicy(dt0=1e-3, c_dt=1e9, theta=1e9, t_end=0.05,
                       sample_every=10, snapshot_every=2)
    )
    snaps = traj.snapshots()
    assert len(snaps) >= 2
    assert snaps[-1].time == traj.samples[-1].time   # final state always kept


def test_suzuki_composition_is_fourth_order(quintic_gs):
    """SUZUKI4 against the discrete standing wave at t = 0.5 over dt halvings."""
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = evolve(standing_wave(quintic_gs, 0.0),
                      StepPolicy(dt0=dt, c_dt=1e9, theta=1e9, t_end=0.5, sample_every=1000,
                                 snapshot_every=1, weights=SUZUKI4))
        u, ref = traj.samples[-1].snapshot, standing_wave(quintic_gs, 0.5)
        errs.append(math.sqrt(fn.mass(u.with_values(u.values - ref.values)) / fn.mass(ref)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(3.6 <= o <= 4.4 for o in orders), (errs, orders)


# -- the fused (FSAL) march --------------------------------------------------

GEOMETRIES = {
    "line": lambda: (make_params(1, 2.0, 0.0), line_grid(12.0, 1024, 0.0), 2.0, 0.15),
    "radial": lambda: (make_params(2, 1.0, 0.5), radial_grid(2, 12.0, 1024, 0.5), 1.9, 0.2),
}


def gaussian(geometry, amplitude=None):
    """A fresh grid (empty propagator cache) and a Gaussian on it; the default
    amplitude collapses to the resolution limit within a few hundred steps."""
    params, grid, amp, theta = GEOMETRIES[geometry]()
    amp = amplitude if amplitude is not None else amp
    return Field(amp * np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params), theta


def is_rung(dt, dt0):
    j = round(LADDER_RUNGS * math.log2(dt0 / dt))
    return j >= 0 and dt == dt0 * 2.0 ** (-j / LADDER_RUNGS)


# each geometry with Strang (ids "line", "radial") and with SUZUKI4
COMPOSITIONS = [pytest.param(geometry, weights, id=geometry + suffix)
                for geometry in sorted(GEOMETRIES)
                for weights, suffix in ((STRANG, ""), (SUZUKI4, "-suzuki4"))]


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_step_reversed_by_negative_dt(geometry):
    """step(step(u, h), -h) is u: the symmetry that lets a composition of the
    Strang map, negative substeps included, raise its order."""
    u, _ = gaussian(geometry)
    back = step(step(u, 1e-3), -1e-3)
    assert np.max(np.abs(back.values - u.values)) <= 1e-13 * np.max(np.abs(u.values))


@pytest.mark.parametrize("geometry, ws", COMPOSITIONS)
def test_fused_march_matches_repeated_steps(geometry, ws):
    u0, _ = gaussian(geometry, amplitude=1.0)
    dt = 1e-3
    traj = evolve(u0, StepPolicy(dt0=dt, c_dt=1e9, theta=1e9, t_end=40 * dt,
                                 sample_every=7, snapshot_every=1, weights=ws))
    assert all(s.dt == dt for s in traj.samples[1:])      # constant dt stays dt0
    u, steps = u0, 0
    for s in traj.samples:
        while steps < round(s.time / dt):
            for w in ws:
                u = step(u, w * dt)
            steps += 1
        assert s.time == pytest.approx(steps * dt, rel=1e-12)
        assert np.max(np.abs(s.snapshot.values - u.values)) <= 1e-13 * np.max(np.abs(u.values))
    assert steps == 40


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_every_dt_is_a_rung_below_the_ceiling(geometry):
    u0, theta = gaussian(geometry)
    policy = StepPolicy(dt0=5e-4, c_dt=5e-3, theta=theta, t_end=5.0, sample_every=1)
    traj = evolve(u0, policy)
    assert traj.termination == "resolution_limit"
    for prev, s in zip(traj.samples, traj.samples[1:]):
        assert is_rung(s.dt, policy.dt0)
        assert s.dt <= min(policy.dt0, policy.c_dt / prev.grad_norm_sq)
    assert len({s.dt for s in traj.samples[1:]}) > 10       # the collapse walks the ladder


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_samples_record_their_own_gradient(geometry):
    u0, theta = gaussian(geometry)
    traj = evolve(u0, StepPolicy(dt0=5e-4, c_dt=5e-3, theta=theta, t_end=5.0,
                                 sample_every=5, snapshot_every=1))
    for s in traj.samples:
        assert s.grad_norm_sq == fn.grad_norm_sq(s.snapshot)
    assert math.sqrt(traj.samples[-1].grad_norm_sq) * u0.grid.spacing > theta


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_samples_record_their_own_energy(geometry):
    u0, theta = gaussian(geometry)
    traj = evolve(u0, StepPolicy(dt0=5e-4, c_dt=5e-3, theta=theta, t_end=5.0,
                                 sample_every=5, snapshot_every=1))
    for s in traj.samples:
        assert s.energy == fn.energy(s.snapshot)


@pytest.mark.parametrize("geometry, ws", COMPOSITIONS)
def test_propagator_built_once_per_rung(geometry, ws, monkeypatch):
    builds, flows, rungs = [], [], []
    build, flow, ladder = core._build_propagator, evolution.free_flow, evolution._ladder_dt

    def counting_build(grid, dt):
        builds.append(dt)
        return build(grid, dt)

    def recording_flow(grid, values, dt, *slots):
        flows.append(dt)
        return flow(grid, values, dt, *slots)

    def recording_ladder(policy, G):
        rungs.append(ladder(policy, G))
        return rungs[-1]

    monkeypatch.setattr(core, "_build_propagator", counting_build)
    monkeypatch.setattr(evolution, "free_flow", recording_flow)
    monkeypatch.setattr(evolution, "_ladder_dt", recording_ladder)
    u0, theta = gaussian(geometry)
    policy = StepPolicy(dt0=5e-4, c_dt=5e-3, theta=theta, t_end=5.0, sample_every=10,
                        weights=ws)
    assert evolve(u0, policy).termination == "resolution_limit"
    assert all(is_rung(dt, policy.dt0) for dt in rungs)
    assert flows == [w * dt for dt in rungs for w in ws]     # each step: its substeps
    # one build per distinct substep of each rung, rungs in order, and no more
    assert builds == [h for dt in sorted(set(rungs), reverse=True)
                      for h in dict.fromkeys(w * dt for w in ws)]
    assert len(flows) > 5 * len(builds)


def test_t_end_run_ends_on_t_end(plain_line):
    params, grid = plain_line
    u0 = Field(0.3 * np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    # ten steps of 0.1 sum to 0.9999999999999999: no sliver step follows
    traj = evolve(u0, StepPolicy(dt0=0.1, c_dt=1e9, theta=1e9, t_end=1.0, sample_every=1))
    assert traj.times()[-1] == 1.0
    assert len(traj.samples) == 11 and all(s.dt == 0.1 for s in traj.samples[1:])
    # t_end off the ladder: the last step is shortened to land on it
    traj = evolve(u0, StepPolicy(dt0=0.1, c_dt=1e9, theta=1e9, t_end=0.95, sample_every=3))
    assert traj.termination == "t_end"
    assert traj.times()[-1] == 0.95
    assert traj.samples[-1].dt == pytest.approx(0.05, rel=1e-12)


def test_step_budget_stops_the_march(plain_line, monkeypatch):
    params, grid = plain_line
    monkeypatch.setattr(evolution, "MAX_STEPS", 7)
    u0 = Field(0.3 * np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    traj = evolve(u0, StepPolicy(dt0=0.01, c_dt=1e9, theta=1e9, t_end=1.0, sample_every=3))
    assert traj.termination == "max_steps"
    assert traj.times()[-1] == pytest.approx(0.07, rel=1e-12)
    assert len(traj.samples) == 4      # steps 0, 3 and 6, and the stop after step 7


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_numerics_error_carries_partial_trajectory(plain_line):
    params, grid = plain_line
    u0 = Field(1e100 * np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    with pytest.raises(NumericsError) as info:
        evolve(u0, StepPolicy(theta=1e300, t_end=1.0))
    traj = info.value.trajectory
    assert traj.termination == "numerics_error"
    assert traj.times().tolist() == [0.0]
