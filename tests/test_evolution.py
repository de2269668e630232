import math

import numpy as np
import pytest

from inls_lab import Field, NumericsError, StepPolicy, ValidationError, evolve, make_params
from inls_lab import core, evolution, experiments
from inls_lab.config import initial_field, resolve_config, step_policy
from inls_lab.core import fold, line_grid, radial_grid
from inls_lab.evolution import LADDER_RUNGS, STRANG, SUZUKI4, step
from inls_lab.exact import standing_wave
from inls_lab.fieldio import trajectory_from_csv, trajectory_to_csv
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

# geometry -> (params, grid, collapsing amplitude, theta, tilt t of the field
# amp * exp(-x^2/2) * (1 + t tanh x)); the even "line" Gaussian marches on the
# half grid, its tilted twin on the full line
GEOMETRIES = {
    "line": lambda: (make_params(1, 2.0, 0.0), line_grid(12.0, 1024, 0.0), 2.0, 0.15, 0.0),
    "line_tilted": lambda: (make_params(1, 2.0, 0.0), line_grid(12.0, 1024, 0.0), 2.0, 0.15,
                            0.1),
    "radial": lambda: (make_params(2, 1.0, 0.5), radial_grid(2, 12.0, 1024, 0.5), 1.9, 0.2, 0.0),
}


def gaussian(geometry, amplitude=None):
    """A fresh grid (empty propagator cache) and a Gaussian on it; the default
    amplitude collapses to the resolution limit within a few hundred steps."""
    params, grid, amp, theta, tilt = GEOMETRIES[geometry]()
    amp = amplitude if amplitude is not None else amp
    x = grid.nodes
    return Field((amp * np.exp(-x ** 2 / 2) * (1 + tilt * np.tanh(x))).astype(complex),
                 grid, params), theta


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
    """Each sample's G is its own field's, taken on the grid it marched on
    (the half grid for the even "line" Gaussian), and the full line's to 1e-13."""
    u0, theta = gaussian(geometry)
    traj = evolve(u0, StepPolicy(dt0=5e-4, c_dt=5e-3, theta=theta, t_end=5.0,
                                 sample_every=5, snapshot_every=1))
    assert (fold(u0).grid.geometry == "half_line") == (geometry == "line")
    for s in traj.samples:
        assert s.grad_norm_sq == fn.grad_norm_sq(fold(s.snapshot))
        assert s.grad_norm_sq == pytest.approx(fn.grad_norm_sq(s.snapshot), rel=1e-13)
    assert math.sqrt(traj.samples[-1].grad_norm_sq) * u0.grid.spacing > theta


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_samples_record_their_own_energy(geometry):
    u0, theta = gaussian(geometry)
    traj = evolve(u0, StepPolicy(dt0=5e-4, c_dt=5e-3, theta=theta, t_end=5.0,
                                 sample_every=5, snapshot_every=1))
    for s in traj.samples:
        assert s.energy == fn.energy(fold(s.snapshot))
        assert s.energy == pytest.approx(fn.energy(s.snapshot), rel=1e-13)


@pytest.mark.parametrize("geometry, ws", COMPOSITIONS)
def test_propagator_built_once_per_rung(geometry, ws, monkeypatch):
    builds, flows, rungs = [], [], []
    flow, ladder = evolution.free_flow, evolution._ladder_dt

    def counting(build):
        def counting_build(ops, grid, dt):
            builds.append(dt)
            return build(ops, grid, dt)
        return counting_build

    def recording_flow(grid, values, dt, *slots):
        flows.append(dt)
        return flow(grid, values, dt, *slots)

    def recording_ladder(policy, G):
        rungs.append(ladder(policy, G))
        return rungs[-1]

    for kind in (core._Spectral, core._FiniteVolume):
        monkeypatch.setattr(kind, "propagator", counting(kind.propagator))
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


def test_even_march_matches_full_march(monkeypatch):
    """An exactly even line field marches on the half grid; the full march of
    the same field takes the same rungs and sample times and agrees to 1e-13."""
    monkeypatch.setattr(evolution, "MAX_STEPS", 40)
    grids, flow = [], evolution.free_flow

    def recording_flow(grid, *args):
        grids.append(grid)
        return flow(grid, *args)

    monkeypatch.setattr(evolution, "free_flow", recording_flow)
    u0, theta = gaussian("line", amplitude=3.0)      # walks 12 rungs in 40 steps
    policy = StepPolicy(dt0=5e-4, c_dt=5e-3, theta=theta, t_end=5.0, sample_every=3,
                        snapshot_every=1)
    even = evolve(u0, policy)
    assert grids and all(g.geometry == "half_line" and g.full is u0.grid for g in grids)
    assert all(g is grids[0] for g in grids)     # one half, one propagator cache, per march
    grids.clear()
    full = evolution.Trajectory()
    evolution._march(u0, policy, full)          # the march of u0 as given: the full line
    assert grids and all(g is u0.grid for g in grids)
    assert even.termination == full.termination == "max_steps"
    assert [(s.time, s.dt) for s in even.samples] == [(s.time, s.dt) for s in full.samples]
    assert len({s.dt for s in full.samples[1:]}) > 10
    for a, b in zip(even.samples, full.samples):
        assert np.array_equal(a.snapshot.values, a.snapshot.values[::-1])
        assert np.max(np.abs(a.snapshot.values - b.snapshot.values)) <= (
            1e-13 * np.max(np.abs(b.snapshot.values)))


@pytest.mark.parametrize("L, n", [(16.0, 4608), (7.3, 4096)])
def test_gaussian_on_a_non_dyadic_line_marches_on_the_half_grid(L, n, monkeypatch):
    """dx = 2L/n is not a power of two, yet exp(-x^2/2) sampled on the line's
    nodes is exactly even, so the march runs on the half grid."""
    params, grid = make_params(1, 2.0, 0.0), line_grid(L, n)
    marched = []
    monkeypatch.setattr(evolution, "_march", lambda v, policy, traj: marched.append(v))
    evolve(Field(np.exp(-grid.nodes ** 2 / 2), grid, params), StepPolicy(t_end=0.01))
    [v] = marched
    assert v.grid.geometry == "half_line" and v.grid.full is grid


def test_even_march_takes_no_full_grid_transform(monkeypatch):
    """An even line march records on the half grid: without snapshots it takes
    no complex FFT, and each kept snapshot is the whole even field on the line.
    The tilted field, which marches on the line, shows that the counter counts."""
    calls, fft = [], core.scipy.fft.fft

    def counting_fft(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(core.scipy.fft, "fft", counting_fft)
    u0, theta = gaussian("line")
    policy = dict(dt0=5e-4, c_dt=5e-3, theta=theta, t_end=5.0, sample_every=5)
    assert len(evolve(u0, StepPolicy(**policy)).samples) > 10
    assert calls == []
    snaps = evolve(u0, StepPolicy(**policy, snapshot_every=3)).snapshots()
    assert len(snaps) > 3 and calls == []
    for s in snaps:
        assert s.snapshot.grid is u0.grid
        assert np.array_equal(s.snapshot.values, s.snapshot.values[::-1])
    evolve(gaussian("line_tilted")[0], StepPolicy(**policy))
    assert calls


@pytest.mark.parametrize("every", [1, 3])
def test_march_takes_the_gradient_sum_only_where_it_reads_G(plain_line, every, monkeypatch):
    """A flow's |grad u|^2 is summed only after a step that no sample follows;
    with a sample on every step that is none, and each sample takes one sum of
    its own state.  Suzuki steps, so a step has five flows."""
    calls, parseval = [], core._Spectral.parseval

    def counting_parseval(ops, grid, spectrum):
        calls.append(grid)
        return parseval(ops, grid, spectrum)

    monkeypatch.setattr(core._Spectral, "parseval", counting_parseval)
    params, grid = plain_line
    u0 = Field(0.3 * np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    traj = evolve(u0, StepPolicy(dt0=0.01, c_dt=1e9, theta=1e9, t_end=0.1,
                                 sample_every=every, weights=SUZUKI4))
    unsampled = sum(1 for k in range(1, 11) if k % every)      # 10 steps
    assert len(traj.samples) == (11 if every == 1 else 5)
    assert len(calls) == len(traj.samples) + unsampled
    assert all(g.geometry == "half_line" and g.full is grid for g in calls)


# -- the kick: cos and sin only where the phase survives rounding ------------

def kick_phases(u: Field, tau: float) -> np.ndarray:
    """The kick's phase theta of each cell, multiplied by tau * weight_b on
    every grid (b = 0 included, where weight_b is all ones)."""
    vals = u.values
    return (vals.real ** 2 + vals.imag ** 2) ** u.params.sigma * (tau * u.grid.weight_b)


def plain_kick(u: Field, tau: float) -> np.ndarray:
    """The potential flow with cos and sin taken on every cell."""
    theta = kick_phases(u, tau)
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    out *= u.values
    return out


def assert_kick_is_plain(u: Field, tau: float) -> None:
    out = evolution._kick(u, tau)
    ref = plain_kick(u, tau)
    assert np.array_equal(out.view(float), ref.view(float), equal_nan=True)


def run_start(run: str, **overrides):
    """An ``experiments.TRAJECTORIES`` row with ``overrides``, resolved, and the
    initial field it builds (on the suite's memoized ground states)."""
    cfg = resolve_config("evolve", {**experiments.TRAJECTORIES[run], **overrides})
    return cfg, initial_field(cfg, experiments.solved)


@pytest.mark.parametrize("run", sorted(experiments.TRAJECTORIES))
def test_kick_is_the_plain_kick_on_each_run(run, monkeypatch):
    """On each acceptance run's initial field, on the grid it marches on, the
    kick equals the cos/sin kick bit for bit at the run's step sizes, forward
    and backward; phases lie on both sides of 2^-27, so the window is proper."""
    cfg, u0 = run_start(run)
    marched = []
    with monkeypatch.context() as m:
        m.setattr(evolution, "_march", lambda v, policy, traj: marched.append(v))
        evolve(u0, step_policy(cfg))
    v = marched[0]
    assert v.grid.geometry == ("radial" if u0.grid.geometry == "radial" else "half_line")
    for tau in (0.5 * cfg["dt0"], cfg["dt0"], -0.3 * cfg["dt0"]):
        phases = np.abs(kick_phases(v, tau))
        assert phases.max() >= 2.0 ** -27 > phases.min()
        assert_kick_is_plain(v, tau)


def test_kick_is_the_plain_kick_across_the_window_edges():
    """Phases that straddle 2^-27 by an ulp or so at both ends of the window,
    the threshold itself included, and a far tail: the kick is bit-identical.
    So it is when the window's end cells hold phases of order 1 between cells
    below 2^-27, where a window one cell short would change bits."""
    params, grid = make_params(1, 1.0, 0.0), line_grid(12.0, 64)
    thr = 2.0 ** -27
    near = thr * (1.0 + np.array([-4, -2, -1, 0, 0, 1, 2, 4]) * 2.0 ** -52)
    targets = np.concatenate((np.full(8, 1e-30), near, np.geomspace(thr, 2.0, 32), near[::-1],
                              np.full(8, 1e-30)))
    rng = np.random.default_rng(5)
    vals = np.sqrt(targets) * np.exp(2j * np.pi * rng.uniform(size=grid.n))
    vals[[12, 51]] = 2.0 ** -14 * (1 + 1j)      # |theta| = 2^-27 exactly at tau = +-1
    u = Field(vals, grid, params)
    for tau in (1.0, -1.0):
        phases = np.abs(kick_phases(u, tau))
        live = np.flatnonzero(phases >= thr)
        assert phases[12] == phases[51] == thr and 8 < live[0] <= 12 and 51 <= live[-1] < 55
        assert thr * (1 - 1e-14) < phases[live[0] - 1] < thr
        assert thr * (1 - 1e-14) < phases[live[-1] + 1] < thr
        assert_kick_is_plain(u, tau)
    spikes = np.where(np.isin(np.arange(grid.n), [8, 30, 55]), 1.0, 1e-6) * (1 + 0.5j)
    assert_kick_is_plain(Field(spikes, grid, params), 1.0)


def test_kick_with_every_phase_below_the_window(plain_line):
    """No phase reaches 2^-27: the window is empty and the kick is u (1 + i theta)."""
    params, grid = plain_line
    u = Field(1e-4 * np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    assert np.abs(kick_phases(u, 1e-2)).max() < 2.0 ** -27
    assert_kick_is_plain(u, 1e-2)


def test_kick_is_the_plain_kick_with_a_singular_weight(mc_line):
    """On a b > 0 line the phase carries the weight |x|^-b; full grid and half."""
    params, grid = mc_line
    u = Field(np.exp(-grid.nodes ** 2 / 2) * np.exp(0.3j * grid.nodes ** 2), grid, params)
    half = Field(u.values[grid.n // 2:], grid.half, params)
    for v in (u, half):
        phases = kick_phases(v, 5e-4)
        assert phases.max() >= 2.0 ** -27 > phases.min()
        assert_kick_is_plain(v, 5e-4)


def test_nan_outside_the_kick_window_is_caught(plain_line):
    """A NaN in the far tail of an even field lies outside the kick's window:
    the kick still carries it, and evolve raises NumericsError."""
    params, grid = plain_line
    vals = np.exp(-grid.nodes ** 2 / 2).astype(complex)
    vals[0] = vals[-1] = np.nan
    half = Field(vals[grid.n // 2:], grid.half, params)
    assert kick_phases(half, 1e-3)[-2] < 2.0 ** -27           # the NaN's neighbour
    assert np.isnan(evolution._kick(half, 1e-3)[-1])
    with pytest.raises(NumericsError):
        evolve(Field(vals, grid, params), StepPolicy(t_end=1.0))


@pytest.mark.parametrize("run", sorted(run for run, row in experiments.TRAJECTORIES.items()
                                        if row["dim"] == 1))
def test_line_runs_start_exactly_even(run):
    """Every line run of the acceptance suite marches on the half grid: its
    initial field is exactly even on an even n.  Builds the initial field only."""
    _, u0 = run_start(run)
    assert u0.grid.geometry == "line" and u0.grid.n % 2 == 0
    assert np.array_equal(u0.values, u0.values[::-1])


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


def test_non_finite_initial_data_carries_empty_trajectory(plain_line):
    params, grid = plain_line
    vals = np.exp(-grid.nodes ** 2 / 2).astype(complex)
    vals[3] = np.nan
    with pytest.raises(NumericsError) as info:
        evolve(Field(vals, grid, params), StepPolicy(t_end=1.0))
    traj = info.value.trajectory
    assert traj.termination == "numerics_error"
    assert traj.samples == []
    assert not traj.mass_drift_flag


def test_first_sample_is_the_initial_data(plain_line):
    params, grid = plain_line
    u0 = Field(0.3 * np.exp(-grid.nodes ** 2 / 2), grid, params)     # real values
    traj = evolve(u0, StepPolicy(dt0=0.01, c_dt=1e9, theta=1e9, t_end=0.05,
                                 sample_every=2, snapshot_every=3))
    first = traj.samples[0]
    assert first.time == 0.0
    g = fold(u0).grid                                # the even Gaussian marches halved
    assert g.geometry == "half_line" and g.full is u0.grid
    assert traj.initial_mass == fn.mass(fold(u0))
    assert traj.initial_mass == pytest.approx(fn.mass(u0), rel=1e-13)
    assert np.array_equal(first.snapshot.values, u0.values)


# Every experiments.TRAJECTORIES run but inls_collapse, whose b > 0 line march
# drifts by 46.9 energy scales (ROADMAP open item 1); it joins once that is mended.
@pytest.mark.parametrize("run", ["s_family_quintic", "quintic_collapse", "intercritical_radial"])
def test_blowup_run_conserves_energy_while_resolved(run):
    """max |E - E0| over the resolved samples (criterion 6's mask: |grad u| at
    most half its final value) stays below 1e-2 energy scales of u0; measured
    1.8e-5, 7.6e-4 and 1.7e-3."""
    assert experiments.trajectory(run).resolved_energy_drift() < 1e-2


def test_resolved_energy_drift_needs_no_snapshot(tmp_path):
    """The first sample holds energy_scale(u0) = G0 - E0, so a run without
    snapshots, and its CSV round trip, report the drift of the same run with
    snapshots."""
    params, grid = make_params(1, 2.0, 0.0), line_grid(12.0, 1024, 0.0)
    u0 = Field(2.0 * np.exp(-grid.nodes ** 2).astype(complex), grid, params)
    policy = dict(dt0=1e-3, c_dt=5e-3, theta=0.5, t_end=1.0)
    bare = evolve(u0, StepPolicy(**policy))
    drift = evolve(u0, StepPolicy(**policy, snapshot_every=1)).resolved_energy_drift()
    assert not bare.snapshots() and drift > 0
    assert bare.samples[0].grad_norm_sq - bare.samples[0].energy == pytest.approx(
        fn.energy_scale(u0), rel=1e-14)
    trajectory_to_csv(bare, tmp_path / "trajectory.csv")
    assert bare.resolved_energy_drift() == drift
    assert trajectory_from_csv(tmp_path / "trajectory.csv").resolved_energy_drift() == drift


def test_resolved_energy_drift_rejects_a_run_that_does_not_concentrate():
    """A quintic Gaussian of amplitude 0.5 disperses: no sample has |grad u| at
    most half its final value, and the error says so."""
    params, grid = make_params(1, 2.0, 0.0), line_grid(20.0, 1024)
    u0 = Field(0.5 * np.exp(-grid.nodes ** 2).astype(complex), grid, params)
    with pytest.raises(ValidationError, match="did not concentrate"):
        evolve(u0, StepPolicy(t_end=0.1)).resolved_energy_drift()


# run -> (t_q, bounds on |dG|/G at dt/2 and at 2n, bounds on |dE|/scale at dt/2
# and at 2n), each at least 10x the value measured (in the comment).  Every
# experiments.TRAJECTORIES run but inls_collapse, whose b > 0 line march moves
# G(0.5) by 34 % at dt/2 and by 103 % at 2n (ROADMAP open item 1); it joins
# once that is mended.
CONVERGENCE = {
    "s_family_quintic": (0.5, 2e-5, 1e-6, 2e-6, 1e-11),      # 1.6e-6 1.5e-12 1.1e-7 1.0e-13
    "quintic_collapse": (0.5, 2e-4, 1e-6, 1e-5, 1e-11),      # 1.3e-5 1.6e-12 5.1e-7 2.6e-13
    "intercritical_radial": (0.1, 5e-4, 3e-4, 5e-5, 2e-5),   # 3.6e-5 2.2e-5 4.2e-6 1.2e-6
}


@pytest.mark.parametrize("run", sorted(CONVERGENCE))
def test_run_is_converged_in_dt_and_n(run):
    """G and E at t_q of a run, marched to t_end = t_q, move by less than the
    run's bounds when the row's dt0 and c_dt are halved, and when its n is
    doubled (on the ground state solved again on 2n cells).  The energy moves
    are taken over the energy scale G - E of the state at t_q."""
    t_q, *bounds = CONVERGENCE[run]
    row = experiments.TRAJECTORIES[run]
    variants = ({}, {"dt0": row["dt0"] / 2, "c_dt": row["c_dt"] / 2}, {"n": 2 * row["n"]})
    finals = []
    for overrides in variants:
        cfg, u0 = run_start(run, t_end=t_q, **overrides)
        traj = evolve(u0, step_policy(cfg))
        assert traj.termination == "t_end" and traj.times()[-1] == t_q
        finals.append(traj.samples[-1])
    base = finals[0]
    scale = base.grad_norm_sq - base.energy
    moves = [abs(s.grad_norm_sq - base.grad_norm_sq) / base.grad_norm_sq for s in finals[1:]]
    moves += [abs(s.energy - base.energy) / scale for s in finals[1:]]
    assert all(move < bound for move, bound in zip(moves, bounds)), (moves, bounds)
