"""Time integration of the equation by Strang splitting.

The potential flow  u -> u * exp(i tau |x|^-b |u|^(2 sigma))  is exact because
the modulus is invariant; the linear flow is the exact spectral propagator on
the line and a Crank-Nicolson (Cayley) step radially.  Both linear steps are
unitary in the grid inner product, and the potential step is pointwise
unimodular, so mass is conserved to round-off.

``step`` is the one-step Strang map: half kick, linear flow, half kick.
``evolve`` marches the same map in FSAL form ("first same as last").  Since
|u| is invariant under the potential flow, the trailing half kick of step n
and the leading half kick of step n+1 merge exactly into one kick of
(dt_n + dt_{n+1})/2, so a step costs one kick and one linear flow.  The owed
half kick is paid only where a full Strang state is needed: at each sample,
at the final state, and before a stop is decided.

Step size: dt = min(dt0, c_dt / G) with G = |grad u|^2 (the parabolic scaling
of the collapse), snapped down to the ladder dt0 * 2^(-j/16) and clamped so
that the last step lands on t_end.  G is measured on the field entering the
linear flow, which both flows preserve: ``free_flow`` reads it off the
spectrum it computes anyway on the line and takes the face-flux quadrature
radially; after a full state is formed it is that state's own G.  On the
ladder dt changes rung only after G grows by 2^(1/16), so the grid's single
cached propagator is rebuilt once per rung, not once per step.  The march
stops at t_end or when the gradient of the full state outruns the grid
(|grad u| * dx > theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Field, free_flow
from .errors import NumericsError, ValidationError
from . import functionals as fn


@dataclass
class StepPolicy:
    dt0: float = 1e-3
    c_dt: float = 5e-3            # dt = min(dt0, c_dt / |grad u|^2)
    t_end: float | None = None
    theta: float = 0.5            # resolution limit: |grad u| * dx > theta
    sample_every: int = 10        # record diagnostics every k steps
    snapshot_every: int | None = None   # keep a field copy every k samples
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.dt0 <= 0 or self.c_dt <= 0 or self.theta <= 0:
            raise ValidationError("dt0, c_dt, theta must all be positive")
        if self.t_end is None and self.theta >= 1e9:
            raise ValidationError("policy needs a finite t_end or a resolution threshold")


@dataclass
class EvolutionState:
    field: Field
    time: float = 0.0
    dt: float = 0.0
    step_count: int = 0


@dataclass
class TrajectorySample:
    time: float
    dt: float
    mass: float
    energy: float
    grad_norm_sq: float
    variance: float
    boundary_frac: float
    snapshot: Field | None = None


@dataclass
class Trajectory:
    samples: list[TrajectorySample] = field(default_factory=list)
    termination: str = ""
    mass_drift_flag: bool = False
    initial_mass: float = 0.0

    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.samples])

    def grad_norms(self) -> np.ndarray:
        return np.sqrt([s.grad_norm_sq for s in self.samples])

    def variances(self) -> np.ndarray:
        return np.array([s.variance for s in self.samples])

    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.samples])

    def snapshots(self) -> list[TrajectorySample]:
        return [s for s in self.samples if s.snapshot is not None]


def step(state: EvolutionState) -> EvolutionState:
    """One Strang step of size state.dt (potential half, linear, potential half)."""
    if not state.dt > 0:
        raise ValidationError(f"state.dt must be positive, got {state.dt}")
    u = state.field
    half = 0.5 * state.dt
    vals, _ = free_flow(u.grid, _kick(u, half), state.dt)
    out = u.with_values(_kick(u.with_values(vals), half))
    out.check_finite(f"step {state.step_count}")
    return EvolutionState(
        field=out,
        time=state.time + state.dt,
        dt=state.dt,
        step_count=state.step_count + 1,
    )


def evolve(u0: Field, policy: StepPolicy) -> Trajectory:
    """March u0 under the adaptive policy, recording diagnostics.

    Terminates at policy.t_end or at the resolution limit, whichever comes
    first; the reason lands in Trajectory.termination.  Mass drift beyond
    1e-6 relative is flagged, not raised.  A ``NumericsError`` raised by the
    march carries the trajectory recorded so far as its ``trajectory``, with
    termination "numerics_error".
    """
    u0.check_finite("initial data")
    traj = Trajectory(initial_mass=fn.mass(u0))
    try:
        _march(u0, policy, traj)
    except NumericsError as exc:
        traj.termination = "numerics_error"
        exc.trajectory = traj
        raise
    m_final = traj.samples[-1].mass
    if abs(m_final - traj.initial_mass) > 1e-6 * max(traj.initial_mass, 1e-300):
        traj.mass_drift_flag = True
    return traj


def _march(u0: Field, policy: StepPolicy, traj: Trajectory) -> None:
    u, G = _full_state(u0.with_values(u0.values.astype(complex)), 0.0)
    owed = 0.0            # half kick the last linear flow left unpaid
    t, dt, steps = 0.0, 0.0, 0
    sample_idx = 0
    while True:
        sample = steps % policy.sample_every == 0
        if sample or _stop_reason(policy, G, t, steps, u.grid.spacing):
            if owed:
                u, G = _full_state(u, owed)
                owed = 0.0
            if sample:
                keep = (
                    policy.snapshot_every is not None
                    and sample_idx % policy.snapshot_every == 0
                )
                traj.samples.append(_record(EvolutionState(u, t, dt, steps), G, keep))
                sample_idx += 1
            traj.termination = _stop_reason(policy, G, t, steps, u.grid.spacing)
            if traj.termination:
                break
        dt = _ladder_dt(policy, G)
        t_next = t + dt
        if policy.t_end is not None and t_next >= policy.t_end - _T_ROUNDOFF * policy.t_end:
            # the last step: land on t_end, shortening the rung only past round-off
            if t_next > policy.t_end + _T_ROUNDOFF * policy.t_end:
                dt = policy.t_end - t
            t_next = policy.t_end
        vals, G = free_flow(u.grid, _kick(u, owed + 0.5 * dt), dt)
        if not np.isfinite(G):
            raise NumericsError(f"non-finite field in step {steps}")
        u = u.with_values(vals)
        owed = 0.5 * dt
        t = t_next
        steps += 1
    # always include the final state (with a snapshot when any were requested)
    final = _record(EvolutionState(u, t, dt, steps), G, policy.snapshot_every is not None)
    if traj.samples and traj.samples[-1].time == final.time:
        traj.samples[-1] = final
    else:
        traj.samples.append(final)


LADDER_RUNGS = 16         # dt ladder rungs per octave
_T_ROUNDOFF = 1e-12       # a gap to t_end below this fraction of it is round-off


def _kick(u: Field, tau: float) -> np.ndarray:
    """Values of u after the potential flow over time tau (exact: |u| is invariant)."""
    vals = u.values
    theta = (vals.real ** 2 + vals.imag ** 2) ** u.params.sigma
    theta *= tau * u.grid.weight_b
    out = np.empty(vals.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    out *= vals
    return out


def _full_state(u: Field, owed: float) -> tuple[Field, float]:
    """u with its owed half kick paid, and its own |grad u|^2."""
    if owed:
        u = u.with_values(_kick(u, owed))
    G = fn.grad_norm_sq(u)
    if not np.isfinite(G):
        raise NumericsError("non-finite field in the evolution")
    return u, G


def _ladder_dt(policy: StepPolicy, G: float) -> float:
    """The largest rung dt0 * 2^(-j/16) that does not exceed min(dt0, c_dt / G)."""
    cap = policy.c_dt / max(G, 1e-300)
    j = 0 if cap >= policy.dt0 else math.ceil(LADDER_RUNGS * math.log2(policy.dt0 / cap))
    dt = policy.dt0 * 2.0 ** (-j / LADDER_RUNGS)
    while dt > cap:       # log2 rounded down across a rung
        j += 1
        dt = policy.dt0 * 2.0 ** (-j / LADDER_RUNGS)
    return dt


def _stop_reason(policy: StepPolicy, G: float, t: float, steps: int, dx: float) -> str:
    if math.sqrt(G) * dx > policy.theta:
        return "resolution_limit"
    if policy.t_end is not None and t >= policy.t_end:
        return "t_end"
    if steps >= policy.max_steps:
        return "max_steps"
    return ""


def _record(state: EvolutionState, G: float, keep_snapshot: bool) -> TrajectorySample:
    u = state.field
    return TrajectorySample(
        time=state.time,
        dt=state.dt,
        mass=fn.mass(u),
        energy=fn.energy(u),
        grad_norm_sq=G,
        variance=fn.variance(u),
        boundary_frac=fn.boundary_mass_fraction(u),
        snapshot=u.copy() if keep_snapshot else None,
    )


__all__ = [
    "StepPolicy", "EvolutionState", "TrajectorySample", "Trajectory",
    "step", "evolve",
]
