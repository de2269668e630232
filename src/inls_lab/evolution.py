"""Time integration of the equation by Strang splitting.

The potential flow  u -> u * exp(i dt |x|^-b |u|^(2 sigma))  is exact because
the modulus is invariant; the linear flow is the exact spectral propagator on
the line and a Crank-Nicolson (Cayley) step radially.  Both linear steps are
unitary in the grid inner product, and the potential step is pointwise
unimodular, so mass is conserved to round-off.

Step size follows dt = min(dt0, c_dt / |grad u|^2), the parabolic scaling of
the collapse, and the march stops honestly at t_end or when the gradient
outruns the grid (|grad u| * dx > theta).
"""

from __future__ import annotations

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
    W = u.grid.weight_b
    two_sigma = 2.0 * u.params.sigma
    vals = u.values.astype(complex)
    vals = vals * np.exp(0.5j * state.dt * W * np.abs(vals) ** two_sigma)
    vals = free_flow(u.grid, vals, state.dt)
    vals = vals * np.exp(0.5j * state.dt * W * np.abs(vals) ** two_sigma)
    if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
        raise NumericsError(f"non-finite field after step {state.step_count}")
    return EvolutionState(
        field=u.with_values(vals),
        time=state.time + state.dt,
        dt=state.dt,
        step_count=state.step_count + 1,
    )


def evolve(u0: Field, policy: StepPolicy) -> Trajectory:
    """March u0 under the adaptive policy, recording diagnostics.

    Terminates at policy.t_end or at the resolution limit, whichever comes
    first; the reason lands in Trajectory.termination.  Mass drift beyond
    1e-6 relative is flagged, not raised.
    """
    u0.check_finite("initial data")
    traj = Trajectory(initial_mass=fn.mass(u0))
    state = EvolutionState(field=u0.with_values(u0.values.astype(complex)))
    dx = u0.grid.spacing
    sample_idx = 0
    while True:
        G = fn.grad_norm_sq(state.field)
        if state.step_count % policy.sample_every == 0:
            keep = (
                policy.snapshot_every is not None
                and sample_idx % policy.snapshot_every == 0
            )
            traj.samples.append(_record(state, G, keep))
            sample_idx += 1
        if np.sqrt(G) * dx > policy.theta:
            traj.termination = "resolution_limit"
            break
        if policy.t_end is not None and state.time >= policy.t_end:
            traj.termination = "t_end"
            break
        if state.step_count >= policy.max_steps:
            traj.termination = "max_steps"
            break
        state.dt = min(policy.dt0, policy.c_dt / max(G, 1e-300))
        state = step(state)
    # always include the final state (with a snapshot when any were requested)
    G = fn.grad_norm_sq(state.field)
    final = _record(state, G, policy.snapshot_every is not None)
    if traj.samples and traj.samples[-1].time == final.time:
        traj.samples[-1] = final
    else:
        traj.samples.append(final)
    m_final = traj.samples[-1].mass
    if abs(m_final - traj.initial_mass) > 1e-6 * max(traj.initial_mass, 1e-300):
        traj.mass_drift_flag = True
    return traj


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
