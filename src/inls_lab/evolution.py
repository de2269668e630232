"""Time integration of the equation by compositions of one Strang map.

The potential flow  u -> u * exp(i tau |x|^-b |u|^(2 sigma))  is exact because
the modulus is invariant; the linear flow is the exact spectral propagator on
the line and a Crank-Nicolson (Cayley) step radially.  Both linear steps are
unitary in the grid inner product, and the potential step is pointwise
unimodular, so mass is conserved to round-off.

``step(u, dt)`` is the one-step Strang map: half kick, linear flow, half
kick; it returns the new field, and a caller that needs the time or the step
count keeps it.  Any finite nonzero dt is a step: both flows run backward as
exactly as forward, so ``step(step(u, h), -h)`` is u to round-off.  That
symmetry is what lets a composition raise the order.

``evolve`` marches a composition of the same map: one step of size dt runs
the Strang substeps w_1 dt, ..., w_s dt of ``StepPolicy.weights``.
``STRANG = (1.0,)`` is the second-order map itself; ``SUZUKI4`` is Suzuki's
symmetric 5-stage rule (p, p, 1 - 4p, p, p) with p = 1/(4 - 4^(1/3)), which is
fourth order (Suzuki, Phys. Lett. A 146, 1990); its middle substep is
negative.  The march is in FSAL form ("first same as last") across substeps
and steps alike.  Since |u| is invariant under the potential flow, the
trailing half kick of one substep and the leading half kick of the next merge
exactly into one kick of (h_i + h_(i+1))/2, so a step costs s kicks and s
linear flows.  The owed half kick is paid only where a full state is needed:
at each sample, at the final state, and before a stop is decided.  Each of
those states is recorded on one path, inside the loop: a sample every
``sample_every`` steps and the terminal state, once, with a snapshot whenever
any are requested.  ``TrajectorySample.dt`` is the whole step that led to the
sample, not a substep.

Step size: dt = min(dt0, c_dt / G) with G = |grad u|^2 (the parabolic scaling
of the collapse), snapped down to the ladder dt0 * 2^(-j/16) and clamped so
that the last step lands on t_end.  G is measured on the field entering the
last linear flow, which both flows preserve: ``free_flow`` reads it off the
spectrum it computes anyway on the line and takes the face-flux quadrature
radially; the march takes that sum only after a step that no sample follows,
and a state formed for a sample or a stop has its own G.  On the ladder dt
changes rung only after G grows by 2^(1/16), and the grid caches one
propagator per distinct substep of the current rung, so each is built once per
rung, not once per step.  The march stops at t_end or when the gradient of the
full state outruns the grid (|grad u| * dx > theta).

An exactly even line field on an even n is a cosine series, which both flows
keep even: ``evolve`` marches its ``core.fold`` (the n/2 cells x > 0 of the
half grid), takes each record there as the whole even field's quadratures,
and unfolds only the kept snapshots back to the line.  Other fields, which
``fold`` leaves as they are, and ``step`` run on the full grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Field, fold, free_flow, unfold
from .errors import NumericsError, ValidationError
from . import functionals as fn


STRANG = (1.0,)
_SUZUKI_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
SUZUKI4 = (_SUZUKI_P, _SUZUKI_P, 1.0 - 4.0 * _SUZUKI_P, _SUZUKI_P, _SUZUKI_P)


@dataclass
class StepPolicy:
    dt0: float = 1e-3
    c_dt: float = 5e-3            # dt = min(dt0, c_dt / |grad u|^2)
    t_end: float | None = None
    theta: float = 0.5            # resolution limit: |grad u| * dx > theta
    sample_every: int = 10        # record diagnostics every k steps
    snapshot_every: int | None = None   # keep a field copy every k samples
    weights: tuple[float, ...] = STRANG  # Strang substeps w * dt of one step

    def __post_init__(self):
        if not (self.weights and all(math.isfinite(w) for w in self.weights)
                and abs(math.fsum(self.weights) - 1.0) <= 1e-12):
            raise ValidationError(
                f"weights must be finite and sum to 1, got {self.weights}")
        if not 0 < self.dt0 < math.inf:
            raise ValidationError(f"dt0 must be finite and positive, got {self.dt0}")
        if not (self.c_dt > 0 and self.theta > 0):
            raise ValidationError(
                f"c_dt and theta must be positive, got {self.c_dt}, {self.theta}")
        if self.t_end is not None and not 0 < self.t_end < math.inf:
            raise ValidationError(f"t_end must be finite and positive, got {self.t_end}")
        if self.sample_every < 1 or (self.snapshot_every is not None and self.snapshot_every < 1):
            raise ValidationError("sample_every and snapshot_every must be at least 1")
        if self.t_end is None and self.theta >= 1e9:
            raise ValidationError("policy needs a finite t_end or a resolution threshold")


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
    """One run's samples, its whole record, and why it stopped."""
    samples: list[TrajectorySample] = field(default_factory=list)
    termination: str = ""

    @property
    def initial_mass(self) -> float:
        return self.samples[0].mass

    @property
    def mass_drift_flag(self) -> bool:
        """The last sample's mass is off the first's by more than 1e-6 relative."""
        if not self.samples:
            return False
        m0 = self.initial_mass
        return abs(self.samples[-1].mass - m0) > 1e-6 * max(m0, 1e-300)

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

    def resolved(self) -> np.ndarray:
        """Mask of the resolved samples: |grad u| at most half its final value."""
        g = self.grad_norms()
        return g <= g[-1] / 2.0

    def resolved_energy_drift(self) -> float:
        """max |E - E0| / energy_scale(u0) over the ``resolved`` samples; the first
        sample holds energy_scale(u0) = G0 - E0, as E = G/2 - P/(2 sigma + 2).
        Raises ValidationError when no sample qualifies: a run that did not concentrate."""
        e, resolved = self.energies(), self.resolved()
        if not resolved.any():
            raise ValidationError("resolved_energy_drift needs a sample with |grad u| at most "
                                  "half its final value: the run did not concentrate")
        scale = self.samples[0].grad_norm_sq - e[0]
        return float(np.max(np.abs(e[resolved] - e[0])) / scale)


def step(u: Field, dt: float) -> Field:
    """u after one Strang step of size dt (potential half, linear, potential half).

    A negative dt is the exact backward step.
    """
    if not (dt != 0 and math.isfinite(dt)):
        raise ValidationError(f"dt must be finite and nonzero, got {dt}")
    vals, _ = free_flow(u.grid, _kick(u, 0.5 * dt), dt)
    return _full_state(u.with_values(vals), 0.5 * dt)[0]


def evolve(u0: Field, policy: StepPolicy) -> Trajectory:
    """March u0 under the adaptive policy, recording diagnostics.

    The first sample is u0, before any step.  Terminates at
    policy.t_end, at the resolution limit or after MAX_STEPS steps, whichever
    comes first; the reason lands in Trajectory.termination.  Mass drift
    beyond 1e-6 relative is flagged, not raised.  Every ``NumericsError`` it
    raises, non-finite initial data included, carries the trajectory recorded
    so far as its ``trajectory``, with termination "numerics_error".
    """
    traj = Trajectory()
    try:
        _march(fold(u0.with_values(u0.values.astype(complex))), policy, traj)
    except NumericsError as exc:
        traj.termination = "numerics_error"
        exc.trajectory = traj
        raise
    return traj


def _march(v: Field, policy: StepPolicy, traj: Trajectory) -> None:
    owed = 0.0            # half kick the last linear flow left unpaid
    slots = len(set(policy.weights))    # distinct substeps: propagators per rung
    t, dt, steps = 0.0, 0.0, 0
    while True:
        sample = steps % policy.sample_every == 0
        if not sample:
            G = flowed_grad_sq()        # of the field entering the last linear flow
        if sample or _stop_reason(policy, G, t, steps, v.grid.spacing):
            v, G = _full_state(v, owed)
            owed = 0.0
            traj.termination = _stop_reason(policy, G, t, steps, v.grid.spacing)
            if sample or traj.termination:
                # the first and final states keep a snapshot when any are requested
                keep = policy.snapshot_every is not None and (
                    bool(traj.termination) or len(traj.samples) % policy.snapshot_every == 0)
                traj.samples.append(_record(v, t, dt, G, keep))
            if traj.termination:
                return
        dt = _ladder_dt(policy, G)
        t_next = t + dt
        if policy.t_end is not None and t_next >= policy.t_end - _T_ROUNDOFF * policy.t_end:
            # the last step: land on t_end, shortening the rung only past round-off
            if t_next > policy.t_end + _T_ROUNDOFF * policy.t_end:
                dt = policy.t_end - t
            t_next = policy.t_end
        for w in policy.weights:
            h = w * dt
            vals, flowed_grad_sq = free_flow(v.grid, _kick(v, owed + 0.5 * h), h, slots)
            if not np.isfinite(vals.sum()):      # NaN or inf if any value is
                raise NumericsError(f"non-finite field in step {steps}")
            v = v.with_values(vals)
            owed = 0.5 * h
        t = t_next
        steps += 1


LADDER_RUNGS = 16         # dt ladder rungs per octave
MAX_STEPS = 2_000_000     # a march stops with "max_steps" after this many steps
_T_ROUNDOFF = 1e-12       # a gap to t_end below this fraction of it is round-off


def _kick(u: Field, tau: float) -> np.ndarray:
    """Values of u after the potential flow over time tau (exact: |u| is invariant);
    cos and sin are taken only on the index window of the phases |theta| >= 2^-27,
    outside which they round to exactly 1 and theta."""
    vals = u.values
    theta = (vals.real ** 2 + vals.imag ** 2) ** u.params.sigma
    theta *= tau * u.grid.weight_b if u.grid.b else tau
    out = np.empty(vals.shape, dtype=complex)
    out.real, out.imag = 1.0, theta
    live = np.flatnonzero(np.abs(theta) >= 2.0 ** -27)
    if live.size:
        window = slice(live[0], live[-1] + 1)
        np.cos(theta[window], out=out.real[window])
        np.sin(theta[window], out=out.imag[window])
    out *= vals
    return out


def _full_state(v: Field, owed: float) -> tuple[Field, float]:
    """v with its owed half kick paid, and its |grad u|^2 (on a half grid, the
    whole even field's)."""
    if owed:
        v = v.with_values(_kick(v, owed))
    G = fn.grad_norm_sq(v)
    if not np.isfinite(G):
        raise NumericsError("non-finite field in the evolution")
    return v, G


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
    if steps >= MAX_STEPS:
        return "max_steps"
    return ""


def _record(u: Field, t: float, dt: float, G: float, keep_snapshot: bool) -> TrajectorySample:
    """The sample of state u at time t; G is its own |grad u|^2.  On a half grid
    it is the whole even field's, and a kept snapshot is unfolded onto the line.
    A full-grid snapshot is u itself, not a copy: the march never writes a
    state in place (every kick, flow and paid half kick returns a new array)."""
    snapshot = unfold(u) if keep_snapshot else None
    return TrajectorySample(
        time=t,
        dt=dt,
        mass=fn.mass(u),
        energy=fn._energy(u, G),
        grad_norm_sq=G,
        variance=fn.variance(u),
        boundary_frac=fn.boundary_mass_fraction(u),
        snapshot=snapshot,
    )


__all__ = [
    "StepPolicy", "TrajectorySample", "Trajectory",
    "STRANG", "SUZUKI4", "step", "evolve",
]
