"""Closed-form reference solutions: the standing wave, the pseudoconformal
transformation acting on time slices, and the explicit minimal-mass blow-up
family.

Sign conventions.  For  i u_t + Lap u + |x|^-b |u|^(2 sigma) u = 0  the
solution-preserving pseudoconformal map carries exp(+i |x|^2 / (4t)); the
blow-up family it generates from the standing wave carries
exp(-i |x|^2 / (4(T-t))) together with exp(+i lambda^2 / (T-t)).  Both signs
are pinned by substitution into the discrete equation (see tests) rather
than taken on faith.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Field, sample_scaled
from .errors import ValidationError
from .ground_state import GroundState


@dataclass(frozen=True)
class SFamilyParams:
    T: float
    lam: float
    gamma: float = 0.0

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValidationError(f"blow-up time T must be finite and positive, got {self.T}")
        if not 0 < self.lam < math.inf:
            raise ValidationError(f"lambda must be finite and positive, got {self.lam}")
        if not math.isfinite(self.gamma):
            raise ValidationError(f"gamma must be finite, got {self.gamma}")


def standing_wave(gs: GroundState, t: float) -> Field:
    """exp(i t) Q as a complex field."""
    return gs.profile.with_values(np.exp(1j * t) * gs.profile.values.astype(complex))


def pseudoconformal(u: Field, t: float) -> Field:
    """Pseudoconformal image at time t of the slice u = u(., 1/t).

    Returns |t|^{-N/2} conj(u)(x/t) exp(+i|x|^2/(4t)) by cubic interpolation
    of the rescaled argument.  Applying it twice with reciprocal times is the
    identity: pseudoconformal(pseudoconformal(u, t), 1/t) == u.
    """
    if t == 0:
        raise ValidationError("pseudoconformal transformation is singular at t = 0")
    if not u.params.mass_critical:
        raise ValidationError("pseudoconformal symmetry requires mass-critical parameters")
    x = u.grid.nodes
    vals = np.conj(sample_scaled(u, 1.0 / t))
    vals = abs(t) ** (-u.params.dim / 2.0) * vals * np.exp(1j * x ** 2 / (4.0 * t))
    return u.with_values(vals)


def s_profile(p: SFamilyParams, gs: GroundState, t: float) -> Field:
    """Minimal-mass blow-up profile at time t < T.

    exp(i gamma) exp(i lam^2/(T-t)) exp(-i|x|^2/(4(T-t)))
        * (lam/(T-t))^{N/2} Q(lam x / (T-t)),

    with a single scale lam in both the amplitude and the argument (the
    choice under which the L2 norm is exactly that of Q).  Q is sampled with
    quintic interpolation so the mass identity survives deep into the
    collapse.
    """
    if not -math.inf < t < p.T:
        raise ValidationError(f"need finite t < T, got t={t}, T={p.T}")
    prof = gs.profile
    if not prof.params.mass_critical:
        raise ValidationError("the blow-up family requires mass-critical parameters")
    s = p.T - t
    x = prof.grid.nodes
    N = prof.params.dim
    core = (p.lam / s) ** (N / 2.0) * sample_scaled(prof, p.lam / s, order=5)
    phase = np.exp(1j * p.gamma) * np.exp(1j * p.lam ** 2 / s) * np.exp(-1j * x ** 2 / (4.0 * s))
    return prof.with_values(phase * core)


__all__ = ["SFamilyParams", "standing_wave", "pseudoconformal", "s_profile"]
