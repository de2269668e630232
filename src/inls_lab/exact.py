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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import Field, sample_scaled, scaled_sampler
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
        if not (0 < self.lam and math.isfinite(self.lam * self.lam)):
            raise ValidationError(f"lambda must be positive with a finite square, got {self.lam}")
        if not math.isfinite(self.gamma):
            raise ValidationError(f"gamma must be finite, got {self.gamma}")


def standing_wave(gs: GroundState, t: float) -> Field:
    """exp(i t) Q as a complex field."""
    return gs.profile.with_values(np.exp(1j * t) * gs.profile.values.astype(complex))


def pseudoconformal(u: Field, t: float) -> Field:
    """Pseudoconformal image at time t of the slice u = u(., 1/t).

    Returns |t|^{-N/2} conj(u)(x/t) exp(+i|x|^2/(4t)), u(x/t) from ``core``'s
    not-a-knot cubic spline (de Boor's recursion, as SciPy's
    ``make_interp_spline``).  Applying it twice with reciprocal times is the
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
    collapse.  On the line it is exactly even: x < 0 mirrors x >= 0.
    """
    # a spline of its own, freed before the profile's values are made
    return _s_profile(p, gs, t, lambda scale: sample_scaled(gs.profile, scale, order=5))


def s_profiles(p: SFamilyParams, gs: GroundState, times) -> Iterator[Field]:
    """``s_profile`` at each of ``times`` in turn, all sampled from one
    quintic spline of Q."""
    sample = scaled_sampler(gs.profile, order=5)
    for t in times:
        yield _s_profile(p, gs, t, sample)


def _s_profile(p: SFamilyParams, gs: GroundState, t: float, sample) -> Field:
    """``s_profile`` with Q(scale x) on Q's grid sampled by ``sample(scale)``."""
    if not -math.inf < t < p.T:
        raise ValidationError(f"need finite t < T, got t={t}, T={p.T}")
    prof = gs.profile
    if not prof.params.mass_critical:
        raise ValidationError("the blow-up family requires mass-critical parameters")
    s = p.T - t
    x = prof.grid.nodes
    N = prof.params.dim
    core = (p.lam / s) ** (N / 2.0) * sample(p.lam / s)
    vals = np.exp(1j * p.gamma) * np.exp(1j * p.lam ** 2 / s) * np.exp(-1j * x ** 2 / (4.0 * s))
    vals *= core
    return prof.with_values(prof.grid.mirror(vals))


__all__ = ["SFamilyParams", "standing_wave", "pseudoconformal", "s_profile", "s_profiles"]
