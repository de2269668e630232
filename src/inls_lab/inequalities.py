"""Executable checks of the functional inequalities, driven by a seeded
corpus of random localized fields.

Every ``check_*`` returns the raw "left side minus right side", so a
satisfied inequality gives a number <= 0.  The corpus reports scale it by the
magnitude of the right side (``_excess``), so ``max_violation`` aggregates
cleanly across a corpus.  The critical-norm check has no quantified constant
to compare against and is reported as a boundedness ratio instead.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .core import Field, Grid, ProblemParams, grad_norm_sq_values, gradient_values
from .errors import ValidationError
from . import functionals as fn

DEFAULT_SEED = 0x1515
BLOCK = 64      # nodes per entry of a bump's coarse plane-wave table


def corpus_rng(seed: int, label: str) -> np.random.Generator:
    """Counter-style RNG split: one master seed, one stream per label."""
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(label.encode())])


def random_bump_field(params: ProblemParams, grid: Grid, rng: np.random.Generator) -> Field:
    """Sum of 1-4 Gaussian bumps with random widths, centers, and phases,
    supported well inside the domain.  On the uniform nodes a bump's plane
    wave exp(i(phi + s x_j)) is geometric in j: the outer product of its values
    at x_0, x_BLOCK, ... and exp(i s dx r) for r < BLOCK, trimmed to n, costs
    n / BLOCK + BLOCK complex exps instead of n (within 1e-14 of the peak of the
    one-exp-per-node form at extent 12, as the tests pin)."""
    n_bumps = int(rng.integers(1, 5))
    x = grid.nodes
    fine = grid.spacing * np.arange(BLOCK)
    vals = np.zeros(grid.n, dtype=complex)
    for _ in range(n_bumps):
        width = rng.uniform(0.4, 1.6)
        if grid.geometry == "line":
            center = rng.uniform(-0.5 * grid.extent, 0.5 * grid.extent)
        else:
            center = rng.uniform(0.0, 0.4 * grid.extent)
        amp = rng.uniform(0.2, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        speed = rng.uniform(-2.0, 2.0)
        wave = np.outer(np.exp(1j * (phase + speed * x[::BLOCK])), np.exp(1j * speed * fine))
        vals += amp * np.exp(-((x - center) ** 2) / (2.0 * width ** 2)) * wave.ravel()[:grid.n]
    return Field(vals, grid, params)


@dataclass
class InequalityReport:
    name: str
    trials: int
    max_violation: float
    witness: Field | None = field(default=None, repr=False)
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_violation <= 1e-6

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "trials": self.trials,
            "max_violation": self.max_violation,
            "passed": bool(self.passed),
        }
        out.update(self.extra)
        return out


# ---------------------------------------------------------------------------
# individual checks (raw, unscaled left - right); each ``_*_sides`` returns
# the (left, right) pair once, for its check and for its corpus report


def _gagliardo_sides(u: Field, k_opt: float):
    a = u.params.dim * u.params.sigma + u.params.b
    rhs = k_opt * fn.grad_norm_sq(u) ** (a / 2.0) * fn.mass(u) ** (
        (2.0 * u.params.sigma + 2.0 - a) / 2.0
    )
    return fn.potential(u), rhs


def check_gagliardo(u: Field, k_opt: float) -> float:
    """potential(u) - K_opt |grad u|^(N sigma + b) mass^(sigma+1-(N sigma+b)/2) <= 0."""
    lhs, rhs = _gagliardo_sides(u, k_opt)
    return lhs - rhs


def _banica_sides(v: Field, theta: np.ndarray, q_mass: float):
    if not v.params.mass_critical:
        raise ValidationError("check_banica needs mass-critical sigma = (2 - b)/N")
    if fn.mass(v) > q_mass * (1.0 + 1e-12):
        raise ValidationError("check_banica requires mass(v) <= mass(Q)")
    grad_theta = gradient_values(v.grid, np.asarray(theta, dtype=float))
    dv = gradient_values(v.grid, v.values)
    lhs = float(np.sum(np.imag(v.values * np.conj(dv)) * grad_theta * v.grid.weights))
    weighted = float(np.sum(np.abs(v.values) ** 2 * grad_theta ** 2 * v.grid.weights))
    return lhs ** 2, 2.0 * fn.energy(v) * weighted


def check_banica(v: Field, theta: np.ndarray, q_mass: float) -> float:
    """Squared momentum-type pairing minus 2 E(v) * int |v|^2 |grad theta|^2.

    Mass-critical params and mass(v) <= q_mass (the ground-state mass) make
    the energy nonnegative, so the right side is a genuine bound.
    """
    lhs, rhs = _banica_sides(v, theta, q_mass)
    return lhs - rhs


def _tail_norms(u: Field, R: float):
    g = u.grid
    tail = g.nodes >= R
    m_tail = float(np.sum(np.abs(u.values[tail]) ** 2 * g.weights[tail]))
    return tail, m_tail, float(grad_norm_sq_values(g, u.values, R))


def _strauss_sides(u: Field, R: float):
    if u.params.dim < 2:
        raise ValidationError("the radial decay bound needs N >= 2")
    if R <= u.grid.nodes[0]:
        raise ValidationError(f"R={R} must exceed the first node {u.grid.nodes[0]:.3g}")
    tail, m_tail, g_tail = _tail_norms(u, R)
    if not np.any(tail):
        return 0.0, 0.0
    sup_tail = float(np.max(np.abs(u.values[tail])))
    return sup_tail, R ** (-(u.params.dim - 1) / 2.0) * m_tail ** 0.25 * g_tail ** 0.25


def check_strauss(u: Field, R: float) -> float:
    """sup_{|x|>=R} |u| - R^{-(N-1)/2} ||u||_tail^{1/2} ||grad u||_tail^{1/2}."""
    lhs, rhs = _strauss_sides(u, R)
    return lhs - rhs


def young_constant(sigma: float, eta: float) -> float:
    """Optimal constant in the split a*b <= eta a^{2/sigma} + C(eta) b^{2/(2-sigma)}."""
    return (2.0 - sigma) / 2.0 * (sigma / (2.0 * eta)) ** (sigma / (2.0 - sigma))


def _radial_gn_sides(u: Field, R: float, eta: float):
    p = u.params
    if p.sigma >= 2.0:
        raise ValidationError(f"need sigma < 2, got {p.sigma}")
    if p.dim < 2:
        raise ValidationError("radial interpolation bound needs N >= 2")
    if not eta > 0:
        raise ValidationError(f"eta must be positive, got {eta}")
    tail, m_tail, g_tail = _tail_norms(u, R)
    lhs = float(
        np.sum(
            (u.grid.weight_b * np.abs(u.values) ** (2.0 * p.sigma + 2.0) * u.grid.weights)[tail]
        )
    )
    expo = 2.0 * (p.sigma * (p.dim - 1) + p.b) / (2.0 - p.sigma)
    rhs = eta * g_tail + young_constant(p.sigma, eta) * R ** (-expo) * m_tail ** (
        (p.sigma + 2.0) / (2.0 - p.sigma)
    )
    return lhs, rhs


def check_radial_gn(u: Field, R: float, eta: float) -> float:
    """Tail potential minus eta * tail gradient - C(eta) R^{-2(sigma(N-1)+b)/(2-sigma)}
    * tail mass^{(sigma+2)/(2-sigma)}; expected <= 0."""
    lhs, rhs = _radial_gn_sides(u, R, eta)
    return lhs - rhs


def check_critical_gn(u: Field) -> float:
    """Ratio potential / (|grad u|^2 ||u||_{sigma_c}^{2 sigma}); finite and
    bounded across a corpus, with no paper-quantified constant."""
    p = u.params
    if not p.intercritical:
        raise ValidationError("critical-norm bound applies to intercritical parameters")
    if p.dim < 2:
        raise ValidationError("critical-norm bound needs N >= 2")
    m = fn.mass(u)
    if m <= 0:
        raise ValidationError("zero field")
    return fn.potential(u) / (
        fn.grad_norm_sq(u) * fn.lp_norm(u, p.sigma_c) ** (2.0 * p.sigma)
    )


# ---------------------------------------------------------------------------
# corpus-driven suite


def _excess(lhs: float, rhs: float) -> float:
    """(left - right) / |right|, or left - right where the right side vanishes."""
    raw, scale = lhs - rhs, abs(rhs)
    return raw / scale if scale > 0 else raw


# the sweeps of the radial reports: decay radii R, and the Young split eta at R = 1
STRAUSS_RADII = (0.5, 1.0, 2.0, 4.0, 6.0)
RADIAL_GN_ETAS = (1e-2, 1e-1, 1.0)
RADIAL_GN_R = 1.0


def _corpus(name, params, grid, trials, seed, score, values=(None,)):
    """The report ``name``: the worst score over one seeded corpus of random
    bump fields, and the field that scored it.

    ``trials`` is split evenly over the sweep ``values`` (at least one field
    each); ``score(u, value, rng)`` returns (score, field scored), drawing any
    further randomness from the corpus stream.  The worst score is
    ``max_violation``; its field is the ``witness`` unless that score is
    clearly negative.  A NaN score is the worst and stays so.
    """
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    rng = corpus_rng(seed, f"{name}/{params.dim}/{params.sigma}/{params.b}")
    per_value = trials // len(values) or 1
    worst, witness = -math.inf, None
    for value in values:
        for _ in range(per_value):
            s, cand = score(random_bump_field(params, grid, rng), value, rng)
            if not (s <= worst or math.isnan(worst)):
                worst = s
                witness = None if s <= -1e-10 else cand
    return InequalityReport(name, per_value * len(values), worst, witness)


def run_gagliardo_report(params, grid, k_opt_value, trials, seed):
    return _corpus("gagliardo", params, grid, trials, seed,
                   lambda u, _, rng: (_excess(*_gagliardo_sides(u, k_opt_value)), u))


def run_banica_report(params, grid, q_mass, trials, seed):
    def score(u, _, rng):
        v = u.with_values(u.values * math.sqrt(rng.uniform(0.05, 0.95) * q_mass / fn.mass(u)))
        theta = rng.uniform(-1.0, 1.0) * grid.nodes ** 2 + random_bump_field(
            params, grid, rng
        ).values.real
        return _excess(*_banica_sides(v, theta, q_mass)), v

    return _corpus("banica", params, grid, trials, seed, score)


def run_strauss_report(params, grid, trials, seed):
    return _corpus("strauss", params, grid, trials, seed,
                   lambda u, R, rng: (_excess(*_strauss_sides(u, R)), u), STRAUSS_RADII)


def run_radial_gn_report(params, grid, trials, seed):
    return _corpus("radial_gn", params, grid, trials, seed,
                   lambda u, eta, rng: (_excess(*_radial_gn_sides(u, RADIAL_GN_R, eta)), u),
                   RADIAL_GN_ETAS)


def run_critical_gn_report(params, grid, q_reference: float, trials, seed):
    """Boundedness report: the corpus sup of the critical-norm ratio against its
    value at the ground state; ``max_violation`` reads -1 while the sup is finite."""
    rep = _corpus("critical_gn", params, grid, trials, seed,
                  lambda u, _, rng: (check_critical_gn(u), None))
    sup = rep.max_violation
    return InequalityReport(rep.name, rep.trials, -1.0 if math.isfinite(sup) else sup,
                            extra={"sup_ratio": sup, "q_reference": q_reference,
                                   "sup_over_reference": sup / q_reference})


__all__ = [
    "DEFAULT_SEED", "corpus_rng", "random_bump_field", "InequalityReport",
    "check_gagliardo", "check_banica", "check_strauss", "check_radial_gn",
    "check_critical_gn", "young_constant",
    "run_gagliardo_report", "run_banica_report", "run_strauss_report",
    "run_radial_gn_report", "run_critical_gn_report",
]
