"""Ground-state profiles via Petviashvili (spectral renormalization) iteration,
with Pohozaev-identity diagnostics and the sharp interpolation constant.

The fixed point of  Q = (1 - Lap)^-1 (|x|^-b Q^(2 sigma + 1))  is stabilized
by the power gamma = (2 sigma + 1) / (2 sigma), the optimal choice for a
nonlinearity of homogeneity 2 sigma + 1.  The discrete solution satisfies the
energy-type identity  |grad Q|^2 + |Q|^2 = P(Q)  exactly (summation by parts
is exact for both discretizations), so the two Pohozaev residuals collapse to
a single independent check of the dilation identity -- the honest measure of
spatial discretization error.

Each iteration takes the map in defect-correction form,
Q <- S^gamma (Q + (1 - Lap)^-1 F(Q)) with F(Q) = Lap Q - Q + W Q^p (the same
map in exact arithmetic), one float64 Helmholtz solve per iteration.  A solve
iterates on n / ``COARSEN``^k cells, from the Gaussian on the coarsest level
that resolves its core, then on each finer one from the even linear
interpolant (at |x|) of the last, each coarser level to step norm
``HANDOVER_TOL`` (nested iteration, Brandt, Math. Comp. 31, 1977).
Petviashvili iteration converges only linearly (Pelinovsky & Stepanyants,
SIAM J. Numer. Anal. 42, 2004), so its slow phase runs on the fewest cells.
A line's finest level iterates on to ``STEP_TOL``: from the nested start that
is sooner than Newton steps, and the FFT's rounding floor holds however Q is
stored.  A radial finest level hands over at ``HANDOVER_TOL`` to Newton steps,
(1 - Lap - p W Q^(p - 1)) delta = F in float64, to ``STEP_TOL``: a float64 Q
on a deep radial grid is itself a floor on the defect (Lap of its rounding,
~eps Q/dr^2), so the Newton iterate is a float64 pair Q + lo (error-free
sums: Dekker, Numer. Math. 18, 1971; Ogita, Rump & Oishi, SIAM J. Sci.
Comput. 26, 2005), whose defect adds the terms linear in lo to the flux-form
defect of Q.  Each level runs on ``core.even_grid`` (an even-n line's half
grid), where the even profile is a cosine series, and the solve unfolds the
finest profile; an odd-n line's iterates are made exactly even by
``core.mirror``.  Levels and the resolution check count the full grid's cells.
Each level's Helmholtz factorization lives with its iteration, Newton factors its
own Jacobian, and a solved state keeps Q, its grid and the flux factors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Field, Grid, ProblemParams, even_grid, grid_for, laplacian_values, mirror, unfold
from .core import apply_radial_lap, helmholtz_solver, shifted_helmholtz_solve
from .errors import ConvergenceError, NumericsError, ValidationError
from . import functionals as fn


@dataclass
class GroundState:
    profile: Field
    # ||F|| at the iterate the verdict is taken on: radially the float64 pair Q + lo,
    # of which ``profile`` keeps Q alone, whose own defect is larger (radial3:
    # 4.06e-8 against 3.73e-12 relative to ||Q||; the README's radial-solve note)
    residual: float
    iterations: int             # the float64 Petviashvili iterations, summed over every level
    newton_steps: int           # the radial Newton steps after the iterations (0 on the line)
    pohozaev_r1: float
    pohozaev_r2: float
    q_mass: float

    @property
    def params(self) -> ProblemParams:
        return self.profile.params

    @property
    def k_opt(self) -> float:
        return k_opt(self.params, self.q_mass)


STEP_TOL = 1e-12        # L2 distance between successive iterates
RESIDUAL_TOL = 1e-8     # relative to ||Q||_L2
HANDOVER_TOL = 1e-6     # step norm at which a coarser level, or a radial solve's finest, hands on
NEWTON_STEPS = 4        # cap on a radial solve's Newton steps, also counted against max_iter
COARSEN = 4             # each level starts from a float64 solve on n // COARSEN cells
CORE_CELLS = 8          # the fewest cells above half its peak that resolve a profile's core


def solve_ground_state(params: ProblemParams, grid: Grid, *, max_iter: int = 2000) -> GroundState:
    """Compute the positive even/radial ground-state profile on ``grid``.

    ``max_iter`` bounds the iterations of every level and the Newton steps
    together.  Raises ValidationError, before any iteration, when grid and
    params disagree, ConvergenceError when max_iter or ``NEWTON_STEPS`` runs
    out, when a radial Newton iterate turns negative (an under-resolved grid),
    or when the residual stalls above tolerance (an under-resolved line, or the
    defect's rounding floor on a deep grid), and NumericsError when the
    stabilizing factor leaves [1e-6, 1e6].
    """
    Field(grid.nodes, grid, params)      # rejects a mismatched grid before any iteration
    radial = grid.geometry == "radial"
    work, Q, it, converged = _iterate(params, grid, max_iter,
                                      HANDOVER_TOL if radial else STEP_TOL)
    steps, lo = 0, None
    if converged and radial:
        Q, lo, steps, converged = _newton(params, work, Q, min(NEWTON_STEPS, max_iter - it))

    iterate = unfold(Field(Q, work, params))
    q_mass = fn.mass(iterate)
    res = math.sqrt(fn.mass(Field(_newton_defect(params, work, Q, lo)[0], work, params)))
    tol = RESIDUAL_TOL * math.sqrt(q_mass)
    if not converged:
        raise ConvergenceError(
            f"ground state did not converge in {it} iterations and {steps} Newton steps "
            f"(max_iter {max_iter}, residual {res:.3e}, tol {tol:.3e})",
            residual=res,
        )
    _check_resolved(iterate)   # before the residual verdict: a coarse grid stalls it
    if res > tol:
        raise ConvergenceError(
            f"ground state stalled after {it} iterations and {steps} Newton steps "
            f"with residual {res:.3e} above tolerance {tol:.3e}",
            residual=res,
        )

    r1, r2 = pohozaev_residuals(iterate)
    return GroundState(profile=iterate, residual=res, iterations=it, newton_steps=steps,
                       pohozaev_r1=r1, pohozaev_r2=r2, q_mass=q_mass)


def _iterate(params: ProblemParams, grid: Grid, max_iter: int, tol: float):
    """Petviashvili iteration to step norm ``tol`` on ``even_grid(grid)`` from the
    Gaussian, or, if n // ``COARSEN`` cells resolve its core, from the even interpolant
    (at |x|) of a solve to ``HANDOVER_TOL`` on them; returns grid, iterate, summed
    iterations over the levels, convergence."""
    work, it = even_grid(grid), 0

    def start():
        nonlocal it
        if np.count_nonzero(np.exp(-(grid.nodes ** 2) / 2.0) > 0.5) < COARSEN * CORE_CELLS:
            return np.exp(-(work.nodes ** 2) / 2.0)      # the Gaussian start
        coarse, Q, it, _ = _iterate(params, grid_for(params, grid.extent, grid.n // COARSEN),
                                    max_iter, HANDOVER_TOL)
        return np.interp(np.abs(work.nodes), coarse.nodes, Q)

    # the start, built in the call (before ``it`` is read), is the callee's alone:
    # it dies at the first update, as the coarser level died with ``start``
    Q, more, converged = _petviashvili(params, work, start(), max_iter - it, tol)
    return work, Q, it + more, converged


def _defect(params: ProblemParams, grid: Grid, Q: np.ndarray):
    """Lap Q and the defect F(Q) = Lap Q - Q + W Q^p of the ground-state
    equation, both at the precision of ``Q``."""
    lap = laplacian_values(grid, Q)
    F, WQp = lap - Q, Q ** (2.0 * params.sigma + 1.0)
    return lap, np.add(F, np.multiply(WQp, grid.weight_b, out=WQp), out=F)


def _petviashvili(params: ProblemParams, grid: Grid, Q: np.ndarray, max_iter: int,
                  tol=HANDOVER_TOL):
    """Petviashvili iteration at the precision of ``Q``; returns the last
    iterate, the iterations taken and whether the L2 step norm fell below ``tol``."""
    w, solve = grid.weights, helmholtz_solver(grid)      # the level's own factorization
    gamma = (2.0 * params.sigma + 1.0) / (2.0 * params.sigma)
    for it in range(1, max_iter + 1):
        lap, F = _defect(params, grid, Q)
        num = np.sum((Q - lap) * Q * w)      # <(1 - Lap) Q, Q>
        den = num + np.sum(F * Q * w)        # <W Q^p, Q>
        del lap                              # not held through the update's temporaries
        if den <= 0:
            raise NumericsError("Petviashvili denominator collapsed to zero")
        s_factor = num / den
        if not (1e-6 < float(s_factor) < 1e6):
            raise NumericsError(
                f"Petviashvili stabilizing factor diverged: S={float(s_factor):.3e}"
            )
        Qn = Q + solve(F)
        del F
        Qn *= s_factor ** gamma
        Qn = mirror(grid, np.abs(Qn, out=Qn))
        diff = float(np.sqrt(np.sum((Qn - Q) ** 2 * w)))
        Q = Qn
        if diff < tol:
            return Q, it, True
    return Q, max_iter, False


def _newton_defect(params: ProblemParams, grid: Grid, Q: np.ndarray, lo):
    """In float64, the defect F at Q, or at the radial pair Q + lo to first
    order in lo, and the Jacobian's potential V = p W Q^(p - 1)."""
    p = 2.0 * params.sigma + 1.0
    V = Q ** (p - 1.0) * grid.weight_b * p
    F = _defect(params, grid, Q)[1]
    return (F if lo is None else F + (apply_radial_lap(grid, lo) - lo + V * lo)), V


def _two_sum(a: np.ndarray, b: np.ndarray):
    """Knuth's branch-free TwoSum: s = fl(a + b) and e with s + e == a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _newton(params: ProblemParams, grid: Grid, Q: np.ndarray, max_steps: int):
    """Newton's method on F(Q) = 0 on a radial grid, updating the float64 pair
    Q + lo (lo from zero) by ``_two_sum``, ``Q`` in place; returns Q, lo, the
    steps taken and whether the L2 step norm fell below ``STEP_TOL`` or stopped
    halving (a float64 defect's rounding floor: the residual then decides);
    raises ConvergenceError on an iterate below -``RESIDUAL_TOL`` times its peak."""
    before, lo = math.inf, np.zeros(Q.shape)
    for step in range(1, max_steps + 1):
        # F and V, whose buffer holds the factored diagonal, die with the call
        delta = shifted_helmholtz_solve(grid, *_newton_defect(params, grid, Q, lo))
        s, e = _two_sum(Q, delta)
        e += lo
        Q[...], lo = _two_sum(s, e)
        if Q.min() < -RESIDUAL_TOL * Q.max():     # resolved profiles dip to ~ -1e-17 of it
            raise ConvergenceError(f"Newton step {step} dips to {float(Q.min() / Q.max()):.1e} "
                                   "of the peak: the grid under-resolves the ground state")
        diff = float(np.sqrt(np.sum(delta ** 2 * grid.weights)))
        del delta, s, e                      # not held through the next defect
        if diff < STEP_TOL or diff > 0.5 * before:
            return Q, lo, step, True
        before = diff
    return Q, lo, max_steps, False


def _check_resolved(prof: Field) -> None:
    vals = np.abs(prof.values)
    peak = vals.max()
    if peak <= 0:
        return
    if vals[-1] > 1e-6 * peak or (prof.grid.geometry == "line" and vals[0] > 1e-6 * peak):
        warnings.warn(
            "ground-state tail is not negligible at the domain edge; "
            "increase the domain size",
            RuntimeWarning,
            stacklevel=3,
        )
    width_cells = np.count_nonzero(vals > 0.5 * peak)
    if width_cells < CORE_CELLS:
        warnings.warn(
            f"ground-state core spans only {width_cells} cells; refine the grid",
            RuntimeWarning,
            stacklevel=3,
        )


def pohozaev_residuals(u: Field) -> tuple[float, float]:
    """Relative residuals of the two ground-state integral identities at ``u``.

    r1 compares |grad u|^2 against ((N sigma + b) / (2 sigma + 2 - N sigma - b)) ||u||^2,
    r2 compares the weighted potential against ((2 sigma + 2) / (...)) ||u||^2.
    The integrals are ``functionals``' own, summed at the precision of
    ``u.values``, so the residuals are invariant under phase and sign.
    """
    m, pot, g = fn.mass(u), fn.potential(u), fn.grad_norm_sq(u)
    if m <= 0:
        raise ValidationError("pohozaev_residuals is undefined for the zero field")
    a = u.params.dim * u.params.sigma + u.params.b
    d_exp = 2.0 * u.params.sigma + 2.0 - a
    r1 = abs(g - (a / d_exp) * m) / m
    r2 = abs(pot - ((2.0 * u.params.sigma + 2.0) / d_exp) * m) / m
    return r1, r2


def k_opt(params: ProblemParams, q_mass: float) -> float:
    """Sharp constant of the weighted interpolation inequality.

    ``q_mass`` is the squared L2 norm of the ground state for these
    parameters.
    """
    if not q_mass > 0:
        raise ValidationError(f"q_mass must be positive, got {q_mass}")
    a = params.dim * params.sigma + params.b
    d = 2.0 * params.sigma + 2.0 - a
    if d <= 0:
        raise ValidationError(
            f"need 2 sigma + 2 > N sigma + b, got {2 * params.sigma + 2} <= {a}"
        )
    return (a / d) ** ((2.0 - a) / 2.0) * (2.0 * params.sigma + 2.0) / (a * q_mass ** params.sigma)


def gn_ratio(u: Field) -> float:
    """Weinstein quotient: potential / (|grad u|^(N sigma + b) * mass^(...)).

    Scale invariant; equals k_opt exactly at the ground state.
    """
    m = fn.mass(u)
    if m <= 0:
        raise ValidationError("gn_ratio is undefined for the zero field")
    g = fn.grad_norm_sq(u)
    p = fn.potential(u)
    a = u.params.dim * u.params.sigma + u.params.b
    return p / (g ** (a / 2.0) * m ** ((2.0 * u.params.sigma + 2.0 - a) / 2.0))


def c_of_Mm(M: float, m: float, params: ProblemParams) -> float:
    """Closed-form lower-bound constant C(M, m) of the mass-critical
    compactness statement; equals 1 at the ground-state values."""
    if not params.mass_critical:
        raise ValidationError("C(M, m) is defined in the mass-critical regime only")
    if not (M > 0 and m > 0):
        raise ValidationError(f"M and m must be positive, got {M}, {m}")
    N, b = params.dim, params.b
    inner = m ** ((4.0 - 2.0 * b) / N + 2.0) * N / (M ** 2 * (2.0 - b + N))
    return inner ** (N / (2.0 * (2.0 - b)))


__all__ = [
    "GroundState", "solve_ground_state",
    "pohozaev_residuals", "k_opt", "gn_ratio", "c_of_Mm",
]
