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
map in exact arithmetic), one float64 Helmholtz solve per iteration.  Deep
grids push the float64 evaluation of Lap Q against its rounding floor
(~ eps / dx^2), so ``dtype="longdouble"`` iterates to step norm
``HANDOVER_TOL`` on n // ``COARSEN`` cells from the Gaussian, then on n from
that iterate's linear interpolant (nested iteration: 4-6 fine iterations on
the gates, not 11-55), and hands over to Newton's method in two precisions:
F in longdouble, the Jacobian system (1 - Lap - p W Q^(p - 1)) delta = F in
float64 (iterative refinement, Carson & Higham, SIAM J. Sci. Comput. 40,
2018), two or three steps to ``STEP_TOL``: residuals ~1e-11 at n ~ 3e5.  The
integrals are ``functionals``' own, summed at the precision of the field.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import MIN_CELLS, Field, Grid, ProblemParams, grid_for, laplacian_values
from .core import helmholtz_solve, shifted_helmholtz_solve
from .errors import ConvergenceError, NumericsError, ValidationError
from . import functionals as fn


@dataclass
class GroundState:
    profile: Field
    residual: float
    iterations: int             # the float64 Petviashvili iterations, on both grids
    newton_steps: int           # the Newton steps of a longdouble solve; 0 in float64
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
HANDOVER_TOL = 1e-7     # float64 step norm at which a wider solve turns to Newton
NEWTON_STEPS = 4        # cap on the Newton steps, also counted against max_iter
COARSEN = 4             # a longdouble solve starts from a float64 solve on n // COARSEN cells


def solve_ground_state(
    params: ProblemParams, grid: Grid, *, dtype: str = "float64", max_iter: int = 2000
) -> GroundState:
    """Compute the positive even/radial ground-state profile on ``grid``.

    ``dtype`` ("float64" or "longdouble") is the precision of the Newton
    polish; ``max_iter`` bounds the iterations on both grids and the Newton
    steps together.  Raises ValidationError, before any iteration, when grid
    and params disagree, ConvergenceError when max_iter or ``NEWTON_STEPS``
    runs out, when a Newton iterate turns negative, or when the iteration
    stalls with its residual above tolerance (after the RuntimeWarning of an
    under-resolved grid, the usual cause of both),
    and NumericsError when the stabilizing factor leaves [1e-6, 1e6].
    """
    Field(grid.nodes, grid, params)      # rejects a mismatched grid before any iteration
    wide = np.dtype(dtype) != np.float64
    it = 0
    # Nested iteration from a coarse solve, for longdouble only: a float64 solve
    # needs step norm STEP_TOL, which on deep grids sits at float64's rounding
    # floor.  On the radial N = 2, n = 20480 grid of the README the coarse start
    # ran 2000 iterations without reaching it; the Gaussian start takes 75.
    if wide and grid.n // COARSEN >= MIN_CELLS:
        coarse = grid_for(params, grid.extent, grid.n // COARSEN)
        Q = np.exp(-(coarse.nodes ** 2) / 2.0)
        Q, it, _ = _petviashvili(params, coarse, Q, max_iter, HANDOVER_TOL)
        Q = np.interp(grid.nodes, coarse.nodes, Q)
        del coarse                       # not held through the fine phase
    else:
        Q = np.exp(-(grid.nodes ** 2) / 2.0)           # the Gaussian start
    Q, fine, converged = _petviashvili(params, grid, Q, max_iter - it,
                                       HANDOVER_TOL if wide else STEP_TOL)
    it += fine
    steps = 0
    if wide and converged:
        Q = Q.astype(dtype)              # not held beside the float64 iterate
        Q, steps, converged = _newton(params, grid, Q, min(NEWTON_STEPS, max_iter - it))

    iterate = Field(Q, grid, params)
    q_mass = fn.mass(iterate)
    res = math.sqrt(fn.mass(iterate.with_values(_defect(params, grid, Q)[1])))
    tol = RESIDUAL_TOL * math.sqrt(q_mass)
    if not converged:
        raise ConvergenceError(
            f"ground state did not converge in {it} iterations and {steps} Newton steps "
            f"(max_iter {max_iter}, residual {res:.3e}, tol {tol:.3e})",
            residual=res,
        )
    prof = iterate.with_values(Q.astype(np.float64))
    _check_resolved(prof)      # before the residual verdict: a coarse grid stalls it
    if res > tol:
        raise ConvergenceError(
            f"ground-state iteration stalled after {it} iterations with residual "
            f"{res:.3e} above tolerance {tol:.3e}",
            residual=res,
        )

    r1, r2 = pohozaev_residuals(iterate)
    return GroundState(profile=prof, residual=res, iterations=it, newton_steps=steps,
                       pohozaev_r1=r1, pohozaev_r2=r2, q_mass=q_mass)


def _defect(params: ProblemParams, grid: Grid, Q: np.ndarray):
    """Lap Q and the defect F(Q) = Lap Q - Q + W Q^p of the ground-state
    equation, both at the precision of ``Q``."""
    lap = laplacian_values(grid, Q)
    return lap, lap - Q + grid.weight_b * Q ** (2.0 * params.sigma + 1.0)


def _petviashvili(params: ProblemParams, grid: Grid, Q: np.ndarray, max_iter: int, tol=STEP_TOL):
    """Petviashvili iteration at the precision of ``Q``; returns the last
    iterate, the iterations taken and whether the L2 step norm fell below ``tol``."""
    w = grid.weights
    gamma = Q.dtype.type(2.0 * params.sigma + 1.0) / Q.dtype.type(2.0 * params.sigma)
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
        Qn = np.abs(s_factor ** gamma * (Q + helmholtz_solve(grid, F)))
        if grid.geometry == "line":
            Qn = 0.5 * (Qn + Qn[::-1])
        diff = float(np.sqrt(np.sum((Qn - Q) ** 2 * w)))
        Q = Qn
        if diff < tol:
            return Q, it, True
    return Q, max_iter, False


def _newton(params: ProblemParams, grid: Grid, Q: np.ndarray, max_steps: int):
    """Newton's method on F(Q) = 0, updating ``Q`` in place; returns it, the
    steps taken and whether the L2 step norm fell below ``STEP_TOL``; raises
    ConvergenceError on an iterate below -``RESIDUAL_TOL`` times its peak."""
    p = 2.0 * params.sigma + 1.0
    for step in range(1, max_steps + 1):
        F = _defect(params, grid, Q)[1].astype(np.float64)   # drops Lap Q before the solve
        V = Q.astype(np.float64)                              # V = p W Q^(p - 1), in place
        V **= p - 1.0
        V *= grid.weight_b
        V *= p
        delta = shifted_helmholtz_solve(grid, F, V)
        if grid.geometry == "line":
            delta = 0.5 * (delta + delta[::-1])
        Q += delta
        if Q.min() < -RESIDUAL_TOL * Q.max():     # resolved profiles dip to ~ -1e-17 of it
            raise ConvergenceError(f"Newton step {step} dips to {float(Q.min() / Q.max()):.1e} "
                                   "of the peak: the grid under-resolves the ground state")
        diff = float(np.sqrt(np.sum(delta ** 2 * grid.weights)))
        del F, V, delta                      # not held through the next defect
        if diff < STEP_TOL:
            return Q, step, True
    return Q, max_steps, False


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
    if width_cells < 8:
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
