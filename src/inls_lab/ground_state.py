"""Ground-state profiles via Petviashvili (spectral renormalization) iteration,
with Pohozaev-identity diagnostics and the sharp interpolation constant.

The fixed point of  Q = (1 - Lap)^-1 (|x|^-b Q^(2 sigma + 1))  is stabilized
by the power gamma = (2 sigma + 1) / (2 sigma), the optimal choice for a
nonlinearity of homogeneity 2 sigma + 1.  The discrete solution satisfies the
energy-type identity  |grad Q|^2 + |Q|^2 = P(Q)  exactly (summation by parts
is exact for both discretizations), so the two Pohozaev residuals collapse to
a single independent check of the dilation identity -- the honest measure of
spatial discretization error.

Deep grids push the float64 evaluation of Lap(Q) against its rounding floor
(~ eps / dx^2), so the solver optionally finishes in extended precision;
``dtype=np.longdouble`` keeps the residual diagnostic meaningful down to
~1e-11 at n ~ 3e5.  Such a solve is a two-phase continuation: it iterates in
float64 until the step norm stops shrinking (the float64 floor), then casts
the iterate and continues in longdouble down to ``STEP_TOL``.  The stabilized
map converges to the same fixed point from any nearby start (Pelinovsky &
Stepanyants, SIAM J. Numer. Anal. 42, 2004), so the float64 phase changes only
the path to Q, and most iterations run at float64 speed.  Each iteration takes
the map in defect-correction form, Q <- S^gamma (Q + (1 - Lap)^-1 F(Q)) with
F(Q) = Lap Q - Q + W Q^p (the same map in exact arithmetic): F, the residual
and the Pohozaev residuals are taken at the precision of the iterate, and the
small correction is one float64 solve (iterative refinement in two
precisions, Carson & Higham, SIAM J. Sci. Comput. 40, 2018).  A float64 solve
is the float64 phase alone, run to ``STEP_TOL``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    Field, Grid, ProblemParams, grad_norm_sq_values, helmholtz_solve, laplacian_values,
)
from .errors import ConvergenceError, NumericsError, ValidationError
from . import functionals as fn


@dataclass
class GroundState:
    profile: Field
    residual: float
    iterations: int             # total over both phases
    float64_iterations: int     # the float64 phase; all of them for a float64 solve
    pohozaev_r1: float
    pohozaev_r2: float
    k_opt: float
    q_mass: float

    @property
    def params(self) -> ProblemParams:
        return self.profile.params

    @property
    def longdouble_iterations(self) -> int:
        return self.iterations - self.float64_iterations


@dataclass
class SolverOptions:
    max_iter: int = 2000
    dtype: type = np.float64


STEP_TOL = 1e-12        # L2 distance between successive iterates
RESIDUAL_TOL = 1e-8     # relative to ||Q||_L2


def solve_ground_state(
    params: ProblemParams, grid: Grid, options: SolverOptions | None = None
) -> GroundState:
    """Compute the positive even/radial ground-state profile on ``grid``.

    Raises ConvergenceError when max_iter is exhausted and NumericsError when
    the stabilizing factor leaves [1e-6, 1e6].
    """
    opts = options or SolverOptions()
    if grid.b != params.b:
        raise ValidationError(
            f"grid was built with b={grid.b}, params have b={params.b}"
        )
    if (params.dim == 1) != (grid.geometry == "line"):
        raise ValidationError("grid geometry does not match params.dim")
    # a wider dtype continues the float64 phase; max_iter bounds both together
    wide = np.dtype(opts.dtype) != np.float64
    Q, it, converged = _petviashvili(params, grid, np.exp(-(grid.nodes ** 2) / 2.0),
                                     opts.max_iter, until_stall=wide)
    float64_iterations = it
    if wide:
        Q, it_wide, converged = _petviashvili(
            params, grid, Q.astype(opts.dtype), opts.max_iter - it)
        it += it_wide

    w = grid.weights.astype(Q.dtype)
    norm = float(np.sqrt(np.sum(Q ** 2 * w)))
    res = float(np.sqrt(np.sum(_defect(params, grid, Q)[1] ** 2 * w)))
    if not converged or res > RESIDUAL_TOL * norm:
        raise ConvergenceError(
            f"ground state did not converge in {it} iterations "
            f"(residual {res:.3e}, tol {RESIDUAL_TOL * norm:.3e})",
            residual=res,
        )

    prof = Field(Q.astype(np.float64), grid, params)
    _check_resolved(prof)
    r1, r2 = pohozaev_residuals(Field(Q, grid, params))
    q_mass = float(np.sum(Q ** 2 * w))
    return GroundState(
        profile=prof,
        residual=res,
        iterations=it,
        float64_iterations=float64_iterations,
        pohozaev_r1=r1,
        pohozaev_r2=r2,
        k_opt=k_opt(params, q_mass),
        q_mass=q_mass,
    )


def _defect(params: ProblemParams, grid: Grid, Q: np.ndarray):
    """Lap Q and the defect F(Q) = Lap Q - Q + W Q^p of the ground-state
    equation, both at the precision of ``Q``."""
    lap = laplacian_values(grid, Q)
    return lap, lap - Q + grid.weight_b.astype(Q.dtype) * Q ** (2.0 * params.sigma + 1.0)


def _petviashvili(
    params: ProblemParams, grid: Grid, Q: np.ndarray, max_iter: int, until_stall: bool = False,
) -> tuple[np.ndarray, int, bool]:
    """Petviashvili iteration at the precision of ``Q``.

    Returns the last iterate, the iterations taken and whether the L2 step
    norm fell below ``STEP_TOL``; ``until_stall`` also stops at the first step
    that does not shrink.
    """
    w = grid.weights.astype(Q.dtype)
    gamma = Q.dtype.type(2.0 * params.sigma + 1.0) / Q.dtype.type(2.0 * params.sigma)
    last = math.inf
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
        if diff < STEP_TOL:
            return Q, it, True
        if until_stall and diff >= last:
            return Q, it, False
        last = diff
    return Q, max_iter, False


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
    """Relative residuals of the two ground-state integral identities at the
    real profile ``u``.

    r1 compares |grad Q|^2 against ((N sigma + b) / (2 sigma + 2 - N sigma - b)) ||Q||^2,
    r2 compares the weighted potential against ((2 sigma + 2) / (...)) ||Q||^2.
    Evaluated at the precision of ``u.values``.
    """
    Q, grid, params = u.values, u.grid, u.params
    dt = Q.dtype.type
    w = grid.weights.astype(dt)
    W = grid.weight_b.astype(dt)
    m = np.sum(Q ** 2 * w)
    pot = np.sum(W * Q ** (2.0 * params.sigma + 2.0) * w)
    g = grad_norm_sq_values(grid, Q)
    a = params.dim * params.sigma + params.b
    d_exp = 2.0 * params.sigma + 2.0 - a
    r1 = abs(g - (a / d_exp) * m) / m
    r2 = abs(pot - ((2.0 * params.sigma + 2.0) / d_exp) * m) / m
    return float(r1), float(r2)


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
    "GroundState", "SolverOptions", "solve_ground_state",
    "pohozaev_residuals", "k_opt", "gn_ratio", "c_of_Mm",
]
