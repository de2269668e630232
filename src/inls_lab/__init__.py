"""Numerical laboratory for the inhomogeneous nonlinear Schrödinger equation

    i u_t + Lap u + |x|^-b |u|^(2 sigma) u = 0

Ground states via spectral renormalization, split-step evolution with
adaptive stepping toward blow-up, closed-form reference solutions, and the
concentration / inequality diagnostics of the associated blow-up theory.
"""

__version__ = "0.1.0"

from .core import (
    Field, Grid, ProblemParams, Regime,
    grid_for, laplacian, line_grid, make_params, radial_grid,
)
from .errors import ConvergenceError, InlsError, NumericsError, ValidationError
from .evolution import StepPolicy, Trajectory, evolve, step
from .exact import SFamilyParams, pseudoconformal, s_profile, standing_wave
from .functionals import (
    concentrated_mass, energy, grad_norm_sq, lp_norm, mass, potential,
    radial_momentum, sup_concentrated_mass, variance,
)
from .ground_state import (
    GroundState, c_of_Mm, gn_ratio, k_opt,
    pohozaev_residuals, solve_ground_state,
)
from .analysis import (
    BlowupFit, decompose, estimate_blowup_time, mass_concentration_series,
    rescale, rescaled_profile, sigma_c_window_series, window_radii,
)

__all__ = [
    "__version__",
    "Field", "Grid", "ProblemParams", "Regime",
    "make_params", "line_grid", "radial_grid", "grid_for",
    "laplacian", "rescale",
    "mass", "potential", "energy", "grad_norm_sq", "variance",
    "radial_momentum", "concentrated_mass", "sup_concentrated_mass", "lp_norm",
    "GroundState", "solve_ground_state", "pohozaev_residuals",
    "k_opt", "gn_ratio", "c_of_Mm",
    "SFamilyParams", "standing_wave", "pseudoconformal", "s_profile",
    "StepPolicy", "Trajectory", "evolve", "step",
    "BlowupFit", "estimate_blowup_time", "mass_concentration_series",
    "rescaled_profile", "window_radii", "decompose", "sigma_c_window_series",
    "InlsError", "ValidationError", "NumericsError", "ConvergenceError",
]
