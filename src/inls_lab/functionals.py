"""Scalar diagnostics of fields: conserved quantities, norms, moments, and
localized concentration integrals.

All quadratures use the grid's volume weights.  Window integrals weight the
straddled boundary cell by its covered fraction, which makes them continuous
and nondecreasing in the window radius.  Every integral of a field stored on
a half grid (``Grid.even_grid``) is the whole even field's: the quadratures
by the half's weights 2 dx, the window integrals on its ``core.unfold``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import Field, unfold
from .errors import ValidationError

BOUNDARY_SHELL = 0.1    # outer fraction of the extent that boundary_mass_fraction reads


def mass(u: Field) -> float:
    """L2 mass integral of |u|^2."""
    return float(np.sum(np.abs(u.values) ** 2 * u.grid.weights))


def potential(u: Field) -> float:
    """Weighted potential integral of |x|^-b |u|^(2 sigma + 2)."""
    p = 2.0 * u.params.sigma + 2.0
    return float(np.sum(u.grid.weight_b * np.abs(u.values) ** p * u.grid.weights))


def grad_norm_sq(u: Field) -> float:
    """Integral of |grad u|^2, the summation-by-parts companion of
    ``Grid.laplacian`` (see ``Grid.grad_sq``)."""
    return float(u.grid.grad_sq(u.values))


def energy(u: Field) -> float:
    """E[u] = 1/2 |grad u|^2 - potential(u)/(2 sigma + 2)."""
    return _energy(u, grad_norm_sq(u))


def _energy(u: Field, grad_sq: float) -> float:
    """E[u] given its |grad u|^2, for callers that already hold it."""
    return 0.5 * grad_sq - potential(u) / (2.0 * u.params.sigma + 2.0)


def energy_scale(u: Field) -> float:
    """|kinetic| + |potential| part sizes; the natural yardstick for energy
    drift when E itself sits near zero (e.g. mass-critical ground states)."""
    return 0.5 * grad_norm_sq(u) + potential(u) / (2.0 * u.params.sigma + 2.0)


def variance(u: Field) -> float:
    """Second moment integral of |x|^2 |u|^2."""
    return float(np.sum(u.grid.nodes ** 2 * np.abs(u.values) ** 2 * u.grid.weights))


def radial_momentum(u: Field) -> float:
    """Im of the integral of conj(u) (x . grad u)."""
    du = u.grid.gradient(u.values)
    integrand = np.conj(u.values) * u.grid.nodes * du
    return float(np.sum(np.imag(integrand) * u.grid.weights))


def boundary_mass_fraction(u: Field) -> float:
    """Fraction of the mass in the outer ``BOUNDARY_SHELL`` of the domain."""
    x = np.abs(u.grid.nodes)
    cutoff = (1.0 - BOUNDARY_SHELL) * u.grid.extent
    m = np.abs(u.values) ** 2 * u.grid.weights
    total = m.sum()
    return float(m[x >= cutoff].sum() / total) if total > 0 else 0.0


# ---------------------------------------------------------------------------
# window integrals


def _window_integral(u: Field, p: float, center, radius: float):
    """Integral of |u|^p over {|x - center| <= radius} from the cumulative sum
    at cell edges, interpolated in the coordinate where cell density is
    constant.  ``center`` may be an array of line centers.  A half-grid field
    is unfolded first, so its window is the whole even field's."""
    if not radius > 0:
        raise ValidationError(f"radius must be positive, got {radius}")
    u = unfold(u)
    g = u.grid
    cum = np.concatenate([[0.0], np.cumsum(np.abs(u.values) ** p * g.weights)])
    if g.geometry == "line":
        coord = (np.arange(g.n + 1) - g.n / 2) * g.spacing     # ``core.line_grid``'s edges
        return np.interp(center + radius, coord, cum) - np.interp(center - radius, coord, cum)
    if abs(center) > 1e-12:
        raise ValidationError("radial geometry supports origin-centered windows only")
    faces = np.arange(g.n + 1) * g.spacing                      # ``core.radial_grid``'s edges
    return np.interp(min(radius, g.extent) ** g.dim, faces ** g.dim, cum)


def concentrated_mass(u: Field, center: float, radius: float) -> float:
    """Mass inside {|x - center| <= radius}, boundary cell fractionally weighted."""
    if 0 < radius < u.grid.spacing:
        warnings.warn(
            f"window radius {radius:g} is below one cell ({u.grid.spacing:g}); "
            "returning the single-cell estimate",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(_window_integral(u, 2.0, center, radius))


def sup_concentrated_mass(u: Field, radius: float) -> tuple[float, float]:
    """Largest window mass over all grid-centered windows, with its center.

    Exact over grid centers on the line (prefix sums), and on a half grid
    over its centers x > 0, the mirrors of the whole even field's; radial
    geometry returns the origin window, where radial collapse concentrates.
    """
    g = u.grid
    if g.geometry == "radial":
        return float(_window_integral(u, 2.0, 0.0, radius)), 0.0
    vals = _window_integral(u, 2.0, g.nodes, radius)
    j = int(np.argmax(vals))
    return float(vals[j]), float(g.nodes[j])


def lp_norm(u: Field, p: float, region: tuple[float, float] | None = None) -> float:
    """L^p norm, optionally restricted to a ball (center, radius).

    Non-integer p is fine; zero cells contribute nothing.
    """
    if not p >= 1:
        raise ValidationError(f"p must be >= 1, got {p}")
    if region is None:
        total = float(np.sum(np.abs(u.values) ** p * u.grid.weights))
    else:
        total = float(_window_integral(u, p, *region))
    return total ** (1.0 / p)


__all__ = [
    "mass", "potential", "energy", "energy_scale", "grad_norm_sq",
    "variance", "radial_momentum", "boundary_mass_fraction",
    "concentrated_mass", "sup_concentrated_mass", "lp_norm",
]
