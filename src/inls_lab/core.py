"""Problem parameters, spatial grids, complex fields, and the operator layer.

Two discretizations are supported:

* ``line`` -- the whole real line periodized on [-L, L] with n cell-centered
  nodes; every operator is an exact Fourier multiplier on one transform of
  the complex-cast values.
* ``radial`` -- radially symmetric fields on (0, Rmax] in dimension N >= 2,
  discretized by a flux-form (finite-volume) Laplacian on n cell-centered
  shells.  The zero-flux face at r = 0 realizes the even reflection
  condition; a ghost value -u[-1] realizes homogeneous Dirichlet at Rmax.

Both grids are cell-centered, so coordinates never hit the origin and the
singular weight |x|^-b stays finite.  The weight is stored as the exact
cell average of |x|^-b, which keeps quadratures of weighted integrands
second-order accurate despite the singularity.

This module owns the grids, the fields on them and the operator layer (the
differential primitives below: Laplacian, gradient and its quadrature,
Helmholtz solves, free flow, spline sampling); the Laplacian and gradient
quadrature are summation-by-parts companions.  Quadratures and window
integrals (``functionals``) and the mollifiers (``analysis``) read a grid's
nodes, weights and faces directly.  Each grid lazily caches what the operators
reuse (k, k^2 and Laplacian bands per dtype, the float64 factorization of
1 - Lap, the recent time steps' linear propagators, the half grid of even line
fields with its own cache) as long as the grid lives.  Operators work in the
dtype of their input, except the Helmholtz solves, which are float64 for any rhs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.fft
from scipy.interpolate import make_interp_spline
from scipy.linalg import lapack

from .errors import ValidationError

MASS_CRITICAL_TOL = 1e-12
MINRES_RTOL = 1e-8      # relative residual of the line's shifted Helmholtz solve


class Regime(Enum):
    MASS_CRITICAL = "mass_critical"
    INTERCRITICAL = "intercritical"
    # s_c < 0 cases, outside the blow-up theory; kept so closed-form NLS
    # solitons (b = 0) and quadrature oracles can exercise the machinery.
    SUBCRITICAL_VALIDATION = "subcritical_validation"


def sigma_star(dim: int, b: float) -> float:
    """Upper admissible nonlinearity power (infinite for dim <= 2)."""
    if dim <= 2:
        return math.inf
    return (2.0 - b) / (dim - 2.0)


def b_tilde(dim: int) -> float:
    """Upper end of the b-range with proven ground-state existence/uniqueness."""
    return dim / 3.0 if dim <= 3 else 2.0


@dataclass(frozen=True)
class ProblemParams:
    dim: int
    sigma: float
    b: float
    s_c: float
    sigma_c: float
    regime: Regime

    @property
    def mass_critical(self) -> bool:
        return self.regime is Regime.MASS_CRITICAL

    @property
    def intercritical(self) -> bool:
        return self.regime is Regime.INTERCRITICAL

    @property
    def proven_regime(self) -> bool:
        """True when (sigma, b) lies in the proven existence/uniqueness range."""
        return 0.0 < self.b < b_tilde(self.dim) and 0.0 < self.sigma < sigma_star(self.dim, self.b)

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "sigma": self.sigma,
            "b": self.b,
            "s_c": self.s_c,
            "sigma_c": self.sigma_c,
            "regime": self.regime.value,
        }


def make_params(dim: int, sigma: float, b: float) -> ProblemParams:
    """Validate (dim, sigma, b) and derive the criticality indices.

    b = 0 is accepted as a validation-only mode so that closed-form NLS
    solitons can serve as solver oracles; every b > 0 run must satisfy
    0 < b < min(2, dim) and sigma below the admissible ceiling.
    """
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValidationError(f"dim must be a positive integer, got {dim!r}")
    if not 0 < sigma < math.inf:
        raise ValidationError(f"sigma must be finite and > 0, got {sigma!r}")
    b = float(b)
    sigma = float(sigma)
    if b < 0 or (b != 0.0 and b >= min(2.0, dim)):
        raise ValidationError(
            f"b must lie in (0, min(2, dim)) = (0, {min(2.0, dim)}), got b={b}"
        )
    star = sigma_star(dim, b)
    if dim >= 3 and sigma >= star:
        raise ValidationError(
            f"sigma={sigma} is not below sigma*_b={star} for dim={dim}, b={b}"
        )
    s_c = dim / 2.0 - (2.0 - b) / (2.0 * sigma)
    sigma_c = 2.0 * dim * sigma / (2.0 - b)
    if abs(sigma - (2.0 - b) / dim) < MASS_CRITICAL_TOL:
        regime = Regime.MASS_CRITICAL
    elif 0.0 < s_c < 1.0:
        regime = Regime.INTERCRITICAL
    elif s_c < 0.0:
        regime = Regime.SUBCRITICAL_VALIDATION
    else:
        raise ValidationError(
            f"(dim={dim}, sigma={sigma}, b={b}) gives s_c={s_c}, outside the supported range"
        )
    return ProblemParams(dim=int(dim), sigma=sigma, b=b, s_c=s_c, sigma_c=sigma_c, regime=regime)


# ---------------------------------------------------------------------------
# grids


def _cell_avg_weight_line(n, dx, b):
    # exact cell averages of |x|^-b from the antiderivative sign(x)|x|^(1-b);
    # the edges (k - n/2) dx are exact mirror images, so the weights are
    # symmetric to the last bit, and for odd n the middle cell straddles 0
    if b == 0.0:
        return np.ones(n)
    edges = (np.arange(n + 1) - n / 2) * dx
    F = np.sign(edges) * np.abs(edges) ** (1 - b)
    return (F[1:] - F[:-1]) / ((1 - b) * dx)


@dataclass(frozen=True)
class Grid:
    """Cell-centered spatial grid (line or radial geometry).

    ``weights`` integrates over the full N-dimensional volume: plain dx on
    the line, exact shell volumes A_N * (r_+^N - r_-^N)/N radially.
    ``weight_b`` is the exact cell average of |x|^-b used by all weighted
    quadratures, the elliptic solver, and the evolution phase.
    """

    geometry: str                 # "line" | "radial" | "half_line" (see ``half``)
    dim: int
    extent: float                 # half-width L (line) or Rmax (radial)
    n: int
    b: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    weight_b: np.ndarray = field(repr=False)
    spacing: float = 0.0
    # radial-only face data (r^{N-1} at the n+1 cell faces)
    faces: np.ndarray | None = field(default=None, repr=False)
    face_alpha: np.ndarray | None = field(default=None, repr=False)
    surf: float = 0.0             # area of the unit sphere A_N (radial)
    full: Grid | None = field(default=None, repr=False)     # the line of a half grid

    @cached_property
    def _operators(self) -> dict:
        """The operator layer's cache for this grid (see the module docstring)."""
        return {}

    @cached_property
    def half(self) -> Grid:
        """The n/2 cells x > 0 of an even-n line grid: even fields' right halves."""
        m = self.n // 2
        return Grid("half_line", 1, self.extent, m, self.b, self.nodes[m:], self.weights[m:],
                    self.weight_b[m:], self.spacing, full=self)


MIN_CELLS = 8        # the fewest cells either grid constructor accepts


def line_grid(half_width: float, n: int, b: float = 0.0) -> Grid:
    """Periodized line [-L, L] with n cell-centered nodes (dim = 1)."""
    if not (0 < half_width < math.inf and n >= MIN_CELLS):
        raise ValidationError(
            f"need finite half_width > 0 and n >= {MIN_CELLS}, got {half_width}, {n}")
    if not 0.0 <= b < 1.0:
        raise ValidationError(f"line geometry needs 0 <= b < 1 for integrability, got b={b}")
    dx = 2.0 * half_width / n
    nodes = -half_width + (np.arange(n) + 0.5) * dx
    return Grid(
        geometry="line", dim=1, extent=float(half_width), n=int(n), b=float(b),
        nodes=nodes, weights=np.full(n, dx), weight_b=_cell_avg_weight_line(n, dx, b),
        spacing=dx,
    )


def radial_grid(dim: int, rmax: float, n: int, b: float = 0.0) -> Grid:
    """Radial shells on (0, Rmax] for dim >= 2 with exact volume weights."""
    if dim < 2:
        raise ValidationError("radial geometry requires dim >= 2 (use line_grid for dim=1)")
    if not (0 < rmax < math.inf and n >= MIN_CELLS):
        raise ValidationError(f"need finite rmax > 0 and n >= {MIN_CELLS}, got {rmax}, {n}")
    if not 0.0 <= b < dim:
        raise ValidationError(f"need 0 <= b < dim for integrability, got b={b}")
    dr = rmax / n
    nodes = (np.arange(n) + 0.5) * dr
    edges = np.arange(n + 1) * dr
    surf = 2.0 * np.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    shell = (edges[1:] ** dim - edges[:-1] ** dim) / dim
    if b == 0.0:
        wb = np.ones(n)
    else:
        wb = ((edges[1:] ** (dim - b) - edges[:-1] ** (dim - b)) / (dim - b)) / shell
    return Grid(
        geometry="radial", dim=int(dim), extent=float(rmax), n=int(n), b=float(b),
        nodes=nodes, weights=surf * shell, weight_b=wb, spacing=dr,
        faces=edges, face_alpha=edges ** (dim - 1), surf=surf,
    )


def grid_for(params: ProblemParams, extent: float, n: int) -> Grid:
    """Grid matching the geometry implied by params.dim."""
    if params.dim == 1:
        return line_grid(extent, n, params.b)
    return radial_grid(params.dim, extent, n, params.b)


# ---------------------------------------------------------------------------
# fields


@dataclass
class Field:
    """Complex grid function on a grid built for its params' dim and b."""

    values: np.ndarray
    grid: Grid
    params: ProblemParams

    def __post_init__(self):
        if (self.grid.dim, self.grid.b) != (self.params.dim, self.params.b):
            raise ValidationError(f"grid (dim, b) = {self.grid.dim, self.grid.b} does not "
                                  f"match params {self.params.dim, self.params.b}")
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.n,):
            raise ValidationError(
                f"field length {self.values.shape} does not match grid n={self.grid.n}"
            )

    def copy(self) -> "Field":
        return Field(self.values.copy(), self.grid, self.params)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(values, self.grid, self.params)


# ---------------------------------------------------------------------------
# operator layer


def _cached(grid: Grid, key, build):
    ops = grid._operators
    if key not in ops:
        ops[key] = build()
    return ops[key]


def _wavenumbers(grid: Grid, dtype) -> np.ndarray:
    """The line's wavenumbers k (FFT order; a half grid's pi m / L, m < n/2) in ``dtype``."""
    dtype = np.dtype(dtype)
    if grid.geometry == "half_line":
        return _wavenumbers(grid.full, dtype)[:grid.n]
    return _cached(grid, ("k", dtype),
                   lambda: (2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)).astype(dtype))


def _wavenumbers_sq(grid: Grid, dtype) -> np.ndarray:
    dtype = np.dtype(dtype)
    return _cached(grid, ("k2", dtype), lambda: _wavenumbers(grid, dtype) ** 2)


def _radial_lap_bands(grid: Grid, dtype):
    """Sub/diag/super arrays of the flux-form radial Laplacian."""
    dtype = np.dtype(dtype).type

    def build():
        alpha = grid.face_alpha.astype(dtype)
        vol = (grid.weights / grid.surf).astype(dtype)
        dr = dtype(grid.spacing)
        lo = alpha[1:-1] / (dr * vol[1:])
        up = alpha[1:-1] / (dr * vol[:-1])
        dg = -(alpha[1:] + alpha[:-1]) / (dr * vol)
        dg[-1] = -(2.0 * alpha[-1] + alpha[-2]) / (dr * vol[-1])
        return lo, dg, up

    return _cached(grid, ("bands", dtype), build)


def _factor_one_minus_zlap(grid: Grid, z, shift=None):
    """LAPACK gttrf factors of the radial float64 tridiagonal 1 - z Lap - shift
    (zgttrf for complex z), as plain arrays for ``_tridiag_solve``.  A float64
    ``shift`` array is overwritten: the factors are built in its buffer."""
    lo, dg, up = _radial_lap_bands(grid, np.float64)
    d = 1.0 - z * dg
    if shift is not None:
        d = np.subtract(d, shift, out=shift)
    *lu, info = (lapack.zgttrf if np.iscomplexobj(d) else lapack.dgttrf)(
        -z * lo, d, -z * up, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info:
        raise np.linalg.LinAlgError(f"singular tridiagonal system (gttrf info={info})")
    return lu


def _tridiag_solve(lu, rhs: np.ndarray) -> np.ndarray:
    d = lu[1]
    gttrs = lapack.zgttrs if np.iscomplexobj(d) else lapack.dgttrs
    return gttrs(*lu, np.asarray(rhs, dtype=d.dtype))[0]


def _spectrum(values: np.ndarray) -> np.ndarray:
    """FFT of the complex-cast values, the one forward transform on the line:
    every line operator is a multiplier on it, so a real array and its complex
    cast round alike, and the multipliers read k, k^2 from the per-dtype cache."""
    return scipy.fft.fft(np.asarray(values, dtype=np.result_type(values.dtype, np.complex64)))


def _apply_symbol(symbol: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The line operator with Fourier multiplier ``symbol`` applied to
    ``values``; real input gives the real part, in its own dtype."""
    out = scipy.fft.ifft(symbol * _spectrum(values))
    return out if np.iscomplexobj(values) else out.real


def _parseval_grad_sq(grid: Grid, spectrum: np.ndarray):
    """Integral of |grad u|^2 on the line from the spectrum of u (Parseval)."""
    k2 = _wavenumbers_sq(grid, spectrum.real.dtype)
    total = np.sum(k2 * (spectrum.real ** 2 + spectrum.imag ** 2)) * grid.spacing
    return 2.0 * total if grid.geometry == "half_line" else total / grid.n


def _cosine_transform(transform, values: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II (``dct``) or its inverse of complex values, on (re, im) columns."""
    pairs = np.ascontiguousarray(values).view(values.real.dtype).reshape(-1, 2)
    return transform(pairs, type=2, norm="ortho", axis=0).view(values.dtype)[:, 0]


def apply_radial_lap(grid: Grid, u: np.ndarray) -> np.ndarray:
    lo, dg, up = _radial_lap_bands(grid, u.real.dtype)
    out = dg * u
    out[1:] = out[1:] + lo * u[:-1]
    out[:-1] = out[:-1] + up * u[1:]
    return out


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Discrete Laplacian of raw values: exact spectral on the line,
    flux-form finite volume radially."""
    if grid.geometry == "radial":
        return apply_radial_lap(grid, values)
    return _apply_symbol(-_wavenumbers_sq(grid, values.real.dtype), values)


def laplacian(u: Field) -> Field:
    """Discrete Laplacian: exact spectral on the line, flux-form FD radially."""
    return u.with_values(laplacian_values(u.grid, u.values))


def grad_norm_sq_values(grid: Grid, values: np.ndarray, r_min: float = 0.0):
    """Integral of |grad u|^2 in the working precision of ``values``.

    The summation-by-parts companion of ``laplacian_values``: the spectral
    Parseval sum on the line, the face-flux quadrature of the finite-volume
    Laplacian radially (including the Dirichlet wall flux).  ``r_min``
    restricts the radial sum to the faces at or beyond that radius.
    """
    if grid.geometry == "line":
        if r_min > 0:
            raise ValidationError("gradient tail integrals require radial geometry (N >= 2)")
        return _parseval_grad_sq(grid, _spectrum(values))
    d = np.diff(values) / grid.spacing
    faces = (grid.face_alpha[1:-1] * np.abs(d) ** 2)[grid.faces[1:-1] >= r_min]
    wall = grid.face_alpha[-1] * 2.0 * np.abs(values[-1]) ** 2 / grid.spacing
    return grid.surf * (np.sum(faces) * grid.spacing + wall)


def gradient_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Node-centered first derivative (spectral on the line, centered radially)."""
    if grid.geometry == "line":
        return _apply_symbol(1j * _wavenumbers(grid, values.real.dtype), values)
    # a multiply, as NumPy's complex-by-real division is, so real and complex round alike
    h = 0.5 / values.real.dtype.type(grid.spacing)
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) * h
    out[0] = (values[1] - values[0]) * h          # even ghost at r=0
    out[-1] = (-values[-1] - values[-2]) * h      # Dirichlet ghost at Rmax
    return out


def helmholtz_solve(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve (1 - Laplacian) u = rhs in float64, for any rhs dtype.

    The Fourier multiplier 1/(1 + k^2) on the line; radially a tridiagonal
    LAPACK solve with the grid's cached factorization.  A longdouble rhs is
    rounded to float64 (complex128), and so is the result.
    """
    rhs = np.asarray(rhs, dtype=np.complex128 if np.iscomplexobj(rhs) else np.float64)
    if grid.geometry == "line":
        return _apply_symbol(1.0 / (1.0 + _wavenumbers_sq(grid, np.float64)), rhs)
    if np.iscomplexobj(rhs):
        return helmholtz_solve(grid, rhs.real) + 1j * helmholtz_solve(grid, rhs.imag)
    lu = _cached(grid, "helmholtz", lambda: _factor_one_minus_zlap(grid, 1.0))
    return _tridiag_solve(lu, rhs)


def shifted_helmholtz_solve(grid: Grid, rhs: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Solve (1 - Laplacian - shift) u = rhs in float64 for a real rhs and a
    float64 potential ``shift``, as for the Jacobian of the ground-state
    equation: self-adjoint in the grid inner product, possibly indefinite.

    Radially the exact tridiagonal system, factored in ``shift``'s buffer
    (which it overwrites); on the line MINRES, preconditioned by the SPD
    (1 - Laplacian)^-1 of ``helmholtz_solve`` (J. Yang, J. Comput. Phys. 228,
    2009), to a relative residual of ``MINRES_RTOL``.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if grid.geometry == "radial":
        return _tridiag_solve(_factor_one_minus_zlap(grid, 1.0, shift), rhs)
    from scipy.sparse.linalg import LinearOperator, minres

    def jacobian(u):
        return u - laplacian_values(grid, u) - shift * u

    shape = (grid.n, grid.n)
    return minres(LinearOperator(shape, jacobian, dtype=np.float64), rhs, rtol=MINRES_RTOL,
                  M=LinearOperator(shape, lambda r: helmholtz_solve(grid, r), dtype=np.float64))[0]


def _build_propagator(grid: Grid, dt: float):
    """The exact Fourier (on a half grid, cosine) multiplier on the line, the
    zgttrf factors of the Crank-Nicolson matrix 1 - (i dt/2) Lap radially."""
    if grid.geometry != "radial":
        return np.exp(-1j * _wavenumbers_sq(grid, np.float64) * dt)
    return _factor_one_minus_zlap(grid, 0.5j * dt)


def free_flow(grid: Grid, values: np.ndarray, dt: float, slots: int = 1):
    """Linear Schroedinger flow u -> exp(i dt Lap) u of complex ``values``.

    The exact Fourier multiplier on the line, a Crank-Nicolson (Cayley) step
    radially; both are unitary in the grid inner product, run backward for a
    negative dt, and preserve the discrete |grad u|^2; on a half grid it acts
    on the cosine series of the even field whose right half is ``values``.
    Returns the flowed values and that integral, taken on (the whole field of)
    ``values``: read off the spectrum the flow computes anyway on the line, the
    face-flux quadrature radially.  The grid caches the propagators of the
    ``slots`` most recently used dt; a new dt evicts the least recently used.
    """
    cache = grid._operators.setdefault("propagators", {})
    prop = cache.pop(dt, None)
    if prop is None:
        while len(cache) >= slots:
            del cache[next(iter(cache))]
        prop = _build_propagator(grid, dt)
    cache[dt] = prop                      # most recently used last
    if grid.geometry == "half_line":
        coeffs = _cosine_transform(scipy.fft.dct, values)
        return _cosine_transform(scipy.fft.idct, prop * coeffs), _parseval_grad_sq(grid, coeffs)
    if grid.geometry == "line":
        spectrum = _spectrum(values)
        return scipy.fft.ifft(prop * spectrum), _parseval_grad_sq(grid, spectrum)
    out = _tridiag_solve(prop, values + 0.5j * dt * apply_radial_lap(grid, values))
    return out, grad_norm_sq_values(grid, values)


# ---------------------------------------------------------------------------
# interpolation / rescaling


def _interp_spline(grid: Grid, values: np.ndarray, order: int = 3):
    """Spline evaluator with zero extension; radial data is mirrored through
    r = 0 so near-origin evaluations are well defined."""
    if grid.geometry == "line":
        xs, ys = grid.nodes, values
    else:
        xs = np.concatenate([-grid.nodes[::-1], grid.nodes])
        ys = np.concatenate([values[::-1], values])
    cplx = np.iscomplexobj(ys)
    if cplx:
        # (re, im) as one real two-column spline: SciPy would otherwise factor
        # a complexified copy of the real collocation matrix
        ys = np.ascontiguousarray(ys).view(ys.real.dtype).reshape(len(xs), 2)
    spline = make_interp_spline(xs, ys, k=order)

    def ev(pts):
        out = np.zeros(np.shape(pts) + ys.shape[1:], dtype=spline.c.dtype)
        m = (pts >= xs[0]) & (pts <= xs[-1])
        out[m] = spline(pts[m])
        return out.view(complex)[..., 0] if cplx else out

    return ev


def sample_scaled(u: Field, scale: float, order: int = 3) -> np.ndarray:
    """Values of u(scale * x) on u's own grid, zero outside the domain."""
    ev = _interp_spline(u.grid, u.values, order=order)
    return ev(scale * u.grid.nodes)


__all__ = [
    "Regime", "ProblemParams", "make_params", "sigma_star", "b_tilde",
    "Grid", "line_grid", "radial_grid", "grid_for",
    "Field",
    "laplacian", "laplacian_values", "gradient_values", "grad_norm_sq_values",
    "helmholtz_solve", "shifted_helmholtz_solve", "apply_radial_lap", "free_flow",
    "sample_scaled",
]
