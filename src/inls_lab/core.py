"""Problem parameters, spatial grids, complex fields, and the operator layer.

Two discretizations are supported:

* ``line`` -- the whole real line periodized on [-L, L] with n cell-centered
  nodes; every operator is an exact Fourier multiplier on one transform of
  the complex-cast values.  An exactly even field on an even n is stored on
  ``even_grid``, the line's half grid (``Grid.half``, its n/2 cells x > 0,
  weighted 2 dx), as a cosine series: the one spectral path takes its
  orthonormal DCT-II for the FFT, the same multipliers act on it, and every
  quadrature is the whole field's.  The gradient, which is odd, has no cosine
  form and raises there.  ``mirror`` makes a line field exactly even,
  ``fold`` takes an even field onto the half grid and ``unfold`` mirrors it
  back; no other module reads the half's layout.
* ``radial`` -- radially symmetric fields on (0, Rmax] in dimension N >= 2,
  discretized by a flux-form (finite-volume) Laplacian on n cell-centered
  shells, whose face data (``face_alpha``, ``surf``) only this module reads.
  The zero-flux face at r = 0 realizes the even reflection condition; a
  ghost value -u[-1] realizes homogeneous Dirichlet at Rmax.

Both grids are cell-centered; the nodes and the singular weight |x|^-b (its exact
cell average, which keeps weighted quadratures second-order accurate) derive from
one array of cell edges.  The line's edges (k - n/2) dx mirror exactly, as do its
nodes and weights, so an analytically even field samples exactly even.

This module owns the grids, the fields on them and the operator layer (the
differential primitives below: Laplacian, gradient and its quadrature,
Helmholtz solves, free flow, spline sampling); the Laplacian and gradient
quadrature are summation-by-parts companions.  Quadratures and window
integrals (``functionals``) and the mollifiers (``analysis``) read a grid's
nodes, weights and faces directly.  Each grid lazily caches, once and in double
precision, what the operators reuse (k and k^2, the radial Laplacian's factors,
the factorization of 1 - Lap, the recent time steps' linear propagators) as long
as the grid lives (``helmholtz_solver`` gives a caller its own factorization).
A line grid builds a new half grid, with a cache of its own, on each access to
``half``, and keeps no reference to it, so every grid and every field on it
pickles.  A wider input (a longdouble reference) meets these multipliers by
NumPy promotion and keeps its dtype, but in the Helmholtz solves, which round it
to float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, partial

import numpy as np
import scipy.fft
from scipy.linalg import lapack

from .errors import ValidationError

try:    # scipy.fft's pocketfft DCT pair without the ~4 us backend dispatch of each call
    from scipy.fft._pocketfft import dct as _dct, idct as _idct
except ImportError:     # a SciPy that moved its backend
    _dct, _idct = scipy.fft.dct, scipy.fft.idct

MASS_CRITICAL_TOL = 1e-12


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


@dataclass(frozen=True)
class Grid:
    """Cell-centered spatial grid (line or radial geometry).

    ``weights`` integrates over the full N-dimensional volume: plain dx on
    the line, exact shell volumes A_N * (r_+^N - r_-^N)/N radially, and 2 dx
    on a half grid, whose quadratures are those of the whole even field.
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
    # radial-only face data at the n+1 cell faces: their radii r and r^(N-1)
    faces: np.ndarray | None = field(default=None, repr=False)
    face_alpha: np.ndarray | None = field(default=None, repr=False)
    surf: float = 0.0             # area of the unit sphere A_N (radial)
    full: Grid | None = field(default=None, repr=False)     # the line of a half grid

    @cached_property
    def _operators(self) -> dict:
        """The operator layer's cache for this grid (see the module docstring)."""
        return {}

    @property
    def half(self) -> Grid:
        """The n/2 cells x > 0 of an even-n line grid: even fields' right halves,
        on which every line operator but the (odd) gradient is a cosine series.
        Each access returns a new grid, with an empty operator cache: a caller
        that reuses the half's operators holds on to it.  The half holds its
        line (``full``); the line keeps no reference to the half."""
        if self.geometry != "line" or self.n % 2:
            raise ValidationError(
                f"half needs an even-n line grid, got {self.geometry} n={self.n}")
        m = self.n // 2
        return Grid("half_line", 1, self.extent, m, self.b, self.nodes[m:],
                    2.0 * self.weights[m:], self.weight_b[m:], self.spacing, full=self)


MIN_CELLS = 8        # the fewest cells either grid constructor accepts


def line_grid(half_width: float, n: int, b: float = 0.0) -> Grid:
    """Periodized line [-L, L] (dim = 1) cut at the n + 1 edges (k - n/2) dx, whose
    midpoints (the nodes) and |x|^-b averages (``weight_b``) mirror to the last bit."""
    if not (0 < half_width < math.inf and n >= MIN_CELLS):
        raise ValidationError(
            f"need finite half_width > 0 and n >= {MIN_CELLS}, got {half_width}, {n}")
    if not 0.0 <= b < 1.0:
        raise ValidationError(f"line geometry needs 0 <= b < 1 for integrability, got b={b}")
    dx = 2.0 * half_width / n
    edges = (np.arange(n + 1) - n / 2) * dx
    if b == 0.0:
        wb = np.ones(n)
    else:           # exact cell averages of |x|^-b from the antiderivative sign(x)|x|^(1-b)
        F = np.sign(edges) * np.abs(edges) ** (1 - b)
        wb = (F[1:] - F[:-1]) / ((1 - b) * dx)
    return Grid(
        geometry="line", dim=1, extent=float(half_width), n=int(n), b=float(b),
        nodes=0.5 * (edges[:-1] + edges[1:]), weights=np.full(n, dx), weight_b=wb, spacing=dx,
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

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(values, self.grid, self.params)


def even_grid(grid: Grid) -> Grid:
    """The grid an even field on ``grid`` is stored on: an even-n line's half
    grid, where it is a cosine series, or ``grid`` itself."""
    return grid.half if grid.geometry == "line" and grid.n % 2 == 0 else grid


def mirror(grid: Grid, values: np.ndarray) -> np.ndarray:
    """``values`` made exactly even on a line, in place: each x < 0 cell takes its
    x > 0 mirror (an odd n's middle cell stays), as ``fold``'s evenness test
    accepts; on a half or radial grid, ``values`` unchanged."""
    if grid.geometry == "line":
        values[:grid.n // 2] = values[:(grid.n - 1) // 2:-1]
    return values


def fold(u: Field) -> Field:
    """An exactly even field on an even-n line as its right half on the half
    grid; any other field (a NaN is unequal to its mirror) as it is.  The
    evenness test comes first: no half grid is built for a field that stays."""
    v = u.values
    half = even_grid(u.grid) if np.array_equal(v, v[::-1]) else u.grid
    return u if half is u.grid else Field(v[u.grid.n // 2:], half, u.params)


def unfold(u: Field) -> Field:
    """The whole, exactly even line field of a half-grid field; any other as it is."""
    if u.grid.full is None:
        return u
    return Field(np.concatenate((u.values[::-1], u.values)), u.grid.full, u.params)


# ---------------------------------------------------------------------------
# operator layer


def _cached(grid: Grid, key, build):
    ops = grid._operators
    if key not in ops:
        ops[key] = build()
    return ops[key]


def _wavenumbers(grid: Grid) -> np.ndarray:
    """The line's wavenumbers k (FFT order; a half grid's pi m / L, m < n/2)."""
    n = grid.n if grid.full is None else grid.full.n
    return _cached(grid, "k", lambda: 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)[:grid.n])


def _wavenumbers_sq(grid: Grid) -> np.ndarray:
    return _cached(grid, "k2", lambda: _wavenumbers(grid) ** 2)


def _radial_flux_factors(grid: Grid):
    """alpha / dr at the n outer cell faces and the reciprocal shell volumes, in
    float64 (a multiply, as NumPy's complex-by-real division does not round as the real)."""
    return _cached(grid, "flux", lambda: (grid.face_alpha[1:] / grid.spacing,
                                          grid.surf / grid.weights))


def _radial_lap_bands(grid: Grid):
    """Sub/diag/super of ``apply_radial_lap``'s tridiagonal, for gttrf, each written once."""
    a, inv_vol = _radial_flux_factors(grid)
    dg = np.negative(a)                              # no flux at r = 0
    dg[1:] -= a[:-1]
    dg[-1] = -(2.0 * a[-1] + a[-2])                  # Dirichlet ghost -u[-1]
    dg *= inv_vol
    return a[:-1] * inv_vol[1:], dg, a[:-1] * inv_vol[:-1]


def _factor_one_minus_zlap(grid: Grid, z, shift=None):
    """LAPACK gttrf factors of the radial float64 tridiagonal 1 - z Lap - shift
    (zgttrf for complex z; a real z scales the bands in place), as plain arrays for
    ``_tridiag_solve``.  A float64 ``shift`` array is overwritten: the factors are
    built in its buffer."""
    lo, d, up = (np.multiply(band, -z, out=None if np.iscomplexobj(z) else band)
                 for band in _radial_lap_bands(grid))
    d += 1.0                                         # 1 + (-z) dg is 1 - z dg to the bit
    if shift is not None:
        d = np.subtract(d, shift, out=shift)
    *lu, info = (lapack.zgttrf if np.iscomplexobj(d) else lapack.dgttrf)(
        lo, d, up, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info:
        raise np.linalg.LinAlgError(f"singular tridiagonal system (gttrf info={info})")
    return lu


def _tridiag_solve(lu, rhs: np.ndarray) -> np.ndarray:
    d = lu[1]
    gttrs = lapack.zgttrs if np.iscomplexobj(d) else lapack.dgttrs
    return gttrs(*lu, np.asarray(rhs, dtype=d.dtype))[0]


def _forward(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The line operators' one transform: the FFT of the complex-cast values (so a
    real array rounds as its complex cast), the orthonormal DCT-II on a half grid."""
    if grid.geometry == "half_line":
        return _cosine_transform(_dct, values)
    return scipy.fft.fft(np.asarray(values, dtype=np.result_type(values.dtype, np.complex64)))


def _inverse(grid: Grid, coeffs: np.ndarray, like: np.ndarray) -> np.ndarray:
    """The inverse of ``_forward``; real values when ``like`` is real."""
    out = (_cosine_transform(_idct, coeffs) if grid.geometry == "half_line"
           else scipy.fft.ifft(coeffs))
    return out if np.iscomplexobj(like) else out.real


def _apply_symbol(grid: Grid, symbol: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The line operator with multiplier ``symbol`` applied to ``values``, on
    their Fourier (on a half grid, cosine) series; real input gives real output."""
    return _inverse(grid, symbol * _forward(grid, values), values)


def _parseval_grad_sq(grid: Grid, spectrum: np.ndarray):
    """Integral of |grad u|^2 from the ``_forward`` transform of u (Parseval)."""
    k2 = _wavenumbers_sq(grid)
    total = np.sum(k2 * (spectrum.real ** 2 + spectrum.imag ** 2)) * grid.spacing
    return 2.0 * total if grid.geometry == "half_line" else total / grid.n


def _cosine_transform(transform, values: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II (``dct``) or its inverse of real values, or of
    complex values on (re, im) columns."""
    if not np.iscomplexobj(values):
        return transform(values, type=2, norm="ortho")
    pairs = np.ascontiguousarray(values).view(values.real.dtype).reshape(-1, 2)
    return transform(pairs, type=2, norm="ortho", axis=0).view(values.dtype)[:, 0]


def apply_radial_lap(grid: Grid, u: np.ndarray) -> np.ndarray:
    """The radial Laplacian in the dtype of ``u`` as a difference of face fluxes,
    u[i+1] - u[i] (exact where neighbours lie within 2x) times alpha / dr."""
    if grid.geometry != "radial":
        raise ValidationError(f"apply_radial_lap needs a radial grid, got {grid.geometry}")
    a, inv_vol = _radial_flux_factors(grid)
    flux = np.empty(u.shape, np.result_type(u, a))
    np.subtract(u[1:], u[:-1], out=flux[:-1])
    flux[-1] = -2.0 * u[-1]                  # Dirichlet ghost -u[-1] at Rmax
    flux *= a
    flux[1:] -= flux[:-1]                    # NumPy buffers the overlap; no flux at r = 0
    flux *= inv_vol
    return flux


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Discrete Laplacian of raw values: exact spectral on the line (a cosine
    series on a half grid), flux-form finite volume radially."""
    if grid.geometry == "radial":
        return apply_radial_lap(grid, values)
    return _apply_symbol(grid, -_wavenumbers_sq(grid), values)


def laplacian(u: Field) -> Field:
    """Discrete Laplacian: exact spectral on the line, flux-form FD radially."""
    return u.with_values(laplacian_values(u.grid, u.values))


def grad_norm_sq_values(grid: Grid, values: np.ndarray, r_min: float = 0.0):
    """Integral of |grad u|^2 in the working precision of ``values``.

    The summation-by-parts companion of ``laplacian_values``: the spectral
    Parseval sum on the line, the face-flux quadrature of the finite-volume
    Laplacian radially (including the Dirichlet wall flux), the cosine
    Parseval sum of the whole even field on a half grid.  ``r_min``
    restricts the radial sum to the faces at or beyond that radius.
    """
    if r_min > 0 and grid.geometry != "radial":
        raise ValidationError("gradient tail integrals require radial geometry (N >= 2), "
                              f"got a {grid.geometry} grid")
    if grid.geometry != "radial":
        return _parseval_grad_sq(grid, _forward(grid, values))
    d = np.diff(values) / grid.spacing
    faces = (grid.face_alpha[1:-1] * np.abs(d) ** 2)[grid.faces[1:-1] >= r_min]
    wall = grid.face_alpha[-1] * 2.0 * np.abs(values[-1]) ** 2 / grid.spacing
    return grid.surf * (np.sum(faces) * grid.spacing + wall)


def gradient_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Node-centered first derivative (spectral on the line, centered radially)."""
    if grid.geometry == "half_line":
        raise ValidationError("an even field's gradient is odd: it has no cosine form on the "
                              "half grid (Grid.half)")
    if grid.geometry == "line":
        return _apply_symbol(grid, 1j * _wavenumbers(grid), values)
    # a multiply, as NumPy's complex-by-real division is, so real and complex round alike
    h = 0.5 / grid.spacing
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) * h
    out[0] = (values[1] - values[0]) * h          # even ghost at r=0
    out[-1] = (-values[-1] - values[-2]) * h      # Dirichlet ghost at Rmax
    return out


def gradient_and_grad_sq(grid: Grid, values: np.ndarray):
    """``gradient_values`` and ``grad_norm_sq_values`` of ``values``, on the line
    from one forward transform."""
    if grid.geometry != "line":
        return gradient_values(grid, values), grad_norm_sq_values(grid, values)
    spectrum = _forward(grid, values)
    return (_inverse(grid, 1j * _wavenumbers(grid) * spectrum, values),
            _parseval_grad_sq(grid, spectrum))


def helmholtz_solve(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve (1 - Laplacian) u = rhs in float64, for any rhs dtype.

    The Fourier multiplier 1/(1 + k^2) on the line (the cosine multiplier on
    a half grid); radially a tridiagonal LAPACK solve with the grid's cached
    factorization.  A longdouble rhs is rounded to float64 (complex128), and
    so is the result.
    """
    rhs = np.asarray(rhs, dtype=np.complex128 if np.iscomplexobj(rhs) else np.float64)
    if grid.geometry != "radial":
        return _apply_symbol(grid, 1.0 / (1.0 + _wavenumbers_sq(grid)), rhs)
    if np.iscomplexobj(rhs):
        return helmholtz_solve(grid, rhs.real) + 1j * helmholtz_solve(grid, rhs.imag)
    lu = _cached(grid, "helmholtz", lambda: _factor_one_minus_zlap(grid, 1.0))
    return _tridiag_solve(lu, rhs)


def helmholtz_solver(grid: Grid):
    """``helmholtz_solve`` on ``grid`` as a function of the rhs, for the phase that holds
    it: radially on a copy of the grid whose cache alone holds the factorization."""
    if grid.geometry != "radial":
        return partial(helmholtz_solve, grid)
    level = replace(grid)
    level._operators["helmholtz"] = _factor_one_minus_zlap(grid, 1.0)
    return partial(helmholtz_solve, level)


def shifted_helmholtz_solve(grid: Grid, rhs: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Solve (1 - Laplacian - shift) u = rhs on a radial grid in float64 for a
    real rhs and a float64 potential ``shift``, as for the Jacobian of the
    ground-state equation (possibly indefinite): the exact tridiagonal system,
    factored in ``shift``'s buffer, which it overwrites.
    """
    if grid.geometry != "radial":
        raise ValidationError(f"shifted_helmholtz_solve needs a radial grid, got {grid.geometry}")
    return _tridiag_solve(_factor_one_minus_zlap(grid, 1.0, shift),
                          np.asarray(rhs, dtype=np.float64))


def _build_propagator(grid: Grid, dt: float):
    """The exact Fourier (on a half grid, cosine) multiplier on the line, the
    zgttrf factors of the Crank-Nicolson matrix 1 - (i dt/2) Lap radially."""
    if grid.geometry != "radial":
        return np.exp(-1j * _wavenumbers_sq(grid) * dt)
    return _factor_one_minus_zlap(grid, 0.5j * dt)


def free_flow(grid: Grid, values: np.ndarray, dt: float, slots: int = 1):
    """Linear Schroedinger flow u -> exp(i dt Lap) u of complex ``values``.

    The exact Fourier multiplier on the line, a Crank-Nicolson (Cayley) step
    radially; both are unitary in the grid inner product, run backward for a
    negative dt, and preserve the discrete |grad u|^2; on a half grid it acts
    on the cosine series of the even field whose right half is ``values``.
    Returns the flowed values and a function of no arguments that takes that
    integral on (the whole field of) ``values``: from the spectrum the flow
    computes anyway on the line, by the face-flux quadrature radially.  A
    caller that does not read the integral pays no sum.  The grid caches the
    propagators of the ``slots`` most recently used dt; a new dt evicts the
    least recently used.
    """
    cache = grid._operators.setdefault("propagators", {})
    prop = cache.pop(dt, None)
    if prop is None:
        while len(cache) >= slots:
            del cache[next(iter(cache))]
        prop = _build_propagator(grid, dt)
    cache[dt] = prop                      # most recently used last
    if grid.geometry != "radial":
        spectrum = _forward(grid, values)     # the complex ``prop`` makes the flow complex
        return _inverse(grid, prop * spectrum, prop), partial(_parseval_grad_sq, grid, spectrum)
    out = _tridiag_solve(prop, values + 0.5j * dt * apply_radial_lap(grid, values))
    return out, partial(grad_norm_sq_values, grid, values)


# ---------------------------------------------------------------------------
# interpolation / rescaling


def _interp_spline(grid: Grid, values: np.ndarray, order: int = 3):
    """Spline evaluator with zero extension; radial data is mirrored through
    r = 0 so near-origin evaluations are well defined."""
    from scipy.interpolate import make_interp_spline   # loaded by the commands that rescale

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


def scaled_sampler(u: Field, order: int = 3):
    """``sample_scaled(u, scale, order)`` as a function of ``scale``, every
    call evaluating the one spline of u built here."""
    ev = _interp_spline(u.grid, u.values, order=order)
    return lambda scale: ev(scale * u.grid.nodes)


def sample_scaled(u: Field, scale: float, order: int = 3) -> np.ndarray:
    """Values of u(scale * x) on u's own grid, zero outside the domain."""
    return scaled_sampler(u, order)(scale)


__all__ = [
    "Regime", "ProblemParams", "make_params", "sigma_star", "b_tilde",
    "Grid", "line_grid", "radial_grid", "grid_for",
    "Field", "even_grid", "mirror", "fold", "unfold",
    "laplacian", "laplacian_values", "gradient_values", "grad_norm_sq_values",
    "gradient_and_grad_sq",
    "helmholtz_solve", "helmholtz_solver", "shifted_helmholtz_solve", "apply_radial_lap",
    "free_flow", "scaled_sampler", "sample_scaled",
]
