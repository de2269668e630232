"""Problem parameters, spatial grids, complex fields, and the operator layer.

Every grid holds one operator object, its discretization, chosen where the grid
is built; no other module reads it (``Grid._ops``):

* ``_Fourier`` on a ``line`` grid -- the real line periodized on [-L, L] with n
  cell-centered nodes; every operator is an exact multiplier on one FFT.
* ``_Cosine`` on a ``half_line`` grid (``Grid.half``: the n/2 cells x > 0 of an
  even-n line, weighted 2 dx), where an exactly even field is stored
  (``even_grid``) as a cosine series: the same multipliers act on the
  orthonormal DCT-II of its right half, every quadrature is the whole field's,
  and the gradient, which is odd, raises.  ``mirror`` makes a line field
  exactly even, ``fold`` takes it onto the half grid and ``unfold`` mirrors it
  back; no other module reads the half's layout.
* ``_FiniteVolume`` on a ``radial`` grid -- radially symmetric fields on
  (0, Rmax] in dimension N >= 2: a flux-form Laplacian on n cell-centered
  shells from the face data r^(N-1) and A_N, which only it holds.  The
  zero-flux face at r = 0 realizes the even reflection condition; a ghost
  value -u[-1] realizes homogeneous Dirichlet at Rmax.

Each object carries the same operators, which the functions below call: the
Laplacian and its summation-by-parts companion, the |grad u|^2 quadrature; the
gradient; Helmholtz solves; the shifted (Jacobian) solve; the free flow; mirror,
even grid and the spline's even extension.  An operator a geometry lacks raises
ValidationError.  The object keeps, once and in float64, what its operators
reuse (k and k^2, the radial flux factors, the factorization of 1 - Lap, the
recent time steps' propagators) as long as its grid lives (``helmholtz_solver``
gives a caller its own factorization), and holds no reference to the grid, so
each grid, whose ``half`` is built anew on each access, is freed by reference
counting alone, and every grid and field pickles.  A wider input (a longdouble
reference) meets these multipliers by NumPy promotion and keeps its dtype, but
in the Helmholtz solves, which round it to float64.

Both grids are cell-centered; the nodes and the singular weight |x|^-b (its exact
cell average, which keeps weighted quadratures second-order accurate) derive from
one array of cell edges.  The line's edges (k - n/2) dx mirror exactly, as do its
nodes and weights, so an analytically even field samples exactly even.
Quadratures and window integrals (``functionals``) and the mollifiers
(``analysis``) read a grid's nodes, weights and spacing directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

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
    spacing: float
    _ops: _Operators = field(repr=False, compare=False)     # the grid's discretization
    full: Grid | None = field(default=None, repr=False)     # the line of a half grid

    @property
    def half(self) -> Grid:
        """The n/2 cells x > 0 of an even-n line grid: even fields' right halves,
        on which every line operator but the (odd) gradient is a cosine series.
        Each access returns a new grid, with operator caches of its own: a caller
        that reuses the half's operators holds on to it.  The half holds its
        line (``full``); the line keeps no reference to the half."""
        return self._ops.half(self)


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
        _ops=_Fourier(),
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
        _ops=_FiniteVolume(edges ** (dim - 1), surf),
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
    return grid._ops.even_grid(grid)


def mirror(grid: Grid, values: np.ndarray) -> np.ndarray:
    """``values`` made exactly even on a line, in place: each x < 0 cell takes its
    x > 0 mirror (an odd n's middle cell stays), as ``fold``'s evenness test
    accepts; on a half or radial grid, ``values`` unchanged."""
    return grid._ops.mirror(grid, values)


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
# operator layer: one object per geometry


def _float64(rhs: np.ndarray) -> np.ndarray:
    return np.asarray(rhs, dtype=np.complex128 if np.iscomplexobj(rhs) else np.float64)


class _Operators:
    """What every discretization shares: the propagators of the ``slots`` most
    recently used dt; by default, the grid as its own even grid, ``mirror``
    leaving values as they are and the spline mirrored through the origin;
    and the ValidationError of each operator a geometry lacks."""

    def __init__(self):
        self._propagators = {}        # dt -> propagator, the least recently used first

    def _recent(self, grid, dt, slots):
        prop = self._propagators.pop(dt, None)
        if prop is None:
            while len(self._propagators) >= slots:
                del self._propagators[next(iter(self._propagators))]
            prop = self.propagator(grid, dt)
        self._propagators[dt] = prop
        return prop

    def gradient_and_grad_sq(self, grid, values):
        return self.gradient(grid, values), self.grad_sq(grid, values)

    def even_grid(self, grid):
        return grid

    def mirror(self, _grid, values):
        return values

    def even_extension(self, grid, values):
        """The spline's nodes and values: mirrored through the origin."""
        return (np.concatenate([-grid.nodes[::-1], grid.nodes]),
                np.concatenate([values[::-1], values]))

    def half(self, grid):
        raise ValidationError(f"half needs an even-n line grid, got {grid.geometry} n={grid.n}")

    def radial_laplacian(self, grid, _u):
        raise ValidationError(f"apply_radial_lap needs a radial grid, got {grid.geometry}")

    def shifted_solve(self, grid, _rhs, _shift):
        raise ValidationError(f"shifted_helmholtz_solve needs a radial grid, got {grid.geometry}")

    def convolve(self, grid, _kernel, _values):
        raise ValidationError(f"convolve needs a line grid, got {grid.geometry}")


class _Spectral(_Operators):
    """Exact multipliers on one transform, ``_forward`` (inverted by
    ``_backward``), with the line's k and k^2 built once."""

    _k = _k2 = None

    def k(self, grid):
        """The line's wavenumbers (FFT order; a half grid's pi m / L, m < n/2)."""
        if self._k is None:
            n = (grid.full or grid).n
            self._k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)[:grid.n]
        return self._k

    def k2(self, grid):
        if self._k2 is None:
            self._k2 = self.k(grid) ** 2
        return self._k2

    def _inverse(self, coeffs, like):
        out = self._backward(coeffs)
        return out if np.iscomplexobj(like) else out.real

    def _apply(self, symbol, values):
        return self._inverse(symbol * self._forward(values), values)

    def parseval(self, grid, spectrum):
        """Integral of |grad u|^2 from the ``_forward`` transform of u."""
        total = np.sum(self.k2(grid) * (spectrum.real ** 2 + spectrum.imag ** 2)) * grid.spacing
        return self._whole(grid, total)

    def laplacian(self, grid, values):
        return self._apply(-self.k2(grid), values)

    def grad_sq(self, grid, values, r_min=0.0):
        if r_min > 0:
            raise ValidationError("gradient tail integrals require radial geometry (N >= 2), "
                                  f"got a {grid.geometry} grid")
        return self.parseval(grid, self._forward(values))

    def helmholtz(self, grid, rhs):
        return self._apply(1.0 / (1.0 + self.k2(grid)), _float64(rhs))

    def helmholtz_solver(self, grid):
        return partial(self.helmholtz, grid)

    def propagator(self, grid, dt):
        return np.exp(-1j * self.k2(grid) * dt)

    def flow(self, grid, values, dt, slots):
        prop = self._recent(grid, dt, slots)
        spectrum = self._forward(values)        # the complex ``prop`` makes the flow complex
        return self._backward(prop * spectrum), partial(self.parseval, grid, spectrum)


class _Fourier(_Spectral):
    """The line: the FFT of the complex-cast values (so a real array rounds as
    its complex cast)."""

    def _forward(self, values):
        return scipy.fft.fft(np.asarray(values, dtype=np.result_type(values.dtype, np.complex64)))

    def _backward(self, coeffs):
        return scipy.fft.ifft(coeffs)

    def _whole(self, grid, total):
        return total / grid.n

    def gradient(self, grid, values):
        return self._apply(1j * self.k(grid), values)

    def gradient_and_grad_sq(self, grid, values):
        spectrum = self._forward(values)
        return self._inverse(1j * self.k(grid) * spectrum, values), self.parseval(grid, spectrum)

    def convolve(self, _grid, kernel, values):
        return self._apply(self._forward(kernel), values)

    def mirror(self, grid, values):
        values[:grid.n // 2] = values[:(grid.n - 1) // 2:-1]
        return values

    def half(self, grid):
        if grid.n % 2:
            return super().half(grid)
        m = grid.n // 2
        return Grid("half_line", 1, grid.extent, m, grid.b, grid.nodes[m:],
                    2.0 * grid.weights[m:], grid.weight_b[m:], grid.spacing, _Cosine(), full=grid)

    def even_grid(self, grid):
        return grid if grid.n % 2 else self.half(grid)

    def even_extension(self, grid, values):
        return grid.nodes, values


class _Cosine(_Spectral):
    """A line's half grid: the cosine series of the whole even field, the
    orthonormal DCT-II of its right half."""

    @staticmethod
    def _transform(transform, values):
        """Orthonormal DCT-II (``_dct``) or its inverse of real values, or of
        complex values on (re, im) columns."""
        if not np.iscomplexobj(values):
            return transform(values, type=2, norm="ortho")
        pairs = np.ascontiguousarray(values).view(values.real.dtype).reshape(-1, 2)
        return transform(pairs, type=2, norm="ortho", axis=0).view(values.dtype)[:, 0]

    def _forward(self, values):
        return self._transform(_dct, values)

    def _backward(self, coeffs):
        return self._transform(_idct, coeffs)

    def _whole(self, _grid, total):
        return 2.0 * total

    def gradient(self, _grid, _values):
        raise ValidationError("an even field's gradient is odd: it has no cosine form on the "
                              "half grid (Grid.half)")


class _FiniteVolume(_Operators):
    """Radial shells: the flux-form Laplacian of the face data r^(N-1) and A_N,
    its flux factors and the gttrf factors of 1 - Lap built once."""

    _flux = _factors = None

    def __init__(self, face_alpha, surf):
        super().__init__()
        self.face_alpha, self.surf = face_alpha, surf      # at the n + 1 faces; A_N

    def flux_factors(self, grid):
        """alpha / dr at the n outer cell faces and the reciprocal shell volumes, in
        float64 (a multiply, as NumPy's complex-by-real division does not round as the real)."""
        if self._flux is None:
            self._flux = self.face_alpha[1:] / grid.spacing, self.surf / grid.weights
        return self._flux

    def bands(self, grid):
        """Sub/diag/super of the Laplacian's tridiagonal, for gttrf, each written once."""
        a, inv_vol = self.flux_factors(grid)
        dg = np.negative(a)                              # no flux at r = 0
        dg[1:] -= a[:-1]
        dg[-1] = -(2.0 * a[-1] + a[-2])                  # Dirichlet ghost -u[-1]
        dg *= inv_vol
        return a[:-1] * inv_vol[1:], dg, a[:-1] * inv_vol[:-1]

    def factor(self, grid, z, shift=None):
        """LAPACK gttrf factors of 1 - z Lap - shift (zgttrf for complex z; a real z
        scales the bands in place).  A float64 ``shift`` array is overwritten: the
        factors are built in its buffer."""
        lo, d, up = (np.multiply(band, -z, out=None if np.iscomplexobj(z) else band)
                     for band in self.bands(grid))
        d += 1.0                                         # 1 + (-z) dg is 1 - z dg to the bit
        if shift is not None:
            d = np.subtract(d, shift, out=shift)
        *lu, info = (lapack.zgttrf if np.iscomplexobj(d) else lapack.dgttrf)(
            lo, d, up, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info:
            raise np.linalg.LinAlgError(f"singular tridiagonal system (gttrf info={info})")
        return lu

    @staticmethod
    def _solve(lu, rhs):
        """The solution by the factors ``lu``, in their dtype; of real factors a
        complex rhs by parts."""
        d, rhs = lu[1], _float64(rhs)
        if np.iscomplexobj(rhs) and not np.iscomplexobj(d):
            return _FiniteVolume._solve(lu, rhs.real) + 1j * _FiniteVolume._solve(lu, rhs.imag)
        return (lapack.zgttrs if np.iscomplexobj(d) else lapack.dgttrs)(*lu, rhs)[0]

    def radial_laplacian(self, grid, u):
        a, inv_vol = self.flux_factors(grid)
        flux = np.empty(u.shape, np.result_type(u, a))
        np.subtract(u[1:], u[:-1], out=flux[:-1])
        flux[-1] = -2.0 * u[-1]                  # Dirichlet ghost -u[-1] at Rmax
        flux *= a
        flux[1:] -= flux[:-1]                    # NumPy buffers the overlap; no flux at r = 0
        flux *= inv_vol
        return flux

    laplacian = radial_laplacian

    def grad_sq(self, grid, values, r_min=0.0):
        d = np.diff(values) / grid.spacing
        faces = self.face_alpha[1:-1] * np.abs(d) ** 2
        if r_min > 0:                            # the faces at r_min and beyond
            faces = faces[np.arange(1, grid.n) * grid.spacing >= r_min]
        wall = self.face_alpha[-1] * 2.0 * np.abs(values[-1]) ** 2 / grid.spacing
        return self.surf * (np.sum(faces) * grid.spacing + wall)

    def gradient(self, grid, values):
        # a multiply, as NumPy's complex-by-real division is, so real and complex round alike
        h = 0.5 / grid.spacing
        out = np.empty_like(values)
        out[1:-1] = (values[2:] - values[:-2]) * h
        out[0] = (values[1] - values[0]) * h          # even ghost at r=0
        out[-1] = (-values[-1] - values[-2]) * h      # Dirichlet ghost at Rmax
        return out

    def helmholtz(self, grid, rhs):
        if self._factors is None:
            self._factors = self.factor(grid, 1.0)
        return self._solve(self._factors, rhs)

    def helmholtz_solver(self, grid):
        return partial(self._solve, self.factor(grid, 1.0))

    def shifted_solve(self, grid, rhs, shift):
        return self._solve(self.factor(grid, 1.0, shift), np.asarray(rhs, dtype=np.float64))

    def propagator(self, grid, dt):
        return self.factor(grid, 0.5j * dt)

    def flow(self, grid, values, dt, slots):
        prop = self._recent(grid, dt, slots)
        return (self._solve(prop, values + 0.5j * dt * self.radial_laplacian(grid, values)),
                partial(self.grad_sq, grid, values))


def apply_radial_lap(grid: Grid, u: np.ndarray) -> np.ndarray:
    """The radial Laplacian in the dtype of ``u`` as a difference of face fluxes,
    u[i+1] - u[i] (exact where neighbours lie within 2x) times alpha / dr."""
    return grid._ops.radial_laplacian(grid, u)


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Discrete Laplacian of raw values, in their dtype."""
    return grid._ops.laplacian(grid, values)


def laplacian(u: Field) -> Field:
    """Discrete Laplacian of a field."""
    return u.with_values(laplacian_values(u.grid, u.values))


def grad_norm_sq_values(grid: Grid, values: np.ndarray, r_min: float = 0.0):
    """Integral of |grad u|^2 in the working precision of ``values``, the
    summation-by-parts companion of ``laplacian_values`` (radially with the
    Dirichlet wall flux; on a half grid the whole even field's).  ``r_min``
    restricts the radial sum to the faces at or beyond that radius."""
    return grid._ops.grad_sq(grid, values, r_min)


def gradient_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Node-centered first derivative (spectral on the line, centered radially)."""
    return grid._ops.gradient(grid, values)


def gradient_and_grad_sq(grid: Grid, values: np.ndarray):
    """``gradient_values`` and ``grad_norm_sq_values`` of ``values``, on the line
    from one forward transform."""
    return grid._ops.gradient_and_grad_sq(grid, values)


def convolve(grid: Grid, kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The periodic convolution on a line of ``values`` with ``kernel``, given at
    the FFT-ordered displacements: the product of their Fourier series."""
    return grid._ops.convolve(grid, kernel, values)


def helmholtz_solve(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve (1 - Laplacian) u = rhs in float64 (complex128), for any rhs dtype:
    a longdouble rhs is rounded to float64.  Radially with the grid's cached
    factorization."""
    return grid._ops.helmholtz(grid, rhs)


def helmholtz_solver(grid: Grid):
    """``helmholtz_solve`` on ``grid`` as a function of the rhs, for the phase that
    holds it: radially with a factorization of its own, which the grid does not keep."""
    return grid._ops.helmholtz_solver(grid)


def shifted_helmholtz_solve(grid: Grid, rhs: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Solve (1 - Laplacian - shift) u = rhs on a radial grid in float64 for a
    real rhs and a float64 potential ``shift``, as for the (possibly indefinite)
    Jacobian of the ground-state equation: the exact tridiagonal system,
    factored in ``shift``'s buffer, which it overwrites."""
    return grid._ops.shifted_solve(grid, rhs, shift)


def free_flow(grid: Grid, values: np.ndarray, dt: float, slots: int = 1):
    """Linear Schroedinger flow u -> exp(i dt Lap) u of complex ``values``: the exact
    multiplier on the line, a Crank-Nicolson (Cayley) step radially; unitary in
    the grid inner product, backward for a negative dt, preserving the discrete
    |grad u|^2.  Returns the flowed values and a function of no arguments that
    takes that integral on (the whole field of) ``values``, on the line from the
    spectrum the flow computes anyway, so a caller that does not read it pays no
    sum.  The grid keeps the propagators of the ``slots`` most recently used dt."""
    return grid._ops.flow(grid, values, dt, slots)


# ---------------------------------------------------------------------------
# interpolation / rescaling


def _interp_spline(grid: Grid, values: np.ndarray, order: int = 3):
    """Spline evaluator with zero extension; radial data is mirrored through
    r = 0 so near-origin evaluations are well defined."""
    from scipy.interpolate import make_interp_spline   # loaded by the commands that rescale

    xs, ys = grid._ops.even_extension(grid, values)
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
    "gradient_and_grad_sq", "convolve",
    "helmholtz_solve", "helmholtz_solver", "shifted_helmholtz_solve", "apply_radial_lap",
    "free_flow", "scaled_sampler", "sample_scaled",
]
