"""Problem parameters, spatial grids, complex fields, and the operators.

A grid is its discretization: ``line_grid``, ``radial_grid`` and ``half`` build
one of three private ``Grid`` classes, and every operator is a method of it:

* ``_Line`` -- the real line periodized on [-L, L] with n cell-centered nodes;
  every operator is an exact multiplier on one FFT.
* ``_Half`` -- an even-n line's half grid (``half``: its n/2 cells x > 0,
  weighted 2 dx), where an exactly even field is stored (``even_grid``) as a
  cosine series: the line's multipliers act on the orthonormal DCT-II of its
  right half (both on ``_Spectral``), every quadrature is the whole field's,
  and the gradient, which is odd, raises.  ``mirror`` makes a line field
  exactly even, ``fold`` takes it onto the half grid and ``unfold`` mirrors it
  back; no other module reads the half's layout.
* ``_Radial`` -- radially symmetric fields on (0, Rmax] in dimension N >= 2: a
  flux-form Laplacian on n cell-centered shells from the face data r^(N-1) and
  A_N.  The zero-flux face at r = 0 realizes the even reflection condition; a
  ghost value -u[-1] realizes homogeneous Dirichlet at Rmax.

The operators: ``laplacian`` and its summation-by-parts companion ``grad_sq``,
``gradient`` (with ``gradient_and_grad_sq``), ``convolve``, ``helmholtz_solver``,
``shifted_helmholtz_solve``, ``free_flow``, ``mirror``, ``even_grid`` and the
spline's ``even_extension``; one a geometry lacks raises ValidationError.  A
grid keeps, once and in float64, what its operators reuse (k and k^2, the
radial flux factors, the recent time steps' propagators) in its own
``__dict__``, and nothing that refers back to it: each grid, whose ``half`` is
built anew on each access, is freed by reference counting alone, and every
grid and field pickles.  A wider input (a longdouble reference) meets these
multipliers by NumPy promotion and keeps its dtype, but in the Helmholtz
solves, which round it to float64.

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
from functools import cached_property, partial

import numpy as np
import scipy.fft
from scipy.linalg import lapack

from .errors import NumericsError, ValidationError

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
# grids: each kind of grid is a class that carries its discretization


def _float64(rhs: np.ndarray) -> np.ndarray:
    return np.asarray(rhs, dtype=np.complex128 if np.iscomplexobj(rhs) else np.float64)


@dataclass(frozen=True)
class Grid:
    """Cell-centered spatial grid, whose class is its ``geometry`` ("line",
    "radial" or "half_line", see ``half``) and carries its operators.

    ``weights`` integrates over the full N-dimensional volume: plain dx on
    the line, exact shell volumes A_N * (r_+^N - r_-^N)/N radially, and 2 dx
    on a half grid, whose quadratures are those of the whole even field.
    ``weight_b`` is the exact cell average of |x|^-b used by all weighted
    quadratures, the elliptic solver, and the evolution phase.  This base holds
    the flow's propagator cache, the defaults (the grid as its own even grid,
    ``mirror`` leaving values as they are, the spline mirrored through the
    origin) and the ValidationError of each operator a geometry lacks.
    """

    dim: int
    extent: float                 # half-width L (line) or Rmax (radial)
    n: int
    b: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    weight_b: np.ndarray = field(repr=False)
    spacing: float
    full = None                   # the line of a half grid

    @property
    def half(self) -> Grid:
        """The n/2 cells x > 0 of an even-n line grid: even fields' right halves,
        on which every line operator but the (odd) gradient is a cosine series.
        Each access returns a new grid, with operator caches of its own: a caller
        that reuses the half's operators holds on to it.  The half holds its
        line (``full``); the line keeps no reference to the half."""
        raise ValidationError(f"half needs an even-n line grid, got {self.geometry} n={self.n}")

    def even_grid(self) -> Grid:
        """The grid an even field on this grid is stored on: an even-n line's half
        grid, where it is a cosine series, or the grid itself."""
        return self

    def mirror(self, values: np.ndarray) -> np.ndarray:
        """``values`` made exactly even on a line, in place: each x < 0 cell takes its
        x > 0 mirror (an odd n's middle cell stays), as ``fold``'s evenness test
        accepts; on a half or radial grid, ``values`` unchanged."""
        return values

    def even_extension(self, values):
        """The spline's nodes and values: mirrored through the origin."""
        return (np.concatenate([-self.nodes[::-1], self.nodes]),
                np.concatenate([values[::-1], values]))

    def gradient_and_grad_sq(self, values):
        """``gradient`` and ``grad_sq`` of ``values``, on the line from one forward transform."""
        return self.gradient(values), self.grad_sq(values)

    def convolve(self, _kernel, _values):
        raise ValidationError(f"convolve needs a line grid, got {self.geometry}")

    def shifted_helmholtz_solve(self, _rhs, _shift):
        raise ValidationError(f"shifted_helmholtz_solve needs a radial grid, got {self.geometry}")

    @cached_property
    def _propagators(self):
        return {}                 # dt -> propagator, the least recently used first

    def free_flow(self, values: np.ndarray, dt: float, slots: int = 1):
        """Linear Schroedinger flow u -> exp(i dt Lap) u of complex ``values``: the exact
        multiplier on the line, a Crank-Nicolson (Cayley) step radially; unitary in
        the grid inner product, backward for a negative dt, preserving the discrete
        |grad u|^2.  Returns the flowed values and a function of no arguments that
        takes that integral on (the whole field of) ``values``, on the line from the
        spectrum the flow computes anyway, so a caller that does not read it pays no
        sum.  The grid keeps the propagators of the ``slots`` most recently used dt."""
        prop = self._propagators.pop(dt, None)
        if prop is None:
            while len(self._propagators) >= slots:
                del self._propagators[next(iter(self._propagators))]
            prop = self.propagator(dt)
        self._propagators[dt] = prop
        return self._flow(prop, values, dt)


class _Spectral(Grid):
    """Exact multipliers on one transform, ``_forward`` (inverted by
    ``_backward``), with the line's k and k^2 built once."""

    @cached_property
    def k(self):
        """The line's wavenumbers (FFT order; a half grid's pi m / L, m < n/2)."""
        return 2.0 * np.pi * np.fft.fftfreq((self.full or self).n, d=self.spacing)[:self.n]

    @cached_property
    def k2(self):
        return self.k ** 2

    def _inverse(self, coeffs, like):
        out = self._backward(coeffs)
        return out if np.iscomplexobj(like) else out.real

    def _apply(self, symbol, values):
        return self._inverse(symbol * self._forward(values), values)

    def parseval(self, spectrum):
        """Integral of |grad u|^2 from the ``_forward`` transform of u."""
        return self._whole(np.sum(self.k2 * (spectrum.real ** 2 + spectrum.imag ** 2))
                           * self.spacing)

    def laplacian(self, values):
        """Discrete Laplacian of raw values, in their dtype."""
        return self._apply(-self.k2, values)

    def grad_sq(self, values, r_min=0.0):
        """Integral of |grad u|^2 in the working precision of ``values``, the
        summation-by-parts companion of ``laplacian`` (radially with the
        Dirichlet wall flux; on a half grid the whole even field's).  ``r_min``
        restricts the radial sum to the faces at or beyond that radius."""
        if r_min > 0:
            raise ValidationError("gradient tail integrals require radial geometry (N >= 2), "
                                  f"got a {self.geometry} grid")
        return self.parseval(self._forward(values))

    def helmholtz_solver(self):
        """(1 - Laplacian) u = rhs as a function of the rhs, solved in float64
        (complex128) for any rhs dtype: a longdouble rhs is rounded to float64.
        Radially with a factorization of its own, which the grid does not keep."""
        return lambda rhs: self._apply(1.0 / (1.0 + self.k2), _float64(rhs))

    def propagator(self, dt):
        return np.exp(-1j * self.k2 * dt)

    def _flow(self, prop, values, _dt):
        spectrum = self._forward(values)        # the complex ``prop`` makes the flow complex
        return self._backward(prop * spectrum), partial(self.parseval, spectrum)


class _Line(_Spectral):
    """The real line periodized on [-L, L] with n cell-centered nodes: the FFT of
    the complex-cast values (so a real array rounds as its complex cast)."""

    geometry = "line"

    def _forward(self, values):
        return scipy.fft.fft(np.asarray(values, dtype=np.result_type(values.dtype, np.complex64)))

    def _backward(self, coeffs):
        return scipy.fft.ifft(coeffs)

    def _whole(self, total):
        return total / self.n

    def gradient(self, values):
        """Node-centered first derivative (spectral on the line, centered radially)."""
        return self._apply(1j * self.k, values)

    def gradient_and_grad_sq(self, values):
        spectrum = self._forward(values)
        return self._inverse(1j * self.k * spectrum, values), self.parseval(spectrum)

    def convolve(self, kernel, values):
        """The periodic convolution of ``values`` with ``kernel``, given at the
        FFT-ordered displacements: the product of their Fourier series."""
        return self._apply(self._forward(kernel), values)

    def mirror(self, values):
        values[:self.n // 2] = values[:(self.n - 1) // 2:-1]
        return values

    @property
    def half(self) -> _Half:
        if self.n % 2:
            return super().half
        m = self.n // 2
        return _Half(1, self.extent, m, self.b, self.nodes[m:], 2.0 * self.weights[m:],
                     self.weight_b[m:], self.spacing, full=self)

    def even_grid(self):
        return self if self.n % 2 else self.half

    def even_extension(self, values):
        return self.nodes, values


@dataclass(frozen=True)
class _Half(_Spectral):
    """A line's half grid: the cosine series of the whole even field, the
    orthonormal DCT-II of its right half."""

    full: _Line = field(repr=False)
    geometry = "half_line"

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

    def _whole(self, total):
        return 2.0 * total

    def gradient(self, _values):
        raise ValidationError("an even field's gradient is odd: it has no cosine form on the "
                              "half grid (Grid.half)")


@dataclass(frozen=True)
class _Radial(Grid):
    """Radial shells: the flux-form Laplacian of the face data r^(N-1) and A_N,
    its flux factors built once."""

    face_alpha: np.ndarray = field(repr=False)      # r^(N-1) at the n + 1 faces
    surf: float                                      # A_N
    geometry = "radial"

    @cached_property
    def flux_factors(self):
        """alpha / dr at the n outer cell faces and the reciprocal shell volumes, in
        float64 (a multiply, as NumPy's complex-by-real division does not round as the real)."""
        return self.face_alpha[1:] / self.spacing, self.surf / self.weights

    def bands(self):
        """Sub/diag/super of the Laplacian's tridiagonal, for gttrf, each written once."""
        a, inv_vol = self.flux_factors
        dg = np.negative(a)                              # no flux at r = 0
        dg[1:] -= a[:-1]
        dg[-1] = -(2.0 * a[-1] + a[-2])                  # Dirichlet ghost -u[-1]
        dg *= inv_vol
        return a[:-1] * inv_vol[1:], dg, a[:-1] * inv_vol[:-1]

    def factor(self, z, shift=None):
        """LAPACK gttrf factors of 1 - z Lap - shift (zgttrf for complex z; a real z
        scales the bands in place).  A float64 ``shift`` array is overwritten: the
        factors are built in its buffer."""
        lo, d, up = (np.multiply(band, -z, out=None if np.iscomplexobj(z) else band)
                     for band in self.bands())
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
            return _Radial._solve(lu, rhs.real) + 1j * _Radial._solve(lu, rhs.imag)
        return (lapack.zgttrs if np.iscomplexobj(d) else lapack.dgttrs)(*lu, rhs)[0]

    def laplacian(self, u):
        """The Laplacian in the dtype of ``u`` as a difference of face fluxes,
        u[i+1] - u[i] (exact where neighbours lie within 2x) times alpha / dr."""
        a, inv_vol = self.flux_factors
        flux = np.empty(u.shape, np.result_type(u, a))
        np.subtract(u[1:], u[:-1], out=flux[:-1])
        flux[-1] = -2.0 * u[-1]                  # Dirichlet ghost -u[-1] at Rmax
        flux *= a
        flux[1:] -= flux[:-1]                    # NumPy buffers the overlap; no flux at r = 0
        flux *= inv_vol
        return flux

    def grad_sq(self, values, r_min=0.0):
        d = np.diff(values) / self.spacing
        faces = self.face_alpha[1:-1] * np.abs(d) ** 2
        if r_min > 0:                            # the faces at r_min and beyond
            faces = faces[np.arange(1, self.n) * self.spacing >= r_min]
        wall = self.face_alpha[-1] * 2.0 * np.abs(values[-1]) ** 2 / self.spacing
        return self.surf * (np.sum(faces) * self.spacing + wall)

    def gradient(self, values):
        # a multiply, as NumPy's complex-by-real division is, so real and complex round alike
        h = 0.5 / self.spacing
        out = np.empty_like(values)
        out[1:-1] = (values[2:] - values[:-2]) * h
        out[0] = (values[1] - values[0]) * h          # even ghost at r=0
        out[-1] = (-values[-1] - values[-2]) * h      # Dirichlet ghost at Rmax
        return out

    def helmholtz_solver(self):
        return partial(self._solve, self.factor(1.0))

    def shifted_helmholtz_solve(self, rhs, shift):
        """Solve (1 - Laplacian - shift) u = rhs in float64 for a real rhs and a
        float64 potential ``shift``, as for the (possibly indefinite) Jacobian of
        the ground-state equation: the exact tridiagonal system, factored in
        ``shift``'s buffer, which it overwrites."""
        return self._solve(self.factor(1.0, shift), np.asarray(rhs, dtype=np.float64))

    def propagator(self, dt):
        return self.factor(0.5j * dt)

    def _flow(self, prop, values, dt):
        return (self._solve(prop, values + 0.5j * dt * self.laplacian(values)),
                partial(self.grad_sq, values))


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
    return _Line(
        dim=1, extent=float(half_width), n=int(n), b=float(b),
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
    return _Radial(
        dim=int(dim), extent=float(rmax), n=int(n), b=float(b),
        nodes=nodes, weights=surf * shell, weight_b=wb, spacing=dr,
        face_alpha=edges ** (dim - 1), surf=surf,
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


def fold(u: Field) -> Field:
    """An exactly even field on an even-n line as its right half on the half
    grid; any other field (a NaN is unequal to its mirror) as it is.  The
    evenness test comes first: no half grid is built for a field that stays."""
    v = u.values
    half = u.grid.even_grid() if np.array_equal(v, v[::-1]) else u.grid
    return u if half is u.grid else Field(v[u.grid.n // 2:], half, u.params)


def unfold(u: Field) -> Field:
    """The whole, exactly even line field of a half-grid field; any other as it is."""
    if u.grid.full is None:
        return u
    return Field(np.concatenate((u.values[::-1], u.values)), u.grid.full, u.params)


# ---------------------------------------------------------------------------
# interpolation / rescaling


def _bspline_basis(t: np.ndarray, k: int, x: np.ndarray):
    """The k + 1 B-splines of degree k on the knots ``t`` that do not vanish at
    each of the points ``x``, one row each, and the index of the first, l - k
    for the knot interval t[l] <= x < t[l + 1] (the last nonempty one at the
    right end).  De Boor's BSPLVB recursion (A Practical Guide to Splines,
    1978, ch. X), vectorized over the points in the arithmetic of SciPy's
    ``_deBoor_D`` (BSD-3-Clause), so that it rounds as SciPy does."""
    first = np.searchsorted(t[k + 1:len(t) - k - 1], x, side="right")
    knots = np.empty((2 * k, len(x)))           # row d: t[l + 1 - k + d]
    for d in range(2 * k):
        t[1 + d:].take(first, out=knots[d])
    right, left = knots[k:] - x, x - knots[:k]
    basis, w, saved = np.empty((k + 1, len(x))), np.empty(len(x)), np.empty(len(x))
    basis[0] = 1.0
    for j in range(1, k + 1):
        for r in range(j):
            np.divide(basis[r], np.subtract(knots[k + r], knots[k - j + r], out=w), out=w)
            np.multiply(w, right[r], out=basis[r])
            if r:
                basis[r] += saved
            np.multiply(w, left[k - j + r], out=saved if r < j - 1 else basis[j])
    return basis, first


def _interp_spline(grid: Grid, values: np.ndarray, order: int = 3):
    """Evaluator of the not-a-knot interpolating spline of odd degree ``order``
    through ``values``, zero outside the nodes (radial data mirrored through r = 0).
    SciPy's ``make_interp_spline`` (BSD-3-Clause) bit for bit: its knots, de
    Boor's basis, its banded collocation solve (LAPACK ``dgbsv``) and its
    evaluation order; complex data is one real spline of (re, im) columns."""
    xs, ys = grid.even_extension(values)
    cplx = np.iscomplexobj(ys)
    # a fresh float64 array: dgbsv overwrites it, and a line's extension is ``values``
    rhs = ys.astype(complex if cplx else float).view(float).reshape(len(xs), -1)
    if not np.isfinite(rhs).all():
        raise NumericsError("the spline's data holds non-finite values")
    k, h, n = order, (order + 1) // 2, len(xs)
    t = np.r_[(xs[0],) * (k + 1), xs[h:-h], (xs[-1],) * (k + 1)]
    basis, first = _bspline_basis(t, k, xs)
    # LAPACK band storage: A[i, j] at ab[2k + i - j, j], so row i's entries
    # A[i, first + r] lie 3k apart in the column-major data
    ab = np.zeros((3 * k + 1, n), order="F")
    at, flat = np.arange(2 * k, n + 2 * k) + 3 * k * first, ab.ravel(order="F")
    for r in range(k + 1):
        flat[3 * k * r:][at] = basis[r]
    c, info = lapack.dgbsv(k, k, ab, rhs, overwrite_ab=1, overwrite_b=1)[2:]
    if info:
        raise NumericsError(f"the spline's collocation matrix is singular (dgbsv info {info})")

    def ev(pts):
        out = np.zeros(np.shape(pts) + rhs.shape[1:])
        m = (pts >= xs[0]) & (pts <= xs[-1])
        basis, first = _bspline_basis(t, k, pts[m])
        out[m] = sum(c[r:].take(first, axis=0) * basis[r, :, None] for r in range(k + 1))
        return out.view(complex)[..., 0] if cplx else out[..., 0]

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
    "Field", "fold", "unfold", "scaled_sampler", "sample_scaled",
]
