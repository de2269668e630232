"""Post-processing of trajectories: blow-up time and rate fits, mass
concentration windows, rescaled-profile convergence, and the inner/outer
space-frequency decomposition with its critical-norm window series.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Field, convolve, sample_scaled
from .errors import ValidationError
from .evolution import Trajectory
from .ground_state import GroundState
from . import functionals as fn


@dataclass(frozen=True)
class BlowupFit:
    T_hat: float
    exponent: float
    r_squared: float
    window: tuple[float, float]


def estimate_blowup_time(traj: Trajectory, s_c: float) -> BlowupFit:
    """Estimate the blow-up time and rate from the gradient-norm series.

    The lower-bound linearization (grad norm)^(-2/(1-s_c)) is affine in t at
    the minimal rate, so its least-squares t-intercept over the final decade
    of gradient growth seeds the estimate; the estimate is then refined by
    maximizing the log-log fit quality of grad norm against (T - t), which
    also guards faster-than-minimal collapse, where the linearization alone
    lands before the last sample.  The refined fit supplies the exponent.
    """
    from scipy.optimize import minimize_scalar     # loaded by the commands that fit

    ts = traj.times()
    gs = traj.grad_norms()
    if len(ts) < 4:
        raise ValidationError("trajectory too short to fit a blow-up time")
    g_max = gs.max()
    if g_max < 10.0 * gs[0]:
        raise ValidationError(
            "no blow-up regime detected: gradient norm grew by "
            f"{g_max / gs[0]:.2f}x (< 10x)"
        )
    msk = gs >= g_max / 10.0
    t_w, g_w = ts[msk], gs[msk]
    if len(t_w) < 20:
        raise ValidationError(
            f"only {len(t_w)} samples in the final decade of gradient growth (need >= 20)"
        )
    y = g_w ** (-2.0 / (1.0 - s_c))
    slope, intercept = np.polyfit(t_w, y, 1)
    t_last = float(t_w[-1])
    T0 = -intercept / slope if slope < 0 else t_last
    span = t_last - float(t_w[0])
    ly = np.log(g_w)

    def loglog_line(T):         # log grad norm against log(T - t): line, residual
        lx = np.log(T - t_w)
        c = np.polyfit(lx, ly, 1)
        return c, float(np.sum((ly - np.polyval(c, lx)) ** 2))

    hi = max(t_last + 4.0 * span, T0 + span)
    res = minimize_scalar(
        lambda T: loglog_line(T)[1], bounds=(t_last + 1e-12 * max(1.0, t_last), hi),
        method="bounded", options={"xatol": 1e-13},
    )
    T_hat = float(res.x)
    c, ss_res = loglog_line(T_hat)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    return BlowupFit(
        T_hat=T_hat,
        exponent=float(c[0]),
        r_squared=max(0.0, 1.0 - ss_res / ss_tot) if ss_tot > 0 else 0.0,
        window=(float(t_w[0]), t_last),
    )


def rate_exponent_bound(s_c: float) -> float:
    """Largest fitted exponent of |grad u| against (T - t) that still obeys
    the lower-bound blow-up rate: the minimal rate -(1 - s_c)/2 plus a 0.05
    margin for the fit."""
    return -(1.0 - s_c) / 2.0 + 0.05


@dataclass(frozen=True)
class WindowRecord:
    time: float
    radius: float
    value: float          # the window's mass or integral of |u|^sigma_c


def mass_concentration_series(
    traj: Trajectory, alpha: float, fit: BlowupFit
) -> list[WindowRecord]:
    """Window masses sup_y over balls of radius (T_hat - t)^alpha, one record
    per snapshot; every snapshot must precede T_hat.

    The hypothesis lambda(t) * |grad u(t)| -> infinity is the reader's to
    report, from each record's radius and its snapshot's gradient norm.
    """
    if not 0.0 < alpha < 0.5:
        raise ValidationError(f"alpha must lie in (0, 1/2), got {alpha}")
    snaps = traj.snapshots()
    if not snaps:
        raise ValidationError("trajectory holds no field snapshots")
    if not fit.T_hat > snaps[-1].time:
        raise ValidationError(f"T_hat={fit.T_hat!r} does not follow the last snapshot")
    out = []
    for s in snaps:
        lam = (fit.T_hat - s.time) ** alpha
        out.append(WindowRecord(s.time, lam, fn.sup_concentrated_mass(s.snapshot, lam)[0]))
    return out


@dataclass(frozen=True)
class RescaledProfile:
    rho: float             # rescale(u, rho) is the slice compared with Q
    theta: float           # phase maximizing Re<e^{i theta} rescale(u, rho), Q>
    err: float             # relative H1 distance of the aligned slice to Q


def rescale(u: Field, rho: float) -> Field:
    """Scaling-symmetry action: rho^{(2-b)/(2 sigma)} u(rho x) on the same grid.

    Cubic interpolation with zero extension.  Warns when more than 1% of the
    field's mass lives where the shrunk image cannot represent it.
    """
    if not rho > 0:
        raise ValidationError(f"rho must be positive, got {rho}")
    p = u.params
    amp = rho ** ((2.0 - p.b) / (2.0 * p.sigma))
    vals = amp * sample_scaled(u, rho)
    if rho < 1.0:
        total = fn.mass(u)
        if total > 0:
            inside = fn.concentrated_mass(u, 0.0, rho * u.grid.extent)
            lost = 1.0 - inside / total
            if lost > 0.01:
                warnings.warn(
                    f"rescale(rho={rho:g}): {100 * lost:.1f}% of the mass falls "
                    "outside the representable window",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return u.with_values(vals)


def rescaled_profile(u: Field, gs: GroundState) -> RescaledProfile:
    """Rescale u to the ground-state gradient scale and align its phase.

    rho = |grad Q| / |grad u|; err is the relative H1 distance between the
    phase-aligned slice e^{i theta} rescale(u, rho) and Q.
    """
    if not u.params.mass_critical:
        raise ValidationError("rescaled-profile comparison requires mass-critical parameters")
    g_u = fn.grad_norm_sq(u)
    if g_u <= 0:
        raise ValidationError("cannot rescale a field with vanishing gradient")
    rho = math.sqrt(fn.grad_norm_sq(gs.profile) / g_u)
    v = rescale(u, rho)
    q = gs.profile.values
    ip = complex(np.sum(v.values * q * u.grid.weights))
    theta = float(-np.angle(ip)) if ip != 0 else 0.0
    diff = u.with_values(np.exp(1j * theta) * v.values - q)
    h1 = lambda f: math.sqrt(fn.mass(f) + fn.grad_norm_sq(f))
    return RescaledProfile(rho=rho, theta=theta, err=h1(diff) / h1(gs.profile))


# ---------------------------------------------------------------------------
# space/frequency decomposition


def window_radii(u: Field, u0_mass: float):
    """Spatial radius R and frequency radius rho of the concentration windows.

    R = ||u0||^((sigma+2)/(sigma(N-1)+b)) / |grad u|^((2-sigma)/(sigma(N-1)+b)),
    rho = |grad u|^(1/(1-s_c)).
    """
    p = u.params
    if not p.intercritical:
        raise ValidationError("window radii are defined for intercritical parameters")
    if p.sigma >= 2.0:
        raise ValidationError(f"need sigma < 2, got sigma={p.sigma}")
    if p.dim < 2:
        raise ValidationError("window radii require N >= 2")
    g = _grad_norm(fn.grad_norm_sq(u))
    denom = p.sigma * (p.dim - 1) + p.b
    R = math.sqrt(u0_mass) ** ((p.sigma + 2.0) / denom) * g ** (-(2.0 - p.sigma) / denom)
    return R, g ** (1.0 / (1.0 - p.s_c))


def _grad_norm(grad_norm_sq: float) -> float:
    """|grad u|, which the window radii take to a negative power."""
    if not grad_norm_sq > 0:
        raise ValidationError("concentration windows are undefined where |grad u| = 0")
    return math.sqrt(grad_norm_sq)


def smooth_cutoff(s: np.ndarray) -> np.ndarray:
    """Radial cutoff: 1 on [0,1], 0 on [2,inf), cubic smoothstep between."""
    tau = np.clip(np.asarray(s, dtype=float) - 1.0, 0.0, 1.0)
    return 1.0 - 3.0 * tau ** 2 + 2.0 * tau ** 3


def _bump(z2: np.ndarray) -> np.ndarray:
    """Unnormalized mollifier profile (1 - |x|^2)^3 on the unit ball."""
    return np.maximum(1.0 - z2, 0.0) ** 3


def _mollify_line(u1: np.ndarray, grid, rho: float) -> np.ndarray:
    n, dx = grid.n, grid.spacing
    m = np.arange(n)
    disp = ((m + n // 2) % n - n // 2) * dx   # fft-ordered displacements
    kern = _bump((rho * disp) ** 2)     # includes displacement 0, so the sum is >= 1
    return convolve(grid, kern / kern.sum(), u1)


_ANGLE_NODES = 8       # Gauss-Legendre nodes on the bump's angular support


def _mollify_radial(u1: np.ndarray, grid, rho: float) -> np.ndarray:
    """Row-normalized banded kernel from the angular reduction of the
    N-dimensional convolution with the bump, (A + c cos theta)_+^3 at angle
    theta: Gauss-Legendre in theta on its support [0, theta*] only."""
    n, dr, N = grid.n, grid.spacing, grid.dim
    r, w = grid.nodes, grid.weights
    K = int(np.ceil(1.0 / (rho * dr))) + 1
    offs = np.arange(2 * K + 1)
    out = np.zeros_like(u1)
    chunk = max(1, (1 << 16) // offs.size)      # kernel entries built at once
    nodes, weights = np.polynomial.legendre.leggauss(_ANGLE_NODES)
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n))
        jj = np.maximum(idx - K, 0)[:, None] + offs
        valid = jj < n
        jj = np.minimum(jj, n - 1)
        ri, rj = r[idx][:, None], r[jj]
        A = 1.0 - rho ** 2 * (ri ** 2 + rj ** 2)
        c = 2.0 * rho ** 2 * ri * rj
        half = 0.5 * np.arccos(np.clip(-A / c, -1.0, 1.0))    # theta* / 2
        ker = 0.0
        for x, wk in zip(nodes, weights):
            th = half * (1.0 + x)
            weight = wk if N == 2 else wk * np.sin(th) ** (N - 2)     # sin^0 = 1 exactly
            ker = ker + weight * _bump(1.0 - A - c * np.cos(th))
        rows = half * ker * w[jj] * valid
        out[idx] = (rows * u1[jj]).sum(axis=1) / rows.sum(axis=1)
    return out


@dataclass
class DecompositionResult:
    u1L: Field
    u1H: Field
    u2: Field

    def reconstruction_error(self, u: Field) -> float:
        total = self.u1L.values + self.u1H.values + self.u2.values
        num = math.sqrt(fn.mass(u.with_values(total - u.values)))
        den = math.sqrt(fn.mass(u))
        return num / den if den > 0 else num


def decompose(u: Field, R: float, rho_freq: float) -> DecompositionResult:
    """Split u into inner low/high-frequency parts and an outer part.

    u1 = cutoff(|x|/R) u,  u2 = u - u1,  u1L = mollifier_rho * u1,
    u1H = u1 - u1L.  The discrete mollifier rows are normalized to unit sum
    (the grid realization of a unit-integral kernel), so constants are
    reproduced exactly and u1L -> u1 as rho_freq -> infinity.
    """
    if not (R > 0 and rho_freq > 0):
        raise ValidationError("R and rho_freq must be positive")
    if u.grid.geometry == "half_line":
        raise ValidationError("decompose has no mollifier on the half grid (Grid.half): "
                              "decompose the whole line field")
    vals = u.values.astype(complex)
    u1 = smooth_cutoff(np.abs(u.grid.nodes) / R) * vals
    u2 = vals - u1
    if u.grid.geometry == "line":
        u1L = _mollify_line(u1, u.grid, rho_freq)
    else:
        u1L = _mollify_radial(u1, u.grid, rho_freq)
    u1H = u1 - u1L
    return DecompositionResult(u.with_values(u1L), u.with_values(u1H), u.with_values(u2))


WINDOW_MODES = ("fint", "inft")


def sigma_c_window_series(
    traj: Trajectory, mode: str, c0: float = 10.0, c0_tilde: float = 1.0
) -> list[WindowRecord]:
    """Critical-norm window integrals, one record per trajectory snapshot.

    mode "fint": window radius c0^2 |grad u|^(-1/(1-s_c)).
    mode "inft": window radius c0_tilde R, R the spatial-decomposition radius
    of ``window_radii`` (whose preconditions apply).
    """
    if mode not in WINDOW_MODES:
        raise ValidationError(f"mode must be 'fint' or 'inft', got {mode!r}")
    if not (c0 > 0 and c0_tilde > 0):
        raise ValidationError(f"c0 and c0_tilde must be positive, got {c0}, {c0_tilde}")
    snaps = traj.snapshots()
    if not snaps:
        raise ValidationError("trajectory holds no field snapshots")
    p = snaps[0].snapshot.params
    if not p.intercritical:
        raise ValidationError("critical-norm windows require intercritical parameters")
    m0 = traj.initial_mass
    out = []
    for s in snaps:
        if mode == "fint":
            rad = c0 ** 2 * _grad_norm(s.grad_norm_sq) ** (-1.0 / (1.0 - p.s_c))
        else:
            rad = c0_tilde * window_radii(s.snapshot, m0)[0]
        val = fn.lp_norm(s.snapshot, p.sigma_c, region=(0.0, rad)) ** p.sigma_c
        out.append(WindowRecord(s.time, rad, val))
    return out


__all__ = [
    "BlowupFit", "estimate_blowup_time", "rate_exponent_bound",
    "WindowRecord", "mass_concentration_series",
    "RescaledProfile", "rescale", "rescaled_profile",
    "window_radii", "smooth_cutoff", "decompose", "DecompositionResult",
    "WINDOW_MODES", "sigma_c_window_series",
]
