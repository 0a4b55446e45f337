"""The nonlocal mean value kernel, its tabulation and verification.

The kernel is the weighted double integral of the bump profile against the
extension Poisson kernel,

    Phi(x) = int_y int_z phi(z, y) P_|y|(x - z) |y|^a dz dy.

Since P_|y|(x - z) |y|^a = C |y| |X - Z|^(a-n-1) with X = (x, 0) and
phi = kappa eta(|Z|) is radial, writing Z = r omega and integrating over
the sphere of radius r by the distance d = |X - Z| leaves one integral in
d of an inner integral in r (see ``_radial_profile``):

    Phi(rho) = (2 C kappa / rho^n) int_0^{rho+3/4} d^(a-n) G(d) dd.

Its radial derivative gives the gradient components
Psi^i(x) = Phi'(|x|) x_i / |x|.  Both are tabulated on a radial grid and
continued beyond the grid by their power-law tails (exponent n+1-a for Phi,
n+2-a for Psi); one radial convolution engine gives Phi_r * f and grad f.
``phi_direct`` keeps the full vector geometry of the double integral and
serves as the independent check of the table.
"""
from __future__ import annotations

import ast
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .bump import (SUPPORT_HI, SUPPORT_LO, BumpProfile, eta_raw, eta_raw_prime,
                   normalize)
from .errors import TableMismatchError, ToleranceError
from .extension import poisson_constant
from .fraclap import Params, ScalarField
from .quadrature import (angular_rule, gauss_jacobi, gauss_legendre,
                         integrate_ball_weighted, sphere_area, tail_radius)

__all__ = [
    "RadialKernelTable",
    "phi_direct",
    "build_table",
    "phi_r_convolve",
    "gradient_of_solution",
    "psi_component",
    "extension_mean_value",
    "verify_kernel_properties",
    "PropertyCheck",
    "PropertyReport",
    "write_table",
    "read_table",
    "DEFAULT_GRID",
]

RMAX = 16.0  # end of the radial grid

DEFAULT_GRID = {
    "dense_points": 257,   # uniform nodes on [0, 2]
    "geo_points": 128,     # geometric nodes on (2, RMAX]
}

D_JACOBI = 32   # Gauss-Jacobi nodes of the first distance panel (weight d^a)
D_NODES = 64    # Gauss-Legendre nodes of every other distance panel
R_NODES = 64    # Gauss-Legendre nodes of the inner r-integral

DIRECT_ANGULAR = 160        # directions of phi_direct's angular rule (n = 2)
MAXIMAL_RESOLUTION = 64     # ball quadrature of the maximal-domination check


def _y_rule(a: float, panels: int, per: int):
    """Nodes/weights for int_0^{3/4} y^a F(y) dy on dyadic panels toward 0.

    Returns (nodes, weights, eps): the remainder on [0, eps) is handled
    analytically by the caller using F(0).
    """
    breaks = SUPPORT_HI * 2.0 ** -np.arange(panels, -1.0, -1.0)
    nodes, weights = gauss_legendre(per, breaks)
    return nodes, weights * nodes ** a, breaks[0]


def _radial_panels(lo: float, hi: float, h: float, per: int):
    """Gauss nodes on (lo, hi), graded geometrically toward 0 at scale h.

    Resolves the Poisson kernel peak of width h at u = 0; panel widths are
    capped at 1/8 so the bump profile is always resolved.
    """
    coarse = [lo]
    b = h / 4.0
    while b <= lo:
        b *= 2.0
    while b < hi:
        coarse.append(b)
        b *= 2.0
    coarse.append(hi)
    breaks = [coarse[0]]
    for p in coarse[1:]:
        width = p - breaks[-1]
        parts = max(1, math.ceil(width / 0.125))
        start = breaks[-1]
        breaks.extend(start + width * (j + 1) / parts for j in range(parts))
    return gauss_legendre(per, breaks)


def _radial_profile(profile: BumpProfile, C: float, rho: float):
    """(Phi_eta(rho), Phi_{r eta'}(rho)) for rho > 0 by the distance form.

    Phi_g(rho) = (2 C kappa / rho^n) int_0^{rho+3/4} d^(a-n) G_g(d) dd with
    G_g(d) = int g(r) r Q^((n-1)/2) dr over max(|rho-d|, 1/4) < r <
    min(rho+d, 3/4) and Q = (d^2 - (r-rho)^2)((r+rho)^2 - d^2).  The
    d-panels break where an end of the r-range changes; the first one folds
    the weight d^a into a Gauss-Jacobi rule, and r = mid - half*cos(theta)
    removes the square-root end points of Q^(1/2).  Both profiles g = eta
    and g = r eta' share one (d, theta) grid.
    """
    n, a = profile.n, profile.a
    ends = np.array([abs(rho - SUPPORT_LO), abs(rho - SUPPORT_HI),
                     rho + SUPPORT_LO, rho + SUPPORT_HI])
    breaks = np.unique(ends[ends > 0.0])
    d_first, w_first = gauss_jacobi(D_JACOBI, a, breaks[0])
    d_rest, w_rest = gauss_legendre(D_NODES, breaks)
    d = np.concatenate([d_first, d_rest])
    w = np.concatenate([w_first, w_rest * d_rest ** a])

    theta, w_theta = gauss_legendre(R_NODES, (0.0, math.pi))
    lo = np.maximum(np.abs(rho - d), SUPPORT_LO)
    hi = np.minimum(rho + d, SUPPORT_HI)
    half = 0.5 * np.maximum(hi - lo, 0.0)[:, None]  # 0 where the range is empty
    r = 0.5 * (hi + lo)[:, None] - half * np.cos(theta)
    arc = half * np.sin(theta) * w_theta
    vals = (eta_raw(r) * r * arc, r * eta_raw_prime(r) * r * arc)
    if n == 2:
        e = r - rho
        dc = d[:, None]
        q = (dc - e) * (dc + e) * (r + rho - dc) * (r + rho + dc)
        root = np.sqrt(np.maximum(q, 0.0))
        for v in vals:
            v *= root
    scale = 2.0 * C * profile.kappa / rho ** n
    return tuple(scale * float(w @ (v.sum(axis=1) / d ** n)) for v in vals)


def _kernel_values(profile: BumpProfile, C: float, rho: float):
    """(Phi(rho), Phi'(rho)) from the distance form.

    Phi' = ((1 + a) Phi_eta + Phi_{r eta'}) / rho follows from the scaling
    of Phi(rho) = kappa int eta(r) r^a h(rho/r) dr.  At rho = 0,
    Phi(0) = c_n C kappa int eta(r) r^a dr with c_n = int_{S^n} |omega_y|,
    and Phi'(0) = 0.
    """
    if rho == 0.0:
        u, w = gauss_legendre(R_NODES, (SUPPORT_LO, SUPPORT_HI))
        c_n = 4.0 if profile.n == 1 else 2.0 * math.pi
        return c_n * C * profile.kappa * float(w @ (eta_raw(u) * u ** profile.a)), 0.0
    phi, moment = _radial_profile(profile, C, rho)
    return phi, ((1.0 + profile.a) * phi + moment) / rho


def phi_direct(profile: BumpProfile, x) -> float:
    """Kernel value by quadrature in absolute coordinates.

    Keeps the full vector geometry of the defining integral (no radial
    reduction), so rotational symmetry of the result is a genuine numerical
    outcome.  Intended for |x| <= 2.
    """
    n, a = profile.n, profile.a
    C = poisson_constant(n, a)
    x = np.asarray(x, dtype=float).reshape(-1)
    ynodes, yweights, eps = _y_rule(a, 16, 16)
    m = 0.5 * (n + 1.0 - a)
    rho = float(np.linalg.norm(x))
    dirs, ang_w = angular_rule(n, DIRECT_ANGULAR)

    acc = 0.0
    for y, wy in zip(ynodes, yweights):
        s2 = SUPPORT_HI ** 2 - y * y
        if s2 <= 0.0:
            continue
        s_y = math.sqrt(s2)
        lo, hi = max(0.0, rho - s_y), rho + s_y
        u, wu = _radial_panels(lo, hi, y, 10)
        pker = C * y ** (1.0 - a) * (u * u + y * y) ** -m
        z = x[None, None, :] + u[:, None, None] * dirs[None, :, :]
        R = np.sqrt((z ** 2).sum(axis=2) + y * y)
        vals = eta_raw(R).sum(axis=1) * ang_w[0]  # the weights are equal
        acc += wy * float((wu * u ** (n - 1) * pker) @ vals)
    rem = eps ** (1.0 + a) / (1.0 + a)
    return 2.0 * profile.kappa * (acc + rem * eta_raw(rho))


class _CubicSpline:
    """Not-a-knot cubic spline through (x, y), as scipy's CubicSpline.

    Two points give the line and three the parabola through them.  Raises
    ValueError unless x is strictly increasing and x, y are finite.
    """

    def __init__(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValueError(f"need 1-d x and y of one length >= 2, got "
                             f"{x.shape} and {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("x and y must be finite")
        dx = np.diff(x)
        if not np.all(dx > 0.0):
            raise ValueError("x must be strictly increasing")
        m = np.diff(y) / dx
        if x.size == 2:
            s = np.array([m[0], m[0]])
        elif x.size == 3:
            q = (m[1] - m[0]) / (x[2] - x[0])
            s = m[0] + q * np.array([-dx[0], dx[0], dx[0] + 2.0 * dx[1]])
        else:
            s = self._slopes(dx, m)
        t = (s[:-1] + s[1:] - 2.0 * m) / dx
        self.x = x
        self.coef = np.stack([t / dx, (m - s[:-1]) / dx - t, s[:-1], y[:-1]])

    @staticmethod
    def _slopes(dx, m):
        # the tridiagonal system for the slopes, with the not-a-knot rows at
        # both ends, solved by elimination without pivoting: every pivot
        # after the first row is dominant
        d0, d1 = dx[0] + dx[1], dx[-1] + dx[-2]
        diag = [dx[1], *(2.0 * (dx[:-1] + dx[1:])), dx[-2]]
        upper = [d0, *dx[:-1]]
        lower = [*dx[1:], d1]
        rhs = [((dx[0] + 2.0 * d0) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / d0,
               *(3.0 * (dx[1:] * m[:-1] + dx[:-1] * m[1:])),
               (dx[-1] ** 2 * m[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * m[-1]) / d1]
        for i in range(1, len(diag)):
            f = lower[i - 1] / diag[i - 1]
            diag[i] -= f * upper[i - 1]
            rhs[i] -= f * rhs[i - 1]
        s = rhs
        s[-1] /= diag[-1]
        for i in range(len(diag) - 2, -1, -1):
            s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
        return np.array(s)

    def __call__(self, r, derivative: bool = False):
        """Values, or first derivatives, at the points of the array r."""
        # piece i spans [x[i], x[i+1]); the end pieces extend outward
        i = np.searchsorted(self.x[1:-1], r, side="right")
        h = r - self.x[i]
        c3, c2, c1, c0 = np.take(self.coef, i, axis=1)
        if derivative:
            return (3.0 * c3 * h + 2.0 * c2) * h + c1
        out = c3 * h
        for c in (c2, c1):
            out += c
            out *= h
        out += c0
        return out


@dataclass
class RadialKernelTable:
    """Tabulated radial profile of the kernel and its derivative."""

    params: Params
    profile: BumpProfile
    rho_grid: np.ndarray
    phi_values: np.ndarray
    psi_profile: np.ndarray
    build_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self._phi_spline = _CubicSpline(self.rho_grid, self.phi_values)
        self._psi_spline = _CubicSpline(self.rho_grid, self.psi_profile)

    @property
    def rmax(self) -> float:
        return float(self.rho_grid[-1])

    def _radial_eval(self, spline, last: float, p: float, rho):
        """Spline inside the grid, last * (rho / rmax)^-p beyond it."""
        rho = np.asarray(rho, dtype=float)
        scalar = rho.ndim == 0
        rho = np.atleast_1d(rho)
        out = np.empty_like(rho)
        inside = rho <= self.rmax
        out[inside] = spline(rho[inside])
        if np.any(~inside):
            out[~inside] = last * (rho[~inside] / self.rmax) ** -p
        return float(out[0]) if scalar else out

    def phi_of(self, rho):
        """Phi at radius rho; power-law tail beyond the grid."""
        return self._radial_eval(self._phi_spline, self.phi_values[-1],
                                 self.params.n + 1.0 - self.params.a, rho)

    def psi_radial_of(self, rho):
        """Phi' at radius rho; power-law tail beyond the grid."""
        return self._radial_eval(self._psi_spline, self.psi_profile[-1],
                                 self.params.n + 2.0 - self.params.a, rho)

    def mass(self) -> float:
        """Surface-weighted integral of the kernel that ``phi_of`` evaluates.

        The cubic pieces are integrated exactly on [0, rmax] and the
        power-law tail beyond it in closed form.
        """
        n, a = self.params.n, self.params.a
        x0, dx = self.rho_grid[:-1], np.diff(self.rho_grid)
        coef = self._phi_spline.coef
        k = np.arange(4.0, 0.0, -1.0)[:, None]  # 1 + the power of each row
        core = coef * dx ** k / k
        if n == 2:  # weight rho = x0 + h on each piece
            core = x0 * core + coef * dx ** (k + 1.0) / (k + 1.0)
        p = n + 1.0 - a
        tail = self.phi_values[-1] * self.rmax ** n / (p - n)
        return sphere_area(n) * (float(core.sum()) + tail)


def build_table(params: Params, grid_spec: dict | None = None) -> RadialKernelTable:
    """Tabulate the kernel on a dense-plus-geometric radial grid.

    ``grid_spec`` overrides entries of DEFAULT_GRID; any other key raises
    ValueError.
    """
    unknown = sorted(set(grid_spec or {}) - set(DEFAULT_GRID))
    if unknown:
        raise ValueError(f"unknown grid keys {unknown}; known: {sorted(DEFAULT_GRID)}")
    grid = {**DEFAULT_GRID, **(grid_spec or {})}
    profile = normalize(params.n, params.a)
    C = poisson_constant(params.n, params.a)
    dense = np.linspace(0.0, 2.0, grid["dense_points"])
    geo = 2.0 * (RMAX / 2.0) ** (
        np.arange(1, grid["geo_points"] + 1) / grid["geo_points"])
    rho_grid = np.concatenate([dense, geo])
    phi = np.empty_like(rho_grid)
    psi = np.empty_like(rho_grid)
    for i, rho in enumerate(rho_grid):
        phi[i], psi[i] = _kernel_values(profile, C, float(rho))
        if not (np.isfinite(phi[i]) and np.isfinite(psi[i])):
            raise ToleranceError(f"kernel evaluation failed at rho={rho}",
                                 math.inf, 0.0)
    table = RadialKernelTable(params=params, profile=profile, rho_grid=rho_grid,
                              phi_values=phi, psi_profile=psi,
                              build_meta=dict(grid))
    table.build_meta["mass_residual"] = float(abs(table.mass() - 1.0))
    return table


def _conv_breaks(r: float, W: float) -> np.ndarray:
    """Panel breaks on (0, W) in the scaled variable w = |x - z| / r.

    Dense on [0, 2] where the kernel lives, then doubling panels; panels
    are additionally capped at width 1/(4r) out to 8/r so that structure
    of the field at unit scale in z stays resolved however small r is.
    """
    breaks = list(np.linspace(0.0, 2.0, 17))
    b = 2.0
    while b < W:
        b = min(b * 2.0, W)
        breaks.append(b)
    cap = 0.25 / r
    fine = [breaks[0]]
    for hi in breaks[1:]:
        lo = fine[-1]
        if lo < 8.0 / r and hi - lo > cap:
            parts = math.ceil((hi - lo) / cap)
            fine.extend(lo + (hi - lo) * (j + 1) / parts for j in range(parts))
        else:
            fine.append(hi)
    return np.asarray(fine)


def _kink_crossings(x, r: float, d, kink_radii) -> list:
    """Scaled radii w where the ray z = x - r w d crosses a kink sphere."""
    out = []
    xd = float(np.dot(x, d))
    x2 = float(np.dot(x, x))
    for c in kink_radii:
        disc = xd * xd - (x2 - c * c)
        if disc < 0.0:
            continue
        root = math.sqrt(disc)
        for wv in ((xd - root) / r, (xd + root) / r):
            if wv > 0.0:
                out.append(wv)
    return out


def _convolve_radial(table: RadialKernelTable, kernel_of, tail_exponent: float,
                     f: ScalarField, x, r: float, tol: float, angular: int,
                     subtract: float = 0.0):
    """Radial convolution int K(w) (f(x - r w) - subtract) dw, per direction.

    The integral beyond the table range is continued by the power-law tail
    of exponent ``tail_exponent`` and truncated at the radius W where the
    declared growth envelope bounds the remainder below ``tol``.  Returns
    the directions d and the weighted integrals along each of them.
    """
    n = table.params.n
    x = np.asarray(x, dtype=float).reshape(-1)
    surf = sphere_area(n)
    rmax = table.rmax
    coef = abs(kernel_of(rmax)) * rmax ** tail_exponent

    # |f - subtract| <= envelope(|x|) + |subtract| + scale (r w)^degree
    p1 = n - tail_exponent  # exponent of the tail integral for a flat envelope
    flat = f.envelope(float(np.linalg.norm(x))) + abs(subtract)
    terms = [(surf * coef * flat, p1)]
    if f.degree > 0:
        terms.append((surf * coef * f.scale * r ** f.degree, p1 + f.degree))
    W = tail_radius(terms, 4.0 * rmax, tol)

    breaks = _conv_breaks(r, W)
    dirs, ang_w = angular_rule(n, angular)
    parts = []
    for d, wa in zip(dirs, ang_w):
        # break the panels where the ray crosses a kink of f
        kinks = [c for c in _kink_crossings(x, r, d, f.kink_radii) if c < W]
        nodes, weights = gauss_legendre(8, np.unique(np.concatenate([breaks, kinks])))
        kern = kernel_of(nodes) * nodes ** (n - 1) * weights
        pts = x[None, :] - r * nodes[:, None] * d[None, :]
        parts.append(wa * float(kern @ (f(pts) - subtract)))
    return dirs, parts


def phi_r_convolve(table: RadialKernelTable, f: ScalarField, x, r: float,
                   tol: float = 1e-5, angular: int = 64) -> float:
    """Mean value convolution (Phi_r * f)(x) with Phi_r(x) = r^-n Phi(x/r)."""
    n, a = table.params.n, table.params.a
    _, parts = _convolve_radial(table, table.phi_of, n + 1.0 - a, f, x, r,
                                tol, angular)
    return float(sum(parts))


def gradient_of_solution(table: RadialKernelTable, f: ScalarField, x,
                         r: float, tol: float = 1e-5,
                         angular: int = 64) -> np.ndarray:
    """Gradient of an s-harmonic f from the kernel-derivative representation.

    Components are (1/r) * integral of (f(z) - f(x)) Psi^i_r(x - z) dz,
    written in the scaled variable w = (x - z)/r.  The mean-zero form keeps
    the integrand small away from x, and the tail beyond the table range is
    continued with the gradient decay exponent n + 2 - a.
    """
    n, a = table.params.n, table.params.a
    x = np.asarray(x, dtype=float).reshape(-1)
    fx = float(f(x[None, :])[0])
    dirs, parts = _convolve_radial(table, table.psi_radial_of, n + 2.0 - a,
                                   f, x, r, tol, angular, subtract=fx)
    grad = np.zeros(n)
    for d, part in zip(dirs, parts):
        grad += part * d
    return grad / r


def psi_component(table: RadialKernelTable, x, i: int):
    """Gradient component Psi^i(x) = Phi'(|x|) x_i / |x| (zero at the origin).

    ``x`` may be a single point or an array of shape (m, n).
    """
    n = table.params.n
    if not 1 <= i <= n:
        raise ValueError(f"component index must be in 1..{n}, got {i}")
    pts = np.asarray(x, dtype=float).reshape(-1, n)
    rho = np.linalg.norm(pts, axis=1)
    out = np.zeros(len(pts))
    away = rho > 0.0
    out[away] = table.psi_radial_of(rho[away]) * pts[away, i - 1] / rho[away]
    return float(out[0]) if np.ndim(x) == 1 else out


def extension_mean_value(profile: BumpProfile, v, x, r: float) -> float:
    """Integral of phi_r(X0 - Z) v(Z) |y|^a, X0 = (x, 0), phi_r = r^-(n+1+a) phi(./r).

    phi_r lives on the shell r/4 < |Z - X0| < 3r/4, where the fixed rule of
    ``integrate_ball_weighted`` (1,024 nodes at n = 1, 9,216 at n = 2)
    evaluates v; on v = 1 it meets unit mass to about 1e-12.
    """
    n, a = profile.n, profile.a
    x = np.asarray(x, dtype=float).reshape(-1)
    X0 = np.concatenate([x, [0.0]])
    scale = r ** -(n + 1.0 + a)

    def integrand(Z):
        return scale * profile.phi((X0[None, :] - Z) / r) * np.asarray(v(Z))

    return integrate_ball_weighted(integrand, X0, r, a)


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""


@dataclass
class PropertyReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self):
        for c in self.checks:
            yield (c.name, "pass" if c.passed else "fail",
                   f"{c.measured:.6e}", f"{c.threshold:.6e}", c.detail)


def _fit_exponent(table: RadialKernelTable, values: np.ndarray) -> float:
    sel = (table.rho_grid >= 2.0) & (table.rho_grid <= table.rmax)
    logs = np.log(np.abs(values[sel]))
    return float(np.polyfit(np.log(table.rho_grid[sel]), logs, 1)[0])


def _grad_psi_sup(table: RadialKernelTable, stride: int = 1) -> float:
    """Bound for sup |grad Psi^i| from the tabulated radial derivative."""
    grid = table.rho_grid[::stride]
    psi = table.psi_profile[::stride]
    spline = _CubicSpline(grid, psi)
    sample = np.linspace(grid[0], grid[-1], 2001)[1:]
    d2 = np.abs(spline(sample, derivative=True))
    ratio = np.abs(spline(sample) / sample)
    return float(np.max(d2 + ratio))


def verify_kernel_properties(table: RadialKernelTable,
                             fields=None) -> PropertyReport:
    """Run the seven structural checks of the kernel and report constants."""
    from .analysis import BallFamily, hl_maximal  # deferred: avoids a cycle
    from .fraclap import make_field

    n, a = table.params.n, table.params.a
    profile = table.profile
    checks = []

    # (a) rotational symmetry, via absolute-coordinate quadrature
    rho0 = 0.5
    if n == 1:
        va = phi_direct(profile, np.array([rho0]))
        vb = phi_direct(profile, np.array([-rho0]))
    else:
        va = phi_direct(profile, rho0 * np.array([1.0, 0.0]))
        ang = 0.576
        vb = phi_direct(profile, rho0 * np.array([math.cos(ang), math.sin(ang)]))
    diff = abs(va - vb) / abs(va)
    checks.append(PropertyCheck("radial_symmetry", diff <= 1e-8, diff, 1e-8))

    # (b) boundedness of (1+rho)^{n+1-a} |Phi|
    pts = np.array([2.0, 4.0, 8.0])
    scaled = (1.0 + pts) ** (n + 1.0 - a) * np.abs(table.phi_of(pts))
    ratios = scaled[1:] / scaled[:-1]
    ok = np.all((ratios >= 0.5) & (ratios <= 2.0)) and np.all(np.isfinite(scaled))
    checks.append(PropertyCheck("decay_bounded", bool(ok), float(np.max(ratios)),
                                2.0, detail=f"min_ratio={np.min(ratios):.3f}"))

    # (c) unit mass
    mass = table.mass()
    checks.append(PropertyCheck("unit_mass", abs(mass - 1.0) <= 1e-4,
                                abs(mass - 1.0), 1e-4))

    # (d) domination by the Hardy-Littlewood maximal function
    if fields is None:
        fields = [make_field("gaussian", n, table.params.s),
                  make_field("ball_poisson", n, table.params.s, seed=1)]
    family = BallFamily(r_min=1e-2, r_max=4.0, ratio=math.sqrt(2.0),
                        resolution=MAXIMAL_RESOLUTION)
    cmax = 0.0
    for f in fields:
        for xi in (0.0, 0.3):
            x = np.full(n, xi)
            mf = hl_maximal(f, x, family)
            sup_conv = max(abs(phi_r_convolve(table, f, x, r, tol=1e-4))
                           for r in (0.05, 0.1, 0.2, 0.4, 0.8))
            cmax = max(cmax, sup_conv / mf)
    checks.append(PropertyCheck("maximal_domination", np.isfinite(cmax),
                                cmax, math.inf,
                                detail="measured constant, no asserted value"))

    # (e) Psi vanishes at the origin and has zero integral
    psi0 = abs(table.psi_profile[0])
    checks.append(PropertyCheck("gradient_zero_at_origin", psi0 <= 1e-6,
                                psi0, 1e-6))
    # tensor-product rule on the cube [-rmax, rmax]^n
    u, wu = gauss_legendre(400 if n == 1 else 120, (-table.rmax, table.rmax))
    cube = np.stack(np.meshgrid(*[u] * n, indexing="ij"), axis=-1).reshape(-1, n)
    wcube = np.prod(np.meshgrid(*[wu] * n, indexing="ij"), axis=0).ravel()
    integral = float(wcube @ psi_component(table, cube, 1))
    # fundamental-theorem consistency ties the independently computed radial
    # derivative back to Phi itself
    u, wu = gauss_legendre(800, (0.0, table.rmax))
    ftc = float(wu @ table.psi_radial_of(u)) \
        - (table.phi_of(table.rmax) - table.phi_of(0.0))
    measured = max(abs(integral), abs(ftc))
    checks.append(PropertyCheck("gradient_zero_mean", measured <= 1e-4,
                                measured, 1e-4,
                                detail=f"ftc_residual={ftc:.2e}"))

    # (f) tail decay exponent of Psi
    target = -(n + 2.0 - a)
    slope = _fit_exponent(table, table.psi_profile)
    checks.append(PropertyCheck("gradient_tail_exponent",
                                abs(slope - target) <= 0.1,
                                slope, 0.1, detail=f"target={target}"))

    # (g) boundedness of grad Psi, stable under 2x grid coarsening
    g_full = _grad_psi_sup(table, stride=1)
    g_half = _grad_psi_sup(table, stride=2)
    rel = abs(g_full - g_half) / g_full
    ok = np.isfinite(g_full) and rel <= 0.1
    checks.append(PropertyCheck("gradient_derivative_bounded", bool(ok),
                                g_full, math.inf, detail=f"refine_rel={rel:.3f}"))
    return PropertyReport(checks)


DIGEST_KEY = b"sha256="


def _seal(body: bytes) -> bytes:
    """Last line of a table file: the SHA-256 of every byte above it."""
    return DIGEST_KEY + hashlib.sha256(body).hexdigest().encode() + b"\n"


def write_table(table: RadialKernelTable, path):
    """Plain-text persistence; 17 significant digits, bit-exact round trip.

    The file ends with a digest line, so an edited or cut file is rejected.
    """
    meta = ";".join(f"{k}:{v!r}" for k, v in sorted(table.build_meta.items()))
    lines = [
        f"n={table.params.n}",
        f"a={table.params.a!r}",
        f"s={table.params.s!r}",
        f"kappa={table.profile.kappa!r}",
        f"A={table.profile.A!r}",
        f"grid={len(table.rho_grid)}",
        f"built_with={meta}",
    ]
    for rho, phi, psi in zip(table.rho_grid, table.phi_values, table.psi_profile):
        lines.append(f"{rho:.17g},{phi:.17g},{psi:.17g}")
    body = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(body + _seal(body))


def read_table(path) -> RadialKernelTable:
    """Read a table written by ``write_table``.

    A missing or wrong digest line, a missing header key, a header value or
    row that does not parse, an ``s`` other than (1 - a)/2, or a row count
    other than the header's raises TableMismatchError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    body = data.rpartition(b"\n" + DIGEST_KEY)[0] + b"\n"
    if data != body + _seal(body):
        raise TableMismatchError(f"table {path} has a missing or wrong digest "
                                 "line: it was edited or cut")
    header = {}
    rows = []
    try:
        lines = [ln.strip() for ln in body.decode().splitlines() if ln.strip()]
        for ln in lines:
            if "=" in ln and not ln[0].isdigit() and not ln[0] == "-":
                key, _, val = ln.partition("=")
                header[key] = val
            else:
                row = [float(p) for p in ln.split(",")]
                if len(row) != 3:
                    raise ValueError(f"row {ln!r} is not rho,phi,psi")
                rows.append(row)
        n = int(header["n"])
        a = float(header["a"])
        params = Params(n=n, a=a)
        if float(header["s"]) != params.s:
            raise TableMismatchError(
                f"s={header['s']} is not (1 - a)/2 = {params.s!r}")
        profile = BumpProfile(n=n, a=a, kappa=float(header["kappa"]),
                              A=float(header["A"]))
        if len(rows) != int(header["grid"]):
            raise TableMismatchError(
                f"expected {header['grid']} rows, found {len(rows)}")
        meta = {}
        if header.get("built_with"):
            for item in header["built_with"].split(";"):
                key, _, val = item.partition(":")
                try:
                    meta[key] = ast.literal_eval(val)  # repr round-trip
                except (ValueError, SyntaxError):
                    meta[key] = val
        data = np.asarray(rows).reshape(-1, 3)
        # the spline rejects a radial grid that is not increasing
        return RadialKernelTable(params=params, profile=profile,
                                 rho_grid=data[:, 0], phi_values=data[:, 1],
                                 psi_profile=data[:, 2], build_meta=meta)
    except (KeyError, ValueError) as exc:
        raise TableMismatchError(f"malformed table {path}: {exc!r}") from exc
