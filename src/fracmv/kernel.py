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
Psi^i(x) = Phi'(|x|) x_i / |x|.  Past the bump's reach, rho > 3/4, both
are series in 1/rho^2 whose coefficients are the bump's moments
(``_ExteriorSeries``; leading powers rho^-(n+1-a) and rho^-(n+2-a)).  The
table holds both on a radial grid, the distance form below rho = 1 and the
series from there on, and ``phi_of`` and ``psi_radial_of`` continue it by
the series beyond the grid.  Phi_r * f and grad f are integrals along
rays, which ``extension.ray_integrals`` computes for them as for the
extension.
``phi_direct`` keeps the full vector geometry of the double integral and
serves as the independent check of the table.
"""
from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bump import (SUPPORT_HI, SUPPORT_LO, BumpProfile, eta_raw, eta_raw_prime,
                   normalize)
from .errors import TableMismatchError, ToleranceError
from .extension import poisson_constant, ray_integrals
from .fraclap import Params, ScalarField
from .quadrature import (angular_rule, gauss_jacobi, gauss_legendre,
                         integrate_ball_weighted, sphere_area)

__all__ = [
    "RadialKernelTable",
    "phi_direct",
    "build_table",
    "phi_r_convolve",
    "gradient_of_solution",
    "extension_mean_value",
    "verify_kernel_properties",
    "PropertyCheck",
    "PropertyReport",
    "write_table",
    "read_table",
    "DEFAULT_GRID",
]

RMAX = 16.0  # end of the radial grid
SERIES_START = 1.0  # nodes from here on take the exterior series
SERIES_TERMS = 60   # terms of the exterior series

DEFAULT_GRID = {
    "dense_points": 257,   # uniform nodes on [0, 2]
    "geo_points": 128,     # geometric nodes on (2, RMAX]
}

D_JACOBI = 32   # Gauss-Jacobi nodes of the first distance panel (weight d^a)
D_NODES = 64    # Gauss-Legendre nodes of every other distance panel
R_NODES = 64    # Gauss-Legendre nodes of the inner r-integral

# panel ends that resolve Phi and Phi', as the dense grid: on (0, 1/2, 1)
# Gauss misses the mass of Phi by 1.1e-5 at n = 1, a = -0.5
KERNEL_BODY = np.linspace(0.0, 2.0, 17)
DIRECT_ANGULAR = 160        # directions of phi_direct's angular rule (n = 2)
MAXIMAL_RESOLUTION = 64     # ball quadrature of the maximal-domination check


def _weighted_panels(a: float, breaks, first: int, rest: int):
    """Nodes/weights for int_0^{breaks[-1]} t^a F(t) dt.

    The ``first``-node Gauss-Jacobi rule takes the weight on (0, breaks[0])
    exactly, and the ``rest``-node Gauss-Legendre rule times t^a takes each
    panel between ``breaks``.
    """
    t_first, w_first = gauss_jacobi(first, a, breaks[0])
    t_rest, w_rest = gauss_legendre(rest, breaks)
    return (np.concatenate([t_first, t_rest]),
            np.concatenate([w_first, w_rest * t_rest ** a]))


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
    ends = (abs(rho - SUPPORT_LO), abs(rho - SUPPORT_HI),
            rho + SUPPORT_LO, rho + SUPPORT_HI)
    breaks = sorted({e for e in ends if e > 0.0})
    d, w = _weighted_panels(a, breaks, D_JACOBI, D_NODES)

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


class _ExteriorSeries:
    """Phi and Phi' past the bump's reach (rho > 3/4) from a series in 1/rho^2.

    For t = rho/r > 1 the h of Phi(rho) = kappa int eta(r) r^a h(rho/r) dr
    expands in powers of 1/t: at n = 1 the binomial series of
    (1 + 1/t)^a - (1 - 1/t)^a, at n = 2 the quadratic transformation
    2F1(A, 3/2; 3; 4z/(1+z)^2) = (1+z)^(2A) 2F1(A, A-1; 2; z^2), z = 1/t,
    A = (3-a)/2.  With the moments M_k = int eta(r) r^k dr this gives
    Phi(rho) = rho^-p sum_j b_j rho^-2j, p = n + 1 - a, b_j = K c_j M_{n+1+2j}:

        n = 1:  K = 4 C kappa,     c_j = binom(a, 2j+1) / a
        n = 2:  K = 2 pi C kappa,  c_j = (A)_j (A-1)_j / ((2)_j j!)

    Both c_j come from c_0 = 1 by their term ratios, so a = 0 needs no
    limit.  The terms fall like (3/(4 rho))^(2j); SERIES_TERMS of them and
    the 80-node rule of ``normalize`` for the moments hold Phi to rounding
    at rho >= 1.
    """

    def __init__(self, n: int, a: float, kappa: float):
        u, w = gauss_legendre(80, (SUPPORT_LO, SUPPORT_HI))
        j = np.arange(SERIES_TERMS - 1.0)
        if n == 1:
            m = 2.0 * j + 1.0
            ratio = (a - m) * (a - m - 1.0) / ((m + 1.0) * (m + 2.0))
            K = 4.0
        else:
            A = 0.5 * (3.0 - a)
            ratio = (A + j) * (A - 1.0 + j) / ((2.0 + j) * (j + 1.0))
            K = 2.0 * math.pi
        c = np.cumprod(np.concatenate([[1.0], ratio]))
        q = n + 1.0 + 2.0 * np.arange(SERIES_TERMS)  # M_q of term j
        b = K * poisson_constant(n, a) * kappa * c \
            * ((w * eta_raw(u)) @ u[:, None] ** q)
        self.p, self.n = n + 1.0 - a, n
        q -= a  # now Phi's power rho^-q of term j
        # polyval's order, the highest power of rho^-2 first
        self._phi, self._dphi, self._mass = (b[::-1], -(b * q)[::-1],
                                             (b / (q - n))[::-1])

    @staticmethod
    def _sum(coef, rho, power):
        """rho^-power sum_j coef_j rho^-2j, by Horner's rule in rho^-2."""
        return rho ** -power * np.polyval(coef, 1.0 / (rho * rho))

    def phi(self, rho):
        """Phi at the radii of the array rho, each >= 1."""
        return self._sum(self._phi, rho, self.p)

    def dphi(self, rho):
        """Phi' at the radii of the array rho, each >= 1."""
        return self._sum(self._dphi, rho, self.p + 1.0)

    def tail_mass(self, R: float) -> float:
        """int_R^inf rho^(n-1) Phi(rho) drho, term by term, R >= 1."""
        return float(self._sum(self._mass, R, self.p - self.n))


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
    # 15 dyadic panels toward y = 0 and the Jacobi panel below them
    ynodes, yweights = _weighted_panels(
        a, SUPPORT_HI * 2.0 ** -np.arange(15.0, -1.0, -1.0), 16, 16)
    m = 0.5 * (n + 1.0 - a)
    rho = float(np.linalg.norm(x))
    dirs, ang_w = angular_rule(n, DIRECT_ANGULAR)

    acc = 0.0
    for y, wy in zip(ynodes, yweights):
        s_y = math.sqrt(SUPPORT_HI ** 2 - y * y)
        lo, hi = max(0.0, rho - s_y), rho + s_y
        u, wu = _radial_panels(lo, hi, y, 10)
        pker = C * y ** (1.0 - a) * (u * u + y * y) ** -m
        z = x[None, None, :] + u[:, None, None] * dirs[None, :, :]
        R = np.sqrt((z ** 2).sum(axis=2) + y * y)
        vals = eta_raw(R).sum(axis=1) * ang_w[0]  # the weights are equal
        acc += wy * float((wu * u ** (n - 1) * pker) @ vals)
    return 2.0 * profile.kappa * acc


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

    def integral(self, power: int = 0) -> float:
        """Exact integral of r^power s(r) over [x[0], x[-1]], power 0 or 1."""
        x0, dx = self.x[:-1], np.diff(self.x)
        k = np.arange(4.0, 0.0, -1.0)[:, None]  # 1 + the power of each row
        core = self.coef * dx ** k / k
        if power == 1:  # weight r = x0 + h on each piece
            core = x0 * core + self.coef * dx ** (k + 1.0) / (k + 1.0)
        return float(core.sum())

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

    @cached_property
    def _series(self) -> _ExteriorSeries:
        return _ExteriorSeries(self.params.n, self.params.a, self.profile.kappa)

    def _radial_eval(self, spline, outer, rho):
        """Spline inside the grid, ``outer`` (a series method name) beyond it."""
        rho = np.asarray(rho, dtype=float)
        scalar = rho.ndim == 0
        rho = np.atleast_1d(rho)
        out = np.empty_like(rho)
        inside = rho <= self.rmax
        out[inside] = spline(rho[inside])
        if np.any(~inside):
            out[~inside] = getattr(self._series, outer)(rho[~inside])
        return float(out[0]) if scalar else out

    def phi_of(self, rho):
        """Phi at radius rho; the exterior series beyond the grid."""
        return self._radial_eval(self._phi_spline, "phi", rho)

    def psi_radial_of(self, rho):
        """Phi' at radius rho; the exterior series beyond the grid."""
        return self._radial_eval(self._psi_spline, "dphi", rho)

    def mass(self) -> float:
        """Surface-weighted integral of the kernel that ``phi_of`` evaluates.

        The cubic pieces are integrated exactly on [0, rmax] and the
        exterior series beyond it term by term.
        """
        return sphere_area(self.params.n) * (
            self._phi_spline.integral(self.params.n - 1)
            + self._series.tail_mass(self.rmax))


def build_table(params: Params, grid_spec: dict | None = None) -> RadialKernelTable:
    """Tabulate the kernel on a dense-plus-geometric radial grid.

    Nodes from SERIES_START on take the exterior series, and the distance
    form gives the rest.  ``grid_spec`` overrides entries of DEFAULT_GRID;
    any other key raises ValueError.
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
    # the exterior series from SERIES_START on, the distance form below it
    outer = rho_grid >= SERIES_START
    series = _ExteriorSeries(params.n, params.a, profile.kappa)
    phi = np.empty_like(rho_grid)
    psi = np.empty_like(rho_grid)
    phi[outer], psi[outer] = series.phi(rho_grid[outer]), series.dphi(rho_grid[outer])
    for i in np.flatnonzero(~outer):
        phi[i], psi[i] = _kernel_values(profile, C, float(rho_grid[i]))
    bad = ~(np.isfinite(phi) & np.isfinite(psi))
    if np.any(bad):
        raise ToleranceError(f"kernel evaluation failed at rho={rho_grid[bad][0]}",
                             math.inf, 0.0)
    table = RadialKernelTable(params=params, profile=profile, rho_grid=rho_grid,
                              phi_values=phi, psi_profile=psi,
                              build_meta=dict(grid))
    table.build_meta["mass_residual"] = float(abs(table.mass() - 1.0))
    return table


def phi_r_convolve(table: RadialKernelTable, f: ScalarField, x, r,
                   tol: float = 1e-5):
    """Mean value convolution (Phi_r * f)(x) with Phi_r(x) = r^-n Phi(x/r).

    ``x`` is one point or an (m, n) array of rows, ``r`` one radius or m
    radii, one per row; a point returns a float and rows an (m,) array.
    The kernel's mass is the table's own, which a constant field reads.
    """
    pts, single = f.rows(x)
    n, a = table.params.n, table.params.a
    out = ray_integrals(f, pts, r, table.phi_of, n + 1.0 - a, table.mass(),
                        KERNEL_BODY, tol)
    return float(out[0]) if single else out


def gradient_of_solution(table: RadialKernelTable, f: ScalarField, x,
                         r) -> np.ndarray:
    """Gradient of an s-harmonic f from the kernel-derivative representation.

    Components are (1/r) * integral of (f(z) - f(x)) Psi^i_r(x - z) dz, in
    w = (z - x)/r with Psi^i(-w) = -Phi'(|w|) w_i/|w|.  The mean-zero form
    keeps the integrand small away from x.  ``x`` is one point or an (m, n)
    array of rows, ``r`` one radius or m radii; a point returns an (n,)
    vector and rows an (m, n) array.
    """
    pts, single = f.rows(x)
    n, a = table.params.n, table.params.a
    # Phi' has one mass along every direction, which cancels from the sum
    # over +-d, so 0 stands in for it
    out = -ray_integrals(f, pts, r, table.psi_radial_of, n + 2.0 - a, 0.0,
                         KERNEL_BODY, 1e-5, subtract=f(pts),
                         moment=True) / np.reshape(r, (-1, 1))
    return out[0] if single else out


def extension_mean_value(profile: BumpProfile, v, x, r):
    """Integral of phi_r(X0 - Z) v(Z) |y|^a, X0 = (x, 0), phi_r = r^-(n+1+a) phi(./r).

    phi_r lives on the shell r/4 < |Z - X0| < 3r/4, where the fixed rule of
    ``integrate_ball_weighted`` (1,024 nodes at n = 1, 9,216 at n = 2)
    evaluates v; on v = 1 it meets unit mass to about 1e-12.  ``x`` is one
    point or an (m, n) array of rows, ``r`` one radius or m radii, one per
    row; a point returns a float and rows an (m,) array.  v is called once,
    with the nodes of every row where phi_r is at least 2^-53 of the row's
    largest; the others add 0.  They lie on the rule's 6 outermost radii at
    each end, where eta is 0 to 1.0e-18 of its largest, and hold below
    1e-18 of the row's sum of phi_r times the weights.
    """
    n, a = profile.n, profile.a
    rows = np.reshape(np.asarray(x, dtype=float), (-1, n))
    X0 = np.column_stack([rows, np.zeros(len(rows))])
    r = np.broadcast_to(np.asarray(r, dtype=float), (len(rows),))
    # each power of a Python float: numpy's array power rounds some apart
    scale = np.array([float(ri) ** -(n + 1.0 + a) for ri in r])

    def integrand(Z):
        k = len(Z) // len(X0)  # the nodes come row by row, k per row
        center = np.repeat(X0, k, axis=0)
        out = np.repeat(scale, k) * profile.phi(
            (center - Z) / np.repeat(r, k)[:, None])
        live = out >= np.repeat(out.reshape(-1, k).max(axis=1) * 2.0 ** -53, k)
        out[~live] = 0.0
        out[live] *= np.asarray(v(Z[live]))
        return out

    out = integrate_ball_weighted(integrand, X0, r, a)
    return float(out[0]) if np.ndim(x) < 2 else out


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


def _grad_psi_sup(spline: _CubicSpline) -> float:
    """Bound for sup |grad Psi^i| from a spline of the radial derivative."""
    sample = np.linspace(spline.x[0], spline.x[-1], 2001)[1:]
    d2 = np.abs(spline(sample, derivative=True))
    ratio = np.abs(spline(sample) / sample)
    return float(np.max(d2 + ratio))


def verify_kernel_properties(table: RadialKernelTable, fields) -> PropertyReport:
    """Run the six structural checks; ``fields`` measure the domination."""
    from .analysis import BallFamily, hl_maximal  # deferred: avoids a cycle

    n = table.params.n
    profile = table.profile
    checks = []

    # (a) the table against phi_direct's absolute coordinates, at the node
    # nearest 1/2 in two directions, so a broken symmetry fails it too
    i = int(np.argmin(np.abs(table.rho_grid - 0.5)))
    angles = (0.0, math.pi) if n == 1 else (0.0, 0.576)
    direct = np.array([phi_direct(profile, table.rho_grid[i] * np.array(
        [math.cos(t), math.sin(t)][:n])) for t in angles])
    phi = table.phi_values[i]
    diff = float(np.max(np.abs(direct - phi) / abs(phi)))
    checks.append(PropertyCheck("radial_symmetry", diff <= 1e-8, diff, 1e-8))

    # (b) the seam: on 3/4 < rho < SERIES_START the table's distance form
    # and the exterior series both hold.  Default tables meet to 1.9e-12
    # (Phi) and 4.2e-11 (Phi') over n = 1, 2 and |a| <= 0.99; with no node
    # there the row reads nan and fails
    seam = (table.rho_grid > SUPPORT_HI) & (table.rho_grid < SERIES_START)
    rho = table.rho_grid[seam]
    rel = np.abs(np.concatenate([table.phi_values[seam] / table._series.phi(rho),
                                 table.psi_profile[seam] / table._series.dphi(rho)])
                 - 1.0)
    worst = float(np.max(rel)) if rel.size else math.nan
    checks.append(PropertyCheck("series_seam", worst <= 1e-9, worst, 1e-9,
                                detail=f"nodes={rho.size}"))

    # (c) unit mass: a default grid meets it to 5e-9 for n = 1, 2 and
    # |a| <= 0.99; a 33-node dense grid misses it (7.5e-7 at n = 1, a = 0)
    mass = table.mass()
    checks.append(PropertyCheck("unit_mass", abs(mass - 1.0) <= 1e-7,
                                abs(mass - 1.0), 1e-7))

    # (d) domination by the Hardy-Littlewood maximal function
    family = BallFamily(r_min=1e-2, r_max=4.0, ratio=math.sqrt(2.0),
                        resolution=MAXIMAL_RESOLUTION)
    ratios = []
    for f in fields:
        for xi in (0.0, 0.3):
            mf = hl_maximal(f, np.full(n, xi), family)
            conv = phi_r_convolve(table, f, np.full((5, n), xi),
                                  (0.05, 0.1, 0.2, 0.4, 0.8), tol=1e-4)
            ratios.append(float(np.abs(conv).max()) / mf)
    # with no field, or a NaN ratio, the row reads nan and fails
    cmax = float(np.max(ratios)) if ratios else math.nan
    checks.append(PropertyCheck("maximal_domination", np.isfinite(cmax),
                                cmax, math.inf,
                                detail="measured constant, no asserted value"))

    # (e) Psi has zero integral.  Each Psi^i is odd, so its integral
    # vanishes by symmetry on any symmetric rule; what can fail is the
    # independently computed Phi', so the fundamental theorem ties it back
    # to Phi itself: at most 1.2e-9 on default tables (n = 1, 2,
    # |a| <= 0.99), and 4.0e-7 with Phi' scaled by 1 + 1e-6
    ftc = table._psi_spline.integral() \
        - (table.phi_of(table.rmax) - table.phi_of(0.0))
    checks.append(PropertyCheck("gradient_zero_mean", abs(ftc) <= 1e-8,
                                abs(ftc), 1e-8,
                                detail=f"ftc_residual={ftc:.2e}"))

    # (f) boundedness of grad Psi, stable under 2x grid coarsening
    g_full = _grad_psi_sup(table._psi_spline)
    g_half = _grad_psi_sup(_CubicSpline(table.rho_grid[::2],
                                        table.psi_profile[::2]))
    rel = abs(g_full - g_half) / g_full
    ok = np.isfinite(g_full) and rel <= 0.1
    checks.append(PropertyCheck("gradient_derivative_bounded", bool(ok),
                                g_full, math.inf, detail=f"refine_rel={rel:.3f}"))
    return PropertyReport(checks)


DIGEST_KEY = b"sha256="


def _seal(body: bytes) -> bytes:
    """Last line of a table file: the SHA-256 of every byte above it."""
    import hashlib  # loads OpenSSL, which only the commands with a table need
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
    row that does not parse, an ``s`` other than (1 - a)/2, a ``kappa`` that
    is not finite and positive, or a row count other than the header's
    raises TableMismatchError.  Header keys it does not know, such as the
    ``A=`` line of older tables, are ignored.
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
        profile = BumpProfile(n=n, a=a, kappa=float(header["kappa"]))
        if not 0.0 < profile.kappa < math.inf:
            raise TableMismatchError(
                f"kappa={header['kappa']} is not finite and positive")
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
