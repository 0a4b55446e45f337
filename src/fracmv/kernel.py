"""The nonlocal mean value kernel, its tabulation and verification.

The kernel is the weighted double integral of the bump profile against the
extension Poisson kernel,

    Phi(x) = int_y int_z phi(z, y) P_|y|(x - z) |y|^a dz dy,

and its radial derivative gives the gradient components
Psi^i(x) = Phi'(|x|) x_i / |x|.  Both are tabulated on a radial grid and
continued beyond the grid by their power-law tails (exponent n+1-a for Phi,
n+2-a for Psi); one radial convolution engine gives Phi_r * f and grad f.
"""
from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .bump import BumpProfile, eta_raw, eta_raw_prime, normalize
from .errors import TableMismatchError, ToleranceError
from .extension import ExtensionKernel
from .fraclap import Params, ScalarField
from .quadrature import (angular_rule, gauss_legendre, integrate_ball_weighted,
                         sphere_area, unit_gauss)

__all__ = [
    "RadialKernelTable",
    "phi_pointwise",
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

SUPPORT_RADIUS = 0.75

DEFAULT_GRID = {
    "dense_points": 257,   # uniform nodes on [0, 2]
    "geo_points": 128,     # geometric nodes on (2, rmax]
    "rmax": 16.0,
    "y_panels": 16,        # dyadic panels toward y = 0
    "y_nodes": 14,
    "radial_nodes": 8,     # per radial panel of the inner integral
    "angular_nodes": 32,   # per-node Gauss count on the support arc (n = 2)
}


def _y_rule(a: float, panels: int, per: int):
    """Nodes/weights for int_0^{3/4} y^a F(y) dy on dyadic panels toward 0.

    Returns (nodes, weights, eps): the remainder on [0, eps) is handled
    analytically by the caller using F(0).
    """
    t, w = unit_gauss(per)
    nodes, weights = [], []
    hi = SUPPORT_RADIUS
    for _ in range(panels):
        lo = hi / 2.0
        y = lo + (hi - lo) * t
        nodes.append(y)
        weights.append((hi - lo) * w * y ** a)
        hi = lo
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    return nodes, weights, hi


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
    breaks = np.asarray(breaks)
    t, w = unit_gauss(per)
    lo_b = breaks[:-1]
    width = np.diff(breaks)
    nodes = (lo_b[:, None] + width[:, None] * t[None, :]).ravel()
    weights = (width[:, None] * w[None, :]).ravel()
    return nodes, weights


def _kernel_profile(profile: BumpProfile, k: ExtensionKernel, rho: float,
                    grid: dict) -> tuple[float, float]:
    """(Phi(rho), Phi'(rho)) by the layered radial quadrature."""
    n, a, C = profile.n, profile.a, k.C
    kappa = profile.kappa
    ynodes, yweights, eps = _y_rule(a, grid["y_panels"], grid["y_nodes"])
    m = 0.5 * (n + 1.0 - a)
    tg, wg = unit_gauss(grid["angular_nodes"])

    acc_phi = 0.0
    acc_psi = 0.0
    for y, wy in zip(ynodes, yweights):
        s2 = SUPPORT_RADIUS ** 2 - y * y
        if s2 <= 0.0:
            continue
        s_y = math.sqrt(s2)
        lo, hi = max(0.0, rho - s_y), rho + s_y
        u, wu = _radial_panels(lo, hi, y, grid["radial_nodes"])
        pker = C * y ** (1.0 - a) * (u * u + y * y) ** -m
        if n == 1:
            z_lo, z_hi = rho - u, rho + u
            r_lo = np.sqrt(z_lo * z_lo + y * y)
            r_hi = np.sqrt(z_hi * z_hi + y * y)
            sphi = eta_raw(r_lo) + eta_raw(r_hi)
            spsi = eta_raw_prime(r_lo) * z_lo / r_lo \
                + eta_raw_prime(r_hi) * z_hi / r_hi
            radw = wu * pker
        else:
            ru = rho * u
            sin2 = s2 - (rho - u) ** 2
            with np.errstate(divide="ignore", invalid="ignore"):
                sin2 = np.where(ru > 1e-300, sin2 / (4.0 * ru), 1.0)
            amax = 2.0 * np.arcsin(np.sqrt(np.clip(sin2, 0.0, 1.0)))
            alpha = amax[:, None] * tg[None, :]
            d2 = (rho - u)[:, None] ** 2 \
                + 4.0 * ru[:, None] * np.sin(alpha / 2.0) ** 2
            z1 = rho - u[:, None] * np.cos(alpha)
            R = np.sqrt(d2 + y * y)
            sphi = 2.0 * amax * (eta_raw(R) * wg[None, :]).sum(axis=1)
            spsi = 2.0 * amax * (eta_raw_prime(R) * z1 / R
                                 * wg[None, :]).sum(axis=1)
            radw = wu * u * pker
        acc_phi += wy * float(radw @ sphi)
        acc_psi += wy * float(radw @ spsi)

    # analytic remainder of the y-integral on [0, eps): the inner convolution
    # tends to the profile itself as y -> 0
    rem = eps ** (1.0 + a) / (1.0 + a)
    phi0 = eta_raw(rho)
    psi0 = eta_raw_prime(rho)
    phi = 2.0 * kappa * (acc_phi + rem * phi0)
    psi = 2.0 * kappa * (acc_psi + rem * psi0)
    return phi, psi


def phi_pointwise(profile: BumpProfile, k: ExtensionKernel, x,
                  grid: dict | None = None) -> float:
    """Kernel value at a point, computed from scratch (no table)."""
    if (profile.n, profile.a) != (k.n, k.a):
        raise TableMismatchError("profile and extension kernel disagree on (n, a)")
    grid = {**DEFAULT_GRID, **(grid or {})}
    rho = float(np.linalg.norm(np.asarray(x, dtype=float)))
    return _kernel_profile(profile, k, rho, grid)[0]


def phi_direct(profile: BumpProfile, k: ExtensionKernel, x,
               angular: int = 160) -> float:
    """Kernel value by quadrature in absolute coordinates.

    Keeps the full vector geometry of the defining integral (no radial
    reduction), so rotational symmetry of the result is a genuine numerical
    outcome.  Intended for |x| <= 2.
    """
    n, a, C = profile.n, profile.a, k.C
    x = np.asarray(x, dtype=float).reshape(-1)
    ynodes, yweights, eps = _y_rule(a, 16, 16)
    m = 0.5 * (n + 1.0 - a)
    rho = float(np.linalg.norm(x))
    dirs, ang_w = angular_rule(n, angular)

    acc = 0.0
    for y, wy in zip(ynodes, yweights):
        s2 = SUPPORT_RADIUS ** 2 - y * y
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
        self._phi_spline = CubicSpline(self.rho_grid, self.phi_values)
        self._psi_spline = CubicSpline(self.rho_grid, self.psi_profile)

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
        """Surface-weighted trapezoidal mass plus the analytic tail."""
        n, a = self.params.n, self.params.a
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        core = trapezoid(self.phi_values * self.rho_grid ** (n - 1), self.rho_grid)
        # two-term power-law tail c1 rho^-p + c2 rho^-(p+2), fitted at rmax/2
        # and rmax; the leading exponent p = n+1-a is authoritative
        p = n + 1.0 - a
        ra, rb = 0.5 * self.rmax, self.rmax
        fa, fb = self.phi_of(ra), self.phi_of(rb)
        det = ra ** -p * rb ** -(p + 2.0) - rb ** -p * ra ** -(p + 2.0)
        c1 = (fa * rb ** -(p + 2.0) - fb * ra ** -(p + 2.0)) / det
        c2 = (fb * ra ** -p - fa * rb ** -p) / det
        tail = c1 * rb ** (n - p) / (p - n) + c2 * rb ** (n - p - 2.0) / (p + 2.0 - n)
        return sphere_area(n) * (core + tail)


def build_table(params: Params, grid_spec: dict | None = None) -> RadialKernelTable:
    """Tabulate the kernel on a dense-plus-geometric radial grid."""
    grid = {**DEFAULT_GRID, **(grid_spec or {})}
    profile = normalize(params.n, params.a)
    k = ExtensionKernel.create(params.n, params.a)
    dense = np.linspace(0.0, 2.0, grid["dense_points"])
    geo = 2.0 * (grid["rmax"] / 2.0) ** (
        np.arange(1, grid["geo_points"] + 1) / grid["geo_points"])
    rho_grid = np.concatenate([dense, geo])
    phi = np.empty_like(rho_grid)
    psi = np.empty_like(rho_grid)
    for i, rho in enumerate(rho_grid):
        phi[i], psi[i] = _kernel_profile(profile, k, float(rho), grid)
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


def _rule_on_breaks(breaks: np.ndarray, extra=(), per: int = 8):
    """Gauss nodes/weights on the panels, with extra break points inserted."""
    if extra:
        inside = [e for e in extra if breaks[0] < e < breaks[-1]]
        if inside:
            breaks = np.unique(np.concatenate([breaks, inside]))
    t, w = unit_gauss(per)
    nodes = (breaks[:-1, None] + np.diff(breaks)[:, None] * t[None, :]).ravel()
    weights = (np.diff(breaks)[:, None] * w[None, :]).ravel()
    return nodes, weights


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

    p1 = n - tail_exponent  # exponent of the tail integral for a flat envelope
    deg = f.degree if f.growth == "polynomial" else 0
    W = 4.0 * rmax
    while True:
        # |f - subtract| <= envelope(|x|) + |subtract| + scale (r w)^deg
        bound = surf * coef * (f.envelope(float(np.linalg.norm(x)))
                               + abs(subtract)) * W ** p1 / -p1
        if deg > 0:
            if p1 + deg >= 0.0:
                raise ToleranceError("tail diverges for declared growth",
                                     math.inf, tol)
            bound += surf * coef * f.scale * r ** deg \
                * W ** (p1 + deg) / -(p1 + deg)
        if bound <= tol / 2.0 or W > 1e16:
            break
        W *= 4.0
    if bound > tol:
        raise ToleranceError("convolution tail estimate above tolerance",
                             bound, tol)

    breaks = _conv_breaks(r, W)
    dirs, ang_w = angular_rule(n, angular)
    parts = []
    for d, wa in zip(dirs, ang_w):
        nodes, weights = _rule_on_breaks(
            breaks, _kink_crossings(x, r, d, f.kink_radii))
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


def psi_component(table: RadialKernelTable, x, i: int) -> float:
    """Gradient component Psi^i(x) = Phi'(|x|) x_i / |x| (zero at the origin)."""
    n = table.params.n
    if not 1 <= i <= n:
        raise ValueError(f"component index must be in 1..{n}, got {i}")
    x = np.asarray(x, dtype=float).reshape(-1)
    rho = float(np.linalg.norm(x))
    if rho == 0.0:
        return 0.0
    return table.psi_radial_of(rho) * x[i - 1] / rho


def extension_mean_value(profile: BumpProfile, v, x, r: float,
                         resolution: int = 40) -> float:
    """Weighted ball average of v against the rescaled profile.

    Computes the integral of phi_r(X0 - Z) v(Z) |y|^a over the ball of
    radius r centered at X0 = (x, 0), with phi_r(X) = r^-(n+1+a) phi(X/r).
    """
    n, a = profile.n, profile.a
    x = np.asarray(x, dtype=float).reshape(-1)
    X0 = np.concatenate([x, [0.0]])
    scale = r ** -(n + 1.0 + a)

    def integrand(Z):
        return scale * profile.phi((X0[None, :] - Z) / r) * np.asarray(v(Z))

    return integrate_ball_weighted(integrand, X0, r, a, resolution)


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
    spline = CubicSpline(grid, psi)
    sample = np.linspace(grid[0], grid[-1], 2001)[1:]
    d2 = np.abs(spline(sample, 1))
    ratio = np.abs(spline(sample) / sample)
    return float(np.max(d2 + ratio))


def verify_kernel_properties(table: RadialKernelTable, fields=None,
                             maximal_resolution: int = 64) -> PropertyReport:
    """Run the seven structural checks of the kernel and report constants."""
    from .analysis import BallFamily, hl_maximal  # deferred: avoids a cycle
    from .fraclap import make_field

    n, a = table.params.n, table.params.a
    profile = table.profile
    k = ExtensionKernel.create(n, a)
    checks = []

    # (a) rotational symmetry, via absolute-coordinate quadrature
    rho0 = 0.5
    if n == 1:
        va = phi_direct(profile, k, np.array([rho0]))
        vb = phi_direct(profile, k, np.array([-rho0]))
    else:
        va = phi_direct(profile, k, rho0 * np.array([1.0, 0.0]))
        ang = 0.576
        vb = phi_direct(profile, k, rho0 * np.array([math.cos(ang), math.sin(ang)]))
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
                        resolution=maximal_resolution)
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
    if n == 1:
        rule = gauss_legendre(400, (-table.rmax, table.rmax))
        vals = np.array([psi_component(table, np.array([u]), 1)
                         for u in rule.nodes])
        integral = float(rule.weights @ vals)
    else:
        rule = gauss_legendre(120, (-table.rmax, table.rmax))
        integral = 0.0
        for u, wu in zip(rule.nodes, rule.weights):
            pts2 = np.column_stack([np.full(rule.nodes.size, u), rule.nodes])
            rho = np.linalg.norm(pts2, axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                vals = np.where(rho > 0,
                                table.psi_radial_of(rho) * pts2[:, 0]
                                / np.where(rho > 0, rho, 1.0), 0.0)
            integral += wu * float(rule.weights @ vals)
    # fundamental-theorem consistency ties the independently computed radial
    # derivative back to Phi itself
    rule = gauss_legendre(800, (0.0, table.rmax))
    ftc = float(rule.weights @ table.psi_radial_of(rule.nodes)) \
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


def write_table(table: RadialKernelTable, path):
    """Plain-text persistence; 17 significant digits, bit-exact round trip."""
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
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path) -> RadialKernelTable:
    """Read a table written by ``write_table``.

    A missing header key, a header value or row that does not parse, an
    ``s`` other than (1 - a)/2, or a row count other than the header's
    raises TableMismatchError.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = {}
    rows = []
    try:
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
