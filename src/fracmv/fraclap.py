"""Fractional Laplacian oracle and s-harmonic test field generators.

The oracle evaluates the singular integral defining (-Laplacian)^s up to a
fixed positive multiplicative constant, so it is only ever compared against
zero or used in ratios.  Test fields that are s-harmonic inside a ball are
produced by integrating exterior data against the fractional ball Poisson
kernel, which gives exact interior values without assuming the mean value
property under test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import roots_jacobi

from .bump import eta_raw
from .errors import FieldRejectedError, ToleranceError
from .quadrature import angular_rule, gauss_legendre, sphere_area

__all__ = [
    "Params",
    "ScalarField",
    "growth_class_check",
    "frac_lap",
    "ball_poisson_kernel",
    "sample_sharmonic",
    "make_field",
    "FIELD_NAMES",
]


@dataclass(frozen=True)
class Params:
    """Problem parameters: dimension n and weight exponent a.

    The fractional order s = (1 - a)/2 is derived from a.
    """

    n: int
    a: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"n must be 1 or 2, got {self.n}")
        if not -1.0 < self.a < 1.0:
            raise ValueError(f"a must lie in (-1, 1), got {self.a}")
        # a within one ulp of -1 rounds s up to exactly 1
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")

    @property
    def s(self) -> float:
        return (1.0 - self.a) / 2.0

    @classmethod
    def from_s(cls, n: int, s: float) -> "Params":
        return cls(n=n, a=1.0 - 2.0 * s)

    @classmethod
    def from_a(cls, n: int, a: float) -> "Params":
        return cls(n=n, a=a)


@dataclass
class ScalarField:
    """An evaluatable real-valued function on R^n with a declared growth class.

    ``evaluator`` receives an array of shape (m, n) and returns shape (m,).
    ``growth`` is "bounded" or "polynomial"; for polynomial growth ``degree``
    gives the envelope exponent and ``scale`` the envelope constant, i.e.
    |f(x)| <= scale * (1 + |x|)^degree.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    n: int
    growth: str = "bounded"
    degree: float = 0
    scale: float = 1.0
    description: str = ""
    # radii of origin-centered spheres across which f is continuous but not
    # smooth; quadratures place panel breaks on them
    kink_radii: tuple = ()

    def __call__(self, points):
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = points.reshape(-1, self.n)
        vals = np.asarray(self.evaluator(pts), dtype=float)
        return float(vals[0]) if single else vals

    def envelope(self, radius) -> float:
        """Upper bound for |f| on the ball of the given radius."""
        if self.growth == "bounded":
            return self.scale
        return self.scale * (1.0 + radius) ** self.degree


def growth_class_check(f: ScalarField, s: float, n: int):
    """Check integrability of |f(x)| / (1+|x|)^{n+2s}.

    Returns (ok, measured) where ``measured`` estimates the integral over
    |x| <= 1e4 by radial quadrature; the tail beyond is bounded using the
    declared growth envelope and is finite iff degree < 2s.
    """
    surf = sphere_area(n)
    breaks = [0.0, 1.0]
    while breaks[-1] < 1e4:
        breaks.append(min(breaks[-1] * 2.0, 1e4))
    total = 0.0
    dirs, ang_w = angular_rule(n, 16)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        rule = gauss_legendre(12, (lo, hi))
        pts = rule.nodes[:, None, None] * dirs[None, :, :]
        vals = np.abs(f(pts.reshape(-1, n))).reshape(len(rule.nodes), len(dirs))
        radial = (vals * ang_w).sum(axis=1)
        integrand = radial * rule.nodes ** (n - 1) / (1.0 + rule.nodes) ** (n + 2.0 * s)
        total += float(rule.weights @ integrand)
    if f.growth == "bounded":
        tail_ok = True
    else:
        tail_ok = f.degree < 2.0 * s
    if tail_ok:
        # declared-envelope tail; exponent n-1+degree-(n+2s) < -1 when finite
        p = f.degree - 1.0 - 2.0 * s
        total += surf * f.scale * 1e4 ** (p + 1.0) / -(p + 1.0)
    return tail_ok, total


def _direction_set(n: int, count: int = 16):
    if n == 1:
        return np.array([[1.0]]), np.array([2.0])
    theta = np.linspace(0.0, math.pi, count, endpoint=False)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    return dirs, np.full(count, 2.0 * math.pi / count)


def frac_lap(f: ScalarField, x, s: float, tol: float = 1e-6) -> float:
    """Fractional Laplacian of ``f`` at ``x``, up to a positive constant.

    Evaluates -(1/2) * int (f(x+z) + f(x-z) - 2 f(x)) / |z|^{n+2s} dz by
    radial quadrature.  The inner part (|z| <= 1) relies on the cancellation
    of the symmetric second difference; the outer part is truncated where the
    declared growth envelope bounds the remainder below ``tol``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n = x.size
    fx = f(x)
    dirs, ang_w = _direction_set(n)
    surf = ang_w.sum()

    # both ±z are formed explicitly, so directions cover a half sphere
    def ring_sum(t_nodes):
        pts_p = x[None, None, :] + t_nodes[:, None, None] * dirs[None, :, :]
        pts_m = x[None, None, :] - t_nodes[:, None, None] * dirs[None, :, :]
        shape = (len(t_nodes), len(dirs))
        vp = f(pts_p.reshape(-1, n)).reshape(shape)
        vm = f(pts_m.reshape(-1, n)).reshape(shape)
        return ((vp + vm - 2.0 * fx) * ang_w).sum(axis=1)

    # outer truncation: remainder of the f(x+z) part is bounded by the envelope
    Z = 64.0
    while Z < 1e15:
        if f.growth == "bounded":
            bound = surf * f.scale * Z ** (-2.0 * s) / (2.0 * s)
        else:
            p = f.degree - 2.0 * s
            if p >= 0.0:
                raise ToleranceError("outer integral diverges for declared growth",
                                     math.inf, tol)
            bound = surf * f.scale * (1.0 + np.linalg.norm(x)) ** f.degree \
                * Z ** p / -p
        if bound <= tol / 2.0:
            break
        Z *= 4.0
    else:
        raise ToleranceError("tail bound not met", bound, tol)

    # Below eps the symmetric second difference is dominated by rounding
    # noise after the t^{-1-2s} amplification; use a local even Taylor model
    # D(t) ~ Q2 t^2 + Q4 t^4 fitted at eps and eps/2 instead.
    eps = 1e-3
    d_eps = float(ring_sum(np.array([eps]))[0])
    d_half = float(ring_sum(np.array([eps / 2.0]))[0])
    q4e4 = (4.0 / 3.0) * (d_eps - 4.0 * d_half)
    q2e2 = d_eps - q4e4
    total = (q2e2 / (2.0 - 2.0 * s) + q4e4 / (4.0 - 2.0 * s)) * eps ** (-2.0 * s)

    breaks = [eps]
    kink = float(np.linalg.norm(x))
    while breaks[-1] < Z:
        breaks.append(min(breaks[-1] * 2.0, Z))
    if n == 1:
        # f may lose smoothness where x +/- z crosses the origin or one of
        # the field's declared kink spheres
        spots = {kink}
        for c in f.kink_radii:
            spots.update((abs(c - kink), c + kink))
        breaks = sorted(set(breaks) | {t for t in spots if eps < t < Z})
    elif f.kink_radii:
        # crossings depend on the direction; refine the radial band that
        # can contain them instead of placing exact per-direction breaks
        extra = set()
        for c in f.kink_radii:
            lo, hi = max(eps, c - kink - 1e-9), min(Z, c + kink + 1e-9)
            if hi > lo:
                extra.update(np.linspace(lo, hi, 17))
        breaks = sorted(set(breaks) | extra)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        rule = gauss_legendre(10, (lo, hi))
        total += float(rule.weights @ (ring_sum(rule.nodes)
                                       * rule.nodes ** (-1.0 - 2.0 * s)))
    # analytic continuation of the -2 f(x) term beyond Z
    total += -2.0 * fx * surf * Z ** (-2.0 * s) / (2.0 * s)
    return -0.5 * total


def _ball_poisson_normalizer(n: int, s: float) -> float:
    """Riesz constant c(n, s) = Gamma(n/2) sin(pi s) / pi^{n/2+1}.

    It gives the ball Poisson kernel unit mass at the center for every
    radius r, since int_r^inf (rho^2-r^2)^{-s}/rho drho = r^{-2s} pi/(2 sin pi s).
    """
    return math.gamma(n / 2.0) * math.sin(math.pi * s) / math.pi ** (n / 2.0 + 1.0)


def ball_poisson_kernel(x, ybar, r: float, s: float):
    """Fractional Poisson kernel of the ball B(0, r) at interior x, exterior ybar.

    Normalized by the closed-form Riesz constant, so the kernel has unit mass
    in ybar at x = 0.
    ``ybar`` may be a single point or an array of shape (m, n).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n = x.size
    ybar = np.asarray(ybar, dtype=float)
    single = ybar.ndim == 1
    yb = ybar.reshape(-1, n)
    rx = np.linalg.norm(x)
    ry = np.linalg.norm(yb, axis=1)
    if not rx < r:
        raise ValueError(f"|x|={rx} must be < r={r}")
    if np.any(ry <= r):
        raise ValueError("|ybar| must be > r")
    c = _ball_poisson_normalizer(n, s)
    vals = c * ((r * r - rx * rx) / (ry * ry - r * r)) ** s \
        / np.linalg.norm(yb - x, axis=1) ** n
    return float(vals[0]) if single else vals


def _shell_nodes(r: float, s: float, n: int, radial_count: int = 48,
                 angular_count: int = 64):
    """Quadrature nodes/weights on the shell r < |ybar| <= 4r.

    The weight (|ybar|^2 - r^2)^{-s} of the kernel is folded into the node
    weights through a Jacobi rule in t = |ybar|^2 - r^2.
    """
    T = 15.0 * r * r
    u, w = roots_jacobi(radial_count, 0.0, -s)
    t = T * (1.0 + u) / 2.0
    wt = (T / 2.0) ** (1.0 - s) * w
    rho = np.sqrt(t + r * r)
    # int_r^{4r} h(rho) rho^{n-1} (rho^2-r^2)^{-s} drho in the t variable
    wrad = wt * rho ** (n - 1) / (2.0 * rho)
    if n == 1:
        pts = np.concatenate([rho, -rho])[:, None]
        wq = np.concatenate([wrad, wrad])
    else:
        dirs, ang_w = angular_rule(n, angular_count)
        pts = (rho[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
        wq = (wrad[:, None] * ang_w[None, :]).ravel()
    return pts, wq


def sample_sharmonic(g, r: float, s: float, n: int, radial_count: int = 48,
                     angular_count: int = 64) -> ScalarField:
    """Field equal to the ball Poisson integral of ``g`` inside B(0, r).

    ``g`` must be bounded with compact support in r < |ybar| <= 4r; outside
    the ball the field equals ``g`` itself, so the interior values are the
    exact s-harmonic continuation of the exterior data.
    """
    pts, wq = _shell_nodes(r, s, n, radial_count, angular_count)
    gvals = np.asarray(g(pts), dtype=float)
    if not np.all(np.isfinite(gvals)):
        raise FieldRejectedError("exterior data must be bounded on its support")
    c = _ball_poisson_normalizer(n, s)
    # (|ybar|^2-r^2)^{-s} is already folded into wq via the Jacobi weight
    coef = c * wq * gvals

    def evaluate(x):
        x = np.asarray(x, dtype=float).reshape(-1, n)
        rx = np.linalg.norm(x, axis=1)
        out = np.empty(len(x))
        inside = rx < r
        if np.any(inside):
            xi = x[inside]
            d = np.linalg.norm(xi[:, None, :] - pts[None, :, :], axis=2)
            fac = (r * r - np.linalg.norm(xi, axis=1) ** 2) ** s
            out[inside] = fac * (coef[None, :] / d ** n).sum(axis=1)
        if np.any(~inside):
            out[~inside] = np.asarray(g(x[~inside]), dtype=float)
        return out

    scale = max(1.0, float(np.max(np.abs(gvals))) if gvals.size else 1.0)
    return ScalarField(evaluator=evaluate, n=n, growth="bounded", scale=scale,
                       description=f"ball-poisson(r={r}, s={s})",
                       kink_radii=(r,))


_WINDOW_PEAK = math.exp(16.0)  # rescale so the window tops out at 1


def _shell_window(rho, r: float):
    # smooth bump supported in (1.2r, 3.3r), mapped onto eta_raw's support
    u = (np.asarray(rho, dtype=float) - 1.2 * r) / (2.1 * r)
    return _WINDOW_PEAK * eta_raw(0.25 + 0.5 * np.clip(u, 0.0, 1.0))


def _ball_poisson_field(n: int, s: float, r: float, seed: int) -> ScalarField:
    rng = np.random.default_rng(seed)
    a0 = rng.uniform(0.5, 1.5)
    a1 = rng.uniform(-0.5, 0.5)
    k = rng.integers(1, 4)
    phase = rng.uniform(0.0, 2.0 * math.pi)

    if n == 1:
        def g(y):
            y = np.asarray(y, dtype=float).reshape(-1, 1)
            rho = np.abs(y[:, 0])
            return _shell_window(rho, r) * (a0 + a1 * np.sin(k * y[:, 0] / r + phase))
    else:
        def g(y):
            y = np.asarray(y, dtype=float).reshape(-1, 2)
            rho = np.linalg.norm(y, axis=1)
            theta = np.arctan2(y[:, 1], y[:, 0])
            return _shell_window(rho, r) * (a0 + a1 * np.cos(k * theta + phase))

    fld = sample_sharmonic(g, r, s, n)
    fld.description = f"ball-poisson(n={n}, s={s}, seed={seed})"
    return fld


FIELD_NAMES = ("constant", "affine", "gaussian", "xplus_s", "ball_poisson")


def make_field(name: str, n: int, s: float, r: float = 1.0, seed: int = 0) -> ScalarField:
    """Built-in test field registry, selectable by string key."""
    if name == "constant":
        return ScalarField(evaluator=lambda x: np.ones(len(np.atleast_2d(x))),
                           n=n, growth="bounded", scale=1.0, description="constant 1")
    if name == "affine":
        return ScalarField(evaluator=lambda x: np.asarray(x, dtype=float).reshape(-1, n)[:, 0],
                           n=n, growth="polynomial", degree=1, scale=1.0,
                           description="affine x1")
    if name == "gaussian":
        return ScalarField(
            evaluator=lambda x: np.exp(-np.linalg.norm(
                np.asarray(x, dtype=float).reshape(-1, n), axis=1) ** 2),
            n=n, growth="bounded", scale=1.0, description="gaussian")
    if name == "xplus_s":
        if n != 1:
            raise ValueError("xplus_s is a one-dimensional field")
        return ScalarField(
            evaluator=lambda x: np.maximum(
                np.asarray(x, dtype=float).reshape(-1, 1)[:, 0], 0.0) ** s,
            n=n, growth="polynomial", degree=s, scale=1.0,
            description=f"max(x,0)^{s}")
    if name == "ball_poisson":
        return _ball_poisson_field(n, s, r, seed)
    raise ValueError(f"unknown field {name!r}; known: {', '.join(FIELD_NAMES)}")
