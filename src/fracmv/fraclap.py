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

from .bump import eta_raw
from .errors import FieldRejectedError
from .quadrature import angular_rule, gauss_jacobi, gauss_legendre, tail_radius

__all__ = [
    "Params",
    "ScalarField",
    "frac_lap",
    "sample_sharmonic",
    "make_field",
    "FIELD_NAMES",
]

SHELL_RADIAL = 48   # Jacobi nodes in |ybar| of the exterior shell rule
SHELL_ANGULAR = 64  # directions of the shell rule (n = 2)
MODE_CUTOFF = 1e-14  # relative size below which a ring's Fourier mode is dropped


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


@dataclass
class ScalarField:
    """An evaluatable real-valued function on R^n with a declared growth.

    ``evaluator`` receives an array of shape (m, n) and returns shape (m,).
    The field obeys |f(x)| <= scale * (1 + |x|)^degree; a bounded field has
    degree 0.  ``far = (R, c)`` declares that f(x) = c wherever |x| >= R, so
    ``extend`` adds the kernel's mass beyond R in closed form instead of
    evaluating the field there; None declares nothing.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    n: int
    degree: float = 0
    scale: float = 1.0
    description: str = ""
    # radii of origin-centered spheres across which f is continuous but not
    # smooth; quadratures place panel breaks on them
    kink_radii: tuple = ()
    far: tuple | None = None

    def __call__(self, points):
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = points.reshape(-1, self.n)
        vals = np.asarray(self.evaluator(pts), dtype=float)
        return float(vals[0]) if single else vals

    def envelope(self, radius):
        """Upper bound for |f| on the ball of the given radius (or radii)."""
        return self.scale * (1.0 + radius) ** self.degree


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
    # both ±z are formed explicitly, so directions cover a half sphere: the
    # first half of the full rule, each direction weighted twice
    dirs, ang_w = angular_rule(n, 32)
    half = len(dirs) // 2
    dirs, ang_w = dirs[:half], 2.0 * ang_w[:half]
    surf = ang_w.sum()

    def ring_sum(t_nodes):
        pts_p = x[None, None, :] + t_nodes[:, None, None] * dirs[None, :, :]
        pts_m = x[None, None, :] - t_nodes[:, None, None] * dirs[None, :, :]
        shape = (len(t_nodes), len(dirs))
        vp = f(pts_p.reshape(-1, n)).reshape(shape)
        vm = f(pts_m.reshape(-1, n)).reshape(shape)
        return ((vp + vm - 2.0 * fx) * ang_w).sum(axis=1)

    # outer truncation: remainder of the f(x+z) part is bounded by the envelope
    Z = tail_radius([(surf * f.scale * (1.0 + np.linalg.norm(x)) ** f.degree,
                      f.degree - 2.0 * s)], 64.0, tol)

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
    t, wt = gauss_legendre(10, breaks)
    total += float(wt @ (ring_sum(t) * t ** (-1.0 - 2.0 * s)))
    # analytic continuation of the -2 f(x) term beyond Z
    total += -2.0 * fx * surf * Z ** (-2.0 * s) / (2.0 * s)
    return -0.5 * total


def _ball_poisson_normalizer(n: int, s: float) -> float:
    """Riesz constant c(n, s) = Gamma(n/2) sin(pi s) / pi^{n/2+1}.

    It gives the ball Poisson kernel unit mass at the center for every
    radius r, since int_r^inf (rho^2-r^2)^{-s}/rho drho = r^{-2s} pi/(2 sin pi s).
    """
    return math.gamma(n / 2.0) * math.sin(math.pi * s) / math.pi ** (n / 2.0 + 1.0)


def _shell_nodes(r: float, s: float, n: int):
    """Quadrature nodes/weights on the shell r < |ybar| <= 4r.

    The weight (|ybar|^2 - r^2)^{-s} of the kernel is folded into the node
    weights through a Jacobi rule in t = |ybar|^2 - r^2.
    """
    t, wt = gauss_jacobi(SHELL_RADIAL, -s, 15.0 * r * r)
    rho = np.sqrt(t + r * r)
    # int_r^{4r} h(rho) rho^{n-1} (rho^2-r^2)^{-s} drho in the t variable
    wrad = wt * rho ** (n - 1) / (2.0 * rho)
    if n == 1:
        pts = np.concatenate([rho, -rho])[:, None]
        wq = np.concatenate([wrad, wrad])
    else:
        dirs, ang_w = angular_rule(n, SHELL_ANGULAR)
        pts = (rho[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
        wq = (wrad[:, None] * ang_w[None, :]).ravel()
    return pts, wq


def sample_sharmonic(g, r: float, s: float, n: int) -> ScalarField:
    """Field equal to the ball Poisson integral of ``g`` inside B(0, r).

    ``g`` must be bounded with compact support in r < |ybar| <= 4r; outside
    the ball the field equals ``g`` itself, so the interior values are the
    exact s-harmonic continuation of the exterior data.

    The shell nodes (n = 1) and rings (n = 2) where the weighted data is
    exactly 0 add nothing to any sum and are left out.  For n = 1 the
    evaluator sums the shell rule directly, with |x - ybar| formed as
    |x1 - y1|.  For n = 2 each ring rho_j of the rule is summed
    through the Fourier modes C_j(m) = sum_l c_jl e^{i m theta_l} of its 64
    weighted data values: with x = R e^{i alpha} and w = (R/rho_j) e^{-i alpha},

        sum_l c_jl / |x - rho_j e^{i theta_l}|^2
            = Re sum_{m=0}^{32} e_m X_m / (rho_j^2 - R^2),
        X_m = (w^m C_j(m) + w^(64-m) conj C_j(m)) / (1 - w^64),

    with e_m = 1 for m in {0, 32} and 2 otherwise.  Since C_j is 64-periodic
    in m, 1/(1 - w^64) sums the aliased copies in closed form, so the series
    equals the 64-term ring sum without truncation.  The modes whose largest
    |C_j(m)| is at most MODE_CUTOFF times the largest sum_l |c_jl| are
    dropped.  Powers are taken of x/r and rho_j/r, which lie in the unit
    disc and in (1, 4], so none overflows.  The series places the nodes at
    their exact angles, the direct sum at their rounded coordinates; the
    two differ by a few times 1e-16 rho_j / (rho_j - |x|) relative, which is
    below 1e-15 for data that vanishes below 1.2r, as ``ball_poisson``'s does.
    """
    pts, wq = _shell_nodes(r, s, n)
    gvals = np.asarray(g(pts), dtype=float)
    if not np.all(np.isfinite(gvals)):
        raise FieldRejectedError("exterior data must be bounded on its support")
    c = _ball_poisson_normalizer(n, s)
    # (|ybar|^2-r^2)^{-s} is already folded into wq via the Jacobi weight
    coef = c * wq * gvals
    if n == 1:
        on = coef != 0.0
        y1, coef = pts[on, 0], coef[on]

        def ring_sums(xi):
            dist = xi[:, :1] - y1
            np.abs(dist, out=dist)
            return np.divide(coef, dist, out=dist).sum(axis=1)
    else:
        rings = coef.reshape(SHELL_RADIAL, SHELL_ANGULAR)
        on = np.any(rings != 0.0, axis=1)
        rings = rings[on]
        half = SHELL_ANGULAR // 2
        modes = np.fft.fft(rings, axis=1)[:, :half + 1].conj()
        keep = np.flatnonzero(
            np.abs(modes).max(axis=0, initial=0.0)
            > MODE_CUTOFF * np.abs(rings).sum(axis=1).max(initial=0.0))
        q = pts[::SHELL_ANGULAR, 0][on] / r  # rho_j / r, read at theta = 0
        kept = np.where((keep == 0) | (keep == half), 1.0, 2.0)[:, None] \
            * modes[:, keep].T
        # row k of D multiplies z^powers[k]: w^m C_j(m) and w^(64-m) conj C_j(m)
        powers = np.concatenate([keep, SHELL_ANGULAR - keep])
        D = np.concatenate([kept, kept.conj()]) * q ** -powers[:, None]
        q_wrap = q ** -float(SHELL_ANGULAR)

        def ring_sums(xi):
            z = (xi[:, 0] - 1j * xi[:, 1]) / r
            X = (z[:, None] ** powers) @ D
            X /= 1.0 - (z ** SHELL_ANGULAR)[:, None] * q_wrap
            R2 = (z * z.conj()).real
            return (X.real / (q * q - R2[:, None])).sum(axis=1) / (r * r)

    def evaluate(x):
        x = np.asarray(x, dtype=float).reshape(-1, n)
        rx = np.linalg.norm(x, axis=1)
        out = np.empty(len(x))
        inside = rx < r
        if np.any(inside):
            out[inside] = (r * r - rx[inside] ** 2) ** s * ring_sums(x[inside])
        if np.any(~inside):
            out[~inside] = np.asarray(g(x[~inside]), dtype=float)
        return out

    scale = max(1.0, float(np.max(np.abs(gvals))) if gvals.size else 1.0)
    return ScalarField(evaluator=evaluate, n=n, scale=scale,
                       description=f"ball-poisson(r={r}, s={s})",
                       kink_radii=(r,))


_WINDOW_PEAK = math.exp(16.0)  # rescale so the window tops out at 1
_WINDOW_START, _WINDOW_WIDTH = 1.2, 2.1  # where the window lives, in units of r


def _shell_window(rho, r: float):
    # smooth bump supported in (1.2r, 3.3r), mapped onto eta_raw's support
    u = (np.asarray(rho, dtype=float) - _WINDOW_START * r) / (_WINDOW_WIDTH * r)
    return _WINDOW_PEAK * eta_raw(0.25 + 0.5 * np.clip(u, 0.0, 1.0))


def _ball_poisson_data(n: int, r: float, seed: int):
    """Exterior data of the ``ball_poisson`` field: window(|y|) times one mode."""
    rng = np.random.default_rng(seed)
    a0 = rng.uniform(0.5, 1.5)
    a1 = rng.uniform(-0.5, 0.5)
    k = rng.integers(1, 4)
    phase = rng.uniform(0.0, 2.0 * math.pi)

    if n == 1:
        def angular(y):
            return a0 + a1 * np.sin(k * y[:, 0] / r + phase)
    else:
        def angular(y):
            return a0 + a1 * np.cos(k * np.arctan2(y[:, 1], y[:, 0]) + phase)

    def g(y):
        y = np.asarray(y, dtype=float).reshape(-1, n)
        out = _shell_window(np.linalg.norm(y, axis=1), r)
        # the angular factor is positive, so only the window's support needs it
        on = out > 0.0
        out[on] *= angular(y[on])
        return out

    return g


FIELD_NAMES = ("constant", "affine", "gaussian", "xplus_s", "ball_poisson")


def make_field(name: str, n: int, s: float, r: float = 1.0, seed: int = 0) -> ScalarField:
    """Built-in test field registry, selectable by string key."""
    if name == "constant":
        return ScalarField(evaluator=lambda x: np.ones(len(np.atleast_2d(x))),
                           n=n, scale=1.0, description="constant 1",
                           far=(0.0, 1.0))
    if name == "affine":
        return ScalarField(evaluator=lambda x: np.asarray(x, dtype=float).reshape(-1, n)[:, 0],
                           n=n, degree=1, scale=1.0,
                           description="affine x1")
    if name == "gaussian":
        return ScalarField(
            evaluator=lambda x: np.exp(-np.linalg.norm(
                np.asarray(x, dtype=float).reshape(-1, n), axis=1) ** 2),
            n=n, scale=1.0, description="gaussian")
    if name == "xplus_s":
        if n != 1:
            raise ValueError("xplus_s is a one-dimensional field")
        return ScalarField(
            evaluator=lambda x: np.maximum(
                np.asarray(x, dtype=float).reshape(-1, 1)[:, 0], 0.0) ** s,
            n=n, degree=s, scale=1.0,
            description=f"max(x,0)^{s}")
    if name == "ball_poisson":
        fld = sample_sharmonic(_ball_poisson_data(n, r, seed), r, s, n)
        fld.description = f"ball-poisson(n={n}, s={s}, seed={seed})"
        # the exterior data, and so the field, is 0 past the window
        fld.far = ((_WINDOW_START + _WINDOW_WIDTH) * r, 0.0)
        return fld
    raise ValueError(f"unknown field {name!r}; known: {', '.join(FIELD_NAMES)}")
