"""Poisson kernel for the degenerate extension problem and its convolution.

The kernel P_y(x) = C y^{1-a} (|x|^2 + y^2)^{-(n+1-a)/2} maps boundary data
f on R^n to the extension u(x, y) = (P_y * f)(x) in the upper half-space;
the even reflection v(x, y) = u(x, |y|) solves div(|y|^a grad v) = 0.
The constant C is fixed numerically by the unit-mass condition at y = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FieldRejectedError, NormalizationError, ToleranceError
from .fraclap import ScalarField
from .quadrature import angular_rule, gauss_legendre, sphere_area

__all__ = ["ExtensionKernel", "poisson_constant", "extend", "reflected_extension"]


def _profile_mass(n: int, a: float, per_panel: int) -> float:
    """Radial integral of (1+rho^2)^{-(n+1-a)/2} rho^{n-1} over (0, inf)."""
    m = (n + 1.0 - a) / 2.0
    total = 0.0
    lo = 0.0
    R = 2.0 ** 20
    hi = 1.0
    while lo < R:
        rule = gauss_legendre(per_panel, (lo, hi))
        total += float(rule.weights @ (rule.nodes ** (n - 1)
                                       * (1.0 + rule.nodes ** 2) ** -m))
        lo, hi = hi, min(hi * 2.0, R)
    # exact power-law tail: rho^{a-2} (1 - m rho^{-2} + ...)
    total += R ** (a - 1.0) / (1.0 - a) - m * R ** (a - 3.0) / (3.0 - a)
    return sphere_area(n) * total


@lru_cache(maxsize=64)
def poisson_constant(n: int, a: float) -> float:
    """Normalizing constant C with unit kernel mass at height y = 1."""
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    if not -1.0 < a < 1.0:
        raise ValueError(f"a must lie in (-1, 1), got {a}")
    mass = _profile_mass(n, a, 24)
    mass_fine = _profile_mass(n, a, 32)
    residual = abs(mass_fine - mass) / abs(mass_fine)
    if residual > 1e-12:
        raise NormalizationError("Poisson constant did not converge", residual)
    return 1.0 / mass_fine


@dataclass(frozen=True)
class ExtensionKernel:
    """Extension Poisson kernel for dimension ``n`` and exponent ``a``."""

    n: int
    a: float
    s: float
    C: float

    @classmethod
    def create(cls, n: int, a: float) -> "ExtensionKernel":
        return cls(n=n, a=a, s=(1.0 - a) / 2.0, C=poisson_constant(n, a))

    def __post_init__(self):
        if 2.0 * self.s + self.a != 1.0:
            raise ValueError("2s + a must equal 1 exactly")

    def poisson_kernel(self, x, y: float):
        """P_y(x) for y > 0; evaluated in log space for stability."""
        if not y > 0.0:
            raise ValueError(f"y must be positive, got {y}")
        x = np.asarray(x, dtype=float)
        single = x.ndim <= 1 and x.size == self.n
        pts = x.reshape(-1, self.n)
        r2 = (pts ** 2).sum(axis=1)
        logv = (1.0 - self.a) * math.log(y) \
            - 0.5 * (self.n + 1.0 - self.a) * np.log(r2 + y * y)
        vals = self.C * np.exp(logv)
        return float(vals[0]) if single else vals


def _check_growth(f: ScalarField, s: float):
    if f.growth == "bounded":
        return
    if f.growth == "polynomial" and f.degree < 2.0 * s:
        return
    raise FieldRejectedError(
        f"field {f.description!r} (growth {f.growth}, degree {f.degree}) is not "
        f"integrable against (1+|x|)^-(n+2s) for s={s}")


def _radial_rule(W: float, per_panel: int = 12):
    """Radial nodes/weights on (0, W): unit panels up to 1, then geometric."""
    nodes, weights = [], []
    lo, hi = 0.0, 0.5
    while lo < W:
        rule = gauss_legendre(per_panel, (lo, hi))
        nodes.append(rule.nodes)
        weights.append(rule.weights)
        lo, hi = hi, min(hi * 2.0, W)
    return np.concatenate(nodes), np.concatenate(weights)


def extend(k: ExtensionKernel, f: ScalarField, x, y: float, tol: float = 1e-8):
    """Reflected extension v(x, y) = (P_|y| * f)(x); equals f(x) at y = 0.

    ``x`` may be a single point or an array of shape (m, n) sharing the same
    height ``y``.  The convolution is computed in the scaled variable
    w = (z - x)/|y| with mean subtraction, truncated where the declared
    growth envelope pushes the tail estimate below ``tol``.
    """
    _check_growth(f, k.s)
    n, a = k.n, k.a
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x.reshape(-1, n)
    if y == 0.0:
        vals = f(pts)
        return float(vals[0]) if single else vals
    h = abs(y)
    surf = sphere_area(n)

    # choose truncation radius from the envelope of |f(x + h w) - f(x)|
    rmax = float(np.max(np.linalg.norm(pts, axis=1)))
    W = 64.0
    while True:
        bound = k.C * surf * 2.0 * f.envelope(rmax) * W ** (a - 1.0) / (1.0 - a)
        if f.growth == "polynomial" and f.degree >= 1:
            p = a - 1.0 + f.degree
            bound += k.C * surf * 2.0 * f.scale * h ** f.degree * W ** p / -p
        if bound <= tol / 2.0 or W >= 1e18:
            break
        W *= 4.0
    if bound > tol:
        raise ToleranceError("convolution tail estimate above tolerance", bound, tol)

    t, wt = _radial_rule(W)
    kern = k.C * (1.0 + t * t) ** (-0.5 * (n + 1.0 - a))
    dirs, ang_w = angular_rule(n, 48)

    fx = f(pts)
    out = fx.copy()
    # accumulate per direction to keep the evaluation batches moderate
    radial_w = wt * t ** (n - 1) * kern
    for d, wa in zip(dirs, ang_w):
        probe = pts[:, None, :] + h * t[None, :, None] * d[None, None, :]
        vals = f(probe.reshape(-1, n)).reshape(len(pts), len(t))
        out += wa * ((vals - fx[:, None]) * radial_w[None, :]).sum(axis=1)
    return float(out[0]) if single else out


def reflected_extension(k: ExtensionKernel, f: ScalarField, tol: float = 1e-8):
    """Evaluator for v(z, y) on R^{n+1}, batched over points sharing a height.

    Accepts an array of shape (m, n+1); points are grouped by |y| so each
    group is a single batched convolution.
    """
    def v(points):
        points = np.asarray(points, dtype=float).reshape(-1, k.n + 1)
        heights = np.abs(points[:, -1])
        out = np.empty(len(points))
        for h in np.unique(heights):
            sel = heights == h
            out[sel] = extend(k, f, points[sel, :-1], h, tol=tol)
        return out

    return v
