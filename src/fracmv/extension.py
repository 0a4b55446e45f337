"""Poisson kernel for the degenerate extension problem and its convolution.

The kernel P_y(x) = C y^{1-a} (|x|^2 + y^2)^{-(n+1-a)/2} maps boundary data
f on R^n to the extension u(x, y) = (P_y * f)(x) in the upper half-space;
the even reflection v(x, y) = u(x, |y|) solves div(|y|^a grad v) = 0.
The constant C, which gives the kernel unit mass at every height, has the
closed form of Caffarelli and Silvestre (Comm. PDE 32, 2007).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldRejectedError, ToleranceError
from .fraclap import ScalarField
from .quadrature import angular_rule, gauss_legendre, sphere_area

__all__ = ["ExtensionKernel", "poisson_constant", "extend", "reflected_extension"]


def poisson_constant(n: int, a: float) -> float:
    """Normalizing constant C = Gamma((n+1-a)/2) / (pi^{n/2} Gamma((1-a)/2))."""
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    if not -1.0 < a < 1.0:
        raise ValueError(f"a must lie in (-1, 1), got {a}")
    return math.gamma((n + 1.0 - a) / 2.0) \
        / (math.pi ** (n / 2.0) * math.gamma((1.0 - a) / 2.0))


@dataclass(frozen=True)
class ExtensionKernel:
    """Extension Poisson kernel for dimension ``n`` and exponent ``a``."""

    n: int
    a: float
    C: float

    @classmethod
    def create(cls, n: int, a: float) -> "ExtensionKernel":
        return cls(n=n, a=a, C=poisson_constant(n, a))

    @property
    def s(self) -> float:
        return (1.0 - self.a) / 2.0

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
