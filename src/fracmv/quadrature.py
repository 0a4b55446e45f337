"""Quadrature rules: composite Gauss-Legendre, Gauss-Jacobi, angular, ball.

Every rule is a plain (nodes, weights) pair of arrays, and the same
arguments always produce bit-identical nodes and weights.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import EvaluationError, ToleranceError

__all__ = [
    "tail_radius",
    "gauss_legendre",
    "gauss_jacobi",
    "integrate_ball_weighted",
    "sphere_area",
    "angular_rule",
]


@lru_cache(maxsize=256)
def _leggauss(count: int):
    return np.polynomial.legendre.leggauss(count)


def _jacobi(count: int, a: float, t):
    """Jacobi polynomial P_count^(0,a) and its derivative at t."""
    p0, p1 = np.ones_like(t), 0.5 * ((a + 2.0) * t - a)
    d0, d1 = np.zeros_like(t), np.full_like(t, 0.5 * (a + 2.0))
    for m in range(2, count + 1):
        c = 2.0 * m + a
        lin = (c - 1.0) * (c * (c - 2.0) * t - a * a)
        back = 2.0 * (m - 1.0) * (m + a - 1.0) * c
        den = 2.0 * m * (m + a) * (c - 2.0)
        p0, p1, d0, d1 = p1, (lin * p1 - back * p0) / den, d1, (
            lin * d1 + (c - 1.0) * c * (c - 2.0) * p1 - back * d0) / den
    return p1, d1


@lru_cache(maxsize=256)
def _jacgauss(count: int, a: float):
    # weight (1+t)^a on [-1, 1]: Golub-Welsch eigenvalues of the Jacobi
    # matrix of P^(0,a), one Newton step, then the closed-form weights
    k = np.arange(1, count, dtype=float)
    s = 2.0 * k + a
    diag = np.concatenate([[a / (a + 2.0)], a * a / (s * (s + 2.0))])
    off = 2.0 * k * (k + a) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p, dp = _jacobi(count, a, t)
    t = t - p / dp
    _, dp = _jacobi(count, a, t)
    return t, 2.0 ** (a + 1.0) / ((1.0 - t) * (1.0 + t) * dp * dp)


def sphere_area(n: int) -> float:
    """Surface measure |S^{n-1}| of the unit sphere in R^n, n in {1, 2}."""
    return 2.0 if n == 1 else 2.0 * math.pi


def angular_rule(n: int, count: int):
    """Directions and weights of the full unit sphere S^{n-1}, n in {1, 2}.

    For n = 1 the sphere is the two points +-1; for n = 2 the rule is the
    equal-weight trapezoidal rule at ``count`` equally spaced angles, so the
    weights sum to 2 pi.
    """
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    theta = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    return dirs, np.full(count, 2.0 * math.pi / count)


def tail_radius(terms, start: float, tol: float) -> float:
    """Truncation radius W of an integral over all of space.

    Each (c, p) term bounds part of the tail beyond W by c W^p / (-p).  W
    starts at ``start`` and grows by 4 until the bound is at most tol/2.
    Raises ToleranceError when some p >= 0, or when the bound is still
    above ``tol`` once W reaches 1e18.
    """
    if any(p >= 0.0 for _, p in terms):
        raise ToleranceError("tail diverges for declared growth", math.inf, tol)
    W = start
    while True:
        bound = sum(c * W ** p / -p for c, p in terms)
        if bound <= tol / 2.0 or W >= 1e18:
            break
        W *= 4.0
    if bound > tol:
        raise ToleranceError("tail estimate above tolerance", bound, tol)
    return W


def gauss_legendre(count: int, breaks):
    """Composite Gauss-Legendre rule on the panels between ``breaks``.

    ``breaks`` holds at least two strictly increasing points; each panel
    gets the ``count``-point rule, exact for degree <= 2*count - 1, mapped
    from [-1, 1] as mid + half*t.  ``(lo, hi)`` gives the single rule.
    Returns the flat arrays (nodes, weights), panel by panel.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    b = np.asarray(breaks, dtype=float)
    if b.ndim != 1 or b.size < 2 or not np.all(b[1:] > b[:-1]):
        raise ValueError(f"breaks must be 2 or more increasing points, got {breaks}")
    t, w = _leggauss(count)
    half = 0.5 * (b[1:] - b[:-1])
    mid = 0.5 * (b[1:] + b[:-1])
    return (mid[:, None] + half[:, None] * t).ravel(), (half[:, None] * w).ravel()


def gauss_jacobi(count: int, a: float, hi: float):
    """Gauss-Jacobi rule for int_0^hi t^a f(t) dt, a > -1.

    Maps the cached ``count``-point rule of weight (1+t)^a on [-1, 1] as
    hi*(1+t)/2.  For 2 to 64 nodes the relative error of the moments
    int_0^hi t^(a+j) dt, j < 2*count, is at most 2e-14 for a >= -0.5.  At
    a = -0.99 it is 6e-12 at 32 nodes and 1e-11 at 48: the first node lies
    near 1e-5 hi, where the rounding of t next to -1 is relatively large, and
    that sets the error of the zeroth moment; the others stay below 2e-15.
    """
    t, w = _jacgauss(count, a)
    return hi * (1.0 + t) / 2.0, (hi / 2.0) ** (1.0 + a) * w


def _ball_y_rule(a: float, radius: float, resolution: int):
    """Positive half of the symmetric y-rule for ball slices.

    The rule has weight |y|^a and an edge-aware tail; the nodes -y carry the
    same weights as y.  Jacobi nodes handle the y^a weight on [0, R/2]; on
    [R/2, R] the slice width behaves like sqrt(R^2 - y^2), so the
    substitution y = R sin(phi) removes the square-root edge there.
    """
    half = max(2, resolution // 2)
    y_in, w_in = gauss_jacobi(half, a, 0.5 * radius)
    phi, w_phi = gauss_legendre(half, (np.arcsin(0.5), 0.5 * np.pi))
    y_out = radius * np.sin(phi)
    w_out = w_phi * radius * np.cos(phi) * y_out ** a
    return np.concatenate([y_in, y_out]), np.concatenate([w_in, w_out])


def integrate_ball_weighted(g, center, radius: float, a: float, resolution: int) -> float:
    """Integrate ``g`` against |y|^a over a ball in R^{n+1}.

    ``g`` is called once, with every node of the rule: it receives an array
    of shape (m, n+1) and must return an array of shape (m,).  The last
    coordinate is y; the center must lie on the hyperplane y = 0 so the
    Jacobi rule in y applies.  The ball indicator is absorbed by restricting
    each x coordinate to the chord through the nodes before it: the y-rule
    times a ``resolution``-point Gauss-Legendre rule on each chord.
    """
    center = np.asarray(center, dtype=float)
    n = center.size - 1
    if n not in (1, 2):
        raise ValueError(f"supported spatial dimensions are 1 and 2, got n={n}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if center[-1] != 0.0:
        raise ValueError("ball center must lie on the hyperplane y=0")
    y, wy = _ball_y_rule(a, radius, resolution)
    t, wt = _leggauss(resolution)
    cols = [np.concatenate([-y[::-1], y])]
    w = np.concatenate([wy[::-1], wy])
    # squared half-chord of the ball on the next axis, at each node so far
    chord2 = radius * radius - cols[0] ** 2
    for c in center[:-1]:
        # gauss_legendre's map onto (c - s, c + s), node for node
        s = np.sqrt(chord2)[..., None]
        lo, hi = c - s, c + s
        half = 0.5 * (hi - lo)
        x = 0.5 * (lo + hi) + half * t
        w = w[..., None] * (half * wt)
        chord2 = s * s - (x - c) ** 2
        cols = [col[..., None] for col in cols] + [x]
    pts = np.stack(np.broadcast_arrays(*cols[1:], cols[0]), axis=-1)
    pts = pts.reshape(-1, n + 1)
    vals = np.asarray(g(pts), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(pts[~np.isfinite(vals)][0])
    # a pairwise sum: its rounding grows like log m, not m
    return float(np.sum(w.ravel() * vals))
