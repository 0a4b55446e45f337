"""Quadrature rules: composite Gauss-Legendre, Gauss-Jacobi, angular, shell.

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

# the bump profile's support, in units of its radius; bump.py takes its
# SUPPORT_LO and SUPPORT_HI from here
SHELL = (0.25, 0.75)
SHELL_RADII = 32   # Gauss-Legendre radii of the shell rule
ARC_NODES = 8      # Gauss-Jacobi angles per quarter arc (n = 1)
HEIGHT_NODES = 6   # Gauss-Jacobi heights |omega_y| per hemisphere (n = 2)
AZIMUTHS = 24      # trapezoidal azimuths per height (n = 2)


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


def tail_radius(terms, start: float, tol: float):
    """Truncation radius W of an integral over all of space.

    Each (c, p) term bounds part of the tail beyond W by c W^p / (-p).  W
    starts at ``start`` and grows by 4 until the bound is at most tol/2.
    A coefficient c may be an array, one bound per row; W is then an array
    with each row's own radius.  Raises ToleranceError when some p >= 0, or
    when a bound is still above ``tol`` once W reaches 1e18.
    """
    if any(p >= 0.0 for _, p in terms):
        raise ToleranceError("tail diverges for declared growth", math.inf, tol)
    radii = [float(start)]
    while radii[-1] < 1e18:
        radii.append(radii[-1] * 4.0)
    radii = np.array(radii)
    # the bound of every row (leading axes) at every radius (last axis)
    bound = sum(np.multiply.outer(c, radii ** p) / -p for c, p in terms)
    small = bound <= tol / 2.0
    small[..., -1] = True
    first = small.argmax(axis=-1)
    final = np.take_along_axis(bound, first[..., None], axis=-1)
    if np.any(final > tol):
        raise ToleranceError("tail estimate above tolerance", float(final.max()), tol)
    W = radii[first]
    return float(W) if np.ndim(W) == 0 else W


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


def _sphere_rule(n: int, a: float):
    """Directions and weights on S^n in R^{n+1} for the weight |omega_y|^a.

    n = 1: ``gauss_jacobi`` in theta times (sin theta/theta)^a on the four
    quarter arcs (+-cos theta, +-sin theta).  n = 2: Archimedes' du dphi,
    ``gauss_jacobi`` in |u| = |omega_y| mirrored to +-u, times azimuths.
    """
    if n == 1:
        theta, w = gauss_jacobi(ARC_NODES, a, 0.5 * math.pi)
        arc = np.column_stack([np.cos(theta), np.sin(theta)])
        dirs = np.concatenate([arc * q for q in ((1, 1), (-1, 1), (1, -1), (-1, -1))])
        return dirs, np.tile(w * (np.sin(theta) / theta) ** a, 4)
    u, wu = gauss_jacobi(HEIGHT_NODES, a, 1.0)
    u, wu = np.concatenate([-u, u]), np.tile(wu, 2)
    plane, wp = angular_rule(2, AZIMUTHS)
    ring = np.sqrt(1.0 - u * u)[:, None, None] * plane
    dirs = np.dstack([ring, np.broadcast_to(u[:, None], ring.shape[:2])])
    return dirs.reshape(-1, 3), np.outer(wu, wp).ravel()


def integrate_ball_weighted(g, center, radius: float, a: float) -> float:
    """Integrate ``g`` against |y|^a over the shell where phi_radius lives.

    ``g`` must vanish outside the shell SHELL[0] R < |Z - center| <
    SHELL[1] R, R = ``radius``, as phi_R(center - Z) does.  The center lies
    on y = 0, so Z = center + rho omega has |y|^a = rho^a |omega_y|^a: the
    rule is ``SHELL_RADII`` Gauss-Legendre radii with the weight rho^(n+a)
    times ``_sphere_rule``.  ``g`` is called once, with every node as an
    array of shape (m, n+1), and must return shape (m,).
    """
    center = np.asarray(center, dtype=float)
    n = center.size - 1
    if n not in (1, 2):
        raise ValueError(f"supported spatial dimensions are 1 and 2, got n={n}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if center[-1] != 0.0:
        raise ValueError("ball center must lie on the hyperplane y=0")
    rho, wr = gauss_legendre(SHELL_RADII, (SHELL[0] * radius, SHELL[1] * radius))
    dirs, wd = _sphere_rule(n, a)
    pts = (center + rho[:, None, None] * dirs).reshape(-1, n + 1)
    w = np.outer(wr * rho ** (n + a), wd)
    vals = np.asarray(g(pts), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(pts[~np.isfinite(vals)][0])
    # a pairwise sum: its rounding grows like log m, not m
    return float(np.sum(w.ravel() * vals))
