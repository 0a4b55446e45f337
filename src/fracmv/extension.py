"""Poisson kernel for the degenerate extension problem and its convolution.

The kernel P_y(x) = C y^{1-a} (|x|^2 + y^2)^{-(n+1-a)/2} maps boundary data
f on R^n to the extension u(x, y) = (P_y * f)(x) in the upper half-space;
the even reflection v(x, y) = u(x, |y|) solves div(|y|^a grad v) = 0.
The constant C, which gives the kernel unit mass at every height, has the
closed form of Caffarelli and Silvestre (Comm. PDE 32, 2007).

P_y * f, Phi_r * f and the gradient of an s-harmonic f are integrals of f
along rays against radial kernels; ``ray_integrals`` computes all three.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import FieldRejectedError
from .fraclap import Params, ScalarField
from .quadrature import angular_rule, gauss_legendre, sphere_area, tail_radius

__all__ = ["poisson_constant", "ray_integrals", "extend", "reflected_extension"]

RADIAL_NODES = 12  # Gauss nodes per panel of the radial rule
DIRECTIONS = 48    # directions of the angular rule (n = 2)
EXTEND_POINTS = 2048  # points per field call, of probes and of rows alike
RAY_BLOCK = 256  # rays whose panels form one array: bounds its memory


def poisson_constant(n: int, a: float) -> float:
    """Normalizing constant C = Gamma((n+1-a)/2) / (pi^{n/2} Gamma((1-a)/2))."""
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    if not -1.0 < a < 1.0:
        raise ValueError(f"a must lie in (-1, 1), got {a}")
    return math.gamma((n + 1.0 - a) / 2.0) \
        / (math.pi ** (n / 2.0) * math.gamma((1.0 - a) / 2.0))


def _radial_breaks(W: float, body):
    """Panel ends on (0, W): those of ``body``, from 0, then doubling."""
    breaks = list(body)
    while breaks[-1] < W:
        breaks.append(2.0 * breaks[-1])
    breaks = np.array(breaks)
    return np.append(breaks[breaks < W], W)


def _ray_panels(ends, stop, cuts):
    """Panels (ray, lo, hi) of rays that stop at ``stop``, ray by ray in order.

    A ray's panel ends are the shared ``ends[1:]`` and its own row of
    ``cuts`` (inf where it has none), each capped at its stop.  Each end
    closes the panel that its left neighbour, or 0, opens; empty panels drop.
    """
    shared = np.broadcast_to(ends[1:], (stop.size, ends.size - 1))
    hi = np.minimum(np.concatenate([shared, cuts], axis=1), stop[:, None])
    hi.sort(axis=1)
    lo = np.zeros_like(hi)
    lo[:, 1:] = hi[:, :-1]
    ray, col = np.nonzero(hi > lo)
    return ray, lo[ray, col], hi[ray, col]


def ray_integrals(f: ScalarField, x, scale, kernel, tail: float, mass: float,
                  body, tol: float, subtract=0.0, moment: bool = False):
    """Integrals of f along rays from each row against a radial kernel K.

    Row i is a point x_i with a scale h_i > 0.  Direction d_j of the angular
    rule, of weight w_j, gives I_ij, the integral over t > 0 of
    K(t) t^(n-1) (f(x_i + h_i t d_j) - f0_i), f0 = ``subtract``.  Returns
    sum_j w_j I_ij, an (m,) array, or with ``moment`` sum_j w_j d_j I_ij, an
    (m, n) array.  |K(t)| decays like t^-tail past t = 64, ``mass`` is the
    integral of K(|w|) over R^n, and ``body`` holds the panel ends, from 0,
    that resolve K.  For a field with ``far = (R, c)`` a ray stops where it
    leaves |z| < R, by W_i = (R + |x_i|)/h_i, and past its stop adds
    (c - f0_i) times mass / |S^(n-1)| less its rule's kernel mass.  Other
    rows, and those whose W_i would pass 1e18, stop at the truncation radius
    W_i of one ``tail_radius`` call, past which the growth envelope bounds
    the rest below ``tol``.  A ray's panels end at the ``_radial_breaks`` up
    to the largest W and at its crossings of the ``f.kink_radii`` spheres,
    capped at its stop (``_ray_panels``), each with its own
    RADIAL_NODES-node Gauss rule.  Each ray sums its panels in order
    and each row its rays, so a row's value does not depend on the others.
    """
    n = f.n
    pts = np.asarray(x, dtype=float).reshape(-1, n)
    h = np.broadcast_to(np.asarray(scale, dtype=float), (len(pts),))
    f0 = np.broadcast_to(np.asarray(subtract, dtype=float), (len(pts),))
    dirs, ang_w = angular_rule(n, DIRECTIONS)
    D = len(dirs)

    surf = sphere_area(n)
    norm = np.linalg.norm(pts, axis=1)
    W = np.full(len(pts), np.inf)
    if f.far is not None:
        # a far field's rays have all left |z| < R by t = (R + |x|)/h
        reach = f.far[0] + norm
        np.divide(reach, h, out=W, where=reach / 1e18 <= h)
    tail_rows = W == np.inf
    if tail_rows.any():
        # the truncation radius from the kernel's bound |K(t)| <= coef t^-tail
        # (t^tail K(t) has settled by t = 1e18) and |f - f0| <=
        # envelope(|x|) + |f0| + scale (h t)^degree
        coef = abs(kernel(1e18)) * 1e18 ** tail
        terms = [(coef * surf * (f.envelope(norm[tail_rows])
                                 + np.abs(f0[tail_rows])), n - tail)]
        if f.degree > 0:
            terms.append((coef * surf * f.scale * h[tail_rows] ** f.degree,
                          n - tail + f.degree))
        W[tail_rows] = tail_radius(terms, 64.0, tol)
    # the panel ends run to the largest W and cap at each ray's own stop
    ends = _radial_breaks(float(W.max(initial=0.0)), body)
    g_t, g_w = gauss_legendre(RADIAL_NODES, (-1.0, 1.0))

    out = np.empty((len(pts), n) if moment else len(pts))
    block = max(1, RAY_BLOCK // D)  # rows whose rays share one array
    for b0 in range(0, len(pts), block):
        rows = slice(b0, b0 + block)
        xb = pts[rows]
        # ray i D + j is row i in direction j; its scale, f0 and stop
        hr, fr, stop = (np.repeat(v[rows], D) for v in (h, f0, W))
        # the ray z = x + u d meets the sphere |z| = rho where
        # u = -x.d +- sqrt(rho^2 - gap), gap = |x|^2 - (x.d)^2
        xd = sum(xb[:, k, None] * dirs[:, k] for k in range(n)).ravel()
        gap = np.repeat((xb * xb).sum(axis=1), D) - xd * xd
        if f.far is not None:
            R, c = f.far
            # u where the ray leaves |z| < R, 0 if it is never inside
            leave = np.where(R * R > gap, np.sqrt(np.abs(R * R - gap)) - xd, 0.0)
            leave = np.maximum(leave, 0.0) if R > 0.0 else np.zeros_like(leave)
            np.divide(leave, hr, out=stop, where=leave < hr * stop)

        # each ray's kink crossings, inf where it misses a sphere or meets
        # it behind x or past its stop; with no kinks it has no columns
        rho2 = np.square(f.kink_radii)[:, None, None]
        u = np.sqrt(np.abs(rho2 - gap)) * np.array([[-1.0], [1.0]]) - xd
        hit = (rho2 > gap) & (u > 0.0) & (u < hr * stop)
        cuts = np.where(hit, u / hr, np.inf).reshape(-1, stop.size).T
        ray, lo, hi = _ray_panels(ends, stop, cuts)

        # each panel's ray: its origin, its step h d and its f0
        row, dj = np.divmod(ray, D)
        origin, step, f0p = xb[row], hr[ray, None] * dirs[dj], fr[ray]
        sums = np.empty(len(ray))  # each panel's integral
        masses = np.empty(len(ray))  # and its rule's kernel mass
        chunk = EXTEND_POINTS // RADIAL_NODES
        for c0 in range(0, len(ray), chunk):
            sl = slice(c0, c0 + chunk)
            # the panels' Gauss nodes and kernel weights
            half = 0.5 * (hi[sl] - lo[sl])[:, None]
            t = 0.5 * (hi[sl] + lo[sl])[:, None] + half * g_t
            w = kernel(t) * (half * g_w) * t ** (n - 1)
            # probe points x + t h d, one coordinate at a time into one buffer
            probe = np.empty(t.shape + (n,))
            for j in range(n):
                np.multiply(t, step[sl, j, None], out=probe[..., j])
                probe[..., j] += origin[sl, j, None]
            vals = f(probe.reshape(-1, n)).reshape(t.shape)
            vals -= f0p[sl, None]
            sums[sl] = (vals * w).sum(axis=1)
            masses[sl] = w.sum(axis=1)
        # the panel sums of each ray in order; a bincount of no panels is int
        total = np.bincount(ray, sums, stop.size).astype(float, copy=False)
        if f.far is not None:
            total += (c - fr) * (mass / surf - np.bincount(ray, masses, stop.size))
        parts = total.reshape(-1, D) * ang_w
        # einsum sums each row alone, as a one-row call does; BLAS's
        # (rows, D) @ (D, n) rounds some rows differently
        out[rows] = np.einsum("rd,dk->rk", parts, dirs) if moment else parts.sum(axis=1)
    return out


def extend(params: Params, f: ScalarField, x, y, tol: float = 1e-8):
    """Reflected extension v(x, y) = (P_|y| * f)(x); equals f(x) at y = 0.

    ``x`` may be a single point or an array of shape (m, n), and ``y`` one
    height for every row or an array of m heights, one per row.  In the
    variable w = (z - x)/|y| the kernel is C (1 + |w|^2)^(-(n+1-a)/2), of
    unit mass, and ``ray_integrals`` integrates f - f(x) against it.
    """
    if f.degree >= 2.0 * params.s:
        raise FieldRejectedError(
            f"field {f.description!r} (degree {f.degree}) is not integrable "
            f"against (1+|x|)^-(n+2s) for s={params.s}")
    n, a = params.n, params.a
    pts, single = f.rows(x)
    h = np.broadcast_to(np.abs(np.asarray(y, dtype=float)), (len(pts),))
    # f at the rows, EXTEND_POINTS a call as for the probes, into a fresh array
    out = np.concatenate([f(c) for c in np.split(
        pts, range(EXTEND_POINTS, len(pts), EXTEND_POINTS))])
    up = h > 0.0
    if np.any(up):
        C = poisson_constant(n, a)
        p = n + 1.0 - a
        out[up] += ray_integrals(f, pts[up], h[up],
                                 lambda t: C * (1.0 + t * t) ** (-0.5 * p), p, 1.0,
                                 (0.0, 1.0), tol, subtract=out[up])
    return float(out[0]) if single else out


def reflected_extension(params: Params, f: ScalarField):
    """Evaluator for v(z, y) on R^{n+1}, batched over rows of any height.

    Accepts an array of shape (m, n+1).  The heights are folded to |y|, so
    the mirrored points (z, y) and (z, -y) are one row, and the distinct
    (z, |y|) rows, sorted by height, are extended in one ``extend`` call.
    """
    def v(points):
        rows = np.array(points, dtype=float).reshape(-1, params.n + 1)
        rows[:, -1] = np.abs(rows[:, -1])
        # the distinct rows, reversed so that np.unique sorts by height first
        rows, back = np.unique(rows[:, ::-1], axis=0, return_inverse=True)
        return extend(params, f, rows[:, :0:-1], rows[:, 0])[back]

    return v
