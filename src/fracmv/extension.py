"""Poisson kernel for the degenerate extension problem and its convolution.

The kernel P_y(x) = C y^{1-a} (|x|^2 + y^2)^{-(n+1-a)/2} maps boundary data
f on R^n to the extension u(x, y) = (P_y * f)(x) in the upper half-space;
the even reflection v(x, y) = u(x, |y|) solves div(|y|^a grad v) = 0.
The constant C, which gives the kernel unit mass at every height, has the
closed form of Caffarelli and Silvestre (Comm. PDE 32, 2007).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import FieldRejectedError
from .fraclap import Params, ScalarField
from .quadrature import angular_rule, gauss_legendre, sphere_area, tail_radius

__all__ = ["poisson_constant", "extend", "reflected_extension"]

RADIAL_NODES = 12  # Gauss nodes per panel of the radial rule
# rows per extend call: an n=2 ball_poisson call peaks near 45 MB at 40 rows
# and 118 MB at 400, while more rows per call save no time
EXTEND_ROWS = 40


def poisson_constant(n: int, a: float) -> float:
    """Normalizing constant C = Gamma((n+1-a)/2) / (pi^{n/2} Gamma((1-a)/2))."""
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    if not -1.0 < a < 1.0:
        raise ValueError(f"a must lie in (-1, 1), got {a}")
    return math.gamma((n + 1.0 - a) / 2.0) \
        / (math.pi ** (n / 2.0) * math.gamma((1.0 - a) / 2.0))


def _check_growth(f: ScalarField, s: float):
    if f.degree >= 2.0 * s:
        raise FieldRejectedError(
            f"field {f.description!r} (degree {f.degree}) is not integrable "
            f"against (1+|x|)^-(n+2s) for s={s}")


def _radial_breaks(W: float):
    """Panel ends of the radial rule on (0, W): 0, 1/2, then doubling to W."""
    breaks = [0.0, 0.5]
    while breaks[-1] < W:
        breaks.append(min(breaks[-1] * 2.0, W))
    return np.array(breaks)


def extend(params: Params, f: ScalarField, x, y, tol: float = 1e-8):
    """Reflected extension v(x, y) = (P_|y| * f)(x); equals f(x) at y = 0.

    ``x`` may be a single point or an array of shape (m, n), and ``y`` one
    height for every row or an array of m heights, one per row.  The
    convolution is computed in the scaled variable w = (z - x)/|y| with mean
    subtraction, on a radial rule of dyadic panels.  Each row sums its
    panels in order and stops at its own truncation radius, where the
    declared growth envelope pushes the tail estimate below ``tol`` for that
    row's |x| and height.  A field that declares ``far = (R, c)`` stops
    earlier, at the first panel past which every probe point has |z| >= R,
    and adds (c - f(x)) times the rule's kernel mass left beyond that panel.
    So a row's value does not depend on the other rows of the call.
    """
    _check_growth(f, params.s)
    n, a = params.n, params.a
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x.reshape(-1, n)
    h = np.broadcast_to(np.abs(np.asarray(y, dtype=float)), (len(pts),))
    if not np.any(h):
        vals = f(pts)
        return float(vals[0]) if single else vals
    C = poisson_constant(n, a)
    surf = sphere_area(n)

    # each row's truncation radius from the envelope of |f(x + h w) - f(x)|
    rx = np.linalg.norm(pts, axis=1)
    terms = [(C * surf * 2.0 * f.envelope(rx), a - 1.0)]
    if f.degree > 0:
        terms.append((C * surf * 2.0 * f.scale * h ** f.degree,
                      a - 1.0 + f.degree))
    W = tail_radius(terms, 64.0, tol)
    ends = _radial_breaks(float(W.max()))[1:]
    # every W is a power of 2 from 64 on, so it is a panel end
    stop = np.searchsorted(ends, W)
    rows = np.arange(len(pts))
    if f.far is not None:
        R, c = f.far
        # past panel k every probe point has |x + h t d| >= h ends[k] - |x|
        past = h[:, None] * ends >= (R + rx)[:, None]
        reached = past[rows, stop]
        stop = np.where(reached, past.argmax(axis=1), stop)
    panels = int(stop.max()) + 1

    t, wt = gauss_legendre(RADIAL_NODES, np.concatenate([[0.0], ends[:panels]]))
    kern = C * (1.0 + t * t) ** (-0.5 * (n + 1.0 - a))
    dirs, ang_w = angular_rule(n, 48)
    panel_w = (wt * t ** (n - 1) * kern).reshape(panels, RADIAL_NODES)

    fx = f(pts)
    # the angular sum of f - f(x) at each radial node
    diff = np.zeros((len(pts), len(t)))
    # probe points x + h t d, one coordinate at a time into one buffer
    step = h[:, None] * t
    probe = np.empty((len(pts), len(t), n))
    for d, wa in zip(dirs, ang_w):
        for k in range(n):
            np.multiply(step, d[k], out=probe[..., k])
            probe[..., k] += pts[:, k, None]
        vals = f(probe.reshape(-1, n)).reshape(len(pts), len(t))
        diff += wa * (vals - fx[:, None])
    # the panel sums in order, each row read at its own stop
    sums = (diff.reshape(len(pts), panels, RADIAL_NODES) * panel_w).sum(axis=2)
    out = fx + np.cumsum(sums, axis=1)[rows, stop]
    if f.far is not None:
        mass = ang_w.sum() * np.cumsum(panel_w.sum(axis=1))
        out[reached] += (c - fx[reached]) * (1.0 - mass[stop[reached]])
    return float(out[0]) if single else out


def reflected_extension(params: Params, f: ScalarField, tol: float = 1e-8):
    """Evaluator for v(z, y) on R^{n+1}, batched over rows of any height.

    Accepts an array of shape (m, n+1).  The heights are folded to |y|, so
    the mirrored points (z, y) and (z, -y) are one row, and the distinct
    (z, |y|) rows are extended in blocks of EXTEND_ROWS rows of nearby
    heights, which stop at nearby panels.
    """
    def v(points):
        rows = np.array(points, dtype=float).reshape(-1, params.n + 1)
        rows[:, -1] = np.abs(rows[:, -1])
        rows, back = np.unique(rows, axis=0, return_inverse=True)
        order = np.argsort(rows[:, -1], kind="stable")
        vals = np.empty(len(rows))
        for i in range(0, len(rows), EXTEND_ROWS):
            block = order[i:i + EXTEND_ROWS]
            vals[block] = extend(params, f, rows[block, :-1], rows[block, -1],
                                 tol=tol)
        return vals[back.ravel()]

    return v
