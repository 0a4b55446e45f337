"""Problem parameters and the s-harmonic test field generators.

Test fields that are s-harmonic inside a ball are produced by integrating
exterior data against the fractional ball Poisson kernel, which gives exact
interior values without assuming the mean value property under test.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bump import eta_raw
from .errors import FieldRejectedError
from .quadrature import angular_rule, gauss_jacobi

__all__ = [
    "Params",
    "ScalarField",
    "sample_sharmonic",
    "make_field",
    "FIELD_NAMES",
]

SHELL_RADIAL = 48   # Jacobi nodes in |ybar| of the exterior shell rule
SHELL_ANGULAR = 64  # directions of the shell rule (n = 2)
MODE_CUTOFF = 1e-14  # relative size below which a ring's Fourier mode is dropped
PASS_POINTS = 256  # interior points per pass through a field's work buffers


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
    ``extension.ray_integrals`` adds the kernel's mass beyond R in closed
    form instead of evaluating the field there; None declares nothing.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    n: int
    degree: float = 0
    scale: float = 1.0
    description: str = ""
    # radii of origin-centered spheres across which f is not analytic, as at
    # a kink or an end of the support of smooth data; quadratures place
    # panel breaks on them
    kink_radii: tuple = ()
    far: tuple | None = None

    def rows(self, points):
        """``points`` as (m, n) rows, and whether they were one point (1-D)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != self.n:
            raise ValueError(f"expected a point of length {self.n} or rows of "
                             f"shape (m, {self.n}), got shape {pts.shape}")
        return pts.reshape(-1, self.n), pts.ndim == 1

    def __call__(self, points):
        pts, single = self.rows(points)
        vals = np.asarray(self.evaluator(pts), dtype=float)
        return float(vals[0]) if single else vals

    def envelope(self, radius):
        """Upper bound for |f| on the ball of the given radius (or radii)."""
        return self.scale * (1.0 + radius) ** self.degree


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
    The modes C_j(m), m = 0..32, come from one matmul with the table
    e^{2 pi i l m / 64}, so no command loads ``numpy.fft``; they differ from
    the FFT's by about 3e-16 of sum_l |c_jl|.

    The points inside the ball go through the ring sums in passes of
    PASS_POINTS, in (points, rings) buffers that the field allocates once
    and every pass overwrites with ``out=``.  Temporaries of that shape for
    a whole batch pass glibc's 128 KiB mmap threshold, so each call mapped
    them afresh and faulted their pages in again: 3.2 M minor faults in one
    n = 2 extension average, under 2,000 with the buffers.  Passes of 64 to
    512 points give the benchmark's n = 2 steps the same peak RSS, and
    1,024 and 4,096 points raise it by 0.7 and 1.7 MB.  In that average 256
    took the fewest faults (500, against 553 at 128 and 2,611 at 512).  A
    pass costs a few microseconds of numpy calls, so at n = 1, where a node
    costs one subtraction and one division, the passes are about 4 % slower
    than one whole batch.  The buffers make the evaluator not reentrant.  A
    point whose norm is NaN is neither inside nor outside the ball and reads
    NaN.
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
        dist_buf = np.empty((PASS_POINTS, len(y1)))

        def ring_sums(xi, sums):
            dist = np.subtract(xi[:, :1], y1, out=dist_buf[:len(xi)])
            np.abs(dist, out=dist)
            np.divide(coef, dist, out=dist).sum(axis=1, out=sums)
    else:
        rings = coef.reshape(SHELL_RADIAL, SHELL_ANGULAR)
        on = np.any(rings != 0.0, axis=1)
        rings = rings[on]
        half = SHELL_ANGULAR // 2
        # C_j(m) for m = 0..32 as one matmul; l m is reduced mod 64 so that
        # every angle lies in [0, 2 pi)
        lm = np.outer(np.arange(SHELL_ANGULAR), np.arange(half + 1))
        modes = rings @ np.exp((2j * math.pi / SHELL_ANGULAR) * (lm % SHELL_ANGULAR))
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
        # (points, powers) and (points, rings) buffers that every pass reuses
        z_pow = np.empty((PASS_POINTS, len(powers)), dtype=complex)
        X_buf = np.empty((PASS_POINTS, len(q)), dtype=complex)
        wrap_buf = np.empty_like(X_buf)
        gap_buf = np.empty((PASS_POINTS, len(q)))

        def ring_sums(xi, sums):
            m = len(xi)
            z = (xi[:, 0] - 1j * xi[:, 1]) / r
            X = np.matmul(np.power(z[:, None], powers, out=z_pow[:m]), D,
                          out=X_buf[:m])
            wrap = np.multiply.outer(z ** SHELL_ANGULAR, q_wrap, out=wrap_buf[:m])
            X /= np.subtract(1.0, wrap, out=wrap)
            R2 = (z * z.conj()).real
            gap = np.subtract(q * q, R2[:, None], out=gap_buf[:m])
            np.divide(X.real, gap, out=gap).sum(axis=1, out=sums)
            sums /= r * r

    def interior_sums(xi):
        sums = np.empty(len(xi))
        for lo in range(0, len(xi), PASS_POINTS):
            ring_sums(xi[lo:lo + PASS_POINTS], sums[lo:lo + PASS_POINTS])
        return sums

    def evaluate(x):
        rx = np.linalg.norm(x, axis=1)
        inside = rx < r
        sums = interior_sums(x[inside])
        # a NaN point is neither inside nor outside, and reads NaN
        out = np.full(len(x), np.nan)
        out[inside] = (r * r - rx[inside] ** 2) ** s * sums
        outside = rx >= r
        if np.any(outside):
            out[outside] = np.asarray(g(x[outside]), dtype=float)
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
    """Exterior data of the ``ball_poisson`` field: window(|y|) times one mode.

    The mode's a0, a1, k and phase come from ``random.Random(seed)``, which
    ``import numpy`` has already loaded; ``numpy.random`` would cost each
    command 2.6 MB and OpenSSL.  The family is the one numpy's generator
    drew from, but a given seed now names a different member of it.
    """
    if seed < 0:
        # random.Random seeds from |seed|, so -1 would name the field of 1
        raise ValueError(f"seed must not be negative, got {seed}")
    rng = random.Random(seed)
    a0 = rng.uniform(0.5, 1.5)
    a1 = rng.uniform(-0.5, 0.5)
    k = rng.randint(1, 3)
    phase = rng.uniform(0.0, 2.0 * math.pi)

    if n == 1:
        def angular(y):
            return a0 + a1 * np.sin(k * y[:, 0] / r + phase)
    else:
        def angular(y):
            return a0 + a1 * np.cos(k * np.arctan2(y[:, 1], y[:, 0]) + phase)

    def g(y):
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
        return ScalarField(evaluator=lambda x: np.ones(len(x)),
                           n=n, scale=1.0, description="constant 1",
                           far=(0.0, 1.0))
    if name == "affine":
        return ScalarField(evaluator=lambda x: x[:, 0],
                           n=n, degree=1, scale=1.0,
                           description="affine x1")
    if name == "gaussian":
        return ScalarField(
            evaluator=lambda x: np.exp(-np.linalg.norm(x, axis=1) ** 2),
            n=n, scale=1.0, description="gaussian")
    if name == "xplus_s":
        if n != 1:
            raise ValueError("xplus_s is a one-dimensional field")
        return ScalarField(evaluator=lambda x: np.maximum(x[:, 0], 0.0) ** s,
                           n=n, degree=s, scale=1.0,
                           description=f"max(x,0)^{s}")
    if name == "ball_poisson":
        fld = sample_sharmonic(_ball_poisson_data(n, r, seed), r, s, n)
        fld.description = f"ball-poisson(n={n}, s={s}, seed={seed})"
        # the exterior data, and so the field, is 0 past the window, whose
        # end a rule that does not stop there needs as a break
        edge = (_WINDOW_START + _WINDOW_WIDTH) * r
        fld.kink_radii = (r, edge)
        fld.far = (edge, 0.0)
        return fld
    raise ValueError(f"unknown field {name!r}; known: {', '.join(FIELD_NAMES)}")
