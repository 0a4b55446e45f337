"""Maximal operators, gradient representation, and smoothness-norm ratios.

The two headline checks live here: the pointwise bound of the gradient by
the fractional sharp maximal function, and the weighted-gradient-norm
versus Besov-seminorm ratio over a family of sample fields.  Suprema over
all balls are approximated by a finite, enrichable family; the Besov
seminorm uses the difference-quotient realization with dyadic refinement
in the increment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fraclap import ScalarField
from .kernel import RadialKernelTable, gradient_of_solution
from .quadrature import angular_rule, gauss_legendre

__all__ = [
    "Domain",
    "BallFamily",
    "ReportRow",
    "rows_to_csv",
    "sharp_maximal",
    "hl_maximal",
    "gradient_of_solution",
    "gradient_sharp_ratio",
    "BesovResult",
    "besov_seminorm",
    "weighted_gradient_besov_ratio",
]

CSV_HEADER = "field_id,x,r,lambda,p,value,kind"


@dataclass(frozen=True)
class Domain:
    """The ball B(center, radius) of R^n, the interval (c - r, c + r) at n = 1."""

    center: tuple
    radius: float

    @classmethod
    def ball(cls, center, radius: float) -> "Domain":
        if not radius > 0:
            raise ValueError("radius must be positive")
        return cls(tuple(float(c) for c in np.atleast_1d(center)), float(radius))

    def distance_to_boundary(self, x) -> float:
        """delta(x): distance to the boundary for interior x, 0 outside."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return max(0.0, self.radius - float(np.linalg.norm(x - self.center)))


@dataclass(frozen=True)
class BallFamily:
    """Finite family of balls used to approximate suprema.

    Radii are geometric in [r_min, r_max] with the given ratio; for each
    radius the centers sit at the probe point shifted by the offset
    fractions of the radius along each signed axis direction.  Enriching
    the family (more radii, offsets, or resolution) never decreases a
    supremum taken over it.
    """

    r_min: float = 1e-3
    r_max: float = 8.0
    ratio: float = math.sqrt(2.0)
    offsets: tuple = (0.0, 0.5, 0.9)
    resolution: int = 64

    def radii(self) -> np.ndarray:
        # geometric with both endpoints included; the ratio is a target,
        # rounded so the sequence lands exactly on r_max
        count = max(1, round(math.log(self.r_max / self.r_min)
                             / math.log(self.ratio)))
        return np.geomspace(self.r_min, self.r_max, count + 1)

    def centers(self, x, radius: float) -> np.ndarray:
        # x, then x moved by each nonzero offset along -e_j and e_j, axis by axis
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return x + np.array([np.zeros(x.size)] + [
            sign * frac * radius * e for frac in self.offsets if frac != 0.0
            for e in np.eye(x.size) for sign in (-1.0, 1.0)])


def _midpoint_grid(lo: float, width: float, count: int, n: int):
    """Cell midpoints of the cube [lo, lo + width]^n, ``count`` cells per axis.

    Returns the points, shape (count^n, n), in meshgrid order, and the cell
    measure.
    """
    step = width / count
    u = lo + (np.arange(count) + 0.5) * step
    return np.column_stack([g.ravel() for g in np.meshgrid(*[u] * n)]), step ** n


def _ball_cells(center, radius: float, m: int):
    """Midpoints of an m^n grid on the ball's bounding cube that lie in it.

    Returns the points and the cell measure.  No midpoint lies on the
    sphere: the midpoints are radius * k / m with k = 2i + 1 - m, so
    |k| < m, and at n = 2 k^2 + l^2 and m^2 differ mod 4.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    pts, cell = _midpoint_grid(-radius, 2.0 * radius, m, center.size)
    return pts[(pts ** 2).sum(axis=1) < radius * radius] + center, cell


def _ball_measure(n: int, radius: float) -> float:
    return 2.0 * radius if n == 1 else math.pi * radius * radius


def _ball_means(f: ScalarField, x, family: BallFamily, fx: float):
    """Yield (radius, means): the mean of |f - fx| over each ball of a radius.

    The midpoint cells of a radius are built once and shifted to every
    center, so each radius costs one field call; ``means`` holds one value
    per center, in the order of ``family.centers``.
    """
    n = x.size
    m = family.resolution
    if n > 1:
        m = max(4, int(round(math.sqrt(m) * 2)))
    for radius in family.radii():
        cells = _ball_cells(np.zeros(n), radius, m)[0]
        centers = family.centers(x, radius)
        vals = f((centers[:, None, :] + cells[None, :, :]).reshape(-1, n))
        yield radius, np.abs(vals - fx).reshape(len(centers), -1).mean(axis=1)


def sharp_maximal(f: ScalarField, x, lam, family: BallFamily):
    """Fractional sharp maximal function at x over the finite ball family.

    Each ball contributes |B|^(-lambda/n) times the average of |f - f(x)|
    over its midpoint sample; the result is the maximum contribution.
    ``lam`` is one lambda, which returns a float, or several, which return
    an array with one value per lambda; the ball means are sampled once.
    """
    lams = np.atleast_1d(lam).tolist()
    if not all(0.0 < lm < 1.0 for lm in lams):
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    fx = f(x)
    best = np.max([[np.max(_ball_measure(f.n, radius) ** (-lm / f.n) * means)
                    for lm in lams]
                   for radius, means in _ball_means(f, x, family, fx)], axis=0)
    return float(best[0]) if np.ndim(lam) == 0 else best


def hl_maximal(f: ScalarField, x, family: BallFamily) -> float:
    """Hardy-Littlewood maximal function of |f| over the finite family."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return max(float(np.max(means))
               for _, means in _ball_means(f, x, family, 0.0))


@dataclass(frozen=True)
class ReportRow:
    field_id: str
    x: tuple
    r: float
    lam: float
    p: float
    value: float
    kind: str

    def csv(self) -> str:
        xs = ";".join(f"{c:.6g}" for c in self.x)
        return (f"{self.field_id},{xs},{self.r:.6g},{self.lam:.6g},"
                f"{self.p:.6g},{self.value:.10g},{self.kind}")


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [row.csv() for row in rows]) + "\n"


def _median(vals) -> float:
    """The median of vals, as np.median forms it.

    A command's first np.median call imports numpy.ma (about 16 ms), and
    importing statistics pulls in decimal and fractions (about 0.6 MB).
    """
    ordered = sorted(vals)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2.0)


def gradient_sharp_ratio(table: RadialKernelTable, f: ScalarField,
                         domain: Domain, lam, grid, radius_factors,
                         field_id: str = "field",
                         family: BallFamily | None = None) -> list[ReportRow]:
    """Ratios |grad f(x)| / (r^(lambda-1) sharp_maximal) on an interior grid.

    One row per (x, factor) pair with kind "gradient_sharp_ratio", plus a
    max and a median summary row per factor (x recorded as the empty tuple).
    ``lam`` is one lambda or several; several give the rows of each lambda
    in turn, from one set of gradients and one ``sharp_maximal`` call per x.
    The bound being probed is uniform in r, so the rows at small factors
    should not exceed a fixed multiple of those at large factors.
    """
    family = family or BallFamily(resolution=48)
    pts = [np.atleast_1d(np.asarray(x, dtype=float)) for x in grid]
    deltas = [domain.distance_to_boundary(x) for x in pts]
    if min(deltas) <= 0.0:
        raise ValueError(f"grid point {pts[int(np.argmin(deltas))]} is not interior")
    radii = [[fac * delta for fac in radius_factors] for delta in deltas]
    # one gradient row per (x, factor), x by x, and one sharp maximal per x
    grads = gradient_of_solution(
        table, f, np.repeat(pts, len(radius_factors), axis=0), np.ravel(radii))
    gnorms = np.split(np.array([np.linalg.norm(g) for g in grads]), len(pts))
    sharps = [np.atleast_1d(sharp_maximal(f, x, lam, family)) for x in pts]
    # the ball means vanish for every lambda or for none
    if any(s[0] == 0.0 and gs.max() > 1e-10 for s, gs in zip(sharps, gnorms)):
        raise ArithmeticError("vanishing sharp maximal with nonzero gradient")
    rows = []
    for lm, sharp in zip(np.atleast_1d(lam).tolist(), np.transpose(sharps)):
        ratios = [[0.0 if s == 0.0 else g / (r ** (lm - 1.0) * s)
                   for r, g in zip(rs, gs)] for rs, gs, s in zip(radii, gnorms, sharp)]
        rows += [ReportRow(field_id, tuple(x), r, lm, math.nan, q,
                           "gradient_sharp_ratio")
                 for x, rs, qs in zip(pts, radii, ratios) for r, q in zip(rs, qs)]
        for fac, vals in zip(radius_factors, zip(*ratios)):
            # np.max keeps a NaN ratio, which the band check then fails
            rows.append(ReportRow(field_id, (), fac, lm, math.nan,
                                  np.max(vals), "ratio_max_over_grid"))
            rows.append(ReportRow(field_id, (), fac, lm, math.nan,
                                  _median(vals), "ratio_median_over_grid"))
    return rows


@dataclass(frozen=True)
class BesovResult:
    value: float


def besov_seminorm(f: ScalarField, lam: float, p: float, window: float,
                   half_width: float = 2.0, grid: int = 64,
                   shells: int = 12) -> BesovResult:
    """Difference-quotient smoothness seminorm, truncated in x and h.

    Integrates |f(x+h)-f(x)|^p / |h|^(n+lambda p) for |h| <= window and
    x in [-half_width, half_width]^n, with dyadic shells in |h| refined
    toward 0.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    if not p > 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    n = f.n
    dirs, ang_w = angular_rule(n, 16)
    xs, cell = _midpoint_grid(-half_width, 2.0 * half_width, grid, n)
    fvals = f(xs)
    # the dyadic shells, taken from the window inward
    hr_all, hw_all = gauss_legendre(6, window * 2.0 ** -np.arange(shells, -1.0, -1.0))

    shell_sums = []
    for hr, hw in zip(hr_all.reshape(shells, 6)[::-1], hw_all.reshape(shells, 6)[::-1]):
        total = 0.0
        for d, wa in zip(dirs, ang_w):
            # the shell's radii along d in one field call, one row each
            shifted = xs + hr[:, None, None] * d
            diffs = f(shifted.reshape(-1, n)).reshape(len(hr), -1) - fvals
            for radius, wr, diff in zip(hr, hw, diffs):
                inner = float(np.sum(np.abs(diff) ** p)) * cell
                total += wa * wr * radius ** (n - 1) \
                    * radius ** (-(n + lam * p)) * inner
        shell_sums.append(total)
    return BesovResult(float(sum(shell_sums)) ** (1.0 / p))


def _lp_norm(f: ScalarField, p: float, half_width: float, grid: int) -> float:
    xs, cell = _midpoint_grid(-half_width, 2.0 * half_width, grid, f.n)
    return (float(np.sum(np.abs(f(xs)) ** p)) * cell) ** (1.0 / p)


def weighted_gradient_besov_ratio(table: RadialKernelTable, f: ScalarField,
                                  domain: Domain, lam: float, p: float,
                                  grid_count: int = 9,
                                  field_id: str = "field") -> ReportRow:
    """Ratio of the boundary-weighted gradient norm to the smoothness norm.

    Numerator: (sum over an interior midpoint grid of
    |delta(x)^(1-lambda) grad f(x)|^p times the cell measure)^(1/p), with
    the gradient taken from the kernel representation at r = delta(x)/2.
    Denominator: the difference seminorm over increments |h| <= 1 plus the
    local p-norm.  A zero field reports ratio 0.
    """
    pts, cell = _ball_cells(domain.center, domain.radius, grid_count)
    # every cell midpoint lies inside the ball, so each delta is positive
    deltas = np.array([domain.distance_to_boundary(x) for x in pts])
    grads = gradient_of_solution(table, f, pts, 0.5 * deltas)
    numerator = sum((delta ** (1.0 - lam) * float(np.linalg.norm(g))) ** p * cell
                    for delta, g in zip(deltas, grads)) ** (1.0 / p)

    diameter = 2.0 * domain.radius
    besov = besov_seminorm(f, lam, p, 1.0, half_width=diameter,
                           grid=48, shells=10)
    denom = besov.value + _lp_norm(f, p, diameter, 48)
    ratio = 0.0 if denom == 0.0 else numerator / denom
    return ReportRow(field_id, (), math.nan, lam, p, ratio,
                     "weighted_gradient_besov_ratio")
