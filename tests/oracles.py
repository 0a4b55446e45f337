"""Independent references that only the tests use.

Each one computes a quantity that fracmv computes another way, or one that
fracmv's results must satisfy: adaptive Simpson against the Gauss rules,
the extension and ball Poisson kernels in their defining forms, the
ball-Poisson field as the direct sum over every shell node, the fractional
Laplacian by symmetric second differences, which vanishes on the
s-harmonic test fields, the bump's potential psi, whose gradient is
phi(X) X, the maximal functions as one field call per ball, the Besov
seminorm as one field call per radius, and the ray panels as one ragged
list.
"""
import math

import numpy as np

from fracmv.analysis import _ball_cells, _ball_measure, _midpoint_grid
from fracmv.bump import SUPPORT_HI, SUPPORT_LO, eta_raw
from fracmv.extension import poisson_constant
from fracmv.fraclap import _ball_poisson_normalizer, _shell_nodes
from fracmv.quadrature import angular_rule, gauss_legendre, tail_radius


def adaptive_simpson(f, lo: float, hi: float, tol: float = 1e-13, max_depth: int = 50) -> float:
    """Adaptive Simpson integration to absolute tolerance ``tol``.

    The designated independent oracle for derived quadrature values; it never
    shares node layouts with the Gauss rules of ``fracmv.quadrature``.
    """
    def simpson(a, b, fa, fm, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, eps, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, eps / 2.0, depth + 1)
                + recurse(m, b, fm, frm, fb, right, eps / 2.0, depth + 1))

    lo, hi = float(lo), float(hi)
    fa, fb = f(lo), f(hi)
    fm = f(0.5 * (lo + hi))
    whole = simpson(lo, hi, fa, fm, fb)
    return recurse(lo, hi, fa, fm, fb, whole, tol, 0)


def poisson_kernel(n: int, a: float, x, y: float):
    """Extension Poisson kernel P_y(x) = C y^(1-a) (|x|^2 + y^2)^(-(n+1-a)/2).

    C is ``poisson_constant(n, a)``, so the unit mass of this kernel checks
    that constant.  ``x`` may be a single point or an array of shape (m, n).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1 and x.size == n
    r2 = (x.reshape(-1, n) ** 2).sum(axis=1)
    vals = poisson_constant(n, a) * y ** (1.0 - a) \
        * (r2 + y * y) ** (-0.5 * (n + 1.0 - a))
    return float(vals[0]) if single else vals


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


def sharmonic_direct(g, r: float, s: float, n: int, x):
    """Interior values of ``sample_sharmonic(g, r, s, n)`` by the direct sum.

    Sums the data over every node of the shell rule (96 for n = 1, 48 rings
    times 64 angles for n = 2), with |x - ybar|^n formed from the coordinate
    differences.  ``x`` has shape (m, n) and lies inside B(0, r).
    """
    x = np.asarray(x, dtype=float).reshape(-1, n)
    rx = np.linalg.norm(x, axis=1)
    if not np.all(rx < r):
        raise ValueError("every x must lie inside the ball")
    pts, wq = _shell_nodes(r, s, n)
    coef = _ball_poisson_normalizer(n, s) * wq * np.asarray(g(pts), dtype=float)
    diff = x[:, None, :] - pts[None, :, :]
    dist_n = np.abs(diff[..., 0]) if n == 1 else (diff * diff).sum(axis=2)
    return (r * r - rx ** 2) ** s * (coef / dist_n).sum(axis=1)


def frac_lap(f, x, s: float, tol: float = 1e-6) -> float:
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


def first_moment(profile) -> float:
    """A = kappa * int u eta_raw(u) du over the bump's support (80 nodes)."""
    u, w = gauss_legendre(80, (SUPPORT_LO, SUPPORT_HI))
    return float(profile.kappa * (w @ (u * eta_raw(u))))


def zeta(profile, t):
    """Running moment: kappa * int_0^t u eta_raw(u) du minus A.

    It is -A below the support and 0 beyond it.  One 60-node rule on
    (1/4, min(t, 3/4)) serves every t at once; it has zero width where
    t <= 1/4.
    """
    t = np.asarray(t, dtype=float)
    hi = np.clip(t, SUPPORT_LO, SUPPORT_HI)[..., None]
    x, w = gauss_legendre(60, (-1.0, 1.0))
    half = 0.5 * (hi - SUPPORT_LO)
    u = 0.5 * (hi + SUPPORT_LO) + half * x
    out = profile.kappa * ((half * w) * (u * eta_raw(u))).sum(axis=-1) \
        - first_moment(profile)
    return float(out) if t.ndim == 0 else out


def psi(profile, X):
    """psi(X) = zeta(|X|) for points X of shape (m, n+1); 0 past |X| = 3/4."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return zeta(profile, np.linalg.norm(X, axis=-1))


def extend_quad(f, a: float, x: float, h: float, breaks) -> float:
    """(P_h * f)(x) at n = 1 by ``scipy.integrate.quad``, piece by piece.

    ``f`` must vanish outside the span of ``breaks``; each piece between
    adjacent breaks is integrated to 1e-14 absolute, so the breaks must hold
    every point where f is not smooth.
    """
    from scipy.integrate import quad

    def integrand(z):
        return poisson_kernel(1, a, np.array([x - z]), h) * f(np.array([z]))

    ends = sorted(breaks)
    return sum(quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=500)[0]
               for lo, hi in zip(ends[:-1], ends[1:]))


def ray_panels_ragged(ends, stop, cuts):
    """``extension._ray_panels`` as one ragged list of (ray, end) pairs.

    Every ray lists the shared ends below its stop, the stop itself if it is
    positive and its ``cuts`` below the stop; a ``lexsort`` orders the list
    ray by ray, and each end closes the panel that the ray's previous end,
    or 0, opens.  Returns (ray, lo, hi) of the non-empty panels.
    """
    count = np.searchsorted(ends[1:], stop)
    start = np.repeat(np.cumsum(count) - count, count)
    at, col = np.nonzero(cuts < stop[:, None])
    ray = np.concatenate([np.repeat(np.arange(stop.size), count),
                          np.flatnonzero(stop), at])
    hi = np.concatenate([ends[1 + np.arange(start.size) - start],
                         stop[stop > 0.0], cuts[at, col]])
    order = np.lexsort((hi, ray))
    ray, hi = ray[order], hi[order]
    lo = np.zeros_like(hi)
    same = ray[1:] == ray[:-1]
    lo[1:][same] = hi[:-1][same]
    keep = hi > lo
    return ray[keep], lo[keep], hi[keep]


def _ball_points(center, radius: float, resolution: int):
    """Midpoint sample points of one ball, shape (m, n)."""
    m = resolution
    if np.size(center) > 1:
        m = max(4, int(round(math.sqrt(resolution) * 2)))
    return _ball_cells(center, radius, m)[0]


def sharp_maximal_loop(f, x, lam: float, family) -> float:
    """``analysis.sharp_maximal`` with one field call per ball of the family."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    fx = float(f(x[None, :])[0])
    best = 0.0
    for radius in family.radii():
        for c in family.centers(x, radius):
            pts = _ball_points(c, radius, family.resolution)
            avg = float(np.mean(np.abs(f(pts) - fx)))
            best = max(best, _ball_measure(n, radius) ** (-lam / n) * avg)
    return best


def hl_maximal_loop(f, x, family) -> float:
    """``analysis.hl_maximal`` with one field call per ball of the family."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    best = 0.0
    for radius in family.radii():
        for c in family.centers(x, radius):
            pts = _ball_points(c, radius, family.resolution)
            best = max(best, float(np.mean(np.abs(f(pts)))))
    return best


def besov_seminorm_loop(f, lam: float, p: float, window: float,
                        half_width: float, grid: int, shells: int) -> float:
    """``analysis.besov_seminorm`` with one field call per radius."""
    n = f.n
    dirs, ang_w = angular_rule(n, 16)
    xs, cell = _midpoint_grid(-half_width, 2.0 * half_width, grid, n)
    fvals = f(xs)
    hr_all, hw_all = gauss_legendre(6, window * 2.0 ** -np.arange(shells, -1.0, -1.0))
    shell_sums = []
    for hr, hw in zip(hr_all.reshape(shells, 6)[::-1], hw_all.reshape(shells, 6)[::-1]):
        total = 0.0
        for d, wa in zip(dirs, ang_w):
            for radius, wr in zip(hr, hw):
                diff = f(xs + radius * d[None, :]) - fvals
                inner = float(np.sum(np.abs(diff) ** p)) * cell
                total += wa * wr * radius ** (n - 1) \
                    * radius ** (-(n + lam * p)) * inner
        shell_sums.append(total)
    return float(sum(shell_sums)) ** (1.0 / p)
