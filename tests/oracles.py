"""Independent references that only the tests use.

Each one computes a quantity that fracmv computes another way: adaptive
Simpson against the Gauss rules, the extension and ball Poisson kernels in
their defining forms, and the ball-Poisson field as the direct sum over
every shell node.
"""
import numpy as np

from fracmv.extension import poisson_constant
from fracmv.fraclap import _ball_poisson_normalizer, _shell_nodes


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
