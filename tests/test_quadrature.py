import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi

from fracmv.bump import SUPPORT_HI, SUPPORT_LO, eta_raw
from fracmv.errors import EvaluationError, ToleranceError
from fracmv.quadrature import (ARC_NODES, AZIMUTHS, HEIGHT_NODES, SHELL,
                               SHELL_RADII, _jacgauss, _sphere_rule, angular_rule,
                               gauss_jacobi, gauss_legendre,
                               integrate_ball_weighted, tail_radius)
from oracles import adaptive_simpson


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre(5, (0.0, 1.0))
    assert_allclose(w @ x ** 2, 1.0 / 3.0, rtol=1e-12)


def test_gauss_legendre_weight_sum():
    _, w = gauss_legendre(2, (-1.0, 1.0))
    assert_allclose(w.sum(), 2.0, rtol=1e-14)


def test_gauss_legendre_exp_against_oracle():
    x, w = gauss_legendre(20, (0.0, 1.0))
    oracle = adaptive_simpson(math.exp, 0.0, 1.0, 1e-13)
    assert_allclose(w @ np.exp(x), oracle, rtol=1e-12)
    assert_allclose(oracle, math.e - 1.0, rtol=1e-12)


def test_gauss_legendre_nodes_sorted_inside():
    x, _ = gauss_legendre(12, (2.0, 5.0))
    assert np.all(np.diff(x) > 0)
    assert x[0] > 2.0 and x[-1] < 5.0


@pytest.mark.parametrize("count,interval", [(0, (0, 1)), (3, (1, 1)), (3, (2, 1))])
def test_gauss_legendre_invalid(count, interval):
    with pytest.raises(ValueError):
        gauss_legendre(count, interval)


@pytest.mark.parametrize("breaks", [
    (0.0, 1.0, 1.0, 2.0),          # a zero-width panel
    (0.0, 2.0, 1.0, 3.0),          # a decreasing step
    (3.0, 2.0, 1.0),               # decreasing throughout
    (0.0, float("nan"), 1.0),      # not comparable
    (1.0,),                        # a single point
    (),                            # no points
    [[0.0, 1.0], [1.0, 2.0]],      # not one-dimensional
])
def test_gauss_legendre_rejects_bad_breaks(breaks):
    with pytest.raises(ValueError):
        gauss_legendre(4, breaks)


@pytest.mark.parametrize("count", [1, 7, 12])
def test_composite_rule_is_concatenated_panel_rules(count):
    # a composite rule equals its single-panel rules, bit for bit
    breaks = [-3.0, -0.1, 0.0, 1e-3, 0.5, 2.0, 64.0, 3.0e17]
    x, w = gauss_legendre(count, breaks)
    panels = [gauss_legendre(count, (lo, hi)) for lo, hi in zip(breaks, breaks[1:])]
    assert x.shape == w.shape == (count * (len(breaks) - 1),)
    assert np.array_equal(x, np.concatenate([p[0] for p in panels]))
    assert np.array_equal(w, np.concatenate([p[1] for p in panels]))
    assert_allclose(w @ x, (breaks[-1] ** 2 - breaks[0] ** 2) / 2.0, rtol=1e-13)


JACOBI_COUNTS = (2, 16, 20, 32, 48, 64)
# worst relative error of the moments int (1+t)^(a+j) dt, j < 2 count, over
# JACOBI_COUNTS: 9.9e-12, 1.6e-14, 4.9e-15, 8.2e-15 and 3.5e-14 measured in
# the order of the keys; scipy's roots_jacobi gives 8.2e-10, 2.2e-13,
# 1.4e-13, 1.3e-13 and 1.8e-13 on the same check
JACOBI_MOMENT_BUDGET = {-0.99: 2e-11, -0.5: 3e-14, 0.0: 1e-14, 0.5: 2e-14, 0.99: 5e-14}
# the Gauss-Legendre counts of src/; on the same check gauss_legendre reads
# at most 5.8e-15 at these and JACOBI_COUNTS, and numpy's leggauss 2.6e-14,
# 1.4e-14, 1.8e-13, 5.0e-14 and 3.6e-14 at 20, 32, 48, 64 and 80 nodes
LEGENDRE_COUNTS = (6, 10, 12, 16, 32, 64, 80)


@pytest.mark.parametrize("a", sorted(JACOBI_MOMENT_BUDGET))
def test_jacobi_nodes_match_scipy(a):
    for count in JACOBI_COUNTS:
        t, _ = _jacgauss(count, a)
        assert_allclose(t, roots_jacobi(count, 0.0, a)[0], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("a", [*sorted(JACOBI_MOMENT_BUDGET), "legendre"])
def test_jacobi_rule_exact_moments(a):
    # the count-point rule of weight (1+t)^a integrates (1+t)^j, j < 2 count;
    # "legendre" is gauss_legendre's rule on [-1, 1], held to the a = 0 budget
    if a == "legendre":
        a = 0.0
        rules = {c: gauss_legendre(c, (-1.0, 1.0))
                 for c in sorted({*JACOBI_COUNTS, *LEGENDRE_COUNTS})}
    else:
        rules = {c: _jacgauss(c, a) for c in JACOBI_COUNTS}
    for count, (t, w) in rules.items():
        j = np.arange(2 * count)
        exact = 2.0 ** (a + j + 1.0) / (a + j + 1.0)
        error = np.abs(w @ (1.0 + t)[:, None] ** j / exact - 1.0)
        assert error.max() <= JACOBI_MOMENT_BUDGET[a], count


@pytest.mark.parametrize("terms,expected", [
    # 2 W^-1/2 / (1/2) <= 5e-3 needs W >= 640000: 10 * 4^8, not 10 * 4^7
    ([(2.0, -0.5)], 655360.0),
    ([(1.0, -1.0), (1.0, 0.0)], "diverges"),
    # W^-0.01 / 0.01 is still about 66 at W = 1e18
    ([(1.0, -0.01)], "above tolerance"),
])
def test_tail_radius(terms, expected):
    if isinstance(expected, str):
        with pytest.raises(ToleranceError, match=expected):
            tail_radius(terms, 10.0, 1e-2)
    else:
        assert tail_radius(terms, 10.0, 1e-2) == expected


def test_tail_radius_rows_equal_scalar_calls_bit_for_bit():
    # rows that stop at once (64), after some rungs, and only at the last
    # rung (64 4^27 >= 1e18, with a bound between tol/2 and tol there)
    tol = 1e-8
    last = 64.0 * 4.0 ** 27
    c = np.array([1e-20, 3e-9, 1.0, 7.5e3, 0.75 * tol * 1.5 * last ** 1.5, 0.0])
    g = 1e-3 * np.array([0.0, 2.0, 0.5, 1.0, 0.0, 3.0]) ** 0.7
    W = tail_radius([(c, -1.5), (g, -0.8)], 64.0, tol)
    assert W.shape == (6,) and W[0] == 64.0 and W[4] == last
    assert 64.0 < W[5] < last
    for i, w in enumerate(W):
        scalar = tail_radius([(float(c[i]), -1.5), (float(g[i]), -0.8)], 64.0, tol)
        assert type(scalar) is float and scalar == w
    # one row whose bound is still above tol at the last rung raises for all
    with pytest.raises(ToleranceError, match="above tolerance"):
        tail_radius([(c, -0.01)], 64.0, tol)


@pytest.mark.parametrize("c", [math.nan, np.array([1.0, math.nan])])
def test_tail_radius_rejects_a_bound_that_is_not_a_number(c):
    # a NaN bound is never above tol/2 and used to take the last radius
    with pytest.raises(ToleranceError, match="nan"):
        tail_radius([(c, -1.0)], 64.0, 1e-8)


SHELL_AS = (-0.99, -0.5, 0.0, 0.5, 0.9)


def _sphere_mass(n, a):
    # int_{S^n} |omega_y|^a d sigma = 2 pi^(n/2) Gamma((a+1)/2) / Gamma((n+1+a)/2)
    a = mpmath.mpf(a)
    return 2 * mpmath.pi ** (mpmath.mpf(n) / 2) * mpmath.gamma((a + 1) / 2) \
        / mpmath.gamma((n + 1 + a) / 2)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a", SHELL_AS)
def test_sphere_rule_weight_sum(n, a):
    dirs, w = _sphere_rule(n, a)
    assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-15)
    assert_allclose(w.sum(), float(_sphere_mass(n, a)), rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a", SHELL_AS)
def test_ball_weighted_shell_volume(n, a):
    # g = 1 on the shell R/4 < rho < 3R/4: the sphere mass times the
    # integral of rho^(n+a) there
    R, p = 0.6, n + 1 + a
    shell = _sphere_mass(n, a) * ((0.75 * R) ** p - (0.25 * R) ** p) / p
    val = integrate_ball_weighted(lambda z: np.ones(len(z)), np.zeros(n + 1), R, a)
    assert_allclose(val, float(shell), rtol=1e-12)


def test_shell_is_the_bump_support():
    assert SHELL == (SUPPORT_LO, SUPPORT_HI)


@pytest.mark.parametrize("n", [1, 2])
def test_ball_weighted_calls_g_once(n):
    # one g call holds every node, and every node lies in the closed shell,
    # in the half y > 0
    calls = []

    def g(p):
        calls.append(p.copy())
        return np.ones(len(p))

    center = np.zeros(n + 1)
    center[0] = 0.2
    integrate_ball_weighted(g, center, 0.7, 0.3)
    assert len(calls) == 1
    nodes = calls[0]
    assert nodes.shape == ((512, 2) if n == 1 else (4608, 3))
    assert np.all(nodes[:, -1] > 0.0)
    dist = np.linalg.norm(nodes - center, axis=1)
    assert np.all((0.25 * 0.7 <= dist) & (dist <= 0.75 * 0.7))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a", [-0.5, 0.5])
def test_ball_weighted_rows_equal_per_row_calls_bit_for_bit(n, a):
    # rows with their own centers and radii, or one radius for all; g sees
    # every node of every row in one call, row by row
    calls = []

    def g(p):
        calls.append(p.shape)
        return np.exp(p[:, 0]) * (1.0 + p[:, -1] ** 2)

    centers = np.zeros((4, n + 1))
    centers[:, 0] = (-0.6, -0.1, 0.0, 0.45)
    radii = np.array([0.03, 0.3, 0.7, 0.11])
    k = 512 if n == 1 else 4608
    for radius in (radii, 0.2):
        calls.clear()
        got = integrate_ball_weighted(g, centers, radius, a)
        assert calls == [(4 * k, n + 1)] and got.shape == (4,)
        want = [integrate_ball_weighted(g, c, R, a)
                for c, R in zip(centers, np.broadcast_to(radius, (4,)))]
        assert all(isinstance(w, float) for w in want)
        np.testing.assert_array_equal(got, want)


def _mirrored_sphere_rule(n, a):
    """Both halves of S^n in R^{n+1}, for the weight |omega_y|^a: four
    quarter arcs at n = 1, heights +-u at n = 2, each node at its own weight."""
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


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a", [-0.5, 0.5])
def test_ball_weighted_half_rule_equals_the_mirrored_rule(n, a):
    # on an integrand even in y, the nodes of y > 0 at twice their weight
    # give the sum of the rule on the whole sphere
    nodes = []

    def even(p):
        nodes.append(p)
        return eta_raw(np.linalg.norm(p - center, axis=1) / R) \
            * np.exp(p[:, 0]) * (1.0 + p[:, -1] ** 2)

    center, R = np.zeros(n + 1), 0.7
    center[0] = 0.2
    got = integrate_ball_weighted(even, center, R, a)
    assert np.all(nodes[0][:, -1] > 0.0)
    dirs, wd = _mirrored_sphere_rule(n, a)
    rho, wr = gauss_legendre(SHELL_RADII, (SHELL[0] * R, SHELL[1] * R))
    Z = (center + rho[:, None, None] * dirs).reshape(-1, n + 1)
    want = np.sum(np.outer(wr * rho ** (n + a), wd).ravel() * even(Z))
    assert_allclose(got, want, rtol=1e-15)


def test_ball_weighted_propagates_nonfinite():
    def bad(p):
        out = np.ones(len(p))
        out[0] = np.nan
        return out

    with pytest.raises(EvaluationError):
        integrate_ball_weighted(bad, np.zeros(2), 1.0, 0.0)


def test_rules_are_deterministic():
    breaks = np.array([0.0, 0.3, 1.0, 2.0, 4.0])
    x1, w1 = gauss_legendre(9, breaks)
    x2, w2 = gauss_legendre(9, list(breaks))
    assert np.array_equal(x1, x2)
    assert np.array_equal(w1, w2)
