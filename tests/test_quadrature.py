import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi

from fracmv.errors import EvaluationError, ToleranceError
from fracmv.quadrature import (_ball_y_rule, _jacgauss, gauss_legendre,
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


@pytest.mark.parametrize("a", sorted(JACOBI_MOMENT_BUDGET))
def test_jacobi_nodes_match_scipy(a):
    for count in JACOBI_COUNTS:
        t, _ = _jacgauss(count, a)
        assert_allclose(t, roots_jacobi(count, 0.0, a)[0], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("a", sorted(JACOBI_MOMENT_BUDGET))
def test_jacobi_rule_exact_moments(a):
    # the count-point rule of weight (1+t)^a integrates (1+t)^j, j < 2 count
    for count in JACOBI_COUNTS:
        t, w = _jacgauss(count, a)
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


def test_ball_y_rule_weight_sum():
    # the |y|^a rule of the ball slices, mirrored onto [-1, 1]: the integral
    # of |y|^0.5 there is 2/(1+a) = 4/3
    _, w = _ball_y_rule(0.5, 1.0, 24)
    assert_allclose(2.0 * w.sum(), 4.0 / 3.0, rtol=1e-13)


def test_ball_y_rule_quadratic_closed_form():
    a = -0.5
    y, w = _ball_y_rule(a, 1.0, 24)
    assert_allclose(2.0 * (w @ y ** 2), 2.0 / (3.0 + a), rtol=1e-13)


def test_ball_weighted_disk_area():
    val = integrate_ball_weighted(lambda p: np.ones(len(p)),
                                  np.zeros(2), 1.0, 0.0, 64)
    assert_allclose(val, math.pi, atol=1e-6)


def test_ball_weighted_odd_in_y():
    val = integrate_ball_weighted(lambda p: p[:, -1], np.zeros(2), 1.0, 0.3, 48)
    assert abs(val) < 1e-10


def test_ball_weighted_matches_slice_oracle():
    # for g == 1: integral over the disk of |y|^a equals
    # int_{-1}^{1} |y|^a 2 sqrt(1 - y^2) dy
    a = 0.5

    def slice_mass(y):
        return abs(y) ** a * 2.0 * math.sqrt(max(0.0, 1.0 - y * y))

    oracle = 2.0 * adaptive_simpson(slice_mass, 0.0, 1.0, 1e-13)
    val = integrate_ball_weighted(lambda p: np.ones(len(p)),
                                  np.zeros(2), 1.0, a, 96)
    assert_allclose(val, oracle, atol=1e-6)


def test_ball_weighted_error_shrinks_with_resolution():
    def g(p):
        return np.exp(np.cos(3.0 * p[:, 0]) - p[:, 1] ** 2)

    target = integrate_ball_weighted(g, np.zeros(2), 1.0, 0.0, 256)
    errs = [abs(integrate_ball_weighted(g, np.zeros(2), 1.0, 0.0, res) - target)
            for res in (16, 24, 32)]
    assert errs[2] < errs[1] < errs[0]


def _ball_weighted_line_by_line(g, center, radius, a, resolution):
    """Reference: one g call per line, slices summed from y = -R to R."""
    n = center.size - 1
    y, wy = _ball_y_rule(a, radius, resolution)
    total = 0.0
    for yk, wk in zip(np.concatenate([-y[::-1], y]),
                      np.concatenate([wy[::-1], wy])):
        s = np.sqrt(radius * radius - yk * yk)
        x1, w1 = gauss_legendre(resolution, (center[0] - s, center[0] + s))
        if n == 1:
            pts = np.column_stack([x1, np.full(resolution, yk)])
            total += wk * float(w1 @ g(pts))
            continue
        slice_val = 0.0
        for u, wu in zip(x1, w1):
            s2 = np.sqrt(s * s - (u - center[0]) ** 2)
            x2, w2 = gauss_legendre(resolution, (center[1] - s2, center[1] + s2))
            pts = np.column_stack([np.full(resolution, u), x2,
                                   np.full(resolution, yk)])
            slice_val += wu * float(w2 @ g(pts))
        total += wk * slice_val
    return total


@pytest.mark.parametrize("n", [1, 2])
def test_ball_weighted_calls_g_once(n):
    # one g call holds every node of the rule, and the sum is the
    # line-by-line one up to the order of summation
    def recorded(calls):
        def g(p):
            calls.append(p.copy())
            return np.exp(np.cos(3.0 * p[:, 0]) + 0.3 * p[:, -1])
        return g

    center = np.zeros(n + 1)
    center[0] = 0.2
    calls, lines = [], []
    value = integrate_ball_weighted(recorded(calls), center, 0.7, 0.3, 12)
    oracle = _ball_weighted_line_by_line(recorded(lines), center, 0.7, 0.3, 12)
    assert len(calls) == 1
    nodes = np.concatenate(lines)
    assert calls[0].shape == nodes.shape
    np.testing.assert_array_equal(np.unique(calls[0], axis=0),
                                  np.unique(nodes, axis=0))
    assert_allclose(value, oracle, rtol=1e-14, atol=0)


def test_ball_weighted_propagates_nonfinite():
    def bad(p):
        out = np.ones(len(p))
        out[0] = np.nan
        return out

    with pytest.raises(EvaluationError):
        integrate_ball_weighted(bad, np.zeros(2), 1.0, 0.0, 16)


def test_rules_are_deterministic():
    breaks = np.array([0.0, 0.3, 1.0, 2.0, 4.0])
    x1, w1 = gauss_legendre(9, breaks)
    x2, w2 = gauss_legendre(9, list(breaks))
    assert np.array_equal(x1, x2)
    assert np.array_equal(w1, w2)
