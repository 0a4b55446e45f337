import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import fracmv.extension
from fracmv.errors import FieldRejectedError, ToleranceError
from fracmv.extension import (DIRECTIONS, EXTEND_POINTS, RADIAL_NODES,
                              _radial_breaks, _ray_panels, extend,
                              poisson_constant, reflected_extension)
from fracmv.fraclap import Params, make_field
from fracmv.kernel import gradient_of_solution, phi_r_convolve
from fracmv.quadrature import gauss_legendre
from oracles import (adaptive_simpson, extend_quad, poisson_kernel,
                     ray_panels_ragged)


def test_extend_rejects_a_point_of_the_wrong_length():
    # three coordinates at n = 1 are neither one point nor rows of points
    p = Params(n=1, a=0.0)
    with pytest.raises(ValueError, match="got shape"):
        extend(p, make_field("gaussian", 1, 0.5), np.array([0.1, 0.2, 0.3]), 0.5)


def test_constant_classical_value():
    # n=1, a=0 is the classical half-plane Poisson kernel 1/pi * y/(x^2+y^2)
    assert_allclose(poisson_constant(1, 0.0), 1.0 / math.pi, rtol=1e-8)


def test_constant_against_adaptive_oracle():
    oracle = 2.0 * adaptive_simpson(lambda x: 1.0 / (1.0 + x * x), 0.0, 1e6,
                                    1e-13)
    # tail beyond 1e6: integral of x^-2 = 1e-6 to leading order
    oracle += 2.0e-6
    assert_allclose(1.0 / poisson_constant(1, 0.0), oracle, rtol=1e-6)


def _kernel_mass(n, a, y, cut=1e4):
    """Adaptive-Simpson mass of P_y with an analytic two-term tail."""
    surf = 2.0 if n == 1 else 2.0 * math.pi
    m = 0.5 * (n + 1.0 - a)

    def radial(u):
        x = np.zeros(n)
        x[0] = y * u
        return poisson_kernel(n, a, x, y) * u ** (n - 1)

    core = adaptive_simpson(radial, 0.0, 1.0, 1e-12) \
        + adaptive_simpson(radial, 1.0, cut, 1e-12)
    tail = poisson_constant(n, a) * (cut ** (a - 1.0) / (1.0 - a)
                                     - m * cut ** (a - 3.0) / (3.0 - a))
    return surf * (y ** n * core + tail)


@pytest.mark.parametrize("n,a", [(1, 0.0), (1, 0.5), (1, -0.5), (2, 0.3)])
def test_unit_mass_at_several_heights(n, a):
    for y in (0.1, 1.0, 10.0):
        assert_allclose(_kernel_mass(n, a, y), 1.0, atol=1e-8)


def test_kernel_classical_point_value():
    assert_allclose(poisson_kernel(1, 0.0, np.array([1.0]), 1.0),
                    1.0 / (2.0 * math.pi), rtol=1e-12)


def test_kernel_value_at_origin_is_constant():
    assert_allclose(poisson_kernel(2, 0.4, np.zeros(2), 1.0),
                    poisson_constant(2, 0.4), rtol=1e-14)


def test_kernel_scaling_homogeneity():
    x, y, r = 0.7, 0.4, 2.0
    lhs = poisson_kernel(1, 0.5, np.array([r * x]), r * y)
    rhs = r ** -1 * poisson_kernel(1, 0.5, np.array([x]), y)
    assert_allclose(lhs, rhs, rtol=1e-12)


def test_extend_constant_field():
    p = Params(n=1, a=0.3)
    f = make_field("constant", 1, p.s)
    for y in (0.2, 1.0, 5.0):
        assert_allclose(extend(p, f, np.array([0.4]), y), 1.0, atol=1e-8)


def test_extend_even_in_y():
    p = Params(n=1, a=0.0)
    f = make_field("gaussian", 1, p.s)
    v = reflected_extension(p, f)
    up = v(np.array([[0.2, 0.3]]))
    down = v(np.array([[0.2, -0.3]]))
    assert up[0] == down[0]


def test_extend_affine_identity():
    # odd moment of the symmetric kernel vanishes, so v(x, y) = x
    p = Params(n=1, a=-0.5)  # s = 0.75
    f = make_field("affine", 1, p.s)
    assert_allclose(extend(p, f, np.array([0.3]), 0.7), 0.3, atol=1e-6)


def test_extend_rejects_bad_growth():
    p = Params(n=1, a=0.5)  # s = 0.25, degree 1 not integrable
    f = make_field("affine", 1, 0.75)
    with pytest.raises(FieldRejectedError):
        extend(p, f, np.array([0.0]), 1.0)


def test_extend_tail_counts_fractional_growth():
    # xplus_s has degree s in (0, 1); its growth term must enter the tail
    # bound, so tightening tol moves the value by no more than tol
    x = np.array([[0.3], [-0.4]])
    for a in (-0.5, -0.9):
        p = Params(n=1, a=a)
        f = make_field("xplus_s", 1, p.s)
        coarse = extend(p, f, x, 0.5, tol=1e-8)
        fine = extend(p, f, x, 0.5, tol=1e-10)
        assert np.max(np.abs(coarse - fine)) <= 1e-8
    # at s = 0.25 the growth tail is still above tol at the largest W
    p = Params(n=1, a=0.5)
    with pytest.raises(ToleranceError, match="above tolerance"):
        extend(p, make_field("xplus_s", 1, p.s), x, 0.5, tol=1e-8)


def test_extend_converges_to_boundary_data():
    p = Params(n=1, a=0.2)
    f = make_field("gaussian", 1, p.s)
    x = np.array([0.3])
    errs = [abs(extend(p, f, x, y) - f(x)) for y in (1e-1, 1e-2, 1e-3)]
    assert errs[0] > errs[1] > errs[2]
    # the boundary limit is attained at rate y^(2s); only the trend is asserted
    assert errs[2] < 1e-2


def test_extend_at_zero_height_returns_field():
    p = Params(n=1, a=0.0)
    f = make_field("gaussian", 1, p.s)
    assert extend(p, f, np.array([0.25]), 0.0) == f(np.array([0.25]))


@pytest.mark.parametrize("W", [0.75, 64.0, 1e6, 3.0e17])
def test_radial_rule_matches_panel_loop(W):
    # reference: one Gauss-Legendre rule per panel, unit panels then doubling
    nodes, weights = [], []
    lo, hi = 0.0, 0.5
    while lo < W:
        x, w = gauss_legendre(12, (lo, hi))
        nodes.append(x)
        weights.append(w)
        lo, hi = hi, min(hi * 2.0, W)
    t, wt = gauss_legendre(RADIAL_NODES, _radial_breaks(W, (0.0, 0.5, 1.0)))
    np.testing.assert_array_equal(t, np.concatenate(nodes))
    np.testing.assert_array_equal(wt, np.concatenate(weights))


def _counting(f):
    """Copy of ``f`` whose evaluator records the size of every call."""
    sizes = []

    def evaluator(points):
        sizes.append(len(points))
        return f.evaluator(points)

    return dataclasses.replace(f, evaluator=evaluator), sizes


@pytest.mark.parametrize("name,a", [("ball_poisson", 0.3), ("xplus_s", -0.5)],
                         ids=["ball_poisson", "xplus_s"])
def test_reflected_extension_evaluates_mirrored_rows_once(monkeypatch, name, a):
    # ball_poisson stops at its far field, xplus_s at a truncation radius
    # that grows with the row's |x| and height
    p = Params(n=1, a=a)
    f, sizes = _counting(make_field(name, 1, p.s, seed=1))
    received = []
    real_extend = fracmv.extension.extend

    def recording_extend(p_, f_, x, y, tol=1e-8):
        received.append(np.column_stack([x, y]))
        return real_extend(p_, f_, x, y, tol=tol)

    monkeypatch.setattr(fracmv.extension, "extend", recording_extend)
    xs = np.linspace(-0.6, 0.6, 25)
    heights = (-0.25, -0.1, 0.0, 0.1, 0.25)  # three distinct |y|
    points = np.array([[x, y] for y in heights for x in xs])
    v = reflected_extension(p, f)
    values = v(points)

    # one extend call, with each distinct (x, |y|) row once, and no field
    # call above the point budget
    assert len(received) == 1
    rows = received[0]
    folded = np.column_stack([points[:, 0], np.abs(points[:, 1])])
    assert len(rows) == len(np.unique(rows, axis=0)) == 3 * len(xs)
    np.testing.assert_array_equal(np.unique(rows, axis=0),
                                  np.unique(folded, axis=0))
    assert max(sizes) <= EXTEND_POINTS
    received.clear()
    singles = np.array([v(p[None, :])[0] for p in points])
    assert len(received) == len(points)
    np.testing.assert_array_equal(values, singles)


@pytest.mark.parametrize("name,a", [("ball_poisson", 0.3), ("xplus_s", -0.5)],
                         ids=["ball_poisson", "xplus_s"])
def test_extend_evaluates_no_panel_past_a_row_stop(name, a):
    # rows of many heights and |x| stop at many panels; a call over all of
    # them evaluates the field exactly where the one-row calls do
    p = Params(n=1, a=a)
    f, sizes = _counting(make_field(name, 1, p.s, seed=1))
    x = np.linspace(-1.4, 1.4, 15)[:, None]
    y = np.geomspace(1e-3, 3.0, 15)
    batch = extend(p, f, x, y)
    batch_points = sum(sizes)
    sizes.clear()
    singles = [extend(p, f, xi, yi) for xi, yi in zip(x, y)]
    assert batch_points == sum(sizes)
    np.testing.assert_array_equal(batch, singles)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(W=st.floats(1.0, 1e4),
       body=st.sampled_from([(0.0, 1.0), tuple(np.arange(17) / 8.0)]),
       rays=st.integers(1, 12), kinks=st.integers(0, 3), data=st.data())
def test_ray_panels_match_the_ragged_list(W, body, rays, kinks, data):
    # stops at 0, on a shared end, at W or anywhere below it; crossings on a
    # shared end, at or past the ray's stop, missing, or anywhere
    ends = _radial_breaks(W, body)
    on_end = st.sampled_from(ends.tolist())
    stop = np.array(data.draw(st.lists(st.one_of(on_end, st.floats(0.0, W)),
                                       min_size=rays, max_size=rays)))
    cut = st.one_of(on_end.filter(lambda t: t > 0.0), st.just(math.inf),
                    st.just("stop"), st.floats(0.0, 2.0 * W, exclude_min=True))
    codes = data.draw(st.lists(st.lists(cut, min_size=2 * kinks,
                                        max_size=2 * kinks),
                               min_size=rays, max_size=rays))
    cuts = np.array([[stop[i] if c == "stop" else c for c in row]
                     for i, row in enumerate(codes)], dtype=float)
    cuts = cuts.reshape(rays, 2 * kinks)
    got, want = _ray_panels(ends, stop, cuts), ray_panels_ragged(ends, stop, cuts)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(n=st.sampled_from([1, 2]),
       name=st.sampled_from(["constant", "gaussian", "ball_poisson"]),
       a=st.sampled_from([-0.5, 0.0, 0.5]),
       rows=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
                               st.floats(-2.0, 2.0)),
                     min_size=1, max_size=6))
def test_extend_with_row_heights_matches_single_rows(n, name, a, rows):
    # a row stops at a panel set by its own x and y, so its value is the
    # same bits in any batch
    p = Params(n=n, a=a)
    f = make_field(name, n, p.s, seed=1)
    rows = np.array(rows)
    x, y = rows[:, :n], rows[:, -1]
    batch = extend(p, f, x, y)
    singles = [extend(p, f, xi, yi) for xi, yi in zip(x, y)]
    np.testing.assert_array_equal(batch, singles)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a", [-0.5, 0.5])
def test_far_field_stop_matches_full_integral(n, a):
    # ball_poisson stops where its data ends and adds the rest of the mass
    # in closed form; without far it integrates the zeros out to W
    p = Params(n=n, a=a)
    f = make_field("ball_poisson", n, p.s, seed=2)
    assert f.far is not None
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.5, 1.5, (8, n))
    y = np.array([0.02, 0.05, 0.1, 0.3, 0.6, 1.0, 2.0, 5.0])
    stopped = extend(p, f, x, y)
    full = extend(p, dataclasses.replace(f, far=None), x, y)
    assert np.max(np.abs(stopped - full)) <= 1e-8


@pytest.mark.parametrize("a,budget", [(-0.5, 5e-8), (0.5, 8e-7)])
def test_extend_matches_quad_on_ball_poisson(a, budget):
    # the rays break where they cross the kink |z| = 1: the error is 1.9e-8
    # at a = -0.5 and 5.9e-7 at a = 0.5, against 1.16e-5 and 1.07e-4
    # without the break
    p = Params(n=1, a=a)
    f = make_field("ball_poisson", 1, p.s)
    ref = extend_quad(f, a, 0.0, 0.4, (-3.3, -1.2, -1.0, 0.0, 1.0, 1.2, 3.3))
    assert abs(extend(p, f, np.zeros(1), 0.4, tol=1e-8) - ref) < budget


@pytest.mark.parametrize("n", [1, 2])
def test_no_probe_past_the_far_field(get_table, n):
    # ball_poisson is 0 from |z| = 3.3 r on (r = 1), so every ray stops there
    p = Params(n=n, a=0.0)
    f = make_field("ball_poisson", n, p.s, seed=1)
    assert f.far[0] == pytest.approx(3.3)
    largest = []

    def evaluator(points):
        largest.append(np.linalg.norm(points, axis=1).max())
        return f.evaluator(points)

    g = dataclasses.replace(f, evaluator=evaluator)
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.6, 0.6, (6, n))
    extend(p, g, x, np.array([0.01, 0.05, 0.1, 0.3, 1.0, 3.0]))
    table = get_table(n, 0.0)
    for xi in x[:2]:
        for r in (0.05, 0.4):
            phi_r_convolve(table, g, xi, r)
            gradient_of_solution(table, g, xi, r)
    assert max(largest) < f.far[0]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a", [-0.5, 0.5])
def test_constant_is_exactly_one(n, a):
    # far = (0, 1): nothing is left to integrate, at any height
    p = Params(n=n, a=a)
    f = make_field("constant", n, p.s)
    x = np.array([[0.0] * n, [0.4] * n, [-1.3] + [0.2] * (n - 1)])
    for h in (0.0, 1e-300, 0.3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = extend(p, f, x, h)
        np.testing.assert_array_equal(vals, 1.0)


@pytest.mark.parametrize("n", [1, 2])
def test_one_truncation_per_engine_call(monkeypatch, engine_calls, n):
    # 300 rows span 3 ray blocks at n = 1 and 60 at n = 2; each row has its
    # own |x| and height, so its own W, and every block reads the one call's
    calls = {"tail_radius": 0, "_radial_breaks": 0}
    for name in calls:
        def counted(*args, _real=getattr(fracmv.extension, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(fracmv.extension, name, counted)
    p = Params(n=n, a=-0.5)
    f = make_field("affine", n, p.s)
    x = np.random.default_rng(4).uniform(-3.0, 3.0, (300, n))
    extend(p, f, x, np.geomspace(0.01, 2.0, 300))
    assert len(engine_calls) == 1
    assert calls == {"tail_radius": 1, "_radial_breaks": 1}


def test_the_engine_holds_no_rows_by_directions_array(get_table):
    # one value per row comes back: the peak stays below half of a
    # rows x DIRECTIONS array of doubles
    table = get_table(2, 0.0)
    f = make_field("constant", 2, table.params.s)
    x = np.random.default_rng(5).uniform(-0.5, 0.5, (2000, 2))
    phi_r_convolve(table, f, x[:5], 0.1)  # the caches of the first call
    tracemalloc.start()
    try:
        phi_r_convolve(table, f, x, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(x) * DIRECTIONS * 8 / 2
