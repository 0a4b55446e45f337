import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypothesis import given, settings
from hypothesis import strategies as st

from fracmv.fraclap import (FIELD_NAMES, PASS_POINTS, Params, ScalarField,
                            _ball_poisson_data, _ball_poisson_normalizer,
                            _shell_nodes, _shell_window, make_field,
                            sample_sharmonic)
from oracles import (adaptive_simpson, ball_poisson_kernel, frac_lap,
                     sharmonic_direct)


class TestRows:
    def test_one_point_or_rows(self):
        f = make_field("gaussian", 2, 0.5)
        pts, single = f.rows([0.1, 0.2])
        assert single and pts.shape == (1, 2)
        pts, single = f.rows(np.zeros((3, 2)))
        assert not single and pts.shape == (3, 2)

    @pytest.mark.parametrize("n,shape", [(1, (3,)), (2, (4,)), (1, ()),
                                         (2, (3, 1)), (2, (2, 2, 2))])
    def test_rejects_any_other_shape(self, n, shape):
        # a 1-D array of the wrong length used to lose all but its first point
        f = make_field("gaussian", n, 0.5)
        points = np.full(shape, 0.1)
        for call in (f, f.rows):
            with pytest.raises(ValueError, match="got shape"):
                call(points)


class TestParams:
    def test_from_a_roundtrip(self):
        p = Params(n=2, a=0.5)
        assert p.s == 0.25

    @pytest.mark.parametrize("n,a", [(3, 0.0), (1, 1.0), (1, -1.0),
                                     (1, math.nextafter(-1.0, 0.0))])
    def test_rejects_out_of_range(self, n, a):
        # the last a is in range, but s = (1 - a)/2 rounds to exactly 1
        with pytest.raises(ValueError):
            Params(n=n, a=a)

    def test_every_a_in_range_constructs(self):
        # 1,036 of these failed an exact 2s + a == 1 check when s was stored
        for a in np.linspace(-0.999, 0.999, 9981):
            assert 0.0 < Params(n=1, a=float(a)).s < 1.0


class TestFracLap:
    def test_constant_within_tolerance(self):
        # the symmetric differences cancel exactly; what remains is the
        # analytic continuation of the truncated -2 f(x) tail, which stays
        # inside the requested certificate
        f = make_field("constant", 1, 0.5)
        assert abs(frac_lap(f, np.array([0.3]), 0.5, tol=1e-6)) <= 1e-6

    def test_affine_zero_by_symmetry(self):
        # the declared-growth tail bound is conservative here; the symmetric
        # quadrature itself cancels exactly, so ask for a loose certificate
        # and check the much smaller computed value
        f = make_field("affine", 1, 0.8)
        assert abs(frac_lap(f, np.array([0.5]), 0.6, tol=0.05)) < 1e-6

    def test_halfline_power_is_sharmonic(self):
        # max(x, 0)^s solves the equation on the positive half line
        s = 0.5
        f = make_field("xplus_s", 1, s)
        val = frac_lap(f, np.array([1.0]), s)
        assert abs(val) < 1e-4

    def test_positive_at_interior_maximum(self):
        f = make_field("gaussian", 1, 0.5)
        assert frac_lap(f, np.zeros(1), 0.5) >= 0.0

    def test_gaussian_n2_finite(self):
        f = make_field("gaussian", 2, 0.3)
        val = frac_lap(f, np.array([0.2, -0.1]), 0.3)
        assert np.isfinite(val)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vanishes_on_generated_fields(self, seed):
        s = 0.5
        f = make_field("ball_poisson", 1, s, seed=seed)
        rng = np.random.default_rng(seed + 10)
        for x in rng.uniform(-0.6, 0.6, size=5):
            val = frac_lap(f, np.array([x]), s)
            assert abs(val) <= 5e-4 * f.scale


class TestBallPoissonKernel:
    def test_normalization_at_center(self):
        # radial quadrature + power-law tail oracle for the exterior mass
        r, s, n = 1.0, 0.4, 1

        from fracmv.fraclap import _ball_poisson_normalizer
        c = _ball_poisson_normalizer(n, s)

        def mass_at(x):
            x0 = float(x[0])
            interior = c * (r * r - x0 * x0) ** s

            def both_sides(rho):
                k1 = ball_poisson_kernel(x, np.array([rho]), r, s)
                k2 = ball_poisson_kernel(x, np.array([-rho]), r, s)
                return k1 + k2

            # the (rho^2 - r^2)^(-s) endpoint singularity is flattened by
            # substituting t = rho^2 - r^2 = v^(1/(1-s)); the t^(-s) factor
            # of the kernel cancels t^s from the substitution analytically,
            # so the integrand stays regular down to the boundary rho = r
            def near(v):
                t = v ** (1.0 / (1.0 - s))
                rho = math.sqrt(r * r + t)
                pair = 1.0 / abs(rho - x0) + 1.0 / (rho + x0)
                return interior * pair / (2.0 * rho * (1.0 - s))

            core = adaptive_simpson(near, 0.0, (2.0 * r * r) ** (1.0 - s),
                                    1e-12)
            core += adaptive_simpson(both_sides, math.sqrt(3.0) * r, 1e4,
                                     1e-12)
            # kernel ~ c (r^2-|x|^2)^s rho^(-n-2s) at large rho
            tail = 2.0 * interior * 1e4 ** (-2.0 * s) / (2.0 * s)
            return core + tail

        assert_allclose(mass_at(np.zeros(1)), 1.0, atol=1e-6)
        assert_allclose(mass_at(np.array([0.5])), 1.0, atol=1e-5)

    def test_vanishes_at_boundary(self):
        vals = [ball_poisson_kernel(np.array([t]), np.array([2.0]), 1.0, 0.3)
                for t in (0.8, 0.9, 0.99)]
        assert vals[0] > vals[1] > vals[2]

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ball_poisson_kernel(np.array([1.5]), np.array([2.0]), 1.0, 0.5)
        with pytest.raises(ValueError):
            ball_poisson_kernel(np.array([0.5]), np.array([0.9]), 1.0, 0.5)


class TestSampleFields:
    def test_truncated_constant_data_mass_deficit(self):
        f = sample_sharmonic(
            lambda y: np.ones(len(np.atleast_2d(y))), 1.0, 0.5, 1)
        val = f(np.zeros(1))
        assert 0.0 < val <= 1.0

    def test_interior_boundary_jump_small(self):
        f = make_field("ball_poisson", 1, 0.5, seed=4)
        inner = f(np.array([0.99]))
        outer = f(np.array([1.01]))
        assert abs(inner - outer) <= 5e-2 * max(1.0, f.scale)

    @pytest.mark.parametrize("n", [1, 2])
    def test_ball_poisson_far_value_holds(self, n):
        # the declared far field: exactly c at random points with |x| >= R,
        # those on the sphere |x| = R included
        rng = np.random.default_rng(21)
        dirs = rng.normal(size=(400, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for r in (0.3, 1.0):
            f = make_field("ball_poisson", n, 0.4, r=r, seed=2)
            R, c = f.far
            assert (R, c) == (3.3 * r, 0.0)
            grow = np.concatenate([np.ones(100), rng.uniform(1.0, 4.0, 300)])
            assert np.all(f(dirs * (R * grow)[:, None]) == c)

    def test_seeds_give_distinct_fields(self):
        f1 = make_field("ball_poisson", 1, 0.5, seed=0)
        f2 = make_field("ball_poisson", 1, 0.5, seed=1)
        assert f1(np.array([0.2])) != f2(np.array([0.2]))

    def test_negative_seed_rejected(self):
        # random.Random seeds from |seed|, so -1 would name seed 1's field
        with pytest.raises(ValueError, match="negative"):
            make_field("ball_poisson", 1, 0.5, seed=-1)

    def test_seed_reproducible(self):
        f1 = make_field("ball_poisson", 2, 0.25, seed=5)
        f2 = make_field("ball_poisson", 2, 0.25, seed=5)
        assert f1(np.array([0.1, 0.2])) == f2(np.array([0.1, 0.2]))

    def test_registry_names(self):
        for name in FIELD_NAMES:
            f = make_field(name, 1, 0.75)
            assert isinstance(f, ScalarField)
        with pytest.raises(ValueError):
            make_field("nope", 1, 0.5)

    def test_a_built_field_cannot_change(self):
        # the engine reads a field's declarations while it evaluates it
        f = make_field("ball_poisson", 1, 0.5, seed=1)
        assert f.kink_radii == (1.0, 3.3) and f.far == (3.3, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.far = None

    @pytest.mark.parametrize("n", [1, 2])
    def test_evaluator_matches_norm_formula(self, n):
        # the evaluator (a direct sum for n = 1, the ring mode series for
        # n = 2) against the Euclidean-norm formula on the same shell nodes,
        # including points with 1 - |x|/r down to 1e-12; this data is nonzero
        # on the innermost ring, where the n = 2 series differs by ~1e-13
        r, s = 1.3, 0.35

        def g(y):
            y = np.asarray(y, dtype=float).reshape(-1, n)
            return 1.0 + 0.5 * np.cos(3.0 * y[:, 0]) + 0.2 * y[:, -1]

        x = _near_boundary_points(r, n)
        got = sample_sharmonic(g, r, s, n)(x)
        if n == 1:
            np.testing.assert_array_equal(got, _norm_formula(g, r, s, n, x))
        else:
            assert_allclose(got, _norm_formula(g, r, s, n, x), rtol=1e-12,
                            atol=0.0)

    @pytest.mark.parametrize("n,rtol", [(1, 1e-14), (2, 1e-12)])
    def test_evaluator_skips_zero_shell_data(self, n, rtol):
        # data that is exactly 0 on the outer half of the shell and on every
        # other n = 1 node: the evaluator leaves those nodes out, the norm
        # formula sums every node
        r, s = 1.3, 0.35

        def g(y):
            y = np.asarray(y, dtype=float).reshape(-1, n)
            rho = np.linalg.norm(y, axis=1)
            vals = (1.0 + 0.5 * np.cos(3.0 * y[:, 0])) * (rho < 2.5 * r)
            return vals * (y[:, 0] > 0.0) if n == 1 else vals

        pts, _ = _shell_nodes(r, s, n)
        assert 0 < np.count_nonzero(g(pts)) < len(pts) // 2
        x = _near_boundary_points(r, n)
        assert_allclose(sample_sharmonic(g, r, s, n)(x),
                        _norm_formula(g, r, s, n, x), rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_batch_matches_single_points(self, n):
        # each point's value does not depend on the batch it is evaluated in
        x = np.random.default_rng(11).uniform(-1.2, 1.2, (8000, n))
        f = make_field("ball_poisson", n, 0.4, seed=3)
        batch = f(x)
        single = np.array([f(p) for p in x])
        if n == 1:
            np.testing.assert_array_equal(batch, single)
        else:
            assert_allclose(batch, single, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_pass_edges_match_single_points(self, n, extra):
        # interior batches of one pass less a point, one pass and one pass
        # and a point, where the last pass is full, full, or holds one point
        x = np.random.default_rng(12 + extra).uniform(-0.7, 0.7,
                                                      (PASS_POINTS + extra, n))
        f = make_field("ball_poisson", n, 0.4, seed=3)
        assert np.all(np.linalg.norm(x, axis=1) < 1.0)
        batch = f(x)
        single = np.array([f(p) for p in x])
        if n == 1:
            np.testing.assert_array_equal(batch, single)
        else:
            assert_allclose(batch, single, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_nan_point_reads_nan(self, n):
        # rx < r is False at a NaN point, which once sent it to the exterior
        # data and read 0 there; a point at +-inf lies past the far radius
        x = np.full((6, n), 0.1)
        x[0], x[1, -1] = np.nan, np.nan
        x[2], x[3], x[4, 0] = np.inf, -np.inf, np.inf
        f = make_field("ball_poisson", n, 0.5, seed=1)
        vals = f(x)
        assert np.all(np.isnan(vals[:2]))
        assert np.all(vals[2:5] == 0.0)
        assert vals[5] == f(x[5]) and np.isfinite(vals[5])

    @pytest.mark.parametrize("n", [1, 2])
    def test_working_set_is_bounded(self, n):
        # 20,000 points inside the ball go through the field's own buffers
        # in passes, so one call holds a few (points,) and (points, n)
        # arrays, 0.82 MB (n = 1) and 0.87 MB (n = 2) here; (points, rings)
        # temporaries took 8.5 MB and 21 MB
        rng = np.random.default_rng(13)
        dirs = rng.normal(size=(20000, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        x = dirs * rng.uniform(0.0, 0.999, 20000)[:, None]
        f = make_field("ball_poisson", n, 0.4, seed=3)
        f(x[:1])
        tracemalloc.start()
        try:
            f(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_growth_tag_consistent_with_samples(self):
        for name in ("constant", "gaussian", "ball_poisson"):
            f = make_field(name, 1, 0.5)
            for rad in (10.0, 100.0, 1000.0):
                val = abs(f(np.array([rad])))
                assert val <= 10.0 * f.envelope(rad)


def _near_boundary_points(r, n):
    # random points in B(0, r), then 1 - |x|/r = 10^-k for k = 1..12
    rng = np.random.default_rng(7)
    dirs = rng.normal(size=(60, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    frac = np.concatenate([rng.uniform(0.0, 0.9, 48),
                           1.0 - 10.0 ** -np.arange(1.0, 13.0)])
    x = dirs * (r * frac)[:, None]
    assert np.all(np.linalg.norm(x, axis=1) < r)
    return x


def _norm_formula(g, r, s, n, x):
    """The ball Poisson integral of g on every shell node, by Euclidean norms."""
    pts, wq = _shell_nodes(r, s, n)
    coef = _ball_poisson_normalizer(n, s) * wq * g(pts)
    d = np.linalg.norm(x[:, None, :] - pts[None, :, :], axis=2)
    fac = (r * r - np.linalg.norm(x, axis=1) ** 2) ** s
    return fac * (coef[None, :] / d ** n).sum(axis=1)


def _interior_points(r, rng):
    # the center, random points, and 1 - |x|/r = 10^-k for k = 1..12
    dirs = rng.normal(size=(60, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    frac = np.concatenate([[0.0], rng.uniform(0.0, 0.99, 47),
                           1.0 - 10.0 ** -np.arange(1.0, 13.0)])
    return dirs * (r * frac)[:, None]


class TestModeSeries:
    """The n = 2 mode series against the direct 3,072-node sum."""

    @pytest.mark.parametrize("seed", range(6))
    def test_ball_poisson_fields(self, seed):
        rng = np.random.default_rng(100 + seed)
        for s in (0.1, 0.5, 0.9):
            for r in (0.3, 1.0, 1.3):
                g = _ball_poisson_data(2, r, seed)
                x = _interior_points(r, rng)
                got = make_field("ball_poisson", 2, s, r=r, seed=seed)(x)
                assert_allclose(got, sharmonic_direct(g, r, s, 2, x),
                                rtol=1e-13, atol=0.0)

    def test_small_mode_is_kept(self):
        # a cos(theta) mode 1e-10 below the cos(3 theta) one moves the field
        # near the ball by up to 2e-11 relative, 200 times the tolerance, so a
        # cutoff that drops it fails here
        r, s = 1.0, 0.5

        def g(y):
            theta = np.arctan2(y[:, 1], y[:, 0])
            ang = 2.0 + np.cos(3.0 * theta) + 1e-10 * np.cos(theta)
            return _shell_window(np.linalg.norm(y, axis=1), r) * ang

        x = _interior_points(r, np.random.default_rng(3))
        assert_allclose(sample_sharmonic(g, r, s, 2)(x),
                        sharmonic_direct(g, r, s, 2, x), rtol=1e-13, atol=0.0)

    # no example database: every run draws the same examples
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(amps=st.lists(st.floats(0.01, 1.0), max_size=32),
           phases=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=32, max_size=32),
           r=st.floats(0.2, 2.0), s=st.floats(0.05, 0.95),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_trigonometric_data(self, amps, phases, r, s, seed):
        # window(|y|) (1 + sum |a_m| + sum_m a_m cos(m theta + phi_m)) is
        # positive, and every mode 1..len(amps) is far above the cutoff
        a0 = 1.0 + sum(amps)

        def g(y):
            theta = np.arctan2(y[:, 1], y[:, 0])
            ang = a0 + sum(am * np.cos(m * theta + ph) for m, (am, ph)
                           in enumerate(zip(amps, phases), start=1))
            return _shell_window(np.linalg.norm(y, axis=1), r) * ang

        x = _interior_points(r, np.random.default_rng(seed))
        assert_allclose(sample_sharmonic(g, r, s, 2)(x),
                        sharmonic_direct(g, r, s, 2, x), rtol=1e-13, atol=0.0)
