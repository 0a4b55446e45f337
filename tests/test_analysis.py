import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import besov_seminorm_loop, hl_maximal_loop, sharp_maximal_loop

from fracmv.analysis import (BallFamily, Domain, ReportRow, besov_seminorm,
                             gradient_of_solution, gradient_sharp_ratio,
                             hl_maximal, rows_to_csv, sharp_maximal,
                             weighted_gradient_besov_ratio)
from fracmv.errors import ToleranceError
from fracmv.fraclap import ScalarField, make_field
from fracmv.quadrature import angular_rule


def _field(fn, n=1, **kw):
    return ScalarField(evaluator=fn, n=n, **kw)


class TestDomain:
    def test_interval_distance(self):
        # the n = 1 ball B(1, 2) is the interval (-1, 3)
        d = Domain.ball([1.0], 2.0)
        assert d.distance_to_boundary(0.0) == 1.0
        assert d.distance_to_boundary(2.5) == 0.5
        assert d.distance_to_boundary(4.0) == 0.0
        assert (d.center, d.radius) == ((1.0,), 2.0)

    def test_ball_distance(self):
        d = Domain.ball([1.0, 0.0], 2.0)
        assert_allclose(d.distance_to_boundary([1.0, 0.5]), 1.5)
        assert d.distance_to_boundary([4.0, 0.0]) == 0.0

    def test_validators(self):
        with pytest.raises(ValueError):
            Domain.ball([1.0], 0.0)
        with pytest.raises(ValueError):
            Domain.ball([0.0], -1.0)


class TestBallFamily:
    def test_radii_hit_both_endpoints(self):
        fam = BallFamily(r_min=1e-3, r_max=8.0)
        radii = fam.radii()
        assert radii[0] == 1e-3 and radii[-1] == 8.0
        assert np.all(np.diff(radii) > 0)

    def test_centers_include_probe_point(self):
        fam = BallFamily(offsets=(0.0, 0.5))
        centers = fam.centers(np.array([0.2, -0.1]), 1.0)
        assert_allclose(centers[0], [0.2, -0.1])
        assert len(centers) == 5  # probe + 2 signs x 2 axes for one offset


class TestSharpMaximal:
    def test_constant_field_vanishes(self):
        f = make_field("constant", 1, 0.5)
        fam = BallFamily(resolution=32)
        assert sharp_maximal(f, np.zeros(1), 0.5, fam) == 0.0

    def test_affine_centered_family_closed_form(self):
        # f(y) - f(x) = y - x; the centered midpoint average of |y - x| over
        # a radius-R ball is exactly R/2, so the supremum over the family is
        # attained at the largest radius
        f = make_field("affine", 1, 0.75)
        lam = 0.4
        fam = BallFamily(offsets=(0.0,), resolution=64)
        expected = max((2.0 * R) ** -lam * (R / 2.0) for R in fam.radii())
        got = sharp_maximal(f, np.array([0.3]), lam, fam)
        assert_allclose(got, expected, rtol=1e-12)

    def test_enrichment_never_decreases(self):
        f = make_field("gaussian", 1, 0.5)
        lam, x = 0.5, np.array([0.1])
        small = BallFamily(offsets=(0.0,), resolution=48)
        rich = BallFamily(offsets=(0.0, 0.5, 0.9), resolution=48)
        assert sharp_maximal(f, x, lam, rich) >= sharp_maximal(f, x, lam, small)

    def test_monotone_in_lambda_for_small_balls(self):
        # with every ball of measure < 1 the prefactor grows with lambda
        f = make_field("gaussian", 1, 0.5)
        fam = BallFamily(r_min=1e-3, r_max=0.4, resolution=48)
        x = np.array([0.2])
        vals = [sharp_maximal(f, x, lam, fam) for lam in (0.3, 0.5, 0.7)]
        assert vals[0] < vals[1] < vals[2]

    def test_rejects_bad_lambda(self):
        f = make_field("constant", 1, 0.5)
        with pytest.raises(ValueError):
            sharp_maximal(f, np.zeros(1), 1.2, BallFamily())
        with pytest.raises(ValueError):
            sharp_maximal(f, np.zeros(1), (0.5, 1.2), BallFamily())

    @pytest.mark.parametrize("n", [1, 2])
    def test_several_lambdas_equal_single_calls_bit_for_bit(self, n):
        f = make_field("ball_poisson", n, 0.5, seed=1)
        fam = BallFamily(r_min=1e-2, r_max=4.0, resolution=48)
        x = np.full(n, 0.3)
        got = sharp_maximal(f, x, (0.3, 0.5), fam)
        assert got.shape == (2,)
        want = [sharp_maximal(f, x, lam, fam) for lam in (0.3, 0.5)]
        assert all(isinstance(w, float) for w in want)
        np.testing.assert_array_equal(got, want)


class TestBallMeans:
    # both maximal functions sample every ball of a radius in one field call

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", ["ball_poisson", "gaussian"])
    def test_equal_to_one_call_per_ball(self, n, name):
        f = make_field(name, n, 0.5, seed=1)
        fam = BallFamily(r_min=1e-2, r_max=4.0, resolution=48)
        for x in (np.zeros(n), np.full(n, 0.3)):
            assert sharp_maximal(f, x, 0.5, fam) == sharp_maximal_loop(f, x, 0.5, fam)
            assert hl_maximal(f, x, fam) == hl_maximal_loop(f, x, fam)

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_field_call_per_radius(self, n):
        calls = []
        base = make_field("ball_poisson", n, 0.5, seed=1)

        def counted(pts):
            calls.append(len(pts))
            return base.evaluator(pts)

        f = dataclasses.replace(base, evaluator=counted)
        fam = BallFamily(r_min=1e-2, r_max=4.0)
        x = np.full(n, 0.3)
        hl_maximal(f, x, fam)
        assert len(calls) == len(fam.radii())
        calls.clear()
        sharp_maximal(f, x, 0.5, fam)
        assert len(calls) == len(fam.radii()) + 1  # and one for f(x)


class TestHlMaximal:
    def test_constant_is_one(self):
        f = make_field("constant", 1, 0.5)
        assert_allclose(hl_maximal(f, np.array([0.4]), BallFamily()), 1.0)

    def test_dominates_point_value(self):
        f = make_field("gaussian", 1, 0.5)
        x = np.array([0.15])
        fam = BallFamily(r_min=1e-4)
        assert hl_maximal(f, x, fam) >= abs(f(x)) * (1.0 - 1e-3)


class TestGradient:
    def test_constant_gives_zero(self, table_n1_a0):
        f = make_field("constant", 1, 0.5)
        g = gradient_of_solution(table_n1_a0, f, np.array([0.2]), 0.1)
        assert abs(g[0]) < 1e-6

    def test_affine_gives_unit_slope(self, get_table):
        t = get_table(1, -0.5)  # s = 0.75 admits linear growth
        f = make_field("affine", 1, 0.75)
        g = gradient_of_solution(t, f, np.array([0.3]), 0.2)
        assert_allclose(g[0], 1.0, atol=1e-3)

    def test_radius_independence(self, table_n1_a0):
        f = make_field("ball_poisson", 1, 0.5, seed=2)
        x = np.array([0.15])
        g1 = gradient_of_solution(table_n1_a0, f, x, 0.2)[0]
        g2 = gradient_of_solution(table_n1_a0, f, x, 0.1)[0]
        assert abs(g1 - g2) < 1e-3

    def test_matches_central_differences(self, table_n1_a0):
        f = make_field("ball_poisson", 1, 0.5, seed=5)
        x = np.array([0.25])
        h = 1e-4
        fd = (f(x + h) - f(x - h)) / (2.0 * h)
        g = gradient_of_solution(table_n1_a0, f, x, 0.15)[0]
        assert_allclose(g, fd, atol=5e-4)

    @pytest.mark.parametrize("fn, degree", [
        (lambda x: np.abs(x[:, 0]) ** 2.5, 2.5),
        (lambda x: x[:, 0] ** 3, 3.0),
    ])
    def test_divergent_growth_raises(self, table_n1_a0, fn, degree):
        # the gradient kernel decays like |w|^-(n+2-a) = |w|^-3, so a
        # declared growth of degree >= 2 leaves the tail not integrable
        f = _field(fn, degree=degree)
        with pytest.raises(ToleranceError, match="diverges"):
            gradient_of_solution(table_n1_a0, f, np.array([0.3]), 0.2)


class TestBesov:
    def test_constant_is_zero_and_convergent(self):
        f = make_field("constant", 1, 0.5)
        res = besov_seminorm(f, 0.5, 2.0, window=1.0)
        assert res.value == 0.0

    def test_scaling_law(self):
        # [g(c.)] with window W equals c^(lam - n/p) [g] with window cW;
        # both sides keep the x-box and grid matched in scaled units
        lam, p, c = 0.7, 2.0, 2.0

        def g(pts):
            return np.exp(-4.0 * pts[:, 0] ** 2)

        f = _field(g)
        fc = _field(lambda pts: g(c * pts))
        lhs = besov_seminorm(fc, lam, p, window=1.0, half_width=2.0).value
        rhs = c ** (lam - 1.0 / p) \
            * besov_seminorm(f, lam, p, window=c, half_width=2.0 * c).value
        assert_allclose(lhs, rhs, rtol=2e-2)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", ["ball_poisson", "gaussian"])
    def test_one_field_call_per_shell_direction(self, name, n):
        # a shell's six radii along one direction share a field call, and
        # the seminorm equals one call per radius bit for bit
        calls = []
        base = make_field(name, n, 0.5, seed=1)

        def counted(pts):
            calls.append(len(pts))
            return base.evaluator(pts)

        f = dataclasses.replace(base, evaluator=counted)
        grid, shells = (48, 10) if n == 1 else (12, 3)
        got = besov_seminorm(f, 0.3, 2.0, 1.0, grid=grid, shells=shells).value
        directions = len(angular_rule(n, 16)[0])
        assert calls == [grid ** n] + [6 * grid ** n] * (shells * directions)
        assert got == besov_seminorm_loop(base, 0.3, 2.0, 1.0, half_width=2.0,
                                          grid=grid, shells=shells)

    def test_rejects_bad_parameters(self):
        f = make_field("constant", 1, 0.5)
        with pytest.raises(ValueError):
            besov_seminorm(f, 0.0, 2.0, window=1.0)
        with pytest.raises(ValueError):
            besov_seminorm(f, 0.5, 0.5, window=1.0)


class TestRatioReports:
    def test_gradient_sharp_rows_and_band(self, table_n1_a0):
        f = make_field("ball_poisson", 1, 0.5, seed=1)
        domain = Domain.ball([0.0], 0.6)
        grid = [np.array([u]) for u in (-0.3, 0.0, 0.3)]
        factors = (0.5, 0.25)
        rows = gradient_sharp_ratio(table_n1_a0, f, domain, 0.5, grid,
                                    factors, field_id="bp1")
        point_rows = [r for r in rows if r.kind == "gradient_sharp_ratio"]
        assert len(point_rows) == len(grid) * len(factors)
        maxima = {r.r: r.value for r in rows if r.kind == "ratio_max_over_grid"}
        assert set(maxima) == set(factors)
        # the bound is uniform in r: halving the radius must stay in a band
        assert maxima[0.25] <= 4.0 * maxima[0.5] + 1e-12
        assert all(np.isfinite(r.value) for r in rows)

    def test_several_lambdas_join_the_single_lambda_rows(self, table_n1_a0):
        f = make_field("ball_poisson", 1, 0.5, seed=1)
        domain = Domain.ball([0.0], 0.6)
        grid = [np.array([u]) for u in (-0.3, 0.0, 0.3)]
        fam = BallFamily(resolution=16)

        def rows(lam):
            return [(r.field_id, r.x, r.r, r.lam, r.value, r.kind)
                    for r in gradient_sharp_ratio(table_n1_a0, f, domain, lam, grid,
                                                  (0.5, 0.25), family=fam)]

        assert rows((0.3, 0.5)) == rows(0.3) + rows(0.5)

    def test_each_ratio_makes_one_engine_call(self, table_n1_a0, engine_calls):
        f = make_field("ball_poisson", 1, 0.5, seed=1)
        domain = Domain.ball([0.0], 0.6)
        grid = [np.array([u]) for u in (-0.3, 0.0, 0.3)]
        gradient_sharp_ratio(table_n1_a0, f, domain, 0.5, grid, (0.5, 0.25, 0.125),
                             family=BallFamily(resolution=8))
        weighted_gradient_besov_ratio(table_n1_a0, f, domain, 0.5, 2.0,
                                      grid_count=9)
        # a row per (x, factor), then one per interior cell
        assert [len(rows) for rows in engine_calls] == [9, 9]

    def test_rows_to_csv_format(self):
        row = ReportRow("f0", (0.25,), 0.1, 0.5, 2.0, 1.234, "demo")
        text = rows_to_csv([row])
        lines = text.strip().split("\n")
        assert lines[0] == "field_id,x,r,lambda,p,value,kind"
        assert lines[1].startswith("f0,0.25,0.1,0.5,2,1.234")
        assert lines[1].endswith(",demo")

    def test_weighted_ratio_finite_and_stable(self, table_n1_a0):
        f = make_field("ball_poisson", 1, 0.5, seed=3)
        domain = Domain.ball([0.0], 0.6)
        coarse = weighted_gradient_besov_ratio(table_n1_a0, f, domain,
                                               0.5, 2.0, grid_count=9)
        fine = weighted_gradient_besov_ratio(table_n1_a0, f, domain,
                                             0.5, 2.0, grid_count=15)
        assert np.isfinite(coarse.value) and coarse.value > 0.0
        assert abs(fine.value - coarse.value) <= 0.1 * coarse.value
