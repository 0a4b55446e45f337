import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import CubicSpline

from fracmv.bump import SUPPORT_HI
from fracmv.errors import TableMismatchError
from fracmv.fraclap import Params, make_field
from fracmv.kernel import (DEFAULT_GRID, _CubicSpline, build_table,
                           extension_mean_value, phi_direct, phi_r_convolve,
                           psi_component, read_table, verify_kernel_properties,
                           write_table)
from fracmv.quadrature import gauss_legendre


class TestTableStructure:
    def test_phi_positive_everywhere(self, table_n1_a0):
        assert np.all(table_n1_a0.phi_values > 0.0)

    def test_phi_decreasing_past_support(self, table_n1_a0):
        t = table_n1_a0
        sel = t.rho_grid >= 2.0 * SUPPORT_HI
        assert np.all(np.diff(t.phi_values[sel]) < 0.0)

    @pytest.mark.parametrize("a", [0.0, 0.5, -0.5])
    def test_unit_mass(self, a, get_table):
        assert_allclose(get_table(1, a).mass(), 1.0, atol=1e-4)

    def test_build_meta_records_mass_residual(self, table_n1_a0):
        assert table_n1_a0.build_meta["mass_residual"] < 1e-4

    @pytest.mark.parametrize("n", [1, 2])
    def test_table_matches_phi_direct(self, get_table, n):
        # phi_direct keeps the vector geometry of the defining double
        # integral, so it checks the distance form independently; beyond
        # rho = 1 its own angular rule drifts (n = 2: 2.5e-7 at rho = 1.5,
        # 8e-6 at 1.93), so the nodes stop at 0.8125
        t = get_table(n, 0.0)
        for i in (0, 16, 32, 48, 64, 80, 96, 104):
            rho = t.rho_grid[i]
            x = np.zeros(n)
            x[0] = rho
            assert_allclose(t.phi_values[i], phi_direct(t.profile, x),
                            rtol=5e-8, err_msg=f"rho={rho}")

    def test_tail_extension_continuous_at_grid_edge(self, table_n1_a0):
        t = table_n1_a0
        inner = t.phi_of(t.rmax)
        outer = t.phi_of(t.rmax * (1.0 + 1e-9))
        assert_allclose(outer, inner, rtol=1e-6)

    def test_tail_exponent(self, table_n1_a0):
        # phi ~ rho^-(n+1-a) far out: doubling rho divides by 2^(n+1-a)
        t = table_n1_a0
        ratio = t.phi_of(40.0) / t.phi_of(20.0)
        assert_allclose(ratio, 2.0 ** -2.0, rtol=1e-2)

    def test_psi_tail_exponent(self, table_n1_a0):
        t = table_n1_a0
        ratio = t.psi_radial_of(40.0) / t.psi_radial_of(20.0)
        assert_allclose(ratio, 2.0 ** -3.0, rtol=1e-2)


class TestRotationalSymmetry:
    def test_reflection_n1(self, get_profile):
        prof = get_profile(1, 0.0)
        va = phi_direct(prof, np.array([0.45]))
        vb = phi_direct(prof, np.array([-0.45]))
        assert_allclose(va, vb, rtol=1e-10)

    def test_rotation_n2(self, get_profile):
        prof = get_profile(2, 0.0)
        rho = 0.6
        vals = [phi_direct(prof, rho * np.array([math.cos(t), math.sin(t)]))
                for t in (0.0, 0.7, 2.1)]
        assert_allclose(vals[1], vals[0], rtol=1e-8)
        assert_allclose(vals[2], vals[0], rtol=1e-8)


class TestMeanValue:
    def test_constant_reproduced(self, table_n1_a0):
        f = make_field("constant", 1, 0.5)
        for r in (0.1, 0.5, 2.0):
            val = phi_r_convolve(table_n1_a0, f, np.array([0.2]), r)
            assert_allclose(val, 1.0, atol=5e-4)

    def test_affine_reproduced_at_point(self, get_table):
        # odd parts integrate to zero, so the average returns the center value
        t = get_table(1, -0.5)  # s = 0.75 admits linear growth
        f = make_field("affine", 1, 0.75)
        val = phi_r_convolve(t, f, np.array([0.3]), 0.5)
        assert_allclose(val, 0.3, atol=5e-4)

    @pytest.mark.parametrize("r", [0.1, 0.2])
    def test_sharmonic_field_center(self, r, table_n1_a0):
        f = make_field("ball_poisson", 1, 0.5, seed=2)
        x = np.zeros(1)
        assert_allclose(phi_r_convolve(table_n1_a0, f, x, r), f(x), atol=5e-4)

    def test_sharmonic_field_off_center(self, table_n1_a0):
        f = make_field("ball_poisson", 1, 0.5, seed=3)
        x = np.array([0.35])
        val = phi_r_convolve(table_n1_a0, f, x, 0.15)
        assert_allclose(val, f(x), atol=5e-4)

    def test_residual_independent_of_radius(self, table_n1_a0):
        # for an exact solution the defect must not grow with r
        f = make_field("ball_poisson", 1, 0.5, seed=2)
        x = np.array([0.1])
        errs = [abs(phi_r_convolve(table_n1_a0, f, x, r) - f(x))
                for r in (0.05, 0.1, 0.2)]
        assert max(errs) < 5e-4


class TestPsiComponent:
    def test_zero_at_origin(self, table_n1_a0):
        assert psi_component(table_n1_a0, np.zeros(1), 1) == 0.0

    def test_odd_under_reflection(self, table_n1_a0):
        vp = psi_component(table_n1_a0, np.array([0.4]), 1)
        vm = psi_component(table_n1_a0, np.array([-0.4]), 1)
        assert_allclose(vp, -vm, rtol=1e-12)

    def test_rejects_bad_index(self, table_n1_a0):
        with pytest.raises(ValueError):
            psi_component(table_n1_a0, np.array([0.4]), 2)

    def test_matches_phi_derivative(self, table_n1_a0):
        t = table_n1_a0
        h = 1e-5
        for rho in (0.45, 1.2, 3.0):
            fd = (t.phi_of(rho + h) - t.phi_of(rho - h)) / (2.0 * h)
            assert_allclose(psi_component(t, np.array([rho]), 1), fd,
                            rtol=1e-3, atol=1e-8)

    def test_zero_integral_on_line(self, table_n1_a0):
        u, w = gauss_legendre(400, (-table_n1_a0.rmax, table_n1_a0.rmax))
        vals = np.array([psi_component(table_n1_a0, np.array([x]), 1)
                         for x in u])
        assert abs(float(w @ vals)) < 1e-6

    @pytest.mark.parametrize("n", [1, 2])
    def test_array_form_equals_point_calls(self, get_table, n):
        table = get_table(n, 0.0)
        rng = np.random.default_rng(3)
        pts = np.concatenate([np.zeros((1, n)),
                              rng.uniform(-20.0, 20.0, (40, n)),
                              rng.uniform(-1.0, 1.0, (40, n))])
        for i in range(1, n + 1):
            got = psi_component(table, pts, i)
            assert got.shape == (len(pts),) and got[0] == 0.0
            want = [psi_component(table, p, i) for p in pts]
            assert all(isinstance(v, float) for v in want)
            assert np.array_equal(got, want)
            # the single-point formula as it read before the array form
            norms = [float(np.linalg.norm(p)) for p in pts[1:]]
            old = [table.psi_radial_of(rho) * p[i - 1] / rho
                   for p, rho in zip(pts[1:], norms)]
            assert_allclose(got[1:], old, rtol=1e-14, atol=0.0)


class TestExtensionMeanValue:
    def test_constant_recovered(self, get_profile):
        prof = get_profile(1, 0.0)

        def one(Z):
            return np.ones(len(np.atleast_2d(Z)))

        for r in (0.3, 1.0):
            val = extension_mean_value(prof, one, np.array([0.1]), r)
            assert_allclose(val, 1.0, atol=1e-10)

    def test_recovers_extended_field_value(self, get_profile):
        from fracmv.extension import reflected_extension

        prof = get_profile(1, 0.0)
        f = make_field("ball_poisson", 1, 0.5, seed=6)
        v = reflected_extension(Params(n=1, a=0.0), f)
        x = np.array([0.2])
        val = extension_mean_value(prof, v, x, 0.1)
        assert_allclose(val, f(x), atol=5e-4)


def _assert_spline_matches_scipy(x, y, r):
    # value and first derivative, each within 1e-15 of its largest size
    ours, ref = _CubicSpline(x, y), CubicSpline(x, y)
    for deriv in (False, True):
        expected = ref(r, int(deriv))
        assert np.max(np.abs(ours(r, deriv) - expected)) <= (
            1e-15 * np.max(np.abs(expected)))


class TestSpline:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_scipy_on_default_grid(self, get_table, n):
        t = get_table(n, 0.0)
        r = np.concatenate([t.rho_grid, np.linspace(0.0, t.rmax, 20001)])
        for values in (t.phi_values, t.psi_profile):
            _assert_spline_matches_scipy(t.rho_grid, values, r)
            # each piece starts from its node value, so the nodes are exact
            ours = _CubicSpline(t.rho_grid, values)
            assert np.array_equal(ours(t.rho_grid[:-1]), values[:-1])

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_matches_scipy_on_few_nodes(self, size):
        # two nodes give the line and three the parabola through them
        x = np.array([0.0, 0.3, 1.1, 2.0])[:size]
        y = np.array([1.0, -0.5, 0.25, 2.0])[:size]
        _assert_spline_matches_scipy(x, y, np.linspace(-0.5, 2.5, 61))

    @pytest.mark.parametrize("x,y", [
        ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),   # a repeated node
        ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0]),   # a decreasing step
        ([0.0, 1.0, 2.0, 3.0], [0.0, math.nan, 2.0, 3.0]),
        ([0.0, 1.0, math.inf], [0.0, 1.0, 2.0]),
        ([0.0, 1.0, 2.0], [0.0, 1.0]),
        ([0.0], [1.0]),
    ])
    def test_rejects_bad_nodes(self, x, y):
        # read_table relies on this to reject a radial grid it cannot use
        with pytest.raises(ValueError):
            _CubicSpline(x, y)


class TestPersistence:
    def test_round_trip_bit_exact(self, table_n1_a0, tmp_path):
        path = tmp_path / "table.txt"
        write_table(table_n1_a0, path)
        back = read_table(path)
        assert np.array_equal(back.rho_grid, table_n1_a0.rho_grid)
        assert np.array_equal(back.phi_values, table_n1_a0.phi_values)
        assert np.array_equal(back.psi_profile, table_n1_a0.psi_profile)
        assert back.params == table_n1_a0.params
        assert back.profile.kappa == table_n1_a0.profile.kappa
        assert back.build_meta == table_n1_a0.build_meta

    def test_rejects_truncated_file(self, table_n1_a0, tmp_path):
        path = tmp_path / "table.txt"
        write_table(table_n1_a0, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(TableMismatchError):
            read_table(path)


class TestPropertyReport:
    def test_full_report_passes(self, table_n1_a0):
        report = verify_kernel_properties(table_n1_a0)
        failing = [c.name for c in report.checks if not c.passed]
        assert report.passed, f"failing checks: {failing}"

    def test_report_rows_have_expected_shape(self, table_n1_a0):
        report = verify_kernel_properties(table_n1_a0)
        rows = list(report.rows())
        assert len(rows) == len(report.checks) >= 7
        for name, status, measured, threshold, _ in rows:
            assert status in ("pass", "fail")
            float(measured), float(threshold)


def test_build_table_small_grid_is_consistent():
    # a deliberately coarse build keeps this standalone test fast; the result
    # only needs to be in the right ballpark of the cached production table
    params = Params(n=1, a=0.0)
    small = build_table(params, {"dense_points": 33, "geo_points": 16})
    assert_allclose(small.mass(), 1.0, atol=5e-3)
    assert small.phi_of(0.0) > small.phi_of(1.0) > small.phi_of(4.0) > 0.0


@pytest.mark.parametrize("key", ["y_panels", "bogus"])
def test_build_table_rejects_unknown_grid_key(key):
    # an unused key would otherwise land in the table's built_with line
    with pytest.raises(ValueError, match=key):
        build_table(Params(n=1, a=0.0), {"dense_points": 33, key: 8})
    assert set(DEFAULT_GRID) == {"dense_points", "geo_points"}
