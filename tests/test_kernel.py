import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import CubicSpline

import fracmv.kernel
from fracmv.bump import SUPPORT_HI
from fracmv.errors import TableMismatchError
from fracmv.extension import poisson_constant
from fracmv.fraclap import Params, make_field
from fracmv.kernel import (DEFAULT_GRID, _CubicSpline, _kernel_values, build_table,
                           extension_mean_value, gradient_of_solution, phi_direct,
                           phi_r_convolve, read_table, verify_kernel_properties,
                           write_table)
from fracmv.quadrature import gauss_legendre, integrate_ball_weighted

README = Path(__file__).resolve().parent.parent / "README.md"


class TestTableStructure:
    def test_phi_positive_everywhere(self, table_n1_a0):
        assert np.all(table_n1_a0.phi_values > 0.0)

    def test_phi_decreasing_past_support(self, table_n1_a0):
        t = table_n1_a0
        sel = t.rho_grid >= 2.0 * SUPPORT_HI
        assert np.all(np.diff(t.phi_values[sel]) < 0.0)

    @pytest.mark.parametrize("a", [0.0, 0.5, -0.5])
    def test_unit_mass(self, a, get_table):
        # the exterior series past rmax leaves 5.3e-10..1.1e-9 here; the
        # power-law tail it replaced left 4.3e-7..1.1e-5
        assert_allclose(get_table(1, a).mass(), 1.0, atol=1e-7)

    def test_build_meta_records_mass_residual(self, table_n1_a0):
        assert table_n1_a0.build_meta["mass_residual"] < 1e-7

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("a", [-0.5, 0.5])
    def test_nodes_from_one_take_the_series_bit_for_bit(self, get_table, n, a):
        t = get_table(n, a)
        outer = t.rho_grid >= 1.0
        assert np.array_equal(t.phi_values[outer], t._series.phi(t.rho_grid[outer]))
        assert np.array_equal(t.psi_profile[outer],
                              t._series.dphi(t.rho_grid[outer]))
        # the last node below 1 is the distance form's
        i = np.flatnonzero(~outer)[-1]
        assert (t.phi_values[i], t.psi_profile[i]) == _kernel_values(
            t.profile, poisson_constant(n, a), float(t.rho_grid[i]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_past_rmax_matches_distance_form(self, get_table, n):
        # the power-law tail past rmax was off by 1.3e-4..1.6e-4 here; the
        # distance form's Phi' loses digits to cancellation at rho = 200
        t = get_table(n, 0.5)
        rho = np.array([20.0, 50.0, 200.0])
        want = np.array([_kernel_values(t.profile, poisson_constant(n, 0.5), r)
                         for r in rho])
        assert_allclose(t.phi_of(rho), want[:, 0], rtol=1e-13)
        assert_allclose(t.psi_radial_of(rho), want[:, 1], rtol=1e-13)

    def test_rebuild_is_bit_identical(self, get_table, tmp_path):
        # each table forms its own series coefficients
        first, again = tmp_path / "first.txt", tmp_path / "again.txt"
        write_table(get_table(2, 0.5), first)
        write_table(build_table(Params(n=2, a=0.5)), again)
        assert first.read_bytes() == again.read_bytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_table_matches_phi_direct(self, get_table, n):
        # phi_direct keeps the vector geometry of the defining double
        # integral, so it checks the distance form independently: at most
        # 3.9e-9 (n = 1) and 8.6e-10 (n = 2) apart over these nodes and
        # |a| <= 0.99; beyond rho = 1 its own angular rule drifts (n = 2:
        # 2.5e-7 at rho = 1.5, 8e-6 at 1.93), so the nodes stop at 0.8125
        cases = [(0.0, i) for i in (0, 16, 32, 48, 64, 80, 96, 104)]
        cases += [(a, 64) for a in (-0.99, -0.5, 0.5, 0.99)]  # rho = 0.5
        for a, i in cases:
            t = get_table(n, a)
            x = np.zeros(n)
            x[0] = t.rho_grid[i]
            assert_allclose(t.phi_values[i], phi_direct(t.profile, x),
                            rtol=1e-8, err_msg=f"a={a}, rho={x[0]}")

    def test_tail_extension_continuous_at_grid_edge(self, table_n1_a0, get_table):
        # the spline meets the exterior series at rmax to rounding: 1e-15
        # over n = 1, 2 and |a| <= 0.99
        for t in (table_n1_a0, get_table(2, 0.5)):
            past = np.nextafter(t.rmax, np.inf)
            for of in (t.phi_of, t.psi_radial_of):
                assert_allclose(of(past), of(t.rmax), rtol=4e-15)

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

    @pytest.mark.parametrize("n", [1, 2])
    def test_constant_reads_table_mass(self, get_table, n):
        # the constant is its far field everywhere, so the convolution is
        # the kernel's mass in closed form: the table's own, not 1
        t = get_table(n, 0.5)
        f = make_field("constant", n, t.params.s)
        for r in (0.1, 0.5, 2.0):
            val = phi_r_convolve(t, f, np.full(n, 0.2), r)
            assert abs(val - t.mass()) <= 1e-12

    def test_residual_independent_of_radius(self, table_n1_a0):
        # for an exact solution the defect must not grow with r
        f = make_field("ball_poisson", 1, 0.5, seed=2)
        x = np.array([0.1])
        errs = [abs(phi_r_convolve(table_n1_a0, f, x, r) - f(x))
                for r in (0.05, 0.1, 0.2)]
        assert max(errs) < 5e-4


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a", [-0.5, 0.5])
@pytest.mark.parametrize("name", ["constant", "ball_poisson"])
@pytest.mark.parametrize("fn", [phi_r_convolve, gradient_of_solution],
                         ids=["phi_r_convolve", "gradient_of_solution"])
def test_far_field_stop_matches_full_integral(get_table, fn, name, a, n):
    # a ray stops where the field reaches its far constant and adds the
    # rest of the kernel mass in closed form; without far it integrates the
    # constant out to W.  The gradient is the integral over r.  Both
    # functions truncate their rays at the tail tolerance 1e-5
    table = get_table(n, a)
    f = make_field(name, n, table.params.s, seed=2)
    assert f.far is not None
    full_f = dataclasses.replace(f, far=None)
    tol = 1e-5
    for x in (np.zeros(n), np.full(n, -0.4)):
        for r in (0.05, 0.4):
            stopped = fn(table, f, x, r)
            full = fn(table, full_f, x, r)
            scale = r if fn is gradient_of_solution else 1.0
            assert np.max(np.abs(stopped - full)) * scale <= tol


class TestPsiComponent:
    # Psi^i(x) = Phi'(|x|) x_i / |x|, so these check the radial profile Phi'
    def test_zero_at_origin(self, table_n1_a0):
        assert table_n1_a0.psi_radial_of(0.0) == 0.0

    def test_matches_phi_derivative(self, table_n1_a0):
        t = table_n1_a0
        h = 1e-5
        for rho in (0.45, 1.2, 3.0):
            fd = (t.phi_of(rho + h) - t.phi_of(rho - h)) / (2.0 * h)
            assert_allclose(t.psi_radial_of(rho), fd, rtol=1e-3, atol=1e-8)

    def test_zero_integral_on_line(self, table_n1_a0):
        # Psi^1 is odd, so its line integral vanishes on any symmetric rule;
        # what can fail is Phi' itself, so it must integrate back to Phi:
        # int_0^rmax Phi' = Phi(rmax) - Phi(0)
        t = table_n1_a0
        u, w = gauss_legendre(400, (0.0, t.rmax))
        ftc = float(w @ t.psi_radial_of(u)) - (t.phi_of(t.rmax) - t.phi_of(0.0))
        assert abs(ftc) < 1e-6

    @pytest.mark.parametrize("n", [1, 2])
    def test_array_form_equals_point_calls(self, get_table, n):
        # inside the grid, at its end and on the power-law tail beyond it
        table = get_table(n, 0.0)
        rng = np.random.default_rng(3)
        rho = np.concatenate([[0.0, table.rmax], rng.uniform(0.0, 30.0, 80)])
        got = table.psi_radial_of(rho)
        assert got.shape == rho.shape and got[0] == 0.0
        want = [table.psi_radial_of(float(r)) for r in rho]
        assert all(isinstance(v, float) for v in want)
        assert np.array_equal(got, want)


# (n, a, field): affine's truncation radius W grows with the height, so its
# rows at n = 1 each get their own W within one extend call
ROWS_CASES = [(n, a, name) for n in (1, 2) for a in (-0.5, 0.5)
              for name in ("constant", "ball_poisson")] + [
    (n, -0.5, "affine") for n in (1, 2)]


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

    @pytest.mark.parametrize("n, a, name", ROWS_CASES)
    def test_rows_equal_per_row_calls_bit_for_bit(self, get_profile, n, a, name):
        # the CLI's rows: three points, each with its three radii.  At n = 1
        # v is the reflected extension.  At n = 2 an extended ball_poisson or
        # affine takes tens of seconds a row, so v is a cheap field of Z
        # there; test_extend_with_row_heights_matches_single_rows pins
        # extend's own rows
        from fracmv.extension import reflected_extension

        prof = get_profile(n, a)
        f = make_field(name, n, (1.0 - a) / 2.0, seed=1)
        if n == 1:
            v = reflected_extension(Params(n=n, a=a), f)
        else:
            def v(Z):
                return f(Z[:, :n]) * (1.0 + Z[:, -1] ** 2)
        pts = np.array([[-0.62], [-0.31], [0.0]] if n == 1
                       else [[0.0, 0.0], [0.4, 0.1], [-0.3, 0.35]])
        deltas = 1.0 - np.linalg.norm(pts, axis=1)
        x = np.repeat(pts, 3, axis=0)
        r = np.ravel(np.outer(deltas, (0.1, 0.2, 0.4)))
        got = extension_mean_value(prof, v, x, r)
        assert got.shape == (9,)
        want = [extension_mean_value(prof, v, xi, float(ri)) for xi, ri in zip(x, r)]
        assert all(isinstance(w, float) for w in want)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n, a, name", [
        (1, -0.5, "constant"), (1, -0.5, "ball_poisson"),
        (1, 0.5, "constant"), (1, 0.5, "ball_poisson"),
        (2, -0.5, "constant"), (2, -0.5, "affine")])
    def test_skipped_nodes_leave_every_bit(self, get_profile, n, a, name):
        # the CLI's rows, against v at every node where phi_r is not 0.  At
        # n = 2 an extended affine takes seconds a row, so v is its closed
        # form there: P_y has unit mass and is even, so it keeps an affine f
        from fracmv.cli import _sample
        from fracmv.extension import reflected_extension

        prof = get_profile(n, a)
        f = make_field(name, n, (1.0 - a) / 2.0, seed=1)
        if name == "affine":
            def v(Z):
                return f(Z[:, :n])
        else:
            v = reflected_extension(Params(n=n, a=a), f)
        _, pts, radii = _sample(n, 3, (0.1, 0.2, 0.4))
        x, r = np.repeat(pts, 3, axis=0), np.ravel(radii)

        def every_nonzero_node(phi, Z):
            out = phi.ravel()
            live = out != 0.0
            out[live] *= v(Z[live])
            return out

        np.testing.assert_array_equal(extension_mean_value(prof, v, x, r),
                                      _shell_sums(prof, x, r, every_nonzero_node))
        # the nodes v no longer sees hold below 1e-18 of each row's mass
        skipped = _shell_sums(prof, x, r, lambda phi, Z: np.where(
            phi < phi.max(axis=1, keepdims=True) * 2.0 ** -53, phi, 0.0).ravel())
        mass = _shell_sums(prof, x, r, lambda phi, Z: phi.ravel())
        assert np.all(skipped > 0.0) and np.all(skipped < 1e-18 * mass)


def _shell_sums(prof, x, r, g):
    """The shell rule's sum of g(phi_r, Z) on the rows (x, r), with phi_r
    formed as ``extension_mean_value`` forms it, one row of phi per row."""
    n, a = prof.n, prof.a
    X0 = np.column_stack([x, np.zeros(len(x))])
    scale = np.array([float(ri) ** -(n + 1.0 + a) for ri in r])

    def integrand(Z):
        k = len(Z) // len(X0)
        phi = np.repeat(scale, k) * prof.phi(
            (np.repeat(X0, k, axis=0) - Z) / np.repeat(r, k)[:, None])
        return g(phi.reshape(-1, k), Z)

    return integrate_ball_weighted(integrand, X0, r, a)


def _assert_spline_matches_scipy(x, y, r):
    # value and first derivative, each within 1e-15 of its largest size
    ours, ref = _CubicSpline(x, y), CubicSpline(x, y)
    for deriv in (False, True):
        expected = ref(r, int(deriv))
        assert np.max(np.abs(ours(r, deriv) - expected)) <= (
            1e-15 * np.max(np.abs(expected)))


def _assert_integral_matches_scipy(x, y):
    # power 0 against scipy's exact integral, power 1 against 3 Gauss nodes
    # on each piece, which are exact for r times a cubic; each within 1e-14
    # of the integral of the absolute integrand
    ours, ref = _CubicSpline(x, y), CubicSpline(x, y)
    r, w = gauss_legendre(3, x)
    for power, expected in ((0, ref.integrate(x[0], x[-1])),
                            (1, w @ (r * ref(r)))):
        size = w @ np.abs(r ** power * ref(r))
        assert abs(ours.integral(power) - expected) <= 1e-14 * size


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

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_integral_on_few_nodes(self, size):
        x = np.array([0.0, 0.3, 1.1, 2.0])[:size]
        y = np.array([1.0, -0.5, 0.25, 2.0])[:size]
        _assert_integral_matches_scipy(x, y)

    @pytest.mark.parametrize("n", [1, 2])
    def test_integral_on_default_grid(self, get_table, n):
        t = get_table(n, 0.0)
        for values in (t.phi_values, t.psi_profile):
            _assert_integral_matches_scipy(t.rho_grid, values)

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


def _domination_fields(table):
    """A smooth field and an s-harmonic one for the maximal-domination row."""
    n, s = table.params.n, table.params.s
    return [make_field("gaussian", n, s), make_field("ball_poisson", n, s, seed=1)]


class TestRows:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", ["constant", "ball_poisson", "gaussian",
                                      "affine"])
    def test_rows_equal_per_point_calls_bit_for_bit(self, get_table, name, n):
        # each row has its own |x| and radius, so its own truncation radius
        # W: affine's W grows with both, and every gradient's with |f(x)|;
        # at n = 2 the 7 rows span two ray blocks, and |x| = 4 lies past
        # ball_poisson's far radius 3.3
        table = get_table(n, -0.5)
        f = make_field(name, n, table.params.s, seed=1)
        x = np.linspace(-0.6, 0.9, 7 * n).reshape(7, n)
        x[-1] = 4.0 / math.sqrt(n)
        r = np.array([0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 0.3])
        conv = phi_r_convolve(table, f, x, r)
        grad = gradient_of_solution(table, f, x, r)
        assert conv.shape == (7,) and grad.shape == (7, n)
        for xi, ri, c, g in zip(x, r, conv, grad):
            assert c == phi_r_convolve(table, f, xi, ri)
            np.testing.assert_array_equal(g, gradient_of_solution(table, f, xi, ri))
        # one radius for every row
        np.testing.assert_array_equal(
            gradient_of_solution(table, f, x, 0.1),
            [gradient_of_solution(table, f, xi, 0.1) for xi in x])

    @pytest.mark.parametrize("fn", [phi_r_convolve, gradient_of_solution],
                             ids=["phi_r_convolve", "gradient_of_solution"])
    def test_rejects_a_point_of_the_wrong_length(self, table_n1_a0, fn):
        f = make_field("gaussian", 1, 0.5)
        with pytest.raises(ValueError, match="got shape"):
            fn(table_n1_a0, f, np.array([0.1, 0.2, 0.3]), 0.1)

    def test_maximal_domination_makes_one_engine_call_per_field_and_point(
            self, table_n1_a0, engine_calls):
        verify_kernel_properties(table_n1_a0, _domination_fields(table_n1_a0))
        # two fields at x = 0 and x = 0.3, five radii each
        assert [len(rows) for rows in engine_calls] == [5, 5, 5, 5]


class TestPropertyReport:
    def test_radial_symmetry_fails_a_node_off_by_1e7(self, table_n1_a0):
        # the table's node at rho = 0.5 against phi_direct at +-0.5: 1.0e-9
        # apart, and 9.9e-8 once the node is scaled by 1 + 1e-7
        t = table_n1_a0
        assert t.rho_grid[64] == 0.5
        phi = t.phi_values.copy()
        phi[64] *= 1.0 + 1e-7
        for table, passed in ((t, True),
                              (dataclasses.replace(t, phi_values=phi), False)):
            row, = [c for c in verify_kernel_properties(table, []).checks
                    if c.name == "radial_symmetry"]
            assert row.passed is passed
        assert 9e-8 < row.measured < 1.1e-7

    def test_unit_mass_fails_with_the_power_law_tail(self, get_table, monkeypatch):
        # the tail the series replaced, Phi(rmax) (rho/rmax)^-(n+1-a), leaves
        # a mass residual of 1.1e-5 at n = 1, a = 0.5
        t = get_table(1, 0.5)
        monkeypatch.setattr(fracmv.kernel._ExteriorSeries, "tail_mass",
                            lambda self, R: t.phi_values[-1] * R / 0.5)
        row, = [c for c in verify_kernel_properties(t, []).checks
                if c.name == "unit_mass"]
        assert not row.passed and row.measured > 1e-6

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("a", [-0.99, -0.9, -0.5, 0.0, 0.5, 0.9, 0.99])
    def test_series_seam_passes_on_default_tables(self, get_table, a, n):
        # the distance form and the exterior series meet on the 31 nodes in
        # (3/4, 1) to 1.9e-12 (Phi) and 4.2e-11 (Phi'), both worst at n = 2,
        # a = -0.99, and to 3e-14 at a = 0
        report = verify_kernel_properties(get_table(n, a), [])
        row, = [c for c in report.checks if c.name == "series_seam"]
        assert row.measured < 5e-11 and row.detail == "nodes=31"
        # every row passes but maximal_domination, which has no field here
        assert [c.name for c in report.checks if not c.passed] == [
            "maximal_domination"]

    def test_series_seam_fails_phi_nodes_off_by_1e8(self, table_n1_a0):
        t = table_n1_a0
        phi = t.phi_values.copy()
        phi[(t.rho_grid > 0.75) & (t.rho_grid < 1.0)] *= 1.0 + 1e-8
        row, = [c for c in verify_kernel_properties(
            dataclasses.replace(t, phi_values=phi), []).checks
            if c.name == "series_seam"]
        assert not row.passed and 0.9e-8 < row.measured < 1.1e-8

    def test_series_seam_fails_a_series_derivative_off_by_1e6(self, table_n1_a0,
                                                              monkeypatch):
        real = fracmv.kernel._ExteriorSeries.dphi
        monkeypatch.setattr(fracmv.kernel._ExteriorSeries, "dphi",
                            lambda self, rho: real(self, rho) * (1.0 + 1e-6))
        row, = [c for c in verify_kernel_properties(table_n1_a0, []).checks
                if c.name == "series_seam"]
        assert not row.passed and 0.9e-6 < row.measured < 1.1e-6

    def test_series_seam_reads_nan_with_no_node_in_range(self):
        # the nodes below 1 are 0, 1/4, 1/2 and 3/4
        t = build_table(Params(n=1, a=0.0), {"dense_points": 9, "geo_points": 4})
        row, = [c for c in verify_kernel_properties(t, []).checks
                if c.name == "series_seam"]
        assert not row.passed and math.isnan(row.measured)
        assert row.detail == "nodes=0"

    def test_maximal_domination_reads_nan_with_no_field(self, table_n1_a0):
        # with no field nothing was measured, so the row cannot pass
        row, = [c for c in verify_kernel_properties(table_n1_a0, []).checks
                if c.name == "maximal_domination"]
        assert not row.passed and math.isnan(row.measured)

    def test_gradient_zero_mean_fails_a_derivative_off_by_1e6(self, table_n1_a0):
        # the Phi' spline scaled by 1 + 1e-6 misses Phi(rmax) - Phi(0) by
        # 4.0e-7, above 1e-8 and far below the old 1e-4
        t = dataclasses.replace(table_n1_a0,
                                psi_profile=table_n1_a0.psi_profile * (1.0 + 1e-6))
        row, = [c for c in verify_kernel_properties(t, []).checks
                if c.name == "gradient_zero_mean"]
        assert not row.passed and 3e-7 < row.measured < 5e-7

    def test_full_report_passes(self, table_n1_a0):
        report = verify_kernel_properties(table_n1_a0,
                                          _domination_fields(table_n1_a0))
        failing = [c.name for c in report.checks if not c.passed]
        assert report.passed, f"failing checks: {failing}"

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.5])
    def test_gradient_zero_mean_reads_the_table(self, get_table, n, a):
        # the Phi' spline integrated exactly meets Phi(rmax) - Phi(0) to
        # 4.7e-10..1.2e-9; an 800-node Gauss rule on [0, rmax] read 9.3e-8
        # at n = 1, a = -0.5, its own error rather than the table's
        report = verify_kernel_properties(get_table(n, a), [])
        row, = [c for c in report.checks if c.name == "gradient_zero_mean"]
        assert row.measured < 2e-9

    def test_report_rows_have_expected_shape(self, table_n1_a0):
        report = verify_kernel_properties(table_n1_a0,
                                          _domination_fields(table_n1_a0))
        rows = list(report.rows())
        assert len(rows) == len(report.checks) == 6
        for name, status, measured, threshold, _ in rows:
            assert status in ("pass", "fail")
            float(measured), float(threshold)

    def test_readme_table_names_every_row(self, table_n1_a0):
        # the README's table of the rows, up to the first line past it
        lines = README.read_text().splitlines()
        start = lines.index("| row | what it compares | fails when |")
        names = []
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            names.append(line.split("|")[1].strip().strip("`"))
        assert names == [c.name for c in
                         verify_kernel_properties(table_n1_a0, []).checks]


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
