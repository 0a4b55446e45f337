"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Parameter matrix: n in {1, 2} and a in {-0.5, 0, 0.5}.  The normalization,
gradient-identity, and determinism criteria run on the full matrix; the
field-based suites run on all three a for n = 1 plus a = 0 for n = 2, and
the smoothness-ratio family study runs on the n = 1 ball (-0.6, 0.6) (the
n = 2 leg is a single smoke ratio).  Kernel tables are session-cached.
"""
import math

import numpy as np

from fracmv.analysis import (BallFamily, Domain, gradient_sharp_ratio,
                             weighted_gradient_besov_ratio)
from fracmv.cli import _interior_points
from fracmv.extension import poisson_constant, reflected_extension
from fracmv.fraclap import Params, make_field
from fracmv.kernel import (build_table, extension_mean_value, phi_r_convolve,
                           read_table, verify_kernel_properties, write_table)
from fracmv.quadrature import integrate_ball_weighted
from oracles import adaptive_simpson, frac_lap, poisson_kernel, psi

FULL_MATRIX = [(1, -0.5), (1, 0.0), (1, 0.5),
               (2, -0.5), (2, 0.0), (2, 0.5)]
CORE_MATRIX = [(1, -0.5), (1, 0.0), (1, 0.5), (2, 0.0)]


def _report(num: int, name: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def _domain(n: int) -> Domain:
    return Domain.ball(np.zeros(n), 1.0)


def _poisson_mass(n: int, a: float, cut: float = 1e4) -> float:
    """Mass of P_1 by adaptive radial quadrature plus a two-term tail."""
    surf = 2.0 if n == 1 else 2.0 * math.pi
    m = 0.5 * (n + 1.0 - a)

    def radial(u):
        x = np.zeros(n)
        x[0] = u
        return poisson_kernel(n, a, x, 1.0) * u ** (n - 1)

    core = adaptive_simpson(radial, 0.0, 1.0, 1e-12) \
        + adaptive_simpson(radial, 1.0, cut, 1e-12)
    tail = poisson_constant(n, a) * (cut ** (a - 1.0) / (1.0 - a)
                                     - m * cut ** (a - 3.0) / (3.0 - a))
    return surf * (core + tail)


def test_criterion_1_normalization_chain(get_table, get_profile):
    failures = []
    for n, a in FULL_MATRIX:
        prof = get_profile(n, a)
        phi_mass = integrate_ball_weighted(prof.phi, np.zeros(n + 1), 1.0, a)
        if abs(phi_mass - 1.0) > 1e-10:
            failures.append(f"profile mass {phi_mass} at (n={n}, a={a})")
        pmass = _poisson_mass(n, a)
        if abs(pmass - 1.0) > 1e-8:
            failures.append(f"Poisson mass {pmass} at (n={n}, a={a})")
        tmass = get_table(n, a).mass()
        if abs(tmass - 1.0) > 1e-7:
            failures.append(f"table mass {tmass} at (n={n}, a={a})")
    _report(1, "normalization chain", failures)


def test_criterion_2_gradient_identity(get_profile):
    failures = []
    rng = np.random.default_rng(11)
    h = 1e-5
    for n, a in FULL_MATRIX:
        prof = get_profile(n, a)
        for _ in range(20):
            X = rng.uniform(-0.8, 0.8, size=n + 1)
            grad = prof.phi(X[None, :])[0] * X
            fd = np.empty(n + 1)
            for j in range(n + 1):
                e = np.zeros(n + 1)
                e[j] = h
                fd[j] = (psi(prof, X + e) - psi(prof, X - e))[0] / (2.0 * h)
            scale = max(np.linalg.norm(grad), 1e-3)
            if np.linalg.norm(grad - fd) / scale > 1e-6:
                failures.append(f"central differences at (n={n}, a={a}), X={X}")
                break
    _report(2, "gradient identity", failures)


def test_criterion_3_mean_value_formula(get_table):
    failures = []
    for n, a in CORE_MATRIX:
        table = get_table(n, a)
        s = table.params.s
        domain = _domain(n)
        fields = [make_field("constant", n, s)]
        if s > 0.5:
            fields.append(make_field("affine", n, s))
        fields += [make_field("ball_poisson", n, s, seed=i) for i in range(3)]
        for f in fields:
            for x in _interior_points(n):
                delta = domain.distance_to_boundary(x)
                fx = f(x)
                for r in (delta / 4.0, delta / 2.0):
                    val = phi_r_convolve(table, f, x, r, tol=5e-5)
                    if abs(val - fx) > 5e-4 * (1.0 + abs(fx)):
                        failures.append(
                            f"|res|={abs(val - fx):.2e} field="
                            f"{f.description} x={x} r={r:.3g} (n={n}, a={a})")
    _report(3, "mean value formula", failures)


def test_criterion_4_extension_formula(get_profile):
    failures = []
    for n, a in CORE_MATRIX:
        prof = get_profile(n, a)
        s = (1.0 - a) / 2.0
        domain = _domain(n)

        # closed-form solutions of the extension equation: a constant, and
        # the quadratic |x|^2 - n y^2/(1+a) (even in y, degenerate-harmonic
        # for every a); plus a numerically extended s-harmonic sample where
        # the nested quadrature is affordable.  Its budget: the worst
        # recovery is 4.7e-7 (1 + |f|) and the worst spread 2.3e-7, both at
        # a = 0.5, where extend without kink breaks gave 7.1e-6 and 1.0e-5
        cases = [
            ("constant", lambda Z: np.ones(len(np.atleast_2d(Z))),
             lambda x: 1.0, 5e-4),
            ("quadratic",
             lambda Z, c=n / (1.0 + a): (np.atleast_2d(Z)[:, :n] ** 2)
             .sum(axis=1) - c * np.atleast_2d(Z)[:, -1] ** 2,
             lambda x: float((x ** 2).sum()), 5e-4),
        ]
        if n == 1:
            f = make_field("ball_poisson", n, s, seed=0)
            ext = reflected_extension(Params(n=n, a=a), f)
            cases.append(("ball_poisson", ext, lambda x, f=f: f(x), 1e-6))

        for name, v, boundary, bound in cases:
            for x in _interior_points(n, count=3):
                x = np.atleast_1d(x)
                delta = domain.distance_to_boundary(x)
                fx = boundary(x)
                vals = [extension_mean_value(prof, v, x, frac * delta)
                        for frac in (0.1, 0.2, 0.4)]
                for val in vals:
                    if abs(val - fx) > bound * (1.0 + abs(fx)):
                        failures.append(
                            f"recovery {abs(val - fx):.2e} {name} x={x} "
                            f"(n={n}, a={a})")
                spread = max(vals) - min(vals)
                if spread > bound:
                    failures.append(f"spread {spread:.2e} {name} x={x} "
                                    f"(n={n}, a={a})")

    # a field extended numerically at n = 2: the constant, through
    # reflected_extension, at one point and its three radii
    prof = get_profile(2, 0.0)
    v = reflected_extension(Params(n=2, a=0.0), make_field("constant", 2, 0.5))
    x = np.array([0.4, 0.1])
    delta = _domain(2).distance_to_boundary(x)
    for frac in (0.1, 0.2, 0.4):
        err = abs(extension_mean_value(prof, v, x, frac * delta) - 1.0)
        if err > 1e-8:
            failures.append(f"recovery {err:.2e} extended constant x={x} "
                            f"r={frac * delta:.3g} (n=2, a=0.0)")
    _report(4, "extension formula", failures)


def test_criterion_5_kernel_property_suite(get_table):
    failures = []
    for n, a in CORE_MATRIX:
        table = get_table(n, a)
        s = table.params.s
        fields = [make_field("gaussian", n, s),
                  make_field("ball_poisson", n, s, seed=1)]
        report = verify_kernel_properties(table, fields)
        for check in report.checks:
            if not check.passed:
                failures.append(f"{check.name} measured={check.measured:.3e} "
                                f"(n={n}, a={a})")
    _report(5, "kernel property suite", failures)


def test_criterion_6_oracle_independence():
    failures = []
    for n, a in CORE_MATRIX:
        s = (1.0 - a) / 2.0
        for seed in range(3):
            f = make_field("ball_poisson", n, s, seed=seed)
            for x in _interior_points(n):
                val = frac_lap(f, np.atleast_1d(x) * 0.7, s, tol=1e-4)
                if abs(val) > 5e-4 * f.scale:
                    failures.append(f"frac_lap {val:.2e} seed={seed} x={x} "
                                    f"(n={n}, a={a})")
        g = make_field("gaussian", n, s)
        peak = frac_lap(g, np.zeros(n), s, tol=1e-4)
        if peak < 0.0:
            failures.append(f"negative at gaussian maximum (n={n}, a={a})")
    _report(6, "oracle independence", failures)


def test_criterion_7_gradient_sharp_surrogate(get_table):
    failures = []
    for n, a in CORE_MATRIX:
        table = get_table(n, a)
        s = table.params.s
        domain = _domain(n)
        grid = _interior_points(n, count=3)
        seeds = (0, 1) if n == 1 else (0,)
        family = BallFamily(r_min=1e-2, r_max=4.0,
                            resolution=48 if n == 1 else 16)
        for seed in seeds:
            f = make_field("ball_poisson", n, s, seed=seed)
            for lam in (0.3, 0.5):
                rows = gradient_sharp_ratio(table, f, domain, lam, grid,
                                            (0.5, 0.125), family=family,
                                            field_id=f"bp{seed}")
                maxima = {r.r: r.value for r in rows
                          if r.kind == "ratio_max_over_grid"}
                if maxima[0.125] > 4.0 * maxima[0.5] + 1e-12:
                    failures.append(
                        f"band {maxima[0.125]:.3g} > 4 x {maxima[0.5]:.3g} "
                        f"seed={seed} lam={lam} (n={n}, a={a})")
    _report(7, "gradient/sharp-maximal surrogate", failures)


def test_criterion_8_weighted_besov_family(get_table):
    failures = []
    lam, p = 0.5, 2.0
    domain = Domain.ball([0.0], 0.6)
    for a in (-0.5, 0.0, 0.5):
        table = get_table(1, a)
        s = table.params.s
        ratios = []
        for seed in range(5):
            f = make_field("ball_poisson", 1, s, seed=seed)
            row = weighted_gradient_besov_ratio(table, f, domain, lam, p,
                                                grid_count=9,
                                                field_id=f"bp{seed}")
            if not (np.isfinite(row.value) and row.value > 0.0):
                failures.append(f"ratio {row.value} seed={seed} a={a}")
            ratios.append(row.value)
        if ratios and max(ratios) > 50.0 * min(ratios):
            failures.append(f"family spread {max(ratios) / min(ratios):.1f} "
                            f"exceeds 50 at a={a}")
        f = make_field("ball_poisson", 1, s, seed=0)
        coarse = weighted_gradient_besov_ratio(table, f, domain, lam, p,
                                               grid_count=9).value
        fine = weighted_gradient_besov_ratio(table, f, domain, lam, p,
                                             grid_count=18).value
        if abs(fine - coarse) > 0.1 * coarse:
            failures.append(f"refinement drift {abs(fine - coarse) / coarse:.3f} "
                            f"at a={a}")
    # n = 2 smoke ratio: finiteness only
    table2 = get_table(2, 0.0)
    f2 = make_field("ball_poisson", 2, 0.5, seed=0)
    row2 = weighted_gradient_besov_ratio(table2, f2,
                                         Domain.ball(np.zeros(2), 0.8),
                                         lam, p, grid_count=5)
    if not np.isfinite(row2.value):
        failures.append(f"n=2 smoke ratio {row2.value}")
    _report(8, "weighted-gradient/Besov family", failures)


def test_criterion_9_determinism_and_persistence(get_table, tmp_path):
    failures = []
    coarse = {"dense_points": 33, "geo_points": 16}
    for n, a in FULL_MATRIX:
        params = Params(n=n, a=a)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        write_table(build_table(params, coarse), pa)
        write_table(build_table(params, coarse), pb)
        if pa.read_bytes() != pb.read_bytes():
            failures.append(f"rebuild not bit-identical (n={n}, a={a})")
        table = get_table(n, a)
        rp = tmp_path / "round.txt"
        write_table(table, rp)
        back = read_table(rp)
        same = (np.array_equal(back.rho_grid, table.rho_grid)
                and np.array_equal(back.phi_values, table.phi_values)
                and np.array_equal(back.psi_profile, table.psi_profile)
                and back.params == table.params
                and back.build_meta == table.build_meta)
        if not same:
            failures.append(f"round trip not bit-exact (n={n}, a={a})")
    _report(9, "determinism and persistence", failures)
