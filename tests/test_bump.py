import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracmv.bump import SUPPORT_HI, SUPPORT_LO, eta_raw, eta_raw_prime, normalize
from fracmv.quadrature import gauss_legendre, integrate_ball_weighted
from oracles import adaptive_simpson, first_moment, psi, zeta


@pytest.mark.parametrize("rho", [0.0, 0.2, 0.25, 0.75, 0.9, 3.0])
def test_eta_zero_outside_support(rho, get_profile):
    assert get_profile(1, 0.0).phi(np.array([rho, 0.0]))[0] == 0.0


def test_eta_midpoint_value(get_profile):
    prof = get_profile(1, 0.0)
    assert_allclose(prof.phi(np.array([0.3, 0.4]))[0],
                    prof.kappa * math.exp(-16.0), rtol=1e-14)


def test_eta_smooth_at_support_endpoints():
    # first three finite-difference derivatives tend to zero approaching the
    # endpoints from inside
    for edge, sign in ((0.25, 1.0), (0.75, -1.0)):
        for h in (1e-2, 5e-3):
            rho = edge + sign * 4.0 * h
            vals = eta_raw(rho + sign * h * np.arange(-2, 3))
            d1 = (vals[3] - vals[1]) / (2 * h)
            d2 = (vals[3] - 2 * vals[2] + vals[1]) / h ** 2
            d3 = (vals[4] - 2 * vals[3] + 2 * vals[1] - vals[0]) / (2 * h ** 3)
            for d in (d1, d2, d3):
                assert abs(d) < 1e-4


@pytest.mark.parametrize("n,a", [(1, 0.0), (1, 0.5), (1, -0.5), (2, 0.0)])
def test_normalized_weighted_mass_is_one(n, a, get_profile):
    prof = get_profile(n, a)
    mass = integrate_ball_weighted(prof.phi, np.zeros(n + 1), 1.0, a)
    assert_allclose(mass, 1.0, atol=1e-10)


def test_kappa_against_adaptive_oracle(get_profile):
    # n=1, a=0: mass of the raw bump is the polar integral
    # 2*pi*int rho*eta_raw(rho) drho
    # the bump tops out at e^-16, so rescale before integrating to keep the
    # oracle's absolute tolerance meaningful relative to the value
    lift = math.exp(16.0)
    raw_mass = 2.0 * math.pi / lift * adaptive_simpson(
        lambda t: lift * t * float(eta_raw(t)), 0.25, 0.75, 1e-13)
    assert_allclose(get_profile(1, 0.0).kappa, 1.0 / raw_mass, rtol=1e-8)


def test_kappa_depends_on_weight(get_profile):
    assert get_profile(1, 0.5).kappa != get_profile(1, -0.5).kappa


def test_normalize_validates_arguments():
    with pytest.raises(ValueError):
        normalize(3, 0.0)
    with pytest.raises(ValueError):
        normalize(1, 1.5)


def test_zeta_plateaus(get_profile):
    prof = get_profile(1, 0.0)
    A = first_moment(prof)
    assert_allclose(zeta(prof, 0.2), -A, rtol=1e-12)
    assert_allclose(zeta(prof, 0.0), -A, rtol=1e-12)
    assert abs(zeta(prof, 1.0)) < 1e-10
    assert abs(zeta(prof, 0.75)) < 1e-10


def test_zeta_strictly_between_on_support(get_profile):
    prof = get_profile(1, 0.0)
    mid = zeta(prof, 0.5)
    assert -first_moment(prof) < mid < 0.0


def test_zeta_nondecreasing(get_profile):
    prof = get_profile(1, 0.0)
    ts = np.linspace(0.0, 1.0, 41)
    vals = zeta(prof, ts)
    assert np.all(np.diff(vals) >= -1e-14)


@pytest.mark.parametrize("n,a", [(1, 0.0), (2, -0.5)])
def test_zeta_array_matches_per_point_rule(get_profile, n, a):
    # reference: the 60-node rule on (1/4, min(t, 3/4)), one t at a time;
    # the array form sums the same products in another order, so it agrees
    # within 1e-15 of A, the scale of zeta
    prof = get_profile(n, a)
    A = first_moment(prof)
    ts = np.concatenate([np.linspace(0.0, 1.0, 201), [0.25, 0.75, 2.0]])
    loop = np.full(ts.shape, -A)
    for i, t in enumerate(ts):
        hi = min(t, SUPPORT_HI)
        if hi > SUPPORT_LO:
            u, w = gauss_legendre(60, (SUPPORT_LO, hi))
            loop[i] += prof.kappa * float(w @ (u * eta_raw(u)))
    assert_allclose(zeta(prof, ts), loop, rtol=0.0, atol=1e-15 * A)
    assert zeta(prof, 0.5) == zeta(prof, np.array([0.5]))[0]


def _psi_central_differences(prof, X, h):
    fd = np.empty(len(X))
    for j in range(len(X)):
        e = np.zeros(len(X))
        e[j] = h
        fd[j] = (psi(prof, X + e) - psi(prof, X - e))[0] / (2.0 * h)
    return fd


def test_grad_psi_zero_cases(get_profile):
    # psi is constant below the support and beyond it
    prof = get_profile(1, 0.0)
    assert_allclose(_psi_central_differences(prof, np.zeros(2), 1e-5),
                    np.zeros(2))
    X = 0.9 * np.array([math.cos(0.3), math.sin(0.3)])
    assert_allclose(_psi_central_differences(prof, X, 1e-5), np.zeros(2))


@pytest.mark.parametrize("n,a", [(1, 0.0), (1, 0.5), (2, -0.5)])
def test_grad_psi_matches_central_differences(n, a, get_profile):
    # grad psi = phi(X) X
    prof = get_profile(n, a)
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(20):
        X = rng.uniform(-0.8, 0.8, size=n + 1)
        grad = prof.phi(X)[0] * X
        fd = _psi_central_differences(prof, X, h)
        scale = max(np.linalg.norm(grad), 1e-3)
        assert np.linalg.norm(grad - fd) / scale < 1e-6


def test_phi_even_in_y(get_profile):
    prof = get_profile(2, 0.5)
    pts = np.array([[0.3, 0.1, 0.2], [0.3, 0.1, -0.2]])
    vals = prof.phi(pts)
    assert vals[0] == vals[1]


def test_eta_raw_prime_matches_eta_raw():
    ts = np.linspace(0.26, 0.74, 25)
    h = 1e-6
    fd = (eta_raw(ts + h) - eta_raw(ts - h)) / (2.0 * h)
    assert_allclose(eta_raw_prime(ts), fd, rtol=1e-6, atol=1e-12)
