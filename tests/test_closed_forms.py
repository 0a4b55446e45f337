"""The three normalizing constants against 50-digit mpmath references.

Each reference is built from the defining integral rather than from the
closed form the code uses: Beta functions for the radial Poisson masses and
the weighted sphere area, and mp.quad for the bump moment.
"""
import pytest
from mpmath import mp

from fracmv.bump import normalize
from fracmv.extension import poisson_constant
from fracmv.fraclap import Params, _ball_poisson_normalizer

CASES = [(n, a) for n in (1, 2) for a in (-0.99, -0.9, -0.5, 0.0, 0.5, 0.9)]


def _sphere(n):
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)."""
    return 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)


def _rel(value, ref):
    return float(abs((mp.mpf(value) - ref) / ref))


@pytest.mark.parametrize("n,a", CASES)
def test_poisson_constant(n, a):
    # unit mass at y = 1: |S^{n-1}| int_0^inf rho^{n-1} (1+rho^2)^{-(n+1-a)/2}
    # = |S^{n-1}| B(n/2, (1-a)/2) / 2
    with mp.workdps(50):
        am = mp.mpf(a)
        ref = 1 / (_sphere(n) * mp.beta(mp.mpf(n) / 2, (1 - am) / 2) / 2)
        assert _rel(poisson_constant(n, a), ref) <= 1e-14


@pytest.mark.parametrize("n,a", CASES)
def test_ball_poisson_normalizer(n, a):
    # unit mass at the center of B(0, 1): |S^{n-1}| int_1^inf
    # (rho^2-1)^{-s}/rho drho = |S^{n-1}| B(s, 1-s) / 2
    s = Params.from_a(n, a).s
    with mp.workdps(50):
        sm = mp.mpf(s)
        ref = 1 / (_sphere(n) * mp.beta(sm, 1 - sm) / 2)
        assert _rel(_ball_poisson_normalizer(n, s), ref) <= 1e-14


@pytest.mark.parametrize("n,a", CASES)
def test_profile_kappa(n, a):
    # weighted mass of eta(|X|) over R^{n+1}: the radial moment of
    # eta rho^{n+a} times int_{S^n} |omega_{n+1}|^a = |S^{n-1}| B((a+1)/2, n/2)
    with mp.workdps(50):
        am = mp.mpf(a)
        lo, hi = mp.mpf(1) / 4, mp.mpf(3) / 4
        moment = mp.quad(
            lambda r: mp.exp(-1 / ((r - lo) * (hi - r))) * r ** (n + am),
            [lo, mp.mpf(1) / 2, hi])
        weighted_sphere = _sphere(n) * mp.beta((am + 1) / 2, mp.mpf(n) / 2)
        ref = 1 / (moment * weighted_sphere)
        assert _rel(normalize(n, a).kappa, ref) <= 1e-14

