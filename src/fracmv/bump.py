"""Radial bump profile and its primitives.

The profile is the smooth bump eta supported in [1/4, 3/4], normalized so
that the full-space integral of phi(X) = kappa * eta(|X|) against |y|^a is
one.  zeta is the running first moment of eta shifted to vanish beyond the
support, and psi(X) = zeta(|X|) is the compactly supported potential whose
gradient is phi(X) * X.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# integrate_ball_weighted is no longer called here, but perfbench/trace.py
# requires the fracmv.bump binding to exist so it can wrap it
from .quadrature import SHELL, gauss_legendre, integrate_ball_weighted  # noqa: F401

__all__ = ["BumpProfile", "eta_raw", "eta_raw_prime", "normalize"]

SUPPORT_LO, SUPPORT_HI = SHELL


def eta_raw(rho):
    """Unnormalized bump exp(-1/((rho-1/4)(3/4-rho))) on (1/4, 3/4), else 0."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = (rho > SUPPORT_LO) & (rho < SUPPORT_HI)
    r = rho[inside]
    g = (r - SUPPORT_LO) * (SUPPORT_HI - r)
    out[inside] = np.exp(-1.0 / g)
    return out


def eta_raw_prime(rho):
    """Derivative of ``eta_raw``; identically 0 outside the open support."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = (rho > SUPPORT_LO) & (rho < SUPPORT_HI)
    r = rho[inside]
    g = (r - SUPPORT_LO) * (SUPPORT_HI - r)
    gp = (SUPPORT_HI - r) - (r - SUPPORT_LO)
    out[inside] = np.exp(-1.0 / g) * gp / (g * g)
    return out


@dataclass(frozen=True)
class BumpProfile:
    """Normalized radial test profile for dimension ``n`` and exponent ``a``.

    ``kappa`` scales the raw bump so the weighted integral of phi over
    R^{n+1} equals one; ``A`` is the first moment of the normalized eta.
    """

    n: int
    a: float
    kappa: float
    A: float

    def eta(self, rho):
        rho = np.asarray(rho, dtype=float)
        if np.any(rho < 0):
            raise ValueError("rho must be nonnegative")
        return self.kappa * eta_raw(rho)

    def phi(self, X):
        """phi(X) = kappa * eta_raw(|X|) for points X of shape (m, n+1)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.kappa * eta_raw(np.linalg.norm(X, axis=-1))

    def zeta(self, t):
        """Running moment: integral of rho*eta over [0, t], minus A."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("t must be nonnegative")
        # one 60-node rule on (1/4, min(t, 3/4)) for every t at once; it
        # has zero width where t <= 1/4
        hi = np.clip(t, SUPPORT_LO, SUPPORT_HI)[..., None]
        x, w = gauss_legendre(60, (-1.0, 1.0))
        half = 0.5 * (hi - SUPPORT_LO)
        u = 0.5 * (hi + SUPPORT_LO) + half * x
        out = self.kappa * ((half * w) * (u * eta_raw(u))).sum(axis=-1) - self.A
        return float(out) if t.ndim == 0 else out

    def psi(self, X):
        """psi(X) = zeta(|X|); compactly supported in the unit ball."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.zeta(np.linalg.norm(X, axis=-1))

    def grad_psi(self, X):
        """Gradient of psi in closed form: phi(X) * X."""
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        X2 = np.atleast_2d(X)
        out = self.phi(X2)[:, None] * X2
        return out[0] if single else out


def normalize(n: int, a: float) -> BumpProfile:
    """Build the profile with kappa fixed by the weighted unit-mass condition.

    In polar coordinates the weighted mass of eta(|X|) over R^{n+1} is the
    radial moment int eta(rho) rho^{n+a} drho times the weighted sphere area
    int_{S^n} |omega_{n+1}|^a = 2 pi^{n/2} Gamma((a+1)/2) / Gamma((n+1+a)/2),
    a closed form; one Gauss rule on the support gives both moments.
    """
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    if not -1.0 < a < 1.0:
        raise ValueError(f"a must lie in (-1, 1), got {a}")

    u, w = gauss_legendre(80, (SUPPORT_LO, SUPPORT_HI))
    eta = eta_raw(u)
    sphere = 2.0 * math.pi ** (n / 2.0) * math.gamma((a + 1.0) / 2.0) \
        / math.gamma((n + 1.0 + a) / 2.0)
    kappa = float(1.0 / (sphere * (w @ (eta * u ** (n + a)))))
    A = float(kappa * (w @ (u * eta)))
    return BumpProfile(n=n, a=a, kappa=kappa, A=A)
