"""Print the pinned Phi and Phi' references of tests/test_kernel_references.py.

Usage:
    python tests/make_kernel_references.py > references.txt

Needs mpmath only; it shares no code with fracmv.  Each value comes from
the r-form of the kernel,

    Phi_g(rho) = kappa int_{1/4}^{3/4} g(r) r^a h(rho/r) dr,

with the closed forms of h (C is the extension Poisson constant)

    n = 1:  h(t) = 2C ((1+t)^a - |1-t|^a) / (a t),  2C log((1+t)/|1-t|) / t at a = 0
    n = 2:  h(t) = 2 pi C (1+t)^-(3-a) 2F1((3-a)/2, 3/2; 3; 4t/(1+t)^2),

Phi = Phi_eta and Phi' = ((1+a) Phi_eta + Phi_{r eta'}) / rho; at rho = 0,
Phi = h(0) kappa int eta r^a dr and Phi' = 0.  h behaves
like |1-t|^a at t = 1, so where rho lies inside the support the integral is
split at r = rho, and for a < 0 each side is taken in u = |r - rho|^(1+a),
which removes that factor.  |1-t| is passed to h computed from u, never as
1 - rho/r, and at n = 2 near t = 1 the hypergeometric function is taken in
w = 1 - z by its connection formula (a != 0) or its logarithmic series
(a = 0), since 2F1 itself is infinite at z = 1 for a <= 0.
"""
import mpmath as mp

mp.mp.dps = 40
DIGITS = 30
LO, HI = mp.mpf(1) / 4, mp.mpf(3) / 4
A_VALUES = (-0.99, -0.5, 0.0, 0.5, 0.99)
RHO_VALUES = (0.0, 2 / 256, 0.1, 0.2499, 0.2501, 0.5, 0.7499, 0.7501, 1.3, 16.0)


def eta(r):
    # the substituted end points can round just outside the support
    if not LO < r < HI:
        return mp.mpf(0)
    return mp.exp(-1 / ((r - LO) * (HI - r)))


def r_eta_prime(r):
    if not LO < r < HI:
        return mp.mpf(0)
    g = (r - LO) * (HI - r)
    return r * eta(r) * ((HI - r) - (r - LO)) / g ** 2


def poisson_constant(n, a):
    return mp.gamma((n + 1 - a) / 2) / (mp.pi ** (mp.mpf(n) / 2) * mp.gamma((1 - a) / 2))


def kappa(n, a):
    sphere = 2 * mp.pi ** (mp.mpf(n) / 2) * mp.gamma((a + 1) / 2) / mp.gamma((n + 1 + a) / 2)
    moment = mp.quad(lambda r: eta(r) * r ** (n + a), [LO, mp.mpf(1) / 2, HI])
    return 1 / (sphere * moment)


def hyp_near_one(a, w):
    """2F1((3-a)/2, 3/2; 3; 1 - w) from w, for 0 < w <= 1/2."""
    A, B = (3 - a) / 2, mp.mpf(3) / 2
    if a != 0:
        # c - A - B = a/2 is not an integer
        first = mp.gamma(3) * mp.gamma(a / 2) / (mp.gamma(3 - A) * mp.gamma(3 - B)) \
            * mp.hyp2f1(A, B, 1 - a / 2, w)
        second = w ** (a / 2) * mp.gamma(3) * mp.gamma(-a / 2) / (mp.gamma(A) * mp.gamma(B)) \
            * mp.hyp2f1(3 - A, 3 - B, 1 + a / 2, w)
        return first + second
    # A + B = c: Abramowitz and Stegun 15.3.10
    total, coef, k = mp.mpf(0), mp.mpf(1), 0
    psi1, psiA, psiB = mp.digamma(1), mp.digamma(A), mp.digamma(B)
    while True:
        term = coef * (2 * psi1 - psiA - psiB - mp.log(w)) * w ** k
        total += term
        if abs(term) < mp.eps * abs(total):
            break
        coef *= (A + k) * (B + k) / (k + 1) ** 2
        psi1 += mp.mpf(1) / (k + 1)
        psiA += 1 / (A + k)
        psiB += 1 / (B + k)
        k += 1
    return mp.gamma(A + B) / (mp.gamma(A) * mp.gamma(B)) * total


def h(n, a, C, t, s):
    """h(t) with s = |1 - t| given separately, so it keeps its digits."""
    if n == 1:
        if a == 0:
            return 2 * C * (mp.log(1 + t) - mp.log(s)) / t
        return 2 * C * ((1 + t) ** a - s ** a) / (a * t)
    z = 4 * t / (1 + t) ** 2
    w = (s / (1 + t)) ** 2  # 1 - z
    F = mp.hyp2f1((3 - a) / 2, mp.mpf(3) / 2, 3, z) if w > mp.mpf(1) / 2 \
        else hyp_near_one(a, w)
    return 2 * mp.pi * C * (1 + t) ** -(3 - a) * F


def h_by_sphere(n, a, C, t):
    """h(t) = C int_{S^n} |omega_y| (1 + t^2 - 2 t omega_1)^-((n+1-a)/2)."""
    p = (n + 1 - a) / 2
    if n == 1:
        return 2 * C * mp.quad(lambda th: mp.sin(th) * (1 + t * t - 2 * t * mp.cos(th)) ** -p,
                               [0, mp.pi])
    return 4 * C * mp.quad(lambda x: mp.sqrt(1 - x * x) * (1 + t * t - 2 * t * x) ** -p,
                           [-1, 1])


def phi_g(n, a, C, k, rho, g):
    """kappa int g(r) r^a h(rho/r) dr, split at r = rho inside the support.

    A substitution u = dist^p with p = 1 + a for a < 0 makes the integrand
    bounded; for a >= 0 it is integrable as it stands (p = 1).
    """
    def plain(r):
        return g(r) * r ** a * h(n, a, C, rho / r, abs(r - rho) / r)

    cuts = [LO + j * (HI - LO) / 8 for j in range(9)]
    if not LO < rho < HI:
        return k * mp.quad(plain, cuts)
    p = 1 + min(a, 0)
    total = mp.mpf(0)
    for sign, edge in ((-1, LO), (1, HI)):
        inner = sorted({abs(c - rho) for c in cuts if (c - rho) * sign > 0} | {abs(edge - rho)})

        def f(u, sign=sign):
            dist = u ** (1 / p)
            r = rho + sign * dist
            # dr = dist / (p u) du; the factor dist^a of h cancels u^(-a/p)
            return g(r) * r ** a * h(n, a, C, rho / r, dist / r) * dist / (p * u)

        total += mp.quad(f, [mp.mpf(0)] + [x ** p for x in inner])
    return k * total


def self_check():
    """The closed forms of h against the sphere integral, to 1e-25."""
    for n in (1, 2):
        for a in map(mp.mpf, A_VALUES):
            C = poisson_constant(n, a)
            for t in map(mp.mpf, ("0.3", "0.8", "0.999", "1.001", "1.5", "7")):
                want = h_by_sphere(n, a, C, t)
                got = h(n, a, C, t, abs(1 - t))
                assert abs(got - want) <= mp.mpf("1e-25") * abs(want), (n, a, t, got, want)


def main():
    self_check()
    print("REFERENCES = {")
    for n in (1, 2):
        for a_float in A_VALUES:
            a = mp.mpf(a_float)
            C, k = poisson_constant(n, a), kappa(n, a)
            print(f"    ({n}, {a_float!r}): [  # rho, Phi, Phi'")
            for rho_float in RHO_VALUES:
                rho = mp.mpf(rho_float)
                if rho == 0:
                    h0 = h_by_sphere(n, a, C, mp.mpf(0))
                    phi = k * h0 * mp.quad(lambda r: eta(r) * r ** a, [LO, mp.mpf(1) / 2, HI])
                    dphi = mp.mpf(0)
                else:
                    phi = phi_g(n, a, C, k, rho, eta)
                    dphi = ((1 + a) * phi + phi_g(n, a, C, k, rho, r_eta_prime)) / rho
                print(f'        ({rho_float!r}, "{mp.nstr(phi, DIGITS)}", '
                      f'"{mp.nstr(dphi, DIGITS)}"),', flush=True)
            print("    ],")
    print("}")


if __name__ == "__main__":
    main()
