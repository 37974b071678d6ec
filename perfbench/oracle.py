"""Reference values that share no code with coulombstar's series.

g comes from the Kummer identity

    g(z) = z e^{-iz} 1F1(L + 1 - i eta; 2L + 2; 2iz)

evaluated by mpmath at 30 digits; g' uses the contiguous relation
d/dx 1F1(a; b; x) = (a/b) 1F1(a + 1; b + 1; x), and g'' follows from the
Coulomb equation z^2 g'' + 2 L z g' + (z^2 - 2 eta z - 2L) g = 0.  F at real
parameters comes from mpmath.coulombf, and the sine case L = eta = 0 from
sin and cos directly.
"""

from __future__ import annotations

import cmath

import mpmath as mp

DPS = 30


def g_derivatives(L: complex, eta: complex, z: complex) -> tuple[complex, complex, complex]:
    """(g, g', g'') at z != 0."""
    if L == 0 and eta == 0:
        s, c = cmath.sin(z), cmath.cos(z)
        return s, c, -s
    with mp.workdps(DPS):
        L_, eta_, z_ = mp.mpc(L), mp.mpc(eta), mp.mpc(z)
        a = L_ + 1 - 1j * eta_
        b = 2 * L_ + 2
        x = 2j * z_
        e = mp.exp(-1j * z_)
        m0 = mp.hyp1f1(a, b, x)
        m1 = mp.hyp1f1(a + 1, b + 1, x)
        g = z_ * e * m0
        gp = e * m0 - 1j * z_ * e * m0 + z_ * e * 2j * (a / b) * m1
        gpp = -(2 * L_ * z_ * gp + (z_ * z_ - 2 * eta_ * z_ - 2 * L_) * g) / (z_ * z_)
        return complex(g), complex(gp), complex(gpp)


def g_value(L: complex, eta: complex, z: complex) -> complex:
    if z == 0:
        return 0j
    if L == 0 and eta == 0:
        return cmath.sin(z)
    with mp.workdps(DPS):
        L_, eta_, z_ = mp.mpc(L), mp.mpc(eta), mp.mpc(z)
        return complex(z_ * mp.exp(-1j * z_) * mp.hyp1f1(L_ + 1 - 1j * eta_, 2 * L_ + 2, 2j * z_))


def f_value(L: float, eta: float, z: complex) -> complex:
    """Regular Coulomb function F_L(eta, z) at real L and eta."""
    if L == 0 and eta == 0:
        return cmath.sin(z)
    with mp.workdps(DPS):
        return complex(mp.coulombf(L, eta, z))


def series_scale(L: complex, eta: complex, r: float) -> float:
    """S(r) = sum |a_n| r^(n+1), the size of the terms summed to get g at |z| = r.

    Evaluating g in double precision cannot do better than about eps * S(r),
    so this sets the noise floor for checks near zeros.  The coefficients come
    from the three-term recurrence; only their magnitudes matter here.
    """
    prev, a = 1 + 0j, eta / (L + 1)
    power = r * r
    total = r + abs(a) * power
    small = 0
    for n in range(2, 2000):
        prev, a = a, (2 * eta * a - prev) / (n * (n + 2 * L + 1))
        power *= r
        term = abs(a) * power
        total += term
        small = small + 1 if n > r and term < 1e-17 * total else 0
        if small == 2:
            break
    return total


def p_value(L: complex, eta: complex, z: complex) -> complex:
    """P(z) = z g'(z) / g(z)."""
    g, gp, _ = g_derivatives(L, eta, z)
    return z * gp / g
