"""Zero location inside a trust radius and the Hadamard product rebuild.

Zeros of the entire function g are found from the roots of its truncated
series polynomial (companion-matrix eigenvalues), polished by Newton steps
on the full series, and then cross-checked against an argument-principle
winding count over the trust circle.  The located zeros feed the product
representation

    g(z) = z * exp(eta z / (L+1)) * prod_n (1 - z/rho_n) e^{z/rho_n},

whose partial products converge to g as more zeros are included.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NoConvergence, WindingMismatch
from .series import (
    DEFAULT_TOL,
    CoefficientTable,
    ComplexValue,
    CoulombParams,
    _horner,
    table_for_radius,
)

_NEWTON_MAX_STEPS = 100
_REFINE_MAX_STEPS = 4
_DEDUP_SEPARATION = 1e-8
_WINDING_START_SAMPLES = 4096
_WINDING_MAX_SAMPLES = 1 << 18
_RESIDUAL_FACTOR = 1e-10
_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class ZeroSet:
    """Zeros of g inside a trust radius, ordered by modulus then argument.

    residuals[k] is |g(zeros[k])| for the truncated series at the returned
    double zeros[k], evaluated by compensated Horner (about twice double
    precision; see _compensated_horner for its error).
    """

    params: CoulombParams
    trust_radius: float
    truncation_order: int
    zeros: tuple[complex, ...]
    residuals: tuple[float, ...]

    def to_jsonable(self) -> dict:
        return {
            "params": self.params.to_jsonable(),
            "trust_radius": self.trust_radius,
            "zeros": [
                {"re": z.real, "im": z.imag, "residual": r}
                for z, r in zip(self.zeros, self.residuals)
            ],
        }


def winding_number(table: CoefficientTable, radius: float) -> int:
    """Argument-principle count of zeros of g inside |z| = radius.

    Trapezoidal integration of g'(z) z / g(z) over uniform boundary samples,
    starting at 4096 and doubling until the estimate lands within 0.25 of an
    integer.  The origin zero is always included in the count.  This is an
    estimate, not a proof: with a zero close to the circle the trapezoid sum
    can land near a wrong integer and be accepted.  For (L, eta) = (0, 5),
    whose zero sits at |rho| = 0.362658574621303, it returns -9 at radius
    0.36265 and 17 at 0.36266, where the true counts are 1 and 2.
    """
    samples = _WINDING_START_SAMPLES
    while samples <= _WINDING_MAX_SAMPLES:
        theta = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
        z = radius * np.exp(1j * theta)
        g = table.g_values(z)
        gp = table.g_prime_values(z)
        if np.any(g == 0):
            samples *= 2
            continue
        integrand = gp * z / g
        estimate = float(np.mean(integrand.real))
        if abs(estimate - round(estimate)) <= 0.25:
            return int(round(estimate))
        samples *= 2
    raise NoConvergence(
        f"winding estimate failed to stabilize by {_WINDING_MAX_SAMPLES} samples "
        f"on |z| = {radius}"
    )


def _abs_series_sum(table: CoefficientTable, r: float) -> float:
    """sum |a_n| r^{n+1}: the conditioning scale of the series at radius r."""
    return _horner([abs(c) for c in table.coeffs], r) * r


def _newton_double(table: CoefficientTable, seed: complex, target: float) -> complex | None:
    """Newton iteration in doubles down to the series' own noise floor."""
    z = seed
    best = z
    best_abs = abs(complex(table.g_values(z)))
    for _ in range(_NEWTON_MAX_STEPS):
        g = complex(table.g_values(z))
        if abs(g) < best_abs:
            best, best_abs = z, abs(g)
        if abs(g) <= target:
            return z
        gp = complex(table.g_prime_values(z))
        if gp == 0:
            break
        step = g / gp
        z = z - step
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            break
        if abs(step) <= 1e-15 * max(1.0, abs(z)):
            g = complex(table.g_values(z))
            if abs(g) < best_abs:
                best, best_abs = z, abs(g)
            break
    return best if best_abs <= target else None


_SPLITTER = 134217729.0  # 2**27 + 1, Dekker's splitting constant for doubles


def _compensated_horner(coeffs, z: complex) -> complex:
    """sum_n coeffs[n] z^n, as accurate as Horner in twice double precision.

    Compensated complex Horner (Graillat, Langlois and Louvet 2005; Graillat
    and Menissier-Morain 2008): each step's product and sum are split by
    error-free transformations, TwoProduct through Dekker's split (there is
    no math.fma before Python 3.13) and Knuth's TwoSum, and their rounding
    errors are summed by a second Horner recurrence run alongside.  The
    result is within about eps |h| + (4 n eps)^2 sum |a_n| |z|^n of the
    exact value for double coefficients.
    """
    x, y = z.real, z.imag
    t = _SPLITTER * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLITTER * y
    yh = t - (t - y)
    yl = y - yh
    sr = si = cr = ci = 0.0
    for a in reversed(coeffs):
        ar, ai = a.real, a.imag
        t = _SPLITTER * sr
        sh = t - (t - sr)
        sl = sr - sh
        t = _SPLITTER * si
        th = t - (t - si)
        tl = si - th
        # the four real products of s * z and their exact rounding errors
        p1 = sr * x
        e1 = sl * xl - (((p1 - sh * xh) - sl * xh) - sh * xl)
        p2 = si * y
        e2 = tl * yl - (((p2 - th * yh) - tl * yh) - th * yl)
        p3 = sr * y
        e3 = sl * yl - (((p3 - sh * yh) - sl * yh) - sh * yl)
        p4 = si * x
        e4 = tl * xl - (((p4 - th * xh) - tl * xh) - th * xl)
        # TwoSum for p1 - p2, p3 + p4, and the additions of a_n
        qr = p1 - p2
        b = qr - p1
        e5 = (p1 - (qr - b)) + (-p2 - b)
        qi = p3 + p4
        b = qi - p3
        e6 = (p3 - (qi - b)) + (p4 - b)
        sr = qr + ar
        b = sr - qr
        e7 = (qr - (sr - b)) + (ar - b)
        si = qi + ai
        b = si - qi
        e8 = (qi - (si - b)) + (ai - b)
        cr, ci = (cr * x - ci * y + (e1 - e2 + e5 + e7),
                  cr * y + ci * x + (e3 + e4 + e6 + e8))
    return complex(sr + cr, si + ci)


def _refine_mp(table: CoefficientTable, root: complex) -> tuple[complex, float]:
    """Newton on compensated residuals; returns (root, residual).

    Double-precision evaluation of the series bottoms out at its roundoff
    floor, so each step z <- z - g(z)/g'(z) takes g = z h from the
    compensated Horner kernel (about twice double precision) and g' from
    the double table.  Iteration stops when the update rounds to no change
    or after _REFINE_MAX_STEPS steps, and returns the iterate of smallest
    residual.  The residual is the compensated |g| at that returned double,
    for the truncated series with the table's double coefficients.  (The
    name predates the double kernel; perfbench/crosscheck.py times the
    refinement under it.)
    """
    z = root
    g = z * _compensated_horner(table.coeffs, z)
    best, best_residual = z, abs(g)
    for _ in range(_REFINE_MAX_STEPS):
        gp = complex(table.g_prime_values(z))
        if gp == 0:
            break
        nxt = z - g / gp
        if nxt == z:
            break
        z = nxt
        g = z * _compensated_horner(table.coeffs, z)
        if abs(g) < best_residual:
            best, best_residual = z, abs(g)
    return best, best_residual


def find_zeros(
    params: CoulombParams, trust_radius: float, tol: float = DEFAULT_TOL
) -> ZeroSet:
    """Locate every zero of g with 0 < |rho| <= trust_radius.

    The origin zero is structural (g(z) = z + ...) and is excluded from the
    list; the winding count over the trust circle must equal the list length
    plus one, otherwise WindingMismatch is raised.  Zeros are sorted by
    modulus, ties broken by principal-branch argument.  Each zero is the
    double that Newton on compensated residuals settles on, and its residual
    is the compensated |g| there; any residual above 1e-10 max |a_n| raises
    NoConvergence.
    """
    if not (trust_radius > 0 and math.isfinite(trust_radius)):
        raise InvalidParams(
            f"trust_radius must be positive and finite, got {trust_radius}"
        )
    table = table_for_radius(params, trust_radius, tol)
    real_coeffs = params.L.imag == 0.0 and params.eta.imag == 0.0
    # roots of the cofactor polynomial h with g = z * h
    h_coeffs = np.array(table.coeffs, dtype=complex)
    try:
        with np.errstate(all="ignore"):
            seeds = np.roots(h_coeffs[::-1])
    except np.linalg.LinAlgError as exc:
        # underflowed trailing coefficients overflow the companion matrix
        raise NoConvergence(
            f"companion-matrix roots fail at radius {trust_radius}: {exc}"
        ) from exc
    noise_floor = 8 * _EPS * _abs_series_sum(table, trust_radius)
    target = max(tol, noise_floor)
    polished: list[complex] = []
    for seed in seeds:
        if abs(seed) > trust_radius * 1.05:
            continue
        root = _newton_double(table, complex(seed), target)
        if root is None:
            continue
        if any(abs(root - kept) <= _DEDUP_SEPARATION for kept in polished):
            continue
        polished.append(root)
    refined: list[complex] = []
    residuals: list[float] = []
    for root in polished:
        # a real zero of a real series is refined on the real axis: off it,
        # Newton shrinks im quadratically but never to 0, so the update
        # would never round to no change
        if real_coeffs and abs(root.imag) <= 1e-10 * max(1.0, abs(root.real)):
            root = complex(root.real, 0.0)
        better, residual = _refine_mp(table, root)
        if abs(better) > trust_radius:
            continue
        # normalize signed zeros so sort order does not depend on -0.0
        better = complex(better.real + 0.0, better.imag + 0.0)
        refined.append(better)
        residuals.append(residual)
    order = sorted(
        range(len(refined)), key=lambda i: (abs(refined[i]), cmath.phase(refined[i]))
    )
    refined = [refined[i] for i in order]
    residuals = [residuals[i] for i in order]
    count = winding_number(table, trust_radius)
    if count != len(refined) + 1:
        raise WindingMismatch(
            f"winding count {count} over |z| = {trust_radius} disagrees with "
            f"{len(refined)} listed zeros plus the origin"
        )
    scale = max(abs(c) for c in table.coeffs)
    bad = [r for r in residuals if r > _RESIDUAL_FACTOR * scale]
    if bad:
        raise NoConvergence(
            f"polished zero residual {max(bad):.3e} exceeds "
            f"{_RESIDUAL_FACTOR * scale:.3e}"
        )
    return ZeroSet(
        params=params,
        trust_radius=trust_radius,
        truncation_order=table.order,
        zeros=tuple(refined),
        residuals=tuple(residuals),
    )


def weierstrass_eval(
    params: CoulombParams, z: complex, zero_set: ZeroSet, n_product: int
) -> ComplexValue:
    """Partial Hadamard product with the first n_product listed zeros.

    abs_error is a heuristic taken from the last included factor's deviation
    from 1 (zero when no factor is included); it tracks how much the newest
    factor is still moving the product, not a rigorous bound.
    """
    if n_product < 0 or n_product > len(zero_set.zeros):
        raise ValueError(
            f"n_product must lie in [0, {len(zero_set.zeros)}], got {n_product}"
        )
    z = complex(z)
    L, eta = params.L, params.eta
    value = z * cmath.exp(eta * z / (L + 1))
    last_factor = 1.0 + 0.0j
    for rho in zero_set.zeros[:n_product]:
        last_factor = (1 - z / rho) * cmath.exp(z / rho)
        value *= last_factor
    abs_error = abs(value) * abs(last_factor - 1) if n_product >= 1 else 0.0
    return ComplexValue(value=value, abs_error=abs_error)


def product_convergence_report(
    params: CoulombParams, z: complex, zero_set: ZeroSet, tol: float = DEFAULT_TOL
) -> list[tuple[int, float]]:
    """Errors |partial product - g(z)| for every prefix of the zero list.

    Entries are (n_product, error) for n_product = 1 .. len(zeros).  The
    sequence must be eventually decreasing for z inside the trust radius.
    """
    from .series import eval_g

    z = complex(z)
    reference = eval_g(params, z, tol).value
    report = []
    for n in range(1, len(zero_set.zeros) + 1):
        approx = weierstrass_eval(params, z, zero_set, n).value
        report.append((n, abs(approx - reference)))
    return report
