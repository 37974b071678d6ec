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

import mpmath as mp
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
_DEDUP_SEPARATION = 1e-8
_WINDING_START_SAMPLES = 4096
_WINDING_MAX_SAMPLES = 1 << 18
_RESIDUAL_FACTOR = 1e-10
_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class ZeroSet:
    """Zeros of g inside a trust radius, ordered by modulus then argument."""

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
    integer.  The origin zero is always included in the count.
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


def _refine_mp(table: CoefficientTable, root: complex) -> tuple[complex, float]:
    """A few extended-precision Newton steps; returns (root, true residual).

    Double-precision evaluation of the series bottoms out at its roundoff
    floor, so the final position and the reported residual are computed with
    40-digit arithmetic on the same truncated polynomial.
    """
    with mp.workdps(40):
        coeffs = [mp.mpc(c) for c in table.coeffs]
        dcoeffs = [(n + 1) * c for n, c in enumerate(coeffs)]
        z = mp.mpc(root)
        g = _horner(coeffs, z) * z
        for _ in range(6):
            gp = _horner(dcoeffs, z)
            if gp == 0:
                break
            step = g / gp
            z = z - step
            g = _horner(coeffs, z) * z
            if abs(step) < mp.mpf("1e-30"):
                break
        return complex(z), float(abs(g))


def find_zeros(
    params: CoulombParams, trust_radius: float, tol: float = DEFAULT_TOL
) -> ZeroSet:
    """Locate every zero of g with 0 < |rho| <= trust_radius.

    The origin zero is structural (g(z) = z + ...) and is excluded from the
    list; the winding count over the trust circle must equal the list length
    plus one, otherwise WindingMismatch is raised.  Zeros are sorted by
    modulus, ties broken by principal-branch argument.
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
        better, residual = _refine_mp(table, root)
        if abs(better) > trust_radius:
            continue
        if real_coeffs and abs(better.imag) <= 1e-10 * max(1.0, abs(better.real)):
            better = complex(better.real, 0.0)
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
