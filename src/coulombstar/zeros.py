"""Zero location inside a trust radius and the Hadamard product rebuild.

Zeros of the entire function g are seeded by the roots of a short prefix
of its series polynomial (companion-matrix eigenvalues) and polished one
seed at a time by a single Newton loop, _newton: first in doubles on the
full series, where a root that repeats an earlier seed's is dropped, then
on compensated residuals (_refine_mp).  The list is cross-checked against
an argument-principle winding count over the trust circle.  The prefix
ends at the last term that still matters on the circle |z| = 1.05 R:
beyond it, |a_n| (1.05 R)^n stays below _SEED_CUT times the largest such
term.  For real L and eta the prefix goes to the real companion matrix,
and a real zero is refined in real arithmetic.  Should the prefix's seeds
miss a zero, the winding count disagrees and the seeding is repeated once
on the whole table before WindingMismatch is raised.  The located zeros
feed the product representation

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
    _EPS,
    _MAX_CIRCLE_SAMPLES,
    DEFAULT_TOL,
    CoefficientTable,
    ComplexValue,
    CoulombParams,
    _abs_sums,
    table_for_radius,
)

_NEWTON_MAX_STEPS = 100
_REFINE_MAX_STEPS = 4
_DEDUP_SEPARATION = 1e-8
_WINDING_START_SAMPLES = 4096
_RESIDUAL_FACTOR = 1e-10
# seed-polynomial cut: keep a_n while |a_n| (1.05 R)^n > _SEED_CUT * max
_SEED_CUT = 1e-9
_SEED_REACH = 1.05


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
    while samples <= _MAX_CIRCLE_SAMPLES:
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
        f"winding estimate failed to stabilize by {_MAX_CIRCLE_SAMPLES} samples "
        f"on |z| = {radius}"
    )


def _newton(g, g_prime, z: complex, steps: int, target: float = 0.0) -> tuple[complex, float]:
    """Newton steps z <- z - g(z)/g'(z); returns (best iterate, its |g|).

    Stops once |g| <= target, when g' vanishes, when the update rounds to no
    change or leaves the finite doubles, or after `steps` steps.  The
    returned iterate is the one of smallest |g| met on the way.
    """
    value = g(z)
    best, best_abs = z, abs(value)
    for _ in range(steps):
        if abs(value) <= target:
            break
        slope = g_prime(z)
        if slope == 0:
            break
        nxt = z - value / slope
        if nxt == z or not (math.isfinite(nxt.real) and math.isfinite(nxt.imag)):
            break
        z = nxt
        value = g(z)
        if abs(value) < best_abs:
            best, best_abs = z, abs(value)
    return best, best_abs


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


def _compensated_horner_real(coeffs, x: float) -> float:
    """sum_n coeffs[n] x^n for real coeffs and real x, compensated.

    The real lane of _compensated_horner: with y = 0 and zero imaginary
    coefficients every imaginary product and sum there is an exact zero, so
    its real part reduces to p1, e1 and e7 below and has the same bits as
    this result.
    """
    t = _SPLITTER * x
    xh = t - (t - x)
    xl = x - xh
    s = c = 0.0
    for a in reversed(coeffs):
        t = _SPLITTER * s
        sh = t - (t - s)
        sl = s - sh
        p1 = s * x
        e1 = sl * xl - (((p1 - sh * xh) - sl * xh) - sh * xl)
        s = p1 + a
        b = s - p1
        e7 = (p1 - (s - b)) + (a - b)
        c = c * x + (e1 + e7)
    return s + c


def _refine_mp(
    table: CoefficientTable, root: complex, real_coeffs: list[float] | None = None
) -> tuple[complex, float]:
    """Compensated Newton from a double-Newton root; returns (root, residual).

    Double-precision evaluation of the series bottoms out at its roundoff
    floor, so these at most _REFINE_MAX_STEPS steps of _newton take g = z h
    from the compensated Horner kernel (about twice double precision) and g'
    from the double table, and return the iterate of smallest residual.  The
    residual is the compensated |g| at that returned double, for the
    truncated series with the table's double coefficients.  Given the
    table's coefficients as floats (`real_coeffs`, for a real table), a root
    within 1e-10 of the real axis is put on it and h comes from the real
    kernel, whose value has the complex kernel's bits at a quarter of its
    products; off the axis Newton would shrink im quadratically but never to
    0, so the update would never round to no change.  (The name predates
    the double kernel; perfbench/crosscheck.py times the refinement under
    it.)
    """
    if real_coeffs is not None and abs(root.imag) <= 1e-10 * max(1.0, abs(root.real)):
        root = complex(root.real, 0.0)

        def g(z):
            return z * _compensated_horner_real(real_coeffs, z.real)
    else:
        def g(z):
            return z * _compensated_horner(table.coeffs, z)
    return _newton(g, table.g_prime_values, root, _REFINE_MAX_STEPS)


def _seed_degree(h: np.ndarray, trust_radius: float) -> int:
    """Degree of the prefix of h whose roots seed the zeros within R.

    The last n with |a_n| (1.05 R)^n > _SEED_CUT max_k |a_k| (1.05 R)^k,
    compared in logarithms so that no power overflows.
    """
    with np.errstate(divide="ignore"):
        log_terms = np.log(np.abs(h)) + np.arange(h.size) * math.log(
            _SEED_REACH * trust_radius
        )
    keep = log_terms > log_terms.max() + math.log(_SEED_CUT)
    return int(np.flatnonzero(keep)[-1])


def _seed_roots(h: np.ndarray, degree: int, trust_radius: float) -> np.ndarray:
    """Companion-matrix roots of sum_{n <= degree} h[n] z^n."""
    try:
        with np.errstate(all="ignore"):
            return np.roots(h[degree::-1])
    except np.linalg.LinAlgError as exc:
        # underflowed trailing coefficients overflow the companion matrix
        raise NoConvergence(
            f"companion-matrix roots fail at radius {trust_radius}: {exc}"
        ) from exc


def _polish(
    table: CoefficientTable, h: np.ndarray, degree: int, trust_radius: float,
    target: float, real_coeffs: list[float] | None,
) -> tuple[list[complex], list[float]]:
    """Zeros within trust_radius reached from the seeds of h's degree prefix.

    One pass per seed, as find_zeros describes; the zeros come back with
    their residuals, sorted by modulus, then argument.
    """
    found: list[complex] = []
    zeros: list[complex] = []
    residuals: list[float] = []
    for seed in _seed_roots(h, degree, trust_radius):
        if abs(seed) > trust_radius * _SEED_REACH:
            continue
        root, size = _newton(
            table.g_values, table.g_prime_values, complex(seed), _NEWTON_MAX_STEPS, target
        )
        if not size <= target or any(abs(root - kept) <= _DEDUP_SEPARATION for kept in found):
            continue
        found.append(root)
        root, residual = _refine_mp(table, root, real_coeffs)
        if abs(root) <= trust_radius:
            # normalize signed zeros so sort order does not depend on -0.0
            zeros.append(complex(root.real + 0.0, root.imag + 0.0))
            residuals.append(residual)
    order = sorted(range(len(zeros)), key=lambda i: (abs(zeros[i]), cmath.phase(zeros[i])))
    return [zeros[i] for i in order], [residuals[i] for i in order]


def find_zeros(
    params: CoulombParams, trust_radius: float, tol: float = DEFAULT_TOL
) -> ZeroSet:
    """Locate every zero of g with 0 < |rho| <= trust_radius.

    The origin zero is structural (g(z) = z + ...) and is excluded from the
    list; the winding count over the trust circle must equal the list length
    plus one.  Seeds are the roots of g = z h's cofactor h cut after its
    last term above _SEED_CUT of the largest on |z| = 1.05 R; for real L
    and eta that prefix is a float64 array, so np.roots takes LAPACK's real
    eigensolver.  Each seed within 1.05 R takes one pass: Newton in doubles
    down to max(tol, 8 eps S(R)), S(R) = sum |a_n| R^(n+1), then, unless
    its root lies within 1e-8 of an earlier seed's, the compensated
    refinement of _refine_mp, and the refined zero is kept when it lies
    within R.  When the polished list disagrees with the winding count,
    the whole table is seeded once more and compared against the same
    count, and only a second disagreement raises WindingMismatch.  Zeros
    are sorted by modulus, ties broken by principal-branch argument.  Each
    zero is the double that Newton on compensated residuals settles on (a
    real zero of a real table in the real kernel), and its residual is the
    compensated |g| there; any residual above 1e-10 max |a_n| raises
    NoConvergence.
    """
    if not (trust_radius > 0 and math.isfinite(trust_radius)):
        raise InvalidParams(
            f"trust_radius must be positive and finite, got {trust_radius}"
        )
    table = table_for_radius(params, trust_radius, tol)
    h = np.array(table.coeffs, dtype=complex)
    real_coeffs = None
    if params.L.imag == 0.0 and params.eta.imag == 0.0:
        h = h.real
        real_coeffs = h.tolist()
    degree = _seed_degree(h, trust_radius)
    target = max(tol, 8 * _EPS * _abs_sums(table, trust_radius)[0])
    refined, residuals = _polish(table, h, degree, trust_radius, target, real_coeffs)
    count = winding_number(table, trust_radius)
    if count != len(refined) + 1 and degree < h.size - 1:
        # the prefix may have lost a zero: reseed once from the whole table
        refined, residuals = _polish(table, h, h.size - 1, trust_radius, target, real_coeffs)
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
