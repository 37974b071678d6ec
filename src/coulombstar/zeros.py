"""Zero location, the proven zero count, and the Hadamard product rebuild.

Zeros of the entire function g are counted first, by the argument
principle: _arc_count, the one count routine behind winding_number and
starlike.certify, owns the circle's sampler and rounding allowance and sums
the principal-angle steps of g between samples, each arc proven to keep g
away from 0 by a bound on how far g moves along it.  They are then seeded
once, by the roots of a short prefix of the series polynomial
(companion-matrix eigenvalues), and polished one seed at a time by a
single Newton loop, _newton: first in doubles on the full series, then on
compensated residuals (_refine_mp), and a refined root that fails the
residual gate or repeats one already kept is dropped.  The prefix ends at
the last term that still matters on |z| = 1.05 R (_SEED_CUT); for real L
and eta it goes to the real companion matrix, and a real zero is refined
in real arithmetic.  An unproven count, or a list that disagrees with it,
raises WindingMismatch.  The located zeros feed the product

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
    DEFAULT_TOL,
    CoefficientTable,
    ComplexValue,
    CoulombParams,
    _abs_sums,
    _tail_bounds,
    table_for_radius,
)

_NEWTON_MAX_STEPS = 100
_REFINE_MAX_STEPS = 8
_DEDUP_SEPARATION = 1e-8
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


_CIRCLE_SAMPLES = 720  # winding_number's first samples on its circle
_MAX_CIRCLE_SAMPLES = 1 << 18  # samples allowed on one circle, bisection included
_MAX_GROWTH = 50.0  # the ODE arc bound is used while e^(c s) stays below e^50


def _bounded_horner(coeffs, z: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """series._horner's value (same bits) of sum coeffs[n] z^n on |z| = r, and its rounding bound.

    Running error bound (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 5.1): the step s_k = s_(k+1) z + a_k rounds its
    complex product by at most sqrt(2) gamma_2 |s_(k+1)| r and its sum by u |s_k|,
    so the error is below (2 sqrt(2) + 1) u mu < 2.5 eps mu, mu = sum |s_k| r^k.
    """
    acc = np.zeros_like(z)
    mu, size = np.zeros(z.shape), np.empty(z.shape)
    for a in reversed(coeffs):
        acc *= z
        acc += a
        mu *= r
        mu += np.abs(acc, out=size)
    return acc, 2.5 * _EPS * mu


def _arc_count(table: CoefficientTable, tails, r: float, samples=None) -> int | None:
    """Proven count of the zeros of g in |z| < r from samples on that circle.

    tails are _tail_bounds at r, and g is sampled at theta_k = 2 pi k / n.
    By default n = 720 and g comes from _bounded_horner, err_k being its
    running rounding bound plus tail0.  samples = (g, g') passes plain-Horner
    values instead (certify's grid), each with the a-priori err_k = tail0 +
    8 (order+2) eps S(r), which covers complex Horner's rounding (about
    5 (order+1) eps S) with room to spare.  Midpoints are always sampled the
    default way.  u_k = |g_k| + |g'_k| + err_k + tail1 + 8 (order+2) eps M1(r)
    bounds the exact |g| + |g'| at the computed point (S and M1 from
    _abs_sums), which lies within 4 eps r of the circle.

    The path from one computed point along the circle to the next has
    length s <= r (width + 8 eps), and g moves along it by at most
    D_k = min(m1 s, u_k expm1(c s) / c): m1 = M1 + tail1 majorizes |g'| on
    the disk, and |g| + |g'| grows at rate at most c, since
    z^2 g'' + 2 L z g' + (z^2 - 2 eta z - 2L) g = 0 gives
    |g''| <= a |g'| + b |g| with a = 2|L|/r, b = 1 + 2|eta|/r + 2|L|/r^2, so
    c = max(1 + a, b).  An arc is proven when |g_k| - err_k - err_(k+1) >
    2 D_k (the factor 2 also covers the path's 4 eps r excursions): then the
    exact g on it and both computed ends lie in one disk about g_k that
    excludes 0, so the principal angle of g_(k+1)/g_k is the true change of
    arg g, and the steps add up to exactly 2 pi times the count.  Failing
    arcs are bisected at their midpoints only.  None when an arc cannot
    close: a sample within 2 err of 0 (or not finite), a midpoint angle that
    rounds onto its arc's start, or over _MAX_CIRCLE_SAMPLES samples.
    """
    L, eta = abs(table.params.L), abs(table.params.eta)
    c = max(1 + 2 * L / r, 1 + 2 * eta / r + 2 * L / r / r)
    s, m1 = _abs_sums(table, r)
    rounding = 8 * (table.order + 2) * _EPS
    err_p = tails[1] + rounding * m1
    m1 += tails[1]
    g_coeffs = (0.0,) + table.coeffs

    def evaluate(theta):
        z = r * np.exp(1j * theta)
        g, err = _bounded_horner(g_coeffs, z, r)
        err += tails[0]
        return g, err, np.abs(g) + np.abs(table.g_prime_values(z)) + err + err_p

    if samples is None:
        start, err, u = evaluate(2 * np.pi * np.arange(_CIRCLE_SAMPLES) / _CIRCLE_SAMPLES)
    else:
        start, gp = samples
        err0 = tails[0] + rounding * s
        err, u = np.full(start.size, err0), np.abs(start) + np.abs(gp) + (err0 + err_p)
    n = start.size
    theta = 2 * np.pi * np.arange(n) / n
    width = np.full(n, 2 * np.pi / n)
    end, end_err = np.concatenate((start[1:], start[:1])), np.concatenate((err[1:], err[:1]))
    total, count = 0.0, n
    while True:
        size = np.abs(start)
        slack = size - err - end_err
        length = r * (width + 8 * _EPS)
        closed = slack > 2 * m1 * length
        rest = np.flatnonzero(~closed)
        if rest.size:  # D_k is the ODE bound exactly where m1 s fails
            grow = c * length[rest]
            ode = u[rest] * np.expm1(np.minimum(grow, _MAX_GROWTH)) / c
            ode[grow > _MAX_GROWTH] = math.inf
            closed[rest] = slack[rest] > 2 * ode
        total += float(np.angle(end[closed] / start[closed]).sum())
        if closed.all():
            return round(total / (2 * np.pi))
        keep = ~closed
        theta, width, start, end, err, end_err, u, size = (
            x[keep] for x in (theta, width, start, end, err, end_err, u, size))
        width = width / 2
        mid = theta + width
        count += mid.size
        if (count > _MAX_CIRCLE_SAMPLES or not np.all(size > 2 * err)
                or np.any(mid == theta)):
            return None
        g_mid, err_mid, u_mid = evaluate(mid)
        theta, width = np.concatenate((theta, mid)), np.concatenate((width, width))
        start, end = np.concatenate((start, g_mid)), np.concatenate((g_mid, end))
        err, end_err = np.concatenate((err, err_mid)), np.concatenate((err_mid, end_err))
        u = np.concatenate((u, u_mid))


def winding_number(table: CoefficientTable, radius: float) -> int:
    """Proven argument-principle count of the zeros of g in |z| < radius.

    The origin zero is included.  _arc_count samples g at 720 angles with a
    running rounding bound and closes the count.  NoConvergence when it
    cannot be proven: a zero within rounding distance of the circle, a tail
    not certified at this radius, or over 2^18 samples.  The coefficients'
    own rounding is not in the bound yet.
    """
    if not (radius > 0 and math.isfinite(radius)):
        raise InvalidParams(f"radius must be positive and finite, got {radius}")
    tails = _tail_bounds(table.coeffs, table.params, radius)
    if tails is None:
        raise NoConvergence(f"series tail is not certified at radius {radius}")
    count = _arc_count(table, tails, radius)
    if count is None:
        raise NoConvergence(f"winding count on |z| = {radius} cannot be proven")
    return count


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

    At most _REFINE_MAX_STEPS steps of _newton with g = z h from the
    compensated Horner kernel and g' from the double table; the residual is
    the compensated |g| at the returned double.  Given a real table's
    coefficients as floats (`real_coeffs`), a root within 1e-10 of the real
    axis, before or after the complex steps, is put on it and refined with
    h from the real kernel (same bits, a quarter of the products), since
    off the axis the update never rounds to no change; for real L > -1
    every zero is real (Ikebe, Math. Comp. 29, 1975), so a near-real pair
    of seeds ends on one real zero.  (perfbench/crosscheck.py times the
    refinement under this name.)
    """
    def near_real(z):
        return real_coeffs is not None and abs(z.imag) <= 1e-10 * max(1.0, abs(z.real))

    if not near_real(root):
        def g(z):
            return z * _compensated_horner(table.coeffs, z)
        root, residual = _newton(g, table.g_prime_values, root, _REFINE_MAX_STEPS)
        if not near_real(root):
            return root, residual

    def g_real(z):
        return z * _compensated_horner_real(real_coeffs, z.real)
    return _newton(g_real, table.g_prime_values, complex(root.real, 0.0), _REFINE_MAX_STEPS)


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


def find_zeros(
    params: CoulombParams, trust_radius: float, tol: float = DEFAULT_TOL
) -> ZeroSet:
    """Locate every zero of g with 0 < |rho| <= trust_radius.

    The origin zero is structural (g(z) = z + ...) and is excluded from the
    list; the winding count over the trust circle is proven first, and an
    unproven count raises WindingMismatch before any seeding.  Seeds are the
    roots of g = z h's cofactor h cut after its last term above _SEED_CUT of
    the largest on |z| = 1.05 R; for real L and eta that prefix is a float64
    array, so np.roots takes LAPACK's real eigensolver.  Each seed within
    1.05 R takes one pass: Newton in doubles down to max(tol, 8 eps S(R)),
    S(R) = sum |a_n| R^(n+1), then the compensated refinement of _refine_mp.
    The refined root is kept when its residual, the compensated |g| there,
    is at most 1e-10 max |a_n| (where 8 eps S(R) is large, double Newton can
    stop where g is not small), 0 < |rho| <= R, and it lies more than 1e-8
    from every zero already kept.  The list plus the origin must match the
    count, or WindingMismatch.  Zeros are sorted by modulus, ties broken by
    principal-branch argument; each is the double that Newton on
    compensated residuals settles on (a real zero of a real table in the
    real kernel).
    """
    if not (trust_radius > 0 and math.isfinite(trust_radius)):
        raise InvalidParams(f"trust_radius must be positive and finite, got {trust_radius}")
    table = table_for_radius(params, trust_radius, tol)
    try:
        count = winding_number(table, trust_radius)
    except NoConvergence as exc:
        raise WindingMismatch(f"winding count over |z| = {trust_radius} is unproven") from exc
    h = np.array(table.coeffs, dtype=complex)
    real_coeffs = None
    if params.L.imag == 0.0 and params.eta.imag == 0.0:
        h = h.real
        real_coeffs = h.tolist()
    target = max(tol, 8 * _EPS * _abs_sums(table, trust_radius)[0])
    gate = _RESIDUAL_FACTOR * max(abs(c) for c in table.coeffs)
    found: list[tuple[complex, float]] = []
    for seed in _seed_roots(h, _seed_degree(h, trust_radius), trust_radius):
        if abs(seed) > trust_radius * _SEED_REACH:
            continue
        root, size = _newton(
            table.g_values, table.g_prime_values, complex(seed), _NEWTON_MAX_STEPS, target
        )
        if not size <= target:
            continue
        root, residual = _refine_mp(table, root, real_coeffs)
        if residual <= gate and 0 < abs(root) <= trust_radius and all(
            abs(root - kept) > _DEDUP_SEPARATION for kept, _ in found
        ):
            # normalize signed zeros so sort order does not depend on -0.0
            found.append((complex(root.real + 0.0, root.imag + 0.0), residual))
    if count != len(found) + 1:
        raise WindingMismatch(
            f"winding count over |z| = {trust_radius} is {count}, against "
            f"{len(found)} listed zeros plus the origin"
        )
    found.sort(key=lambda pair: (abs(pair[0]), cmath.phase(pair[0])))
    zeros, residuals = zip(*found) if found else ((), ())
    return ZeroSet(params, trust_radius, table.order, zeros, residuals)


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
    # one running product: the same factors in the same order as
    # weierstrass_eval, so each prefix keeps its bits
    value = z * cmath.exp(params.eta * z / (params.L + 1))
    report = []
    for n, rho in enumerate(zero_set.zeros, 1):
        value *= (1 - z / rho) * cmath.exp(z / rho)
        report.append((n, abs(value - reference)))
    return report
