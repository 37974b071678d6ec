"""Zero location, the proven zero count, and the Hadamard product rebuild.

Zeros of the entire function g are counted first, by _arc_count, the one
count routine behind winding_number, find_zeros and starlike.certify:
Rouche's theorem against z proves a count of 1 in one comparison when
S(r) + tail0 < 2r, and otherwise the argument principle sums the
principal-angle steps of g between the routine's own samples, each arc
proven to keep g away from 0 by a bound from the Coulomb equation: a
first-order bound on how far g moves along it, or, where that fails, a
second-order (Taylor) bound from the same samples of g and g'.  For
real L and eta, g(conj z) = conj g(z), so arg g changes on the lower half
circle as it does on the upper half, and only the upper semicircle is
sampled.

find_zeros then lists the zeros by one eigensolve.  The nonzero zeros of g
are the reciprocals of the eigenvalues of the tridiagonal Jacobi matrix J of
the Coulomb recurrence (Ikebe, Math. Comp. 29, 1975; Stampach and Stovicek,
J. Math. Anal. Appl. 419, 2014), whose entries follow from L and eta in
closed form (_jacobi).  Its leading N x N section, N a little above R,
gives the zeros within R to about 1e-14 relative, from L and eta alone:
the rounded coefficients a_n serve the count and the residuals, not the
zeros.  Each zero's residual is |g| there by the table's own Horner
(series._horner, whose bits _bounded_horner reproduces with its rounding
bound): within 2.5 eps mu of |g| on the double coefficients, possibly 0.0,
and not a distance to g's zero.  A count of 1 lists no zero, and a list
that disagrees with the count raises WindingMismatch.  The located zeros
feed the product

    g(z) = z * exp(eta z / (L+1)) * prod_n (1 - z/rho_n) e^{z/rho_n},

whose partial products converge to g as more zeros are included.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParams, NoConvergence, WindingMismatch
from .series import (
    _EPS,
    DEFAULT_TOL,
    CoefficientTable,
    ComplexValue,
    CoulombParams,
    _abs_sum,
    _grow_table,
    _tail_bounds,
)


@dataclass(frozen=True)
class ZeroSet:
    """Zeros of g inside a trust radius, ordered by modulus then argument.

    residuals[k] is |g(zeros[k])| for the truncated series at the returned
    double zeros[k], by the table's own Horner on the double coefficients
    (CoefficientTable.g_values): within _bounded_horner's 2.5 eps mu of the
    exact |g| of those coefficients there, and it may round to 0.0.  It is
    not a distance to g's zero: the zeros come from the Jacobi matrix, not
    from the rounded coefficients, and the residual takes in their rounding,
    up to about eps S(|zeros[k]|), S(r) = sum |a_n| r^(n+1), at a zero that
    is right to 1e-14.
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


_CIRCLE_SAMPLES = 720  # _arc_count's first samples on its circle
_MAX_CIRCLE_SAMPLES = 1 << 18  # samples allowed on one circle, bisection included


def _bounded_horner(coeffs, z: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """series._horner's value (same bits) of sum coeffs[n] z^n, |z| <= r, and its rounding bound.

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


def _ode_bound(u: np.ndarray, length: np.ndarray, c: float) -> np.ndarray:
    """u expm1(c s) / c for arcs of length s: how far g can move along each.

    |g| + |g'| grows at rate at most c along a path (see _arc_count), so g
    moves by at most u (e^(c s) - 1) / c when u bounds |g| + |g'| at the
    arc's start.  inf where e^(c s) overflows, which leaves the arc open.
    """
    with np.errstate(over="ignore"):
        return u * np.expm1(c * length) / c


def _taylor_closes(start: np.ndarray, end: np.ndarray, length: np.ndarray, c: float,
                   err_p: float, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arcs that the second-order bound closes, with the rho and eta it tested (see _arc_count).

    start and end hold the samples at the arcs' ends as _arc_count's
    evaluate gives them, length bounds the arcs' paths, and c and err_p are
    _arc_count's.  A g'_k d_k that underflows to 0 or overflows, like an
    e^(c length) that overflows, leaves its arc open.
    """
    _, z, g, slope, err, u = start
    _, end_z, _, _, end_err, _ = end
    err, u, end_err = err.real, u.real, end_err.real
    with np.errstate(all="ignore"):
        q = slope * (end_z - z)
        lam = np.clip(-(q.real * g.real + q.imag * g.imag)
                      / (q.real * q.real + q.imag * q.imag), 0.0, 1.0)
        near, tip = g + lam * q, g + q
        reach = np.minimum(near.real * g.real + near.imag * g.imag,
                           near.real * tip.real + near.imag * tip.imag) / np.abs(near)
        eta = length * length / (8 * r) + 8 * _EPS * r
        rho = err + err_p * length + length * length / 2 * c * u * np.exp(c * length)
        return reach > np.abs(slope) * eta + 2 * (rho + end_err), rho, eta


def _check_radius(name: str, radius: float, below: float = math.inf) -> None:
    """The radius rule of winding_number, find_zeros and starlike.ScanGrid: a
    normal double below `below`, since on a subnormal circle g_(k+1)/g_k overflows."""
    if not (sys.float_info.min <= radius < below):
        rule = "a finite normal double" if below == math.inf else f"a normal double below {below}"
        raise InvalidParams(f"{name} must be {rule}, got {radius!r}")


def _arc_count(table: CoefficientTable, tails, r: float) -> int | None:
    """The proven count of the zeros of g in |z| < r, for a normal double r, or None.

    tails are _tail_bounds at r, and S is _abs_sum's.  First, Rouche's
    theorem against z: a_0 = 1, so |g(z) - z| <= S - r + tail0 on |z| = r,
    and S + tail0 < 2r leaves g only the origin's zero in the closed disk.
    Otherwise g is sampled at theta_k = 2 pi k / 720 (k <= 360 for a real
    table, see below) by _bounded_horner, err_k being its running rounding
    bound plus tail0, and g'_k by series._horner.  err_p = tail1 +
    8 (order+2) eps M1 bounds the error of g'_k (complex Horner rounds g' by
    about 5 (order+1) eps M1), so u_k = |g_k| + |g'_k| + err_k + err_p bounds
    the exact |g| + |g'| at the computed point z_k.  M1 is _abs_sum's too,
    computed only once Rouche's test has failed, for this allowance alone.

    Arc k runs from z_k to the circle point at the double angle theta_k
    (within 4 eps r), along the circle to theta_(k+1), and on to z_(k+1);
    its length is at most l = r (theta_(k+1) - theta_k + 8 eps).  (The
    last sample, r or -r, is the circle point at 2 pi or pi, within 2 eps r
    of the one at the double angle span m / m = span.)  |g| + |g'| grows at
    rate at most c along it, since z^2 g'' + 2 L z g' + (z^2 - 2 eta z - 2L)
    g = 0 gives
    |g''| <= a |g'| + b |g| with a = 2|L|/r, b = 1 + 2|eta|/r + 2|L|/r^2, so
    c = max(1 + a, b) and |g| + |g'| <= u_k e^(c t) at distance t along the
    path.  An arc closes when one of two bounds closes it:

    * First order: g moves along it by at most D_k = u_k expm1(c l) / c
      (_ode_bound), and the arc closes when |g_k| - err_k - err_(k+1) >
      2 D_k: the exact g on it and both computed ends then lie in one disk
      about g_k that excludes 0.  The factor 2 leaves room for this test's
      own rounding, which is not derived.
    * Second order (_taylor_closes), on the arcs the first leaves open.
      With w = z - z_k, Taylor's theorem along the path, |g''| <= c (|g| +
      |g'|) <= c u_k e^(c t), |g(z_k) - g_k| <= err_k and |g'(z_k) - g'_k|
      <= err_p give |g(z) - g_k - g'_k w| <= rho_k = err_k + err_p l +
      (l^2 / 2) c u_k e^(c l).  And w lies within eta = l^2 / (8r) + 8 eps r
      of the chord [0, d_k], d_k = z_(k+1) - z_k: the arc of angle
      phi <= l / r lies within its sagitta r (1 - cos(phi/2)) <= l^2 / (8r)
      of the chord of its circle ends, whose points lie within 4 eps r of
      the chord [z_k, z_(k+1)], as do the two excursions.  So g on the path
      and the computed g_(k+1) lie within R_k = |g'_k| eta + rho_k +
      err_(k+1) of the segment [g_k, g_k + q_k], q_k = g'_k d_k: a convex
      set that holds g_k, and excludes 0 when the segment's distance from
      0, min over lambda in [0, 1] of |g_k + lambda q_k|, exceeds R_k.  The
      arc closes when that distance, less |g'_k| eta, exceeds
      2 (rho_k + err_(k+1)).

    Either way the exact g on the arc and both computed ends lie in one
    convex set that excludes 0, so the principal angle of g_(k+1)/g_k is the
    true change of arg g along the arc, and the steps add up to exactly
    2 pi times the count.

    The second-order test's own rounding (Higham 2002, with gamma_k = k u /
    (1 - k u), u = eps / 2) is covered by the second copy of rho_k +
    err_(k+1).  The distance is computed as the support
    min(Re(conj(f) g_k), Re(conj(f) (g_k + q_k))) / |f| of the segment in
    the direction f = g_k + lambda* q_k of its nearest point: for every
    f != 0 the support is at most the distance, so the rounding of lambda*
    costs sharpness, not soundness.  Rounding d_k, q_k (Lemma 3.5), g_k + q_k,
    the two inner products (Lemma 3.1), |f| and the quotient moves the
    support by at most gamma_8 (|g_k| + |g'_k| |d_k|), and that is below
    err_k + err_p l: _bounded_horner's mu_k holds its last two terms,
    |s_1| r + |s_0| >= 1.99 |g_k| (s_0 = s_1 z_k is g_k), so
    err_k >= 2.5 eps mu_k > 4.9 eps |g_k| > gamma_8 |g_k|, while
    err_p >= 16 eps M1 and |g'_k| |d_k| <= 1.01 M1 l (order <= 500).
    The computed rho_k, eta, l and c err by a relative gamma_30 at most,
    c l times that through e^(c l), which is finite wherever the test can
    pass; the rest of the second copy, and eta's 8 eps r against the
    4 eps r its proof needs (l < r), cover that.

    For a real table, g(conj z) = conj g(z), so arg g changes along the
    lower half of the circle exactly as along the upper half: only the upper
    semicircle is sampled, from r to -r (both exact, on the real axis where
    the mirror image of the path begins and ends), and the steps add up to
    pi times the count.  Otherwise the samples run round the whole circle,
    and the last one repeats z = r, so the path closes exactly.

    One loop runs every pass, the first included: it adds up the angle
    steps of the arcs it closes and bisects the rest at their midpoints.
    The count is None when an arc cannot close: a sample within 2 err of 0
    (or not finite), a midpoint angle that rounds onto its arc's start, or
    over _MAX_CIRCLE_SAMPLES samples.  The proof does not cover the
    coefficients' own rounding yet.
    """
    # rho: each nonnegative term of the computed S carries |a_n| (hypot,
    # within 1 ulp: theta_2), Horner's theta_(2 order) (Higham 2002, eq. 5.3)
    # and the final * r, so S is exact within gamma_(2 order + 3) (Lemmas 3.1,
    # 3.3); the sum and product below round twice more.  gamma_k <= (k + 1) u
    # while k (k + 1) u <= 1, so rho = (2 order + 6) u = (order + 3) eps covers
    # gamma_(2 order + 5), with u S to spare for underflowed products (2^-1075
    # each, against a Horner sum of at least a_0 = 1); 1 + rho is a double.
    if (_abs_sum(table, r, 0) + tails[0]) * (1 + (table.order + 3) * _EPS) < 2 * r:
        return 1
    L, eta = abs(table.params.L), abs(table.params.eta)
    c = max(1 + 2 * L / r, 1 + 2 * eta / r + 2 * L / r / r)
    err_p = tails[1] + 8 * (table.order + 2) * _EPS * _abs_sum(table, r, 1)
    g_coeffs = (0.0,) + table.coeffs

    def evaluate(theta, z):
        """The samples at the angles theta, points z, as rows theta, z, g, g', err and u (the
        real ones stored as complex)."""
        g, err = _bounded_horner(g_coeffs, z, r)
        err += tails[0]
        g_prime = table.g_prime_values(z)
        u = np.abs(g) + np.abs(g_prime) + err + err_p
        return np.array((theta, z, g, g_prime, err, u))

    real = table.is_real
    span, m = (np.pi, _CIRCLE_SAMPLES // 2) if real else (2 * np.pi, _CIRCLE_SAMPLES)
    theta = span * np.arange(m + 1) / m
    z = r * np.exp(1j * theta)
    z[-1] = -r if real else r  # the path ends on the real axis, or where it began
    first = evaluate(theta, z)
    start, end = first[:, :-1], first[:, 1:]
    total, count = 0.0, m + 1
    while True:
        theta, _, g, _, err, u = start
        end_theta, _, end_g, _, end_err, _ = end
        theta, end_theta, err, end_err, u = (x.real for x in (theta, end_theta, err, end_err, u))
        length = r * ((end_theta - theta) + 8 * _EPS)
        size = np.abs(g)
        closed = size - err - end_err > 2 * _ode_bound(u, length, c)
        left = np.flatnonzero(~closed)
        if left.size:
            closed[left] = _taylor_closes(start[:, left], end[:, left], length[left], c, err_p, r)[0]
        total += float(np.angle(end_g[closed] / g[closed]).sum())
        if closed.all():
            return round(total / span)
        keep = ~closed
        theta = theta[keep]
        mid = theta + (end_theta[keep] - theta) / 2
        count += mid.size
        if (count > _MAX_CIRCLE_SAMPLES or not np.all(size[keep] > 2 * err[keep])
                or np.any(mid == theta)):
            return None
        middle = evaluate(mid, r * np.exp(1j * mid))
        start = np.concatenate((start[:, keep], middle), axis=1)
        end = np.concatenate((middle, end[:, keep]), axis=1)


def winding_number(table: CoefficientTable, radius: float) -> int:
    """Proven argument-principle count of the zeros of g in |z| < radius.

    The origin zero is included; _arc_count proves it by Rouche's theorem or
    from 720 samples with a running rounding bound, each arc between them
    closed by a first- or second-order bound from the Coulomb equation and
    bisected when neither closes it.  InvalidParams for a
    radius that is not a finite normal double; NoConvergence when the count
    cannot be proven: a zero within rounding distance of the circle, a tail
    not certified at this radius, or over 2^18 samples.
    """
    _check_radius("radius", radius)
    tails = _tail_bounds(table.coeffs, table.params, radius)
    if tails is None:
        raise NoConvergence(f"series tail is not certified at radius {radius}")
    count = _arc_count(table, tails, radius)
    if count is None:
        raise NoConvergence(f"winding count on |z| = {radius} cannot be proven")
    return count


def _refine_mp(table: CoefficientTable, roots) -> list[tuple[complex, float]]:
    """Each root with its residual, |g| there by the table's own Horner: [(root, residual)].

    One batched table.g_values call on the double coefficients: the
    series._horner bits that starlike.certify uses and that _arc_count's
    _bounded_horner reproduces, so each residual lies within that routine's
    2.5 eps mu of the exact |g| of the truncated series, and may round to
    0.0.  It is not a distance to g's zero.  It does not refine: the name is
    kept for perfbench/crosscheck.py, which times this step under it.
    """
    return list(zip(roots, np.abs(table.g_values(np.array(roots, dtype=complex))).tolist()))


def _jacobi(L, eta, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal d and the squared off-diagonal w^2 of the size x size Jacobi matrix J_N of g.

    With m_n = L + n + 1, d_n = -eta / (m_n m_(n+1)) for n = 0 .. N-1, and
    w_n^2 = (m_n^2 + eta^2) / (m_n^2 (2 m_n - 1)(2 m_n + 1)) joins rows n-1
    and n, n = 1 .. N-1; every denominator is nonzero off CoulombParams'
    polar set.  Real L and eta (floats) give real arrays, each entry
    rounded by real operations alone.  A diagonal zero is +0.0, since a
    -0.0 there moves eigvalsh's bits.  An overflow leaves inf or nan, which
    the eigensolvers refuse with LinAlgError.
    """
    m = L + np.arange(size + 1) + 1.0
    with np.errstate(all="ignore"):
        d = -eta / (m[:-1] * m[1:]) + 0.0
        m = m[1:-1]
        return d, (m * m + eta * eta) / (m * m * (2 * m - 1) * (2 * m + 1))


def find_zeros(
    params: CoulombParams, trust_radius: float, tol: float = DEFAULT_TOL
) -> ZeroSet:
    """Locate every zero of g with 0 < |rho| <= trust_radius.

    The origin zero is structural (g(z) = z + ...) and is not listed.  The
    zero count over the trust circle is proven first, by _arc_count, on the
    table whose tail on |z| = R is below tol (tol sizes that table alone);
    an unproven count raises WindingMismatch, and a count of 1 lists no zero.

    The zeros are then the 1/lambda for the eigenvalues lambda of the
    Jacobi matrix J_N (_jacobi), N = ceil(R) + 20 + ceil(R / 10), with
    |lambda| R >= 1: one eigensolve, chosen by the table.  A complex table
    takes np.linalg.eigvals on the complex symmetric J.  A real table whose
    w_n^2 are all positive takes np.linalg.eigvalsh, and when eta = 0, where
    g is odd, lists +-1/lambda over the positive lambda, so that each zero's
    negative has the same bits.  A real table with some w_n^2 < 0 (L < -3/2)
    takes np.linalg.eigvals on the real tridiagonal with |w_n| above the
    diagonal and sign(w_n^2) |w_n| below it, which is similar to J: its real
    zeros have imaginary part 0.0 and its conjugate pairs are exact.  An
    eigensolver that fails raises NoConvergence.

    The list plus the origin must match the count, or WindingMismatch.
    Zeros are sorted by modulus, ties broken by principal-branch argument,
    and each residual is _refine_mp's: |g| by the table's Horner, within
    2.5 eps mu of |g| on the double coefficients, possibly 0.0, and not a
    distance to g's zero.
    """
    _check_radius("trust_radius", trust_radius)
    table, tails = _grow_table(params, trust_radius, tol)
    count = _arc_count(table, tails, trust_radius)
    if count is None:
        raise WindingMismatch(f"winding count over |z| = {trust_radius} is unproven")
    if count == 1:
        return ZeroSet(params, trust_radius, table.order, (), ())
    size = math.ceil(trust_radius) + 20 + math.ceil(trust_radius / 10)
    if table.is_real:
        d, w2 = _jacobi(params.L.real, params.eta.real, size)
        upper = np.sqrt(np.abs(w2))
        lower = np.sign(w2) * upper
    else:
        d, w2 = _jacobi(params.L, params.eta, size)
        upper = lower = np.sqrt(w2)
    jacobi = np.diag(d) + np.diag(upper, 1) + np.diag(lower, -1)
    symmetric = table.is_real and bool(np.all(w2 > 0))
    try:
        lam = (np.linalg.eigvalsh if symmetric else np.linalg.eigvals)(jacobi)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"the Jacobi matrix's eigensolve fails at radius {trust_radius}: "
                            f"{exc}") from exc
    if symmetric and params.eta == 0:  # g is odd: its zeros are +-rho
        rho = 1 / lam[lam * trust_radius >= 1]
        rho = np.concatenate((rho, -rho))
    else:
        rho = 1 / lam[np.abs(lam) * trust_radius >= 1]
    if rho.size + 1 != count:
        raise WindingMismatch(
            f"winding count over |z| = {trust_radius} is {count}, against "
            f"{rho.size} listed zeros plus the origin"
        )
    # + 0.0 normalizes signed zeros, so that the sort order does not depend on -0.0
    zeros = sorted((rho.astype(complex) + 0.0).tolist(), key=lambda z: (abs(z), cmath.phase(z)))
    zeros, residuals = zip(*_refine_mp(table, zeros))
    return ZeroSet(params, trust_radius, table.order, zeros, residuals)


def _running_product(params: CoulombParams, z: complex, zeros) -> list[tuple[complex, complex]]:
    """The partial Hadamard products at z with 0 .. len(zeros) factors, each with its newest factor.

    z e^(eta z / (L+1)), with the factor 1, then one running product of the
    factors (1 - z/rho) e^(z/rho) in list order, so that weierstrass_eval
    and product_convergence_report give every prefix the same bits.
    cmath.exp raises OverflowError; a product overflows to inf unraised.
    """
    value, factor = z * cmath.exp(params.eta * z / (params.L + 1)), 1.0 + 0.0j
    products = [(value, factor)]
    for rho in zeros:
        factor = (1 - z / rho) * cmath.exp(z / rho)
        value *= factor
        products.append((value, factor))
    return products


def weierstrass_eval(
    params: CoulombParams, z: complex, zero_set: ZeroSet, n_product: int
) -> ComplexValue:
    """Partial Hadamard product with the first n_product listed zeros.

    abs_error is a heuristic taken from the last included factor's deviation
    from 1 (zero when no factor is included); it tracks how much the newest
    factor is still moving the product, not a rigorous bound.  A z that is
    not finite raises DomainError, and a product or error that overflows
    raises NoConvergence.
    """
    if n_product < 0 or n_product > len(zero_set.zeros):
        raise ValueError(
            f"n_product must lie in [0, {len(zero_set.zeros)}], got {n_product}"
        )
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    try:
        value, last_factor = _running_product(params, z, zero_set.zeros[:n_product])[-1]
        abs_error = abs(value) * abs(last_factor - 1)
    except OverflowError:  # from cmath.exp or abs; a product overflows to inf unraised
        value = abs_error = math.inf
    if not (cmath.isfinite(value) and math.isfinite(abs_error)):
        raise NoConvergence(f"the partial product overflows at z = {z!r}")
    return ComplexValue(value=value, abs_error=abs_error)


def product_convergence_report(
    params: CoulombParams, z: complex, zero_set: ZeroSet, tol: float = DEFAULT_TOL
) -> list[tuple[int, float]]:
    """Errors |partial product - g(z)| for every prefix of the zero list.

    Entries are (n_product, error) for n_product = 1 .. len(zeros), each
    product with the bits of weierstrass_eval's.  The sequence must be
    eventually decreasing for z inside the trust radius.  A product or
    error that overflows raises NoConvergence, as in weierstrass_eval.
    """
    from .series import eval_g

    z = complex(z)
    reference = eval_g(params, z, tol).value
    try:
        errors = [abs(value - reference)
                  for value, _ in _running_product(params, z, zero_set.zeros)[1:]]
    except OverflowError:  # from cmath.exp or abs; a product overflows to inf unraised
        errors = [math.inf]
    if not all(math.isfinite(error) for error in errors):
        raise NoConvergence(f"the partial product overflows at z = {z!r}")
    return list(enumerate(errors, 1))
