"""Zero location, the proven zero count, and the Hadamard product rebuild.

Zeros of the entire function g are counted first, and the table chooses
the proof, whoever asks: _zero_count's docstring describes that routing.
find_zeros counts a _self_adjoint table by _inertia_count directly, on the
_section that it then solves.

find_zeros then lists the zeros by one eigensolve.  The nonzero zeros of g
are the reciprocals of the eigenvalues of the tridiagonal Jacobi matrix J of
the Coulomb recurrence (Ikebe, Math. Comp. 29, 1975; Stampach and Stovicek,
J. Math. Anal. Appl. 419, 2014), whose entries follow from L and eta in
closed form (_jacobi).  Its leading N x N section, N a little above R,
gives the zeros within R to about 1e-14 relative, from L and eta alone:
the rounded coefficients a_n serve the count and the residuals, not the
zeros.  Each zero's residual is |g| there by the table's own Horner
(series._horner, whose bits _bounded_horner reproduces with its rounding
bound on two points or more): within 2.5 eps mu of |g| on the double
coefficients, possibly 0.0, and not a distance to g's zero.  A count of 1
lists no zero, and a list that disagrees with the count raises
WindingMismatch.  The located zeros feed the product

    g(z) = z * exp(eta z / (L+1)) * prod_n (1 - z/rho_n) e^{z/rho_n},

whose partial products converge to g as more zeros are included.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DomainError, InvalidParams, NoConvergence, WindingMismatch
from .series import (
    _EPS,
    DEFAULT_TOL,
    CoefficientTable,
    ComplexValue,
    CoulombParams,
    _abs_sum,
    _checked_int,
    _tail_bounds,
    eval_g,
    table_for_radius,
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
# D, the denominator of the count's angles 2 pi m / D: D = 720 * 2^K with K = 42, the largest K
# with 2D < 2^53 (2D = 720 * 2^43 = 6.3e15 < 2^53 = 9.0e15 < 720 * 2^44), so every numerator
# m <= D, and every sum of two, is an exact double in _arc_count's records; 4m < 2^63 in int64
_ARC_ANGLES = _CIRCLE_SAMPLES << 42
_CIRCLE_NUMERATORS = np.arange(_CIRCLE_SAMPLES + 1, dtype=np.int64) << 42  # k D / 720, k <= 720
_MAX_CIRCLE_SAMPLES = 1 << 18  # samples allowed on one circle, bisection included
_TABLE_ENTRIES = 1 << 18  # complex entries of the kept tables together (4 MiB); a block holds 1/4
_TABLES: dict[int, np.ndarray] = {}  # angle count -> its kept _unit_powers table


def _unit_roots(m: np.ndarray, angles: int) -> np.ndarray:
    """W_m, m integers in [0, angles]: omega^m within tau, omega = e^(2 pi i / angles) (_circle_samples)."""
    lower = 2 * m > angles  # past the upper half: conj W_(angles - m), exactly
    quadrant, rest = np.divmod(4 * np.where(lower, angles - m, m), angles)
    flip = 2 * rest > angles  # past the first octant: i conj(e^(ix)) at the complement
    roots = np.exp(1j * (np.where(flip, angles - rest, rest) * (np.pi / (2 * angles))))
    np.conjugate(roots, out=roots, where=flip)
    roots = roots * np.array([1, 1j, -1])[quadrant + flip]
    return np.conjugate(roots, out=roots, where=lower)


_CIRCLE_ROOTS = _unit_roots(_CIRCLE_NUMERATORS, _ARC_ANGLES)  # _arc_count's first 721 (W_D = 1)


def _unit_powers(angles: int, n: int):
    """Blocks W[j, i] = W_((start+i) j mod angles), j < n, that cover k <= angles / 2 in turn.

    Returns (start, W) pairs.  One block, the kept table of these angles,
    when it has n rows or more (sliced), or when its n (angles // 2 + 1)
    entries fit _TABLE_ENTRIES: it is then built with n rows and kept.  The
    kept tables hold at most _TABLE_ENTRIES entries together (4 MiB), so a
    table that would pass that drops the others first.  certify's default
    grid and the circle count share the table of 720 angles (2.9 MB at
    order 500), and a grid of other angles keeps its own beside it, so that
    certify and its count do not rebuild each other's table.  A larger
    table, such as a 2^18-angle grid's, comes in blocks of a quarter of
    _TABLE_ENTRIES (1 MiB, one column at least), each built when it is
    reached and dropped after.
    """
    half, kept = angles // 2 + 1, _TABLES.get(angles)
    if kept is not None and kept.shape[0] >= n:
        return [(0, kept[:n])]
    fits, roots = n * half <= _TABLE_ENTRIES, _unit_roots(np.arange(angles), angles)
    step = half if fits else max(1, _TABLE_ENTRIES // (4 * n))
    blocks = ((k, roots[np.outer(np.arange(n), np.arange(k, min(k + step, half))) % angles])
              for k in range(0, half, step))
    if not fits:  # too large to keep
        return blocks
    kept = next(blocks)[1]
    kept.flags.writeable = False
    if kept.size + sum(t.size for key, t in _TABLES.items() if key != angles) > _TABLE_ENTRIES:
        _TABLES.clear()
    _TABLES[angles] = kept
    return [(0, kept)]


@functools.lru_cache(maxsize=1)
def _radius_weights(r: float, n: int) -> np.ndarray:
    """(n, 2) weights (r^j, (j+1) r^j) of _circle_samples' c_j and d_j, read-only.

    r^j = fl(r^(j-1) r) by np.cumprod, and (j+1) r^j rounds once more.  The
    last (r, n) is kept: certify asks for one r_max again and again, and
    _arc_count reads r^(order+1) back after its sample call.  Past the
    double range (r > 1 only) the weights overflow, under the caller's
    np.errstate.
    """
    weights = np.full((n, 2), r)
    weights[0] = 1.0
    np.cumprod(weights[:, 0], out=weights[:, 0])
    weights[:, 1] = weights[:, 0] * np.arange(1, n + 1)
    weights.flags.writeable = False
    return weights


def _circle_samples(table: CoefficientTable, r: float, angles: int, m: int):
    """g and g' at zeta_k = r omega^k, omega = e^(2 pi i / angles), k < m, from one product.

    m is angles // 2 + 1 at most for a real table's upper half, and up to
    angles + 1 for the whole circle, k = angles repeating k = 0 as the
    closing sample of a path.  Returns the rows g_k and g'_k of a (2, m)
    array, and the (n, 2) array of the product's coefficients, n = order +
    2: c_j = a_(j-1) r^j (c_0 = 0) and d_j = (j+1) a_j r^j (d_(n-1) = 0),
    with _radius_weights, so that the truncated g(zeta_k) = sum_j c_j
    omega^(kj) and g'(zeta_k) = sum_j d_j omega^(kj).  certify and the
    circle count (_arc_count) both sample their circle here, whatever its
    radius: the radius rides on the coefficients, and one table of unit
    roots (_unit_powers) serves each angle count.

    Product.  _unit_powers gives W[j, k] = W_(kj mod angles) on the upper
    half circle, k <= angles / 2.  The rows Re c and Re d (a real table), or
    Re c, Im c, Re d and Im d (a complex one), multiply the real view of W in
    one BLAS product, so each entry is a real inner product of n terms, of
    a row with Re W_(kj) or with Im W_(kj).  A real table's g_k is its Re c
    row's pair; a complex table's is A + i B, from the pairs A of Re c and
    B of Im c, one rounding per part.  The lower half, k > angles / 2,
    follows exactly by conjugation, since omega^(kj) = conj
    omega^((angles-k) j): g_k is conj g_(angles-k) for a real table, and
    conj(A - i B) at angles - k for a complex one, written block by block
    so that no second copy of the circle is held.  So a real table's
    samples at k = 0 and k = angles / 2 are exactly real, and the closing
    sample k = angles equals g_0.  Terms past the double range (r > 1
    only) overflow to inf or nan; _arc_count, whose radius may reach
    them, calls this under np.errstate and does not take such samples.

    Roots (_unit_roots).  An m past the upper half, 2m > angles, takes
    conj W_(angles - m), so the roots are exactly conjugate-symmetric.  m /
    angles is then reduced to the first octant in integers, 4m = q angles +
    s: W_m = i^q (cos x + i sin x) at x = s h, or i^q (sin x + i cos x) at
    x = (angles - s) h when 2s > angles, with h = fl(pi / (2 angles)), so x
    <= pi/4.  The swaps, conjugate pairs and products with i^q are exact:
    W_0 = W_angles = 1 and W_(angles/2) = -1.  x lies within 2.36 u x <=
    1.86 u of its exact angle (fl(pi) is within 0.36 u relative, and the
    quotient and s h round once each), and with the cos and sin of e^(ix)
    within an ulp (u at most) each, every W_m lies within tau = (1.86 +
    sqrt(2)) u < 1.64 eps of omega^m wherever s is an exact double.  The
    tests find tau <= eps on all 720 and 1440 roots.

    Bound (u = eps/2, gamma_m = m u / (1 - m u); Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1).  Let s = sum
    |c_j| and M1 = sum |d_j| for the rounded c_j and d_j.  Each r^j =
    fl(r^(j-1) r) lies within gamma_(j-1) of its own, so each part of c_j
    lies within gamma_j, and of d_j within gamma_(j+1) ((j+1) r^j rounds
    first): sum_j |c_j - exact| <= gamma_(order+1) (1 + gamma_(order+1)) s.
    A real inner product of n terms errs by at most gamma_n sum |x_i y_i|,
    in any order of summation, with fused multiply-adds or without (Lemma
    3.1 and the remark after it).  So a real table's g_k, whose two parts'
    errors add as a vector, lies within gamma_n sum_j |c_j| |W_(kj)| <=
    gamma_n (1 + tau) s of sum_j c_j W_(kj); a complex table's part Re A -
    Im B, one rounding more, within gamma_(n+1) sum_j (|Re c_j| |Re W| +
    |Im c_j| |Im W|) <= gamma_(n+1) (1 + tau) s (Cauchy-Schwarz), and g_k
    within sqrt(2) times that.  The roots add tau s.  For every order up to
    MAX_ORDER = 500 (n <= 502), g_k therefore lies within (order + 3.15)
    eps s (real) or (1.2072 order + 4.27) eps s (complex) of g_T(zeta_k),
    the truncated series at the exact zeta_k, and 2 (order+3) eps s exceeds
    both by (0.79 order + 1.73) eps s at least.  g'_k errs in the same way
    against M1.  With min(r, r^(order+1)) >= 2^-1000 no r^j underflows, and
    each part of a c_j or d_j or each product that does errs by 2^-1075 at
    most instead: 4n <= 2008 of them per part, below 2^-1064 <= 2^-11 u s,
    since s >= |c_1| = r (and M1 >= |d_0| = 1).  Below that radius (certify's
    grids reach 2^-1022), the underflows are not covered.

    The count's spare.  _arc_count's err = 2 (order+3) eps S + tail0, S the
    computed sum of the |c_j| (np.abs within an ulp, the sum within
    gamma_(n-1): within gamma_(n+1) < 1e-13 of s), rounds twice, so err -
    tail0 keeps a spare of over 3.4 u s > 3.3 u |g_k| beyond g_k's error,
    which _arc_count's first-order test needs.

    Points.  zeta_k is exact.  Every circle point of the package is z_m =
    fl(r W_m), m over a denominator N: _arc_count's over its D, certify's
    over its grid's angles (ScanGrid.points).  Each lies within r (tau + u
    (1 + tau)) < 2.15 eps r of r e^(2 pi i m / N), and at the roots of 720
    angles (the count's first 721, the default grid's 720) within 1.51 eps r.
    """
    n, a = table.order + 2, np.array(table.coeffs)
    w = np.zeros((n, 2), dtype=float if table.is_real else complex)
    w[1:, 0] = w[:-1, 1] = a.real if table.is_real else a  # a_(j-1) and a_j
    w *= _radius_weights(r, n)
    rows = w.view(float).T  # Re c, Re d; or Re c, Im c, Re d, Im d
    half, blocks = angles // 2 + 1, _unit_powers(angles, n)
    samples = np.empty((2, half if table.is_real and m <= half else angles + 1), dtype=complex)
    for start, block in blocks:
        stop = start + block.shape[1]
        if table.is_real:  # the pairs are g_k and g'_k
            np.matmul(rows, block.view(float), out=samples[:, start:stop].view(float))
        else:  # g_k = A + i B, and g_(angles-k) = conj(A - i B)
            pairs = (rows @ block.view(float)).view(complex)
            re, im = pairs[0::2], 1j * pairs[1::2]
            samples[:, start:stop] = re + im
            samples[:, angles - stop + 1:angles - start + 1] = (re - im)[:, ::-1].conj()
    if table.is_real and m > half:  # g_(angles-k) = conj g_k
        samples[:, half:] = samples[:, angles - half::-1].conj()
    return samples[:, :m], w


def _bounded_horner(coeffs, z: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """series._horner's value of sum coeffs[n] z^n, |z| <= r, and its rounding bound.

    The value has g_values' bits on an array of two points or more.  On a
    one-point array numpy's in-place product here and g_values' out-of-place
    * z may round differently (one fuses a multiply-add where the other does
    not), and the two values then agree only within the bound.

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


def _check_radius(name: str, radius: float, below: float = math.inf) -> float:
    """float(radius), checked by the radius rule of winding_number, find_zeros and starlike.ScanGrid:
    a normal double below `below`, since on a subnormal circle g_(k+1)/g_k overflows."""
    if not (sys.float_info.min <= radius < below):
        rule = "a finite normal double" if below == math.inf else f"a normal double below {below}"
        raise InvalidParams(f"{name} must be {rule}, got {radius!r}")
    return float(radius)


def _arc_count(table: CoefficientTable, tails, r: float) -> int | None:
    """The count of the zeros of g in |z| < r by the argument principle on the whole circle, or None.

    r is a normal double and tails are _tail_bounds at r, as _zero_count
    gives them.  err_p = tail1 + 8 (order+2) eps M1 bounds the error of
    each sample g'_k below, M1 being _abs_sum's, so u_k = |g_k| + |g'_k| +
    err_k + err_p bounds the exact |g| + |g'| at sample k's point.

    Samples.  Each lies at a point z_m = fl(r W_m) (_unit_roots), m the
    integer numerator of its angle 2 pi m / D, D = _ARC_ANGLES, within 2.15
    eps r of zeta_m = r e^(2 pi i m / D) (_circle_samples).  The first
    pass, at every order, is one matrix product (_circle_samples): g and g'
    at zeta_m for m = k D / 720, k = 0 .. 720 (W_D = 1, so z_D = z_0 = r),
    with the a priori err_k = 2 (order+3) eps S + tail0.  It is taken when
    the product's terms c_j and d_j are finite and min(r, r^(order+1)) >=
    2^-1000, as its bound needs, and when it closes all 720 arcs, their
    angle steps give the count.  Otherwise the count drops its samples, so
    that each decision and refusal of the bisection loop below sees
    Horner's running bound: g at the same 721 points z_m by _bounded_horner,
    err_k being its running rounding bound plus tail0, and g'_k by
    series._horner (complex Horner rounds g' by about 5 (order+1) eps M1).

    Arcs.  An arc joins samples at numerators a < b, at points p_a and p_b
    (zeta_m for a product sample, z_m for Horner's), by the path from p_a
    to zeta_a, along the circle to zeta_b, and on to p_b, of length at
    most r (2 pi (b - a) / D + 4.3 eps) <= l = r ((b - a) h + 8 eps), h =
    fl(2 pi / D), as (b - a) h is within 3e-18 of that angle (<= 2 pi / 720).

    Bounds.  |g| + |g'| grows at rate at most c along a path, since z^2 g''
    + 2 L z g' + (z^2 - 2 eta z - 2L) g = 0 gives |g''| <= a |g'| + b |g|
    with a = 2|L|/r, b = 1 + 2|eta|/r + 2|L|/r^2, so c = max(1 + a, b) and
    |g| + |g'| <= u_k e^(c t) at distance t along the path.  An arc closes
    when one of two bounds closes it:

    * First order: g moves along it by at most Delta_k = u_k expm1(c l) /
      c (_ode_bound), and the arc closes when |g_k| - err_k - err_(k+1) -
      eps |g_k| > 2 Delta_k: the exact g on it and both computed ends then
      lie in one disk about g_k that excludes 0, with the second copy of
      Delta_k and eps |g_k| to spare for this test's own rounding (below).
    * Second order (_taylor_closes), on the arcs the first leaves open.
      With w = z - p_k, Taylor's theorem along the path, |g''| <= c (|g| +
      |g'|) <= c u_k e^(c t), |g(p_k) - g_k| <= err_k and |g'(p_k) - g'_k|
      <= err_p give |g(z) - g_k - g'_k w| <= rho_k = err_k + err_p l + (l^2
      / 2) c u_k e^(c l).  And w lies within l^2 / (8r) + 4.3 eps r of the
      chord [0, d_k], d_k = z_(k+1) - z_k: the path's arc lies within its
      sagitta r (1 - cos(phi/2)) <= l^2 / (8r), phi <= l / r, of the chord
      [zeta_a, zeta_b], whose ends, like the path's excursions, lie within
      2.15 eps r of z_a and z_b, as p_k does of z_k.  So with eta = l^2 /
      (8r) + 8 eps r, g on the path and the computed g_(k+1) lie within R_k
      = |g'_k| eta + rho_k + err_(k+1) of the segment [g_k, g_k + q_k], q_k
      = g'_k d_k: a convex set that holds g_k, and excludes 0 when the
      segment's distance from 0, min over lambda in [0, 1] of |g_k + lambda
      q_k|, exceeds R_k.  The arc closes when that distance, less |g'_k|
      eta, exceeds 2 (rho_k + err_(k+1)).

    Either way the exact g on the arc and both computed ends lie in one
    convex set that excludes 0, so the principal angle of g_(k+1)/g_k is the
    true change of arg g along the arc, and the steps add up to exactly
    2 pi times the count.

    The second-order test's own rounding (gamma_k = k u / (1 - k u), u =
    eps / 2) is covered by the second copy of rho_k + err_(k+1).  The
    distance is computed as the support min(Re(conj(f) g_k), Re(conj(f)
    (g_k + q_k))) / |f| of the segment in the direction f = g_k + lambda*
    q_k of its nearest point: for every f != 0 the support is at most the
    distance, so the rounding of lambda* costs sharpness, not soundness.
    Rounding d_k, q_k (Higham 2002, Lemma 3.5), g_k + q_k, the two inner
    products (Lemma 3.1), |f| and the quotient moves the support by at most
    gamma_8 (|g_k| + |g'_k| |d_k|), and that is below err_k + err_p l:
    _bounded_horner's mu_k holds its last two terms, |s_1| r + |s_0| >=
    1.99 |g_k| (s_0 = s_1 z_k is g_k), so err_k >= 2.5 eps mu_k > 4.9 eps
    |g_k| > gamma_8 |g_k|, a product sample's err_k >= 6 eps S is more,
    while err_p >= 16 eps M1 and |g'_k| |d_k| <= 1.01 M1 l (order <= 500,
    |d_k| <= l).  The computed rho_k, eta, l and c err by a relative
    gamma_30 at most, c l times that through e^(c l), which is finite
    wherever the test can pass; the rest of the second copy, and eta's
    8 eps r against the 4.3 eps r its proof needs (l < r), cover that.

    The first-order test's own rounding: np.abs rounds |g_k| by an ulp at
    most (2u relative), eps |g_k| is then exact (where it does not
    underflow), and the three subtractions round by u each, so a computed
    left side above 2 Delta_k leaves the exact |g_k| - err_k - err_(k+1)
    above 2 (1 - 2u) Delta_k - 1.01 u |g_k|.  err_k holds a spare beyond the
    rounding of g_k that covers the 1.01 u |g_k|: 2.5 eps mu_k - (2 sqrt(2)
    + 1) u mu_k > 1.17 u mu_k > 2.33 u |g_k| for a Horner sample (mu_k >=
    1.99 |g_k| as above; mu_k's own rounding is below 1e-12 relative, order
    <= 500), over 3.3 u |g_k| for a product sample (_circle_samples).  The
    computed Delta_k errs by a relative gamma_30 (1 + c l) < 3e-12 at most
    (c l < 710 where it is finite), so the second copy of Delta_k holds
    over 0.99 of the exact Delta_k, on every arc however short.

    The bisection loop adds up the angle steps of the arcs it closes and
    bisects the rest at their integer midpoints (a + b) // 2, exact in
    doubles since a + b <= 2D < 2^53, with Horner samples at z_m.  The
    count is None when an arc cannot close: a sample within 2 err of 0 (or
    not finite), an arc of width b - a = 1, or over _MAX_CIRCLE_SAMPLES
    samples.  The proof does not cover the coefficients' own rounding yet.
    """
    L, eta = abs(table.params.L), abs(table.params.eta)
    c = max(1 + 2 * L / r, 1 + 2 * eta / r + 2 * L / r / r)
    err_p = tails[1] + 8 * (table.order + 2) * _EPS * _abs_sum(table, r, 1)
    g_coeffs = (0.0,) + table.coeffs

    def evaluate(m, z):
        """Horner's samples at the numerators m, points z, as complex rows m, z, g, g', err and u."""
        g, err = _bounded_horner(g_coeffs, z, r)
        g_prime, err = table.g_prime_values(z), err + tails[0]
        return np.array((m, z, g, g_prime, err, np.abs(g) + np.abs(g_prime) + err + err_p))

    def closes(start, end):
        """Which arcs from the samples start to end close; |g| at start."""
        err, end_err, u = start[4].real, end[4].real, start[5].real
        length = r * ((end[0].real - start[0].real) * (2 * np.pi / _ARC_ANGLES) + 8 * _EPS)
        size = np.abs(start[2])
        closed = size - err - end_err - _EPS * size > 2 * _ode_bound(u, length, c)
        left = np.flatnonzero(~closed)
        if left.size:
            closed[left] = _taylor_closes(start[:, left], end[:, left], length[left], c, err_p, r)[0]
        return closed, size

    z = r * _CIRCLE_ROOTS
    with np.errstate(over="ignore", invalid="ignore"):  # terms past the double range
        samples, w = _circle_samples(table, r, _CIRCLE_SAMPLES, _CIRCLE_SAMPLES + 1)
    if np.isfinite(w).all() and min(r, _radius_weights(r, table.order + 2)[-1, 0]) >= 2.0 ** -1000:
        err = np.full(z.size, 2 * (table.order + 3) * _EPS * np.abs(w[:, 0]).sum() + tails[0])
        product = np.array((_CIRCLE_NUMERATORS, z, *samples, err, np.abs(samples).sum(axis=0) + err + err_p))
        start, end = product[:, :-1], product[:, 1:]
        if closes(start, end)[0].all():
            return round(float(np.angle(end[2] / start[2]).sum()) / (2 * np.pi))
    first = evaluate(_CIRCLE_NUMERATORS, z)
    start, end = first[:, :-1], first[:, 1:]
    total, count = 0.0, _CIRCLE_SAMPLES + 1
    while True:
        closed, size = closes(start, end)
        total += float(np.angle(end[2, closed] / start[2, closed]).sum())
        if closed.all():
            return round(total / (2 * np.pi))
        keep = ~closed
        m, end_m = start[0, keep].real, end[0, keep].real
        count += m.size
        if (count > _MAX_CIRCLE_SAMPLES or not np.all(size[keep] > 2 * start[4, keep].real)
                or np.any(end_m - m < 2)):
            return None
        mid = ((m + end_m) // 2).astype(np.int64)
        middle = evaluate(mid, r * _unit_roots(mid, _ARC_ANGLES))
        start = np.concatenate((start[:, keep], middle), axis=1)
        end = np.concatenate((middle, end[:, keep]), axis=1)


def _zero_count(table: CoefficientTable, r: float) -> int | None:
    """The proven count of the zeros of g in |z| < r, for a normal double r, or None.

    The one count of winding_number, starlike.certify, and find_zeros on
    every table it does not solve by eigvalsh; the table chooses the proof.
    The tails at r come first, the table's own when r is its radius, and
    one that is not certified raises NoConvergence.  Then, in order:

    1. Rouche's theorem against z: a_0 = 1, so |g(z) - z| <= S - r + tail0
       on |z| = r, S = _abs_sum's S(r), and S + tail0 < 2r leaves g only
       the origin's zero in the closed disk.  One comparison, which
       settles almost every disk that certify asks about.
    2. J's inertia, for a _self_adjoint table: _inertia_count on its
       _section at r, where two Sturm counts of J_N bracket the number of
       its eigenvalues beyond 1/r on each side, with no sample of g.
    3. The product pass of _arc_count, for every other table, whatever
       its order: g and g' at the 720 points r e^(2 pi i k / 720) from
       _circle_samples, the one product that certify's samples also come
       from, with the table of unit-root powers that certify's 720-angle
       grids share, under an a priori rounding bound; the argument
       principle sums the steps of arg g between them, each arc proven to
       keep g away from 0 by a first-order bound from the Coulomb equation
       on how far g moves along it, or else a second-order (Taylor) bound
       from the same samples of g and g'.
    4. Horner's fallback, in two cases only: the product pass leaves an
       arc open, or the series' terms c_j or d_j leave the double range
       (overflow, or powers of r below 2^-1000), whatever the order.
       Horner's scheme, with its running rounding bound, then samples the
       same 721 points and bisects the open arcs at integer angles.

    None when steps 2 to 4 cannot prove the count: a section of J too
    short for r, a zero within rounding distance of the circle, or over
    2^18 samples.
    """
    tails = table.tails if r == table.radius else _tail_bounds(table.coeffs, table.params, r)
    if tails is None:
        raise NoConvergence(f"series tail is not certified at radius {r}")
    # rho: each nonnegative term of the computed S carries |a_n| (hypot,
    # within 1 ulp: theta_2), Horner's theta_(2 order) (Higham 2002, eq. 5.3)
    # and the final * r, so S is exact within gamma_(2 order + 3) (Lemmas 3.1,
    # 3.3); the sum and product below round twice more.  gamma_k <= (k + 1) u
    # while k (k + 1) u <= 1, so rho = (2 order + 6) u = (order + 3) eps covers
    # gamma_(2 order + 5), with u S to spare for underflowed products (2^-1075
    # each, against a Horner sum of at least a_0 = 1); 1 + rho is a double.
    if (_abs_sum(table, r, 0) + tails[0]) * (1 + (table.order + 3) * _EPS) < 2 * r:
        return 1
    if _self_adjoint(table):
        return _inertia_count(*_section(table, r), r)
    return _arc_count(table, tails, r)


def winding_number(table: CoefficientTable, radius: float) -> int:
    """Proven count of the zeros of g in |z| < radius, the origin included.

    The count is _zero_count's, whose docstring describes how the table
    chooses its proof.  InvalidParams for a radius that is not a finite
    normal double; NoConvergence when the count cannot be proven: a zero
    within rounding distance of the circle, a tail not certified at this
    radius, a section of J too short for it, or over 2^18 samples.
    """
    radius = _check_radius("radius", radius)
    count = _zero_count(table, radius)
    if count is None:
        raise NoConvergence(f"winding count on |z| = {radius} cannot be proven")
    return count


def _refine_mp(table: CoefficientTable, roots) -> list[tuple[complex, float]]:
    """Each root with its residual, |g| there by the table's own Horner: [(root, residual)].

    One batched table.g_values call on the double coefficients, whose bits
    _arc_count's _bounded_horner reproduces when two roots or more are
    passed (see there for one).  Each residual lies within that routine's
    2.5 eps mu of the exact |g| of the truncated series either way, and may
    round to 0.0.  It is not a distance to g's zero.  It does not refine:
    the name is kept for perfbench/crosscheck.py, which times this step
    under it.
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


def _section_size(params: CoulombParams, r: float) -> int:
    """N, the rows of J_N that find_zeros solves: max(ceil(r) + 20, ceil(l) + 16) + ceil(r / 10).

    l = sqrt(r^2 + 2 |eta| r) is the turning point of the zeros within r:
    the Coulomb wave of order L + n at a zero rho, whose values along n make
    the eigenvector, decays past n = sqrt(rho^2 - 2 eta rho).  For |eta| <= 4
    the first term is the larger; at (0.3, 60) and r = 5, l = 25, and 26
    rows list the zeros 3.9e-4 (relative) off, 42 rows within 2.2e-15.
    """
    turning = math.ceil(math.sqrt(r * (r + 2 * abs(params.eta))))
    return max(math.ceil(r) + 20, turning + 16) + math.ceil(r / 10)


def _self_adjoint(table: CoefficientTable) -> bool:
    """Whether the table's Jacobi matrix J is self-adjoint: a real table with L > -3/2.

    Then every w_n^2 > 0 (see _inertia_count), so the table's count comes
    from J's inertia and its zeros from np.linalg.eigvalsh.
    """
    return table.is_real and table.params.L.real > -1.5


def _section(table: CoefficientTable, r: float) -> tuple:
    """(L, d, w2) of J's section at r: _jacobi at N + 2 rows, N = _section_size(params, r).

    A real table passes L and eta's real parts, so that L is a float and d
    and w2 are real arrays.  J_N is their leading N x N block, and rows N
    and N + 1 give _inertia_count its tail.
    """
    params = table.params
    L, eta = (params.L.real, params.eta.real) if table.is_real else (params.L, params.eta)
    return (L, *_jacobi(L, eta, _section_size(params, r) + 2))


def _sturm(diag: list, w2: list, x: float) -> int:
    """The number of negative pivots p_0 = d_0 - x, p_n = (d_n - x) - w_n^2 / p_(n-1).

    By Sylvester's law of inertia on the LDL^T factorization, this Sturm
    count is the number of eigenvalues below x of the symmetric tridiagonal
    with diagonal diag and squared off-diagonal w2.  A zero pivot raises
    ZeroDivisionError.
    """
    p = diag[0] - x
    count = p < 0
    for dn, wn in zip(islice(diag, 1, None), w2):
        p = (dn - x) - wn / p
        count += p < 0
    return count


def _inertia_count(L: float, d: np.ndarray, w2: np.ndarray, r: float) -> int | None:
    """The proven count of the zeros of g in |z| < r from J's inertia, for a _self_adjoint table, or None.

    L, d and w2 are the table's _section at r: _jacobi's d_0 .. d_(N+1) and
    w_1^2 .. w_(N+1)^2 for the double L and eta, N >= 2; J_N is the leading
    N x N block.

    Operator identity.  m_n = L + n + 1 > 1/2 for n >= 1, so every w_n^2 >
    0, and J with w_n > 0 is a bounded self-adjoint operator on l^2,
    compact since its entries tend to 0; the nonzero zeros of g are the
    reciprocals of its eigenvalues, each simple (Ikebe, Math. Comp. 29,
    1975; Stampach and Stovicek, J. Math. Anal. Appl. 419, 2014).  With
    a = 1/r, the count is 1 + n+(J - a) + n-(J + a): the origin, the
    eigenvalues above a and those below -a (n+ and n- count the positive
    and negative eigenvalues).

    Tail.  Split J into J_N, the tail T (rows n >= N) and the coupling w_N
    between rows N-1 and N.  Each row of |T| sums to at most |d_n| + w_n +
    w_(n+1) for some n >= N, and |d_n| = |eta| / (m_n m_(n+1)) and w_n^2 =
    (1 + eta^2/m_n^2) / (4 m_n^2 - 1) decrease in n while m_n > 1/2, so
    ||T|| <= t = |d_N| + w_N + w_(N+1).  The same monotonicity bounds the
    row sums of |J_N| by G = |d_0| + |d_1| + 2 w_1.

    Bracket.  If t < a, T - a is negative definite, and Haynsworth's inertia
    additivity (Linear Algebra Appl. 1, 1968) gives n+(J - a) = n+(S) for
    the Schur complement S = J_N - a + sigma e e^T, e the last unit
    vector, sigma = w_N^2 <f, (a - T)^-1 f> in (0, delta], delta = w_N^2 /
    (a - t).  J_N is a compression of J, and by Cauchy interlacing and
    Weyl's monotonicity n+(J_N - a) <= n+(J - a) <= n+(J_N + delta e e^T -
    a).  The side -a is the same with -delta: n-(J_N + a) <= n-(J + a) <=
    n-(J_N - delta e e^T + a).  The bump changes only the last pivot of
    _sturm, and n+(M - x) = N - (the eigenvalues of M at or below x).

    Rounding (u = eps/2; first-order bounds, whose higher-order terms are
    below 1e-3 of them while the bounds are below 1e-3).  _jacobi's m_n =
    fl(fl(L + n) + 1) lies within 2u m_n (|L + n| < m_n; fl(L + 1) is exact
    or within u), so d_n lies within 6u = 3 eps.  In w_n^2, m^2 + eta^2
    lies within 6u, the denominator within 11u + 4 c_1 u, c_1 = m_1 /
    (2 m_1 - 1) >= m_n / (2 m_n - 1) bounding the cancellation in 2m - 1,
    so w_n^2 lies within (9 + 2 c_1) eps.  Kahan's bound ("Accurate
    eigenvalues of a symmetric tridiagonal matrix", 1966; Demmel, Applied
    Numerical Linear Algebra, 1997, section 5.3.4): the computed Sturm count
    at a double x is the exact count for the same diagonal with each w_n^2
    moved by its pivot step's roundings, 2 eps relative here, where w_n^2
    is data (about 2.5 units of roundoff on w_n where w_n is squared in
    the loop).  So each count is exact for a matrix within (5.5 + c_1) eps
    of J_N entrywise, and by Weyl's inequality its eigenvalues lie within
    (5.5 + c_1) eps G of J_N's.  epsilon = (22 + 2c) eps, c = 1 + 1 / (2L
    + 3) = 2 c_1, is four times that, and kappa = epsilon (G + delta) +
    2 eps a + 2^-1022 also covers the rounding of the bumped entry d_(N-1)
    +- delta, of a = 1/r and of a +- kappa, of G and of kappa, and the
    absolute error, 2^-1074 at most, of an underflow in _jacobi or a pivot.
    t and delta are rounded up by (1 + epsilon), and a - t down by 2 eps a.

    So N - nu(a + kappa) <= n+(J - a) <= N - nu+(a - kappa) and
    nu(-a - kappa) <= n-(J + a) <= nu-(kappa - a), nu being _sturm on J_N,
    and nu+ and nu- on J_N with d_(N-1) +- delta: four O(N) sweeps in plain
    floats.  None when a bracket stays open (a zero of g within about kappa
    r^2 of the circle, or a bump that reaches a pivot), when t >= a (the
    section is too short for r), on a zero pivot, or when epsilon >= 1e-3
    (L within about 1e-13 of -3/2).
    """
    n = d.size - 2
    a = 1 / r
    epsilon = (22 + 2 * (1 + 1 / (2 * L + 3))) * _EPS
    if not epsilon < 1e-3:
        return None
    d, w2 = d.tolist(), w2.tolist()
    tail = (abs(d[n]) + math.sqrt(w2[n - 1]) + math.sqrt(w2[n])) * (1 + epsilon)
    gap = (a - tail) - 2 * _EPS * a
    if not gap > 0:
        return None
    bump = w2[n - 1] * (1 + epsilon) / gap
    kappa = (epsilon * (abs(d[0]) + abs(d[1]) + 2 * math.sqrt(w2[0]) + bump)
             + 2 * _EPS * a + sys.float_info.min)
    if not math.isfinite(kappa):
        return None
    plain, w2 = d[:n], w2[:n - 1]
    up, down = plain[:-1] + [plain[-1] + bump], plain[:-1] + [plain[-1] - bump]
    try:
        above = n - _sturm(plain, w2, a + kappa), n - _sturm(up, w2, a - kappa)
        below = _sturm(plain, w2, -a - kappa), _sturm(down, w2, kappa - a)
    except ZeroDivisionError:
        return None
    if above[0] != above[1] or below[0] != below[1]:
        return None
    return 1 + above[0] + below[0]


def find_zeros(
    params: CoulombParams, trust_radius: float, tol: float = DEFAULT_TOL
) -> ZeroSet:
    """Locate every zero of g with 0 < |rho| <= trust_radius.

    The origin zero is structural (g(z) = z + ...) and is not listed.  The
    table whose tail on |z| = R is below tol is built first (tol sizes that
    table alone; it gives the residuals and truncation_order).  The zero
    count over the trust circle is proven next, by _zero_count (see there),
    except that a _self_adjoint table goes straight to _inertia_count on its
    _section, the one that eigvalsh then solves.  An unproven count raises
    WindingMismatch, and a count of 1 lists no zero.

    The zeros are then the 1/lambda for the eigenvalues lambda of the
    Jacobi matrix J_N, the leading N x N block of the table's _section at R,
    with |lambda| R >= 1: one eigensolve, chosen by the table.  A complex
    table takes np.linalg.eigvals on the complex symmetric J.  A
    _self_adjoint table takes np.linalg.eigvalsh, and when eta = 0, where g
    is odd, lists +-1/lambda over the positive lambda, so that each zero's
    negative has the same bits.  A real table with L < -3/2, where some
    w_n^2 < 0, takes np.linalg.eigvals on the real tridiagonal with |w_n|
    above the diagonal and sign(w_n^2) |w_n| below it, which is similar to
    J: its real zeros have imaginary part 0.0 and its conjugate pairs are
    exact.  An eigensolver that fails raises NoConvergence.

    The list plus the origin must match the count, or WindingMismatch.
    Zeros are sorted by modulus, ties broken by principal-branch argument,
    and each residual is _refine_mp's: |g| by the table's Horner, within
    2.5 eps mu of |g| on the double coefficients, possibly 0.0, and not a
    distance to g's zero.
    """
    trust_radius = _check_radius("trust_radius", trust_radius)
    table = table_for_radius(params, trust_radius, tol)
    symmetric = _self_adjoint(table)
    L, d, w2 = _section(table, trust_radius)
    count = _inertia_count(L, d, w2, trust_radius) if symmetric else _zero_count(table, trust_radius)
    if count is None:
        raise WindingMismatch(f"winding count over |z| = {trust_radius} is unproven")
    if count == 1:
        return ZeroSet(params, trust_radius, table.order, (), ())
    d, w2 = d[:-2], w2[:-2]
    if table.is_real:
        upper = np.sqrt(np.abs(w2))
        lower = np.sign(w2) * upper
    else:
        upper = lower = np.sqrt(w2)
    jacobi = np.diag(d) + np.diag(upper, 1) + np.diag(lower, -1)
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
    factor is still moving the product, not a rigorous bound.  An n_product
    that is not an integer in [0, len(zeros)] raises InvalidParams (numpy
    integers pass), a z that is not finite raises DomainError, and a
    product or error that overflows raises NoConvergence.
    """
    n_product = _checked_int("n_product", n_product, 0, len(zero_set.zeros))
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
