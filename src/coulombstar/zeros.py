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

_arc_count returns one record, (count, scan, samples), to every caller.
For real L and eta, g is also real on the real axis, and find_zeros proves
the zeros from sign changes there: the count scans a real table's diameter
[-R, R] itself, in its first pass, each sign proven by the count's own
error model, and when the sign changes (the origin's included) number the
count, each bracket holds exactly one simple zero and none lies off the
axis.  Newton in real floats from each bracket's regula-falsi point, then
on compensated residuals (_refine_mp's real kernel), finds it inside its
bracket.  Like the count, this proof does not cover the coefficients' own
rounding yet.  A count of 1 lists no zero.

Complex tables, and real tables whose bracket proof fails, are seeded from
the count's own samples: its first pass has g and g' at 720 uniform points
of the circle (mirrored from the upper half for a real table), so the power
sums of the zeros follow from P = z g'/g by the argument principle and the
trapezoid rule (Delves and Lyness, Math. Comp. 21, 1967; Kravanja and Van
Barel, Computing the Zeros of Analytic Functions, LNM 1727, 2000), and
Newton's identities turn them into a polynomial of degree count - 1 whose
roots are the seeds (_moment_seeds).  When the zeros these seeds give, plus
the origin, miss the proven count, as when a zero lies within about 0.5 %
of the circle, the seeds are instead the roots of a short prefix of the
series polynomial (companion-matrix eigenvalues), as before the moments:
the prefix ends at the last term that still matters on |z| = 1.05 R
(_SEED_CUT), and for real L and eta it goes to the real companion matrix.
Every path polishes all its starts together, in phases of one lockstep
Newton loop each (_newton): first in doubles on the full series, then, for
every root that reaches the double target, on compensated residuals
(_refine_mp), where one batched _compensated_horner call per step evaluates
all the roots still moving, and a real zero is refined in real arithmetic.
Only then are the roots checked: against their brackets, or against the
residual gate, the origin and the roots already kept.
An unproven count, or a list that disagrees with it, raises
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

import numpy as np

from .errors import DomainError, InvalidParams, NoConvergence, WindingMismatch
from .series import (
    _EPS,
    _ORDER_SCHEDULE,
    DEFAULT_TOL,
    CoefficientTable,
    ComplexValue,
    CoulombParams,
    _abs_sum,
    _grow_table,
    _horner,
    _tail_bounds,
    _weighted,
)

_NEWTON_MAX_STEPS = 100
_REFINE_MAX_STEPS = 8
_DEDUP_SEPARATION = 1e-8
_RESIDUAL_FACTOR = 1e-10
# seed-polynomial cut: keep a_n while |a_n| (1.05 R)^n > _SEED_CUT * max
_SEED_CUT = 1e-9
_SEED_REACH = 1.05
_BRACKET_STEP = 0.5  # find_zeros' diameter scan: the most one step spans, the origin's aside


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


def _arc_count(table: CoefficientTable, tails, r: float):
    """The proven count of the zeros of g in |z| < r, for a normal double r, as (count, scan, samples).

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

    The one record serves every caller.  samples is P = z g'/g at the 720
    points z = r e^(2 pi i k / 720) of the first pass (for a real table its
    361 upper points, the lower ones by P(conj z) = conj P(z)), for
    _moment_seeds.  For a real table the first pass also scans the diameter
    itself, in the same _bounded_horner call as the circle: scan is
    (x, g, err) at the points x of _diameter(r), err with tail0 included,
    for _bracketed_zeros; None for a complex table.  scan and samples are
    None when Rouche's test settles the count, and all three when the count
    is unproven.
    """
    # rho: each nonnegative term of the computed S carries |a_n| (hypot,
    # within 1 ulp: theta_2), Horner's theta_(2 order) (Higham 2002, eq. 5.3)
    # and the final * r, so S is exact within gamma_(2 order + 3) (Lemmas 3.1,
    # 3.3); the sum and product below round twice more.  gamma_k <= (k + 1) u
    # while k (k + 1) u <= 1, so rho = (2 order + 6) u = (order + 3) eps covers
    # gamma_(2 order + 5), with u S to spare for underflowed products (2^-1075
    # each, against a Horner sum of at least a_0 = 1); 1 + rho is a double.
    if (_abs_sum(table, r, 0) + tails[0]) * (1 + (table.order + 3) * _EPS) < 2 * r:
        return 1, None, None
    L, eta = abs(table.params.L), abs(table.params.eta)
    c = max(1 + 2 * L / r, 1 + 2 * eta / r + 2 * L / r / r)
    err_p = tails[1] + 8 * (table.order + 2) * _EPS * _abs_sum(table, r, 1)
    g_coeffs = (0.0,) + table.coeffs

    def evaluate(theta, z, extra=None):
        """The samples at the angles theta, points z, as rows theta, z, g, g', err and u (the
        real ones stored as complex), and (extra, g, err) on the real points extra."""
        points = z if extra is None else np.concatenate((z, extra))
        g, err = _bounded_horner(g_coeffs, points, r)
        err += tails[0]
        scan = None if extra is None else (extra, g[z.size:].real, err[z.size:])
        g, err = g[:z.size], err[:z.size]
        g_prime = table.g_prime_values(z)
        u = np.abs(g) + np.abs(g_prime) + err + err_p
        return np.array((theta, z, g, g_prime, err, u)), scan

    real = table.is_real
    span, m = (np.pi, _CIRCLE_SAMPLES // 2) if real else (2 * np.pi, _CIRCLE_SAMPLES)
    theta = span * np.arange(m + 1) / m
    z = r * np.exp(1j * theta)
    z[-1] = -r if real else r  # the path ends on the real axis, or where it began
    first, scan = evaluate(theta, z, _diameter(r) if real else None)
    with np.errstate(all="ignore"):  # a zero sample leaves the count unproven anyway
        p = z * first[3] / first[2]
    # P(conj z) = conj P(z) fills in the lower half circle; a full circle repeats z = r
    samples = np.concatenate((p, np.conj(p[-2:0:-1]))) if real else p[:-1]
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
            return round(total / span), scan, samples
        keep = ~closed
        theta = theta[keep]
        mid = theta + (end_theta[keep] - theta) / 2
        count += mid.size
        if (count > _MAX_CIRCLE_SAMPLES or not np.all(size[keep] > 2 * err[keep])
                or np.any(mid == theta)):
            return None, None, None
        middle, _ = evaluate(mid, r * np.exp(1j * mid))
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
    count = _arc_count(table, tails, radius)[0]
    if count is None:
        raise NoConvergence(f"winding count on |z| = {radius} cannot be proven")
    return count


def _newton(g, g_prime, starts, steps: int, target: float = 0.0) -> list[tuple[complex, float]]:
    """Newton steps z <- z - g(z)/g'(z) from every start in lockstep; (best iterate, its |g|) each.

    g and g_prime map a list of points to the list of their values, so that
    one call of a batched kernel (_compensated_horner) serves every point
    still moving.  Each point keeps its own steps and stopping rules: it
    stops once its |g| <= target, when its g' vanishes, when its update
    rounds to no change or leaves the finite doubles, or after `steps`
    steps, while the others go on.  Its returned iterate is the one of
    smallest |g| it met, so each start ends with the bits it has alone.
    """
    z = list(starts)
    values = g(z) if z else []
    best = [(w, abs(value)) for w, value in zip(z, values)]
    live = range(len(z))
    for _ in range(steps):
        live = [k for k in live if not abs(values[k]) <= target]
        if not live:
            break
        moved = []
        for k, slope in zip(live, g_prime([z[k] for k in live])):
            if slope == 0:
                continue
            nxt = z[k] - values[k] / slope
            if nxt == z[k] or not (math.isfinite(nxt.real) and math.isfinite(nxt.imag)):
                continue
            z[k] = nxt
            moved.append(k)
        if not moved:
            break
        for k, value in zip(moved, g([z[k] for k in moved])):
            values[k] = value
            if abs(value) < best[k][1]:
                best[k] = (z[k], abs(value))
        live = moved
    return best


def _pointwise(f):
    """_newton's list form of a function of one point."""
    return lambda points: [f(z) for z in points]


_SPLITTER = 134217729.0  # 2**27 + 1, Dekker's splitting constant for doubles


@functools.lru_cache(maxsize=4)
def _lanes(coeffs: tuple) -> tuple[list[tuple[float, float]], np.ndarray]:
    """coeffs in Horner order, last first, as (re, im) floats and as a (2, 1, n) array.

    Cached, since _refine_mp calls _compensated_horner on one table once per step.
    """
    a = np.array(coeffs[::-1], dtype=complex)
    return [(c.real, c.imag) for c in reversed(coeffs)], a.view(float).reshape(-1, 2).T[:, None]


def _compensated_horner(coeffs, points) -> list[complex]:
    """sum_n coeffs[n] z^n at each z of `points`, as accurate as Horner in twice double precision.

    Compensated complex Horner (Graillat, Langlois and Louvet 2005; Graillat
    and Menissier-Morain 2008): each step s_k = s_(k+1) z + a_k is split by
    error-free transformations, TwoProduct for its four real products
    through Dekker's split (there is no math.fma before Python 3.13) and
    Knuth's TwoSum for its four sums, and their rounding errors e_k are
    summed by a second Horner recurrence c_k = c_(k+1) z + e_k.  The result
    s_0 + c_0 is within about eps |h| + (4 n eps)^2 sum |a_n| |z|^n of the
    exact value for double coefficients.

    Each e_k is exact and depends only on s_(k+1), z and a_k, so the points
    are evaluated together, in three passes: per point, the plain Horner
    recurrence records every s_(k+1); one numpy pass on float64 arrays
    (re and im, points, steps) forms every step's errors; per point, the
    correction Horner adds them up in the step-by-step order, so each result
    has the bits of the kernel run one point and one step at a time.  The
    first pass runs in explicit float operations, since the errors are those
    of separately rounded products: numpy's complex multiply fuses them into
    FMA on some CPUs, and CPython's complex product is C code that a
    compiler may contract.  The correction pass uses Python complex
    arithmetic, where a fused product would move only the correction's own
    rounding.
    """
    lanes, a = _lanes(tuple(coeffs))
    points = [complex(z) for z in points]
    factors, record, ends = [], [], []
    keep = record.append
    for z in points:
        x, y = z.real, z.imag
        t = _SPLITTER * x
        xh = t - (t - x)
        t = _SPLITTER * y
        yh = t - (t - y)
        xl, yl = x - xh, y - yh
        factors.append((x, y, y, x, xh, yh, yh, xh, xl, yl, yl, xl))
        sr = si = 0.0
        for ar, ai in lanes:
            keep(sr)
            keep(si)
            sr, si = sr * x - si * y + ar, sr * y + si * x + ai
        keep(sr)
        keep(si)
        ends.append((sr, si))
    # s[lane, point, k]: the re or im lane of s entering Horner step k, and leaving step k - 1
    s = np.array(record, dtype=float).reshape(len(points), len(lanes) + 1, 2).transpose(2, 0, 1)
    s_in, s_out = s[:, :, :-1], s[:, :, 1:]
    # f[lane, part, point]: the factor of s's lane in the real or imaginary
    # part of s z, [[x, y], [y, x]] for p1 = sr x, p3 = sr y, p2 = si y, p4 = si x
    f, fh, fl = np.array(factors, dtype=float).reshape(-1, 3, 2, 2).transpose(1, 2, 3, 0)[..., None]
    with np.errstate(all="ignore"):  # an overflowing step gets the same inf and nan
        t = _SPLITTER * s_in
        sh = t - (t - s_in)
        sl = (s_in - sh)[:, None]
        sh = sh[:, None]
        p = s_in[:, None] * f
        e = sl * fl - (((p - sh * fh) - sl * fh) - sh * fl)
        # p1 - p2 as p1 + (-p2), and e1 - e2 as e1 + (-e2): the same bits
        np.negative(p[1, 0], out=p[1, 0])
        np.negative(e[1, 0], out=e[1, 0])
        u, v = p
        q = u + v
        b = q - u
        # e1 - e2 + e5 + e7 and e3 + e4 + e6 + e8, summed left to right as
        # the step-by-step kernel sums them; e7, e8 are the errors of q + a
        err = (e[0] + e[1]) + ((u - (q - b)) + (v - b))
        b = s_out - q
        err += (q - (s_out - b)) + (a - b)
    corr = np.empty(err.shape[1:], dtype=complex)
    corr.real, corr.imag = err
    out = []
    for z, row, (sr, si) in zip(points, corr.tolist(), ends):
        c = 0j
        for e_k in row:
            c = c * z + e_k
        out.append(complex(sr + c.real, si + c.imag))
    return out


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


def _refine_mp(table: CoefficientTable, roots) -> list[tuple[complex, float]]:
    """Compensated Newton from all of a table's double-Newton roots at once; (root, residual) each.

    One lockstep _newton of at most _REFINE_MAX_STEPS steps, g = z h from
    one batched _compensated_horner call per step and g' from the double
    table; the residual is the compensated |g| at the returned double.
    For a real table, a root within 1e-10 of the real axis, before or after
    the complex steps, is put on it and refined in real floats, h from the
    real kernel on the coefficients as floats (same bits, a quarter of the
    products) and g' by Horner on the real derivative coefficients, since
    off the axis the update never rounds to no change;
    for real L > -1 every zero is real (Ikebe, Math. Comp. 29, 1975), so a
    near-real pair of seeds ends on one real zero.  (perfbench/crosscheck.py
    times the refinement under this name.)
    """
    def near_real(z):
        return table.is_real and abs(z.imag) <= 1e-10 * max(1.0, abs(z.real))

    def g(points):
        return [z * h for z, h in zip(points, _compensated_horner(table.coeffs, points))]

    refined = [None] * len(roots)
    off = [k for k, root in enumerate(roots) if not near_real(root)]
    polished = _newton(g, _pointwise(table.g_prime_values), [roots[k] for k in off],
                       _REFINE_MAX_STEPS)
    for k, pair in zip(off, polished):
        refined[k] = pair
    on = [k for k, pair in enumerate(refined) if pair is None or near_real(pair[0])]
    if on:
        real_coeffs = [c.real for c in table.coeffs]
        real_prime = _weighted(real_coeffs, 1, table.order)
        starts = [(roots[k] if refined[k] is None else refined[k][0]).real for k in on]
        polished = _newton(_pointwise(lambda x: x * _compensated_horner_real(real_coeffs, x)),
                           _pointwise(lambda x: _horner(real_prime, x)), starts,
                           _REFINE_MAX_STEPS)
        for k, (x, residual) in zip(on, polished):
            refined[k] = (complex(x, 0.0), residual)
    return refined


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


def _diameter(r: float) -> np.ndarray:
    """The real points x_k = r k / n, k = -n .. n but 0, n = ceil(r / _BRACKET_STEP).

    k / n rounds to at most 1, so every point lies in [-r, r], the ends are
    -r and r exactly, and the points increase with k.  Neighbours lie at
    most _BRACKET_STEP apart, but for the origin's bracket (-r/n, r/n).
    """
    n = math.ceil(r / _BRACKET_STEP)
    k = np.arange(-n, n + 1)
    return r * (k[k != 0] / n)


def _bracketed_zeros(
    table: CoefficientTable, count: int, scan, target: float
) -> list[tuple[complex, float]] | None:
    """A real table's count - 1 zeros from proven sign changes on the diameter, or None.

    scan is (x, g, err) at the points x of _diameter, from _arc_count's
    first pass: the sign of g_j is proven when |g_j| > err_j, the count's own
    error model, tail0 included.  g is real on the real axis, so each pair
    of neighbouring points with opposite proven signs brackets an odd number
    of zeros; one of them holds the origin's.  When the proven count equals
    the number of sign changes, each bracket holds exactly one simple zero
    and no zero lies off the axis (no appeal to Ikebe's theorem).  Every
    bracket's zero but the origin's is found by double Newton in real floats
    down to `target`, all in one lockstep _newton started from the
    regula-falsi points of the brackets' scan values; then
    one _refine_mp call refines them all in its real kernel, and each must
    land strictly inside its bracket.  None on any failure: an undecided
    sign, a count mismatch, a Newton run that stops short of `target`, or a
    root outside its bracket.  Like the count, the proof does not cover the
    coefficients' own rounding yet.
    """
    points, values, err = scan
    if not np.all(np.abs(values) > err):
        return None
    positive = values > 0
    changes = np.flatnonzero(positive[1:] != positive[:-1])
    if changes.size != count:
        return None
    real_coeffs = [c.real for c in table.coeffs]
    real_prime = _weighted(real_coeffs, 1, table.order)
    xs, gs = points.tolist(), values.tolist()
    origin = len(xs) // 2 - 1  # the bracket (-r/n, r/n)
    brackets = [(xs[j], xs[j + 1], gs[j], gs[j + 1]) for j in changes.tolist() if j != origin]
    roots = _newton(_pointwise(lambda x: x * _horner(real_coeffs, x)),
                    _pointwise(lambda x: _horner(real_prime, x)),
                    [a - ga * (b - a) / (gb - ga) for a, b, ga, gb in brackets],
                    _NEWTON_MAX_STEPS, target)
    if not all(size <= target for _, size in roots):
        return None
    refined = _refine_mp(table, [complex(x) for x, _ in roots])
    if not all(a < root.real < b for (a, b, _, _), (root, _) in zip(brackets, refined)):
        return None
    return refined


def _moment_seeds(samples: np.ndarray, count: int, r: float, real: bool) -> np.ndarray:
    """Seeds for the count - 1 zeros of g in 0 < |z| < r, from P = z g'/g at 720 points on |z| = r.

    By the argument principle, sum rho^k over the zeros in |z| < r is
    (1/2 pi i) times the integral of z^k g'/g dz on the circle, that is r^k
    times the mean of e^(i k theta) P over theta: the trapezoid rule on the
    uniform samples gives it as ifft(P)[k] r^k (Delves and Lyness, Math.
    Comp. 21, 1967).  So m_k = ifft(P)[k] is sum (rho/r)^k, the origin
    adding nothing for k >= 1, and Newton's identities turn m_1 ..
    m_(count-1) into the monic polynomial whose roots are the rho/r.  The
    rule loses accuracy as a zero nears the circle, from either side; the
    seeds are then poor, and find_zeros' count check falls back to the
    companion matrix.  For a real table (`real`) the mirrored samples make
    the moments real up to rounding, and their real parts are taken, so
    that np.roots pairs the seeds exactly.  No seeds when the polynomial is
    not finite.
    """
    with np.errstate(all="ignore"):
        m = np.fft.ifft(samples)[1:count]
        if real:
            m = m.real
        c = np.zeros(count, dtype=m.dtype)
        c[0] = 1.0
        for k in range(1, count):  # k c_k = -(c_(k-1) m_1 + ... + c_0 m_k)
            c[k] = -np.dot(c[k - 1::-1], m[:k]) / k
        if not np.all(np.isfinite(c)):
            return np.empty(0)
        return r * np.roots(c)


def _polish(
    table: CoefficientTable, seeds, trust_radius: float, target: float
) -> list[tuple[complex, float]]:
    """The zeros that one set of seeds polishes into (see find_zeros)."""
    seeds = [complex(seed) for seed in seeds if not abs(seed) > trust_radius * _SEED_REACH]
    roots = _newton(_pointwise(table.g_values), _pointwise(table.g_prime_values), seeds,
                    _NEWTON_MAX_STEPS, target)
    refined = _refine_mp(table, [root for root, size in roots if size <= target])
    gate = _RESIDUAL_FACTOR * max(abs(c) for c in table.coeffs)
    found: list[tuple[complex, float]] = []
    for root, residual in refined:
        # the origin is not listed: it counts as a zero already kept
        if residual <= gate and _DEDUP_SEPARATION < abs(root) <= trust_radius and all(
            abs(root - kept) > _DEDUP_SEPARATION for kept, _ in found
        ):
            # normalize signed zeros so sort order does not depend on -0.0
            found.append((complex(root.real + 0.0, root.imag + 0.0), residual))
    return found


def find_zeros(
    params: CoulombParams, trust_radius: float, tol: float = DEFAULT_TOL
) -> ZeroSet:
    """Locate every zero of g with 0 < |rho| <= trust_radius.

    The origin zero is structural (g(z) = z + ...) and is excluded from the
    list; the zero count over the trust circle is proven first, by
    _arc_count, and an unproven count raises WindingMismatch before any
    zero is sought; a count of 1 lists no zero.  The count comes as one
    record: for real L and eta, _arc_count scans the table's diameter
    [-R, R] itself (the points of _diameter) in its first pass, and
    _bracketed_zeros proves the zeros from the sign changes there: each
    lies in its own bracket, found by Newton in real floats and refined in
    the real compensated kernel, with no companion matrix, residual gate or
    dedup distance.  Like the count, that proof does not cover the
    coefficients' own rounding yet.

    Every other table, and a real table whose bracket proof fails (an
    undecided sign, fewer sign changes than the count, as with the conjugate
    pair of (-1.7, 0.5), or a root outside its bracket), is seeded next
    from the roots of a polynomial of degree count - 1 built from the
    moments of P = z g'/g on the count's 720 circle samples (_moment_seeds,
    after Delves and Lyness 1967).  When the list they give plus the origin
    misses the count, the seeds are instead the companion-matrix roots
    (_seed_roots) of g = z h's cofactor h cut after its last term above
    _SEED_CUT of the largest on |z| = 1.05 R; for real L and eta that prefix
    is a float64 array, so np.roots takes LAPACK's real eigensolver.  Either
    way, the seeds within 1.05 R go through Newton in doubles down to
    max(tol, 8 eps S(R)), S(R) = sum |a_n| R^(n+1), and those that reach it
    through one compensated refinement, _refine_mp, of them all.  In seed
    order, a refined root is kept when its residual, the compensated |g|
    there, is at most 1e-10 max |a_n| (where 8 eps S(R) is large, double
    Newton can stop where g is not small), |rho| <= R, and it lies more than
    1e-8 from the origin and from every zero already kept.

    The list plus the origin must match the count, or WindingMismatch.
    Zeros are sorted by modulus, ties broken by principal-branch argument;
    each is the double that Newton on compensated residuals settles on (a
    real zero of a real table in the real kernel).
    """
    _check_radius("trust_radius", trust_radius)
    table, tails = _grow_table(params, trust_radius, _ORDER_SCHEDULE, tol)
    count, scan, samples = _arc_count(table, tails, trust_radius)
    if count is None:
        raise WindingMismatch(f"winding count over |z| = {trust_radius} is unproven")
    if count == 1:
        return ZeroSet(params, trust_radius, table.order, (), ())
    target = max(tol, 8 * _EPS * _abs_sum(table, trust_radius, 0))
    found = None if scan is None else _bracketed_zeros(table, count, scan, target)
    if found is None:
        found = _polish(table, _moment_seeds(samples, count, trust_radius, table.is_real),
                        trust_radius, target)
    if len(found) + 1 != count:
        h = np.array(table.coeffs, dtype=complex)
        if table.is_real:
            h = h.real
        seeds = _seed_roots(h, _seed_degree(h, trust_radius), trust_radius)
        found = _polish(table, seeds, trust_radius, target)
    if len(found) + 1 != count:
        raise WindingMismatch(
            f"winding count over |z| = {trust_radius} is {count}, against "
            f"{len(found)} listed zeros plus the origin"
        )
    found.sort(key=lambda pair: (abs(pair[0]), cmath.phase(pair[0])))
    zeros, residuals = zip(*found)
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
