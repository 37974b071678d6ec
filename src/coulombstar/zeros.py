"""Zero location, the proven zero count, and the Hadamard product rebuild.

Zeros of the entire function g are counted first, by _arc_count, the one
count routine behind winding_number, find_zeros and starlike.certify:
Rouche's theorem against z proves a count of 1 in one comparison when
S(r) + tail0 < 2r, and otherwise the argument principle sums the
principal-angle steps of g between the routine's own samples, each arc
proven to keep g away from 0 by a bound on how far g moves along it.  For
real L and eta, g(conj z) = conj g(z), so arg g changes on the lower half
circle as it does on the upper half, and only the upper semicircle is
sampled.

For real L and eta, g is also real on the real axis, and find_zeros proves
the zeros from sign changes there: the count's first pass samples g on the
diameter [-R, R] as well, each sign proven by the count's own error model,
and when the sign changes (the origin's included) number the count, each
bracket holds exactly one simple zero and none lies off the axis.  Newton
in real floats from each bracket's regula-falsi point, then on compensated
residuals (_refine_mp's real kernel), finds it inside its bracket.  Like
the count, this proof does not cover the coefficients' own rounding yet.

Complex tables, and real tables whose bracket proof fails, are seeded once
by the roots of a short prefix of the series polynomial (companion-matrix
eigenvalues).  The prefix ends at the last term that still matters on
|z| = 1.05 R (_SEED_CUT); for real L and eta it goes to the real companion
matrix.  Either path polishes all its starts together, in phases of one
lockstep Newton loop each (_newton): first in doubles on the full series,
then, for every root that reaches the double target, on compensated
residuals (_refine_mp), where one batched _compensated_horner call per step
evaluates all the roots still moving, and a real zero is refined in real
arithmetic.  Only then are the roots checked: against their brackets, or
against the residual gate and the roots already kept.
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
    DEFAULT_TOL,
    CoefficientTable,
    ComplexValue,
    CoulombParams,
    _abs_sum,
    _horner,
    _tail_bounds,
    _weighted,
    table_for_radius,
)

_NEWTON_MAX_STEPS = 100
_REFINE_MAX_STEPS = 8
_DEDUP_SEPARATION = 1e-8
_RESIDUAL_FACTOR = 1e-10
# seed-polynomial cut: keep a_n while |a_n| (1.05 R)^n > _SEED_CUT * max
_SEED_CUT = 1e-9
_SEED_REACH = 1.05
_BRACKET_STEP = 0.5  # find_zeros' diameter scan: the most one step spans, the origin's aside
_NO_POINTS = np.empty(0)  # a complex table's diameter scan: the count's pass gains no point


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
_MAX_GROWTH = 50.0  # the ODE arc bound is used while e^(c s) stays below e^50


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
    arc's start.  inf where c s exceeds _MAX_GROWTH.
    """
    grow = c * length
    ode = u * np.expm1(np.minimum(grow, _MAX_GROWTH)) / c
    ode[grow > _MAX_GROWTH] = math.inf
    return ode


def _check_radius(name: str, radius: float, below: float = math.inf) -> None:
    """The radius rule of winding_number, find_zeros and starlike.ScanGrid: a
    normal double below `below`, since on a subnormal circle g_(k+1)/g_k overflows."""
    if not (sys.float_info.min <= radius < below):
        raise InvalidParams(f"{name} must be a normal double below {below}, got {radius!r}")


def _arc_count(table: CoefficientTable, tails, r: float, axis: np.ndarray | None = None):
    """Proven count of the zeros of g in |z| < r, for a normal double r.

    tails are _tail_bounds at r, and S is _abs_sum's.  First, Rouche's
    theorem against z: a_0 = 1, so |g(z) - z| <= S - r + tail0 on |z| = r,
    and S + tail0 < 2r leaves g only the origin's zero in the closed disk.
    Otherwise g is sampled at theta_k = 2 pi k / 720 (k <= 360 for a real
    table, see below) by _bounded_horner, err_k being its running rounding
    bound plus tail0, and u_k = |g_k| + |g'_k| + err_k + tail1 + 8 (order+2)
    eps M1 bounds the exact |g| + |g'| at the computed point, within 4 eps r
    of the circle (complex Horner rounds g' by about 5 (order+1) eps M1).  M1
    is _abs_sum's too, computed only once Rouche's test has failed, for this
    allowance alone.

    The path from one computed point along the circle to the next has
    length s <= r (width + 8 eps), and g moves along it by at most
    D_k = u_k expm1(c s) / c: |g| + |g'| grows at rate at most c, since
    z^2 g'' + 2 L z g' + (z^2 - 2 eta z - 2L) g = 0 gives
    |g''| <= a |g'| + b |g| with a = 2|L|/r, b = 1 + 2|eta|/r + 2|L|/r^2, so
    c = max(1 + a, b).  An arc is proven when |g_k| - err_k - err_(k+1) >
    2 D_k (the factor 2 also covers the path's 4 eps r excursions): then the
    exact g on it and both computed ends lie in one disk about g_k that
    excludes 0, so the principal angle of g_(k+1)/g_k is the true change of
    arg g, and the steps add up to exactly 2 pi times the count.

    For a real table, g(conj z) = conj g(z), so arg g changes along the
    lower half of the circle exactly as along the upper half: only the upper
    semicircle is sampled, from r to -r (both exact, on the real axis where
    the mirror image of the path begins and ends), and the steps add up to
    pi times the count.  Otherwise the samples run round the whole circle,
    and the last one repeats z = r, so the path closes exactly.

    One loop runs every pass, the first included: it adds up the angle
    steps of the arcs it closes and bisects the rest at their midpoints.
    None when an arc cannot close: a sample within 2 err of 0 (or not
    finite), a midpoint angle that rounds onto its arc's start, or over
    _MAX_CIRCLE_SAMPLES samples.  The proof does not cover the
    coefficients' own rounding yet.

    Given real points `axis` in [-r, r] (find_zeros' diameter scan of a real
    table), the first pass evaluates them in the same _bounded_horner call
    as the circle, and the result is (count, scan): scan is g there and its
    err (tail0 included), or None when Rouche's test settles the count.
    """
    # rho: each nonnegative term of the computed S carries |a_n| (hypot,
    # within 1 ulp: theta_2), Horner's theta_(2 order) (Higham 2002, eq. 5.3)
    # and the final * r, so S is exact within gamma_(2 order + 3) (Lemmas 3.1,
    # 3.3); the sum and product below round twice more.  gamma_k <= (k + 1) u
    # while k (k + 1) u <= 1, so rho = (2 order + 6) u = (order + 3) eps covers
    # gamma_(2 order + 5), with u S to spare for underflowed products (2^-1075
    # each, against a Horner sum of at least a_0 = 1); 1 + rho is a double.
    if (_abs_sum(table, r, 0) + tails[0]) * (1 + (table.order + 3) * _EPS) < 2 * r:
        return 1 if axis is None else (1, None)
    L, eta = abs(table.params.L), abs(table.params.eta)
    c = max(1 + 2 * L / r, 1 + 2 * eta / r + 2 * L / r / r)
    err_p = tails[1] + 8 * (table.order + 2) * _EPS * _abs_sum(table, r, 1)
    g_coeffs = (0.0,) + table.coeffs

    def evaluate(z, extra=None):
        """g, |g|, err and u on the circle points z, and g and err on `extra`."""
        points = z if extra is None else np.concatenate((z, extra))
        g, err = _bounded_horner(g_coeffs, points, r)
        err += tails[0]
        scan = None if extra is None else (g[z.size:].real, err[z.size:])
        g, err = g[:z.size], err[:z.size]
        size = np.abs(g)
        return g, size, err, size + np.abs(table.g_prime_values(z)) + err + err_p, scan

    real = table.is_real
    span, m = (np.pi, _CIRCLE_SAMPLES // 2) if real else (2 * np.pi, _CIRCLE_SAMPLES)
    theta, width = span * np.arange(m + 1) / m, np.full(m, span / m)
    z = r * np.exp(1j * theta)
    z[-1] = -r if real else r  # the path ends on the real axis, or where it began
    g, size, err, u, scan = evaluate(z, axis)
    theta, start, end, err, end_err = theta[:-1], g[:-1], g[1:], err[:-1], err[1:]
    size, u = size[:-1], u[:-1]
    total, count = 0.0, m + 1
    while True:
        closed = size - err - end_err > 2 * _ode_bound(u, r * (width + 8 * _EPS), c)
        total += float(np.angle(end[closed] / start[closed]).sum())
        if closed.all():
            turns = round(total / span)
            return turns if axis is None else (turns, scan)
        keep = ~closed
        theta, width, start, end, err, end_err, u, size = (
            x[keep] for x in (theta, width, start, end, err, end_err, u, size))
        width = width / 2
        mid = theta + width
        count += mid.size
        if (count > _MAX_CIRCLE_SAMPLES or not np.all(size > 2 * err)
                or np.any(mid == theta)):
            return None if axis is None else (None, None)
        g_mid, size_mid, err_mid, u_mid, _ = evaluate(r * np.exp(1j * mid))
        theta, width = np.concatenate((theta, mid)), np.concatenate((width, width))
        start, end = np.concatenate((start, g_mid)), np.concatenate((g_mid, end))
        size = np.concatenate((size, size_mid))
        err, end_err = np.concatenate((err, err_mid)), np.concatenate((err_mid, end_err))
        u = np.concatenate((u, u_mid))


def winding_number(table: CoefficientTable, radius: float) -> int:
    """Proven argument-principle count of the zeros of g in |z| < radius.

    The origin zero is included; _arc_count proves it by Rouche's theorem or
    from 720 samples with a running rounding bound.  InvalidParams for a
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


def _refine_mp(
    table: CoefficientTable, roots, real_coeffs: list[float] | None = None
) -> list[tuple[complex, float]]:
    """Compensated Newton from all of a table's double-Newton roots at once; (root, residual) each.

    One lockstep _newton of at most _REFINE_MAX_STEPS steps, g = z h from
    one batched _compensated_horner call per step and g' from the double
    table; the residual is the compensated |g| at the returned double.
    Given a real table's coefficients as floats (`real_coeffs`), a root
    within 1e-10 of the real axis, before or after the complex steps, is put
    on it and refined in real floats, h from the real kernel (same bits, a
    quarter of the products) and g' by Horner on the real derivative
    coefficients, since off the axis the update never rounds to no change;
    for real L > -1 every zero is real (Ikebe, Math. Comp. 29, 1975), so a
    near-real pair of seeds ends on one real zero.  (perfbench/crosscheck.py
    times the refinement under this name.)
    """
    def near_real(z):
        return real_coeffs is not None and abs(z.imag) <= 1e-10 * max(1.0, abs(z.real))

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
    table: CoefficientTable, count: int, axis: np.ndarray, scan, real_coeffs, target: float
) -> list[tuple[complex, float]] | None:
    """A real table's zeros from proven sign changes on the diameter, or None.

    scan is g and its err at the points `axis`, from _arc_count's first
    pass: the sign of g_j is proven when |g_j| > err_j, the count's own
    error model, tail0 included.  g is real on the real axis, so each pair
    of neighbouring points with opposite proven signs brackets an odd number
    of zeros; one of them holds the origin's.  When the proven count equals
    the number of sign changes, each bracket holds exactly one simple zero
    and no zero lies off the axis (no appeal to Ikebe's theorem).  A proven
    count of 1 lists no zero.  Every other bracket's zero is found by double
    Newton in real floats down to `target`, all in one lockstep _newton
    started from the regula-falsi points of the brackets' scan values; then
    one _refine_mp call refines them all in its real kernel, and each must
    land strictly inside its bracket.  None on any failure: an undecided
    sign, a count mismatch, a Newton run that stops short of `target`, or a
    root outside its bracket.  Like the count, the proof does not cover the
    coefficients' own rounding yet.
    """
    if count == 1:
        return []
    values, err = scan
    if not np.all(np.abs(values) > err):
        return None
    positive = values > 0
    changes = np.flatnonzero(positive[1:] != positive[:-1])
    if changes.size != count:
        return None
    real_prime = _weighted(real_coeffs, 1, table.order)
    xs, gs = axis.tolist(), values.tolist()
    origin = len(xs) // 2 - 1  # the bracket (-r/n, r/n)
    brackets = [(xs[j], xs[j + 1], gs[j], gs[j + 1]) for j in changes.tolist() if j != origin]
    roots = _newton(_pointwise(lambda x: x * _horner(real_coeffs, x)),
                    _pointwise(lambda x: _horner(real_prime, x)),
                    [a - ga * (b - a) / (gb - ga) for a, b, ga, gb in brackets],
                    _NEWTON_MAX_STEPS, target)
    if not all(size <= target for _, size in roots):
        return None
    refined = _refine_mp(table, [complex(x) for x, _ in roots], real_coeffs)
    if not all(a < root.real < b for (a, b, _, _), (root, _) in zip(brackets, refined)):
        return None
    return [(complex(root.real + 0.0, root.imag + 0.0), residual) for root, residual in refined]


def _companion_zeros(
    table: CoefficientTable, trust_radius: float, real_coeffs, target: float
) -> list[tuple[complex, float]]:
    """Zeros polished from the companion-matrix roots of h's prefix (see find_zeros)."""
    h = np.array(table.coeffs, dtype=complex)
    if real_coeffs is not None:
        h = h.real
    seeds = [complex(seed) for seed in _seed_roots(h, _seed_degree(h, trust_radius), trust_radius)
             if not abs(seed) > trust_radius * _SEED_REACH]
    roots = _newton(_pointwise(table.g_values), _pointwise(table.g_prime_values), seeds,
                    _NEWTON_MAX_STEPS, target)
    refined = _refine_mp(table, [root for root, size in roots if size <= target], real_coeffs)
    gate = _RESIDUAL_FACTOR * max(abs(c) for c in table.coeffs)
    found: list[tuple[complex, float]] = []
    for root, residual in refined:
        if residual <= gate and 0 < abs(root) <= trust_radius and all(
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
    zero is sought.  For real L and eta the count's first pass also samples
    g on the diameter [-R, R] (the points of _diameter), and
    _bracketed_zeros proves the zeros from the sign changes there: each
    lies in its own bracket, found by Newton in real floats and refined in
    the real compensated kernel, with no companion matrix, residual gate or
    dedup distance.  Like the count, that proof does not cover the
    coefficients' own rounding yet.

    Every other table, and a real table whose bracket proof fails (an
    undecided sign, fewer sign changes than the count, as with the conjugate
    pair of (-1.7, 0.5), or a root outside its bracket), takes the companion
    path, _companion_zeros.  Seeds are the roots of g = z h's cofactor h cut
    after its last term above _SEED_CUT of the largest on |z| = 1.05 R; for
    real L and eta that prefix is a float64 array, so np.roots takes
    LAPACK's real eigensolver.  The seeds within 1.05 R go through Newton
    in doubles down to max(tol, 8 eps S(R)), S(R) = sum |a_n| R^(n+1), and
    those that reach it through one compensated refinement, _refine_mp, of
    them all.  In seed order, a refined root is kept when its residual, the
    compensated |g| there, is at most 1e-10 max |a_n| (where 8 eps S(R) is
    large, double Newton can stop where g is not small), 0 < |rho| <= R,
    and it lies more than 1e-8 from every zero already kept.

    The list plus the origin must match the count, or WindingMismatch.
    Zeros are sorted by modulus, ties broken by principal-branch argument;
    each is the double that Newton on compensated residuals settles on (a
    real zero of a real table in the real kernel).
    """
    _check_radius("trust_radius", trust_radius)
    table = table_for_radius(params, trust_radius, tol)
    tails = _tail_bounds(table.coeffs, params, trust_radius)
    real = table.is_real
    axis = _diameter(trust_radius) if real else _NO_POINTS
    count, scan = (None, None) if tails is None else _arc_count(table, tails, trust_radius, axis)
    if count is None:
        raise WindingMismatch(f"winding count over |z| = {trust_radius} is unproven")
    real_coeffs = [c.real for c in table.coeffs] if real else None
    target = max(tol, 8 * _EPS * _abs_sum(table, trust_radius, 0))
    found = _bracketed_zeros(table, count, axis, scan, real_coeffs, target) if real else None
    if found is None:
        found = _companion_zeros(table, trust_radius, real_coeffs, target)
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
    L, eta = params.L, params.eta
    try:
        value = z * cmath.exp(eta * z / (L + 1))
        last_factor = 1.0 + 0.0j
        for rho in zero_set.zeros[:n_product]:
            last_factor = (1 - z / rho) * cmath.exp(z / rho)
            value *= last_factor
        abs_error = abs(value) * abs(last_factor - 1) if n_product >= 1 else 0.0
    except OverflowError:  # from cmath.exp; a product overflows to inf unraised
        value = abs_error = math.inf
    if not (cmath.isfinite(value) and math.isfinite(abs_error)):
        raise NoConvergence(f"the partial product overflows at z = {z!r}")
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
