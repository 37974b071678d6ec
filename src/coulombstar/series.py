"""Power-series core for the regular Coulomb wave function.

The central object is the entire, normalized function

    g(z) = sum_{n>=0} a_n z^{n+1},

with coefficients generated by the three-term recurrence

    a_0 = 1,   a_1 = eta/(L+1),
    a_n = (2*eta*a_{n-1} - a_{n-2}) / (n*(n + 2L + 1))    for n >= 2.

The physical (regular) wave function is recovered as

    F(z) = C(L, eta) * z^L * g(z),

where C is the usual normalization constant built from the complex gamma
function.  The truncation error is bounded by an explicit geometric
majorization of the recurrence.  An evaluation's abs_error covers that
truncation (and, for eval_f, the gamma factor) but not yet the
floating-point rounding of the recurrence and of Horner's scheme, so it
can fall short of the true error.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import sys
from dataclasses import dataclass

from .errors import BranchPoint, DomainError, InvalidParams, NoConvergence, PoleError

# Hard cap on the series truncation order; requests that cannot be certified
# below tolerance by this order raise NoConvergence.
MAX_ORDER = 500

# Truncation orders tried by every adaptive table, in increasing size; only
# _Growth.first_order reads them, when it is called.
_ORDER_SCHEDULE = (16, 24, 36, 54, 81, 122, 183, 275, 413, MAX_ORDER)

DEFAULT_TOL = 1e-12


def _is_nonpositive_integer(w: complex) -> bool:
    return w.imag == 0.0 and w.real <= 0.0 and w.real == round(w.real)


@dataclass(frozen=True)
class CoulombParams:
    """Validated parameter pair (L, eta).

    Construction rejects the polar set of the coefficient recurrence: the
    recurrence denominators n*(n + 2L + 1) for n >= 2, the first-coefficient
    denominator L + 1, and the gamma argument 2L + 2 all stay away from zero
    exactly when 2L + 2 is not a nonpositive integer.
    """

    L: complex
    eta: complex

    def __post_init__(self) -> None:
        L = complex(self.L)
        eta = complex(self.eta)
        for name, w in (("L", L), ("eta", eta)):
            if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                raise InvalidParams(f"{name} must be finite, got {w!r}")
        if _is_nonpositive_integer(2 * L + 2):
            raise InvalidParams(
                f"L = {L!r} puts 2L+2 on the nonpositive integers; the "
                "recurrence denominators vanish there"
            )
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "eta", eta)

    def to_jsonable(self) -> dict:
        return {
            "L": {"re": self.L.real, "im": self.L.imag},
            "eta": {"re": self.eta.real, "im": self.eta.imag},
        }


@dataclass(frozen=True)
class ComplexValue:
    """An evaluation result together with an absolute error bound, abs_error >= 0.

    What abs_error covers depends on the producer, and each producer's
    docstring states it: eval_g's covers truncation only, gamma_complex's
    rests on an assumed accuracy of mpmath's gamma, and
    zeros.weierstrass_eval's is a heuristic, not a bound.
    """

    value: complex
    abs_error: float

    def __post_init__(self) -> None:
        if not self.abs_error >= 0:  # NaN fails too
            raise ValueError("abs_error must be nonnegative")


def _recurrence_coefficients(
    params: CoulombParams, order: int, coeffs: list[complex] | None = None
) -> list[complex]:
    """a_0 .. a_order (order >= 1); extends the prefix `coeffs` in place when given."""
    L, eta = params.L, params.eta
    if coeffs is None:
        coeffs = [complex(1.0), eta / (L + 1)]
    two_L, two_eta = 2 * L, 2 * eta
    prev, last = coeffs[-2], coeffs[-1]
    for n in range(len(coeffs), order + 1):
        prev, last = last, (two_eta * last - prev) / (n * (n + two_L + 1))
        coeffs.append(last)
    return coeffs


_LEAST = math.ulp(0.0)  # floor of a positive tail bound that underflows


def _tail_bounds(
    coeffs: list[complex], params: CoulombParams, radius: float
) -> tuple[float, float, float] | None:
    """Geometric tail bounds after truncation at N = len(coeffs) - 1.

    Writing t_n = |a_n| r^{n+1}, the recurrence gives
        t_n <= q * max(t_{n-1}, t_{n-2})  for all n > N,
    with q = (2|eta| r + r^2) / ((N+1) * (N+1 - |2L+1|)),
    because the denominators n*|n + 2L + 1| only grow past that point.
    Pairs of successive tail terms then decay geometrically, which yields
    closed-form bounds for the tails of g, g' and g''.  For r > 0 no bound
    is 0: one that underflows is floored at the least subnormal.  Returns
    None when the majorization does not certify (q >= 1 or N too small).
    """
    N = len(coeffs) - 1
    r = radius
    B = abs(2 * params.L + 1)
    if N + 1 <= B or N < 1:
        return None
    q = (2 * abs(params.eta) * r + r * r) / ((N + 1) * (N + 1 - B))
    if q >= 1.0:
        return None
    if r == 0.0:
        return (0.0, 0.0, 0.0)
    try:
        a_last, a_prev = abs(coeffs[N]), abs(coeffs[N - 1])
        mu = max(a_last * r ** (N + 1), a_prev * r**N)
        if mu >= sys.float_info.min:
            mu1, mu2 = mu / r, mu / r / r
        else:  # mu has lost bits to underflow: divide r out of the powers instead
            mu1 = max(a_last * r**N, a_prev * r ** (N - 1))
            mu2 = max(a_last * r ** (N - 1), a_prev * r ** (N - 2))
        p = 1 - q
        s0 = q / p
        s1 = q / p**2
        s2 = q * (1 + q) / p**3
        tail0 = 2 * mu * s0
        tail1 = mu1 * ((2 * N + 1) * s0 + 4 * s1)
        tail2 = 2 * mu2 * ((N * N + N) * s0 + (4 * N + 2) * s1 + 4 * s2)
    except OverflowError:
        return None
    if not (math.isfinite(tail0) and math.isfinite(tail1) and math.isfinite(tail2)):
        return None
    # the tails are >= 0, so `or` floors exactly the ones that underflowed to 0
    return (tail0 or _LEAST, tail1 or _LEAST, tail2 or _LEAST)


def _weighted(coeffs, deriv: int, order: int) -> list:
    """Horner coefficients of g(z)/z, g'(z) or g''(z) (deriv 0, 1, 2) from a_0 .. a_order.

    g = z sum a_n z^n, g' = sum (n+1) a_n z^n and g'' = sum (n+1) n a_n z^(n-1):
    the one derivative-weight rule of the table methods and the scalar evaluators.
    """
    if deriv == 0:
        return coeffs[: order + 1]
    if deriv == 1:
        return [(n + 1) * coeffs[n] for n in range(order + 1)]
    return [(n + 1) * n * coeffs[n] for n in range(1, order + 1)]


@dataclass(frozen=True)
class CoefficientTable:
    """Truncated coefficient list with certified tail bounds at a radius.

    tails are _tail_bounds at the radius, (tail0, tail1, tail2) for g, g'
    and g''; to_jsonable prints tail0 alone, as tail_bound.
    """

    params: CoulombParams
    coeffs: tuple[complex, ...]
    order: int
    tails: tuple[float, float, float]
    radius: float

    def __post_init__(self) -> None:
        if not (self.tail_bound >= 0 and math.isfinite(self.tail_bound)):
            raise ValueError("tail_bound must be finite and nonnegative")

    @property
    def tail_bound(self) -> float:
        """tail0: the truncated series is within it of g on |z| <= radius."""
        return self.tails[0]

    @functools.cached_property
    def is_real(self) -> bool:
        """Whether every coefficient is real, so that g(conj z) = conj g(z).

        certify then reads the circle's upper half only, and
        zeros._circle_samples gives the lower half by exact conjugation.
        """
        return not any(c.imag for c in self.coeffs)

    @functools.cached_property
    def _dcoeffs(self) -> tuple[complex, ...]:
        return tuple(_weighted(self.coeffs, 1, self.order))

    @functools.cached_property
    def _ddcoeffs(self) -> tuple[complex, ...]:
        return tuple(_weighted(self.coeffs, 2, self.order))

    def g_values(self, z):
        """g at scalar or ndarray argument, by Horner on the stored table."""
        # h * z, not z * h: numpy multiplies into a large temporary in place,
        # temporary first, and rounds by operand order.  A point's bits may
        # still depend on the number of points (see _horner)
        return _horner(self.coeffs, z) * z

    def g_prime_values(self, z):
        return _horner(self._dcoeffs, z)

    def g_second_values(self, z):
        return _horner(self._ddcoeffs, z)

    def to_jsonable(self) -> dict:
        return {
            "params": self.params.to_jsonable(),
            "order": self.order,
            "radius": self.radius,
            "tail_bound": self.tail_bound,
            "coeffs": [{"re": c.real, "im": c.imag} for c in self.coeffs],
        }


def _horner(coeffs, z):
    """Evaluate sum_n coeffs[n] z^n; works for complex scalars and arrays.

    One loop: the first step runs out of place, which gives an array
    accumulator the dtype of z * c (a real grid with complex coefficients),
    and the rest run in place, so z is never written.  On a Python or numpy
    scalar the in-place operators rebind the name instead.  Every step
    rounds acc * z + c in the same order, but not always with the same
    roundings: where numpy's vector loop for the complex product fuses a
    multiply-add (the real part as fma(ar, br, -ai bi), on CPUs with FMA),
    CPython's complex product and a one-element array round twice.  So a
    point alone and the same point inside a batch may differ in their last
    bits; each lies within zeros._bounded_horner's 2.5 eps mu of the exact
    sum, a bound that covers both roundings, and arrays of one length give
    one point the same bits.
    """
    acc = 0.0 * z
    terms = reversed(coeffs)
    for c in terms:
        acc = acc * z + c
        break
    for c in terms:
        acc *= z
        acc += c
    return acc


_EPS = math.ulp(1.0)  # machine epsilon, 2^-52


def _abs_sum(table: CoefficientTable, r: float, deriv: int) -> float:
    """S(r) = sum |a_n| r^(n+1) or M1(r) = sum (n+1) |a_n| r^n (deriv 0, 1), by Horner.

    The majorant of the truncated |g| or |g'| on |z| <= r, on _weighted's
    weight rule: S is zeros._zero_count's Rouche test, and M1 the scale of
    g''s rounding in the count's samples.
    """
    h = _horner(_weighted([abs(c) for c in table.coeffs], deriv, table.order), r)
    return h * r if deriv == 0 else h


class _Growth:
    """One coefficient list grown along _ORDER_SCHEDULE at one radius.

    Each a_n and each scheduled tail bound is computed once, however many
    derivatives are asked for, so g, g' and g'' at one point share one
    recurrence, and a caller may check g before it grows the list for g'.
    """

    __slots__ = ("params", "radius", "coeffs", "bounds")

    def __init__(self, params: CoulombParams, radius: float) -> None:
        if not math.isfinite(radius):  # |z| of a z that is not finite
            raise DomainError(f"z must be finite, got |z| = {radius!r}")
        self.params = params
        self.radius = radius
        self.coeffs: list[complex] | None = None
        self.bounds: list[tuple[float, float, float] | None] = []  # at the schedule's first orders

    def first_order(self, tol: float, deriv: int):
        """First scheduled order whose tail for derivative `deriv` is < tol, with its tails.

        The schedule is read here, at call time; NoConvergence past its last
        order, and InvalidParams for a tol that is not positive.
        """
        if not tol > 0:  # NaN fails too
            raise InvalidParams(f"tol must be positive, got {tol}")
        bounds = self.bounds
        for k, order in enumerate(_ORDER_SCHEDULE):
            if k == len(bounds):
                self.coeffs = _recurrence_coefficients(self.params, order, self.coeffs)
                bounds.append(_tail_bounds(self.coeffs, self.params, self.radius))
            tails = bounds[k]
            if tails is not None and tails[deriv] < tol:
                return order, tails
        raise NoConvergence(f"series tail at radius {self.radius} not below {tol} by order {order}")

    def value(self, z: complex, tol: float, deriv: int) -> tuple[complex, float]:
        """g, g' or g'' (deriv 0, 1, 2) at z, |z| the radius, with its tail bound."""
        if z == 0:  # exact: g(0) = 0, g'(0) = a_0 and g''(0) = 2 a_1
            params = self.params
            return (0.0 + 0.0j, 1.0 + 0.0j, 2.0 * params.eta / (params.L + 1))[deriv], 0.0
        order, tails = self.first_order(tol, deriv)
        h = _horner(_weighted(self.coeffs, deriv, order), z)
        return (h * z if deriv == 0 else h), tails[deriv]


def _check_table_radius(radius: float) -> None:
    """InvalidParams for a table radius that is negative or not finite, where no tail bound holds."""
    if not (radius >= 0 and math.isfinite(radius)):
        raise InvalidParams(f"radius must be finite and nonnegative, got {radius}")


def _checked_int(name: str, value, lowest: int, highest: int) -> int:
    """value as an int in [lowest, highest], else InvalidParams; numpy integers pass."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidParams(f"{name} must be an integer, got {value!r}") from None
    if not lowest <= value <= highest:
        raise InvalidParams(f"{name} must lie in [{lowest}, {highest}], got {value}")
    return value


def make_coefficients(params: CoulombParams, order: int, radius: float) -> CoefficientTable:
    """Coefficient table through `order` with a certified tail bound at `radius`.

    Raises NoConvergence when the geometric majorization cannot certify the
    tail at this order/radius pair (the caller should raise the order).
    """
    order = _checked_int("order", order, 2, MAX_ORDER)
    _check_table_radius(radius)
    coeffs = _recurrence_coefficients(params, order)
    tails = _tail_bounds(coeffs, params, radius)
    if tails is None:
        raise NoConvergence(
            f"tail majorization fails at order {order}, radius {radius}; increase the order")
    return CoefficientTable(params, tuple(coeffs), order, tails, radius)


def table_for_radius(
    params: CoulombParams, radius: float, tol: float = DEFAULT_TOL, deriv: int = 0
) -> CoefficientTable:
    """Smallest scheduled table whose tail (for the given derivative) is < tol.

    NoConvergence past the schedule's last order; InvalidParams for a
    radius that is negative or not finite, or a deriv other than 0, 1 or 2.
    """
    _check_table_radius(radius)
    deriv = _checked_int("deriv", deriv, 0, 2)
    growth = _Growth(params, radius)
    order, tails = growth.first_order(tol, deriv)
    return CoefficientTable(params, tuple(growth.coeffs), order, tails, radius)


# ---------------------------------------------------------------------------
# complex gamma

_GAMMA_BOX = 20.0
_GAMMA_REL = 1e-12  # assumed relative accuracy of mpmath.fp.gamma; see gamma_complex


def _normal_range(w: complex) -> bool:
    """Whether |w| is finite and at least the smallest normal double (NaN fails)."""
    return sys.float_info.min <= math.hypot(w.real, w.imag) < math.inf


def gamma_complex(w: complex) -> ComplexValue:
    """Complex gamma by mpmath's double-precision `fp.gamma`.

    abs_error rests on a stated assumption about fp.gamma, not on a proof:
    relative error at most _GAMMA_REL = 1e-12 for |Re w|, |Im w| <= 20.  The
    worst measured against 40-digit mp.gamma over 3,000 points was 1.40e-13
    in that box and 2.2e-13 out to 60.  Outside the box the value is still
    returned but abs_error is widened proportionally to max(|Re w|, |Im w|)
    / 20 as a coarse error model.  Nonpositive integers raise
    PoleError; a value that overflows, or whose modulus is subnormal or 0
    (where the relative error model fails), raises NoConvergence.
    """
    return ComplexValue(*_gamma(complex(w)))


def _gamma(w: complex) -> tuple[complex, float]:
    """gamma_complex's value and abs_error."""
    import mpmath as mp  # only gamma and the Kummer oracle pay mpmath's import

    if _is_nonpositive_integer(w):
        raise PoleError(f"gamma pole at {w!r}")
    try:
        value = complex(mp.fp.gamma(w))
    except OverflowError:
        value = complex(math.inf)
    if not _normal_range(value):
        raise NoConvergence(f"gamma({w!r}) is out of double range")
    scale = max(abs(w.real), abs(w.imag))
    rel = _GAMMA_REL * max(1.0, scale / _GAMMA_BOX)
    return value, abs(value) * rel


def normalization_constant(params: CoulombParams) -> ComplexValue:
    """C(L, eta) = 2^L e^{-pi eta / 2} |Gamma(L + 1 + i eta)| / Gamma(2L + 2).

    The modulus bars on the first gamma factor are applied literally, also
    for complex parameters.  PoleError propagates from either gamma factor.
    A factor or product that overflows, or underflows below the normal
    double range, raises NoConvergence: a subnormal intermediate loses
    relative accuracy, so the relative error model would not bound it.
    abs_error adds the two gamma factors' relative errors, gamma_complex's
    stated model, and 1e-15 for the products, times |C|.
    """
    L, eta = params.L, params.eta
    top, top_error = _gamma(L + 1 + 1j * eta)
    bottom, bottom_error = _gamma(2 * L + 2)
    try:
        power, damping = cmath.exp(L * math.log(2.0)), cmath.exp(-cmath.pi * eta / 2)
    except OverflowError as exc:
        raise NoConvergence(f"C(L, eta) overflows at {params!r}") from exc
    prefactor = power * damping
    numerator = prefactor * abs(top)
    value = numerator / bottom
    if not all(map(_normal_range, (power, damping, prefactor, numerator, value))):
        raise NoConvergence(f"C(L, eta) is out of double range at {params!r}")
    rel = top_error / abs(top) + bottom_error / abs(bottom) + 1e-15
    return ComplexValue(value=value, abs_error=abs(value) * rel)


# ---------------------------------------------------------------------------
# evaluation

def _eval_series(params: CoulombParams, z: complex, tol: float, deriv: int) -> ComplexValue:
    z = complex(z)
    value, tail = _Growth(params, abs(z)).value(z, tol, deriv)
    return ComplexValue(value=value, abs_error=tail)


def eval_g(params: CoulombParams, z: complex, tol: float = DEFAULT_TOL) -> ComplexValue:
    """Evaluate the normalized function g(z) = sum a_n z^{n+1}.

    Entire in z and free of branch choices; the truncation order adapts until
    the certified tail bound at |z| drops below tol (NoConvergence if the cap
    of 500 terms cannot achieve that).  abs_error is that tail bound: it
    covers truncation, not floating-point rounding, which can exceed it (for
    L = eta = 0 at z = 20 the error is 4e-10 against an abs_error of 5e-17).
    """
    return _eval_series(params, z, tol, 0)


def eval_g_prime(params: CoulombParams, z: complex, tol: float = DEFAULT_TOL) -> ComplexValue:
    """Evaluate g'(z) by termwise differentiation of the series.

    abs_error is the certified tail bound of g' at |z|: as for eval_g, it
    covers truncation, not floating-point rounding.
    """
    return _eval_series(params, z, tol, 1)


def eval_g_second(params: CoulombParams, z: complex, tol: float = DEFAULT_TOL) -> ComplexValue:
    """Evaluate g''(z) by termwise differentiation of the series.

    abs_error is the certified tail bound of g'' at |z|: as for eval_g, it
    covers truncation, not floating-point rounding.
    """
    return _eval_series(params, z, tol, 2)


def eval_f(params: CoulombParams, z: complex, tol: float = DEFAULT_TOL) -> ComplexValue:
    """Evaluate the regular wave function F(z) = C(L, eta) z^L g(z).

    z^L uses the principal branch.  At z = 0 the value is 0 when L is a
    nonnegative integer or Re L > 0 (the limit); otherwise the branch point
    makes the request ill-posed and BranchPoint is raised.  Elsewhere,
    normalization_constant's range rule holds for z^L and F too: a z^L or
    F that overflows, or falls below the normal double range (where it
    rounds to a subnormal or to 0 and the relative error model fails),
    raises NoConvergence, and so does an abs_error that overflows.
    abs_error carries g's truncation bound and C's abs_error to first
    order, plus 1e-15 |F| for the products; like eval_g's, it does not
    cover the rounding of g's series.
    """
    z = complex(z)
    L = params.L
    if z == 0:
        integer_L = L.imag == 0.0 and L.real == round(L.real) and L.real >= 0
        if integer_L or L.real > 0:
            return ComplexValue(value=0.0 + 0.0j, abs_error=0.0)
        raise BranchPoint(
            f"F has a branch point at z = 0 for L = {L!r}; no limit exists"
        )
    constant = normalization_constant(params)
    g = eval_g(params, z, tol)
    try:
        power = cmath.exp(L * cmath.log(z))
    except OverflowError:
        power = complex(math.inf)
    value = constant.value * power * g.value
    if _normal_range(power) and _normal_range(value):
        abs_error = abs(power) * (
            abs(constant.value) * g.abs_error + abs(g.value) * constant.abs_error
        ) + abs(value) * 1e-15
        if math.isfinite(abs_error):
            return ComplexValue(value=value, abs_error=abs_error)
    raise NoConvergence(f"F = C z^L g or its error bound is out of double range at z = {z!r}")


# ---------------------------------------------------------------------------
# independent coefficient oracle

def kummer_oracle(params: CoulombParams, order: int) -> CoefficientTable:
    """Coefficients of g rebuilt from the confluent hypergeometric route.

    Uses the factorization g-prefactor identity
        sum_n a_n z^n = e^{-iz} * 1F1(L + 1 - i eta; 2L + 2; 2iz)
    and forms the Cauchy product of the two Maclaurin series with 50-digit
    working precision (the product cancels catastrophically in doubles near
    order 30).  Never touches the recurrence; serves as a cross-check oracle.
    """
    order = _checked_int("order", order, 0, MAX_ORDER)
    import mpmath as mp

    L, eta = params.L, params.eta
    with mp.workdps(50):
        a = mp.mpc(L.real, L.imag) + 1 - mp.mpc(0, 1) * mp.mpc(eta.real, eta.imag)
        b = 2 * mp.mpc(L.real, L.imag) + 2
        two_i = mp.mpc(0, 2)
        neg_i = mp.mpc(0, -1)
        # h_k: 1F1 term coefficients in z; c_j: e^{-iz} term coefficients
        h = [mp.mpc(1)]
        for k in range(1, order + 1):
            h.append(h[k - 1] * (a + k - 1) / ((b + k - 1) * k) * two_i)
        c = [mp.mpc(1)]
        for j in range(1, order + 1):
            c.append(c[j - 1] * neg_i / j)
        coeffs = []
        for n in range(order + 1):
            acc = mp.mpc(0)
            for k in range(n + 1):
                acc += h[k] * c[n - k]
            coeffs.append(complex(acc))
    # attach a tail bound at the widest radius the majorization certifies
    radius = 1.0
    bounds = _tail_bounds(coeffs, params, radius)
    while bounds is None and radius > 1e-6:
        radius /= 2
        bounds = _tail_bounds(coeffs, params, radius)
    if bounds is None:
        radius, bounds = 0.0, (0.0, 0.0, 0.0)
    return CoefficientTable(params, tuple(coeffs), order, bounds, radius)
