"""Logarithmic-derivative ratio and differential-equation residual checks.

The starlikeness ratio is P(z) = z g'(z) / g(z), normalized so P(0) = 1.
Two residuals are exposed as numerical self-tests of the implementation:

    z^2 g'' + 2 L z g' + (z^2 - 2 eta z - 2 L) g          = 0
    z P' + P^2 + (2L - 1) P + z^2 - 2 eta z - 2L          = 0

both of which the series satisfies identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, NearZeroOfG
from .series import (
    DEFAULT_TOL,
    ComplexValue,
    CoulombParams,
    eval_g,
    eval_g_prime,
    eval_g_second,
)

# P is a disk diagnostic; allow a little headroom past the unit circle.
P_RADIUS_LIMIT = 1.5


@dataclass(frozen=True)
class RatioValue:
    """Value of the ratio P at a point, with optional zero-distance context.

    abs_error propagates the certified tails of g and g' to first order:
    (|z| |dg'| + |P| |dg|) / |g|.
    """

    z: complex
    P: complex
    nearest_zero_distance: float | None = None
    abs_error: float = 0.0


def _g_off_zero(params: CoulombParams, z: complex, tol: float) -> ComplexValue:
    """g(z), refused with NearZeroOfG where |g(z)| < 10 * tol * min(1, |z|).

    g(z) ~ z at the origin, so below |z| = 1 the floor shrinks with |z|:
    there a small g is the origin's own zero, where P -> 1, not a zero of g.
    """
    g = eval_g(params, z, tol)
    floor = 10 * tol * min(1.0, abs(z))
    if abs(g.value) < floor:
        raise NearZeroOfG(
            f"|g({z!r})| = {abs(g.value):.3e} is below 10*tol*min(1, |z|) = {floor:.3e}"
        )
    return g


def eval_p(
    params: CoulombParams,
    z: complex,
    tol: float = DEFAULT_TOL,
    zero_set=None,
) -> RatioValue:
    """Evaluate P(z) = z g'(z) / g(z); exactly 1 at the origin.

    Raises NearZeroOfG when |g(z)| < 10 * tol * min(1, |z|), where the
    ratio loses all accuracy.  When a zero set is supplied, the distance
    from z to its closest listed zero is reported alongside the value.
    """
    z = complex(z)
    nearest = None
    if zero_set is not None and zero_set.zeros:
        nearest = min(abs(z - rho) for rho in zero_set.zeros)
    if z == 0:
        return RatioValue(z=z, P=1.0 + 0.0j, nearest_zero_distance=nearest)
    # the pole guard outranks the radius guard: a request at a zero of g is
    # diagnosed as such even when the point also lies outside the window
    g = _g_off_zero(params, z, tol)
    if abs(z) > P_RADIUS_LIMIT:
        raise DomainError(
            f"|z| = {abs(z):.4g} exceeds the diagnostic radius {P_RADIUS_LIMIT}"
        )
    gp = eval_g_prime(params, z, tol)
    P = z * gp.value / g.value
    abs_error = (abs(z) * gp.abs_error + abs(P) * g.abs_error) / abs(g.value)
    return RatioValue(z=z, P=P, nearest_zero_distance=nearest, abs_error=abs_error)


def ode_residual_g(params: CoulombParams, z: complex, tol: float = DEFAULT_TOL) -> float:
    """|z^2 g'' + 2 L z g' + (z^2 - 2 eta z - 2 L) g| from series evaluations."""
    z = complex(z)
    L, eta = params.L, params.eta
    g = eval_g(params, z, tol).value
    gp = eval_g_prime(params, z, tol).value
    gpp = eval_g_second(params, z, tol).value
    return abs(z * z * gpp + 2 * L * z * gp + (z * z - 2 * eta * z - 2 * L) * g)


def ode_residual_p(params: CoulombParams, z: complex, tol: float = DEFAULT_TOL) -> float:
    """Residual of the Riccati-type equation satisfied by P.

    z P' is formed analytically as (z g' + z^2 g'') / g - P^2, which stays
    finite wherever g does not vanish, also at tiny |z| where (g'/g)^2
    would overflow; the origin is exact by construction.
    """
    z = complex(z)
    L, eta = params.L, params.eta
    if z == 0:
        # z P' -> 0 and P -> 1, so the residual collapses to |1 + (2L-1) - 2L|
        return abs(1 + (2 * L - 1) - 2 * L)
    g = _g_off_zero(params, z, tol).value
    gp = eval_g_prime(params, z, tol).value
    gpp = eval_g_second(params, z, tol).value
    P = z * gp / g
    z_p_prime = (z * gp + z * z * gpp) / g - P * P
    return abs(z_p_prime + P * P + (2 * L - 1) * P + z * z - 2 * eta * z - 2 * L)
