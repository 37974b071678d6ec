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
from .series import DEFAULT_TOL, CoulombParams, _Growth

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


def _near_zero_floor(tol: float, r: float) -> float:
    """10 * tol * min(1, r): below it |g| on |z| = r counts as a zero of g."""
    return 10 * tol * min(1.0, r)


def _g_off_zero(growth: _Growth, z: complex, tol: float) -> tuple[complex, float]:
    """g(z) and its tail, refused with NearZeroOfG where |g(z)| < 10 * tol * min(1, |z|).

    g(z) ~ z at the origin, so below |z| = 1 the floor shrinks with |z|:
    there a small g is the origin's own zero, where P -> 1, not a zero of g.
    """
    g, tail = growth.value(z, tol, 0)
    floor = _near_zero_floor(tol, abs(z))
    if abs(g) < floor:
        raise NearZeroOfG(
            f"|g({z!r})| = {abs(g):.3e} is below 10*tol*min(1, |z|) = {floor:.3e}"
        )
    return g, tail


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
    # diagnosed as such even when the point also lies outside the window;
    # only then does the coefficient list grow on for g'
    growth = _Growth(params, abs(z))
    g, g_tail = _g_off_zero(growth, z, tol)
    if abs(z) > P_RADIUS_LIMIT:
        raise DomainError(
            f"|z| = {abs(z):.4g} exceeds the diagnostic radius {P_RADIUS_LIMIT}"
        )
    gp, gp_tail = growth.value(z, tol, 1)
    P = z * gp / g
    abs_error = (abs(z) * gp_tail + abs(P) * g_tail) / abs(g)
    return RatioValue(z=z, P=P, nearest_zero_distance=nearest, abs_error=abs_error)


def ode_residual_g(params: CoulombParams, z: complex, tol: float = DEFAULT_TOL) -> float:
    """|z^2 g'' + 2 L z g' + (z^2 - 2 eta z - 2 L) g| from series evaluations."""
    z = complex(z)
    L, eta = params.L, params.eta
    growth = _Growth(params, abs(z))
    g, gp, gpp = (growth.value(z, tol, deriv)[0] for deriv in (0, 1, 2))
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
    growth = _Growth(params, abs(z))
    g = _g_off_zero(growth, z, tol)[0]
    gp, gpp = (growth.value(z, tol, deriv)[0] for deriv in (1, 2))
    P = z * gp / g
    z_p_prime = (z * gp + z * z * gpp) / g - P * P
    return abs(z_p_prime + P * P + (2 * L - 1) * P + z * z - 2 * eta * z - 2 * L)
