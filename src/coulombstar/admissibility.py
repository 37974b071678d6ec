"""Boundary-locus laboratory behind the sufficient-condition proofs.

The certification conditions rest on lower-bounding

    Psi(r, s; z) = s + r^2 + (2L - 1) r + z^2 - 2 eta z - 2L

over admissible boundary data (r, s).  Each target region contributes a
one-parameter family of admissible pairs:

    lemniscate    theta in (-pi/4, pi/4):
                      r = sqrt(2 cos 2 theta) e^{i theta}
                      s = m e^{3 i theta} / (2 sqrt(2 cos 2 theta)),  m >= 1
    exponential   theta in [0, 2 pi):
                      r = e^{e^{i theta}}
                      s = m e^{i theta} r,                            m >= 1

Since 1 + (2L - 1) - 2L = 0, the quantity regroups as

    Psi = (s + r^2 - 1) + (2L - 1)(r - 1) + z^2 - 2 eta z,

so |Psi| >= |s + r^2 - 1| - |2L - 1| |r - 1| - |z|^2 - 2 |eta| |z|.  The
profiles of |s + r^2 - 1|^2 (offset) and |r - 1|^2 (shift) along each locus
therefore control the whole bound; this module evaluates them, locates
their extrema, and rechecks the closed-form values quoted for them.  Each
of the four profiles, offset U and shift V on the lemniscate locus, offset
A and shift B on the exponential one, is one row of the table _PROFILES:
its locus, extremum mode, scalar and grid forms and quoted extremum.
"""

from __future__ import annotations

import cmath
import collections
import math
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import _CONDITIONS
from .errors import DomainError
from .series import CoulombParams

LEMNISCATE = "lemniscate"
EXPONENTIAL = "exponential"
_LOCI = (LEMNISCATE, EXPONENTIAL)

#: Margin by which grids stay away from the open ends of the lemniscate
#: interval, where the offset profile blows up.
EDGE_MARGIN = 1e-6

_GRID_POINTS = 10_000
_GOLDEN_XTOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1) / 2

@dataclass(frozen=True)
class AdmissiblePoint:
    """Boundary data (r, s) at angle theta on one admissibility locus."""

    locus: str
    theta: float
    m: float
    r: complex
    s: complex


def admissible_point(locus: str, theta: float, m: float) -> AdmissiblePoint:
    """Construct the admissible pair at theta; validates locus, theta, m."""
    if locus not in _LOCI:
        raise DomainError(f"unknown locus {locus!r}; expected one of {_LOCI}")
    if not math.isfinite(m):
        raise DomainError(f"m must be finite, got {m}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if locus == LEMNISCATE:
        if not abs(theta) < math.pi / 4:
            raise DomainError(
                f"lemniscate locus needs |theta| < pi/4, got {theta}"
            )
        root = math.sqrt(2 * math.cos(2 * theta))
        r = root * cmath.exp(1j * theta)
        s = m * cmath.exp(3j * theta) / (2 * root)
    else:
        if not 0 <= theta < 2 * math.pi:
            raise DomainError(
                f"exponential locus needs theta in [0, 2*pi), got {theta}"
            )
        r = cmath.exp(cmath.exp(1j * theta))
        s = m * cmath.exp(1j * theta) * r
    return AdmissiblePoint(locus=locus, theta=theta, m=m, r=r, s=s)


# ---------------------------------------------------------------------------
# profile functions along the loci

def _offset_sq(point: AdmissiblePoint) -> float:
    """|s + r^2 - 1|^2 at an admissible point; DomainError when it overflows."""
    try:
        value = abs(point.s + point.r**2 - 1) ** 2
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"offset profile overflows at m = {point.m}")
    return value


def lemniscate_offset_sq(theta: float, m: float) -> float:
    """|s + r^2 - 1|^2 on the lemniscate locus.

    Closed form m^2/(8 cos 2 theta) + m cos theta / sqrt(2 cos 2 theta) + 1;
    diverges toward the interval ends.
    """
    return _offset_sq(admissible_point(LEMNISCATE, theta, m))


def lemniscate_shift_sq(theta: float) -> float:
    """|r - 1|^2 on the lemniscate locus.

    Closed form 2 cos 2 theta - 2 sqrt 2 cos theta sqrt(cos 2 theta) + 1.
    Continuous up to the closed interval ends, where it tends to 1.
    """
    if not abs(theta) <= math.pi / 4:
        raise DomainError(f"lemniscate locus needs |theta| <= pi/4, got {theta}")
    c2 = math.cos(2 * theta)
    c2 = max(c2, 0.0)
    return 2 * c2 - 2 * math.sqrt(2.0) * math.cos(theta) * math.sqrt(c2) + 1


def exponential_offset_sq(theta: float, m: float) -> float:
    """|s + r^2 - 1|^2 on the exponential locus."""
    return _offset_sq(admissible_point(EXPONENTIAL, theta, m))


def exponential_shift_sq(theta: float) -> float:
    """|r - 1|^2 = e^{2 cos theta} - 2 e^{cos theta} cos(sin theta) + 1."""
    return abs(admissible_point(EXPONENTIAL, theta, 1.0).r - 1) ** 2


_Profile = collections.namedtuple("_Profile", "locus mode scalar grid quoted")

#: One row per profile: its locus, its extremum mode (the minimum of an
#: offset, which depends on m, or the maximum of a shift, which does not),
#: its scalar form (theta, m), its numpy grid form (xs, basis, m) from the
#: closed forms, where the basis is the locus's max(cos 2 theta, 0) or
#: e^{e^{i theta}}, and the extremum quoted for it as a function of m: for a
#: shift, k^2 of its class's analytic._CONDITIONS row.
_PROFILES = {
    "U": _Profile(LEMNISCATE, "min", lemniscate_offset_sq,
                  lambda xs, c2, m: m * m / (8 * c2) + m * np.cos(xs) / np.sqrt(2 * c2) + 1,
                  lambda m: (m + 2 * math.sqrt(2.0)) ** 2 / 8),
    "V": _Profile(LEMNISCATE, "max", lambda theta, m: lemniscate_shift_sq(theta),
                  lambda xs, c2, m: 2 * c2 - 2 * math.sqrt(2.0) * np.cos(xs) * np.sqrt(c2) + 1,
                  lambda m: _CONDITIONS[LEMNISCATE][1] ** 2),
    "A": _Profile(EXPONENTIAL, "min", lambda theta, m: exponential_offset_sq(theta % (2 * math.pi), m),
                  lambda xs, r, m: np.abs(m * np.exp(1j * xs) * r + r**2 - 1) ** 2,
                  lambda m: (1 / math.e**2 - m / math.e - 1) ** 2),
    "B": _Profile(EXPONENTIAL, "max", lambda theta, m: exponential_shift_sq(theta % (2 * math.pi)),
                  lambda xs, r, m: np.abs(r - 1) ** 2,
                  lambda m: _CONDITIONS[EXPONENTIAL][1] ** 2),
}

#: The one mode in which extremize treats each profile.
EXTREMIZE_MODES = {tag: row.mode for tag, row in _PROFILES.items()}


def _profile(function_tag: str) -> _Profile:
    row = _PROFILES.get(function_tag)
    if row is None:
        raise DomainError(f"unknown function tag {function_tag!r}")
    return row


@dataclass(frozen=True)
class ExtremumReport:
    """Located extremum of a profile versus its quoted closed form."""

    function_tag: str
    m: float | None
    mode: str
    located_arg: float
    located_value: float
    closed_form: float
    abs_gap: float

    def to_jsonable(self) -> dict:
        return asdict(self)


def _golden_section(f, a: float, b: float, xtol: float) -> float:
    """Argument of the minimum of a unimodal f on [a, b]."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    return (a + b) / 2


def extremize(function_tag: str, m: float = 1.0) -> ExtremumReport:
    """Locate a profile extremum by dense grid plus golden-section refinement.

    Each profile is extremized as the sufficient-condition bounds use it
    (EXTREMIZE_MODES): minimum of the offset profiles (U, A), maximum of the
    shift profiles (V, B).  The grid has 10^4 points over the profile's
    domain (with a 1e-6 stand-off from the open lemniscate ends) and the
    refinement narrows the bracket to 1e-10.  Where the refinement bracket
    is clipped at a domain end, that end is compared with the refined point
    and the better one kept, so an extremum on the edge of the domain is
    reported at the edge itself rather than at the midpoint of the final
    bracket.

    The grid is evaluated in numpy from the closed forms; the grid points
    within 1e-9 (relative) of its best are evaluated again with the scalar
    profile, which also drives the refinement.  A non-finite m, or a profile
    that is not finite on the grid (U beyond m of about 5e151), raises
    DomainError.

    The report carries the quoted closed-form value and the gap against it.
    The gap is informational, not enforced: the scan reports whatever the
    profile actually does.
    """
    row = _profile(function_tag)
    uses_m = row.mode == "min"
    if not math.isfinite(m):
        raise DomainError(f"m must be finite, got {m}")
    if uses_m and m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    profile = row.scalar
    periodic = row.locus == EXPONENTIAL
    lo, hi = (0.0, 2 * math.pi) if periodic else (-math.pi / 4 + EDGE_MARGIN,
                                                   math.pi / 4 - EDGE_MARGIN)
    xs = np.linspace(lo, hi, _GRID_POINTS, endpoint=not periodic)
    sign = 1.0 if uses_m else -1.0
    # overflow gives inf, refused below, instead of a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        basis = np.exp(np.exp(1j * xs)) if periodic else np.maximum(np.cos(2 * xs), 0.0)
        values = sign * row.grid(xs, basis, m)
    if not np.isfinite(values).all():
        raise DomainError(f"profile {function_tag} is not finite on the grid at m = {m}")
    # the first scalar best among the points within the window picks the
    # index a scalar grid would, where the two evaluations differ by less
    # than half the window
    least = float(values.min())
    near = np.flatnonzero(values <= least + 1e-9 * max(1.0, abs(least)))
    best = int(min(near, key=lambda i: sign * profile(float(xs[i]), m)))
    step = float(xs[1] - xs[0])
    a, b = float(xs[best]) - step, float(xs[best]) + step
    if not periodic:
        a, b = max(a, lo), min(b, hi)
    located_arg = _golden_section(lambda t: sign * profile(t, m), a, b, _GOLDEN_XTOL)
    if periodic:  # the bracket may reach one step past either end of [0, 2 pi)
        located_arg %= 2 * math.pi
    if not periodic:
        # the refined point is a bracket midpoint, up to xtol/2 short of a
        # clipped end; an extremum on the edge is reported at the end itself
        for end in (lo, hi):
            if a <= end <= b and sign * profile(end, m) < sign * profile(located_arg, m):
                located_arg = end
    located_value = profile(located_arg, m)
    reference = row.quoted(m)
    return ExtremumReport(
        function_tag=function_tag,
        m=m if uses_m else None,
        mode=row.mode,
        located_arg=located_arg,
        located_value=located_value,
        closed_form=reference,
        abs_gap=abs(located_value - reference),
    )


# ---------------------------------------------------------------------------
# Psi and its bound chain

@dataclass(frozen=True)
class PsiBound:
    """Triangle-inequality chain underneath |Psi| at one sample."""

    abs_psi: float
    offset_abs: float
    shift_abs: float
    chain_value: float

    def to_jsonable(self) -> dict:
        return asdict(self)


def psi_lower_bound(
    params: CoulombParams, locus: str, theta: float, m: float, z: complex
) -> tuple[complex, PsiBound]:
    """Evaluate Psi at admissible boundary data and its chain lower bound.

    Returns (Psi value, chain record); the chain value
    |s + r^2 - 1| - |2L - 1| |r - 1| - |z|^2 - 2 |eta| |z|
    never exceeds |Psi| (plain triangle inequalities), and keeping it
    positive over a locus is exactly what the sufficient conditions assert.
    """
    z = complex(z)
    if not abs(z) < 1:  # NaN fails too
        raise DomainError(f"z must lie in the open unit disk, got |z| = {abs(z)}")
    point = admissible_point(locus, theta, m)
    L, eta = params.L, params.eta
    psi = point.s + point.r**2 + (2 * L - 1) * point.r + z * z - 2 * eta * z - 2 * L
    offset_abs = abs(point.s + point.r**2 - 1)
    shift_abs = abs(point.r - 1)
    chain = offset_abs - abs(2 * L - 1) * shift_abs - abs(z) ** 2 - 2 * abs(eta) * abs(z)
    return psi, PsiBound(abs(psi), offset_abs, shift_abs, chain)


def constant_checks() -> list[dict]:
    """Consistency of the closed-form extrema with analytic._CONDITIONS' thresholds.

    The lemniscate threshold is sqrt(min U at m=1) - 1 = sqrt(2)/4, U at
    theta = 0, and the exponential threshold is sqrt(min A at m=1) - 1 =
    (e - 1)/e^2, A at theta = pi.  For the exponential locus the offset
    lower bound itself is the positive quantity 1 + 1/e - 1/e^2 (the
    sign-consistent reading of the minimum; its square root of A at pi),
    which is flagged explicitly here.
    """
    checks = []
    for locus, tag, theta, quoted in ((LEMNISCATE, "U", 0.0, "sqrt(2)/4"),
                                      (EXPONENTIAL, "A", math.pi, "(e - 1)/e^2")):
        bound = math.sqrt(_PROFILES[tag].scalar(theta, 1.0))
        lhs, rhs = bound - 1, _CONDITIONS[locus][0]
        check = {"locus": locus, "identity": f"sqrt(min offset, m=1) - 1 == {quoted}",
                 "lhs": lhs, "rhs": rhs, "abs_diff": abs(lhs - rhs),
                 "consistent": abs(lhs - rhs) <= 1e-12}
        if locus == EXPONENTIAL:
            check.update(offset_lower_bound=bound, lower_bound_positive=bound > 0)
        checks.append(check)
    return checks
