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
their extrema, and rechecks the closed-form values quoted for them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

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

#: The one mode in which extremize treats each profile.
EXTREMIZE_MODES = {"U": "min", "V": "max", "A": "min", "B": "max"}


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
    if not 0 <= theta < 2 * math.pi:
        raise DomainError(f"exponential locus needs theta in [0, 2*pi), got {theta}")
    r = cmath.exp(cmath.exp(1j * theta))
    return abs(r - 1) ** 2


_PROFILES = {
    "U": lambda theta, m: lemniscate_offset_sq(theta, m),
    "V": lambda theta, m: lemniscate_shift_sq(theta),
    "A": lambda theta, m: exponential_offset_sq(theta % (2 * math.pi), m),
    "B": lambda theta, m: exponential_shift_sq(theta % (2 * math.pi)),
}


def _grid_profile(function_tag: str, xs: np.ndarray, m: float) -> np.ndarray:
    """One profile on a whole grid, from the closed forms in numpy.

    Agrees with the scalar profiles to a few ulps; extremize rechecks the
    near-extremal points with the scalar ones.  Overflow gives inf, which
    the caller refuses, instead of a RuntimeWarning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if function_tag in ("U", "V"):
            c2 = np.maximum(np.cos(2 * xs), 0.0)
            if function_tag == "U":
                return m * m / (8 * c2) + m * np.cos(xs) / np.sqrt(2 * c2) + 1
            return 2 * c2 - 2 * math.sqrt(2.0) * np.cos(xs) * np.sqrt(c2) + 1
        r = np.exp(np.exp(1j * xs))
        if function_tag == "A":
            return np.abs(m * np.exp(1j * xs) * r + r**2 - 1) ** 2
        return np.abs(r - 1) ** 2


def closed_form_value(function_tag: str, m: float) -> float:
    """Reference value quoted for each profile extremum."""
    e = math.e
    if function_tag == "U":
        return (m + 2 * math.sqrt(2.0)) ** 2 / 8
    if function_tag == "V":
        return (math.sqrt(2.0) - 1) ** 2
    if function_tag == "A":
        return (1 / e**2 - m / e - 1) ** 2
    if function_tag == "B":
        return (e - 1) ** 2
    raise DomainError(f"unknown function tag {function_tag!r}")


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
    if function_tag not in EXTREMIZE_MODES:
        raise DomainError(f"unknown function tag {function_tag!r}")
    mode = EXTREMIZE_MODES[function_tag]
    uses_m = function_tag in ("U", "A")
    if not math.isfinite(m):
        raise DomainError(f"m must be finite, got {m}")
    if uses_m and m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    profile = _PROFILES[function_tag]
    if function_tag in ("U", "V"):
        lo, hi = -math.pi / 4 + EDGE_MARGIN, math.pi / 4 - EDGE_MARGIN
        xs = np.linspace(lo, hi, _GRID_POINTS)
        periodic = False
    else:
        xs = np.linspace(0.0, 2 * math.pi, _GRID_POINTS, endpoint=False)
        periodic = True
    sign = 1.0 if mode == "min" else -1.0
    values = sign * _grid_profile(function_tag, xs, m)
    if not np.isfinite(values).all():
        raise DomainError(f"profile {function_tag} is not finite on the grid at m = {m}")
    # the first scalar best among the points within the window picks the
    # index a scalar grid would, where the two evaluations differ by less
    # than half the window
    least = float(values.min())
    near = np.flatnonzero(values <= least + 1e-9 * max(1.0, abs(least)))
    best = int(min(near, key=lambda i: sign * profile(float(xs[i]), m)))
    step = float(xs[1] - xs[0])
    a = float(xs[best]) - step
    b = float(xs[best]) + step
    if not periodic:
        a = max(a, lo)
        b = min(b, hi)
    located_arg = _golden_section(lambda t: sign * profile(t, m), a, b, _GOLDEN_XTOL)
    if periodic and located_arg >= 2 * math.pi:
        located_arg -= 2 * math.pi
    if not periodic:
        # the refined point is a bracket midpoint, up to xtol/2 short of a
        # clipped end; an extremum on the edge is reported at the end itself
        for end in (lo, hi):
            if a <= end <= b and sign * profile(end, m) < sign * profile(located_arg, m):
                located_arg = end
    located_value = profile(located_arg, m)
    reference = closed_form_value(function_tag, m)
    return ExtremumReport(
        function_tag=function_tag,
        m=m if uses_m else None,
        mode=mode,
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
    if abs(z) >= 1:
        raise DomainError(f"z must lie in the open unit disk, got |z| = {abs(z)}")
    point = admissible_point(locus, theta, m)
    L, eta = params.L, params.eta
    psi = point.s + point.r**2 + (2 * L - 1) * point.r + z * z - 2 * eta * z - 2 * L
    offset_abs = abs(point.s + point.r**2 - 1)
    shift_abs = abs(point.r - 1)
    chain = offset_abs - abs(2 * L - 1) * shift_abs - abs(z) ** 2 - 2 * abs(eta) * abs(z)
    return psi, PsiBound(abs(psi), offset_abs, shift_abs, chain)


def constant_checks() -> list[dict]:
    """Consistency of the closed-form extrema with the condition thresholds.

    The lemniscate threshold is sqrt(min U at m=1) - 1 = sqrt(2)/4 and the
    exponential threshold is sqrt(min A at m=1) - 1 = (e - 1)/e^2.  For the
    exponential locus the offset lower bound itself is the positive quantity
    1 + 1/e - 1/e^2 (the sign-consistent reading of the minimum; its square
    root of A at pi), which is flagged explicitly here.
    """
    e = math.e
    lem_lhs = math.sqrt(lemniscate_offset_sq(0.0, 1.0)) - 1
    lem_rhs = math.sqrt(2.0) / 4
    exp_bound = math.sqrt(exponential_offset_sq(math.pi, 1.0))
    exp_lhs = exp_bound - 1
    exp_rhs = (e - 1) / e**2
    return [
        {
            "locus": LEMNISCATE,
            "identity": "sqrt(min offset, m=1) - 1 == sqrt(2)/4",
            "lhs": lem_lhs,
            "rhs": lem_rhs,
            "abs_diff": abs(lem_lhs - lem_rhs),
            "consistent": abs(lem_lhs - lem_rhs) <= 1e-12,
        },
        {
            "locus": EXPONENTIAL,
            "identity": "sqrt(min offset, m=1) - 1 == (e - 1)/e^2",
            "lhs": exp_lhs,
            "rhs": exp_rhs,
            "abs_diff": abs(exp_lhs - exp_rhs),
            "consistent": abs(exp_lhs - exp_rhs) <= 1e-12,
            "offset_lower_bound": exp_bound,
            "lower_bound_positive": exp_bound > 0,
        },
    ]
