"""Starlikeness certification of g on the unit disk from its boundary circle.

A normalized function is starlike of a given flavor exactly when its ratio
P(z) = z g'(z) / g(z) keeps its values inside the corresponding target
region for all |z| < 1:

    classical     Re w > 0                (right half plane)
    lemniscate    |w^2 - 1| < 1, Re w > 0 (right loop of the Bernoulli curve)
    exponential   |Log w| < 1             (image of the unit disk under exp)

Each region membership is expressed as a margin that is positive inside and
negative outside.  Once g has no zero in 0 < |z| <= r_max, P is analytic on
that disk, and each region is simply connected, so P maps the disk into the
region as soon as the circle |z| = r_max does (the boundary argument of
differential subordination; Miller and Mocanu, Differential Subordinations,
2000).  Each margin is then harmonic or superharmonic, so its minimum over
the disk sits on the circle.  certify therefore samples P on that circle only
and proves the disk zero-free apart from the origin from the circle's own g
samples: a bound on |g'| over the disk shows that g keeps away from 0 on each
arc between samples, so the sampled argument steps add up to the exact
argument-principle count (arcs that fail the bound are bisected).  Positivity
of the margin on the arcs between samples is not proven.  Closed-form
sufficient conditions on (L, eta) are provided alongside as fast pre-checks.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoulombError, InvalidParams
from .series import _ORDER_SCHEDULE, DEFAULT_TOL, CoefficientTable, CoulombParams, _grow_table

_EPS = math.ulp(1.0)
# g samples allowed on the circle, bisection midpoints included; the same
# cap as zeros.winding_number's
_MAX_CIRCLE_SAMPLES = 1 << 18

SQRT2 = math.sqrt(2.0)
#: Hypothesis threshold of the lemniscate sufficient condition.
LEMNISCATE_THRESHOLD = SQRT2 / 4
#: Hypothesis threshold of the exponential sufficient condition.
EXPONENTIAL_THRESHOLD = (math.e - 1) / math.e**2


class StarlikeClass(str, enum.Enum):
    CLASSICAL = "classical"
    LEMNISCATE = "lemniscate"
    EXPONENTIAL = "exponential"


def classical_margin(w: complex) -> float:
    """Distance-like margin for the right half plane: Re w."""
    return complex(w).real


def lemniscate_margin(w: complex) -> float:
    """1 - |w^2 - 1|; positive inside the full Bernoulli lemniscate."""
    w = complex(w)
    return 1.0 - abs(w * w - 1.0)


def exponential_margin(w: complex) -> float:
    """1 - |Log w| on the principal branch.

    The closed negative real axis (including 0) has no principal logarithm
    worth comparing, so those points return -inf as a sentinel.
    """
    w = complex(w)
    if w.imag == 0.0 and w.real <= 0.0:
        return -math.inf
    return 1.0 - abs(np.log(complex(w)))


def lemniscate_condition(params: CoulombParams) -> tuple[bool, float]:
    """Sufficient condition for lemniscate starlikeness of g.

    slack = sqrt(2)/4 - (sqrt(2) - 1) |2L - 1| - 2 |eta|; positive slack
    guarantees the certification scan succeeds.
    """
    slack = (
        LEMNISCATE_THRESHOLD
        - (SQRT2 - 1) * abs(2 * params.L - 1)
        - 2 * abs(params.eta)
    )
    return (slack > 0, slack)


def exponential_condition(params: CoulombParams) -> tuple[bool, float]:
    """Sufficient condition for exponential starlikeness of g.

    slack = (e - 1)/e^2 - (e - 1) |2L - 1| - 2 |eta|.
    """
    slack = (
        EXPONENTIAL_THRESHOLD
        - (math.e - 1) * abs(2 * params.L - 1)
        - 2 * abs(params.eta)
    )
    return (slack > 0, slack)


def _condition(params: CoulombParams, flavor: StarlikeClass) -> tuple[bool, float]:
    """The flavor's sufficient condition; the classical flavor has none."""
    if flavor is StarlikeClass.LEMNISCATE:
        return lemniscate_condition(params)
    if flavor is StarlikeClass.EXPONENTIAL:
        return exponential_condition(params)
    return (False, math.nan)


@dataclass(frozen=True)
class ScanGrid:
    """Certification circle |z| = r_max with equally spaced sample angles."""

    angles_per_ring: int = 720
    r_max: float = 0.999

    def __post_init__(self) -> None:
        if self.angles_per_ring < 1:
            raise InvalidParams("angles_per_ring must be >= 1")
        if not (0 < self.r_max < 1):
            raise InvalidParams("r_max must sit in (0, 1)")

    @functools.cached_property
    def _points(self) -> np.ndarray:
        theta = 2 * np.pi * np.arange(self.angles_per_ring) / self.angles_per_ring
        points = self.r_max * np.exp(1j * theta)
        points.flags.writeable = False  # shared by every call on this grid
        return points

    def points(self) -> np.ndarray:
        """Complex sample points on the circle, shape (angles_per_ring,); read-only."""
        return self._points

    def to_jsonable(self) -> dict:
        return {"angles_per_ring": self.angles_per_ring, "r_max": self.r_max}


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a circle scan for one parameter pair and one flavor."""

    params: CoulombParams
    starlike_class: StarlikeClass
    grid: ScanGrid
    min_margin: float
    worst_point: complex
    hypothesis_satisfied: bool
    certified: bool
    zero_in_disk: bool = False

    def to_jsonable(self) -> dict:
        return {
            "params": self.params.to_jsonable(),
            "class": self.starlike_class.value,
            "grid": self.grid.to_jsonable(),
            "min_margin": self.min_margin,
            "worst_point": {"re": self.worst_point.real, "im": self.worst_point.imag},
            "hypothesis_satisfied": self.hypothesis_satisfied,
            "certified": self.certified,
            "zero_in_disk": self.zero_in_disk,
        }


def _margin_field(P: np.ndarray, flavor: StarlikeClass) -> np.ndarray:
    if flavor is StarlikeClass.CLASSICAL:
        return P.real.copy()
    if flavor is StarlikeClass.LEMNISCATE:
        # membership in the right loop needs both |P^2 - 1| < 1 and Re P > 0,
        # so the scan margin is the smaller of the two signed quantities
        return np.minimum(1.0 - np.abs(P * P - 1.0), P.real)
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = 1.0 - np.abs(np.log(P))
    on_cut = (P.imag == 0.0) & (P.real <= 0.0)
    margin[on_cut] = -np.inf
    return margin


def _circle_winding(
    table: CoefficientTable, bounds: tuple[float, float, float],
    grid: ScanGrid, g: np.ndarray,
) -> int | None:
    """Proven count of the zeros of g in |z| < r_max, from its circle samples.

    g holds the table's values at grid.points().  M1 = sum (n+1)|a_n| r^n
    + tail1 bounds |g'| on the closed disk, and err = tail0
    + 8 (order+2) eps S(r), S(r) = sum |a_n| r^(n+1), is the rounding
    allowance of each sample: the series tail plus complex Horner's rounding
    and that of the sample point (about 5 and 3 (order+1) eps S).  The
    rounding of the coefficients themselves is not in it yet.

    The arc of angular width w that starts at a sample g_k is proven when
    |g_k| - 2 err > 2 M1 r w.  Then the exact g on the arc, and both computed
    endpoint values, lie in one disk around the exact g(z_k) that excludes 0,
    so the principal angle of g_(k+1)/g_k is the true change of arg g along
    the arc, and the steps add up to exactly 2 pi times the count.  Arcs
    that fail are bisected, evaluating g at their midpoints only.  Returns
    None when an arc cannot close: a sample within 2 err of 0, a midpoint
    angle that rounds onto its arc's start, or more than _MAX_CIRCLE_SAMPLES
    samples.
    """
    r = grid.r_max
    a = np.abs(np.array(table.coeffs))
    rn = r ** np.arange(a.size)
    err = bounds[0] + 8 * (table.order + 2) * _EPS * r * float(a @ rn)
    m1 = float((np.arange(1, a.size + 1) * a) @ rn) + bounds[1]
    n = grid.angles_per_ring
    theta = 2 * np.pi * np.arange(n) / n
    width = np.full(n, 2 * np.pi / n)
    start, end = g, np.roll(g, -1)
    total, samples = 0.0, n
    while True:
        closed = np.abs(start) - 2 * err > 2 * m1 * r * width
        total += float(np.angle(end[closed] / start[closed]).sum())
        if closed.all():
            return round(total / (2 * np.pi))
        theta, width, start, end = (x[~closed] for x in (theta, width, start, end))
        width = width / 2
        mid = theta + width
        samples += mid.size
        if (samples > _MAX_CIRCLE_SAMPLES or np.any(np.abs(start) <= 2 * err)
                or np.any(mid == theta)):
            return None
        g_mid = table.g_values(r * np.exp(1j * mid))
        theta = np.concatenate((theta, mid))
        width = np.concatenate((width, width))
        start, end = np.concatenate((start, g_mid)), np.concatenate((g_mid, end))


def certify(
    params: CoulombParams,
    starlike_class: StarlikeClass,
    grid: ScanGrid | None = None,
    tol: float = DEFAULT_TOL,
) -> CertificationReport:
    """Sample P on |z| = r_max and report the minimum membership margin.

    certified is exactly min_margin > 0.  It means: g has no zero in
    0 < |z| <= r_max, proven from the circle's own g samples (see
    _circle_winding), and the margin is positive at every sample of the
    circle; the margins on the arcs between samples are not proven.  A zero
    in the disk, a sample where g (numerically) vanishes, or an arc whose
    count cannot close sets zero_in_disk and min_margin -inf, so the report
    survives but cannot certify.  worst_point is the sample of least margin,
    ties resolving to the lowest angle index.
    """
    flavor = StarlikeClass(starlike_class)
    if grid is None:
        grid = ScanGrid()
    table, bounds = _grow_table(params, grid.r_max, _ORDER_SCHEDULE, tol, 1)
    z = grid.points()
    g = table.g_values(z)
    gp = table.g_prime_values(z)
    near_zero = np.abs(g) < 10 * tol
    with np.errstate(divide="ignore", invalid="ignore"):
        P = np.where(near_zero, 1.0, z * gp / g)
    margins = _margin_field(P, flavor)
    margins[near_zero] = -np.inf
    worst = int(np.argmin(margins))
    zero_in_disk = bool(near_zero.any()) or _circle_winding(table, bounds, grid, g) != 1
    min_margin = -math.inf if zero_in_disk else float(margins[worst])
    return CertificationReport(
        params=params,
        starlike_class=flavor,
        grid=grid,
        min_margin=min_margin,
        worst_point=complex(z[worst]),
        hypothesis_satisfied=_condition(params, flavor)[0],
        certified=bool(min_margin > 0),
        zero_in_disk=zero_in_disk,
    )


@dataclass(frozen=True)
class ScanRow:
    """One parameter-sweep entry; slack is NaN for the classical flavor."""

    L: float
    eta: float
    slack: float
    min_margin: float
    certified: bool


def _lattice(bounds: tuple[float, float, float]) -> list[float]:
    lo, hi, step = bounds
    if not all(map(math.isfinite, bounds)):
        raise InvalidParams(f"range bounds and step must be finite, got {bounds}")
    if step <= 0:
        raise InvalidParams(f"step must be positive, got {step}")
    if hi < lo:
        return []
    span = (hi - lo) / step
    if not math.isfinite(span):
        raise InvalidParams(f"range {bounds} has too many steps")
    count = int(round(span)) + 1
    values = [lo + k * step for k in range(count)]
    return [v for v in values if v <= hi + step * 1e-9]


def parameter_scan(
    L_range: tuple[float, float, float],
    eta_range: tuple[float, float, float],
    starlike_class: StarlikeClass,
    grid: ScanGrid | None = None,
    tol: float = DEFAULT_TOL,
) -> list[ScanRow]:
    """Certify every lattice point of a real parameter rectangle.

    Ranges are (min, max, step) with inclusive endpoints; an empty range
    yields an empty table.  Library refusals (CoulombError) never abort the
    sweep: they are recorded as NaN margins with certified False.  Any other
    exception is a fault and propagates.
    """
    flavor = StarlikeClass(starlike_class)
    if grid is None:
        grid = ScanGrid()
    rows: list[ScanRow] = []
    for L in _lattice(L_range):
        for eta in _lattice(eta_range):
            try:
                params = CoulombParams(L=L, eta=eta)
                slack = _condition(params, flavor)[1]
                report = certify(params, flavor, grid, tol)
                rows.append(
                    ScanRow(
                        L=L,
                        eta=eta,
                        slack=slack,
                        min_margin=report.min_margin,
                        certified=report.certified,
                    )
                )
            except CoulombError:
                rows.append(
                    ScanRow(
                        L=L, eta=eta, slack=math.nan,
                        min_margin=math.nan, certified=False,
                    )
                )
    return rows
