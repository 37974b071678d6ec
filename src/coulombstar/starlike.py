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
the disk sits on the circle.  certify therefore samples P on that circle only,
and proves the disk zero-free apart from the origin through zeros._zero_count,
the one proven count that also serves winding_number: Rouche's theorem
against z settles almost every disk in one comparison; of the rest, a real
table with L > -3/2 is counted from the Jacobi matrix's inertia, and every
other table on the count's own samples of g round the whole circle (one
matrix product for 720 of them, Horner's scheme if that leaves an arc
open).
Positivity of the margin on the arcs between P's samples is not proven.
For real (L, eta), g has real coefficients and g(conj z) = conj g(z), so
P and each margin take the same value at conjugate points: the grid is
conjugate-symmetric, and certify reads the margins of its upper half only.
Closed-form sufficient conditions on (L, eta) are provided alongside as
fast pre-checks.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import _near_zero_floor
from .errors import CoulombError, InvalidParams
from .series import DEFAULT_TOL, CoulombParams, table_for_radius
from .zeros import _check_radius, _zero_count

SQRT2 = math.sqrt(2.0)
_MAX_ANGLES = 1 << 18  # angles on one grid: bounds the memory of its g, g' and P


class StarlikeClass(str, enum.Enum):
    CLASSICAL = "classical"
    LEMNISCATE = "lemniscate"
    EXPONENTIAL = "exponential"


#: (threshold, k) of each class's sufficient condition, slack = threshold -
#: k |2L - 1| - 2 |eta| > 0; the classical class has none.
_CONDITIONS = {
    StarlikeClass.LEMNISCATE: (SQRT2 / 4, SQRT2 - 1),
    StarlikeClass.EXPONENTIAL: ((math.e - 1) / math.e**2, math.e - 1),
}
#: Hypothesis threshold of the lemniscate sufficient condition.
LEMNISCATE_THRESHOLD = _CONDITIONS[StarlikeClass.LEMNISCATE][0]
#: Hypothesis threshold of the exponential sufficient condition.
EXPONENTIAL_THRESHOLD = _CONDITIONS[StarlikeClass.EXPONENTIAL][0]


def _scalar_margin(w: complex, flavor: StarlikeClass) -> float:
    return float(_margin_field(np.array([complex(w)]), flavor)[0])


def classical_margin(w: complex) -> float:
    """Distance-like margin for the right half plane: Re w."""
    return _scalar_margin(w, StarlikeClass.CLASSICAL)


def lemniscate_margin(w: complex) -> float:
    """min(1 - |w^2 - 1|, Re w); positive exactly inside the right loop.

    The left loop of the Bernoulli lemniscate (Re w < 0) is outside the
    region, so w = -1 gets margin -1.
    """
    return _scalar_margin(w, StarlikeClass.LEMNISCATE)


def exponential_margin(w: complex) -> float:
    """1 - |Log w| on the principal branch.

    The closed negative real axis (including 0) has no principal logarithm
    worth comparing, so those points return -inf as a sentinel.
    """
    return _scalar_margin(w, StarlikeClass.EXPONENTIAL)


def _condition(params: CoulombParams, flavor: StarlikeClass) -> tuple[bool, float]:
    """The flavor's sufficient condition (satisfied, slack), from its _CONDITIONS row.

    The classical flavor's slack is the math.nan object itself, so that two
    scans' equal rows compare equal.
    """
    if flavor not in _CONDITIONS:
        return (False, math.nan)
    threshold, k = _CONDITIONS[flavor]
    slack = threshold - k * abs(2 * params.L - 1) - 2 * abs(params.eta)
    return (slack > 0, slack)


def lemniscate_condition(params: CoulombParams) -> tuple[bool, float]:
    """Sufficient condition for lemniscate starlikeness of g.

    slack = sqrt(2)/4 - (sqrt(2) - 1) |2L - 1| - 2 |eta|; positive slack
    guarantees the certification scan succeeds.
    """
    return _condition(params, StarlikeClass.LEMNISCATE)


def exponential_condition(params: CoulombParams) -> tuple[bool, float]:
    """Sufficient condition for exponential starlikeness of g.

    slack = (e - 1)/e^2 - (e - 1) |2L - 1| - 2 |eta|.
    """
    return _condition(params, StarlikeClass.EXPONENTIAL)


@dataclass(frozen=True)
class ScanGrid:
    """Certification circle |z| = r_max with equally spaced sample angles.

    The points are exactly conjugate-symmetric: points[n - k] ==
    conj(points[k]).  The upper half, k <= n // 2, is r_max exp(2 pi i k / n),
    except that for even n the point k = n / 2 is -r_max itself; the lower
    half is its mirror image.  So for real (L, eta), where g(conj z) =
    conj g(z), certify reads the whole circle from the upper half.
    """

    angles_per_ring: int = 720
    r_max: float = 0.999

    def __post_init__(self) -> None:
        if not 1 <= self.angles_per_ring <= _MAX_ANGLES:
            raise InvalidParams(f"angles_per_ring must lie in [1, {_MAX_ANGLES}]")
        _check_radius("r_max", self.r_max, 1.0)

    @functools.cached_property
    def _points(self) -> np.ndarray:
        n = self.angles_per_ring
        upper = self.r_max * np.exp(1j * (2 * np.pi * np.arange(n // 2 + 1) / n))
        if n % 2 == 0:
            upper[-1] = -self.r_max
        points = np.concatenate((upper, upper[(n - 1) // 2:0:-1].conj()))
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
    """Signed membership margins of the values P: positive inside the region."""
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


def certify(
    params: CoulombParams,
    starlike_class: StarlikeClass,
    grid: ScanGrid | None = None,
    tol: float = DEFAULT_TOL,
) -> CertificationReport:
    """Sample P on |z| = r_max and report the minimum membership margin.

    certified is exactly min_margin > 0.  It means: g has no zero in
    0 < |z| <= r_max, proven by zeros._zero_count, the count of
    winding_number (by Rouche's theorem when S(r_max) + tail0 < 2 r_max,
    else from J's inertia for a real table with L > -3/2, else by the
    argument principle on the count's own bounded samples of the whole
    circle: 720 from one matrix product with an a priori rounding bound,
    and, if those leave an arc open, Horner's with a running one), and
    the margin is positive at every sample of the circle; the
    margins on the arcs between samples are not proven.  A zero in the
    disk, a sample where g (numerically) vanishes, or a count that cannot
    be proven sets zero_in_disk and min_margin -inf, so the report survives
    but cannot certify.  worst_point is the sample of least
    margin, ties resolving to the lowest angle index.

    The grid's g and g' serve the margins only.  P = z g' / g is computed
    unmasked, and the margins of samples below the near-zero floor are then
    overwritten.  For a real table, g(conj z) = conj g(z) bit for bit, so P
    and every margin take the same value at the grid's mirrored points
    n - k and k: they are computed on points[:n // 2 + 1] only, and the
    lowest-index tie rule still reports the upper-half point.
    """
    flavor = StarlikeClass(starlike_class)
    if grid is None:
        grid = ScanGrid()
    table = table_for_radius(params, grid.r_max, tol, 1)
    z = grid.points()
    if table.is_real:  # the lower half's margins mirror the upper half's
        z = z[: z.size // 2 + 1]
    g = table.g_values(z)
    gp = table.g_prime_values(z)
    # g ~ z at the origin: the near-zero floor of eval_p, at |z| = r_max
    near_zero = np.abs(g) < _near_zero_floor(tol, grid.r_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        margins = _margin_field(z * gp / g, flavor)
    margins[near_zero] = -np.inf
    worst = int(np.argmin(margins))
    zero_in_disk = bool(near_zero.any()) or _zero_count(table, grid.r_max) != 1
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
    """One parameter-sweep entry; slack is NaN for the classical flavor.

    zero_in_disk is the report's: it tells a min_margin of -inf from a zero
    of g in the disk apart from one where P falls on the exponential class's
    branch cut.  A refused (NaN) row keeps False.
    """

    L: float
    eta: float
    slack: float
    min_margin: float
    certified: bool
    zero_in_disk: bool = False


_MAX_LATTICE = 10**6  # values allowed on one scan axis


def _lattice(bounds: tuple[float, float, float]) -> list[float]:
    lo, hi, step = bounds
    if not all(map(math.isfinite, bounds)):
        raise InvalidParams(f"range bounds and step must be finite, got {bounds}")
    if step <= 0:
        raise InvalidParams(f"step must be positive, got {step}")
    if hi < lo:
        return []
    span = (hi - lo) / step
    if not math.isfinite(span) or round(span) >= _MAX_LATTICE:
        raise InvalidParams(f"range {bounds} has more than {_MAX_LATTICE} values")
    count = round(span) + 1
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
                        zero_in_disk=report.zero_in_disk,
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
