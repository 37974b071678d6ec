"""Unit tests for the boundary-locus profiles, extremization, and Psi bounds."""

import cmath
import math
import random

import numpy as np
import pytest

from coulombstar import (
    CoulombParams,
    DomainError,
    admissible_point,
    constant_checks,
    exponential_offset_sq,
    exponential_shift_sq,
    extremize,
    lemniscate_condition,
    lemniscate_offset_sq,
    lemniscate_shift_sq,
    psi_lower_bound,
)
from coulombstar import admissibility, analytic

E = math.e
SQRT2 = math.sqrt(2.0)


class TestAdmissiblePoint:
    def test_lemniscate_center(self):
        pt = admissible_point("lemniscate", 0.0, 1.0)
        assert pt.r == pytest.approx(SQRT2)
        assert pt.s == pytest.approx(1 / (2 * SQRT2))

    def test_exponential_center(self):
        pt = admissible_point("exponential", 0.0, 2.0)
        assert pt.r == pytest.approx(E)
        assert pt.s == pytest.approx(2 * E)

    def test_bad_locus(self):
        with pytest.raises(DomainError):
            admissible_point("frobnicate", 0.0, 1.0)

    def test_unknown_tag_has_no_closed_form(self):
        with pytest.raises(DomainError):
            extremize("X", 1.0)

    def test_m_below_one(self):
        with pytest.raises(DomainError):
            admissible_point("lemniscate", 0.0, 0.5)

    @pytest.mark.parametrize("locus", ["lemniscate", "exponential"])
    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_nonfinite_m(self, locus, m):
        with pytest.raises(DomainError):
            admissible_point(locus, 0.0, m)

    def test_theta_ranges(self):
        with pytest.raises(DomainError):
            admissible_point("lemniscate", math.pi / 4, 1.0)
        with pytest.raises(DomainError):
            admissible_point("exponential", -0.1, 1.0)
        with pytest.raises(DomainError):
            admissible_point("exponential", 2 * math.pi, 1.0)


class TestProfileClosedForms:
    def test_lemniscate_offset_formula(self):
        rng = random.Random(6601)
        for _ in range(50):
            theta = rng.uniform(-math.pi / 4 + 1e-3, math.pi / 4 - 1e-3)
            m = rng.uniform(1.0, 6.0)
            got = lemniscate_offset_sq(theta, m)
            c2 = math.cos(2 * theta)
            closed = m * m / (8 * c2) + m * math.cos(theta) / math.sqrt(2 * c2) + 1
            assert got == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize(
        "profile, theta", [(lemniscate_offset_sq, 0.7), (exponential_offset_sq, 3.0)]
    )
    def test_offset_overflow_is_a_domain_error(self, profile, theta):
        # |s + r^2 - 1| ~ 1e200 here, so its square leaves the doubles
        with pytest.raises(DomainError, match="overflows"):
            profile(theta, 1e200)

    def test_lemniscate_shift_formula(self):
        rng = random.Random(6602)
        for _ in range(50):
            theta = rng.uniform(-math.pi / 4, math.pi / 4)
            got = lemniscate_shift_sq(theta)
            c2 = math.cos(2 * theta)
            closed = 2 * c2 - 2 * SQRT2 * math.cos(theta) * math.sqrt(c2) + 1
            assert got == pytest.approx(closed, rel=1e-12)

    def test_exponential_offset_formula(self):
        # independent trig expansion of |s + r^2 - 1|^2 on the locus
        rng = random.Random(6603)
        for _ in range(50):
            theta = rng.uniform(0.0, 2 * math.pi)
            m = rng.uniform(1.0, 6.0)
            got = exponential_offset_sq(theta, m)
            ec = math.exp(math.cos(theta))
            re = m * ec * math.cos(theta + math.sin(theta)) + ec * ec * math.cos(
                2 * math.sin(theta)
            ) - 1
            im = m * ec * math.sin(theta + math.sin(theta)) + ec * ec * math.sin(
                2 * math.sin(theta)
            )
            assert got == pytest.approx(re * re + im * im, rel=1e-12)

    def test_exponential_shift_formula(self):
        rng = random.Random(6604)
        for _ in range(50):
            theta = rng.uniform(0.0, 2 * math.pi)
            got = exponential_shift_sq(theta)
            closed = (
                math.exp(2 * math.cos(theta))
                - 2 * math.exp(math.cos(theta)) * math.cos(math.sin(theta))
                + 1
            )
            assert got == pytest.approx(closed, rel=1e-12)

    def test_quoted_values(self):
        assert lemniscate_offset_sq(0.0, 1.0) == pytest.approx(
            (1 + 2 * SQRT2) ** 2 / 8, rel=1e-14
        )
        assert lemniscate_offset_sq(0.0, 2.0) == pytest.approx(
            (2 + 2 * SQRT2) ** 2 / 8, rel=1e-14
        )
        assert lemniscate_shift_sq(0.0) == pytest.approx(3 - 2 * SQRT2, rel=1e-14)
        assert lemniscate_shift_sq(math.pi / 4) == pytest.approx(1.0, abs=1e-7)
        assert exponential_offset_sq(math.pi, 1.0) == pytest.approx(
            (1 / E**2 - 1 / E - 1) ** 2, rel=1e-14
        )
        assert exponential_offset_sq(0.0, 1.0) == pytest.approx(
            (E + E**2 - 1) ** 2, rel=1e-14
        )
        assert exponential_shift_sq(0.0) == pytest.approx((E - 1) ** 2, rel=1e-14)
        assert exponential_shift_sq(math.pi) == pytest.approx(
            (1 / E - 1) ** 2, rel=1e-14
        )

    def test_symmetries(self):
        for theta in (0.1, 0.3, 0.7):
            assert lemniscate_offset_sq(-theta, 1.5) == pytest.approx(
                lemniscate_offset_sq(theta, 1.5), rel=1e-13
            )
            assert lemniscate_shift_sq(-theta) == pytest.approx(
                lemniscate_shift_sq(theta), rel=1e-13
            )
        for theta in (0.5, 1.5, 3.0):
            assert exponential_offset_sq(2 * math.pi - theta, 2.0) == pytest.approx(
                exponential_offset_sq(theta, 2.0), rel=1e-12
            )
            assert exponential_shift_sq(2 * math.pi - theta) == pytest.approx(
                exponential_shift_sq(theta), rel=1e-12
            )

    def test_shift_outside_its_domain(self):
        with pytest.raises(DomainError):
            lemniscate_shift_sq(1.0)
        with pytest.raises(DomainError):
            exponential_shift_sq(7.0)

    def test_offset_blows_up_at_lemniscate_edges(self):
        assert lemniscate_offset_sq(math.pi / 4 - 1e-9, 1.0) > 1e7


class TestExtremize:
    @pytest.mark.parametrize("m", [1.0, 2.0, 5.0])
    def test_offset_minimum_lemniscate(self, m):
        report = extremize("U", m)
        assert report.mode == "min"
        assert abs(report.located_arg) <= 1e-5
        assert report.abs_gap <= 1e-8

    @pytest.mark.parametrize("m", [1.0, 2.0, 5.0])
    def test_offset_minimum_exponential(self, m):
        report = extremize("A", m)
        assert report.located_arg == pytest.approx(math.pi, abs=1e-5)
        assert report.abs_gap <= 1e-8

    def test_shift_maximum_exponential(self):
        report = extremize("B")
        assert report.m is None
        # the peak sits at theta = 0 (equivalently 2 pi)
        dist = min(abs(report.located_arg), 2 * math.pi - abs(report.located_arg))
        assert dist <= 1e-5
        assert report.abs_gap <= 1e-8

    def test_shift_profile_peaks_at_interval_edge(self):
        # the lemniscate shift profile has a local MINIMUM at theta = 0
        # (second difference is positive), so its supremum sits at the open
        # interval ends where the profile tends to 1; an honest maximization
        # therefore lands near the edge, far above the quoted center value
        h = 1e-4
        second = (
            lemniscate_shift_sq(h) - 2 * lemniscate_shift_sq(0.0) + lemniscate_shift_sq(-h)
        ) / h**2
        assert second > 0.4  # exact value 6*sqrt(2) - 8 at theta = 0
        report = extremize("V")
        assert abs(report.located_arg) == pytest.approx(math.pi / 4, abs=1e-5)
        assert report.located_value > 0.98
        assert report.abs_gap > 0.8

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            extremize("W")

    def test_m_below_one(self):
        with pytest.raises(DomainError):
            extremize("U", 0.25)

    @pytest.mark.parametrize("tag", ["U", "V", "A", "B"])
    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_nonfinite_m(self, tag, m):
        with pytest.raises(DomainError):
            extremize(tag, m)

    @pytest.mark.parametrize("tag, m", [("U", 1e152), ("U", 1e308), ("A", 1e200)])
    def test_profile_not_finite_on_grid(self, tag, m):
        # the numpy grid overflows quietly and is refused; the scalar U
        # profile raised a bare OverflowError here
        with pytest.raises(DomainError, match="not finite"):
            extremize(tag, m)

    # at U's last m the two grid points either side of theta = 0 tie to an
    # ulp, and the numpy grid values alone pick the other one
    @pytest.mark.parametrize(
        "tag, m",
        [(tag, m) for tag in "UVAB" for m in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 10.0, 100.0)]
        + [("U", 837086.5830555093)],
    )
    def test_matches_scalar_grid_search(self, tag, m):
        got, want = extremize(tag, m), _scalar_extremize(tag, m)
        assert got.located_arg.hex() == want.located_arg.hex()
        assert got.located_value.hex() == want.located_value.hex()
        assert got == want


def _scalar_extremize(tag, m):
    """extremize with every grid point evaluated by the scalar profile."""
    profile = admissibility._PROFILES[tag].scalar
    sign = 1.0 if admissibility.EXTREMIZE_MODES[tag] == "min" else -1.0
    n = admissibility._GRID_POINTS
    if tag in ("U", "V"):
        lo = -math.pi / 4 + admissibility.EDGE_MARGIN
        hi = math.pi / 4 - admissibility.EDGE_MARGIN
        xs = np.linspace(lo, hi, n)
    else:
        xs = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    values = np.array([profile(float(x), m) for x in xs])
    best = int(np.argmin(sign * values))
    step = float(xs[1] - xs[0])
    a, b = float(xs[best]) - step, float(xs[best]) + step
    if tag in ("U", "V"):
        a, b = max(a, lo), min(b, hi)
    arg = admissibility._golden_section(
        lambda t: sign * profile(t, m), a, b, admissibility._GOLDEN_XTOL
    )
    if tag in ("A", "B"):
        arg %= 2 * math.pi
    if tag in ("U", "V"):
        for end in (lo, hi):
            if a <= end <= b and sign * profile(end, m) < sign * profile(arg, m):
                arg = end
    value = profile(arg, m)
    reference = admissibility._PROFILES[tag].quoted(m)
    return admissibility.ExtremumReport(
        tag, m if tag in ("U", "A") else None, admissibility.EXTREMIZE_MODES[tag],
        arg, value, reference, abs(value - reference),
    )


class TestPsiLowerBound:
    def test_lemniscate_instance(self):
        psi, bound = psi_lower_bound(CoulombParams(0.5, 0.0), "lemniscate", 0.0, 1.0, 0.0)
        assert abs(psi) == pytest.approx(1 + 1 / (2 * SQRT2), rel=1e-14)
        assert abs(psi) == pytest.approx(1.3535533905932737, abs=1e-14)
        assert bound.chain_value <= bound.abs_psi

    def test_exponential_instance(self):
        psi, bound = psi_lower_bound(CoulombParams(0.5, 0.0), "exponential", 0.0, 1.0, 0.0)
        assert abs(psi) == pytest.approx(E + E**2 - 1, rel=1e-14)
        assert abs(psi) == pytest.approx(9.107337927389695, abs=1e-12)
        assert bound.offset_abs == pytest.approx(abs(psi), rel=1e-14)

    def test_z_outside_disk(self):
        with pytest.raises(DomainError):
            psi_lower_bound(CoulombParams(0.5, 0.0), "lemniscate", 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                   complex(math.inf, 0.0)])
    def test_non_finite_z_is_refused(self, z):
        with pytest.raises(DomainError):
            psi_lower_bound(CoulombParams(0.5, 0.1), "lemniscate", 0.1, 1.0, z)

    def test_chain_never_exceeds_psi(self):
        rng = random.Random(6605)
        for _ in range(2000):
            if rng.random() < 0.5:
                locus = "lemniscate"
                theta = rng.uniform(-math.pi / 4 + 1e-9, math.pi / 4 - 1e-9)
            else:
                locus = "exponential"
                theta = rng.uniform(0.0, 2 * math.pi - 1e-12)
            m = rng.uniform(1.0, 10.0)
            while True:
                try:
                    params = CoulombParams(
                        complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                        complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                    )
                    break
                except Exception:
                    continue
            z = (
                0.999
                * math.sqrt(rng.random())
                * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            )
            _, bound = psi_lower_bound(params, locus, theta, m, z)
            assert bound.abs_psi >= bound.chain_value

    def test_nonvanishing_on_hypothesis_instances(self):
        # with the sufficient conditions satisfied, |Psi| stays away from 0
        # over sampled boundary data and disk points
        params = CoulombParams(0.5, 0.1)
        thetas_lem = [k / 50 * (math.pi / 2 - 2e-6) - (math.pi / 4 - 1e-6) for k in range(51)]
        thetas_exp = [k / 50 * 2 * math.pi for k in range(50)]
        for locus, thetas in (("lemniscate", thetas_lem), ("exponential", thetas_exp)):
            worst = math.inf
            for theta in thetas:
                for m in (1.0, 1.5, 2.0):
                    for rz in (0.0, 0.5, 0.99):
                        for phase in (0.0, math.pi / 2, math.pi):
                            z = rz * cmath.exp(1j * phase)
                            psi, _ = psi_lower_bound(params, locus, theta, m, z)
                            worst = min(worst, abs(psi))
            assert worst > 0


class TestConstantChecks:
    def test_shapes_and_consistency(self):
        checks = constant_checks()
        assert len(checks) == 2
        lem, exp = checks
        assert lem["locus"] == "lemniscate"
        assert lem["consistent"]
        assert lem["abs_diff"] <= 1e-12
        assert lem["lhs"] == pytest.approx(SQRT2 / 4, abs=1e-15)
        assert exp["locus"] == "exponential"
        assert exp["consistent"]
        assert exp["lhs"] == pytest.approx((E - 1) / E**2, abs=1e-15)
        # the offset lower bound on the exponential locus is the positive
        # quantity 1 + 1/e - 1/e^2, recorded and flagged explicitly
        assert exp["offset_lower_bound"] == pytest.approx(
            1 + 1 / E - 1 / E**2, abs=1e-14
        )
        assert exp["lower_bound_positive"] is True

    def test_reads_the_conditions_that_certify_reads(self, monkeypatch):
        # one (threshold, k) table: moving the lemniscate row moves the
        # slack of certify's condition, the check's rhs and V's quoted
        # maximum alike, and the check then reports the mismatch
        threshold, k = analytic._CONDITIONS["lemniscate"]
        monkeypatch.setitem(analytic._CONDITIONS, "lemniscate", (threshold + 1e-3, k + 1e-3))
        assert lemniscate_condition(CoulombParams(0.5, 0.0))[1] == threshold + 1e-3
        lem = constant_checks()[0]
        assert lem["rhs"] == threshold + 1e-3
        assert not lem["consistent"]
        assert extremize("V").closed_form == (k + 1e-3) ** 2
