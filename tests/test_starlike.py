"""Unit tests for region margins, hypothesis slacks, and disk certification."""

import math
import random
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import coulombstar.starlike as starlike
import coulombstar.zeros as zeros_module
from coulombstar import (
    DEFAULT_TOL,
    EXPONENTIAL_THRESHOLD,
    LEMNISCATE_THRESHOLD,
    CoulombParams,
    InvalidParams,
    NoConvergence,
    ScanGrid,
    StarlikeClass,
    certify,
    classical_margin,
    exponential_condition,
    exponential_margin,
    lemniscate_condition,
    lemniscate_margin,
    parameter_scan,
    table_for_radius,
    winding_number,
)
from coulombstar.series import CoefficientTable, _tail_bounds
from coulombstar.zeros import _arc_count

INSTANCE = CoulombParams(0.5, 0.1)
EPS = sys.float_info.epsilon


class TestMargins:
    def test_classical(self):
        assert classical_margin(1.0) == 1.0
        assert classical_margin(1j) == 0.0
        assert classical_margin(-2 + 1j) == -2.0

    def test_lemniscate(self):
        assert lemniscate_margin(1.0) == 1.0
        assert abs(lemniscate_margin(math.sqrt(2.0))) <= 1e-15
        assert lemniscate_margin(1j) == -1.0

    def test_exponential(self):
        assert exponential_margin(1.0) == 1.0
        assert abs(exponential_margin(math.e)) <= 1e-15
        assert exponential_margin(-1.0) == -math.inf
        assert exponential_margin(0.0) == -math.inf
        # small positive reals are outside but off the sentinel cut
        assert exponential_margin(0.1) == pytest.approx(1.0 - abs(math.log(0.1)))

    def test_unit_point_inside_all_regions(self):
        assert classical_margin(1.0) == 1.0
        assert lemniscate_margin(1.0) == 1.0
        assert exponential_margin(1.0) == 1.0

    def test_lemniscate_left_loop_is_outside(self):
        # |w^2 - 1| < 1 holds on the left loop too; Re w > 0 excludes it
        assert lemniscate_margin(-1.0) < 0
        assert lemniscate_margin(-1.2 + 0.1j) < 0

    @pytest.mark.parametrize("flavor", list(StarlikeClass))
    def test_scalar_margins_agree_with_the_field(self, flavor):
        scalar = {StarlikeClass.CLASSICAL: classical_margin,
                  StarlikeClass.LEMNISCATE: lemniscate_margin,
                  StarlikeClass.EXPONENTIAL: exponential_margin}[flavor]
        rng = random.Random(11)
        points = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(200)]
        points += [0.0, -1.0, 1.0, 1j, -1j, -1.2 + 0.1j, math.sqrt(2.0), math.e]
        field = starlike._margin_field(np.array(points, dtype=complex), flavor)
        assert [scalar(w) for w in points] == field.tolist()


class TestConditions:
    def test_thresholds(self):
        assert LEMNISCATE_THRESHOLD == pytest.approx(math.sqrt(2.0) / 4, abs=1e-16)
        assert EXPONENTIAL_THRESHOLD == pytest.approx(
            (math.e - 1) / math.e**2, abs=1e-16
        )

    def test_lemniscate_slacks(self):
        ok, slack = lemniscate_condition(CoulombParams(0.5, 0.0))
        assert ok and slack == pytest.approx(math.sqrt(2.0) / 4, abs=1e-15)
        ok, slack = lemniscate_condition(INSTANCE)
        assert ok and slack == pytest.approx(0.1535533905932738, abs=1e-13)
        ok, slack = lemniscate_condition(CoulombParams(0.5, 0.2))
        assert not ok and slack == pytest.approx(-0.0464466094067262, abs=1e-13)

    def test_exponential_slacks(self):
        ok, slack = exponential_condition(CoulombParams(0.5, 0.0))
        assert ok and slack == pytest.approx(0.2325441579348296, abs=1e-13)
        ok, slack = exponential_condition(INSTANCE)
        assert ok and slack == pytest.approx(0.0325441579348296, abs=1e-13)
        ok, slack = exponential_condition(CoulombParams(0.6, 0.0))
        assert not ok and slack == pytest.approx(-0.1111122077, abs=1e-6)

    def test_exponential_region_is_smaller(self):
        # pointwise the exponential slack always trails the lemniscate slack
        for L in np.arange(0.3, 0.7001, 0.02):
            for eta in np.arange(-0.1, 0.1001, 0.01):
                p = CoulombParams(float(L), float(eta))
                assert exponential_condition(p)[1] < lemniscate_condition(p)[1]

    def test_flip_band_between_thresholds(self):
        # at |2L-1| = 0 and 2|eta| between the two thresholds, exactly the
        # lemniscate hypothesis survives
        p = CoulombParams(0.5, 0.15)
        assert lemniscate_condition(p)[0]
        assert not exponential_condition(p)[0]


class TestScanGrid:
    def test_default_shape(self):
        grid = ScanGrid()
        assert grid.angles_per_ring == 720
        assert grid.r_max == 0.999
        assert grid.points().shape == (720,)
        assert np.allclose(np.abs(grid.points()), 0.999, rtol=0, atol=1e-15)

    def test_points_are_computed_once(self):
        grid = ScanGrid(angles_per_ring=12)
        assert grid.points() is grid.points()
        assert not grid.points().flags.writeable

    def test_invalid_grids(self):
        with pytest.raises(InvalidParams):
            ScanGrid(r_max=1.0)
        with pytest.raises(InvalidParams):
            ScanGrid(r_max=0.0)
        with pytest.raises(InvalidParams):
            ScanGrid(angles_per_ring=0)
        with pytest.raises(InvalidParams):
            ScanGrid(angles_per_ring=2**18 + 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 12, 720, 1440])
    def test_points_are_conjugate_symmetric(self, n):
        # points[n - k] = conj(points[k]): the real parts share their bits,
        # the imaginary parts are exact negatives (the points on the real
        # axis, k = 0 and k = n / 2, have imaginary part +0.0 on both sides)
        points = ScanGrid(n, 0.999).points()
        mirror = points[(n - np.arange(n)) % n]
        assert np.array_equal(mirror.real.view(np.int64), points.real.view(np.int64))
        assert np.array_equal(mirror.imag, -points.imag)
        assert points[0] == 0.999 and (n % 2 or points[n // 2] == -0.999)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 12, 720, 1440])
    def test_upper_half_keeps_the_angle_formula(self, n):
        # k <= n // 2 keeps r exp(i 2 pi k / n), bit for bit, but for even n
        # the point k = n / 2 is -r itself
        points = ScanGrid(n, 0.999).points()[: n // 2 + 1]
        expected = 0.999 * np.exp(1j * (2 * np.pi * np.arange(n) / n))[: n // 2 + 1]
        if n % 2 == 0:
            expected[-1] = -0.999
        assert points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("r_max", [5e-324, 1e-310, math.nan])
    def test_subnormal_radius_is_refused(self, r_max):
        # certify at such a radius overflowed z g'/g and the arc bounds, and
        # then reported a zero in the disk
        with pytest.raises(InvalidParams):
            ScanGrid(r_max=r_max)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r_max", [sys.float_info.min, 1e-307])
    def test_least_normal_radius_certifies(self, r_max):
        # 1e-308 itself is subnormal, below sys.float_info.min = 2.2e-308
        report = certify(CoulombParams(0.3, 0.2), StarlikeClass.CLASSICAL, ScanGrid(720, r_max))
        assert report.certified and not report.zero_in_disk
        assert report.min_margin == pytest.approx(1.0)


def interior_grid_min(params, flavor, grid):
    """Least margin over a 40-ring polar grid filling |z| <= r_max.

    The reference for the maximum principle: certify samples only the outer
    ring, and no interior ring may go lower.  The sine case uses the exact
    P = z cot z; other parameters use the series table.
    """
    radii = np.array([grid.r_max * (j + 1) / 40 for j in range(40)])
    n = grid.angles_per_ring
    z = radii[:, None] * np.exp(2j * np.pi * np.arange(n) / n)[None, :]
    if params.L == 0 and params.eta == 0:
        P = z * np.cos(z) / np.sin(z)
    else:
        table = table_for_radius(params, grid.r_max, DEFAULT_TOL, deriv=1)
        P = z * table.g_prime_values(z) / table.g_values(z)
    if flavor is StarlikeClass.CLASSICAL:
        margins = np.vectorize(classical_margin)(P)
    elif flavor is StarlikeClass.LEMNISCATE:
        margins = np.minimum(np.vectorize(lemniscate_margin)(P), P.real)
    else:
        margins = np.vectorize(exponential_margin)(P)
    return float(margins.min())


class TestCertify:
    def test_lemniscate_instance(self):
        report = certify(INSTANCE, StarlikeClass.LEMNISCATE)
        assert report.certified
        assert report.hypothesis_satisfied
        assert report.min_margin > 0
        assert not report.zero_in_disk

    def test_exponential_instance(self):
        report = certify(INSTANCE, StarlikeClass.EXPONENTIAL)
        assert report.certified
        assert report.hypothesis_satisfied

    def test_classical_sine_matches_direct_scan(self):
        report = certify(CoulombParams(0.0, 0.0), StarlikeClass.CLASSICAL)
        assert report.certified
        assert not report.hypothesis_satisfied  # N/A tag for classical
        # independent oracle: g = sin, so the margin field is Re(z cos z / sin z)
        z = report.grid.points()
        direct = np.min((z * np.cos(z) / np.sin(z)).real)
        assert report.min_margin == pytest.approx(float(direct), abs=1e-12)

    def test_classical_negative_case(self):
        report = certify(CoulombParams(-0.9, 0.0), StarlikeClass.CLASSICAL)
        assert not report.certified
        assert report.min_margin < 0

    def test_worst_point_attains_min(self):
        report = certify(INSTANCE, StarlikeClass.LEMNISCATE)
        from coulombstar import eval_p

        P = eval_p(INSTANCE, report.worst_point).P
        margin = min(lemniscate_margin(P), P.real)
        assert margin == pytest.approx(report.min_margin, abs=1e-12)

    @pytest.mark.parametrize(
        "L, eta, flavor",
        [(0.0, 0.0, c) for c in StarlikeClass]
        + [(0.5, 0.1, c) for c in StarlikeClass]
        + [
            (0.3, -0.1, StarlikeClass.LEMNISCATE),
            (0.6, 0.05, StarlikeClass.EXPONENTIAL),
            (0.2, 0.3, StarlikeClass.CLASSICAL),
        ],
    )
    def test_circle_minimum_bounds_interior(self, L, eta, flavor):
        params = CoulombParams(L, eta)
        report = certify(params, flavor)
        interior = interior_grid_min(params, flavor, report.grid)
        assert report.min_margin <= interior + 1e-12
        assert report.certified == (interior > 0)

    def test_complex_parameters_accepted(self):
        report = certify(CoulombParams(0.5 + 0.05j, 0.1), StarlikeClass.LEMNISCATE)
        assert math.isfinite(report.min_margin)

    def test_zero_on_grid_is_flagged(self):
        # g for (L=0, eta=5) vanishes at about -0.3627, inside the disk; aim
        # a two-point circle exactly at it
        params = CoulombParams(0.0, 5.0)
        grid = ScanGrid(angles_per_ring=2, r_max=0.362658574621303)
        report = certify(params, StarlikeClass.CLASSICAL, grid)
        assert report.zero_in_disk
        assert not report.certified
        assert report.min_margin == -math.inf

    def test_zero_between_circle_samples_is_flagged(self):
        # the same zero on a three-point circle: no sample comes near it, and
        # no arc around it can close, which is reported, not raised
        params = CoulombParams(0.0, 5.0)
        grid = ScanGrid(angles_per_ring=3, r_max=0.362658574621303)
        report = certify(params, StarlikeClass.CLASSICAL, grid)
        assert report.zero_in_disk
        assert not report.certified
        assert report.min_margin == -math.inf
        assert report.worst_point in grid.points()

    @pytest.mark.parametrize("L, eta", [(0.0, 5.0), (-0.4, 0.8)])
    @pytest.mark.parametrize("flavor", list(StarlikeClass))
    def test_zero_inside_disk_is_flagged(self, L, eta, flavor):
        # g has a real zero inside |z| < 0.999, at -0.3627 and at -0.9911,
        # that no circle sample lands on; only the winding count sees it
        report = certify(CoulombParams(L, eta), flavor)
        assert report.zero_in_disk
        assert report.min_margin == -math.inf
        assert not report.certified
        assert abs(report.worst_point) == pytest.approx(0.999, abs=1e-15)

    @pytest.mark.parametrize("angles", [1, 3, 720])
    @pytest.mark.parametrize("r_max, inside", [(0.36265, False), (0.36266, True)])
    def test_zero_near_circle_is_placed_exactly(self, angles, r_max, inside):
        # the zero of (0, 5) sits at |rho| = 0.362658574621303: 8.6e-6 outside
        # the first circle and 1.4e-6 inside the second
        report = certify(CoulombParams(0.0, 5.0), StarlikeClass.CLASSICAL,
                         ScanGrid(angles, r_max))
        assert report.zero_in_disk is inside

    @pytest.mark.parametrize("flavor", list(StarlikeClass))
    def test_tiny_disk_certifies(self, flavor):
        # 2|L|/r^2 makes the ODE arc bound useless at r = 1e-6; Rouche's
        # test must prove the disk without it
        report = certify(CoulombParams(1.4, 0.8), flavor, ScanGrid(720, 1e-6))
        assert report.certified and not report.zero_in_disk

    @pytest.mark.parametrize("r_max", [1e-20, 1e-100, 1e-200])
    def test_origin_disk_certifies(self, r_max):
        # |g| ~ r_max on the circle is below 10 * tol but is no zero of g
        report = certify(CoulombParams(0.3, 0.2), StarlikeClass.CLASSICAL,
                         ScanGrid(720, r_max))
        assert report.certified and not report.zero_in_disk
        assert report.min_margin == pytest.approx(1.0)

    def test_zero_just_outside_is_not_flagged(self):
        report = certify(CoulombParams(0.0, 5.0), StarlikeClass.CLASSICAL,
                         ScanGrid(720, 0.3626))
        assert not report.zero_in_disk
        assert -math.inf < report.min_margin < 0  # P's pole sits near the circle

    def test_rouche_pair_evaluates_no_bounded_sample(self, monkeypatch):
        # S + tail0 < 2 r_max proves the disk: g is evaluated on the grid
        # only, by one product over its upper half for a real pair, and by
        # no Horner pass
        sizes = []
        samples = starlike._circle_samples

        def counted(table, r, angles, m):
            sizes.append(m)
            return samples(table, r, angles, m)

        def sampled(*args):
            raise AssertionError("certify evaluated a bounded sample")

        def horner(*args):
            raise AssertionError("certify took a Horner pass")

        monkeypatch.setattr(starlike, "_circle_samples", counted)
        monkeypatch.setattr(zeros_module, "_bounded_horner", sampled)
        monkeypatch.setattr(CoefficientTable, "g_values", horner)
        monkeypatch.setattr(CoefficientTable, "g_prime_values", horner)
        certify(INSTANCE, StarlikeClass.LEMNISCATE)
        assert sizes == [361]

    @pytest.mark.parametrize("angles", [3, 720])
    def test_count_samples_its_own_circle_when_rouche_fails(self, monkeypatch, angles):
        # (-0.4, 0.8) has a zero in the disk: this real pair fails Rouche's
        # test and takes J's inertia, whatever the grid, with no bounded
        # sample of g (its complex twin below samples the circle)
        inertia = []
        inertia_count = zeros_module._inertia_count

        def recorded(*args):
            inertia.append(inertia_count(*args))
            return inertia[-1]

        monkeypatch.setattr(zeros_module, "_inertia_count", recorded)
        report, samples, products = _count_passes(monkeypatch, CoulombParams(-0.4, 0.8), angles)
        assert report.zero_in_disk
        assert inertia == [2] and samples == [] and products == []

    @pytest.mark.parametrize("angles", [3, 720])
    def test_complex_count_samples_the_whole_circle(self, monkeypatch, angles):
        # a complex pair that fails Rouche's test: 720 arcs on the whole
        # circle from one product pass, their path closed by a repeat of the
        # first sample, which close with no bounded Horner sample
        params = CoulombParams(-0.35 + 0.1j, 0.9 - 0.2j)
        report, samples, products = _count_passes(monkeypatch, params, angles)
        assert not report.zero_in_disk
        assert products == [721] and samples == []

    @pytest.mark.parametrize("angles", [1, 2, 3, 12, 720, 1440])
    def test_half_grid_matches_full_grid(self, monkeypatch, angles):
        # for a real table certify reads g on the upper half of the grid and
        # takes the count from J's inertia; with the realness predicate
        # turned off it evaluates the whole grid and counts on the whole
        # circle, and every report field must come out the same, bit for bit
        rng = random.Random(20261019 + angles)
        pairs = [(0.0, 0.0), (1.0, 0.3), (2.0, -0.5), (-1.3, 0.0), (-1.3, 0.4),
                 (-0.4, 0.8), (0.5, 0.1)]
        pairs += [(rng.uniform(-0.45, 1.4), rng.uniform(-0.8, 0.8)) for _ in range(25)]
        pairs += [(rng.uniform(-1.45, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(15)]
        grid = ScanGrid(angles)

        def reports():
            return [
                (report.min_margin.hex(), report.worst_point.real.hex(),
                 report.worst_point.imag.hex(), report.zero_in_disk)
                for L, eta in pairs for flavor in StarlikeClass
                for report in [certify(CoulombParams(L, eta), flavor, grid)]
            ]

        half = reports()
        monkeypatch.setattr(CoefficientTable, "is_real", property(lambda table: False))
        assert half == reports()
        assert any(zero for *_, zero in half) and not all(zero for *_, zero in half)

    def test_jsonable_shape(self):
        report = certify(INSTANCE, StarlikeClass.LEMNISCATE)
        d = report.to_jsonable()
        assert d["class"] == "lemniscate"
        assert d["certified"] is True
        assert set(d["worst_point"].keys()) == {"re", "im"}
        assert d["grid"] == {"angles_per_ring": 720, "r_max": 0.999}
        assert "per_ring_margins" not in d


def _count_passes(monkeypatch, params, angles):
    """certify's report, and the samples in each of its count's Horner and product passes."""
    sizes, products = [], []
    bounded_horner, circle_samples = zeros_module._bounded_horner, zeros_module._circle_samples

    def counted(coeffs, z, r):
        sizes.append(z.size)
        return bounded_horner(coeffs, z, r)

    def multiplied(table, r, angles, m):
        out = circle_samples(table, r, angles, m)
        products.append(m)
        return out

    monkeypatch.setattr(zeros_module, "_bounded_horner", counted)
    monkeypatch.setattr(zeros_module, "_circle_samples", multiplied)
    return certify(params, StarlikeClass.LEMNISCATE, ScanGrid(angles)), sizes, products


def certify_table(params, r_max):
    """The table certify builds for a circle of radius r_max."""
    return table_for_radius(params, r_max, DEFAULT_TOL, 1)


class TestGridProduct:
    """certify's g and g' from zeros._circle_samples, on the one table of its grid's angle count."""

    @pytest.mark.parametrize("r_max", [1e-3, 0.3626, 0.999])
    @pytest.mark.parametrize("angles", [1, 2, 3, 12, 101, 720, 1440])
    def test_samples_lie_within_the_bound(self, monkeypatch, angles, r_max):
        # certify samples g and g' at zeta_k = r_max omega^k by
        # zeros._circle_samples, whose bound test_zeros.py's
        # TestProductPass.test_samples_lie_within_err checks on these pairs
        # and radii: the upper half for a real pair, the whole circle for a
        # complex one, with the same bits as the whole circle that test
        # reads.  P takes the grid's own point z_k, which lies within 5 eps
        # r_max of zeta_k (50 digits), and is zeta_k at k = 0 and n/2
        rng = random.Random(20261021 + angles)
        pairs = [(rng.uniform(-0.4, 1.4), rng.uniform(-0.8, 0.8)),
                 (complex(rng.uniform(-0.4, 1.4), rng.uniform(-0.3, 0.3)),
                  complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8))),
                 (0.9, 6.0)]  # order 24 at r_max = 0.999
        grid, calls = ScanGrid(angles, r_max), []
        samples = starlike._circle_samples

        def recorded(table, r, n, m):
            calls.append((table, r, n, m))
            out = samples(table, r, n, m)
            assert out[0].tobytes() == samples(table, r, n, n + 1)[0][:, :m].tobytes()
            return out

        monkeypatch.setattr(starlike, "_circle_samples", recorded)
        for L, eta in pairs:
            certify(CoulombParams(L, eta), StarlikeClass.CLASSICAL, grid)
        assert [(r, n, m) for table, r, n, m in calls] == [
            (r_max, angles, angles // 2 + 1 if table.is_real else angles) for table, *_ in calls]
        assert [table.is_real for table, *_ in calls] == [True, False, True]
        z = grid.points()
        assert z[0] == r_max and (angles % 2 or z[angles // 2] == -r_max)
        with mp.workdps(50):
            for k, point in enumerate(z.tolist()):
                zeta = mp.mpf(r_max) * mp.expjpi(mp.mpf(2 * k) / angles)
                assert abs(mp.mpc(point) - zeta) <= 5 * EPS * r_max, k

    @pytest.mark.parametrize("angles", [1, 2, 3, 12, 101, 720, 1440])
    def test_real_table_is_real_on_the_axis(self, angles):
        # z_0 = r_max, and z_(n/2) = -r_max for even n: a real table's g and
        # g' there have imaginary part 0 exactly
        for L, eta in [(0.5, 0.1), (-0.4, 0.8), (0.9, 6.0)]:
            table = certify_table(CoulombParams(L, eta), 0.999)
            samples, _ = zeros_module._circle_samples(table, 0.999, angles, angles // 2 + 1)
            axis = [0] if angles % 2 else [0, angles // 2]
            assert table.is_real and samples[:, axis].imag.tolist() == [[0.0] * len(axis)] * 2

    def test_table_is_kept_and_grows_with_the_order(self, monkeypatch):
        # grids of 12 angles read the one table of 12 angles, whatever their
        # r_max: kept, rebuilt with more rows for a larger order, sliced for
        # a smaller one, and read by a complex table too (its lower half by
        # conjugation)
        monkeypatch.setattr(zeros_module, "_TABLES", {})
        tables = zeros_module._TABLES
        certify(INSTANCE, StarlikeClass.LEMNISCATE, ScanGrid(12, 0.999))
        kept = tables[12]
        assert kept.shape == (18, 7) and not kept.flags.writeable
        certify(CoulombParams(0.3, -0.2), StarlikeClass.CLASSICAL, ScanGrid(12, 0.5))
        assert tables[12] is kept
        certify(CoulombParams(0.9, 6.0), StarlikeClass.CLASSICAL, ScanGrid(12, 0.999))  # order 24
        grown = tables[12]
        assert grown.shape == (26, 7) and np.array_equal(grown[:18], kept)
        certify(INSTANCE, StarlikeClass.LEMNISCATE, ScanGrid(12, 0.3626))
        certify(CoulombParams(0.5 + 0.05j, 0.1), StarlikeClass.LEMNISCATE, ScanGrid(12, 0.999))
        assert tables[12] is grown and list(tables) == [12]

    def test_default_grid_keeps_its_table(self, monkeypatch):
        # certify and parameter_scan with no grid share one grid, equal to
        # ScanGrid(), and its 720 angles' table, the circle count's
        monkeypatch.setattr(zeros_module, "_TABLES", {})
        certify(INSTANCE, StarlikeClass.LEMNISCATE)
        kept = zeros_module._TABLES[720]
        report = certify(CoulombParams(0.3, -0.2), StarlikeClass.EXPONENTIAL)
        parameter_scan((0.4, 0.5, 0.1), (0.0, 0.0, 0.1), StarlikeClass.CLASSICAL)
        assert report.grid is starlike._DEFAULT_GRID and report.grid == ScanGrid()
        assert zeros_module._TABLES == {720: kept}
        assert zeros_module._CIRCLE_SAMPLES == starlike._DEFAULT_GRID.angles_per_ring

    @pytest.mark.parametrize("L, peak_limit", [(0.5, 2 * 9.13), (0.5 + 0.05j, 2 * 18.25)])
    def test_large_grid_keeps_no_table(self, L, peak_limit):
        # at 2^18 angles the table is built and multiplied in blocks and
        # not kept: certify retains at most 1 MiB (2^16 complex entries, one
        # block), and its traced peak stays within twice the 9.13 MiB (real) and
        # 18.25 MiB (complex) that two Horner passes took
        params = CoulombParams(L, 0.1)
        certify(params, StarlikeClass.LEMNISCATE, ScanGrid(12, 0.999))
        grid = ScanGrid(1 << 18, 0.999)
        grid.points()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = certify(params, StarlikeClass.LEMNISCATE, grid)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.certified and (1 << 18) not in zeros_module._TABLES
        assert after - before <= 16 << 16
        assert peak - before <= peak_limit * 2**20


class TestCircleWinding:
    @pytest.mark.parametrize("angles", [3, 12, 720])
    def test_matches_winding_number(self, angles):
        rng = random.Random(20261018)
        pairs = [(rng.uniform(-0.4, 1.4), rng.uniform(-0.8, 0.8)) for _ in range(500)]
        pairs += [(-0.4, 0.8), (-0.4, -0.8), (-0.3954, 0.8)]
        # complex pairs take the same count; some put a second zero in the disk
        pairs += [(complex(rng.uniform(-0.45, 1.4), rng.uniform(-0.3, 0.3)),
                   complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8)))
                  for _ in range(250)]
        grid = ScanGrid(angles)
        for L, eta in pairs:
            params = CoulombParams(L, eta)
            report = certify(params, StarlikeClass.CLASSICAL, grid)
            table = certify_table(params, grid.r_max)
            assert report.zero_in_disk == (winding_number(table, grid.r_max) != 1), (L, eta)

    @pytest.mark.parametrize("angles", [3, 12, 720])
    def test_corner_zero_is_counted(self, angles):
        # a real zero at -0.9911 lies inside the default circle
        grid = ScanGrid(angles)
        for eta in (0.8, -0.8):
            params = CoulombParams(-0.4, eta)
            assert winding_number(certify_table(params, grid.r_max), grid.r_max) == 2
            assert certify(params, StarlikeClass.CLASSICAL, grid).zero_in_disk

    def test_zero_on_the_circle_is_unresolved(self):
        # the circle runs through the zero itself, where no arc can close
        r = 0.362658574621303
        table = certify_table(CoulombParams(0.0, 5.0), r)
        assert _arc_count(table, _tail_bounds(table.coeffs, table.params, r), r) is None


class TestParameterScan:
    def test_rows_match_certify(self):
        grid = ScanGrid(angles_per_ring=90)
        rows = parameter_scan(
            (0.4, 0.6, 0.1), (0.0, 0.1, 0.05), StarlikeClass.LEMNISCATE, grid
        )
        assert len(rows) == 9
        for row in rows:
            report = certify(
                CoulombParams(row.L, row.eta), StarlikeClass.LEMNISCATE, grid
            )
            assert row.min_margin == pytest.approx(report.min_margin, abs=1e-12)
            assert row.certified == report.certified
            if row.slack > 0:
                assert row.certified

    @pytest.mark.parametrize("bad", [(0.4, 0.5, math.nan), (0.4, 0.5, math.inf),
                                     (-math.inf, 0.5, 0.1), (0.4, math.inf, 0.1),
                                     (-1e308, 1e308, 1e-300), (0.0, 1.0, 1e-300),
                                     (0.0, 1.0, 1e-6)])
    def test_nonfinite_range_refuses(self, bad):
        with pytest.raises(InvalidParams):
            parameter_scan(bad, (0.0, 0.0, 0.1), StarlikeClass.CLASSICAL)

    def test_repeated_classical_scan_compares_equal(self):
        # rows compare as tuples, where NaN equals only the same object: the
        # classical slack must be math.nan itself, as a refused row's is
        rectangle = ((-1.0, -0.5, 0.5), (0.0, 0.1, 0.1), StarlikeClass.CLASSICAL,
                     ScanGrid(angles_per_ring=36))
        rows = parameter_scan(*rectangle)
        assert all(math.isnan(row.slack) for row in rows)
        assert rows == parameter_scan(*rectangle)

    def test_empty_range(self):
        assert parameter_scan((0.5, 0.4, 0.1), (0.0, 0.1, 0.1), StarlikeClass.CLASSICAL) == []

    def test_single_point_slack(self):
        rows = parameter_scan(
            (0.5, 0.5, 0.1), (0.0, 0.0, 0.1), StarlikeClass.LEMNISCATE,
            ScanGrid(angles_per_ring=36),
        )
        assert len(rows) == 1
        assert rows[0].slack == pytest.approx(math.sqrt(2.0) / 4, abs=1e-15)

    def test_invalid_point_recorded_not_raised(self):
        rows = parameter_scan(
            (-1.0, -1.0, 0.5), (0.0, 0.0, 0.1), StarlikeClass.CLASSICAL,
            ScanGrid(angles_per_ring=36),
        )
        assert len(rows) == 1
        assert math.isnan(rows[0].min_margin)
        assert not rows[0].certified

    def test_refusal_recorded_as_nan_row(self, monkeypatch):
        def refuse(*args):
            raise NoConvergence("forced refusal")

        monkeypatch.setattr(starlike, "certify", refuse)
        rows = parameter_scan((0.5, 0.5, 0.1), (0.0, 0.0, 0.1), StarlikeClass.LEMNISCATE)
        assert len(rows) == 1
        assert math.isnan(rows[0].min_margin) and math.isnan(rows[0].slack)
        assert not rows[0].certified

    def test_non_library_error_propagates(self, monkeypatch):
        def broken(*args):
            raise ValueError("a fault, not a refusal")

        monkeypatch.setattr(starlike, "certify", broken)
        with pytest.raises(ValueError, match="a fault"):
            parameter_scan((0.5, 0.5, 0.1), (0.0, 0.0, 0.1), StarlikeClass.LEMNISCATE)

    @pytest.mark.parametrize("L, eta, in_disk", [(-0.4, 0.8, True), (-0.4, -0.7, False)])
    def test_row_tells_a_zero_in_disk_from_the_branch_cut(self, L, eta, in_disk):
        # both rows read -inf: (-0.4, 0.8) has a zero of g in the disk, and
        # (-0.4, -0.7) has P on the exponential branch cut at z = -r_max
        (row,) = parameter_scan((L, L, 0.1), (eta, eta, 0.1), StarlikeClass.EXPONENTIAL)
        report = certify(CoulombParams(L, eta), StarlikeClass.EXPONENTIAL, ScanGrid())
        assert row.min_margin == -math.inf and not row.certified
        assert row.zero_in_disk is report.zero_in_disk is in_disk

    def test_refused_row_has_no_zero_in_disk(self):
        (row,) = parameter_scan((-1.0, -1.0, 0.5), (0.0, 0.0, 0.1), StarlikeClass.CLASSICAL)
        assert math.isnan(row.min_margin) and row.zero_in_disk is False

    def test_classical_rows_have_nan_slack(self):
        rows = parameter_scan(
            (0.5, 0.5, 0.1), (0.0, 0.0, 0.1), StarlikeClass.CLASSICAL,
            ScanGrid(angles_per_ring=36),
        )
        assert math.isnan(rows[0].slack)
