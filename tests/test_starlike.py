"""Unit tests for region margins, hypothesis slacks, and disk certification."""

import math

import numpy as np
import pytest

import coulombstar.starlike as starlike
from coulombstar import (
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
)

INSTANCE = CoulombParams(0.5, 0.1)


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
        grid = ScanGrid.default()
        assert grid.rings == 40
        assert grid.angles_per_ring == 720
        assert grid.radii[-1] == pytest.approx(0.999)
        assert all(b > a for a, b in zip(grid.radii, grid.radii[1:]))
        assert grid.points().shape == (40, 720)

    def test_invalid_grids(self):
        with pytest.raises(InvalidParams):
            ScanGrid(radii=())
        with pytest.raises(InvalidParams):
            ScanGrid(radii=(0.5, 0.4))
        with pytest.raises(InvalidParams):
            ScanGrid(radii=(0.5,), r_max=1.0)
        with pytest.raises(InvalidParams):
            ScanGrid(radii=(0.5,), angles_per_ring=0)


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

    def test_per_ring_margin_continuity(self):
        for flavor in (
            StarlikeClass.LEMNISCATE,
            StarlikeClass.EXPONENTIAL,
            StarlikeClass.CLASSICAL,
        ):
            report = certify(INSTANCE, flavor)
            margins = report.per_ring_margins
            assert len(margins) == 40
            for a, b in zip(margins, margins[1:]):
                assert abs(b - a) < 0.1

    def test_complex_parameters_accepted(self):
        report = certify(CoulombParams(0.5 + 0.05j, 0.1), StarlikeClass.LEMNISCATE)
        assert math.isfinite(report.min_margin)

    def test_zero_on_grid_is_flagged(self):
        # g for (L=0, eta=5) vanishes at about -0.3627, inside the disk;
        # aim a two-point ring exactly at it
        params = CoulombParams(0.0, 5.0)
        x0 = -0.362658574621303
        grid = ScanGrid(radii=(abs(x0),), angles_per_ring=2, r_max=0.999)
        report = certify(params, StarlikeClass.CLASSICAL, grid)
        assert report.zero_in_disk
        assert not report.certified
        assert report.min_margin == -math.inf

    def test_jsonable_shape(self):
        report = certify(INSTANCE, StarlikeClass.LEMNISCATE)
        d = report.to_jsonable()
        assert d["class"] == "lemniscate"
        assert d["certified"] is True
        assert set(d["worst_point"].keys()) == {"re", "im"}
        assert len(d["per_ring_margins"]) == 40


class TestParameterScan:
    def test_rows_match_certify(self):
        grid = ScanGrid.default(rings=10, angles_per_ring=90)
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

    def test_empty_range(self):
        assert parameter_scan((0.5, 0.4, 0.1), (0.0, 0.1, 0.1), StarlikeClass.CLASSICAL) == []

    def test_single_point_slack(self):
        rows = parameter_scan(
            (0.5, 0.5, 0.1), (0.0, 0.0, 0.1), StarlikeClass.LEMNISCATE,
            ScanGrid.default(rings=5, angles_per_ring=36),
        )
        assert len(rows) == 1
        assert rows[0].slack == pytest.approx(math.sqrt(2.0) / 4, abs=1e-15)

    def test_invalid_point_recorded_not_raised(self):
        rows = parameter_scan(
            (-1.0, -1.0, 0.5), (0.0, 0.0, 0.1), StarlikeClass.CLASSICAL,
            ScanGrid.default(rings=5, angles_per_ring=36),
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

    def test_classical_rows_have_nan_slack(self):
        rows = parameter_scan(
            (0.5, 0.5, 0.1), (0.0, 0.0, 0.1), StarlikeClass.CLASSICAL,
            ScanGrid.default(rings=5, angles_per_ring=36),
        )
        assert math.isnan(rows[0].slack)
