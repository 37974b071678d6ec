"""Unit tests for the ratio P = z g'/g and the differential-equation residuals."""

import cmath
import math
import random

import pytest

from coulombstar import (
    CoulombParams,
    DomainError,
    NearZeroOfG,
    eval_g,
    eval_g_prime,
    eval_g_second,
    eval_p,
    find_zeros,
    ode_residual_g,
    ode_residual_p,
)

TOL = 1e-12


def residual_budget(params, z, tol=TOL):
    """Contract bound 100 * tol * (1 + |z|^2) * max(|g|, |g'|, |g''|)."""
    scale = max(
        abs(eval_g(params, z, tol).value),
        abs(eval_g_prime(params, z, tol).value),
        abs(eval_g_second(params, z, tol).value),
    )
    return 100 * tol * (1 + abs(z) ** 2) * scale


def safe_params(rng, box=1.2, margin=0.3):
    while True:
        L = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        eta = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        w = 2 * L + 2
        if abs(w.imag) < margin and w.real < margin and abs(w.real - round(w.real)) < margin:
            continue
        if abs(L + 1) < margin:
            continue
        return CoulombParams(L, eta)


class TestEvalP:
    def test_origin_is_exactly_one(self):
        for params in (CoulombParams(0.0, 0.0), CoulombParams(1.3, -0.4)):
            assert eval_p(params, 0.0).P == 1.0 + 0.0j

    def test_sine_cotangent(self):
        got = eval_p(CoulombParams(0.0, 0.0), 1.0)
        assert abs(got.P - 1.0 / math.tan(1.0)) <= 1e-12

    def test_near_zero_raises(self):
        # sin(pi) = 0: the pole guard must fire even past the radius window
        with pytest.raises(NearZeroOfG):
            eval_p(CoulombParams(0.0, 0.0), math.pi)

    @pytest.mark.parametrize("z", [1e-20, 1e-100, 1e-200, 1e-200j, -1e-300])
    def test_tiny_radius_is_no_zero_of_g(self, z):
        # g ~ z at the origin: the near-zero floor shrinks with |z|, so P -> 1
        got = eval_p(CoulombParams(0.3, 0.2), z)
        assert got.P == pytest.approx(1.0, abs=1e-15)
        assert got.abs_error <= 1e-15

    def test_zero_inside_unit_disk_still_raises(self):
        # g for (L=0, eta=5) vanishes at about -0.3627; 5e-12 away |g| is
        # 2.0e-12, below the scaled floor 10 * tol * 0.3627 = 3.6e-12
        params, z = CoulombParams(0.0, 5.0), -0.362658574621303 + 5e-12
        with pytest.raises(NearZeroOfG):
            eval_p(params, z)
        with pytest.raises(NearZeroOfG):
            ode_residual_p(params, z)

    def test_outside_diagnostic_radius(self):
        with pytest.raises(DomainError):
            eval_p(CoulombParams(0.0, 0.0), 2.0)

    def test_diagnostic_headroom_allowed(self):
        got = eval_p(CoulombParams(0.0, 0.0), 1.4)
        assert abs(got.P - 1.4 * math.cos(1.4) / math.sin(1.4)) <= 1e-12

    def test_nearest_zero_distance(self):
        params = CoulombParams(0.0, 0.0)
        zs = find_zeros(params, 4.0)
        got = eval_p(params, 0.9, zero_set=zs)
        assert got.nearest_zero_distance == pytest.approx(math.pi - 0.9, abs=1e-10)
        plain = eval_p(params, 0.9)
        assert plain.nearest_zero_distance is None

    def test_abs_error_propagates_series_tails(self):
        params, z = CoulombParams(0.5, 0.1), 0.3 + 0.4j
        g, gp = eval_g(params, z), eval_g_prime(params, z)
        got = eval_p(params, z)
        expected = (abs(z) * gp.abs_error + abs(got.P) * g.abs_error) / abs(g.value)
        assert got.abs_error == expected
        assert eval_p(params, 0.0).abs_error == 0.0

    def test_expansion_slope(self):
        # P(z) = 1 + eta/(L+1) z + O(z^2); the quadratic term contributes
        # about 0.25 h to the one-sided quotient, so h = 1e-6 is the largest
        # step at which a 1e-5 comparison is meaningful
        h = 1e-6
        for params in (CoulombParams(0.5, 0.1), CoulombParams(1.0, -0.8)):
            got = eval_p(params, h).P
            slope = (got - 1.0) / h
            assert abs(slope - params.eta / (params.L + 1)) <= 1e-5


class TestOdeResidualG:
    def test_sine_point(self):
        assert ode_residual_g(CoulombParams(0.0, 0.0), 0.5) < 1e-10

    def test_complex_parameters(self):
        res = ode_residual_g(CoulombParams(1.2, 0.3 + 0.1j), 0.7j)
        assert res < 1e-9

    def test_origin_exactly_zero(self):
        assert ode_residual_g(CoulombParams(0.5, 0.1), 0.0) == 0.0

    def test_contract_on_random_draws(self):
        rng = random.Random(5501)
        for _ in range(40):
            params = safe_params(rng)
            r = 0.9 * math.sqrt(rng.random())
            z = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert ode_residual_g(params, z) <= residual_budget(params, z)


class TestOdeResidualP:
    def test_sine_point(self):
        assert ode_residual_p(CoulombParams(0.0, 0.0), 0.3) < 1e-9

    def test_oblique_point(self):
        z = 0.5 * cmath.exp(1j * math.pi / 3)
        assert ode_residual_p(CoulombParams(0.5, 0.1), z) < 1e-9

    def test_origin_exactly_zero(self):
        assert ode_residual_p(CoulombParams(0.5, 0.1), 0.0) == 0.0
        assert ode_residual_p(CoulombParams(1.0 + 0.5j, -0.2), 0.0) == 0.0

    def test_near_zero_guard(self):
        with pytest.raises(NearZeroOfG):
            ode_residual_p(CoulombParams(0.0, 0.0), math.pi)

    @pytest.mark.parametrize("z", [1e-20, 1e-100, 1e-200, 1e-200j, -1e-300])
    def test_tiny_radius(self, z):
        # (g'/g)^2 overflows below |z| = 1e-154; z P' is formed without it
        assert ode_residual_p(CoulombParams(0.3, 0.2), z) <= 1e-15

    def test_contract_on_random_draws(self):
        rng = random.Random(5502)
        done = 0
        while done < 40:
            params = safe_params(rng)
            r = 0.9 * math.sqrt(rng.random())
            z = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            try:
                res = ode_residual_p(params, z)
            except NearZeroOfG:
                continue  # the contract presumes z away from zeros of g
            assert res <= residual_budget(params, z)
            done += 1
