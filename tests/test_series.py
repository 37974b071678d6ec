"""Unit tests for the power-series core: coefficients, gamma, evaluation."""

import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest

import coulombstar.series as series
from coulombstar import (
    CoefficientTable,
    ComplexValue,
    CoulombParams,
    DomainError,
    InvalidParams,
    NoConvergence,
    BranchPoint,
    PoleError,
    eval_f,
    eval_g,
    eval_g_prime,
    eval_g_second,
    find_zeros,
    gamma_complex,
    kummer_oracle,
    make_coefficients,
    normalization_constant,
    table_for_radius,
    ScanGrid,
    StarlikeClass,
    certify,
    eval_p,
    ode_residual_g,
    ode_residual_p,
    product_convergence_report,
)
from coulombstar.series import _horner, _recurrence_coefficients, _tail_bounds

SQRT_PI = math.sqrt(math.pi)


def random_params(rng, box=3.0, margin=0.2):
    """Draw a valid complex parameter pair with |L|, |eta| <= box."""
    while True:
        L = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        eta = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        # stay away from the polar set 2L+2 in {0, -1, -2, ...}
        w = 2 * L + 2
        if abs(w.imag) < margin and w.real < margin and abs(w.real - round(w.real)) < margin:
            continue
        if abs(L + 1) < margin:
            continue
        return CoulombParams(L, eta)


# ---------------------------------------------------------------------------
# parameter validation


class TestComplexValue:
    @pytest.mark.parametrize("bad", [-1e-300, -math.inf, math.nan])
    def test_rejects_a_negative_or_nan_error(self, bad):
        with pytest.raises(ValueError):
            ComplexValue(1.0, bad)

    def test_accepts_zero_error(self):
        assert ComplexValue(1.0, 0.0).abs_error == 0.0


class TestCoulombParams:
    def test_accepts_generic_values(self):
        p = CoulombParams(0.5, 0.1)
        assert p.L == 0.5 + 0j and p.eta == 0.1 + 0j

    @pytest.mark.parametrize("bad_L", [-1.0, -1.5, -2.0, -3.5])
    def test_rejects_polar_set(self, bad_L):
        with pytest.raises(InvalidParams):
            CoulombParams(bad_L, 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParams):
            CoulombParams(math.inf, 0.0)
        with pytest.raises(InvalidParams):
            CoulombParams(0.0, complex(0.0, math.nan))

    def test_near_polar_but_valid(self):
        # off the polar set by a hair is still legal
        CoulombParams(-0.9, 0.0)
        CoulombParams(-1.5 + 1e-6, 0.0)
        CoulombParams(complex(-1.5, 0.3), 0.0)

    def test_jsonable_shape(self):
        d = CoulombParams(0.5, -0.25).to_jsonable()
        assert d == {"L": {"re": 0.5, "im": 0.0}, "eta": {"re": -0.25, "im": 0.0}}


# ---------------------------------------------------------------------------
# coefficient tables


class TestMakeCoefficients:
    def test_first_coefficients_eta_one(self):
        table = make_coefficients(CoulombParams(0.0, 1.0), 2, 1.0)
        assert table.coeffs[0] == 1.0
        assert table.coeffs[1] == 1.0
        assert abs(table.coeffs[2] - 1.0 / 6.0) < 1e-16

    def test_sine_series(self):
        table = make_coefficients(CoulombParams(0.0, 0.0), 9, 1.0)
        # g collapses to sin z: a_n = 0 for odd powers missing, (-1)^k/(2k+1)!
        expected = [0.0] * 10
        for k in range(5):
            expected[2 * k] = (-1) ** k / math.factorial(2 * k + 1)
        for a, b in zip(table.coeffs, expected):
            assert abs(a - b) <= 1e-16 * (1 + abs(b))

    @pytest.mark.parametrize("order", [-3, 0, 1, 501])
    def test_order_out_of_range(self, order):
        with pytest.raises(InvalidParams):
            make_coefficients(CoulombParams(0.0, 0.0), order, 1.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -1e-3, -5.0])
    def test_radius_out_of_range(self, radius):
        # no tail bound holds at a negative radius: a table there, or a bare
        # ValueError, would pass a meaningless bound on
        params = CoulombParams(0.3, 0.2)
        with pytest.raises(InvalidParams):
            table_for_radius(params, radius)
        with pytest.raises(InvalidParams):
            make_coefficients(params, 20, radius)

    def test_majorization_failure_raises(self):
        # radius far too large for a short table
        with pytest.raises(NoConvergence, match=r"^tail majorization fails at order 16, "
                                                r"radius 30\.0; increase the order$"):
            make_coefficients(CoulombParams(0.0, 0.0), 16, 30.0)

    def test_schedule_is_read_at_call_time_by_every_table(self, monkeypatch):
        # make_coefficients does not read the schedule; table_for_radius,
        # find_zeros and certify read it when called, so a patched schedule
        # reaches all three
        sine = CoulombParams(0.0, 0.0)
        monkeypatch.setattr(series, "_ORDER_SCHEDULE", (40,))
        assert make_coefficients(sine, 30, 4.0).order == 30
        assert table_for_radius(sine, 4.0).order == 40
        assert find_zeros(sine, 4.0).truncation_order == 40
        monkeypatch.setattr(series, "_ORDER_SCHEDULE", (16,))
        with pytest.raises(NoConvergence, match=r"^series tail at radius 4\.0 not below "
                                                r"1e-12 by order 16$"):
            find_zeros(sine, 4.0)
        with pytest.raises(NoConvergence, match=r"^series tail at radius 0\.999 not below "
                                                r"1e-300 by order 16$"):
            certify(sine, StarlikeClass.CLASSICAL, ScanGrid(720, 0.999), tol=1e-300)

    def test_negative_tail_bound_is_refused(self):
        with pytest.raises(ValueError, match="tail_bound"):
            CoefficientTable(CoulombParams(0.0, 0.0), (1.0,), 0, (-1.0, 0.0, 0.0), 1.0)

    def test_recurrence_residual_invariant(self):
        rng = random.Random(1105)
        for _ in range(20):
            params = random_params(rng)
            table = make_coefficients(params, 40, 0.5)
            L, eta = params.L, params.eta
            a = table.coeffs
            for n in range(2, table.order + 1):
                res = abs(n * (n + 2 * L + 1) * a[n] - 2 * eta * a[n - 1] + a[n - 2])
                assert res <= 1e-14 * (1 + abs(a[n]))

    def test_tail_bound_dominates_discarded_terms(self):
        rng = random.Random(1106)
        for _ in range(10):
            params = random_params(rng, box=2.0)
            radius = rng.uniform(0.3, 2.0)
            table = table_for_radius(params, radius)
            N = table.order
            longer = _recurrence_coefficients(params, N + 200)
            discarded = sum(
                abs(longer[n]) * radius ** (n + 1) for n in range(N + 1, N + 201)
            )
            assert discarded <= table.tail_bound

    def test_derivative_tail_bounds_dominate(self):
        params = CoulombParams(0.5, 0.1)
        radius = 0.999
        table = table_for_radius(params, radius, deriv=2)
        bounds = _tail_bounds(list(table.coeffs), params, radius)
        N = table.order
        longer = _recurrence_coefficients(params, N + 200)
        d1 = sum(
            (n + 1) * abs(longer[n]) * radius**n for n in range(N + 1, N + 201)
        )
        d2 = sum(
            (n + 1) * n * abs(longer[n]) * radius ** (n - 1)
            for n in range(N + 1, N + 201)
        )
        assert d1 <= bounds[1]
        assert d2 <= bounds[2]

    def test_scheduled_table_matches_fresh_recurrence(self):
        # growing one list through the schedule gives the same bits as a
        # recurrence run from scratch at the chosen order
        rng = random.Random(1107)
        for _ in range(10):
            params = random_params(rng, box=2.0)
            table = table_for_radius(params, rng.uniform(0.3, 6.0))
            assert table.coeffs == tuple(_recurrence_coefficients(params, table.order))

    def test_recurrence_extends_prefix_in_place(self):
        params = CoulombParams(0.3 + 0.1j, -0.7)
        prefix = _recurrence_coefficients(params, 16)
        grown = _recurrence_coefficients(params, 40, prefix)
        assert grown is prefix
        assert grown == _recurrence_coefficients(params, 40)

    def test_derivative_tables_built_once(self):
        table = table_for_radius(CoulombParams(0.5, 0.1), 1.0)
        assert table._dcoeffs is table._dcoeffs
        assert table._ddcoeffs is table._ddcoeffs
        assert table._dcoeffs[3] == 4 * table.coeffs[3]
        assert table._ddcoeffs[2] == 12 * table.coeffs[3]

    def test_vectorized_evaluation_matches_scalar(self):
        import numpy as np

        table = table_for_radius(CoulombParams(0.3, -0.2), 1.0)
        zs = np.array([0.1 + 0.2j, -0.5j, 0.9, -0.3 - 0.3j])
        vec = table.g_values(zs)
        for z, v in zip(zs, vec):
            assert abs(v - table.g_values(complex(z))) < 1e-15


def seeded_points(seed, count=60):
    """(params, z, tol): real, complex and sine parameters with 0 < |z| <= 3."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 3 == 0:
            params = CoulombParams(rng.uniform(-0.4, 1.4), rng.uniform(-1.0, 1.0))
        elif k % 3 == 1:
            params = random_params(rng, box=1.0)
        else:
            params = CoulombParams(0.0, 0.0)
        r = 3.0 * math.sqrt(rng.uniform(1e-6, 1.0))
        z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        yield params, z, rng.choice((1e-12, 1e-15, 1e-6))


def bits(w):
    w = complex(w)
    return w.real.hex(), w.imag.hex()


class TestScalarEvaluationBits:
    """The scalar evaluators give the bits of table_for_radius and its methods."""

    def test_matches_table_for_radius(self):
        methods = ("g_values", "g_prime_values", "g_second_values")
        evaluators = (eval_g, eval_g_prime, eval_g_second)
        orders = set()
        for params, z, tol in seeded_points(1213):
            for deriv, evaluate in enumerate(evaluators):
                table = table_for_radius(params, abs(z), tol, deriv)
                orders.add(table.order)
                tail = _tail_bounds(list(table.coeffs), params, abs(z))[deriv]
                got = evaluate(params, z, tol)
                assert bits(got.value) == bits(getattr(table, methods[deriv])(z))
                assert got.abs_error.hex() == tail.hex()
        assert max(orders) > 16

    def test_recurrence_matches_textbook_loop(self):
        for params, _, _ in seeded_points(1229, count=9):
            L, eta = params.L, params.eta
            a = [complex(1.0), eta / (L + 1)]
            for n in range(2, 501):
                a.append((2 * eta * a[n - 1] - a[n - 2]) / (n * (n + 2 * L + 1)))
            assert list(map(bits, _recurrence_coefficients(params, 500))) == list(map(bits, a))


def horner_out_of_place(coeffs, z):
    """The textbook recurrence acc = acc * z + c, a new array each step."""
    acc = 0.0 * z
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


class TestHornerInPlace:
    """Array _horner runs in place and keeps the out-of-place bits."""

    @pytest.mark.parametrize("points", [1, 3, 720, 4097])
    @pytest.mark.parametrize("params", [CoulombParams(0.7, -0.3),
                                        CoulombParams(0.4 + 0.3j, -0.6 + 0.2j)])
    def test_array_bits_match_out_of_place(self, points, params):
        import numpy as np

        table = table_for_radius(params, 3.0)
        z = 3.0 * np.exp(2j * np.pi * np.arange(points) / points)
        z.flags.writeable = False  # like ScanGrid.points()
        before = z.tobytes()
        real_grid = z.real.copy()
        real_coeffs = [abs(c) for c in table.coeffs]
        for coeffs, grid in ((table.coeffs, z), (table._dcoeffs, z), (real_coeffs, z),
                             (real_coeffs, real_grid), (table.coeffs, real_grid)):
            got, want = _horner(coeffs, grid), horner_out_of_place(coeffs, grid)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert z.tobytes() == before

    @pytest.mark.parametrize("params", [CoulombParams(0.7, -0.3),
                                        CoulombParams(0.4 + 0.3j, -0.6 + 0.2j)])
    def test_lone_point_within_the_batch_bound(self, params):
        # a point alone, as a Python complex or a one-point array, and the
        # same point inside a 720-point batch: the bits may differ where the
        # batch's complex product fuses a multiply-add, but never by more
        # than _bounded_horner's rounding bound there
        import numpy as np

        from coulombstar.zeros import _bounded_horner

        table = table_for_radius(params, 3.0)
        z = 2.7 * np.exp(2j * np.pi * np.arange(720) / 720)
        batch = table.g_values(z)
        _, bound = _bounded_horner((0.0,) + table.coeffs, z, 2.7)
        for k, point in enumerate(z):
            for alone in (table.g_values(complex(point)), table.g_values(z[k:k + 1])[0]):
                assert abs(alone - batch[k]) <= bound[k], (point, alone, batch[k])

    def test_python_scalar_stays_python(self):
        table = table_for_radius(CoulombParams(0.7, -0.3), 1.0)
        assert type(_horner(table.coeffs, 0.3 + 0.4j)) is complex
        assert type(table.g_values(0.3 + 0.4j)) is complex
        assert type(_horner([1.0, 2.0, 3.0], 0.5)) is float
        assert _horner([1.0, 2.0, 3.0], 0.5) == 2.75


# ---------------------------------------------------------------------------
# complex gamma


class TestTinyRadius:
    """Below r ~ 2.2e-162, r^2 underflows to 0 in doubles."""

    @pytest.mark.parametrize("radius", [1e-163, 1e-200, 1e-320])
    def test_tail_bounds_dominate_the_discarded_terms(self, radius):
        # at order 2 and eta = 50, mu = |a_1| r^2 underflows to 0 at 1e-163
        # while the g'' tail, 12 |a_3| r^2 and on, is still a subnormal
        params = CoulombParams(0.3, 50.0)
        coeffs = _recurrence_coefficients(params, 40)
        bounds = _tail_bounds(coeffs[:3], params, radius)
        with mp.workdps(60):
            r = mp.mpf(radius)
            a = [(n, mp.mpf(abs(c))) for n, c in enumerate(coeffs) if n > 2]
            exact = (
                sum(x * r ** (n + 1) for n, x in a),
                sum((n + 1) * x * r**n for n, x in a),
                sum((n + 1) * n * x * r ** (n - 1) for n, x in a),
            )
            assert all(exact[k] <= bounds[k] for k in range(3))
        assert min(bounds) > 0.0

    def test_entry_points_answer(self):
        params = CoulombParams(0.3, 0.2)
        for evaluate in (eval_g, eval_g_prime, eval_g_second, eval_f):
            got = evaluate(params, 1e-200)
            assert cmath.isfinite(got.value) and 0.0 < got.abs_error < 1e-200
        assert make_coefficients(params, 20, 1e-200).tail_bound > 0.0
        assert table_for_radius(params, 1e-320).radius == 1e-320  # subnormal stays legal
        certify(params, StarlikeClass.CLASSICAL, ScanGrid(720, 1e-200))
        assert find_zeros(CoulombParams(0.0, 0.0), 1e-300).zeros == ()


class TestNonFiniteZ:
    """A z that is not finite is a domain error, refused before any coefficient is grown."""

    @pytest.mark.parametrize("entry", [
        eval_g, eval_g_prime, eval_g_second, eval_f, eval_p,
        ode_residual_g, ode_residual_p, product_convergence_report,
    ], ids=lambda entry: entry.__name__)
    @pytest.mark.parametrize("z", [
        complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, -math.inf),
        complex(1.0, math.nan), complex(math.inf, math.nan),
    ])
    def test_refused_at_once(self, monkeypatch, entry, z):
        params = CoulombParams(0.5, 0.1)
        args = (find_zeros(params, 5.0),) if entry is product_convergence_report else ()
        recurrence = series._recurrence_coefficients
        grown = []

        def counted(*args):
            grown.append(args)
            return recurrence(*args)

        monkeypatch.setattr(series, "_recurrence_coefficients", counted)
        with pytest.raises(DomainError, match="finite"):
            entry(params, z, *args)
        assert grown == []


class TestMalformedInput:
    """A non-integer order or angle count, or a tol that is not positive: InvalidParams up front."""

    PARAMS = CoulombParams(0.5, 0.1)

    @pytest.mark.parametrize("call", [
        lambda p, tol: eval_g(p, 0.5, tol),
        lambda p, tol: eval_g_prime(p, 0.5, tol),
        lambda p, tol: eval_g_second(p, 0.5, tol),
        lambda p, tol: eval_f(p, 0.5, tol),
        lambda p, tol: eval_p(p, 0.5, tol),
        lambda p, tol: table_for_radius(p, 1.0, tol),
        lambda p, tol: certify(p, StarlikeClass.LEMNISCATE, tol=tol),
        lambda p, tol: find_zeros(p, 5.0, tol),
        lambda p, tol: product_convergence_report(p, 0.5, find_zeros(p, 5.0), tol),
    ], ids=["eval_g", "eval_g_prime", "eval_g_second", "eval_f", "eval_p",
            "table_for_radius", "certify", "find_zeros", "product_convergence_report"])
    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
    def test_tol_not_positive(self, call, tol):
        with pytest.raises(InvalidParams, match="tol must be positive"):
            call(self.PARAMS, tol)

    @pytest.mark.parametrize("call", [
        lambda p: ScanGrid(720.0, 0.5),
        lambda p: ScanGrid(3.5, 0.5),
        lambda p: make_coefficients(p, 30.5, 1.0),
        lambda p: kummer_oracle(p, 12.5),
    ], ids=["angles-720.0", "angles-3.5", "make_coefficients", "kummer_oracle"])
    def test_integer_argument_not_an_integer(self, call):
        with pytest.raises(InvalidParams, match="must be an integer"):
            call(self.PARAMS)

    def test_numpy_integers_pass(self):
        grid = ScanGrid(np.int64(90), 0.5)
        assert type(grid.angles_per_ring) is int and grid.points().size == 90
        assert make_coefficients(self.PARAMS, np.int32(10), 1.0) == make_coefficients(
            self.PARAMS, 10, 1.0)
        assert kummer_oracle(self.PARAMS, np.int64(6)).order == 6


class TestGammaComplex:
    def test_integers(self):
        assert abs(gamma_complex(1.0).value - 1.0) <= 1e-14
        assert abs(gamma_complex(5.0).value - 24.0) <= 24 * 1e-13

    def test_half(self):
        assert abs(gamma_complex(0.5).value - SQRT_PI) <= SQRT_PI * 1e-13

    def test_reflection(self):
        # Gamma(-1/2) = -2 sqrt(pi)
        got = gamma_complex(-0.5).value
        assert abs(got - (-2 * SQRT_PI)) <= 2 * SQRT_PI * 1e-12

    @pytest.mark.parametrize("pole", [0.0, -1.0, -7.0])
    def test_poles(self, pole):
        with pytest.raises(PoleError):
            gamma_complex(pole)

    def test_against_reference_on_box(self):
        rng = random.Random(2204)
        with mp.workdps(30):
            for _ in range(60):
                w = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
                if abs(w.imag) < 1e-3 and w.real <= 0.5:
                    continue  # too near the pole line for a relative test
                got = gamma_complex(w)
                ref = mp.gamma(mp.mpc(w))
                rel = abs(got.value - complex(ref)) / abs(complex(ref))
                assert rel <= 1e-12, f"gamma rel error {rel:.2e} at {w}"

    @pytest.mark.parametrize("w", [172.0, -190.5, 1 + 500j, 1 + 455j])
    def test_out_of_double_range_refuses(self, w):
        # Gamma(172) overflows; Gamma(-190.5) and |Gamma(1 + 500i)| underflow
        # to 0, and |Gamma(1 + 455i)| ~ 2e-309 is subnormal
        with pytest.raises(NoConvergence):
            gamma_complex(w)

    def test_error_widens_outside_box(self):
        inside = gamma_complex(5.0 + 5.0j)
        outside = gamma_complex(42.0)
        assert outside.abs_error / abs(outside.value) > inside.abs_error / abs(
            inside.value
        )


class TestNormalizationConstant:
    def test_gamma_overflow_refuses_eval_f(self):
        # Gamma(2L + 2) = Gamma(172) exceeds the double range
        with pytest.raises(NoConvergence):
            eval_f(CoulombParams(85.0, 0.1), 0.5)

    @pytest.mark.parametrize("eta", [-452.0, -455.0, -470.0])
    def test_exponential_overflow_refuses(self, eta):
        # e^{-pi eta / 2} overflows while |Gamma(1 + i eta)| is still nonzero
        with pytest.raises(NoConvergence):
            normalization_constant(CoulombParams(0.0, eta))
        with pytest.raises(NoConvergence):
            eval_f(CoulombParams(0.0, eta), 0.5)

    @pytest.mark.parametrize("eta", [240.0, 300.0, 455.0])
    def test_underflow_refuses(self, eta):
        # the true C ~ sqrt(2 pi eta) e^{-pi eta} is below the normal range,
        # where a 0 or subnormal value with a relative bound bounds nothing
        with pytest.raises(NoConvergence):
            normalization_constant(CoulombParams(0.0, eta))

    @pytest.mark.parametrize("eta", [-450.0, 200.0])
    def test_large_eta_in_range_is_bounded(self, eta):
        # C^2 = 2 pi eta / (e^{2 pi eta} - 1) for L = 0
        c = normalization_constant(CoulombParams(0.0, eta))
        with mp.workdps(30):
            exact = mp.sqrt(2 * mp.pi * eta / mp.expm1(2 * mp.pi * eta))
            assert float(abs(c.value - exact)) <= c.abs_error

    def test_trivial_case(self):
        c = normalization_constant(CoulombParams(0.0, 0.0))
        assert abs(c.value - 1.0) <= 1e-13

    def test_integer_case(self):
        c = normalization_constant(CoulombParams(1.0, 0.0))
        assert abs(c.value - 1.0 / 3.0) <= 1e-13

    def test_imaginary_shift(self):
        # modulus of the top gamma factor: |Gamma(1+i)| = sqrt(pi / sinh pi)
        c = normalization_constant(CoulombParams(0.0, 1.0))
        expected = math.exp(-math.pi / 2) * math.sqrt(math.pi / math.sinh(math.pi))
        assert abs(c.value - expected) <= abs(expected) * 1e-12
        assert abs(c.value - 0.10842251310207263) <= 1e-14

    def test_pole_in_top_factor(self):
        # L + 1 + i eta = -1 while 2L + 2 = 2 stays clear
        with pytest.raises(PoleError):
            normalization_constant(CoulombParams(0.0, 2.0j))


# ---------------------------------------------------------------------------
# evaluation


class TestEvalG:
    def test_sine_values(self):
        p = CoulombParams(0.0, 0.0)
        rng = random.Random(3303)
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) > 3:
                continue
            got = eval_g(p, z)
            assert abs(got.value - cmath.sin(z)) <= 1e-12

    def test_origin_exact(self):
        got = eval_g(CoulombParams(1.3, -0.7), 0.0)
        assert got.value == 0.0 and got.abs_error == 0.0

    def test_imaginary_argument(self):
        got = eval_g(CoulombParams(0.0, 0.0), 1.0j)
        assert abs(got.value - 1.0j * math.sinh(1.0)) <= 1e-12

    def test_error_bound_is_honest(self):
        p = CoulombParams(0.0, 0.0)
        for z in (0.5, 2.9, 1.5j, -2.0 + 1.0j):
            got = eval_g(p, z)
            true_err = abs(got.value - cmath.sin(z))
            assert true_err <= got.abs_error + 1e-13

    def test_normalization_limit(self):
        p = CoulombParams(0.7, 0.4)
        got = eval_g(p, 1e-8)
        assert abs(got.value / 1e-8 - 1.0) <= 1e-7

    def test_derivative_consistency(self):
        p = CoulombParams(0.8, -0.3)
        h = 1e-5
        rng = random.Random(3304)
        for _ in range(10):
            z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            fd = (eval_g(p, z + h).value - eval_g(p, z - h).value) / (2 * h)
            assert abs(eval_g_prime(p, z).value - fd) <= 1e-6

    def test_second_derivative_sine(self):
        got = eval_g_second(CoulombParams(0.0, 0.0), 1.0)
        assert abs(got.value - (-math.sin(1.0))) <= 1e-12

    def test_prime_origin(self):
        assert eval_g_prime(CoulombParams(0.0, 1.0), 0.0).value == 1.0

    def test_second_origin(self):
        p = CoulombParams(0.5, 0.1)
        got = eval_g_second(p, 0.0)
        assert got.value == 2 * p.eta / (p.L + 1)

    def test_far_radius_fails_cleanly(self):
        with pytest.raises(NoConvergence):
            eval_g(CoulombParams(0.0, 0.0), 200.0)


class TestEvalF:
    def test_sine_case(self):
        got = eval_f(CoulombParams(0.0, 0.0), 1.0)
        assert abs(got.value - math.sin(1.0)) <= 1e-12

    def test_zero_of_sine(self):
        got = eval_f(CoulombParams(0.0, 0.0), math.pi)
        assert abs(got.value) < 1e-9

    def test_origin_with_positive_order(self):
        assert eval_f(CoulombParams(1.0, 0.0), 0.0).value == 0.0
        assert eval_f(CoulombParams(0.25, 0.0), 0.0).value == 0.0

    def test_origin_branch_point(self):
        with pytest.raises(BranchPoint):
            eval_f(CoulombParams(-0.5, 0.0), 0.0)

    def test_factorization_consistency(self):
        # F must equal C * z^L * g with principal branch, including z < 0
        p = CoulombParams(0.5, 0.2)
        z = -1.0 + 0.0j
        c = normalization_constant(p).value
        g = eval_g(p, z).value
        expected = c * cmath.exp(p.L * cmath.log(z)) * g
        assert abs(eval_f(p, z).value - expected) <= 1e-13 * abs(expected)

    def test_quadratic_leading_order(self):
        p = CoulombParams(1.0, 0.0)
        c = normalization_constant(p).value
        z = 1e-4
        got = eval_f(p, z).value
        assert abs(got - c * z**2) <= abs(c) * z**3


# ---------------------------------------------------------------------------
# independent oracle


class TestKummerOracle:
    def test_sine_coefficients(self):
        table = kummer_oracle(CoulombParams(0.0, 0.0), 9)
        reference = make_coefficients(CoulombParams(0.0, 0.0), 9, 0.5)
        for a, b in zip(table.coeffs, reference.coeffs):
            assert abs(a - b) <= 1e-14 * (1 + abs(b))

    def test_first_coefficient(self):
        table = kummer_oracle(CoulombParams(0.0, 1.0), 1)
        assert abs(table.coeffs[1] - 1.0) <= 1e-14

    @pytest.mark.parametrize("order", [-1, 501])
    def test_order_out_of_range(self, order):
        with pytest.raises(InvalidParams):
            kummer_oracle(CoulombParams(0.0, 0.0), order)

    def test_no_certified_radius_gives_a_zero_tail(self):
        # at L = 5 the majorization of a 3-term table holds at no radius
        # down to 1e-6, so the table carries radius 0 and tail 0
        table = kummer_oracle(CoulombParams(5.0, 0.0), 3)
        assert (table.radius, table.tail_bound, table.order) == (0.0, 0.0, 3)

    def test_agreement_on_random_draws(self):
        rng = random.Random(4402)
        for _ in range(5):
            params = random_params(rng)
            ours = make_coefficients(params, 30, 0.25)
            oracle = kummer_oracle(params, 30)
            for a, b in zip(ours.coeffs, oracle.coeffs):
                scale = max(abs(a), abs(b))
                if scale == 0:
                    continue
                assert abs(a - b) / scale <= 1e-12
