"""Unit tests for zero location and the Hadamard product rebuild."""

import cmath
import importlib
import math
import random
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import coulombstar.zeros as zeros_module

from coulombstar import (
    CoulombParams,
    DomainError,
    InvalidParams,
    NoConvergence,
    ScanGrid,
    StarlikeClass,
    WindingMismatch,
    ZeroSet,
    certify,
    eval_g,
    find_zeros,
    product_convergence_report,
    table_for_radius,
    weierstrass_eval,
    winding_number,
)
from coulombstar.series import (
    _ORDER_SCHEDULE,
    DEFAULT_TOL,
    CoefficientTable,
    _grow_table,
    _horner,
    _tail_bounds,
)
from coulombstar.zeros import _compensated_horner, _compensated_horner_real

SINE = CoulombParams(0.0, 0.0)
EPS = 2.220446049250313e-16

# (L, eta, trust radius): sine, real and complex parameters, radii 4-20
REFERENCE_CASES = [
    (0.0, 0.0, 4.0),
    (0.0, 0.0, 20.0),
    (0.5, 0.3, 9.0),
    (0.7, -0.4, 8.0),
    (0.2 + 0.1j, 0.3, 6.0),
    (1.2, -0.9, 15.0),
    (-0.3 + 0.2j, 0.8 - 0.1j, 12.0),
    (0.9 + 0.25j, -0.6 + 0.2j, 18.0),
]

# |partial product - g| at z = 0.5 for the sine case over zeros |rho| <= 20,
# one entry per included zero; frozen from an independent product evaluation
PRODUCT_ERRORS = [
    0.01352812,
    0.007909313,
    0.006281915,
    0.004823229,
    0.004117188,
    0.003460322,
    0.003067791,
    0.002695845,
    0.002446354,
    0.002207354,
    0.002034884,
    0.001868467,
]


class TestFindZeros:
    def test_sine_radius_four(self):
        zs = find_zeros(SINE, 4.0)
        got = sorted(z.real for z in zs.zeros)
        assert len(zs.zeros) == 2
        assert got == pytest.approx([-math.pi, math.pi], abs=1e-10)
        assert all(z.imag == 0.0 for z in zs.zeros)

    def test_sine_radius_seven_ordering(self):
        zs = find_zeros(SINE, 7.0)
        expected = [math.pi, -math.pi, 2 * math.pi, -2 * math.pi]
        assert len(zs.zeros) == 4
        for z, e in zip(zs.zeros, expected):
            assert abs(z - e) <= 1e-8

    def test_sine_radius_one_empty(self):
        zs = find_zeros(SINE, 1.0)
        assert zs.zeros == ()

    def test_sine_radius_twenty(self):
        zs = find_zeros(SINE, 20.0)
        assert len(zs.zeros) == 12
        moduli = sorted(abs(z) for z in zs.zeros)
        for k in range(6):
            assert moduli[2 * k] == pytest.approx((k + 1) * math.pi, abs=1e-8)
            assert moduli[2 * k + 1] == pytest.approx((k + 1) * math.pi, abs=1e-8)

    def test_residual_invariant(self):
        zs = find_zeros(SINE, 7.0)
        scale = 1.0  # max sine-series coefficient magnitude
        assert all(r <= 1e-10 * scale for r in zs.residuals)

    def test_pairwise_separation(self):
        zs = find_zeros(CoulombParams(0.4, 0.2), 8.0)
        for i, a in enumerate(zs.zeros):
            for b in zs.zeros[i + 1 :]:
                assert abs(a - b) > 1e-8

    def test_conjugate_symmetry_real_coefficients(self):
        # real L and eta give a real coefficient sequence, so the zero set
        # must be closed under conjugation
        zs = find_zeros(CoulombParams(0.5, 0.3), 9.0)
        locations = list(zs.zeros)
        assert locations, "expected zeros inside radius 9"
        for z in locations:
            assert any(abs(z.conjugate() - w) <= 1e-8 for w in locations)

    def test_complex_parameters_run(self):
        zs = find_zeros(CoulombParams(0.2 + 0.1j, 0.3), 6.0)
        for z, r in zip(zs.zeros, zs.residuals):
            assert abs(z) <= 6.0
            assert r <= 1e-10
            # each polished zero really sits on a sign change of g
            assert abs(eval_g(zs.params, z).value) <= 1e-9

    def test_bad_radius(self):
        with pytest.raises(InvalidParams):
            find_zeros(SINE, 0.0)
        with pytest.raises(InvalidParams):
            find_zeros(SINE, -3.0)

    def test_underflowed_table_refuses(self):
        # at radius 38 the table's trailing coefficients underflow to
        # subnormals, and double Horner cannot prove the count
        with pytest.raises(WindingMismatch, match="unproven"):
            find_zeros(SINE, 38.0)

    def test_jsonable_shape(self):
        zs = find_zeros(SINE, 4.0)
        d = zs.to_jsonable()
        assert set(d.keys()) == {"params", "trust_radius", "zeros"}
        assert d["trust_radius"] == 4.0
        for entry in d["zeros"]:
            assert set(entry.keys()) == {"re", "im", "residual"}


def _mp_g(coeffs, z):
    """z * sum a_n z^n in the current mpmath precision."""
    z = mp.mpc(z)
    return z * mp.polyval([mp.mpc(c) for c in reversed(coeffs)], z)


def _mp_newton_zero(params, coeffs, start):
    """40-digit Newton on the truncated series, rounded as find_zeros rounds."""
    with mp.workdps(40):
        dcoeffs = [(n + 1) * mp.mpc(c) for n, c in enumerate(coeffs)]
        z = mp.mpc(start)
        for _ in range(6):
            step = _mp_g(coeffs, z) / mp.polyval(dcoeffs[::-1], z)
            z -= step
            if abs(step) < mp.mpf("1e-30"):
                break
        w = complex(z)
    real = params.L.imag == 0.0 and params.eta.imag == 0.0
    if real and abs(w.imag) <= 1e-10 * max(1.0, abs(w.real)):
        w = complex(w.real, 0.0)
    return complex(w.real + 0.0, w.imag + 0.0)


class TestCompensatedRefinement:
    @pytest.mark.parametrize(
        "params", [SINE, CoulombParams(0.5, 0.3), CoulombParams(0.2 + 0.1j, 0.3 - 0.2j)]
    )
    @pytest.mark.parametrize("radius", [5.0, 10.0, 15.0, 20.0])
    def test_kernel_matches_50_digits(self, params, radius):
        coeffs = table_for_radius(params, radius).coeffs
        points = [radius * (0.3 + 0.06 * k) * cmath.exp(1j * (0.7 + 2.1 * k)) for k in range(12)]
        for z, got in zip(points, _compensated_horner(coeffs, points)):
            scale = sum(abs(c) * abs(z) ** n for n, c in enumerate(coeffs))
            with mp.workdps(50):
                exact = mp.polyval([mp.mpc(c) for c in reversed(coeffs)], mp.mpc(z))
                err = float(abs(mp.mpc(got) - exact))
                assert err <= EPS * float(abs(exact)) + 1e-20 * scale, (z, err)

    @pytest.mark.parametrize("L, eta, radius", REFERENCE_CASES)
    def test_zeros_match_40_digit_newton(self, L, eta, radius):
        params = CoulombParams(L, eta)
        zs = find_zeros(params, radius)
        coeffs = table_for_radius(params, radius).coeffs
        assert zs.zeros
        for rho in zs.zeros:
            ref = _mp_newton_zero(params, coeffs, rho)
            assert (rho.real.hex(), rho.imag.hex()) == (ref.real.hex(), ref.imag.hex())

    @pytest.mark.parametrize("L, eta, radius", REFERENCE_CASES)
    def test_residual_is_g_at_the_returned_zero(self, L, eta, radius):
        params = CoulombParams(L, eta)
        zs = find_zeros(params, radius)
        coeffs = table_for_radius(params, radius).coeffs
        for rho, residual in zip(zs.zeros, zs.residuals):
            with mp.workdps(50):
                exact = float(abs(_mp_g(coeffs, rho)))
            assert residual == pytest.approx(exact, rel=1e-6)


_SPLIT = 134217729.0


def _scalar_compensated_horner(coeffs, z):
    """The compensated complex Horner kernel one point and one step at a time, frozen.

    The batched zeros._compensated_horner must return these bits.
    """
    x, y = z.real, z.imag
    t = _SPLIT * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLIT * y
    yh = t - (t - y)
    yl = y - yh
    sr = si = cr = ci = 0.0
    for a in reversed(coeffs):
        ar, ai = a.real, a.imag
        t = _SPLIT * sr
        sh = t - (t - sr)
        sl = sr - sh
        t = _SPLIT * si
        th = t - (t - si)
        tl = si - th
        p1 = sr * x
        e1 = sl * xl - (((p1 - sh * xh) - sl * xh) - sh * xl)
        p2 = si * y
        e2 = tl * yl - (((p2 - th * yh) - tl * yh) - th * yl)
        p3 = sr * y
        e3 = sl * yl - (((p3 - sh * yh) - sl * yh) - sh * yl)
        p4 = si * x
        e4 = tl * xl - (((p4 - th * xh) - tl * xh) - th * xl)
        qr = p1 - p2
        b = qr - p1
        e5 = (p1 - (qr - b)) + (-p2 - b)
        qi = p3 + p4
        b = qi - p3
        e6 = (p3 - (qi - b)) + (p4 - b)
        sr = qr + ar
        b = sr - qr
        e7 = (qr - (sr - b)) + (ar - b)
        si = qi + ai
        b = si - qi
        e8 = (qi - (si - b)) + (ai - b)
        cr, ci = (cr * x - ci * y + (e1 - e2 + e5 + e7),
                  cr * y + ci * x + (e3 + e4 + e6 + e8))
    return complex(sr + cr, si + ci)


def _scalar_compensated_horner_real(coeffs, x):
    """The real compensated Horner kernel, frozen."""
    t = _SPLIT * x
    xh = t - (t - x)
    xl = x - xh
    s = c = 0.0
    for a in reversed(coeffs):
        t = _SPLIT * s
        sh = t - (t - s)
        sl = s - sh
        p1 = s * x
        e1 = sl * xl - (((p1 - sh * xh) - sl * xh) - sh * xl)
        s = p1 + a
        b = s - p1
        e7 = (p1 - (s - b)) + (a - b)
        c = c * x + (e1 + e7)
    return s + c


def _hex(z):
    return z.real.hex(), z.imag.hex()


def _kernel_draw():
    """(params, radius, batch) on a seeded draw of real and complex tables, R in U(0.3, 30).

    Each table gets batches of 1, 2 and 15 points in the disk, a mix of
    real and complex points, and a batch of its listed zeros and their
    conjugates when find_zeros answers.
    """
    rng = random.Random(20261021)
    for i in range(24):
        radius = rng.uniform(0.3, 30.0)
        L, eta = rng.uniform(-0.9, 3.0), rng.uniform(-3.0, 3.0)
        if i % 2:
            L, eta = complex(L, rng.uniform(-0.5, 0.5)), complex(eta, rng.uniform(-1.0, 1.0))
        params = CoulombParams(L, eta)
        for size in (1, 2, 15):
            yield params, radius, [
                radius * rng.random() * (cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                                         if rng.random() < 0.5 else rng.choice((1.0, -1.0)))
                for _ in range(size)
            ]
        try:
            zeros = find_zeros(params, radius).zeros
        except (NoConvergence, WindingMismatch):
            continue
        if zeros:
            yield params, radius, list(zeros) + [z.conjugate() for z in zeros]


class TestBatchedKernel:
    """The batched compensated kernel and the lockstep Newton loop keep each point's bits."""

    def test_batched_kernel_matches_the_scalar_loop(self):
        batches, at_zeros, real_points = 0, 0, 0
        for params, radius, points in _kernel_draw():
            coeffs = table_for_radius(params, radius).coeffs
            got = _compensated_horner(coeffs, points)
            assert len(got) == len(points)
            for z, value in zip(points, got):
                assert _hex(value) == _hex(_scalar_compensated_horner(coeffs, complex(z))), (
                    params, radius, z)
            batches += 1
            at_zeros += len(points) not in (1, 2, 15)
            real_points += sum(isinstance(z, float) for z in points)
        assert batches >= 80 and at_zeros >= 12 and real_points >= 100

    def test_real_kernel_matches_the_scalar_loop(self):
        tables = 0
        for params, radius, points in _kernel_draw():
            coeffs = table_for_radius(params, radius).coeffs
            if not all(c.imag == 0.0 for c in coeffs):
                continue
            tables += 1
            real = [c.real for c in coeffs]
            xs = [z.real for z in points]
            batched = _compensated_horner(coeffs, xs)
            for x, value in zip(xs, batched):
                got = _compensated_horner_real(real, x)
                assert got.hex() == _scalar_compensated_horner_real(real, x).hex()
                assert got.hex() == value.real.hex()
        assert tables >= 36

    def test_empty_batch(self):
        assert _compensated_horner(table_for_radius(SINE, 5.0).coeffs, []) == []
        assert zeros_module._newton(lambda points: 1 / 0, lambda points: 1 / 0, [], 8) == []

    def test_overflowing_points_match_the_scalar_loop(self):
        # h overflows at 1e200, and inf - inf gives nan, without a warning
        coeffs = table_for_radius(CoulombParams(0.2 + 0.1j, 0.3), 6.0).coeffs
        points = [1e200 + 0j, 1e200j, 2.0 + 1.0j]
        for z, value in zip(points, _compensated_horner(coeffs, points)):
            reference = _scalar_compensated_horner(coeffs, z)
            for got, ref in zip((value.real, value.imag), (reference.real, reference.imag)):
                assert got.hex() == ref.hex() or (math.isnan(got) and math.isnan(ref))

    def test_lockstep_newton_gives_each_start_its_bits_alone(self):
        # the refinement's g on a complex table: starts near its zeros go on,
        # while 1e200, where h overflows, takes a non-finite step at once
        params, radius = CoulombParams(-0.3 + 0.2j, 0.8 - 0.1j), 12.0
        table = table_for_radius(params, radius)
        sizes = []

        def g(points):
            sizes.append(len(points))
            return [z * h for z, h in zip(points, _compensated_horner(table.coeffs, points))]

        g_prime = zeros_module._pointwise(table.g_prime_values)
        zeros = find_zeros(params, radius).zeros
        starts = [z * (1 + 1e-5j) for z in zeros] + [1e200 + 0j] + [z + 0.2 for z in zeros[:3]]
        together = zeros_module._newton(g, g_prime, starts, 8)
        lockstep = list(sizes)
        alone = [zeros_module._newton(g, g_prime, [start], 8)[0] for start in starts]
        assert [(_hex(z), size.hex()) for z, size in together] == [
            (_hex(z), size.hex()) for z, size in alone]
        far = together[len(zeros)]
        assert far[0] == 1e200 and not far[1] < math.inf
        assert all(z != start for (z, _), start in zip(together, starts) if start != far[0])
        # one g call per step for all the points still moving
        assert lockstep[0] == len(starts) and len(lockstep) <= 9 and lockstep[1] < len(starts)

    def test_lockstep_newton_with_a_vanishing_slope(self):
        # z^2 - 2 from 0 stops at once (g' = 0), and the other starts reach
        # +-sqrt 2 to the target with the bits they have alone
        def g(points):
            return [z * z - 2.0 for z in points]

        def g_prime(points):
            return [2.0 * z for z in points]

        starts = [1.0, 0.0, -3.0, 2.5 + 0.5j]
        together = zeros_module._newton(g, g_prime, starts, 100, 1e-12)
        alone = [zeros_module._newton(g, g_prime, [start], 100, 1e-12)[0] for start in starts]
        assert [(_hex(complex(z)), size.hex()) for z, size in together] == [
            (_hex(complex(z)), size.hex()) for z, size in alone]
        assert together[1] == (0.0, 2.0)
        for k in (0, 2, 3):
            z, size = together[k]
            assert size <= 1e-12 and abs(abs(z) - math.sqrt(2.0)) < 1e-12


def _full_complex_seeding(monkeypatch):
    """Seed from the whole table as complex128 and refine in the complex kernel."""
    _companion_only(monkeypatch)
    roots = np.roots
    monkeypatch.setattr(zeros_module, "_seed_degree", lambda h, radius: h.size - 1)
    monkeypatch.setattr(np, "roots", lambda p: roots(np.asarray(p, dtype=complex)))
    monkeypatch.setattr(
        zeros_module,
        "_compensated_horner_real",
        lambda coeffs, x: _compensated_horner([complex(c) for c in coeffs], [x])[0].real,
    )


def _bits(zero_set):
    return [
        (z.real.hex(), z.imag.hex(), r.hex())
        for z, r in zip(zero_set.zeros, zero_set.residuals)
    ]


SEEDING_PARAMS = [
    SINE,
    CoulombParams(0.5, 0.3),
    CoulombParams(1.2, -0.9),
    CoulombParams(0.2 + 0.1j, 0.3),
    CoulombParams(-0.3 + 0.2j, 0.8 - 0.1j),
]


class TestSeeding:
    @pytest.mark.parametrize("params", SEEDING_PARAMS)
    @pytest.mark.parametrize("radius", [5.0, 12.0, 20.0])
    def test_bits_match_full_complex_seeding(self, params, radius, monkeypatch):
        got = _bits(find_zeros(params, radius))
        with monkeypatch.context() as m:
            _full_complex_seeding(m)
            reference = _bits(find_zeros(params, radius))
        assert got and got == reference

    @pytest.mark.parametrize("params", SEEDING_PARAMS)
    @pytest.mark.parametrize("radius", [5.0, 12.0, 20.0])
    def test_prefix_ends_at_the_last_term_above_the_cut(self, params, radius):
        coeffs = table_for_radius(params, radius).coeffs
        degree = zeros_module._seed_degree(np.array(coeffs), radius)
        terms = [abs(c) * (1.05 * radius) ** n for n, c in enumerate(coeffs)]
        floor = 1e-9 * max(terms)
        assert degree < len(coeffs) - 1
        assert terms[degree] > floor
        assert all(t <= floor for t in terms[degree + 1 :])

    @pytest.mark.parametrize("params", [SINE, CoulombParams(0.5, 0.3)])
    def test_aggressive_cut_is_caught_by_the_count(self, params, monkeypatch):
        # a prefix cut at 1e-2 loses zeros within 20; there is no reseed
        _companion_only(monkeypatch)
        seeds = _spy(monkeypatch, "_seed_roots")
        monkeypatch.setattr(zeros_module, "_SEED_CUT", 1e-2)
        with pytest.raises(WindingMismatch, match="listed zeros"):
            find_zeros(params, 20.0)
        assert len(seeds) == 1

    @pytest.mark.parametrize(
        "params, dtype", [(SINE, np.float64), (CoulombParams(0.7, -0.4), np.float64),
                          (CoulombParams(0.2 + 0.1j, 0.3), np.complex128),
                          (CoulombParams(0.5, 0.3 - 0.2j), np.complex128)]
    )
    def test_companion_dtype(self, params, dtype, monkeypatch):
        dtypes = []
        roots = np.roots

        def recorded(p):
            dtypes.append(np.asarray(p).dtype)
            return roots(p)

        monkeypatch.setattr(np, "roots", recorded)
        _companion_only(monkeypatch)
        find_zeros(params, 9.0)
        assert dtypes == [dtype]

    def test_real_kernel_is_the_complex_kernels_real_part(self):
        rng = random.Random(7)
        for _ in range(40):
            params = CoulombParams(rng.uniform(-0.4, 1.4), rng.uniform(-1, 1))
            radius = rng.uniform(5, 20)
            coeffs = table_for_radius(params, radius).coeffs
            real = [c.real for c in coeffs]
            assert all(c.imag == 0.0 for c in coeffs)
            xs = [rng.uniform(-radius, radius) for _ in range(5)]
            for x, value in zip(xs, _compensated_horner(coeffs, xs)):
                assert _compensated_horner_real(real, x).hex() == value.real.hex()


# (L, eta) = (2.2, 2.7) at radius 19, where Newton in doubles rejects the
# seed near -19.87: (re, im, residual) of each zero as float.hex, frozen
REJECTED_SEED_BITS = [
    ("-0x1.8102bbfdf33c9p+1", "0x0.0p+0", "0x1.b0977bc705f37p-57"),
    ("-0x1.529f8f41aa122p+2", "0x0.0p+0", "0x1.0d08a17a36c34p-59"),
    ("-0x1.ee6e6a2928a7dp+2", "0x0.0p+0", "0x1.1a1a2986d5f6fp-58"),
    ("-0x1.48eb36f97e03ep+3", "0x0.0p+0", "0x1.e9af06958d18ep-60"),
    ("0x1.6757cc9d927d8p+3", "0x0.0p+0", "0x1.bb9dd023ded74p-48"),
    ("-0x1.9d77c4e97a38ep+3", "0x0.0p+0", "0x1.39f6834f758a2p-60"),
    ("0x1.ee5da5306aa28p+3", "0x0.0p+0", "0x1.7af1cf55c96c9p-53"),
    ("-0x1.f42e876536f76p+3", "0x0.0p+0", "0x1.7f7b3b47a075ep-63"),
    ("-0x1.264a4c41046b5p+4", "0x0.0p+0", "0x1.aa24af0674b5fp-59"),
]


# three seeds refine onto one double near 22.997 + 1.998i, though their
# double-Newton roots lie more than 1e-8 apart: (re, im, residual) as
# float.hex, frozen
REPEATED_ROOT_CASE = (
    CoulombParams(1.4118535290308283 + 0.4454536876451387j,
                  -1.380293748335779 + 0.3857113276789218j),
    24.248861388532575,
)
REPEATED_ROOT_BITS = [
    ("0x1.88c4abda0bb90p+1", "0x1.00a09e63efa69p+0", "0x1.557f3bc3c1a94p-56"),
    ("0x1.6cf02f2563671p+2", "0x1.4e116d4b6687dp+0", "0x1.0a7053d7aea5bp-57"),
    ("-0x1.ec7914b6f892ep+2", "0x1.c12074e85e422p-2", "0x1.0ce4b195e6fb0p-50"),
    ("0x1.0e710564cf968p+3", "0x1.81110fbfeed61p+0", "0x1.3e25e201caac2p-55"),
    ("0x1.68e7de0a91096p+3", "0x1.a658569110249p+0", "0x1.e7f1c3a25ef25p-57"),
    ("-0x1.706bfa61b4d7ep+3", "0x1.1efda7efb9269p-1", "0x1.a3e8117502b8bp-51"),
    ("0x1.c515c1c5247d7p+3", "0x1.c35823a0f21edp+0", "0x1.895d417ddc878p-57"),
    ("-0x1.e2b39bc1d43fbp+3", "0x1.4b12c9698aab1p-1", "0x1.00c7b61b9dc98p-52"),
    ("0x1.11401d387bcb5p+4", "0x1.dae1479427498p+0", "0x1.bdd89fd2f1c2bp-58"),
    ("-0x1.28b871b62f8f9p+4", "0x1.6dc97e4b9bb7ep-1", "0x1.4ef428a7e8867p-50"),
    ("0x1.406c313ad29e3p+4", "0x1.ee9402fb58c20p+0", "0x1.6bbe4de2808d1p-56"),
    ("-0x1.5f10d4a5b7445p+4", "0x1.8aa00dae79974p-1", "0x1.05fbc1ab485e1p-51"),
    ("0x1.6ff47728ecc50p+4", "0x1.ff73db2ca8374p+0", "0x1.5ee7797639adfp-56"),
]

# a seed of the prefix refines onto the origin, which is not listed
ORIGIN_SEED_CASE = (CoulombParams(1.8511862098523975, 0.9454507213612549), 23.196229781781994)
ORIGIN_SEED_BITS = [
    ("-0x1.0cde569bbc588p+2", "0x0.0p+0", "0x1.c37e5c1dc4c1bp-54"),
    ("-0x1.c6ebe7199da26p+2", "0x0.0p+0", "0x1.314badef87652p-57"),
    ("0x1.d338126a343e7p+2", "0x0.0p+0", "0x1.432602fdbf076p-51"),
    ("-0x1.4141b89763084p+3", "0x0.0p+0", "0x1.e2c631587a7d2p-56"),
    ("0x1.5f6c8509a625fp+3", "0x0.0p+0", "0x1.f04e7fe8e838ep-52"),
    ("-0x1.a00f8ba2ca473p+3", "0x0.0p+0", "0x1.389253183a48dp-58"),
    ("0x1.ce9160c824e1bp+3", "0x0.0p+0", "0x1.6841ce32d1b3bp-53"),
    ("-0x1.ffadb9b585405p+3", "0x0.0p+0", "0x1.a4a791a31bfd7p-60"),
    ("0x1.1d69344532296p+4", "0x0.0p+0", "0x1.17049e728d034p-51"),
    ("-0x1.2ff70ee07edbdp+4", "0x0.0p+0", "0x1.ae5ab290b52b1p-56"),
    ("0x1.52b881e42c2c7p+4", "0x0.0p+0", "0x1.79382b9fa5260p-52"),
    ("-0x1.60570cb5e5a6dp+4", "0x0.0p+0", "0x1.66003b5f66006p-58"),
]


def _extra_seeds(monkeypatch, extend):
    """Pass the companion roots through `extend` before find_zeros polishes them."""
    seed_roots = zeros_module._seed_roots

    def extended(h, degree, radius):
        return extend(seed_roots(h, degree, radius))

    monkeypatch.setattr(zeros_module, "_seed_roots", extended)


def _spy(monkeypatch, name):
    """Record (args, result) of every call to the zeros-module function `name`."""
    calls = []
    fn = getattr(zeros_module, name)

    def recorded(*args):
        out = fn(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(zeros_module, name, recorded)
    return calls


def _refined_roots(calls):
    """The number of roots that the recorded _refine_mp calls refined."""
    return sum(len(args[1]) for args, _ in calls)


def _no_moment_seeds(monkeypatch):
    """Empty the moment seeds, so that find_zeros seeds from the companion matrix."""
    monkeypatch.setattr(zeros_module, "_moment_seeds", lambda *args: np.empty(0))


def _companion_only(monkeypatch):
    """Make the bracket proof fail and empty the moment seeds, so that every
    table is seeded by the companion matrix."""
    monkeypatch.setattr(zeros_module, "_bracketed_zeros", lambda *args: None)
    _no_moment_seeds(monkeypatch)


class TestPolishPaths:
    """find_zeros seed paths that the seeded benchmark traffic never takes.

    Real tables take the companion path here only when the bracket proof
    fails, so each real case forces that path.
    """

    @pytest.mark.parametrize(
        "params, radius", [(SINE, 20.0), (CoulombParams(0.5, 0.3), 12.0),
                           (CoulombParams(-0.3 + 0.2j, 0.8 - 0.1j), 12.0)]
    )
    def test_each_seed_twice_gives_the_same_bits(self, params, radius, monkeypatch):
        _companion_only(monkeypatch)
        with monkeypatch.context() as m:
            refined = _spy(m, "_refine_mp")
            expected = _bits(find_zeros(params, radius))
        _extra_seeds(monkeypatch, lambda roots: np.repeat(roots, 2))
        refined_twice = _spy(monkeypatch, "_refine_mp")
        assert _bits(find_zeros(params, radius)) == expected
        # every copy is refined, and the second is dropped at the dedup
        assert _refined_roots(refined_twice) == 2 * _refined_roots(refined)

    def test_seed_beyond_reach_is_skipped(self, monkeypatch):
        # Newton from 21.2i walks down the imaginary axis onto the origin
        far = 21.2j
        _companion_only(monkeypatch)
        expected = _bits(find_zeros(SINE, 20.0))
        _extra_seeds(monkeypatch, lambda roots: np.append(roots, far))
        newton = _spy(monkeypatch, "_newton")
        assert _bits(find_zeros(SINE, 20.0)) == expected
        assert newton and far not in [start for args, _ in newton for start in args[2]]

    def test_zero_beyond_the_radius_is_dropped(self, monkeypatch):
        # 20.9 is within 1.05 R, and Newton from it converges to 7 pi > 20
        _companion_only(monkeypatch)
        expected = _bits(find_zeros(SINE, 20.0))
        _extra_seeds(monkeypatch, lambda roots: np.append(roots, 20.9))
        refined = _spy(monkeypatch, "_refine_mp")
        assert _bits(find_zeros(SINE, 20.0)) == expected
        (beyond,) = [root for _, out in refined for root, _ in out if abs(root) > 20.0]
        # the table is truncated for |z| <= 20, so 7 pi is met only to 1e-8
        assert beyond == pytest.approx(7 * math.pi, abs=1e-7)

    def test_rejected_seed_frozen_bits(self, monkeypatch):
        _companion_only(monkeypatch)
        newton = _spy(monkeypatch, "_newton")
        assert _bits(find_zeros(CoulombParams(2.2, 2.7), 19.0)) == REJECTED_SEED_BITS
        # (g, g', starts, steps, target) -> [(root, |g(root)|) for each start]
        rejected = [start for args, out in newton if len(args) == 5
                    for start, (_, size) in zip(args[2], out) if not size <= args[4]]
        assert len(rejected) == 1 and abs(rejected[0]) > 19.0

    @pytest.mark.parametrize(
        "case, bits", [(REPEATED_ROOT_CASE, REPEATED_ROOT_BITS),
                       (ORIGIN_SEED_CASE, ORIGIN_SEED_BITS)]
    )
    def test_refined_roots_are_deduplicated_in_one_pass(self, case, bits, monkeypatch):
        _companion_only(monkeypatch)
        seeds = _spy(monkeypatch, "_seed_roots")
        assert _bits(find_zeros(*case)) == bits
        assert len(seeds) == 1

    def test_stalled_seed_is_dropped(self, monkeypatch):
        # double Newton accepts a seed near 26.66 - 0.47i where 8 eps S(R)
        # is about 13, and the refinement cannot bring its residual down
        params = CoulombParams(-0.7900670430628439 + 0.28532436369200254j,
                               -2.782519439704094 - 0.4188287569262903j)
        _companion_only(monkeypatch)
        seeds = _spy(monkeypatch, "_seed_roots")
        refined = _spy(monkeypatch, "_refine_mp")
        zs = find_zeros(params, 29.842465075198522)
        coeffs = table_for_radius(params, zs.trust_radius).coeffs
        gate = zeros_module._RESIDUAL_FACTOR * max(abs(c) for c in coeffs)
        stalled = [root for _, out in refined for root, residual in out if residual > gate]
        assert len(stalled) == 1 and abs(stalled[0] - (26.66 - 0.47j)) < 0.01
        assert len(zs.zeros) == 19 and len(seeds) == 1
        assert max(zs.residuals) <= gate

    def test_tiny_tol_gives_the_same_bits(self):
        # at 1e-300 the longer table's trailing coefficients underflow
        expected = _bits(find_zeros(SINE, 29.99))
        assert len(expected) == 18
        assert _bits(find_zeros(SINE, 29.99, tol=1e-300)) == expected


def _complex_draw(count):
    """Seeded complex (L, eta) at R in U(5, 20), from the zeros workload's box."""
    rng, cases = random.Random(2107), []
    for _ in range(count):
        L = complex(rng.uniform(-0.4, 1.4), rng.uniform(-0.3, 0.3))
        eta = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3))
        cases.append((CoulombParams(L, eta), rng.uniform(5.0, 20.0)))
    return cases


# the zeros workload's seed-2 input 173: a zero lies at 1.0006 R, just
# outside the circle, and spoils the 720-point moments
NEAR_CIRCLE_CASE = (
    CoulombParams(0.6667109536551862 + 0.17990928559986796j,
                  0.7926229503808884 + 0.06695256576816888j),
    14.224708436520643,
)
# tools/fingerprint.py's zeros inputs 2707 and 2863: Newton from a moment
# seed lands within 1e-18 of the origin, which once took the place of the
# zero near -0.093 - 0.034i (or -0.025 + 0.085i) while the count still matched
NEAR_ORIGIN_CASES = [
    (CoulombParams(-0.8319100257450815 + 0.0633617124206941j,
                   2.0955025987261697 + 0.12670562278236663j), 28.833063676658654),
    (CoulombParams(-0.8799850504229626 - 0.14706246702925474j,
                   2.3384901320786575 + 0.679574190261053j), 25.637124111759782),
]


class TestMomentSeeds:
    """Seeds from the power sums of the zeros, taken from the count's samples of P."""

    def test_seeds_of_a_known_polynomial(self):
        # g = z (z - a)(z - b)(z - c): P = z g'/g = 1 + sum z / (z - rho)
        rho = np.array([0.3 + 0.4j, -1.1 + 0.2j, 0.5 - 1.6j])
        z = 2.0 * np.exp(2j * np.pi * np.arange(720) / 720)
        samples = 1 + (z[:, None] / (z[:, None] - rho)).sum(axis=1)
        seeds = zeros_module._moment_seeds(samples, 4, 2.0, False)
        assert sorted(seeds, key=abs) == pytest.approx(sorted(rho, key=abs), abs=1e-12)
        assert zeros_module._moment_seeds(samples, 1, 2.0, False).size == 0
        samples[5] = np.inf
        assert zeros_module._moment_seeds(samples, 4, 2.0, False).size == 0

    def test_complex_tables_match_the_companion_path(self, monkeypatch):
        cases = _complex_draw(20)
        with monkeypatch.context() as m:
            seeds = _spy(m, "_seed_roots")
            got = [_bits(find_zeros(*case)) for case in cases]
        _companion_only(monkeypatch)
        assert [_bits(find_zeros(*case)) for case in cases] == got
        # most tables take the moment seeds alone
        assert all(got) and len(seeds) <= 3

    def test_real_table_off_the_brackets_takes_the_mirrored_samples(self, monkeypatch):
        cases = [(SINE, 20.0), (CoulombParams(0.5, 0.3), 12.0), (CoulombParams(1.2, -0.9), 15.0)]
        monkeypatch.setattr(zeros_module, "_bracketed_zeros", lambda *args: None)
        with monkeypatch.context() as m:
            seeds = _spy(m, "_seed_roots")
            got = [_bits(find_zeros(*case)) for case in cases]
        _no_moment_seeds(monkeypatch)
        assert [_bits(find_zeros(*case)) for case in cases] == got
        assert all(got) and seeds == []

    @pytest.mark.parametrize("params, radius", [(CoulombParams(0.5, 0.3), 12.0),
                                                (CoulombParams(-1.7, 0.5), 10.0)])
    def test_mirrored_samples_match_the_full_circle(self, params, radius, monkeypatch):
        table = table_for_radius(params, radius)
        tails = _tail_bounds(table.coeffs, params, radius)
        count, _, mirrored = zeros_module._arc_count(table, tails, radius)
        monkeypatch.setattr(CoefficientTable, "is_real", property(lambda table: False))
        full_count, scan, full = zeros_module._arc_count(table, tails, radius)
        assert winding_number(table, radius) == count and scan is None
        assert full_count == count and mirrored.size == full.size == 720
        # the same angles, their points rounded apart by an ulp or two
        assert np.allclose(mirrored, full, rtol=1e-10, atol=0)

    def test_zero_just_outside_the_circle_falls_back(self, monkeypatch):
        params, radius = NEAR_CIRCLE_CASE
        outside = [abs(rho) / radius for rho in find_zeros(params, 1.01 * radius).zeros]
        assert any(1 < ratio < 1.001 for ratio in outside)
        seeds = _spy(monkeypatch, "_seed_roots")
        got = _bits(find_zeros(params, radius))
        assert len(seeds) == 1 and got
        _companion_only(monkeypatch)
        assert _bits(find_zeros(params, radius)) == got

    @pytest.mark.parametrize("params, radius", NEAR_ORIGIN_CASES)
    def test_root_on_the_origin_is_not_listed(self, params, radius, monkeypatch):
        refined = _spy(monkeypatch, "_refine_mp")
        zs = find_zeros(params, radius)
        assert min(abs(rho) for rho in zs.zeros) > 0.05
        # the first, moment-seeded refinement met the origin, and the count check caught it
        assert any(abs(root) < 1e-15 for root, _ in refined[0][1]) and len(refined) == 2
        _companion_only(monkeypatch)
        assert _bits(find_zeros(params, radius)) == _bits(zs)


# (L, eta) = (-1.7, 0.5) at radius 10 has a conjugate pair at 0.219 -+ 0.547i,
# and (0.5, -20) at radius 6 nine positive zeros, some closer than the scan's
# step: (re, im, residual) as float.hex, frozen from the companion path
CONJUGATE_PAIR_BITS = [
    ("0x1.bfe6a5dc844bcp-3", "-0x1.182fa33a3ded3p-1", "0x1.0953629fc2711p-55"),
    ("0x1.bfe6a5dc844bcp-3", "0x1.182fa33a3ded3p-1", "0x1.0953629fc2711p-55"),
    ("-0x1.0dee5668dae47p+1", "0x0.0p+0", "0x1.7493fa2bcceb3p-50"),
    ("-0x1.3f82a84836bd5p+2", "0x0.0p+0", "0x1.f77e82a5bd889p-49"),
    ("0x1.46c8eccc1c921p+2", "0x0.0p+0", "0x1.e4e2fc9283b80p-45"),
    ("-0x1.fcf07c99d2034p+2", "0x0.0p+0", "0x1.2c3de0a71c149p-47"),
    ("0x1.11fa71794dd40p+3", "0x0.0p+0", "0x1.1791efe27f5eap-42"),
]
DENSE_ZERO_BITS = [
    ("0x1.51071424fffdep-3", "0x0.0p+0", "0x1.ab170b8ed9fdcp-61"),
    ("0x1.c3a3cd96204c0p-2", "0x0.0p+0", "0x1.a5f142578e801p-63"),
    ("0x1.acf0f8e8bd373p-1", "0x0.0p+0", "0x1.17fec783d900ap-60"),
    ("0x1.5a44e624c6872p+0", "0x0.0p+0", "0x1.1528d6f0a1a59p-58"),
    ("0x1.fb91b9faa6999p+0", "0x0.0p+0", "0x1.adc8f487bb4ccp-59"),
    ("0x1.5cbfa3672e78ap+1", "0x0.0p+0", "0x1.ec9c8e1aea2edp-61"),
    ("0x1.c98908fe4f687p+1", "0x0.0p+0", "0x1.8c2888e8625c6p-60"),
    ("0x1.21ce571a9ff57p+2", "0x0.0p+0", "0x1.54ad7f84dc699p-59"),
    ("0x1.65356606789dep+2", "0x0.0p+0", "0x1.beeb92d3a76b8p-62"),
]


def _fingerprint_draw(count):
    """The real and sine thirds of tools/fingerprint.py's first `count` zero inputs."""
    rng, cases = random.Random(20261019), []
    for i in range(count):
        radius = rng.uniform(0.3, 30.0)
        if i % 3 == 2:
            cases.append((SINE, radius))
            continue
        L, eta = rng.uniform(-0.9, 3.0), rng.uniform(-3.0, 3.0)
        if i % 3 == 0:
            cases.append((CoulombParams(L, eta), radius))
        else:  # a complex pair's imaginary parts, drawn to keep the sequence in step
            rng.uniform(-0.5, 0.5)
            rng.uniform(-1.0, 1.0)
    return cases


def _answer(params, radius):
    """find_zeros' bits, or the class name of its refusal."""
    try:
        return _bits(find_zeros(params, radius))
    except (NoConvergence, WindingMismatch) as exc:
        return type(exc).__name__


class TestBrackets:
    """Real tables: zeros from proven sign changes of g on the diameter."""

    def test_brackets_match_the_companion_path(self, monkeypatch):
        cases = _fingerprint_draw(150)
        brackets = _spy(monkeypatch, "_bracketed_zeros")
        got = [_answer(*case) for case in cases]
        answered = sum(found is not None for _, found in brackets)
        _companion_only(monkeypatch)
        assert [_answer(*case) for case in cases] == got
        assert len(cases) == 100 and answered >= 80

    def test_no_companion_matrix_on_real_benchmark_inputs(self, monkeypatch):
        # the zeros workload's seed-7 pool: 120 of its 192 inputs are real
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
        real = [op.call for op in workloads.Zeros(7).ops
                if op.call.params.L.imag == 0 and op.call.params.eta.imag == 0]
        roots = []
        monkeypatch.setattr(np, "roots", lambda p: roots.append(p))
        for call in real:
            find_zeros(call.params, call.radius)
        assert len(real) == 120 and roots == []

    @pytest.mark.parametrize("params, radius, bits", [
        (CoulombParams(-1.7, 0.5), 10.0, CONJUGATE_PAIR_BITS),
        (CoulombParams(0.5, -20.0), 6.0, DENSE_ZERO_BITS),
    ])
    def test_too_few_sign_changes_take_the_companion_path(self, params, radius, bits,
                                                           monkeypatch):
        brackets = _spy(monkeypatch, "_bracketed_zeros")
        _no_moment_seeds(monkeypatch)
        seeds = _spy(monkeypatch, "_seed_roots")
        assert _bits(find_zeros(params, radius)) == bits
        assert [found for _, found in brackets] == [None] and len(seeds) == 1

    def test_undecided_sign_takes_the_companion_path(self, monkeypatch):
        # the scan point x_7 = R 7/9 lies 10 ulps above the zero near pi, where
        # |g| = 4.2e-15 is below its err of 1.7e-14: a sign taken from |g| > 0
        # would bracket the zero from the wrong side of the proof
        radius = float.fromhex("0x1.0282191998abbp+2")
        brackets = _spy(monkeypatch, "_bracketed_zeros")
        _no_moment_seeds(monkeypatch)
        seeds = _spy(monkeypatch, "_seed_roots")
        zs = find_zeros(SINE, radius)
        (args, found), = brackets
        _, values, err = args[2]
        assert found is None and len(seeds) == 1
        assert 0 < abs(values[15]) < err[15]
        assert _bits(zs) == _bits(find_zeros(SINE, 4.0))

    def test_root_outside_its_bracket_takes_the_companion_path(self, monkeypatch):
        # the first refined root is moved a whole unit, past its bracket's
        # width of at most 0.5; the companion path then lists the zeros
        expected = _bits(find_zeros(CoulombParams(0.7, -0.4), 8.0))
        refine = zeros_module._refine_mp
        calls = []

        def moved(table, roots):
            out = refine(table, roots)
            calls.append(roots)
            if len(calls) == 1:
                (root, residual), *rest = out
                out = [(root + 1.0, residual), *rest]
            return out

        monkeypatch.setattr(zeros_module, "_refine_mp", moved)
        _no_moment_seeds(monkeypatch)
        seeds = _spy(monkeypatch, "_seed_roots")
        assert _bits(find_zeros(CoulombParams(0.7, -0.4), 8.0)) == expected
        assert len(seeds) == 1

    def test_newton_short_of_the_target_takes_the_companion_path(self, monkeypatch):
        # one double Newton step leaves the regula-falsi starts short of the
        # target: the bracket proof gives up rather than refine them
        params = CoulombParams(0.7, -0.4)
        monkeypatch.setattr(zeros_module, "_NEWTON_MAX_STEPS", 1)
        brackets = _spy(monkeypatch, "_bracketed_zeros")
        _no_moment_seeds(monkeypatch)
        seeds = _spy(monkeypatch, "_seed_roots")
        got = _bits(find_zeros(params, 8.0))
        assert [found for _, found in brackets] == [None] and len(seeds) == 1
        _companion_only(monkeypatch)
        assert _bits(find_zeros(params, 8.0)) == got and len(got) == 3

    def test_companion_eigensolver_failure_is_a_refusal(self, monkeypatch):
        def fail(p):
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")

        _companion_only(monkeypatch)
        monkeypatch.setattr(np, "roots", fail)
        with pytest.raises(NoConvergence, match="companion-matrix roots fail"):
            find_zeros(CoulombParams(0.7, -0.4), 8.0)

    def test_diameter_points(self):
        for radius in (1e-300, 0.3, 0.5, 4.25, 20.0, 29.99):
            x = zeros_module._diameter(radius)
            n = math.ceil(radius / 0.5)
            step = np.diff(x)
            assert x.size == 2 * n and x[0] == -radius and x[-1] == radius
            assert np.all(step > 0) and 0.0 not in x
            # steps of at most 0.5, but the origin's bracket (-R/n, R/n)
            assert np.all(np.delete(step, n - 1) <= 0.5 * (1 + 1e-15))

    def test_bounded_horner_bound_holds_on_the_diameter(self):
        # the sign proof's err at real points inside the circle, against the
        # exact sum of the same double coefficients in 60 digits
        table = table_for_radius(CoulombParams(0.3, -0.7), 25.0)
        x = zeros_module._diameter(25.0)
        value, bound = zeros_module._bounded_horner(table.coeffs, x.astype(complex), 25.0)
        with mp.workdps(60):
            for w, v, b in zip(x, value, bound):
                exact = mp.polyval([mp.mpf(a.real) for a in reversed(table.coeffs)], mp.mpf(w))
                assert v.imag == 0.0 and abs(exact - mp.mpf(v.real)) <= b

    def test_scan_comes_from_the_count_pass(self, monkeypatch):
        # one _bounded_horner call carries the semicircle and the diameter
        calls = []
        bounded_horner = zeros_module._bounded_horner

        def counted(coeffs, z, r):
            calls.append(z.size)
            return bounded_horner(coeffs, z, r)

        monkeypatch.setattr(zeros_module, "_bounded_horner", counted)
        zs = find_zeros(CoulombParams(0.7, -0.4), 8.0)
        assert calls == [zeros_module._CIRCLE_SAMPLES // 2 + 1 + 2 * 16]
        assert len(zs.zeros) == 3


class TestWindingNumber:
    def test_counts_origin_only(self):
        table = table_for_radius(SINE, 1.0)
        assert winding_number(table, 1.0) == 1

    def test_counts_four_plus_origin(self):
        table = table_for_radius(SINE, 7.0)
        assert winding_number(table, 7.0) == 5

    def test_matches_zero_list(self):
        params = CoulombParams(0.7, -0.4)
        radius = 8.0
        zs = find_zeros(params, radius)
        table = table_for_radius(params, radius)
        assert winding_number(table, radius) == len(zs.zeros) + 1

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(InvalidParams):
            winding_number(table_for_radius(SINE, 1.0), radius)

    @pytest.mark.parametrize("radius", [1e-310, 1e-320, 5e-324])
    def test_subnormal_radius_is_refused(self, radius):
        # the angle steps g_(k+1)/g_k overflow on a subnormal circle: at
        # 1e-320 they would sum to a count of 90
        with pytest.raises(InvalidParams):
            winding_number(table_for_radius(SINE, radius), radius)
        with pytest.raises(InvalidParams):
            find_zeros(SINE, radius)

    @pytest.mark.parametrize("radius", [sys.float_info.min, 1e-300])
    def test_least_normal_radius_answers(self, radius):
        assert winding_number(table_for_radius(SINE, radius), radius) == 1
        assert find_zeros(SINE, radius).zeros == ()

    def test_uncertified_tail_refuses(self):
        # a table built for |z| <= 1 has no tail bound on |z| = 20
        with pytest.raises(NoConvergence):
            winding_number(table_for_radius(SINE, 1.0), 20.0)

    def test_sine_grid_is_right_or_refuses(self):
        # zeros at k pi; a trapezoid estimate returned wrong integers on 36 of
        # these radii, e.g. -10632, where a proven count can only refuse
        radii = [0.5 + 0.25 * k for k in range(127)]
        near = [k * math.pi + d for k in range(1, 11) for d in (-1e-3, 1e-3, -1e-6, 1e-6)]
        for radius in radii + near:
            expected = 2 * math.floor(radius / math.pi) + 1
            try:
                count = winding_number(table_for_radius(SINE, radius), radius)
            except NoConvergence:
                assert abs(radius - round(radius / math.pi) * math.pi) < 2e-3, radius
                continue
            assert count == expected, radius
        for radius in near[:32:4] + near[1:32:4]:  # k pi -+ 1e-3 for k <= 8
            expected = 2 * math.floor(radius / math.pi) + 1
            assert winding_number(table_for_radius(SINE, radius), radius) == expected

    @pytest.mark.parametrize("radius, count", [(0.3626, 1), (0.36265, 1), (0.36266, 2)])
    def test_zero_near_the_circle(self, radius, count):
        # the zero of (0, 5) sits at |rho| = 0.362658574621303
        params = CoulombParams(0.0, 5.0)
        assert winding_number(table_for_radius(params, radius), radius) == count
        assert len(find_zeros(params, radius).zeros) == count - 1

    def test_counts_what_a_trapezoid_missed(self):
        # an input of the zeros benchmark (seed 2, input 190) whose trapezoid
        # estimate was -1; the zero list has 8 entries
        params = CoulombParams(float.fromhex("-0x1.5483e171f9200p-2"),
                               float.fromhex("0x1.a34b576f83680p-1"))
        radius = float.fromhex("0x1.db2c5ff0b8e08p+3")
        assert winding_number(table_for_radius(params, radius), radius) == 9
        assert len(find_zeros(params, radius).zeros) == 8

    def test_unproven_count_is_a_mismatch(self):
        # the double pi lies 1.2e-16 inside the zero pi: no arc near it closes
        with pytest.raises(NoConvergence):
            winding_number(table_for_radius(SINE, math.pi), math.pi)
        with pytest.raises(WindingMismatch, match="unproven"):
            find_zeros(SINE, math.pi)

    def test_semicircle_matches_full_circle(self, monkeypatch):
        # a real table's count runs on the upper semicircle; with the
        # realness predicate turned off it runs on the whole circle.  Where
        # the whole circle answers the semicircle must answer, and the same
        rng = random.Random(20261020)
        cases = [(SINE, rng.uniform(0.3, 30.0)) for _ in range(40)]
        cases += [(CoulombParams(rng.uniform(-0.9, 3.0), rng.uniform(-3.0, 3.0)),
                   rng.uniform(0.3, 30.0)) for _ in range(220)]
        # for L < -3/2 some zeros come in conjugate pairs off the real axis
        cases += [(CoulombParams(rng.uniform(-3.4, -1.05), rng.uniform(-3.0, 3.0)),
                   rng.uniform(0.3, 30.0)) for _ in range(80)]
        cases.append((CoulombParams(-1.7, 0.5), 10.0))

        def counts():
            out = []
            for params, radius in cases:
                try:
                    out.append(winding_number(table_for_radius(params, radius), radius))
                except NoConvergence:
                    out.append(None)
            return out

        half = counts()
        monkeypatch.setattr(CoefficientTable, "is_real", property(lambda table: False))
        full = counts()
        assert sum(count is not None for count in full) >= 300
        for case, semi, whole in zip(cases, half, full):
            assert whole is None or semi == whole, case
        zero_set = find_zeros(*cases[-1])  # a conjugate pair at 0.219 -+ 0.547i
        assert any(rho.imag != 0.0 for rho in zero_set.zeros)
        assert half[-1] == full[-1] == len(zero_set.zeros) + 1

    def test_bounded_horner_bound_holds(self):
        # against the exact sum of the same double coefficients at the same
        # double points, in 60 digits
        table = table_for_radius(CoulombParams(0.3, -0.7), 25.0)
        z = 25.0 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 41))
        value, bound = zeros_module._bounded_horner(table.coeffs, z, 25.0)
        assert np.array_equal(value, _horner(table.coeffs, z))
        with mp.workdps(60):
            for w, v, b in zip(z, value, bound):
                exact = mp.polyval([mp.mpc(a) for a in reversed(table.coeffs)], mp.mpc(w))
                assert abs(exact - mp.mpc(v)) <= b


def _ode_bounds(monkeypatch):
    """Record each _ode_bound call's (u, arc lengths, bound)."""
    calls = []
    ode_bound = zeros_module._ode_bound

    def recorded(u, length, c):
        bound = ode_bound(u, length, c)
        calls.append((u.copy(), length.copy(), bound.copy()))
        return bound

    monkeypatch.setattr(zeros_module, "_ode_bound", recorded)
    return calls


def _taylor_arcs(monkeypatch):
    """Record g's coefficients and each arc that the second-order bound closes.

    The coefficients are those of the count's _bounded_horner calls,
    (0, a_0, a_1, ...); each arc is (start, end, l, err_p, rho, eta, r),
    start and end being the records of its two samples.
    """
    record = {"coeffs": None, "arcs": []}
    bounded_horner = zeros_module._bounded_horner
    taylor_closes = zeros_module._taylor_closes

    def horner(coeffs, z, r):
        record["coeffs"] = coeffs
        return bounded_horner(coeffs, z, r)

    def closes(start, end, length, c, err_p, r):
        closed, rho, eta = taylor_closes(start, end, length, c, err_p, r)
        record["arcs"] += [(start[:, k], end[:, k], length[k], err_p, rho[k], eta[k], r)
                           for k in np.flatnonzero(closed)]
        return closed, rho, eta

    monkeypatch.setattr(zeros_module, "_bounded_horner", horner)
    monkeypatch.setattr(zeros_module, "_taylor_closes", closes)
    return record


def _circle_count(params, radius, angles):
    """Run the arc count through a caller: certify on `angles` angles, or winding_number."""
    if angles is None:
        return winding_number(table_for_radius(params, radius), radius)
    return certify(params, StarlikeClass.CLASSICAL, ScanGrid(angles, radius))


class TestArcCountSoundness:
    """The inputs of _arc_count's proof, checked against g itself."""

    # (L, eta, radius, certify's angles or None for winding_number); each
    # fails Rouche's test, so the ODE bound closes its arcs.  The count
    # samples its own circle, whatever certify's grid.
    CASES = [
        (-0.4, 0.8, 0.999, 720),
        (-0.4, -0.8, 0.999, 12),
        (0.0, 5.0, 0.3626, 3),
        (-0.3954, 0.8, 0.999, 720),
        (-0.35 + 0.1j, 0.9 - 0.2j, 0.999, 720),
        (0.0, 0.0, 7.0, None),
        (0.7, -0.4, 8.0, None),
        (0.2 + 0.1j, 0.3, 6.0, None),
    ]
    # certify pairs whose count Rouche's test proves at once
    ROUCHE = [
        (0.0, 0.0, 0.5, 12),
        (0.3, 0.2, 0.5, 12),
        (0.5, 0.1, 0.999, 3),
        (0.2 + 0.1j, -0.3 + 0.2j, 0.7, 12),
    ]
    # certify pairs whose samples close every arc by the ODE bound at once
    ONE_PASS = [(0.5, 0.1, 0.999, 720), (-0.3 + 0.2j, 0.8 - 0.1j, 0.999, 720)]

    @pytest.mark.parametrize("L, eta, radius, angles", CASES)
    def test_ode_bound_covers_each_arc(self, monkeypatch, L, eta, radius, angles):
        # D_k must bound how far g moves from g(z_k) along arc k, which a
        # u_k missing |g'_k| does not; the first pass is the equal-width grid,
        # on the upper semicircle for a real table
        params = CoulombParams(L, eta)
        calls = _ode_bounds(monkeypatch)
        _circle_count(params, radius, angles)
        assert calls, "no arc fell back to the ODE bound"
        u, length, bound = calls[0]
        n = u.size
        table = table_for_radius(params, radius)
        span = np.pi if table.is_real else 2 * np.pi
        assert n == zeros_module._CIRCLE_SAMPLES * span / (2 * np.pi)
        steps = np.arange(65) / 64
        for k in range(n):
            theta = span * (k + steps) / n
            g = table.g_values(radius * np.exp(1j * theta))
            assert np.max(np.abs(g - g[0])) <= bound[k], k
            assert length[k] >= radius * span / n

    @pytest.mark.parametrize("L, eta, radius, angles",
                             CASES + ROUCHE + ONE_PASS + [(1.2, -0.9, 15.0, None)])
    def test_angle_steps_add_up_to_whole_turns(self, monkeypatch, L, eta, radius, angles):
        # the principal angles of g_(k+1)/g_k sum to 2 pi times the count
        # before rounding; a step left out or counted twice is off by far more.
        # An infinite S fails Rouche's test, so the sampler, which backs the
        # test up when it fails, counts the ROUCHE pairs too; M1, which
        # scales g''s rounding allowance, stays real
        abs_sum = zeros_module._abs_sum

        def infinite_s(table, r, deriv):
            return math.inf if deriv == 0 else abs_sum(table, r, deriv)

        monkeypatch.setattr(zeros_module, "_abs_sum", infinite_s)
        turns = []

        def recorded(x):
            turns.append(x)
            return round(x)

        monkeypatch.setattr(zeros_module, "round", recorded, raising=False)
        calls = _ode_bounds(monkeypatch)
        _circle_count(CoulombParams(L, eta), radius, angles)
        assert len(turns) == 1
        assert abs(turns[0] - round(turns[0])) < 1e-9
        if (L, eta, radius, angles) in self.ONE_PASS:  # closes in one pass
            assert len(calls) == 1

    # the second-order bound closes arcs on these too: sine at 30, where g''s
    # rounding allowance err_p is most of u_k; (10, 1) just outside its zero
    # at 13.8266538667, where |g''| nearly reaches c (|g| + |g'|)
    TAYLOR = CASES + [(0.0, 0.0, 30.0, None), (0.3 + 0.1j, 0.5 - 0.2j, 15.0, None),
                      (10.0, 1.0, 13.826667693385588, None)]

    @pytest.mark.parametrize("L, eta, radius, angles", TAYLOR)
    def test_taylor_bound_covers_each_arc(self, monkeypatch, L, eta, radius, angles):
        # at 65 points z on each closed arc, g(z) from the table's
        # coefficients in 30 digits stays within rho_k - err_k of the tangent
        # line g(z_k) + g'_k (z - z_k), for the computed g'_k and for any g'_k
        # within err_p of g'(z_k), and z - z_k lies within eta of the chord
        # [0, d_k].  Each case checks its 16 arcs of least |g_k| (all of them
        # but on sine at 30, which closes 360)
        record = _taylor_arcs(monkeypatch)
        _circle_count(CoulombParams(L, eta), radius, angles)
        arcs = sorted(record["arcs"], key=lambda arc: abs(arc[0][2]))[:16]
        steps = np.arange(65) / 64
        with mp.workdps(30):
            a = [mp.mpc(c) for c in reversed(record["coeffs"])]
            for start, end, length, err_p, rho, eta_k, r in arcs:
                theta, z_k, _, slope, err, _ = start
                z_k = mp.mpc(z_k)
                g_k, slope_k = mp.polyval(a, z_k, derivative=True)
                d = mp.mpc(end[1]) - z_k
                z = np.array([mp.mpf(r) * mp.expj(mp.mpf(theta.real) + float(t) * (
                    mp.mpf(end[0].real) - mp.mpf(theta.real))) for t in steps])
                g = np.zeros(z.size, dtype=object)
                for c in a:
                    g = g * z + c
                for w, value in zip(z - z_k, g):
                    assert abs(value - g_k - mp.mpc(slope) * w) <= rho - err.real
                    assert abs(value - g_k - slope_k * w) + err_p * abs(w) <= rho - err.real
                    lam = min(1.0, max(0.0, float(mp.re(w * mp.conj(d)) / abs(d) ** 2)))
                    assert abs(w - lam * d) <= eta_k
        if (L, eta, radius, angles) not in self.CASES:
            assert len(arcs) >= 5

    @pytest.mark.parametrize("params, radius, count, passes", [
        (CoulombParams(0.3 + 0.1j, 0.5 - 0.2j), 15.0, 10, 1),
        (SINE, math.pi * (1 + 1e-3), 3, 1),
        (SINE, math.pi * (1 + 1e-6), 3, 5),  # still bisects
    ])
    def test_taylor_bound_spares_passes(self, monkeypatch, params, radius, count, passes):
        # the second-order bound closes the arcs the first-order one leaves
        # open; with the first alone these took 2, 6 and 16 passes
        calls = []
        bounded_horner = zeros_module._bounded_horner

        def counted(*args):
            calls.append(args)
            return bounded_horner(*args)

        monkeypatch.setattr(zeros_module, "_bounded_horner", counted)
        assert winding_number(table_for_radius(params, radius), radius) == count
        assert len(calls) == passes

    def test_ode_bound_overflows_to_inf(self):
        # an e^(c l) past the double range gives an infinite bound, which
        # leaves its arc open, with no RuntimeWarning; c l = 700 stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bound = zeros_module._ode_bound(np.ones(2), np.array([100.0, 87.5]), 8.0)
        assert bound[0] == math.inf
        assert math.isfinite(bound[1])

    def test_taylor_bound_survives_underflow_and_overflow(self):
        # a g'_k d_k that underflows to 0 or overflows leaves its arc open,
        # with no RuntimeWarning (pytest turns one into an error)
        start = np.array([[0.0] * 3, [1.0] * 3, [1.0, 1.0, 1e300], [1e-300, 0.0, 1e300],
                          [0.0] * 3, [1.0] * 3], dtype=complex)
        end = start.copy()
        end[1] += 1e-30
        closed, _, _ = zeros_module._taylor_closes(start, end, np.full(3, 1e-30), 1.0, 0.0, 1.0)
        assert not closed.any()


def _mp_coefficients(params, order):
    """a_0 .. a_order from the recurrence in the current mpmath precision."""
    L, eta = mp.mpc(params.L), mp.mpc(params.eta)
    a = [mp.mpc(1), eta / (L + 1)]
    for n in range(2, order + 1):
        a.append((2 * eta * a[-1] - a[-2]) / (n * (n + 2 * L + 1)))
    return a


class TestCountRecord:
    """_arc_count's one record, (count, scan, samples), on each of its paths."""

    def test_record_shape_and_callers_agree(self):
        # seeded pairs on certify's default circle, alternately real and
        # complex: Rouche's test settles some, and the arcs count the rest
        rng, r, paths = random.Random(20261022), 0.999, set()
        for i in range(24):
            L, eta = rng.uniform(-0.9, 1.4), rng.uniform(-1.5, 1.5)
            if i % 2:
                L, eta = complex(L, rng.uniform(-0.3, 0.3)), complex(eta, rng.uniform(-0.8, 0.8))
            params = CoulombParams(L, eta)
            table, tails = _grow_table(params, r, _ORDER_SCHEDULE, DEFAULT_TOL)
            record = zeros_module._arc_count(table, tails, r)
            count, scan, samples = record
            assert isinstance(record, tuple) and len(record) == 3 and isinstance(count, int)
            if samples is None:  # Rouche's test
                paths.add("rouche")
                assert count == 1 and scan is None
            elif table.is_real:
                paths.add("real")
                x, g, err = scan
                assert np.array_equal(x, zeros_module._diameter(r))
                assert g.dtype == err.dtype == float and g.size == err.size == x.size
            else:
                paths.add("complex")
                assert scan is None
            assert samples is None or samples.shape == (zeros_module._CIRCLE_SAMPLES,)
            assert winding_number(table, r) == count
            assert len(find_zeros(params, r).zeros) + 1 == count
            report = certify(params, StarlikeClass.CLASSICAL, ScanGrid(720, r))
            assert report.zero_in_disk == (count != 1)
        assert paths == {"rouche", "real", "complex"}


class TestRouche:
    """The inputs of _arc_count's Rouche test, checked against g itself."""

    @pytest.mark.parametrize("complex_pairs", [False, True])
    def test_rouche_inputs_bound_g(self, monkeypatch, complex_pairs):
        # seeded sweep-box pairs on certify's default circle whose count the
        # test proves: the 40-digit S of the double coefficients stays below
        # S (1 + rho), the 40-digit coefficients pass the test too, and
        # |g(z) - z| < r on 1,024 points, g from 40-digit coefficients plus tail0
        class Sampled(Exception):
            pass

        def sampled(*args):
            raise Sampled

        monkeypatch.setattr(zeros_module, "_bounded_horner", sampled)
        r, rng, proven = 0.999, random.Random(20261019), 0
        while proven < 3:
            L, eta = rng.uniform(-0.4, 1.4), rng.uniform(-0.8, 0.8)
            if complex_pairs:
                L, eta = complex(L, rng.uniform(-0.3, 0.3)), complex(eta, rng.uniform(-0.8, 0.8))
            params = CoulombParams(L, eta)
            table, tails = _grow_table(params, r, _ORDER_SCHEDULE, DEFAULT_TOL, 1)
            try:
                record = zeros_module._arc_count(table, tails, r)
            except Sampled:  # the test failed, and the count sampled the circle
                continue
            assert record == (1, None, None)
            proven += 1
            s = zeros_module._abs_sum(table, r, 0)
            with mp.workdps(40):
                exact = mp.fsum(abs(mp.mpc(c)) * mp.mpf(r) ** (n + 1)
                                for n, c in enumerate(table.coeffs))
                assert exact <= mp.mpf(s) * (1 + (table.order + 3) * mp.mpf(EPS))
                a = _mp_coefficients(params, table.order)
                assert mp.fsum(abs(c) * mp.mpf(r) ** (n + 1) for n, c in enumerate(a)) \
                    + tails[0] < 2 * r
                # g(z) - z = z^2 sum_(n>=1) a_n z^(n-1), by Horner on all points at once
                z = np.array([r * mp.expjpi(mp.mpf(k) / 512) for k in range(1024)])
                acc = np.zeros(z.size, dtype=object)
                for c in a[:0:-1]:
                    acc = acc * z + c
                assert max(abs(w) for w in acc * z * z) + tails[0] < r

    def test_rounding_margin_leaves_a_boundary_circle_to_the_sampler(self, monkeypatch):
        # on this circle the computed S + tail0 falls 3.6 eps short of 2r,
        # inside the margin rho, so the test must not prove the count
        params, r = CoulombParams(0.5, 0.1), 2.248541828667851
        table = table_for_radius(params, r)
        tail0 = _tail_bounds(table.coeffs, params, r)[0]
        assert zeros_module._abs_sum(table, r, 0) + tail0 < 2 * r
        sampled = []
        bounded_horner = zeros_module._bounded_horner

        def counted(*args):
            sampled.append(args)
            return bounded_horner(*args)

        monkeypatch.setattr(zeros_module, "_bounded_horner", counted)
        assert winding_number(table, r) == 1
        assert sampled


class TestWeierstrassEval:
    def test_origin(self):
        zs = find_zeros(SINE, 4.0)
        assert weierstrass_eval(SINE, 0.0, zs, 2).value == 0.0

    def test_empty_product(self):
        params = CoulombParams(0.5, 0.2)
        zs = find_zeros(params, 4.0)
        z = 0.3 + 0.1j
        got = weierstrass_eval(params, z, zs, 0).value
        expected = z * cmath.exp(params.eta * z / (params.L + 1))
        assert abs(got - expected) <= 1e-15
        assert weierstrass_eval(params, z, zs, 0).abs_error == 0.0

    def test_product_count_out_of_range(self):
        zs = find_zeros(SINE, 4.0)
        with pytest.raises(ValueError):
            weierstrass_eval(SINE, 0.5, zs, len(zs.zeros) + 1)
        with pytest.raises(ValueError):
            weierstrass_eval(SINE, 0.5, zs, -1)

    @pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(0.0, math.nan),
                                   complex(-math.inf, math.inf), math.nan])
    def test_non_finite_z_is_refused(self, z):
        zs = find_zeros(CoulombParams(0.5, 0.1), 5.0)
        with pytest.raises(DomainError):
            weierstrass_eval(CoulombParams(0.5, 0.1), z, zs, 1)

    @pytest.mark.parametrize("z, n_product", [(1e200, 1), (1e200, 0), (-1e150j, 1), (1e100j, 2)])
    def test_overflowing_product_is_refused(self, z, n_product):
        # 1e200 overflows cmath.exp; at -1e150j and 1e100j the product or
        # its error overflows to inf without raising
        zs = find_zeros(CoulombParams(0.5, 0.1), 5.0)
        with pytest.raises(NoConvergence, match="overflows"):
            weierstrass_eval(CoulombParams(0.5, 0.1), z, zs, n_product)

    def test_more_zeros_improve_the_sine_product(self):
        zs = find_zeros(SINE, 20.0)
        reference = math.sin(0.5)
        few = abs(weierstrass_eval(SINE, 0.5, zs, 2).value - reference)
        many = abs(weierstrass_eval(SINE, 0.5, zs, 12).value - reference)
        assert many < few


class TestProductConvergenceReport:
    def test_frozen_sine_sequence(self):
        zs = find_zeros(SINE, 20.0)
        report = product_convergence_report(SINE, 0.5, zs)
        assert [n for n, _ in report] == list(range(1, 13))
        for (_, err), frozen in zip(report, PRODUCT_ERRORS):
            assert err == pytest.approx(frozen, rel=1e-6)

    def test_strictly_decreasing(self):
        zs = find_zeros(SINE, 20.0)
        errors = [err for _, err in product_convergence_report(SINE, 0.5, zs)]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_origin_all_zero(self):
        zs = find_zeros(SINE, 7.0)
        report = product_convergence_report(SINE, 0.0, zs)
        assert all(err == 0.0 for _, err in report)

    @pytest.mark.parametrize(
        "params, radius, z",
        [(SINE, 20.0, 0.5), (CoulombParams(0.3 + 0.2j, -0.6 + 0.1j), 12.0, 2.5 - 3.0j)],
    )
    def test_bits_of_every_prefix_product(self, params, radius, z):
        # the running product multiplies the factors weierstrass_eval does,
        # in the same order
        zs = find_zeros(params, radius)
        reference = eval_g(params, z).value
        report = product_convergence_report(params, z, zs)
        assert [err.hex() for _, err in report] == [
            abs(weierstrass_eval(params, z, zs, n).value - reference).hex()
            for n in range(1, len(zs.zeros) + 1)
        ]

    def test_overflowing_product_is_refused(self):
        # e^(eta z / (L+1)) = e^1000 overflows cmath.exp before any factor,
        # and both product functions refuse it alike
        params = CoulombParams(-0.999, 1.0)
        zs = find_zeros(params, 1.0)
        with pytest.raises(NoConvergence, match="overflows"):
            weierstrass_eval(params, 1.0, zs, 0)
        with pytest.raises(NoConvergence, match="overflows"):
            product_convergence_report(params, 1.0, zs)

    def test_shape_single_zero_pair(self):
        zs = find_zeros(SINE, 4.0)
        report = product_convergence_report(SINE, 0.25, zs)
        assert len(report) == len(zs.zeros)
