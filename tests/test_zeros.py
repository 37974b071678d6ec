"""Unit tests for zero location and the Hadamard product rebuild."""

import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest

import coulombstar.zeros as zeros_module

from coulombstar import (
    CoulombParams,
    InvalidParams,
    NoConvergence,
    WindingMismatch,
    ZeroSet,
    eval_g,
    find_zeros,
    product_convergence_report,
    table_for_radius,
    weierstrass_eval,
    winding_number,
)
from coulombstar.series import _horner
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
        for k in range(12):
            z = radius * (0.3 + 0.06 * k) * cmath.exp(1j * (0.7 + 2.1 * k))
            got = _compensated_horner(coeffs, z)
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


def _full_complex_seeding(monkeypatch):
    """Seed from the whole table as complex128 and refine in the complex kernel."""
    roots = np.roots
    monkeypatch.setattr(zeros_module, "_seed_degree", lambda h, radius: h.size - 1)
    monkeypatch.setattr(np, "roots", lambda p: roots(np.asarray(p, dtype=complex)))
    monkeypatch.setattr(
        zeros_module,
        "_compensated_horner_real",
        lambda coeffs, x: _compensated_horner([complex(c) for c in coeffs], complex(x)).real,
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
            for _ in range(5):
                x = rng.uniform(-radius, radius)
                got = _compensated_horner_real(real, x)
                assert got.hex() == _compensated_horner(coeffs, complex(x)).real.hex()


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


class TestPolishPaths:
    """find_zeros seed paths that the seeded benchmark traffic never takes."""

    @pytest.mark.parametrize(
        "params, radius", [(SINE, 20.0), (CoulombParams(0.5, 0.3), 12.0),
                           (CoulombParams(-0.3 + 0.2j, 0.8 - 0.1j), 12.0)]
    )
    def test_each_seed_twice_gives_the_same_bits(self, params, radius, monkeypatch):
        with monkeypatch.context() as m:
            refined = _spy(m, "_refine_mp")
            expected = _bits(find_zeros(params, radius))
        _extra_seeds(monkeypatch, lambda roots: np.repeat(roots, 2))
        refined_twice = _spy(monkeypatch, "_refine_mp")
        assert _bits(find_zeros(params, radius)) == expected
        # every copy is refined, and the second is dropped at the dedup
        assert len(refined_twice) == 2 * len(refined)

    def test_seed_beyond_reach_is_skipped(self, monkeypatch):
        # Newton from 21.2i walks down the imaginary axis onto the origin
        far = 21.2j
        expected = _bits(find_zeros(SINE, 20.0))
        _extra_seeds(monkeypatch, lambda roots: np.append(roots, far))
        newton = _spy(monkeypatch, "_newton")
        assert _bits(find_zeros(SINE, 20.0)) == expected
        assert newton and far not in [args[2] for args, _ in newton]

    def test_zero_beyond_the_radius_is_dropped(self, monkeypatch):
        # 20.9 is within 1.05 R, and Newton from it converges to 7 pi > 20
        expected = _bits(find_zeros(SINE, 20.0))
        _extra_seeds(monkeypatch, lambda roots: np.append(roots, 20.9))
        refined = _spy(monkeypatch, "_refine_mp")
        assert _bits(find_zeros(SINE, 20.0)) == expected
        (beyond,) = [root for _, (root, _) in refined if abs(root) > 20.0]
        # the table is truncated for |z| <= 20, so 7 pi is met only to 1e-8
        assert beyond == pytest.approx(7 * math.pi, abs=1e-7)

    def test_rejected_seed_frozen_bits(self, monkeypatch):
        newton = _spy(monkeypatch, "_newton")
        assert _bits(find_zeros(CoulombParams(2.2, 2.7), 19.0)) == REJECTED_SEED_BITS
        # (g, g', seed, steps, target) -> (root, |g(root)|)
        rejected = [args[2] for args, (_, size) in newton
                    if len(args) == 5 and not size <= args[4]]
        assert len(rejected) == 1 and abs(rejected[0]) > 19.0

    @pytest.mark.parametrize(
        "case, bits", [(REPEATED_ROOT_CASE, REPEATED_ROOT_BITS),
                       (ORIGIN_SEED_CASE, ORIGIN_SEED_BITS)]
    )
    def test_refined_roots_are_deduplicated_in_one_pass(self, case, bits, monkeypatch):
        seeds = _spy(monkeypatch, "_seed_roots")
        assert _bits(find_zeros(*case)) == bits
        assert len(seeds) == 1

    def test_stalled_seed_is_dropped(self, monkeypatch):
        # double Newton accepts a seed near 26.66 - 0.47i where 8 eps S(R)
        # is about 13, and the refinement cannot bring its residual down
        params = CoulombParams(-0.7900670430628439 + 0.28532436369200254j,
                               -2.782519439704094 - 0.4188287569262903j)
        seeds = _spy(monkeypatch, "_seed_roots")
        refined = _spy(monkeypatch, "_refine_mp")
        zs = find_zeros(params, 29.842465075198522)
        coeffs = table_for_radius(params, zs.trust_radius).coeffs
        gate = zeros_module._RESIDUAL_FACTOR * max(abs(c) for c in coeffs)
        stalled = [root for _, (root, residual) in refined if residual > gate]
        assert len(stalled) == 1 and abs(stalled[0] - (26.66 - 0.47j)) < 0.01
        assert len(zs.zeros) == 19 and len(seeds) == 1
        assert max(zs.residuals) <= gate

    def test_tiny_tol_gives_the_same_bits(self):
        # at 1e-300 the longer table's trailing coefficients underflow
        expected = _bits(find_zeros(SINE, 29.99))
        assert len(expected) == 18
        assert _bits(find_zeros(SINE, 29.99, tol=1e-300)) == expected


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

    def test_shape_single_zero_pair(self):
        zs = find_zeros(SINE, 4.0)
        report = product_convergence_report(SINE, 0.25, zs)
        assert len(report) == len(zs.zeros)
