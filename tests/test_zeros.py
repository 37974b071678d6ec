"""Unit tests for zero location and the Hadamard product rebuild."""

import cmath
import importlib
import itertools
import math
import random
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import coulombstar.starlike as starlike_module
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
    make_coefficients,
    product_convergence_report,
    table_for_radius,
    weierstrass_eval,
    winding_number,
)
from coulombstar.series import (
    DEFAULT_TOL,
    CoefficientTable,
    _horner,
    _tail_bounds,
)

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
        # subnormals, and double Horner cannot prove the circle count; the
        # Jacobi matrix's inertia needs no coefficient, and proves the 24
        # zeros +-k pi, for winding_number as for find_zeros
        assert _circle(SINE, 38.0) is None
        assert winding_number(table_for_radius(SINE, 38.0), 38.0) == 25
        _assert_sine_zeros(find_zeros(SINE, 38.0), 24)

    def test_jsonable_shape(self):
        zs = find_zeros(SINE, 4.0)
        d = zs.to_jsonable()
        assert set(d.keys()) == {"params", "trust_radius", "zeros"}
        assert d["trust_radius"] == 4.0
        for entry in d["zeros"]:
            assert set(entry.keys()) == {"re", "im", "residual"}


def _assert_sine_zeros(zero_set, count, rel=2e-14):
    """The sine case lists `count` zeros, the +-k pi, each real and within rel k pi."""
    assert len(zero_set.zeros) == count
    for rho in zero_set.zeros:
        k = round(abs(rho) / math.pi)
        assert rho.imag == 0.0 and abs(abs(rho) - k * math.pi) <= rel * k * math.pi, rho
    assert sorted(round(rho.real / math.pi) for rho in zero_set.zeros) == \
        sorted(k for k in range(-count // 2, count // 2 + 1) if k)


def _circle(params, radius, deriv=0):
    """_arc_count's whole-circle count on the table that table_for_radius builds, or None."""
    table = table_for_radius(params, radius, DEFAULT_TOL, deriv)
    return zeros_module._arc_count(table, _tail_bounds(table.coeffs, params, radius), radius)


def _mp_g(coeffs, z):
    """z * sum a_n z^n in the current mpmath precision."""
    z = mp.mpc(z)
    return z * mp.polyval([mp.mpc(c) for c in reversed(coeffs)], z)


def _kummer_g(params):
    """g(z) = z e^(-iz) M(L + 1 - i eta, 2L + 2, 2iz) in the current mpmath precision."""
    L, eta = mp.mpc(params.L), mp.mpc(params.eta)
    return lambda z: z * mp.exp(-1j * z) * mp.hyp1f1(L + 1 - 1j * eta, 2 * L + 2, 2j * z)


def _assert_on_g(params, zeros, rel=2e-14, dps=60):
    """Each zero lies within rel |root| of its own root of the Kummer g, found from it."""
    g = _kummer_g(params)
    roots = []
    with mp.workdps(dps):
        for rho in zeros:
            root = mp.findroot(g, mp.mpc(rho))
            assert abs(mp.mpc(rho) - root) <= rel * abs(root), (rho, complex(root))
            assert all(abs(root - other) > 1e-8 for other in roots), rho
            roots.append(root)


def _assert_near(zero_set, frozen, rel=2e-14):
    """The listed zeros, in order, lie within rel |rho| of the frozen (re, im) hex pairs."""
    expected = [complex(float.fromhex(re), float.fromhex(im)) for re, im in frozen]
    assert len(zero_set.zeros) == len(expected)
    for rho, ref in zip(zero_set.zeros, expected):
        assert abs(rho - ref) <= rel * abs(ref), (rho, ref)
        assert (rho.imag == 0.0) == (ref.imag == 0.0), (rho, ref)


def _nearest_match(got, reference, rel):
    """Each zero of `got` lies within rel |rho| of a zero of `reference`, one to one."""
    assert len(got) == len(reference)
    left = list(reference)
    for rho in got:
        ref = min(left, key=lambda w: abs(w - rho))
        assert abs(rho - ref) <= rel * abs(ref), (rho, ref)
        left.remove(ref)


# fingerprint input 370: Newton on the rounded coefficients listed a zero
# 2.3e-3 away from g's, at a residual of 1.5e-17
INPUT_370 = (0.6940315300650229 - 0.0016656961767359535j,
             2.0640876567081348 + 0.8583936507916572j, 29.171701579759453)


def _bounded_error(coeffs, z):
    """|value - exact| allowed at z, _bounded_horner's 2.5 eps mu at r = |z|, and the
    exact sum_n coeffs[n] z^n over the same double coefficients, in 50 digits."""
    bound = zeros_module._bounded_horner(coeffs, np.array([z], dtype=complex), abs(z))[1][0]
    with mp.workdps(50):
        return bound, mp.polyval([mp.mpc(c) for c in reversed(coeffs)], mp.mpc(z))


class TestZerosOnG:
    """Each listed zero on a 60-digit root of g, and each residual on |g| of the table."""

    @pytest.mark.parametrize(
        "params", [SINE, CoulombParams(0.5, 0.3), CoulombParams(0.2 + 0.1j, 0.3 - 0.2j)]
    )
    @pytest.mark.parametrize("radius", [5.0, 10.0, 15.0, 20.0])
    def test_kernel_matches_50_digits(self, params, radius):
        # the residuals' kernel, the table's own Horner, at 12 points in the
        # disk: g_values has _bounded_horner's bits, within its bound of the
        # 50-digit g of the same double coefficients
        table = table_for_radius(params, radius)
        coeffs = (0.0,) + table.coeffs
        points = np.array([radius * (0.3 + 0.06 * k) * cmath.exp(1j * (0.7 + 2.1 * k))
                           for k in range(12)])
        values = table.g_values(points)
        assert values.tolist() == zeros_module._bounded_horner(coeffs, points, radius)[0].tolist()
        for z, value in zip(points, values):
            bound, exact = _bounded_error(coeffs, z)
            with mp.workdps(50):
                assert abs(mp.mpc(value) - exact) <= bound, (z, value)

    @pytest.mark.parametrize(
        "L, eta, radius",
        REFERENCE_CASES + [(-1.7, 0.5, 10.0), (-1.9, 0.0, 12.0), INPUT_370],
    )
    def test_zeros_match_60_digit_roots(self, L, eta, radius):
        # every listed zero lies within 2e-14 |rho| of a 60-digit root of the
        # Kummer g itself, not of the truncated series: on input 370 Newton
        # on the rounded coefficients stopped 8.2e-5 (relative) away
        zs = find_zeros(CoulombParams(L, eta), radius)
        assert zs.zeros
        _assert_on_g(zs.params, zs.zeros)

    @pytest.mark.parametrize("L, eta, radius", REFERENCE_CASES + [INPUT_370])
    def test_residual_is_g_at_the_returned_zero(self, L, eta, radius):
        # each residual is |g_values| at the listed zeros, bit for bit, and
        # within _bounded_horner's bound of the 50-digit |g| of the table
        params = CoulombParams(L, eta)
        zs = find_zeros(params, radius)
        table = table_for_radius(params, radius)
        assert list(zs.residuals) == np.abs(table.g_values(np.array(zs.zeros))).tolist()
        for rho, residual in zip(zs.zeros, zs.residuals):
            bound, exact = _bounded_error((0.0,) + table.coeffs, rho)
            with mp.workdps(50):
                assert abs(residual - abs(exact)) <= bound, (rho, residual)


def _real_horner(coeffs, x):
    """The real Horner loop s = s x + a, frozen."""
    s = 0.0
    for a in reversed(coeffs):
        s = s * x + a
    return s


def _hex(z):
    return z.real.hex(), z.imag.hex()


def _spy(monkeypatch, name, owner=zeros_module):
    """Record (args, result) of every call to the function `name` of `owner`."""
    calls = []
    fn = getattr(owner, name)

    def recorded(*args):
        out = fn(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(owner, name, recorded)
    return calls


class TestResiduals:
    """_refine_mp's one batched g_values call, and the bits it gives each root."""

    def test_empty_batch(self):
        table = table_for_radius(SINE, 5.0)
        assert zeros_module._refine_mp(table, []) == []

    def test_batch_gives_each_root_its_bits_in_a_pair(self, monkeypatch):
        # _refine_mp pairs each root, unmoved, with |g_values| there, from one
        # g_values call for them all, and each root has the same bits in a
        # batch of two.  A root alone takes numpy's in-place product at one
        # point, which need not round as its vector loop does (it skips the
        # FMA on some CPUs), so alone it is held to the 50-digit |g| instead
        params, radius = CoulombParams(-0.3 + 0.2j, 0.8 - 0.1j), 12.0
        table = table_for_radius(params, radius)
        zeros = find_zeros(params, radius).zeros
        roots = [z * (1 + 1e-5j) for z in zeros] + [z + 0.2 for z in zeros[:3]]
        calls = _spy(monkeypatch, "g_values", CoefficientTable)
        together = zeros_module._refine_mp(table, roots)
        assert len(calls) == 1 and len(calls[0][0][1]) == len(roots)
        paired = [zeros_module._refine_mp(table, [root, roots[k - 1]])[0]
                  for k, root in enumerate(roots)]
        assert [(_hex(z), r.hex()) for z, r in together] == [(_hex(z), r.hex()) for z, r in paired]
        assert [z for z, _ in together] == roots
        assert all(r < 1e-3 for _, r in together[:len(zeros)])
        for root in roots:
            (_, alone), = zeros_module._refine_mp(table, [root])
            bound, exact = _bounded_error((0.0,) + table.coeffs, root)
            with mp.workdps(50):
                assert abs(alone - abs(exact)) <= bound


def _bits(zero_set):
    return [
        (z.real.hex(), z.imag.hex(), r.hex())
        for z, r in zip(zero_set.zeros, zero_set.residuals)
    ]


def _solvers(monkeypatch):
    """Record (name, dtype of the matrix) of every np.linalg eigensolve."""
    calls = []
    for name in ("eigvals", "eigvalsh"):
        def recorded(a, fn=getattr(np.linalg, name), name=name):
            calls.append((name, np.asarray(a).dtype))
            return fn(a)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def _complex_jacobi(monkeypatch):
    """Turn the realness predicate off: every table takes the complex symmetric J."""
    monkeypatch.setattr(CoefficientTable, "is_real", property(lambda table: False))


SEEDING_PARAMS = [
    SINE,
    CoulombParams(0.5, 0.3),
    CoulombParams(1.2, -0.9),
    CoulombParams(0.2 + 0.1j, 0.3),
    CoulombParams(-0.3 + 0.2j, 0.8 - 0.1j),
]


class TestSolverChoice:
    """The one eigensolve: which solver each table takes, and the section it solves."""

    @pytest.mark.parametrize("params", SEEDING_PARAMS)
    @pytest.mark.parametrize("radius", [5.0, 12.0, 20.0])
    def test_real_solver_matches_the_complex_j(self, params, radius, monkeypatch):
        # a real table's eigvalsh on the real symmetric J agrees with eigvals
        # on the complex symmetric J, which every complex table takes (and
        # there with the same bits)
        got = find_zeros(params, radius)
        with monkeypatch.context() as m:
            _complex_jacobi(m)
            reference = find_zeros(params, radius)
        assert got.zeros
        if params.L.imag or params.eta.imag:
            assert _bits(got) == _bits(reference)
        _nearest_match(got.zeros, reference.zeros, 1e-14)

    @pytest.mark.parametrize("params", SEEDING_PARAMS)
    @pytest.mark.parametrize("radius", [5.0, 12.0, 20.0])
    def test_section_size(self, params, radius, monkeypatch):
        # the eigensolve takes the section J_N, N = ceil(R) + 20 + ceil(R/10),
        # of _jacobi's N + 2 rows (a real table's inertia count reads the
        # tail's first entries), and lists the zeros that a section of
        # 3R + 60 rows lists, within the eigensolver's noise
        jacobi = zeros_module._jacobi
        size = math.ceil(radius) + 20 + math.ceil(radius / 10)
        calls = _spy(monkeypatch, "_jacobi")
        rows = []
        for name in ("eigvals", "eigvalsh"):
            def recorded(a, fn=getattr(np.linalg, name)):
                rows.append(np.shape(a))
                return fn(a)

            monkeypatch.setattr(np.linalg, name, recorded)
        got = find_zeros(params, radius)
        assert [args[2] for args, _ in calls] == [size + 2]
        assert rows == [(size, size)]
        monkeypatch.setattr(zeros_module, "_jacobi",
                            lambda L, eta, size: jacobi(L, eta, int(3 * radius) + 60))
        _nearest_match(got.zeros, find_zeros(params, radius).zeros, 2e-14)

    @pytest.mark.parametrize("params", [SINE, CoulombParams(0.5, 0.3), CoulombParams(0.2 + 0.1j, 0.3)])
    def test_aggressive_cut_is_caught_by_the_count(self, params, monkeypatch):
        # a 6 x 6 section has at most 6 zeros, against 12 or more within 20.
        # A real table's inertia count finds its tail block too large for
        # the radius and leaves the count unproven; a complex table's circle
        # count disagrees with the list.  Nothing solves again
        jacobi = zeros_module._jacobi
        sizes = []

        def small(L, eta, size):
            sizes.append(size)
            return jacobi(L, eta, 6)

        monkeypatch.setattr(zeros_module, "_jacobi", small)
        complex_table = bool(params.L.imag or params.eta.imag)
        with pytest.raises(WindingMismatch, match="listed zeros" if complex_table else "unproven"):
            find_zeros(params, 20.0)
        assert len(sizes) == 1

    @pytest.mark.parametrize(
        "params, dtype", [(SINE, np.float64), (CoulombParams(0.7, -0.4), np.float64),
                          (CoulombParams(0.2 + 0.1j, 0.3), np.complex128),
                          (CoulombParams(0.5, 0.3 - 0.2j), np.complex128)]
    )
    def test_solver_and_dtype_per_table(self, params, dtype, monkeypatch):
        # a real table with every w_n^2 > 0 takes eigvalsh on a real J, a
        # complex table eigvals on a complex one
        calls = _solvers(monkeypatch)
        find_zeros(params, 9.0)
        assert calls == [("eigvalsh" if dtype == np.float64 else "eigvals", dtype)]

    def test_real_kernel_is_the_complex_kernels_real_part(self):
        # a real table's zeros are real (Ikebe 1975, L > -1), and each
        # residual is |h(x) x|, h with the bits of the frozen real Horner loop
        rng = random.Random(7)
        for _ in range(40):
            params = CoulombParams(rng.uniform(-0.4, 1.4), rng.uniform(-1, 1))
            radius = rng.uniform(5, 20)
            zs = find_zeros(params, radius)
            real = [c.real for c in table_for_radius(params, radius).coeffs]
            for z, residual in zip(zs.zeros, zs.residuals):
                assert z.imag == 0.0
                assert residual.hex() == abs(_real_horner(real, z.real) * z.real).hex()


# g's zeros as the nearest doubles to their 60-digit Kummer roots, (re, im)
# as float.hex.  (L, eta) = (2.2, 2.7) at radius 19, whose section also has
# the zero near -19.87 just outside it
REJECTED_SEED_BITS = [
    ("-0x1.8102bbfdf33c9p+1", "0x0.0p+0"),
    ("-0x1.529f8f41aa0f3p+2", "0x0.0p+0"),
    ("-0x1.ee6e6a2928ef4p+2", "0x0.0p+0"),
    ("-0x1.48eb36f97d47bp+3", "0x0.0p+0"),
    ("0x1.6757cc9d927d1p+3", "0x0.0p+0"),
    ("-0x1.9d77c4e96ee05p+3", "0x0.0p+0"),
    ("0x1.ee5da5306abbcp+3", "0x0.0p+0"),
    ("-0x1.f42e8766320b5p+3", "0x0.0p+0"),
    ("-0x1.264a4c3a678d6p+4", "0x0.0p+0"),
]

# a case where three seeds once refined onto one double near 22.997 + 1.998i
REPEATED_ROOT_CASE = (
    CoulombParams(1.4118535290308283 + 0.4454536876451387j,
                  -1.380293748335779 + 0.3857113276789218j),
    24.248861388532575,
)
REPEATED_ROOT_BITS = [
    ("0x1.88c4abda0bb94p+1", "0x1.00a09e63efa64p+0"),
    ("0x1.6cf02f2563668p+2", "0x1.4e116d4b668b5p+0"),
    ("-0x1.ec7914b6f8933p+2", "0x1.c12074e85e4c6p-2"),
    ("0x1.0e710564cf857p+3", "0x1.81110fbfef22bp+0"),
    ("0x1.68e7de0a93658p+3", "0x1.a65856910795bp+0"),
    ("-0x1.706bfa61b4d0bp+3", "0x1.1efda7efb813cp-1"),
    ("0x1.c515c1c4ff211p+3", "0x1.c35823a12d1d3p+0"),
    ("-0x1.e2b39bc1d46e8p+3", "0x1.4b12c969a605ap-1"),
    ("0x1.11401d395a61dp+4", "0x1.dae1479b9c742p+0"),
    ("-0x1.28b871b6306acp+4", "0x1.6dc97e49655e1p-1"),
    ("0x1.406c312f4ad06p+4", "0x1.ee94024941418p+0"),
    ("-0x1.5f10d4a58c3b6p+4", "0x1.8aa00db757635p-1"),
    ("0x1.6ff477a2ae3d2p+4", "0x1.ff73db5077cc7p+0"),
]

# a case where a seed of the series prefix once refined onto the origin
ORIGIN_SEED_CASE = (CoulombParams(1.8511862098523975, 0.9454507213612549), 23.196229781781994)
ORIGIN_SEED_BITS = [
    ("-0x1.0cde569bbc589p+2", "0x0.0p+0"),
    ("-0x1.c6ebe7199da39p+2", "0x0.0p+0"),
    ("0x1.d338126a343e5p+2", "0x0.0p+0"),
    ("-0x1.4141b89762e6ep+3", "0x0.0p+0"),
    ("0x1.5f6c8509a620bp+3", "0x0.0p+0"),
    ("-0x1.a00f8ba2cd664p+3", "0x0.0p+0"),
    ("0x1.ce9160c825484p+3", "0x0.0p+0"),
    ("-0x1.ffadb9b53d8eep+3", "0x0.0p+0"),
    ("0x1.1d693445345f3p+4", "0x0.0p+0"),
    ("-0x1.2ff70ee30ac21p+4", "0x0.0p+0"),
    ("0x1.52b881e3c6840p+4", "0x0.0p+0"),
    ("-0x1.60570c9819440p+4", "0x0.0p+0"),
]


class TestListedZeros:
    """What find_zeros lists from the eigenvalues, and what it leaves out."""

    @pytest.mark.parametrize(
        "params, radius", [(SINE, 20.0), (CoulombParams(0.5, 0.3), 12.0),
                           (CoulombParams(-0.3 + 0.2j, 0.8 - 0.1j), 12.0)]
    )
    def test_one_zero_per_eigenvalue_with_repeatable_bits(self, params, radius, monkeypatch):
        # each eigenvalue gives one zero: one _refine_mp call pairs the
        # count - 1 distinct zeros with their residuals, and a second
        # find_zeros gives the same bits
        refined = _spy(monkeypatch, "_refine_mp")
        expected = _bits(find_zeros(params, radius))
        assert _bits(find_zeros(params, radius)) == expected
        (args, _), _ = refined
        count = winding_number(table_for_radius(params, radius), radius)
        assert len(args[1]) == len(set(args[1])) == count - 1 == len(expected)

    def test_eigenvalue_below_one_over_r_is_not_listed(self, monkeypatch):
        # the section's eigenvalues below 1/R (zeros beyond 20, 7 pi among
        # them) are neither listed nor paired with a residual
        solved = _spy(monkeypatch, "eigvalsh", np.linalg)
        refined = _spy(monkeypatch, "_refine_mp")
        zs = find_zeros(SINE, 20.0)
        (_, lam), = solved
        assert np.any((lam > 0) & (lam * 20.0 < 1))
        assert np.min(np.abs(lam * 7 * math.pi - 1)) < 1e-12
        (args, _), = refined
        assert list(args[1]) == list(zs.zeros) and all(abs(z) <= 20.0 for z in zs.zeros)

    def test_zero_beyond_the_radius_is_dropped(self):
        # the zeros +-7 pi lie beyond 20 and within 22
        within = find_zeros(SINE, 20.0).zeros
        beyond = [z for z in find_zeros(SINE, 22.0).zeros if abs(z) > 20.0]
        assert len(within) == 12 and len(beyond) == 2
        assert sorted(z.real for z in beyond) == pytest.approx([-7 * math.pi, 7 * math.pi],
                                                               rel=2e-14)

    def test_real_zeros_within_19_frozen_bits(self):
        # nine real zeros within 19 on g; at radius 20 the one more is 19.30,
        # and none lies near -19.87, where a companion seed was once rejected
        zs = find_zeros(CoulombParams(2.2, 2.7), 19.0)
        _assert_near(zs, REJECTED_SEED_BITS)
        beyond = [z.real for z in find_zeros(CoulombParams(2.2, 2.7), 20.0).zeros if abs(z) > 19.0]
        assert beyond == pytest.approx([19.30], abs=0.01)

    @pytest.mark.parametrize(
        "case, bits", [(REPEATED_ROOT_CASE, REPEATED_ROOT_BITS),
                       (ORIGIN_SEED_CASE, ORIGIN_SEED_BITS)]
    )
    def test_one_eigensolve_lists_each_zero_once(self, case, bits, monkeypatch):
        # one eigensolve lists each zero once, on g, with no dedup distance
        solved = _solvers(monkeypatch)
        _assert_near(find_zeros(*case), bits)
        assert len(solved) == 1

    def test_large_residuals_list_only_zeros_on_g(self):
        # double Newton once accepted a seed near 26.66 - 0.47i, where 8 eps
        # S(R) is about 13, and only the residual gate dropped it: the 19
        # zeros lie on g, none near it, though residuals reach 0.03 there
        params = CoulombParams(-0.7900670430628439 + 0.28532436369200254j,
                               -2.782519439704094 - 0.4188287569262903j)
        zs = find_zeros(params, 29.842465075198522)
        assert len(zs.zeros) == 19 and max(zs.residuals) > 1e-3
        assert min(abs(z - (26.66 - 0.47j)) for z in zs.zeros) > 1.0
        _assert_on_g(params, zs.zeros, dps=30)

    def test_tiny_tol_gives_the_same_bits(self):
        # at 1e-300 the longer table's trailing coefficients underflow; tol
        # sizes that table alone, so the zeros keep their bits
        expected = find_zeros(SINE, 29.99)
        assert len(expected.zeros) == 18
        tiny = find_zeros(SINE, 29.99, tol=1e-300)
        assert tiny.truncation_order > expected.truncation_order
        assert [_hex(z) for z in tiny.zeros] == [_hex(z) for z in expected.zeros]


def _complex_draw(count):
    """Seeded complex (L, eta) at R in U(5, 20), from the zeros workload's box."""
    rng, cases = random.Random(2107), []
    for _ in range(count):
        L = complex(rng.uniform(-0.4, 1.4), rng.uniform(-0.3, 0.3))
        eta = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3))
        cases.append((CoulombParams(L, eta), rng.uniform(5.0, 20.0)))
    return cases


# the zeros workload's seed-2 input 173: a zero lies at 1.0006 R, just
# outside the circle
NEAR_CIRCLE_CASE = (
    CoulombParams(0.6667109536551862 + 0.17990928559986796j,
                  0.7926229503808884 + 0.06695256576816888j),
    14.224708436520643,
)
# tools/fingerprint.py's zeros inputs 2707 and 2863: Newton from a moment
# seed once landed within 1e-18 of the origin, in place of the zero near
# -0.093 - 0.034i (or -0.025 + 0.085i)
NEAR_ORIGIN_CASES = [
    (CoulombParams(-0.8319100257450815 + 0.0633617124206941j,
                   2.0955025987261697 + 0.12670562278236663j), 28.833063676658654,
     -0.093 - 0.034j),
    (CoulombParams(-0.8799850504229626 - 0.14706246702925474j,
                   2.3384901320786575 + 0.679574190261053j), 25.637124111759782,
     -0.025 + 0.085j),
]


class TestMomentSeeds:
    """Complex tables, real tables against their full circle, and zeros near the circle or the origin."""

    def test_complex_tables_match_the_companion_path(self):
        # each listed zero lies near a companion-matrix root of the table's
        # series polynomial, an independent route to the truncated g's
        # zeros; the series' rounding and np.roots part them by up to 4e-7
        for params, radius in _complex_draw(20):
            zs = find_zeros(params, radius)
            assert zs.zeros
            coeffs = table_for_radius(params, radius).coeffs
            roots = np.roots(np.array(coeffs[::-1]))
            for rho in zs.zeros:
                assert np.min(np.abs(roots - rho)) <= 1e-6 * abs(rho), (params, radius, rho)

    def test_real_table_off_the_brackets_takes_the_mirrored_samples(self, monkeypatch):
        # real tables: one eigvalsh call each, every zero real; for the sine
        # case, g is odd, and each zero's negative is listed with its bits
        cases = [(SINE, 20.0), (CoulombParams(0.5, 0.3), 12.0), (CoulombParams(1.2, -0.9), 15.0)]
        calls = _solvers(monkeypatch)
        got = [find_zeros(*case) for case in cases]
        assert calls == [("eigvalsh", np.float64)] * 3
        assert all(zs.zeros and all(z.imag == 0.0 for z in zs.zeros) for zs in got)
        listed = {z.real.hex() for z in got[0].zeros}
        assert all((-z.real).hex() in listed for z in got[0].zeros)

    @pytest.mark.parametrize("params, radius", [(CoulombParams(0.5, 0.3), 12.0),
                                                (CoulombParams(-1.7, 0.5), 10.0)])
    def test_mirrored_samples_match_the_full_circle(self, params, radius, monkeypatch):
        # the whole circle's count is the count find_zeros proves for the
        # real table, and the real solver lists what the complex symmetric
        # J lists
        count = _circle(params, radius)
        zs = find_zeros(params, radius)
        _complex_jacobi(monkeypatch)
        assert _circle(params, radius) == count == len(zs.zeros) + 1
        _nearest_match(zs.zeros, find_zeros(params, radius).zeros, 1e-14)

    def test_zero_just_outside_the_circle_falls_back(self):
        # the zero at 1.0006 R is listed at 1.01 R, not at R
        params, radius = NEAR_CIRCLE_CASE
        outside = [abs(rho) / radius for rho in find_zeros(params, 1.01 * radius).zeros]
        assert sum(1 < ratio < 1.001 for ratio in outside) == 1
        zs = find_zeros(params, radius)
        assert len(zs.zeros) == len(outside) - 1 and all(abs(z) <= radius for z in zs.zeros)
        _assert_on_g(params, zs.zeros, dps=30)

    @pytest.mark.parametrize("params, radius", [case[:2] for case in NEAR_ORIGIN_CASES])
    def test_root_on_the_origin_is_not_listed(self, params, radius):
        # the origin is not listed, and the small zero near it is
        zs = find_zeros(params, radius)
        (small,) = [near for p, _, near in NEAR_ORIGIN_CASES if p == params]
        assert min(abs(rho) for rho in zs.zeros) > 0.05
        assert abs(zs.zeros[0] - small) < 1e-3
        _assert_on_g(params, zs.zeros[:1])


# (L, eta) = (-1.7, 0.5) at radius 10 has a conjugate pair at 0.219 -+ 0.547i,
# and (0.5, -20) at radius 6 nine positive zeros, some closer than 0.5; g's
# zeros as the nearest doubles to their 60-digit Kummer roots, as float.hex
CONJUGATE_PAIR_BITS = [
    ("0x1.bfe6a5dc844bdp-3", "-0x1.182fa33a3ded3p-1"),
    ("0x1.bfe6a5dc844bdp-3", "0x1.182fa33a3ded3p-1"),
    ("-0x1.0dee5668dae47p+1", "0x0.0p+0"),
    ("-0x1.3f82a84836bd3p+2", "0x0.0p+0"),
    ("0x1.46c8eccc1c920p+2", "0x0.0p+0"),
    ("-0x1.fcf07c99d2077p+2", "0x0.0p+0"),
    ("0x1.11fa71794dd5ep+3", "0x0.0p+0"),
]
DENSE_ZERO_BITS = [
    ("0x1.51071424fffdep-3", "0x0.0p+0"),
    ("0x1.c3a3cd96204b0p-2", "0x0.0p+0"),
    ("0x1.acf0f8e8bd3cap-1", "0x0.0p+0"),
    ("0x1.5a44e624c8a57p+0", "0x0.0p+0"),
    ("0x1.fb91b9fa3d669p+0", "0x0.0p+0"),
    ("0x1.5cbfa36c4b731p+1", "0x0.0p+0"),
    ("0x1.c98908b08c0c1p+1", "0x0.0p+0"),
    ("0x1.21ce588887954p+2", "0x0.0p+0"),
    ("0x1.65355c746794ap+2", "0x0.0p+0"),
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
    """find_zeros' zeros, or the class name of its refusal."""
    try:
        return find_zeros(params, radius).zeros
    except (NoConvergence, WindingMismatch) as exc:
        return type(exc).__name__


class TestRealTables:
    """Real tables: the real solvers, against the complex one and g."""

    def test_fingerprint_draw_matches_the_complex_solver(self, monkeypatch):
        # the fingerprint's real and sine inputs: every zero is real (L > -1),
        # and the complex symmetric J gives the same answers
        cases = _fingerprint_draw(150)
        got = [_answer(*case) for case in cases]
        _complex_jacobi(monkeypatch)
        for case, zeros, reference in zip(cases, got, [_answer(*case) for case in cases]):
            if isinstance(zeros, str):
                assert zeros == reference, case
                continue
            assert all(z.imag == 0.0 for z in zeros), case
            _nearest_match(zeros, reference, 2e-14)
        assert len(cases) == 100 and sum(not isinstance(zeros, str) for zeros in got) >= 80

    def test_benchmark_real_pool_takes_eigvalsh(self, monkeypatch):
        # the zeros workload's seed-7 pool: its 120 real inputs take eigvalsh
        # alone, and nothing calls np.roots
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
        real = [op.call for op in workloads.Zeros(7).ops
                if op.call.params.L.imag == 0 and op.call.params.eta.imag == 0]
        roots = []
        monkeypatch.setattr(np, "roots", lambda p: roots.append(p))
        calls = _solvers(monkeypatch)
        for call in real:
            find_zeros(call.params, call.radius)
        assert len(real) == 120 and roots == []
        assert calls and {name for name, _ in calls} == {"eigvalsh"}

    @pytest.mark.parametrize("params, radius, bits", [
        (CoulombParams(-1.7, 0.5), 10.0, CONJUGATE_PAIR_BITS),
        (CoulombParams(0.5, -20.0), 6.0, DENSE_ZERO_BITS),
    ])
    def test_conjugate_pairs_and_dense_zeros(self, params, radius, bits, monkeypatch):
        # a conjugate pair (L < -3/2: some w_n^2 < 0, so the real
        # nonsymmetric form and eigvals) and zeros closer than 0.5 (eigvalsh)
        calls = _solvers(monkeypatch)
        _assert_near(find_zeros(params, radius), bits)
        solver = "eigvals" if params.L.real < -1.5 else "eigvalsh"
        assert calls == [(solver, np.float64)]

    def test_radius_just_above_nine_sevenths_pi(self):
        # a radius 10 ulps above R 7/9 = the zero near pi, where an earlier
        # diameter scan could not prove a sign: +-pi, as at radius 4
        radius = float.fromhex("0x1.0282191998abbp+2")
        zs = find_zeros(SINE, radius)
        assert [z.real for z in zs.zeros] == pytest.approx([math.pi, -math.pi], rel=2e-14)
        assert all(z.imag == 0.0 for z in zs.zeros)

    def test_looser_tol_gives_the_same_zeros(self):
        # tol sizes only the table behind the count: a looser one gives a
        # shorter table, and the same zeros with the same bits
        params = CoulombParams(0.7, -0.4)
        loose, tight = find_zeros(params, 8.0, tol=1e-6), find_zeros(params, 8.0)
        assert loose.truncation_order < tight.truncation_order and len(tight.zeros) == 3
        assert [_hex(z) for z in loose.zeros] == [_hex(z) for z in tight.zeros]

    def test_eigensolver_failure_is_a_refusal(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NoConvergence, match="eigensolve fails"):
            find_zeros(CoulombParams(0.7, -0.4), 8.0)

    def test_bounded_horner_bound_holds_on_the_diameter(self):
        # the count's rounding bound at real points inside the circle, against
        # the exact sum of the same double coefficients in 60 digits
        table = table_for_radius(CoulombParams(0.3, -0.7), 25.0)
        x = 25.0 * np.linspace(-1.0, 1.0, 101)
        value, bound = zeros_module._bounded_horner(table.coeffs, x.astype(complex), 25.0)
        with mp.workdps(60):
            for w, v, b in zip(x, value, bound):
                exact = mp.polyval([mp.mpf(a.real) for a in reversed(table.coeffs)], mp.mpf(w))
                assert v.imag == 0.0 and abs(exact - mp.mpf(v.real)) <= b

    def test_count_samples_no_circle(self, monkeypatch):
        # a real table with L > -3/2 takes its count from J's inertia: no
        # _bounded_horner call and no circle count, one inertia count
        horner = _spy(monkeypatch, "_bounded_horner")
        arcs = _spy(monkeypatch, "_arc_count")
        inertia = _spy(monkeypatch, "_inertia_count")
        zs = find_zeros(CoulombParams(0.7, -0.4), 8.0)
        assert horner == arcs == [] and [count for _, count in inertia] == [4]
        assert len(zs.zeros) == 3


class TestJacobi:
    """The Jacobi matrix: its closed form, and the symmetries of what its eigenvalues list."""

    @pytest.mark.parametrize("L, eta", [(0.0, 0.0), (0.7, -0.4), (-1.7, 0.5),
                                        (0.2 + 0.1j, 0.3 - 0.2j)])
    def test_trace_of_a_small_section(self, L, eta):
        # tr J_N = -eta (1/(L+1) - 1/(L+N+1)): the diagonal telescopes
        for size in range(1, 7):
            d, w2 = zeros_module._jacobi(L, eta, size)
            assert d.size == size and w2.size == size - 1
            assert complex(d.sum()) == pytest.approx(-eta * (1 / (L + 1) - 1 / (L + size + 1)),
                                                     rel=1e-14, abs=1e-300)

    def test_sine_section_squares_to_a_third(self):
        # L = eta = 0: tr J_N^2 = 2 sum w_n^2 = 1/3 - 1/(2N + 1) -> 1/3
        for size in (1, 2, 3, 6, 1000):
            d, w2 = zeros_module._jacobi(0.0, 0.0, size)
            assert np.all(d == 0.0) and not np.any(np.signbit(d))
            assert (d * d).sum() + 2 * w2.sum() == pytest.approx(1 / 3 - 1 / (2 * size + 1),
                                                                 rel=1e-14, abs=1e-300)

    def test_sine_zeros_come_in_pairs(self):
        zs = find_zeros(SINE, 20.0)
        listed = {z.real.hex() for z in zs.zeros}
        assert len(listed) == 12 and all(z.imag == 0.0 for z in zs.zeros)
        assert all((-z.real).hex() in listed for z in zs.zeros)

    @pytest.mark.parametrize("params, radius", [(CoulombParams(-1.7, 0.5), 10.0),
                                                (CoulombParams(-1.9, 0.0), 12.0)])
    def test_conjugate_pairs_are_exact(self, params, radius):
        zs = find_zeros(params, radius)
        listed = {_hex(z) for z in zs.zeros}
        pairs = [z for z in zs.zeros if z.imag != 0.0]
        assert pairs and all(_hex(z.conjugate()) in listed for z in pairs)
        assert all(z.imag == 0.0 for z in zs.zeros if z not in pairs)


def _inertia(params, radius):
    """_inertia_count as find_zeros calls it, on the _section of the table it builds."""
    table = table_for_radius(params, radius)
    return zeros_module._inertia_count(*zeros_module._section(table, radius), radius)


class TestInertiaCount:
    """The count of a real table with L > -3/2 from the Jacobi matrix's inertia."""

    def test_matches_the_circle_count(self, monkeypatch):
        # the fingerprint's real and sine inputs among its first 600 draws,
        # and the zeros workload's seed-7 real pool: wherever the circle
        # count answers, the inertia count gives the same count
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
        cases = _fingerprint_draw(600) + [
            (op.call.params, op.call.radius) for op in workloads.Zeros(7).ops
            if op.call.params.L.imag == 0 and op.call.params.eta.imag == 0]
        answered = 0
        for params, radius in cases:
            circle = _circle(params, radius)
            if circle is None:
                continue
            assert _inertia(params, radius) == circle, (params, radius)
            answered += 1
        assert len(cases) == 520 and answered >= 500

    @pytest.mark.parametrize("L, eta, radius", [(0.0, 0.0, 20.0), (0.7, -0.4, 8.0),
                                                (-1.3, 0.4, 10.0), (0.5, -20.0, 6.0)])
    def test_tail_bound_and_bump_hold(self, L, eta, radius):
        # the proof's inputs against 400 rows of the tail block T: t bounds
        # its norm below a = 1/R, and delta = w_N^2 / (a - t) bounds the
        # Schur complement's sigma = w_N^2 <f, (a - T)^-1 f>
        size, a = math.ceil(radius) + 20 + math.ceil(radius / 10), 1 / radius
        d, w2 = zeros_module._jacobi(L, eta, size + 400)
        off = np.sqrt(w2[size:])
        tail = np.diag(d[size:]) + np.diag(off, 1) + np.diag(off, -1)
        t = abs(d[size]) + math.sqrt(w2[size - 1]) + math.sqrt(w2[size])
        assert np.abs(np.linalg.eigvalsh(tail)).max() <= t < a
        unit = np.zeros(len(tail))
        unit[0] = 1.0
        sigma = w2[size - 1] * np.linalg.solve(a * np.eye(len(tail)) - tail, unit)[0]
        assert 0 < sigma <= w2[size - 1] / (a - t)

    def test_sine_lists_pm_k_pi_at_45(self):
        _assert_sine_zeros(find_zeros(SINE, 45.0), 28)

    def test_l_between_minus_three_halves_and_minus_one(self):
        # m_0 = L + 1 < 0, while every w_n^2 > 0: J is still self-adjoint
        params, radius = CoulombParams(-1.3, 0.4), 10.0
        zs = find_zeros(params, radius)
        assert _inertia(params, radius) == _circle(params, radius) == len(zs.zeros) + 1
        _assert_on_g(params, zs.zeros)

    def test_large_eta_answers_where_the_circle_refuses(self):
        # the circle count of (0.3, 60) at R = 5 cannot close its arcs; the
        # inertia count proves 15 zeros, for winding_number as for
        # find_zeros.  The section reaches 16 rows past the turning point,
        # n = 25 here, where ceil(R) + 21 rows would list them 3.9e-4
        # (relative) off
        params, radius = CoulombParams(0.3, 60.0), 5.0
        assert _circle(params, radius) is None
        assert winding_number(table_for_radius(params, radius), radius) == 16
        assert zeros_module._section_size(params, radius) == 42
        zs = find_zeros(params, radius)
        assert len(zs.zeros) == 15
        _assert_on_g(params, zs.zeros)

    def test_double_nearest_pi_is_unproven(self):
        # the double pi lies 1.2e-16 inside the zero pi, well within kappa R^2
        assert _inertia(SINE, math.pi) is None
        with pytest.raises(WindingMismatch, match="unproven"):
            find_zeros(SINE, math.pi)

    def test_l_next_to_the_pole_is_unproven(self):
        # near L = -3/2 the rounding of 2 m_1 - 1 in w_1^2 is unbounded
        assert _inertia(CoulombParams(-1.5 + 1e-15, 0.3), 5.0) is None

    def test_kappa_that_overflows_is_unproven(self):
        # |d_0| + |d_1| = 2e308 overflows, while the tail t = 0.21 < a = 1
        d = np.array([1e308, 1e308, 0.1, 0.1, 0.01, 0.01])
        w2 = np.full(5, 0.01)
        assert zeros_module._inertia_count(0.0, d, w2, 1.0) is None

    def test_zero_pivot_is_unproven(self):
        # at x = a + kappa, about 1, the pivots run -0.9, -0.89, 1e150, then
        # (1e150 - x) - 1e300 / 1e150 = 0 exactly, and the next step divides by it
        d = np.array([0.1, 0.1, 1e150, 1e150, 0.1, 0.01, 0.01])
        w2 = np.array([0.01, 0.0, 1e300, 0.0, 0.01, 0.01])
        with pytest.raises(ZeroDivisionError):
            zeros_module._sturm(d[:5].tolist(), w2[:4].tolist(), 1.0)
        assert zeros_module._inertia_count(0.0, d, w2, 1.0) is None


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

    def test_radius_counts_as_its_float(self, monkeypatch):
        # an int, np.int64 or np.float32 radius counts as the double it
        # equals: the sampler gets that float and gives its sample bits in
        # any call order (the weights' one-entry memo keys 12 and 12.0
        # alike), and the product pass settles the count with no Horner
        # sample.  Int weights wrapped from 12^18 on, and float32 ones
        # rounded to single, far past the samples' bound
        params = CoulombParams(0.3 + 0.1j, 0.5 - 0.2j)
        products = _spy(monkeypatch, "_circle_samples")
        horner = _spy(monkeypatch, "_bounded_horner")
        for radii in ([12, np.int64(12), np.float32(12)], [np.float32(11.3)]):
            r = float(radii[0])
            table = table_for_radius(params, r)
            for order in itertools.permutations(radii + [r]):
                products.clear()
                assert len({winding_number(table, radius) for radius in order}) == 1
                assert all(type(args[1]) is float and args[1] == r for args, _ in products)
                assert len({out[0].tobytes() for _, out in products}) == 1
        assert not horner

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
        # a real table that fails Rouche's test is counted from J's inertia
        # when L > -3/2, and on the whole circle when L < -3/2; with the
        # realness predicate turned off every one runs on the whole circle.
        # Where the circle answers the real table's count must answer, and
        # the same
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

    The coefficients are those of the count's product pass, (0, a_0, a_1,
    ...), and err its samples' error bound, 2 (order+3) eps S + tail0 as
    _arc_count forms it; each arc is (start, end, l, err_p, rho, eta, r),
    start and end being the records of its two samples.
    """
    record = {"coeffs": None, "err": None, "arcs": []}
    circle_samples = zeros_module._circle_samples
    taylor_closes = zeros_module._taylor_closes

    def product(table, r, angles, m):
        samples, w = circle_samples(table, r, angles, m)
        tail0 = _tail_bounds(table.coeffs, table.params, r)[0]
        record["coeffs"] = (0.0,) + table.coeffs
        record["err"] = 2 * (table.order + 3) * EPS * np.abs(w[:, 0]).sum() + tail0
        return samples, w

    def closes(start, end, length, c, err_p, r):
        closed, rho, eta = taylor_closes(start, end, length, c, err_p, r)
        record["arcs"] += [(start[:, k], end[:, k], length[k], err_p, rho[k], eta[k], r)
                           for k in np.flatnonzero(closed)]
        return closed, rho, eta

    monkeypatch.setattr(zeros_module, "_circle_samples", product)
    monkeypatch.setattr(zeros_module, "_taylor_closes", closes)
    return record


def _arc_path(start, end, product_err, r, steps):
    """The point of an arc's start sample and its path at the fractions steps, in mpmath.

    Every arc runs on the circle between its two integer angles m / D (the
    loop's excursions left out).  A product arc's start sample (its err is
    product_err) lies at that circle point, a Horner arc's at its double z.
    """
    m, end_m, angles = int(start[0].real), int(end[0].real), zeros_module._ARC_ANGLES
    path = [mp.mpf(r) * mp.expjpi(2 * (m + mp.mpf(t) * (end_m - m)) / angles) for t in steps]
    return (path[0] if start[4].real == product_err else mp.mpc(start[1])), np.array(path)


def _circle_count(params, radius, angles):
    """_arc_count on the table of a caller: certify's (on `angles` angles), or winding_number's.

    The count samples its own circle, whatever certify's grid; certify's
    table is sized for g', winding_number's for g.
    """
    return _circle(params, radius, 0 if angles is None else 1)


class TestArcCountSoundness:
    """The inputs of _arc_count's proof, checked against g itself."""

    # (L, eta, radius, certify's angles or None for winding_number); each
    # fails Rouche's test, so the ODE bound closes its arcs.  The real
    # tables among them take J's inertia in certify and winding_number, so
    # _arc_count is called directly on every case.
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
        # u_k missing |g'_k| does not; the first pass is the equal-width grid
        # on the whole circle, for a real table too
        params = CoulombParams(L, eta)
        calls = _ode_bounds(monkeypatch)
        _circle_count(params, radius, angles)
        assert calls, "no arc fell back to the ODE bound"
        u, length, bound = calls[0]
        n = u.size
        table = table_for_radius(params, radius)
        assert n == zeros_module._CIRCLE_SAMPLES
        steps = np.arange(65) / 64
        for k in range(n):
            theta = 2 * np.pi * (k + steps) / n
            g = table.g_values(radius * np.exp(1j * theta))
            assert np.max(np.abs(g - g[0])) <= bound[k], k
            assert length[k] >= radius * 2 * np.pi / n

    @pytest.mark.parametrize("L, eta, radius, angles",
                             CASES + ROUCHE + ONE_PASS + [(1.2, -0.9, 15.0, None)])
    def test_angle_steps_add_up_to_whole_turns(self, monkeypatch, L, eta, radius, angles):
        # the principal angles of g_(k+1)/g_k sum to 2 pi times the count
        # before rounding; a step left out or counted twice is off by far more.
        # The circle holds no Rouche test, so it counts the ROUCHE pairs too
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
        # each closed arc's g_k and g'_k lie within err_k and err_p of g and
        # g' at its start point, from the table's coefficients in 30 digits:
        # the product pass's a priori bound on its own arcs.  At 65 points z
        # on the arc's path g(z) stays within rho_k - err_k of the tangent
        # line g(p_k) + g'_k (z - p_k), for the computed g'_k and for any
        # g'_k within err_p of g'(p_k), and z - p_k lies within eta of the
        # chord [0, d_k].  Each case checks the 16 arcs of least |g_k| that
        # the product pass closes and the 16 of the Horner samples (sine at
        # 30 closes 694 and 26)
        record = _taylor_arcs(monkeypatch)
        _circle_count(CoulombParams(L, eta), radius, angles)
        product = [arc for arc in record["arcs"] if arc[0][4].real == record["err"]]
        horner = [arc for arc in record["arcs"] if arc[0][4].real != record["err"]]
        arcs = [arc for kind in (product, horner)
                for arc in sorted(kind, key=lambda arc: abs(arc[0][2]))[:16]]
        steps = np.arange(65) / 64
        with mp.workdps(30):
            a = [mp.mpc(c) for c in reversed(record["coeffs"])]
            for start, end, length, err_p, rho, eta_k, r in arcs:
                _, z_k, g_k, slope, err, _ = start
                p_k, z = _arc_path(start, end, record["err"], r, steps)
                exact, slope_k = mp.polyval(a, p_k, derivative=True)
                assert abs(mp.mpc(g_k) - exact) <= err.real
                assert abs(mp.mpc(slope) - slope_k) <= err_p
                d = mp.mpc(end[1]) - mp.mpc(z_k)
                g = np.zeros(z.size, dtype=object)
                for c in a:
                    g = g * z + c
                for w, value in zip(z - p_k, g):
                    assert abs(value - exact - mp.mpc(slope) * w) <= rho - err.real
                    assert abs(value - exact - slope_k * w) + err_p * abs(w) <= rho - err.real
                    lam = min(1.0, max(0.0, float(mp.re(w * mp.conj(d)) / abs(d) ** 2)))
                    assert abs(w - lam * d) <= eta_k
        if (L, eta, radius, angles) not in self.CASES:
            assert len(product) >= 5

    @pytest.mark.parametrize("params, radius, count, passes", [
        (CoulombParams(0.3 + 0.1j, 0.5 - 0.2j), 15.0, 10, 1),
        (SINE, math.pi * (1 + 1e-3), 3, 1),
        (SINE, math.pi * (1 + 1e-6), 3, 5),  # still bisects
    ])
    def test_taylor_bound_spares_passes(self, monkeypatch, params, radius, count, passes):
        # the second-order bound closes the arcs the first-order one leaves
        # open.  passes counts the first pass and the bisection passes: one
        # product pass closes every arc of the first two, with no Horner
        # sample; the last one leaves arcs open, so Horner samples the
        # whole circle again and bisects 4 times.  With the first-order
        # bound alone these take 2, 6 and 16 Horner passes
        products = _spy(monkeypatch, "_circle_samples")
        calls = _spy(monkeypatch, "_bounded_horner")
        assert _circle(params, radius) == count
        assert len(products) == 1
        assert len(calls) == (0 if passes == 1 else passes)

    @pytest.mark.parametrize("params, radius, count, passes", [
        (SINE, 30.0, 19, 1),
        (SINE, math.pi * (1 + 1e-6), 3, 5),
        (SINE, 3 * math.pi * (1 + 1e-9), 7, 11),
        (CoulombParams(10.0, 1.0), 13.826667693385588, 2, 7),
    ])
    def test_horner_cases_keep_their_counts(self, monkeypatch, params, radius, count, passes):
        # the cases that reach Horner's pass on the count's 721 points, and
        # bisect on integer angles: each keeps its count and its number of
        # Horner passes (the whole circle, then one per bisection)
        calls = _spy(monkeypatch, "_bounded_horner")
        assert _circle(params, radius) == count
        assert len(calls) == passes and calls[0][0][1].size == zeros_module._CIRCLE_SAMPLES + 1

    def test_bisection_refuses_at_width_one(self, monkeypatch):
        # sine just outside pi bisects its open arcs 4 times (widths D / 720
        # down to D / 11520): with D = 720 * 2^2 or 720 * 2^3 an arc reaches
        # width 1 and the count refuses after 2 or 3 bisections, where with
        # D = 720 * 2^4 it still answers.  The first roots have the same bits
        # over every D
        calls = _spy(monkeypatch, "_bounded_horner")
        radius = math.pi * (1 + 1e-6)
        for shift, count, passes in [(2, None, 3), (3, None, 4), (4, 3, 5)]:
            calls.clear()
            monkeypatch.setattr(zeros_module, "_ARC_ANGLES", 720 << shift)
            monkeypatch.setattr(zeros_module, "_CIRCLE_NUMERATORS", np.arange(721) << shift)
            roots = zeros_module._unit_roots(np.arange(721) << shift, 720 << shift)
            assert roots.tobytes() == zeros_module._CIRCLE_ROOTS.tobytes()
            assert _circle(SINE, radius) == count
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


class TestProductPass:
    """_circle_samples: g and g' on a circle from one product with a cached table of unit-root powers."""

    ANGLES = (1, 2, 3, 12, 90, 101, 720, 1440)
    TAU = 1.64 * EPS  # _circle_samples' tau, derived for every angle count up to 2^18

    def test_roots_lie_within_tau(self):
        # every root W_m lies within tau of the 50-digit e^(2 pi i m / N),
        # and within eps where 8 | N; W_0 = 1 and W_(N/2) = -1 exactly.  The
        # count's 721 roots, at the numerators k D / 720 over D, have the
        # bits of k over 720, the table's row 1 on the upper half, and W = 1
        # at k = 720; its points fl(r W_k), its path closed at z_720 = r, lie
        # within 1.5 eps r of r omega^k.  A 2^18-angle table comes in blocks
        # and is not kept; spot entries of it hold W_(kj mod N)
        radii = [0.999, 3.7, 29.5] + [random.Random(20261031 + i).uniform(3.0, 30.0) for i in range(3)]
        with mp.workdps(50):
            for angles in self.ANGLES:
                roots = zeros_module._unit_roots(np.arange(angles), angles)
                exact = [mp.expjpi(mp.mpf(2 * m) / angles) for m in range(angles)]
                worst = max(abs(mp.mpc(w) - x) for w, x in zip(roots.tolist(), exact))
                assert worst <= (EPS if angles % 8 == 0 else self.TAU), angles
                assert roots[0] == 1 and (angles % 2 or roots[angles // 2] == -1)
            numerators, points = zeros_module._CIRCLE_NUMERATORS, zeros_module._CIRCLE_ROOTS
            assert numerators.tolist() == [k << 42 for k in range(721)]
            assert points.tobytes() == zeros_module._unit_roots(np.arange(721), 720).tobytes()
            assert points[:361].tobytes() == zeros_module._unit_powers(720, 2)[0][1][1].tobytes()
            for r in radii:
                z = r * points
                assert z.size == 721 and z[720] == r
                assert max(abs(mp.mpc(p) - r * mp.expjpi(mp.mpf(2 * k) / 720))
                           for k, p in enumerate(z.tolist())) <= 1.5 * EPS * r
            angles, end, spots = 1 << 18, 0, {}
            blocks = zeros_module._unit_powers(angles, 3)
            assert not isinstance(blocks, list)
            for start, block in blocks:
                assert start == end and block.shape[0] == 3
                assert block.size <= zeros_module._TABLE_ENTRIES // 4
                for k in (0, 1, 12345, 87380, 87381, 99999, angles // 2):
                    if start <= k < start + block.shape[1]:
                        spots[k] = block[:, k - start]
                end = start + block.shape[1]
            assert end == angles // 2 + 1 and len(spots) == 7
            assert angles not in zeros_module._TABLES
            for k, column in spots.items():
                for j, w in enumerate(column.tolist()):
                    assert abs(mp.mpc(w) - mp.expjpi(mp.mpf(2 * (k * j)) / angles)) <= EPS

    def test_roots_are_conjugate_symmetric(self):
        # W_(N-m) is conj W_m bit for bit, for every angle count and for the
        # count's 721 numerators over D, and the self-mirror W_(N/2) is -1.
        # The octant rule alone misses this by an ulp where 8 | N (W_450
        # against conj W_270 at 720 angles), since cos(pi/4) and sin(pi/4)
        # round apart
        cases = [(np.arange(angles + 1), angles) for angles in self.ANGLES]
        cases.append((zeros_module._CIRCLE_NUMERATORS, zeros_module._ARC_ANGLES))
        for m, angles in cases:
            roots = zeros_module._unit_roots(m, angles)
            mirror = zeros_module._unit_roots(angles - m, angles)
            for k in range(m.size):
                if 2 * m[k] != angles:
                    assert mirror[k].tobytes() == roots[k].conj().tobytes(), (angles, m[k])
                else:
                    assert roots[k] == -1
        assert np.array_equal(zeros_module._CIRCLE_ROOTS[::-1], zeros_module._CIRCLE_ROOTS.conj())

    def test_roots_at_odd_numerators_lie_within_tau(self):
        # the bisection's points: W_m at odd numerators m over D, each a
        # first midpoint that no coarser angle count holds, lies within tau
        # of the 50-digit e^(2 pi i m / D), and fl(r W_m) within 2.15 eps r
        # of r e^(2 pi i m / D)
        angles, rng = zeros_module._ARC_ANGLES, random.Random(20261022)
        m = [1, 3, angles // 8 - 1, angles // 8 + 1, angles // 2 - 1, angles // 2 + 1, angles - 1]
        m += [2 * rng.randrange(angles // 2) + 1 for _ in range(200)]
        roots = zeros_module._unit_roots(np.array(m, dtype=np.int64), angles)
        radii = [0.999, 3.7, 29.5]
        with mp.workdps(50):
            for k, w in zip(m, roots.tolist()):
                exact = mp.expjpi(mp.mpf(2 * k) / angles)
                assert abs(mp.mpc(w) - exact) <= self.TAU, k
                for r in radii:
                    assert abs(mp.mpc(r * w) - r * exact) <= 2.15 * EPS * r, (k, r)

    def test_power_table_holds_the_largest_order(self, monkeypatch):
        # one kept table per angle count, built on first use with the rows
        # asked, rebuilt only for more rows and sliced for fewer: row j,
        # column k holds W_(kj mod N), k <= N/2.  The kept tables hold
        # _TABLE_ENTRIES entries together at most (4 MiB): the 720-angle
        # table keeps a 1440-angle one beside it until a table would pass
        # that, which then drops the others.  A larger table comes in blocks
        # of a quarter of that and is not kept
        monkeypatch.setattr(zeros_module, "_TABLES", {})
        tables = zeros_module._TABLES
        [(start, table)] = zeros_module._unit_powers(720, 83)
        assert start == 0 and table.shape == (83, 361) and not table.flags.writeable
        assert tables == {720: table}
        [(_, small)] = zeros_module._unit_powers(720, 56)
        assert small.shape == (56, 361) and np.shares_memory(small, table)
        roots = zeros_module._unit_roots(np.arange(720), 720)
        for k, j in [(0, 0), (1, 1), (180, 81), (97, 40), (360, 82), (131, 77)]:
            assert table[j, k] == roots[k * j % 720]
        [(_, grown)] = zeros_module._unit_powers(720, 124)
        assert grown.shape == (124, 361) and np.array_equal(grown[:83], table)
        [(_, other)] = zeros_module._unit_powers(1440, 100)
        assert tables == {720: grown, 1440: other}
        # order 500, the count's largest table: 2.9 MB, beside the other
        [(_, largest)] = zeros_module._unit_powers(720, 502)
        assert largest.nbytes == 502 * 361 * 16 == 2_899_552
        assert largest[501, 360] == roots[360 * 501 % 720] == -1
        assert tables == {720: largest, 1440: other} and zeros_module._TABLE_ENTRIES == 1 << 18
        assert largest.size + other.size <= zeros_module._TABLE_ENTRIES
        [(_, wider)] = zeros_module._unit_powers(1440, 150)  # 502 * 361 + 150 * 721 > 2^18
        assert tables == {1440: wider}
        blocks = list(zeros_module._unit_powers(1 << 18, 2))  # 262,146 entries
        assert sum(block.shape[1] for _, block in blocks) == (1 << 17) + 1 and len(blocks) == 5
        assert tables == {1440: wider}

    def test_samples_lie_within_err(self):
        # each g_k lies within 2 (order+3) eps S(r), and g'_k within
        # 2 (order+3) eps M1(r), of the 50-digit truncated g and g' at
        # zeta_k = r omega^k, on every angle count and the whole circle with
        # its closing sample k = N, for the count's tables (seeded complex
        # ones with R up to 30, one of order 183, a real one with L < -3/2;
        # k runs over the whole circle up to 101 angles, and over every 19th
        # k, the quarter points and the last two beyond) and certify's
        # (seeded real and complex pairs and (0.9, 6.0), order 24 at 0.999,
        # at r_max 1e-3, 0.3626 and 0.999, drawn for each angle count; every
        # k that certify reads: the upper half of a real table's circle)
        rng = random.Random(20261031)
        cases = [(CoulombParams(complex(rng.uniform(-0.4, 1.4), rng.uniform(-0.3, 0.3)),
                                complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8))),
                  rng.uniform(3.0, 30.0)) for _ in range(4)]
        cases += [(CoulombParams(0.7 + 0.2j, -1.1 + 0.4j), 29.5), (CoulombParams(-1.7, 0.4), 9.0)]
        tables = [table_for_radius(params, r) for params, r in cases]
        tables.append(make_coefficients(CoulombParams(0.4 - 0.25j, 0.6 + 0.3j), 183, 3.4))
        for table in tables:
            for angles in self.ANGLES:
                self._check_samples(table, angles, range(angles + 1) if angles <= 101 else sorted(
                    set(range(0, angles, 19)) | {angles // 4, angles // 2, angles // 2 + 1,
                                                3 * angles // 4, angles - 1, angles}))
        kinds = set()
        for angles in self.ANGLES:
            rng = random.Random(20261021 + angles)
            pairs = [(rng.uniform(-0.4, 1.4), rng.uniform(-0.8, 0.8)),
                     (complex(rng.uniform(-0.4, 1.4), rng.uniform(-0.3, 0.3)),
                      complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8))),
                     (0.9, 6.0)]
            for L, eta in pairs:
                for r_max in (1e-3, 0.3626, 0.999):
                    table = table_for_radius(CoulombParams(L, eta), r_max, DEFAULT_TOL, 1)
                    kinds.add(table.is_real)
                    ks = range(angles // 2 + 1 if table.is_real else angles + 1)
                    self._check_samples(table, angles, ks)
        assert kinds == {False, True}

    @staticmethod
    def _check_samples(table, angles, ks):
        r = table.radius
        (g, g_prime), _ = zeros_module._circle_samples(table, r, angles, angles + 1)
        assert g.shape == (angles + 1,)
        with mp.workdps(50):
            a = [mp.mpc(c) for c in table.coeffs]
            S = sum(abs(c) * mp.mpf(r) ** (j + 1) for j, c in enumerate(a))
            M1 = sum((j + 1) * abs(c) * mp.mpf(r) ** j for j, c in enumerate(a))
            bound = 2 * (table.order + 3) * EPS
            for k in ks:
                zeta = mp.mpf(r) * mp.expjpi(mp.mpf(2 * k) / angles)
                h, h_prime = mp.polyval(a[::-1], zeta, derivative=True)
                assert abs(zeta * h - mp.mpc(g[k])) <= bound * S, (table.params, r, angles, k)
                assert abs(h + zeta * h_prime - mp.mpc(g_prime[k])) <= bound * M1

    def test_certify_and_count_read_one_sample_set(self, monkeypatch):
        # a complex pair that fails Rouche's test on the default grid (720
        # angles, r = r_max = 0.999): certify's g and g' and the count's
        # product samples, which add the closing sample, come from one
        # product with the same bits, on the one 720-angle table
        monkeypatch.setattr(zeros_module, "_TABLES", {})
        sampled = _spy(monkeypatch, "_circle_samples", starlike_module)
        counted = _spy(monkeypatch, "_circle_samples")
        certify(CoulombParams(-0.35 + 0.1j, 0.9 - 0.2j), StarlikeClass.LEMNISCATE)
        [((table, *args), (samples, _))] = sampled
        [((count_table, *count_args), (count_samples, _))] = counted
        assert table is count_table and args == [0.999, 720, 720] and count_args == [0.999, 720, 721]
        assert samples.tobytes() == count_samples[:, :720].tobytes()
        assert count_samples[:, 720].tolist() == samples[:, 0].tolist()
        assert list(zeros_module._TABLES) == [720]

    def test_open_arcs_reach_the_bisection(self, monkeypatch):
        # a zero of g 1e-9 or 1e-13 (relative) inside or outside the
        # circle: the product pass leaves the arcs near it open, Horner
        # samples its 721 points again and bisects the open arcs, and the
        # count is J's, 1 or 2; on the circle through the double |rho| it
        # refuses
        params = CoulombParams(0.3 + 0.1j, 0.5 - 0.2j)
        rho = abs(find_zeros(params, 10.0).zeros[0])
        calls = _spy(monkeypatch, "_bounded_horner")
        for radius, count in [(rho * (1 - 1e-9), 1), (rho * (1 + 1e-9), 2),
                              (rho * (1 - 1e-13), 1), (rho * (1 + 1e-13), 2), (rho, None)]:
            calls.clear()
            assert _circle(params, radius) == count
            assert 1 < len(calls) and calls[0][0][1].size == zeros_module._CIRCLE_SAMPLES + 1

    def test_benchmark_complex_pool_needs_no_horner(self, monkeypatch):
        # the zeros workload's seeds 1 and 2: the product pass settles 139
        # of their 144 complex counts with no Horner sample
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
        calls = _spy(monkeypatch, "_bounded_horner")
        settled = []
        for seed in (1, 2):
            for call in (op.call for op in workloads.Zeros(seed).ops):
                if call.params.L.imag or call.params.eta.imag:
                    calls.clear()
                    find_zeros(call.params, call.radius)
                    settled.append(not calls)
        assert len(settled) == 144 and sum(settled) >= 135

    def test_refused_product_falls_through_to_horner(self, monkeypatch):
        # terms c_j that overflow (r = 1e300) or powers that reach 2^-1000
        # (r = 1e-6) leave the circle to Horner, with no RuntimeWarning
        # (pytest makes one an error), where at r = 1 the product settles
        # it.  A product whose terms are not finite leaves the whole circle
        # to Horner, 721 samples, and the same count.  Every order takes the
        # product: an order-500 complex table at r = 3.7 settles with no
        # Horner sample, and Horner's count of it is the same
        class Fallback(Exception):
            pass

        def fallback(*args):
            raise Fallback

        table = table_for_radius(CoulombParams(0.3 + 0.1j, 0.5 - 0.2j), 15.0)
        monkeypatch.setattr(zeros_module, "_bounded_horner", fallback)
        assert zeros_module._arc_count(table, _tail_bounds(table.coeffs, table.params, 1.0), 1.0) == 1
        for r in (1e300, 1e-6):
            with pytest.raises(Fallback):
                zeros_module._arc_count(table, (0.0, 0.0, 0.0), r)
        monkeypatch.undo()
        big = make_coefficients(CoulombParams(0.9 - 0.2j, -0.7 + 0.1j), 500, 3.7)
        calls = _spy(monkeypatch, "_bounded_horner")
        product_count = zeros_module._arc_count(big, big.tails, 3.7)
        assert product_count is not None and product_count > 1 and not calls
        assert _circle(table.params, 15.0) == 10
        circle_samples = zeros_module._circle_samples
        monkeypatch.setattr(zeros_module, "_circle_samples",
                            lambda *args: (circle_samples(*args)[0], np.full((1, 2), np.inf)))
        assert _circle(table.params, 15.0) == 10
        assert calls[0][0][1].size == zeros_module._CIRCLE_SAMPLES + 1
        assert zeros_module._arc_count(big, big.tails, 3.7) == product_count

    def test_import_builds_no_table(self):
        code = "import sys, coulombstar.zeros as z; sys.exit(bool(z._TABLES))"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def _mp_coefficients(params, order):
    """a_0 .. a_order from the recurrence in the current mpmath precision."""
    L, eta = mp.mpc(params.L), mp.mpc(params.eta)
    a = [mp.mpc(1), eta / (L + 1)]
    for n in range(2, order + 1):
        a.append((2 * eta * a[-1] - a[-2]) / (n * (n + 2 * L + 1)))
    return a


class TestCountRecord:
    """_zero_count's count, an int, on each of its paths."""

    def test_record_shape_and_callers_agree(self, monkeypatch):
        # seeded pairs on certify's default circle, alternately real and
        # complex: Rouche's test settles some, J's inertia counts the real
        # tables that fail it, and the whole circle the complex ones, from
        # the product pass's samples (and Horner's where it leaves an arc
        # open); each caller gets the same count
        rng, r, paths = random.Random(20261022), 0.999, set()
        sampled = _spy(monkeypatch, "_bounded_horner")
        products = _spy(monkeypatch, "_circle_samples")
        inertia = _spy(monkeypatch, "_inertia_count")
        for i in range(24):
            L, eta = rng.uniform(-0.9, 1.4), rng.uniform(-1.5, 1.5)
            if i % 2:
                L, eta = complex(L, rng.uniform(-0.3, 0.3)), complex(eta, rng.uniform(-0.8, 0.8))
            params = CoulombParams(L, eta)
            table = table_for_radius(params, r)
            sampled.clear()
            products.clear()
            inertia.clear()
            count = zeros_module._zero_count(table, r)
            assert type(count) is int
            if not sampled and not products and not inertia:  # Rouche's test
                paths.add("rouche")
                assert count == 1
            elif inertia:
                paths.add("inertia")
                assert table.is_real and not sampled and not products
            else:
                paths.add("circle")
                assert not table.is_real
                assert products[0][1][0].shape == (2, zeros_module._CIRCLE_SAMPLES + 1)
            assert winding_number(table, r) == count
            assert len(find_zeros(params, r).zeros) + 1 == count
            report = certify(params, StarlikeClass.CLASSICAL, ScanGrid(720, r))
            assert report.zero_in_disk == (count != 1)
        assert paths == {"rouche", "inertia", "circle"}

    def test_table_carries_its_tails(self, monkeypatch):
        # table_for_radius and make_coefficients keep _tail_bounds at the table's radius, out of
        # to_jsonable; a count at that radius reads them, at another one
        # computes its own
        params = CoulombParams(0.3 + 0.1j, 0.5 - 0.2j)
        for table in (table_for_radius(params, 15.0), make_coefficients(params, 54, 15.0)):
            assert table.tails == _tail_bounds(table.coeffs, params, 15.0)
            assert table.tails[0] == table.tail_bound and "tails" not in table.to_jsonable()
            calls = _spy(monkeypatch, "_tail_bounds")
            assert zeros_module._zero_count(table, 15.0) == 10 and not calls
            assert zeros_module._zero_count(table, 14.0) == 8 and len(calls) == 1
            monkeypatch.undo()

    def test_each_table_gets_one_count(self):
        # seeded real tables, L across -1 and up to 2, and sine at 38 and 45,
        # where the coefficients underflow: wherever find_zeros answers,
        # winding_number counts its list plus the origin, and certify's
        # zero_in_disk reads the count at r_max (an unproven one flags it)
        rng, r_max = random.Random(20261030), ScanGrid().r_max
        cases = [(CoulombParams(rng.uniform(-1.4, 2.0), rng.uniform(-3.0, 3.0)),
                  rng.uniform(0.3, 30.0)) for _ in range(1000)]
        cases += [(SINE, 38.0), (SINE, 45.0)]
        answered = 0
        for params, radius in cases:
            try:
                listed = len(find_zeros(params, radius).zeros)
            except (NoConvergence, WindingMismatch):
                continue
            answered += 1
            count = winding_number(table_for_radius(params, radius), radius)
            assert count == listed + 1, (params, radius)
        assert answered >= 990
        for params, _ in cases:
            try:
                count = winding_number(table_for_radius(params, r_max, DEFAULT_TOL, 1), r_max)
            except NoConvergence:
                count = None
            report = certify(params, StarlikeClass.CLASSICAL)
            assert report.zero_in_disk == (count != 1), params


class TestRouche:
    """The inputs of _zero_count's Rouche test, checked against g itself."""

    @pytest.mark.parametrize("complex_pairs", [False, True])
    def test_rouche_inputs_bound_g(self, monkeypatch, complex_pairs):
        # seeded sweep-box pairs on certify's default circle whose count the
        # test proves: the 40-digit S of the double coefficients stays below
        # S (1 + rho), the 40-digit coefficients pass the test too, and
        # |g(z) - z| < r on 1,024 points, g from 40-digit coefficients plus tail0.
        # The draw is bounded: 3 of its first 20 pairs must pass
        class Counted(Exception):
            pass

        def counted(*args):
            raise Counted

        monkeypatch.setattr(zeros_module, "_bounded_horner", counted)
        monkeypatch.setattr(zeros_module, "_circle_samples", counted)
        monkeypatch.setattr(zeros_module, "_inertia_count", counted)
        r, rng, proven = 0.999, random.Random(20261019), 0
        for _ in range(20):
            if proven == 3:
                break
            L, eta = rng.uniform(-0.4, 1.4), rng.uniform(-0.8, 0.8)
            if complex_pairs:
                L, eta = complex(L, rng.uniform(-0.3, 0.3)), complex(eta, rng.uniform(-0.8, 0.8))
            params = CoulombParams(L, eta)
            table = table_for_radius(params, r, DEFAULT_TOL, 1)
            tails = _tail_bounds(table.coeffs, params, r)
            try:
                count = zeros_module._zero_count(table, r)
            except Counted:  # the test failed, and the count fell through to J or the circle
                continue
            assert count == 1
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
        assert proven == 3

    def test_rounding_margin_leaves_a_boundary_circle_to_the_sampler(self, monkeypatch):
        # on this circle the computed S + tail0 falls 3.6 eps short of 2r,
        # inside the margin rho, so the test must not prove the count: this
        # real table falls through to J's inertia, and with the realness
        # predicate turned off to the circle's samples, which the product
        # pass takes
        params, r = CoulombParams(0.5, 0.1), 2.248541828667851
        table = table_for_radius(params, r)
        tail0 = _tail_bounds(table.coeffs, params, r)[0]
        assert zeros_module._abs_sum(table, r, 0) + tail0 < 2 * r
        inertia = _spy(monkeypatch, "_inertia_count")
        sampled = _spy(monkeypatch, "_bounded_horner")
        products = _spy(monkeypatch, "_circle_samples")
        assert zeros_module._zero_count(table, r) == 1
        assert [count for _, count in inertia] == [1] and not sampled and not products
        _complex_jacobi(monkeypatch)
        assert zeros_module._zero_count(table, r) == 1
        assert len(products) == 1


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
        # every refusal is a CoulombError; numpy integers pass
        zs = find_zeros(SINE, 4.0)
        with pytest.raises(InvalidParams, match=r"n_product must lie in \[0, 2\], got 3"):
            weierstrass_eval(SINE, 0.5, zs, len(zs.zeros) + 1)
        with pytest.raises(InvalidParams, match="got -1"):
            weierstrass_eval(SINE, 0.5, zs, -1)
        with pytest.raises(InvalidParams, match="n_product must be an integer, got 2.5"):
            weierstrass_eval(SINE, 0.5, zs, 2.5)
        assert weierstrass_eval(SINE, 0.5, zs, np.int64(2)) == weierstrass_eval(SINE, 0.5, zs, 2)

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
