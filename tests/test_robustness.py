"""Every public function answers or refuses with a CoulombError on hostile inputs.

A seeded draw mixes ordinary parameters and points with hostile values: 0,
the polar set's -1, -3/2 and -5/2, +-1e-300, 1e300, +-pi/4, the 5e151
past which the offset profile U overflows, and large |eta|; the points
have |z| from 1e-300 to 1e3.  Under the RuntimeWarning-as-error policy,
each call must return, with a finite value and abs_error where it returns
an evaluation, or raise a CoulombError.  Any other exception is a fault.
"""

import cmath
import math
import random

import pytest

import coulombstar as cs

HOSTILE = (0.0, -1.0, -1.5, -2.5, 1e-300, -1e-300, 1e300, math.pi / 4, -math.pi / 4, 5e151,
           300.0, -1e5, 1e10)
LOCI = ("lemniscate", "exponential")


def _part(rng):
    return rng.choice(HOSTILE) if rng.random() < 0.7 else rng.uniform(-3.0, 3.0)


def _pair(rng):
    """(L, eta), each real or, three times in ten, complex."""
    return tuple(complex(_part(rng), _part(rng) if rng.random() < 0.3 else 0.0) for _ in "Le")


def _point(rng):
    if rng.random() < 0.2:
        modulus = rng.choice((0.0, 1e-300, 0.999, 1.0, 1e3))
    else:
        modulus = 10 ** rng.uniform(-300, 3)
    return modulus * cmath.exp(1j * rng.choice((0.0, math.pi, rng.uniform(-math.pi, math.pi))))


def _finite(out) -> bool:
    """Whether an evaluation's value and bound are finite; other results pass."""
    if isinstance(out, cs.ComplexValue):
        return cmath.isfinite(out.value) and math.isfinite(out.abs_error)
    if isinstance(out, cs.RatioValue):
        return cmath.isfinite(out.P) and math.isfinite(out.abs_error)
    return True


def _zeros_and_products(params, radius, z):
    zero_set = cs.find_zeros(params, radius)
    cs.weierstrass_eval(params, z, zero_set, len(zero_set.zeros))
    return cs.product_convergence_report(params, z, zero_set)


def _calls(params, z, rng):
    """(name, function, args) for every public evaluator, counter, certifier and profile."""
    radius = rng.choice((1e-300, 0.5, 3.0, 12.0, abs(z), 1e300))
    grid = cs.ScanGrid(8, rng.choice((1e-300, 0.5, 0.999)))
    theta, m = params.L.real, abs(params.eta.real) + 1.0
    inside = z if abs(z) < 1 else 0.5 * z / abs(z)
    calls = [(name, getattr(cs, name), (params, z)) for name in (
        "eval_g", "eval_g_prime", "eval_g_second", "eval_f", "eval_p",
        "ode_residual_g", "ode_residual_p")]
    calls += [
        ("normalization_constant", cs.normalization_constant, (params,)),
        ("gamma_complex", cs.gamma_complex, (params.L + 1 + 1j * params.eta,)),
        ("make_coefficients", cs.make_coefficients, (params, rng.choice((2, 16, 81)), abs(z))),
        ("table_for_radius", cs.table_for_radius, (params, abs(z))),
        ("kummer_oracle", cs.kummer_oracle, (params, 6)),
        ("winding_number", lambda p, r: cs.winding_number(cs.table_for_radius(p, r), r),
         (params, radius)),
        ("find_zeros", _zeros_and_products, (params, radius, z)),
        ("lemniscate_condition", cs.lemniscate_condition, (params,)),
        ("exponential_condition", cs.exponential_condition, (params,)),
        ("lemniscate_offset_sq", cs.lemniscate_offset_sq, (theta, m)),
        ("exponential_offset_sq", cs.exponential_offset_sq, (theta, m)),
        ("lemniscate_shift_sq", cs.lemniscate_shift_sq, (theta,)),
        ("exponential_shift_sq", cs.exponential_shift_sq, (theta,)),
        ("admissible_point", cs.admissible_point, (rng.choice(LOCI), theta, m)),
        ("psi_lower_bound", cs.psi_lower_bound,
         (params, rng.choice(LOCI), theta % (2 * math.pi), m, inside)),
        ("parameter_scan", cs.parameter_scan,
         ((params.L.real,) * 2 + (1.0,), (params.eta.real,) * 2 + (1.0,), "lemniscate", grid)),
    ]
    calls += [("certify", cs.certify, (params, flavor, grid))
              for flavor in ("classical", "lemniscate", "exponential")]
    w = complex(_part(rng), _part(rng))
    calls += [(name, getattr(cs, name), (w,))
              for name in ("classical_margin", "lemniscate_margin", "exponential_margin")]
    return calls


def _faults(cases, rng):
    """The calls over (L, eta, z) cases that neither return nor raise a CoulombError."""
    faults = []
    for L, eta, z in cases:
        try:
            params = cs.CoulombParams(L, eta)
        except cs.CoulombError:
            continue
        for name, function, args in _calls(params, z, rng):
            try:
                out = function(*args)
            except cs.CoulombError:
                continue
            except Exception as exc:  # every other exception is the fault sought
                faults.append((name, args, repr(exc)))
                continue
            if not _finite(out):
                faults.append((name, args, repr(out)))
    return faults


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hostile_inputs_answer_or_refuse():
    rng = random.Random(34)
    cases = [(-3.2, 0.0, 1e-300)]  # z^L overflows
    cases += [(*_pair(rng), _point(rng)) for _ in range(300)]
    assert _faults(cases, rng) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extremize_answers_or_refuses():
    # each profile at ordinary, hostile and out-of-domain m
    for tag in "UVAB":
        for m in (1.0, math.pi / 4, 1e10, 5e151, 1e300, -1e-300):
            try:
                report = cs.extremize(tag, m)
            except cs.CoulombError:
                continue
            assert math.isfinite(report.located_value) and math.isfinite(report.abs_gap)
