"""Print one deterministic line per library output, to show a change moved none.

    python3 tools/fingerprint.py > after.txt

Run it on two checkouts, each in its own process, and compare with
``diff before.txt after.txt``: an empty diff means every output below kept
its bits.  It imports coulombstar from the ``src`` directory next to it, and
prints floats as ``float.hex`` and a refusal as its exception class name;
any other exception ends the run with a traceback and a non-zero exit.  The
bits may differ between numpy builds, so compare two runs on one machine.
It covers every output that a benchmark workload checks:

* ``count``, ``zeros`` and ``product``: winding_number and find_zeros on
  3,000 inputs drawn from random.Random(20261019): R in U(0.3, 30), a third
  each real, complex and sine (L = eta = 0) parameters; then, for each
  answered find_zeros, product_convergence_report at a point of
  random.Random(2) inside R/2, as the ``zeros`` workload calls it, and
  for every tenth answered input weierstrass_eval there at each n_product;
* ``high_order_count``: winding_number on 100 complex make_coefficients
  tables from random.Random(33), 25 each at orders 183, 275, 413 and 500,
  at their own radius r in U(3, 4);
* ``certify`` and ``condition``: 605 pairs from random.Random(11) (a third
  each from the sweep box, the wide real box and complex) on 5 grids and 3
  classes, and both sufficient conditions of each pair;
* ``scan``: parameter_scan on 60 real rectangles of 3 x 3 or 4 x 4 pairs
  from random.Random(25), the classes and grids in turn, as the ``sweep``
  workload calls it; every fifth rectangle starts at L = -1, whose column
  is refused as NaN rows;
* ``eval_g``, ``eval_g_prime``, ``eval_g_second``, ``eval_f``, ``eval_p``:
  1,000 seeded scalar calls, 200 of each;
* ``extremize``, ``constant_checks``, ``profile`` and ``psi``: the four
  profile extrema at 30 values of m from random.Random(3), m < 1 included,
  as the ``cli`` workload's verify-lemmas calls them, the threshold
  identities, the four scalar profiles and psi_lower_bound at 200 seeded
  points each, some outside their domains;
* ``coeffs``, ``kummer`` and ``ode_g``, ``ode_p``: make_coefficients (radius
  0 included), kummer_oracle at orders up to 12, and the two ODE residuals,
  100 seeded calls each, from random.Random(4).

It prints 23,692 lines in about 10 s on one core.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import coulombstar as cs  # noqa: E402

GRIDS = [(3, 0.3626), (12, 0.5), (90, 0.9), (720, 0.999), (1440, 0.75)]
POINTWISE = (cs.eval_g, cs.eval_g_prime, cs.eval_g_second, cs.eval_f, cs.eval_p)
HIGH_ORDERS = (183, 275, 413, 500)


def fmt(x) -> str:
    """x with every float as float.hex, in a fixed order."""
    if x is None or isinstance(x, (int, str)):  # bool is an int
        return repr(x)
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return f"{x.real.hex()},{x.imag.hex()}"
    if isinstance(x, dict):
        return "{" + " ".join(f"{k}={fmt(v)}" for k, v in x.items()) + "}"
    return "[" + " ".join(fmt(v) for v in x) + "]"


def emit(tag: str, i: int, call, shape=lambda value: value):
    """Print shape(call())'s fingerprint, or the class name of its refusal; call()'s value or None."""
    try:
        value = call()
        out = fmt(shape(value))
    except cs.CoulombError as exc:
        value, out = None, type(exc).__name__
    print(tag, i, out)
    return value


def wide_params(rng: random.Random, kind: int) -> cs.CoulombParams:
    """Kind 0 real, 1 complex, 2 the sine case, from the wide box L in (-0.9, 3), eta in (-3, 3)."""
    if kind == 2:
        return cs.CoulombParams(0.0, 0.0)
    L, eta = rng.uniform(-0.9, 3.0), rng.uniform(-3.0, 3.0)
    if kind == 1:
        L, eta = complex(L, rng.uniform(-0.5, 0.5)), complex(eta, rng.uniform(-1.0, 1.0))
    return cs.CoulombParams(L, eta)


def zero_list(zero_set: cs.ZeroSet) -> list:
    return [zero_set.zeros, zero_set.residuals]


def evaluation(v) -> list:
    """A ComplexValue's value, or a RatioValue's P, with its abs_error."""
    return [v.P if isinstance(v, cs.RatioValue) else v.value, v.abs_error]


def zero_lines() -> None:
    rng, points = random.Random(20261019), random.Random(2)
    for i in range(3000):
        radius = rng.uniform(0.3, 30.0)
        params = wide_params(rng, i % 3)
        # drawn for every input, so that a refusal moves no later point
        z = cmath.rect(0.5 * radius * points.random(), points.uniform(-cmath.pi, cmath.pi))
        emit("count", i, lambda: cs.winding_number(cs.table_for_radius(params, radius), radius))
        zero_set = emit("zeros", i, lambda: cs.find_zeros(params, radius), zero_list)
        if zero_set is not None:
            emit("product", i, lambda: cs.product_convergence_report(params, z, zero_set))
            if i % 10 == 0:
                for n in range(len(zero_set.zeros) + 1):
                    emit("weierstrass", i,
                         lambda: evaluation(cs.weierstrass_eval(params, z, zero_set, n)))


def high_order_lines() -> None:
    rng = random.Random(33)
    for i in range(100):
        order, radius = HIGH_ORDERS[i % 4], rng.uniform(3.0, 4.0)
        params = wide_params(rng, 1)
        emit("high_order_count", i,
             lambda: cs.winding_number(cs.make_coefficients(params, order, radius), radius))


def certify_lines() -> None:
    rng = random.Random(11)
    grids = [cs.ScanGrid(angles, r_max) for angles, r_max in GRIDS]
    for i in range(605):
        if i % 3 == 0:  # the sweep box
            params = cs.CoulombParams(rng.uniform(-0.4, 1.4), rng.uniform(-0.8, 0.8))
        else:
            params = wide_params(rng, i % 3 - 1)
        emit("condition", i, lambda: [cs.lemniscate_condition(params),
                                      cs.exponential_condition(params)])
        for grid in grids:
            for flavor in cs.StarlikeClass:
                emit("certify", i, lambda: cs.certify(params, flavor, grid).to_jsonable())


def scan_lines() -> None:
    rng = random.Random(25)
    for i in range(60):
        flavor = list(cs.StarlikeClass)[i % 3]
        grid = cs.ScanGrid(*GRIDS[i % len(GRIDS)])
        side = 3 + i % 2
        L_step, eta_step = rng.uniform(0.03, 0.3), rng.uniform(0.03, 0.3)
        L0 = -1.0 if i % 5 == 0 else rng.uniform(-0.9, 1.4)
        eta0 = rng.uniform(-0.8, 0.8)
        L_range = (L0, L0 + (side - 1) * L_step, L_step)
        eta_range = (eta0, eta0 + (side - 1) * eta_step, eta_step)
        emit("scan", i, lambda: [dataclasses.astuple(row) for row in
                                 cs.parameter_scan(L_range, eta_range, flavor, grid)])


def pointwise_lines() -> None:
    rng = random.Random(1)
    for i in range(1000):
        f = POINTWISE[i % 5]
        params = wide_params(rng, i % 3)
        reach = 1.4 if f is cs.eval_p else 20.0
        z = cmath.rect(rng.uniform(0.0, reach), rng.uniform(-cmath.pi, cmath.pi))
        emit(f.__name__, i, lambda: evaluation(f(params, z)))


def lemma_lines() -> None:
    rng = random.Random(3)
    for i in range(30):
        m = [1.0, 0.5, float(rng.randint(1, 5)), rng.uniform(1.0, 10.0), 10 ** rng.uniform(1, 6)][i % 5]
        for tag in "UVAB":
            emit("extremize", i, lambda: cs.extremize(tag, m).to_jsonable())
    emit("constant_checks", 0, cs.constant_checks)
    for i in range(200):
        # a sliver beyond each domain, so that some points are refused
        theta_lem = rng.uniform(-0.8, 0.8)
        theta_exp = rng.uniform(-0.1, 2 * math.pi + 0.1)
        m = rng.uniform(0.9, 5.0)
        z = cmath.rect(rng.uniform(0.0, 1.02), rng.uniform(-cmath.pi, cmath.pi))
        emit("profile", i, lambda: [cs.lemniscate_offset_sq(theta_lem, m),
                                    cs.lemniscate_shift_sq(theta_lem)])
        emit("profile", i, lambda: [cs.exponential_offset_sq(theta_exp, m),
                                    cs.exponential_shift_sq(theta_exp)])
        params = wide_params(rng, i % 3)
        locus, theta = ("lemniscate", theta_lem) if i % 2 else ("exponential", theta_exp)
        emit("psi", i, lambda: cs.psi_lower_bound(params, locus, theta, m, z),
             lambda pair: [pair[0], pair[1].to_jsonable()])


def table(t: cs.CoefficientTable) -> list:
    return [t.coeffs, t.order, t.tail_bound, t.radius]


def series_lines() -> None:
    rng = random.Random(4)
    for i in range(100):
        params = wide_params(rng, i % 3)
        radius = 0.0 if i % 4 == 0 else rng.uniform(0.1, 3.0)
        order, oracle_order = rng.randint(2, 60), rng.randint(0, 12)
        emit("coeffs", i, lambda: cs.make_coefficients(params, order, radius), table)
        emit("kummer", i, lambda: cs.kummer_oracle(params, oracle_order), table)
        z = cmath.rect(rng.uniform(0.0, 3.0), rng.uniform(-cmath.pi, cmath.pi))
        emit("ode_g", i, lambda: cs.ode_residual_g(params, z))
        emit("ode_p", i, lambda: cs.ode_residual_p(params, z))


if __name__ == "__main__":
    zero_lines()
    high_order_lines()
    certify_lines()
    scan_lines()
    pointwise_lines()
    lemma_lines()
    series_lines()
