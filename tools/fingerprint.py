"""Print one deterministic line per library output, to show a change moved none.

    python3 tools/fingerprint.py > after.txt

Run it on two checkouts, each in its own process, and compare with
``diff before.txt after.txt``: an empty diff means every output below kept
its bits.  It imports coulombstar from the ``src`` directory next to it, and
prints floats as ``float.hex`` and a refusal as its exception class name;
any other exception ends the run with a traceback and a non-zero exit.  The
bits may differ between numpy builds, so compare two runs on one machine.
The lines cover:

* ``count`` and ``zeros``: winding_number and find_zeros on 3,000 inputs
  drawn from random.Random(20261019): R in U(0.3, 30), a third each real,
  complex and sine (L = eta = 0) parameters;
* ``certify``: 605 pairs from random.Random(11) (a third each from the
  sweep box, the wide real box and complex) on 5 grids and 3 classes;
* ``eval_g``, ``eval_g_prime``, ``eval_g_second``, ``eval_f``, ``eval_p``:
  1,000 seeded scalar calls, 200 of each.

It takes about 18 s on one core.
"""

from __future__ import annotations

import cmath
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import coulombstar as cs  # noqa: E402

GRIDS = [(3, 0.3626), (12, 0.5), (90, 0.9), (720, 0.999), (1440, 0.75)]
POINTWISE = (cs.eval_g, cs.eval_g_prime, cs.eval_g_second, cs.eval_f, cs.eval_p)


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


def emit(tag: str, i: int, call) -> None:
    """Print call()'s fingerprint, or the class name of its refusal."""
    try:
        out = fmt(call())
    except cs.CoulombError as exc:
        out = type(exc).__name__
    print(tag, i, out)


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
    rng = random.Random(20261019)
    for i in range(3000):
        radius = rng.uniform(0.3, 30.0)
        params = wide_params(rng, i % 3)
        emit("count", i, lambda: cs.winding_number(cs.table_for_radius(params, radius), radius))
        emit("zeros", i, lambda: zero_list(cs.find_zeros(params, radius)))


def certify_lines() -> None:
    rng = random.Random(11)
    grids = [cs.ScanGrid(angles, r_max) for angles, r_max in GRIDS]
    for i in range(605):
        if i % 3 == 0:  # the sweep box
            params = cs.CoulombParams(rng.uniform(-0.4, 1.4), rng.uniform(-0.8, 0.8))
        else:
            params = wide_params(rng, i % 3 - 1)
        for grid in grids:
            for flavor in cs.StarlikeClass:
                emit("certify", i, lambda: cs.certify(params, flavor, grid).to_jsonable())


def pointwise_lines() -> None:
    rng = random.Random(1)
    for i in range(1000):
        f = POINTWISE[i % 5]
        params = wide_params(rng, i % 3)
        reach = 1.4 if f is cs.eval_p else 20.0
        z = cmath.rect(rng.uniform(0.0, reach), rng.uniform(-cmath.pi, cmath.pi))
        emit(f.__name__, i, lambda: evaluation(f(params, z)))


if __name__ == "__main__":
    zero_lines()
    certify_lines()
    pointwise_lines()
