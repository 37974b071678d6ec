"""A fixed reference computation that tracks how fast the machine runs right now.

On a shared 2-core machine the speed of the same Python code drifts by 20-30 %
over tens of seconds, far more than the changes the benchmark must resolve.
The timed loop therefore runs short bursts of this reference, which shares no
code with coulombstar, every tenth of a second between its ops, and divides
each op's time by the slowdown the bursts on either side of it saw: times read
as on a machine where one unit takes its NOMINAL_UNIT_S.  A workload picks
the unit kind that resembles its own work.  Work done in fresh processes (the
set-up imports and the CLI ops) is measured against a unit that is itself a
fresh process, since the cost of starting one swung by 25 % between minutes
while the in-process units moved by 6 %.  One such burst is as noisy as one
op, so those ops are divided by the median of the bursts within a few
seconds of them instead.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import mpmath as mp
import numpy as np

# Seconds one unit of each kind takes on a quiet 2.1 GHz Xeon vCPU.
NOMINAL_UNIT_S = {"mixed": 0.7e-3, "field": 3.5e-3, "process": 0.21}

_COEFFS = tuple(complex(1.0 / (k + 1), (-1) ** k / (k + 2)) for k in range(48))
_POINTS = (0.5 + 0.3j, -0.7 + 0.2j, 0.1 - 0.9j, 0.8 + 0.1j) * 10
_GRID = 0.9 * np.exp(2j * np.pi * np.arange(4096) / 4096)
_MP_COEFFS = tuple(mp.mpc(c) for c in _COEFFS[:24])
_MP_POINT = mp.mpc(0.5, 0.3)
_FIELD = 0.999 * np.exp(2j * np.pi * np.arange(28800) / 28800)


def unit() -> complex:
    """Complex Horner in Python scalars, on a numpy grid, and at 40 digits.

    The three parts mirror the scalar evaluators, the grid certification and
    the extended-precision zero refinement.
    """
    total = 0j
    for z in _POINTS:
        acc = 0j
        for c in _COEFFS:
            acc = acc * z + c
        total += acc
    grid = np.zeros_like(_GRID)
    for c in _COEFFS[:12]:
        grid = grid * _GRID + c
    margin = 1.0 - np.abs(np.log(grid))
    with mp.workdps(40):
        wide = mp.mpc(0)
        for c in _MP_COEFFS:
            wide = wide * _MP_POINT + c
    return total + margin[0] + complex(wide)


def field_unit() -> complex:
    """A 16-term series and its derivative on 28,800 points, then a log margin.

    Mirrors one `certify` call, for workloads that are almost all grid work:
    large numpy arrays slow down less than Python code when the machine is
    busy, so the mixed unit would over-correct them.
    """
    g = np.zeros_like(_FIELD)
    gp = np.zeros_like(_FIELD)
    for c in _COEFFS[:16]:
        gp = gp * _FIELD + g
        g = g * _FIELD + c
    margin = 1.0 - np.abs(np.log(_FIELD * gp / g + 1.0))
    return complex(margin.min())


def process_unit() -> None:
    """A fresh interpreter that imports numpy and mpmath, then exits.

    Mirrors what starting coulombstar costs (process creation, numpy's
    extension modules, unmarshalling Python modules) without running any of
    its code.
    """
    subprocess.run([sys.executable, "-c", "import numpy, mpmath"], check=True,
                   capture_output=True)


UNITS = {"mixed": unit, "field": field_unit, "process": process_unit}


class Gauge:
    """Reference bursts taken between stretches of timed work.

    ``slowdowns()`` gives, for the stretch between bursts k and k + 1, the
    mean unit time of those two bursts over the nominal one.
    """

    def __init__(self, kind: str = "mixed") -> None:
        self.unit = UNITS[kind]
        self.nominal_s = NOMINAL_UNIT_S[kind]
        self.units = max(1, round(7e-3 / self.nominal_s))
        self.unit_s: list[float] = []

    def burst(self) -> None:
        t0 = time.perf_counter()
        for _ in range(self.units):
            self.unit()
        self.unit_s.append((time.perf_counter() - t0) / self.units)

    def slowdowns(self, reach: int = 0) -> list[float]:
        """Per stretch; with `reach` > 0, the median of the bursts within
        `reach` stretches of it on either side instead of its two bursts."""
        u = self.unit_s
        if not reach:
            return [(a + b) / 2 / self.nominal_s for a, b in zip(u, u[1:])]
        return [statistics.median(u[max(0, k - reach):k + reach + 2]) / self.nominal_s
                for k in range(len(u) - 1)]

    @property
    def slowdown(self) -> float:
        """Mean over the whole gauge, for times not tied to one stretch."""
        return sum(self.unit_s) / len(self.unit_s) / self.nominal_s
