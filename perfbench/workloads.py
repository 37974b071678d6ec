"""The four workloads: seeded inputs, the timed call of each op, output checks.

An op is one call into coulombstar's public API (or one CLI subprocess).
Each workload builds a pool of distinct inputs from its seed; the timed loop
cycles through the pool.  Two kinds of check run outside the timed region:

* ``check(op, out)`` after every op: cheap comparisons against reference
  values computed before the loop, or against the first output of the same
  input (the library is deterministic, so repeats must be identical);
* ``verify(op, out)`` once per distinct input after the loop: the costly
  oracle comparisons.

``bound_checked``/``bound_held`` count returned error bounds tested against
the oracle: ``|value - oracle| <= abs_error``.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import coulombstar as cs

import oracle

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

# Relative agreement demanded of every value against its oracle.  At seed the
# worst disagreement on these inputs is about 2e-13, and a value moved by
# 1e-9 must fail.
VALUE_TOL = 1e-10
# A returned zero rho must have |g(rho)| <= ZERO_GATE * (tol + eps * S(|rho|)).
# find_zeros places rho on the series truncated where its tail falls below tol,
# with coefficients rounded to doubles, and eps * S (S the series scale)
# bounds what that rounding moves g by, so no check can ask more of a zero.
# Over seeds 1-30 (5,752 inputs) the largest ratio seen is 0.24; a Newton
# iteration in doubles alone, stopping at the library's own noise floor,
# exceeds the gate on about one input in five.
ZERO_GATE = 1.0
# The sine case's zeros are known exactly, so |rho - k pi| <= SINE_GATE *
# (tol + eps * sinh(k pi)); over 601 trust radii in [5, 20] the largest
# ratio seen is 0.031, and 1.3 for the double-only Newton.
SINE_GATE = 0.1
EPS = 2.220446049250313e-16
# Rounding slack when comparing a scan's min_margin with eval_p margins.
MARGIN_SLACK = 1e-9

# Irrational steps of a Kronecker sequence: every prefix of the sequence
# covers each axis evenly, so a pool's mean cost barely depends on the seed.
_STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17))


@dataclass
class Op:
    key: int
    call: object  # zero-argument callable returning the output
    units: int = 1
    info: dict = field(default_factory=dict)


def close(value: complex, reference: complex, tol: float = VALUE_TOL) -> bool:
    return abs(value - reference) <= tol * max(1.0, abs(reference))


def finite(w: complex) -> bool:
    w = complex(w)
    return math.isfinite(w.real) and math.isfinite(w.imag)


def spread_points(rng: random.Random, count: int, dims: int) -> list[list[float]]:
    """`count` points in [0, 1)^dims from a Kronecker sequence with seeded offsets."""
    offsets = [rng.random() for _ in range(dims)]
    return [[(u + k * a) % 1.0 for u, a in zip(offsets, _STEPS)] for k in range(count)]


def lerp(lo: float, hi: float, t: float) -> float:
    return lo + (hi - lo) * t


class Workload:
    name = ""
    imports = ("coulombstar",)
    tail_pct = 90.0
    units = "ops"
    gauge = "mixed"  # reference unit kind, see reference.py
    gauge_interval_s = 0.1  # loop seconds between reference bursts
    gauge_reach = 0  # stretches a burst's median reaches, see Gauge.slowdowns
    subprocesses = False  # whether an op starts a process (then nothing is pinned)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.peak_child_rss_kb = 0  # largest ru_maxrss of the ops' processes
        self.rng = random.Random(seed)
        self.ops: list[Op] = []
        self.bound_checked = 0
        self.bound_held = 0
        self.first_outputs: dict[int, object] = {}

    def prepare(self) -> None:
        """Untimed work before the loop (reference values, expected output)."""

    def same_as_first(self, op: Op, out) -> bool:
        first = self.first_outputs.setdefault(op.key, out)
        return first is out or first == out

    def check(self, op: Op, out) -> bool:
        return self.same_as_first(op, out)

    def verify(self, op: Op, out) -> bool:
        return True

    def refusal(self, out) -> bool:
        """Whether a returned output is a typed refusal (the CLI's exits 3-5)."""
        return False

    def well_posed(self, op: Op) -> bool:
        """Whether the oracle deems the input well posed; asked after a refusal."""
        return True

    def summary(self) -> str:
        """Extra facts about the run's inputs for the report line."""
        return ""


# ---------------------------------------------------------------------------
# pointwise

class Pointwise(Workload):
    """Scalar eval_g / eval_g_prime / eval_g_second / eval_f / eval_p calls.

    0 < |z| <= 3 for the series calls and |z| <= 0.999 for P.  Complex
    parameters, real ones for eval_f (the coulombf oracle), and the sine
    case L = eta = 0 every tenth input.
    """

    name = "pointwise"
    tail_pct = 95.0
    POOL = 1000
    KINDS = ("eval_g", "eval_g_prime", "eval_g_second", "eval_f", "eval_p")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        for k, (a, b, c, d, e, f) in enumerate(spread_points(rng, self.POOL, 6)):
            kind = self.KINDS[k % len(self.KINDS)]
            if k % 10 == 9:
                L, eta = 0j, 0j
            elif kind == "eval_f":
                L, eta = complex(lerp(-0.4, 1.4, a)), complex(lerp(-1, 1, c))
            else:
                L = complex(lerp(-0.4, 1.4, a), lerp(-0.5, 0.5, b))
                eta = complex(lerp(-1, 1, c), lerp(-0.5, 0.5, d))
            params = cs.CoulombParams(L, eta)
            if kind == "eval_p":
                r = 0.999 * math.sqrt(e)
            else:
                r = 3.0 * e
            z = r * cmath.exp(1j * lerp(-math.pi, math.pi, f))
            # P is only well posed away from zeros of g
            while kind == "eval_p" and abs(oracle.g_value(L, eta, z)) <= 1e-3:
                z = 0.999 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            self.ops.append(Op(k, _call(kind, params, z), info={"kind": kind, "z": z}))
        self.expected: dict[int, complex] = {}

    def prepare(self) -> None:
        for op in self.ops:
            kind, z = op.info["kind"], op.info["z"]
            p = op.call.args[0]
            if kind == "eval_f":
                self.expected[op.key] = oracle.f_value(p.L.real, p.eta.real, z)
            elif kind == "eval_p":
                self.expected[op.key] = oracle.p_value(p.L, p.eta, z)
            else:
                deriv = ("eval_g", "eval_g_prime", "eval_g_second").index(kind)
                self.expected[op.key] = oracle.g_derivatives(p.L, p.eta, z)[deriv]

    def check(self, op: Op, out) -> bool:
        reference = self.expected[op.key]
        if isinstance(out, cs.ComplexValue):
            value = out.value
            if not (finite(value) and math.isfinite(out.abs_error)):
                return False
            self.bound_checked += 1
            self.bound_held += abs(value - reference) <= out.abs_error
        else:
            value = out.P
            if not finite(value):
                return False
        return close(value, reference)


class _call:
    """A public function applied to fixed arguments, resolved at call time."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, *args) -> None:
        self.name = name
        self.args = args

    def __call__(self):
        return getattr(cs, self.name)(*self.args)


# ---------------------------------------------------------------------------
# sweep

ACCEPTANCE_7 = ((0.3, 0.7, 0.02), (-0.1, 0.1, 0.01))
CLASSES = ("classical", "lemniscate", "exponential")
RING_ANGLES = 12


def _margin(P: complex, flavor: str) -> float:
    if flavor == "classical":
        return P.real
    if flavor == "lemniscate":
        return min(1.0 - abs(P * P - 1.0), P.real)
    if P.imag == 0.0 and P.real <= 0.0:
        return -math.inf
    return 1.0 - abs(cmath.log(P))


def _slack(L: float, eta: float, flavor: str) -> float:
    if flavor == "lemniscate":
        threshold, weight = math.sqrt(2) / 4, math.sqrt(2) - 1
    elif flavor == "exponential":
        threshold, weight = (math.e - 1) / math.e**2, math.e - 1
    else:
        return math.nan
    return threshold - weight * abs(2 * L - 1) - 2 * abs(eta)


def _ring_margins(params, ring, flavor: str):
    """Margins of eval_p on the ring, skipping points where eval_p refuses."""
    for z in ring:
        try:
            yield _margin(cs.eval_p(params, z).P, flavor)
        except cs.CoulombError:
            continue


class Sweep(Workload):
    """parameter_scan over 4 x 4 real rectangles, classes interleaved.

    The first op of every run is the 441-pair rectangle of acceptance check 7
    (lemniscate), which certifies throughout; the seeded rectangles inside
    L in [-0.4, 1.4], eta in [-0.8, 0.8] supply the pairs that fail.
    ops_per_s counts parameter pairs.
    """

    name = "sweep"
    tail_pct = 90.0
    units = "pairs"
    gauge = "field"
    RECTANGLES_PER_CLASS = 30

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.ops.append(self._scan(0, *ACCEPTANCE_7, "lemniscate", 21 * 21))
        count = self.RECTANGLES_PER_CLASS * len(CLASSES)
        for k, (a, b, c, d) in enumerate(spread_points(self.rng, count, 4)):
            flavor = CLASSES[k % len(CLASSES)]
            L_step, eta_step = lerp(0.03, 0.1, a), lerp(0.03, 0.1, b)
            # classical certifies nearly everywhere above L = 0.5
            L_hi = 0.5 if flavor == "classical" else 1.4
            L0 = lerp(-0.4, L_hi - 3 * L_step, c)
            eta0 = lerp(-0.8, 0.8 - 3 * eta_step, d)
            self.ops.append(self._scan(
                k + 1, (L0, L0 + 3 * L_step, L_step), (eta0, eta0 + 3 * eta_step, eta_step),
                flavor, 16,
            ))
        self.rows_checked = 0
        self.rows_certified = 0

    def summary(self) -> str:
        return f"{self.rows_certified} of {self.rows_checked} distinct rows certified"

    @staticmethod
    def _scan(key, L_range, eta_range, flavor, pairs) -> Op:
        return Op(key, _call("parameter_scan", L_range, eta_range, flavor),
                  units=pairs, info={"class": flavor})

    def check(self, op: Op, out) -> bool:
        return len(out) == op.units and self.same_as_first(op, out)

    def verify(self, op: Op, out) -> bool:
        flavor = op.info["class"]
        ring = [0.999 * cmath.exp(2j * math.pi * k / RING_ANGLES) for k in range(RING_ANGLES)]
        ok = True
        for row in out:
            self.rows_checked += 1
            self.rows_certified += row.certified
            # NaN marks a pair the scan could not evaluate; -inf is the library's
            # documented verdict for a grid point where g vanishes or P sits on
            # the exponential class's branch cut
            if math.isnan(row.min_margin):
                ok = False
                continue
            slack = _slack(row.L, row.eta, flavor)
            if slack > 0 and not row.certified:
                ok = False
            params = cs.CoulombParams(row.L, row.eta)
            if any(row.min_margin > m + MARGIN_SLACK for m in _ring_margins(params, ring, flavor)):
                ok = False
        return ok


# ---------------------------------------------------------------------------
# zeros

class Zeros(Workload):
    """find_zeros inside a trust radius in [5, 20], then product_convergence_report.

    Parameters alternate real and complex, with the sine case every eighth
    input.  The report is taken at a seeded point inside half the trust
    radius.  The oracle's |g| at each returned zero must be small against
    the series scale, and in the sine case the zeros must be the k pi inside
    the radius.
    """

    name = "zeros"
    tail_pct = 95.0
    POOL = 192

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        for k, (a, b, c, d, e, f, g) in enumerate(spread_points(self.rng, self.POOL, 7)):
            radius = lerp(5.0, 20.0, a)
            if k % 8 == 7:
                L, eta = 0j, 0j
            elif k % 2 == 0:
                L, eta = complex(lerp(-0.4, 1.4, b)), complex(lerp(-1, 1, c))
            else:
                L = complex(lerp(-0.4, 1.4, b), lerp(-0.3, 0.3, d))
                eta = complex(lerp(-1, 1, c), lerp(-0.3, 0.3, e))
            z = 0.5 * radius * math.sqrt(f) * cmath.exp(1j * lerp(-math.pi, math.pi, g))
            params = cs.CoulombParams(L, eta)
            self.ops.append(Op(k, _ZerosOp(params, radius, z)))

    def check(self, op: Op, out) -> bool:
        zero_set, report = out
        return (all(finite(rho) for rho in zero_set.zeros)
                and all(math.isfinite(err) for _, err in report)
                and self.same_as_first(op, out))

    def verify(self, op: Op, out) -> bool:
        zero_set, report = out
        params, radius, z = op.call.params, op.call.radius, op.call.z
        L, eta = params.L, params.eta
        zeros = zero_set.zeros
        for rho in zeros:
            if not 0 < abs(rho) <= radius:
                return False
            gate = ZERO_GATE * (cs.DEFAULT_TOL + EPS * oracle.series_scale(L, eta, abs(rho)))
            if abs(oracle.g_value(L, eta, rho)) > gate:
                return False
        if L == 0 and eta == 0:
            count = int(radius / math.pi)
            expected = sorted(k * math.pi for k in range(-count, count + 1) if k)
            found = sorted(rho.real for rho in zeros)
            if len(found) != len(expected) or any(rho.imag != 0 for rho in zeros):
                return False
            # |sin'| = 1 at k pi, so the zero's error is its |g|; S = sinh
            if any(abs(a - b) > SINE_GATE * (cs.DEFAULT_TOL + EPS * math.sinh(abs(b)))
                   for a, b in zip(found, expected)):
                return False
        if [n for n, _ in report] != list(range(1, len(zeros) + 1)):
            return False
        reference = oracle.g_value(L, eta, z)
        product = z * cmath.exp(eta * z / (L + 1))
        for (_, err), rho in zip(report, zeros):
            product *= (1 - z / rho) * cmath.exp(z / rho)
            if abs(err - abs(product - reference)) > VALUE_TOL * max(1.0, abs(reference)):
                return False
        return True

    def well_posed(self, op: Op) -> bool:
        c = op.call
        return zeros_well_posed(c.params.L, c.params.eta, c.radius)


def zeros_well_posed(L: complex, eta: complex, radius: float) -> bool:
    """False when a zero of g lies within 1e-3 R of the trust circle.

    The winding count is ill-conditioned there, so a refusal is honest.
    The oracle Newton iteration starts from the smallest |g| of 64 samples
    on the circle.
    """
    ring = [radius * cmath.exp(2j * math.pi * k / 64) for k in range(64)]
    rho = min(ring, key=lambda z: abs(oracle.g_value(L, eta, z)))
    for _ in range(30):
        g, gp, _ = oracle.g_derivatives(L, eta, rho)
        step = g / gp
        rho -= step
        if abs(step) <= 1e-12 * abs(rho):
            break
    return abs(abs(rho) - radius) > 1e-3 * radius


class _ZerosOp:
    __slots__ = ("params", "radius", "z")

    def __init__(self, params, radius: float, z: complex) -> None:
        self.params, self.radius, self.z = params, radius, z

    def __call__(self):
        zero_set = cs.find_zeros(self.params, self.radius)
        return zero_set, cs.product_convergence_report(self.params, self.z, zero_set)


# ---------------------------------------------------------------------------
# cli

# The six golden transcripts and their exit codes, as acceptance check 10 runs them.
GOLDEN_CASES = (
    ("eval_g", ("eval", "--L", "0", "--eta", "0", "--z", "1", "--function", "g"), 0),
    ("coeffs", ("coeffs", "--L", "0", "--eta", "1", "--order", "8", "--radius", "1.0"), 0),
    ("zeros", ("zeros", "--L", "0", "--eta", "0", "--radius", "4"), 0),
    ("certify_lemniscate",
     ("certify", "--L", "0.5", "--eta", "0.1", "--class", "lemniscate"), 0),
    ("scan",
     ("scan", "--L-min", "0.4", "--L-max", "0.6", "--L-step", "0.1",
      "--eta-min", "0", "--eta-max", "0.1", "--eta-step", "0.05",
      "--class", "lemniscate"), 0),
    ("verify_lemmas", ("verify-lemmas", "--m", "1"), 1),
)
LEMMA_GAP_TOL = 1e-8
# Exit codes of typed refusals in the CLI contract (cli.py): invalid
# parameters, evaluation failure, winding mismatch.  They print nothing on
# stdout.
REFUSAL_EXITS = (3, 4, 5)


def _fmt(w: complex) -> str:
    return f"{w.real!r}{w.imag:+.17g}i"


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COULOMB_TOL"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli(Workload):
    """One `python -m coulombstar ...` subprocess per op.

    A cycle interleaves the six golden invocations with twelve seeded ones:
    eval of g, f and P, certify, zeros and verify-lemmas, two of each.
    """

    name = "cli"
    imports = ("coulombstar", "coulombstar.cli")
    tail_pct = 75.0
    subprocesses = True
    gauge = "process"
    gauge_interval_s = 2.0
    gauge_reach = 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        seeded = []
        for k in range(2):
            L = complex(rng.uniform(-0.4, 1.4), rng.uniform(-0.5, 0.5))
            eta = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            z = rng.uniform(0.5, 3.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            seeded.append(("eval", ("eval", "--L", _fmt(L), "--eta", _fmt(eta), "--z", _fmt(z),
                                    "--function", "g"), {"kind": "g", "L": L, "eta": eta, "z": z}))
            Lr, etar = rng.uniform(-0.4, 1.4), rng.uniform(-1, 1)
            z = rng.uniform(0.5, 3.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            seeded.append(("eval", ("eval", "--L", repr(Lr), "--eta", repr(etar), "--z", _fmt(z),
                                    "--function", "f"), {"kind": "f", "L": Lr, "eta": etar, "z": z}))
            while True:
                z = 0.999 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                if abs(oracle.g_value(L, eta, z)) > 1e-3:
                    break
            seeded.append(("eval", ("eval", "--L", _fmt(L), "--eta", _fmt(eta), "--z", _fmt(z),
                                    "--function", "P"), {"kind": "P", "L": L, "eta": eta, "z": z}))
            flavor = rng.choice(CLASSES)
            seeded.append(("certify", ("certify", "--L", repr(rng.uniform(-0.4, 1.4)),
                                       "--eta", repr(rng.uniform(-0.8, 0.8)), "--class", flavor), {}))
            seeded.append(("zeros", ("zeros", "--L", repr(rng.uniform(-0.4, 1.4)),
                                     "--eta", repr(rng.uniform(-1, 1)),
                                     "--radius", repr(rng.uniform(4, 10))), {}))
            m_list = ",".join(str(rng.randint(1, 5)) for _ in range(3))
            seeded.append(("verify-lemmas", ("verify-lemmas", "--m", m_list), {}))
        golden = [(name, args, {"golden": name, "exit": code}) for name, args, code in GOLDEN_CASES]
        # golden, seeded, seeded, golden, ...: a run cut mid-cycle keeps the mix
        order = []
        for k in range(len(golden)):
            order += [golden[k], seeded[2 * k], seeded[2 * k + 1]]
        self.env = cli_env()
        for key, (_, args, info) in enumerate(order):
            self.ops.append(Op(key, _Subprocess(self, args), info=dict(info, args=args)))
        self.expected: dict[int, tuple[int, bytes]] = {}

    def prepare(self) -> None:
        for op in self.ops:
            info = op.info
            if "golden" in info:
                self.expected[op.key] = (info["exit"], (GOLDEN_DIR / f"{info['golden']}.txt").read_bytes())
            else:
                self.expected[op.key] = in_process(info["args"])
        for op in self.ops:
            if "golden" not in op.info:
                op.info["contract"] = self._contract(op)

    def refusal(self, out) -> bool:
        code, stdout = out
        return code in REFUSAL_EXITS and stdout == b""

    def well_posed(self, op: Op) -> bool:
        """Only a zeros invocation can be ill posed here: a zero near its circle."""
        args = op.info["args"]
        if args[0] != "zeros":
            return True
        opts = dict(zip(args[1::2], args[2::2]))
        return zeros_well_posed(complex(float(opts["--L"])), complex(float(opts["--eta"])),
                                float(opts["--radius"]))

    def _contract(self, op: Op) -> bool:
        """Exit code and payload of the in-process run obey the CLI contract.

        A typed refusal (exit 3, 4 or 5 with nothing on stdout) obeys it too;
        the loop counts it against answered_frac when the input is well posed.
        """
        code, stdout = self.expected[op.key]
        info = op.info
        command = info["args"][0]
        if self.refusal((code, stdout)):
            return True
        try:
            payload = json.loads(stdout.decode())
        except ValueError:
            return False
        if command == "eval":
            if code != 0:
                return False
            value = complex(payload["value"]["re"], payload["value"]["im"])
            L, eta, z = info["L"], info["eta"], info["z"]
            if info["kind"] == "g":
                reference = oracle.g_value(L, eta, z)
            elif info["kind"] == "f":
                reference = oracle.f_value(L, eta, z)
            else:
                reference = oracle.p_value(L, eta, z)
            return close(value, reference)
        if command == "certify":
            return code == (0 if payload["certified"] else 1)
        if command == "zeros":
            return code == 0 and all(abs(complex(z["re"], z["im"])) <= float(info["args"][-1])
                                     for z in payload["zeros"])
        passed = all(r["abs_gap"] <= LEMMA_GAP_TOL for r in payload["reports"]) and all(
            c["consistent"] for c in payload["constant_checks"])
        return code == (0 if passed else 1)

    def replay(self, op: Op, tracer) -> tuple[float, bool]:
        """Rerun the op in this process under a cli.main span.

        Returns the in-process seconds and whether its output matches.
        """
        t0 = time.perf_counter()
        with tracer.span("cli.main"):
            out = in_process(op.info["args"])
        return time.perf_counter() - t0, out == self.expected[op.key]

    def check(self, op: Op, out) -> bool:
        return out == self.expected[op.key] and op.info.get("contract", True)


class _Subprocess:
    """One CLI run; waits with wait4 to keep the peak RSS of this process only.

    RUSAGE_CHILDREN would also count the reference gauge's processes.
    """

    __slots__ = ("workload", "args")

    def __init__(self, workload: Cli, args) -> None:
        self.workload, self.args = workload, args

    def __call__(self) -> tuple[int, bytes]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "coulombstar", *self.args],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.workload.env, cwd=ROOT,
        )
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        w = self.workload
        w.peak_child_rss_kb = max(w.peak_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, stdout


def in_process(args) -> tuple[int, bytes]:
    """The same invocation through click's test runner, in this process."""
    from click.testing import CliRunner

    from coulombstar.cli import main

    result = CliRunner().invoke(main, list(args), env={"COULOMB_TOL": None})
    return result.exit_code, result.stdout_bytes


WORKLOADS = {w.name: w for w in (Sweep, Zeros, Pointwise, Cli)}
