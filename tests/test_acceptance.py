"""End-to-end acceptance checks.

Each test exercises one advertised guarantee at its stated tolerance and
prints exactly one ``ACCEPTANCE n (<label>): PASS|FAIL`` line.  Two checks
assert the mathematics as it is rather than the figures first quoted for it:

* 4 (product convergence): with every zero of modulus <= 20 of the sine
  case, i.e. the K = 6 pairs +-k pi, the partial-product error at z = 0.5
  decreases strictly and ends at 1.868e-3.  The tail of the product falls
  like 1/K, so a 1e-3 target would need K >= 12 (radius ~38); the check
  instead pins the final error inside the interval proven for K pairs,
  which the error with one pair fewer already leaves.
* 8 (profile extrema): U, A and B match their quoted closed forms to 1e-8.
  The quoted value (sqrt(2)-1)^2 for the lemniscate shift profile V is its
  minimum at the center, not its maximum; V grows with |theta| toward 1, so
  the check requires the located maximum to equal V at the ends of the
  searched domain |theta| <= pi/4 - EDGE_MARGIN (0.99717557) to 1e-8.
"""

import cmath
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import mpmath

import coulombstar as cs
from coulombstar.admissibility import EDGE_MARGIN

GOLDEN_DIR = Path(__file__).parent / "golden"
TOL = 1e-12


def verdict(number: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"ACCEPTANCE {number} ({label}): {status}{suffix}")
    return ok


def draw_params(rng, box, margin=0.2):
    while True:
        L = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        eta = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        w = 2 * L + 2
        if abs(w.imag) < margin and w.real < margin and abs(w.real - round(w.real)) < margin:
            continue
        if abs(L + 1) < margin:
            continue
        return cs.CoulombParams(L, eta)


def test_criterion_01_sine_degeneration():
    p = cs.CoulombParams(0.0, 0.0)
    rng = random.Random(101)
    ok = True
    for _ in range(50):
        z = 3.0 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        if abs(cs.eval_g(p, z).value - cmath.sin(z)) > 1e-12:
            ok = False
    zero_set = cs.find_zeros(p, 7.0)
    located = list(zero_set.zeros)
    # the positive-axis representatives quoted for the sine case ...
    for target in (math.pi, 2 * math.pi):
        if not any(abs(z - target) <= 1e-8 for z in located):
            ok = False
    # ... and, forced by the winding-count invariant, their mirror images
    expected = [math.pi, -math.pi, 2 * math.pi, -2 * math.pi]
    if len(located) != 4 or any(
        min(abs(z - e) for e in expected) > 1e-8 for z in located
    ):
        ok = False
    assert verdict(1, "sine degeneration", ok)


def test_criterion_02_coefficient_oracle_equivalence():
    rng = random.Random(202)
    worst = 0.0
    for _ in range(50):
        params = draw_params(rng, 3.0)
        ours = cs.make_coefficients(params, 30, 0.25)
        oracle = cs.kummer_oracle(params, 30)
        for a, b in zip(ours.coeffs, oracle.coeffs):
            scale = max(abs(a), abs(b))
            if scale == 0.0:
                continue
            worst = max(worst, abs(a - b) / scale)
    assert verdict(
        2, "coefficient oracle equivalence", worst <= 1e-12, f"worst rel {worst:.2e}"
    )


def test_criterion_03_ode_residuals():
    rng = random.Random(303)
    ok = True
    worst_ratio = 0.0
    done = 0
    while done < 100:
        params = draw_params(rng, 1.2, margin=0.3)
        z = 0.9 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        scale = max(
            abs(cs.eval_g(params, z).value),
            abs(cs.eval_g_prime(params, z).value),
            abs(cs.eval_g_second(params, z).value),
        )
        budget = 100 * TOL * (1 + abs(z) ** 2) * scale
        try:
            res_g = cs.ode_residual_g(params, z)
            res_p = cs.ode_residual_p(params, z)
        except cs.NearZeroOfG:
            continue
        worst_ratio = max(worst_ratio, res_g / budget, res_p / budget)
        if res_g > budget or res_p > budget:
            ok = False
        done += 1
    assert verdict(
        3, "differential-equation residuals", ok, f"worst ratio {worst_ratio:.2e}"
    )


def test_criterion_04_product_convergence():
    # sin z = z prod_k (1 - t_k), t_k = z^2/(k pi)^2.  With the K full pairs
    # +-k pi inside the radius, the error at real z is |sin z| (1/T_K - 1),
    # T_K = prod_{k>K} (1 - t_k).  From 1/(K+1) < sum_{k>K} k^-2 < 1/K,
    # 1/T_K - 1 >= -log T_K >= sum t_k and T_K >= 1 - sum t_k, the error lies
    # in (|sin z| z^2/(pi^2 (K+1)), |sin z| t/(1-t)] with t = z^2/(pi^2 K).
    p = cs.CoulombParams(0.0, 0.0)
    radius, z = 20.0, 0.5
    zero_set = cs.find_zeros(p, radius)
    report = cs.product_convergence_report(p, z, zero_set)
    errors = [err for _, err in report]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    K = math.floor(radius / math.pi)
    t = z**2 / (math.pi**2 * K)
    lower = abs(math.sin(z)) * z**2 / (math.pi**2 * (K + 1))
    upper = abs(math.sin(z)) * t / (1 - t)
    in_band = lower < errors[-1] <= upper
    assert verdict(
        4,
        "product convergence",
        decreasing and in_band,
        f"decreasing={decreasing}, final error {errors[-1]:.6e} "
        f"vs ({lower:.6e}, {upper:.6e}]",
    )


def test_criterion_05_lemniscate_instance():
    params = cs.CoulombParams(0.5, 0.1)
    satisfied, slack = cs.lemniscate_condition(params)
    start = time.perf_counter()
    report = cs.certify(params, cs.StarlikeClass.LEMNISCATE)
    elapsed = time.perf_counter() - start
    ok = (
        satisfied
        and abs(slack - 0.15355) <= 1e-5
        and report.certified
        and report.min_margin > 0
        and report.grid.angles_per_ring == 720
        and report.grid.r_max == 0.999
        and report.grid.points().shape == (720,)
        and elapsed < 5.0
    )
    assert verdict(
        5, "lemniscate instance", ok, f"slack {slack:.6f}, {elapsed:.2f}s"
    )


def test_criterion_06_exponential_instance():
    params = cs.CoulombParams(0.5, 0.1)
    satisfied, slack = cs.exponential_condition(params)
    start = time.perf_counter()
    report = cs.certify(params, cs.StarlikeClass.EXPONENTIAL)
    elapsed = time.perf_counter() - start
    ok = (
        satisfied
        and abs(slack - 0.03254) <= 1e-5
        and report.certified
        and elapsed < 5.0
    )
    assert verdict(
        6, "exponential instance", ok, f"slack {slack:.6f}, {elapsed:.2f}s"
    )


def test_criterion_07_sufficiency_sweep():
    L_range = (0.3, 0.7, 0.02)
    eta_range = (-0.1, 0.1, 0.01)
    ok = True
    counted = 0
    for flavor in (cs.StarlikeClass.LEMNISCATE, cs.StarlikeClass.EXPONENTIAL):
        rows = cs.parameter_scan(L_range, eta_range, flavor)
        assert len(rows) == 21 * 21
        for row in rows:
            if row.slack > 0:
                counted += 1
                if not row.certified:
                    ok = False
    assert verdict(
        7, "sufficiency sweep", ok, f"{counted} hypothesis points checked"
    )


def lemniscate_shift_exact(theta):
    """V(theta) = (sqrt(1 + u^2) - u)^2 with u = sqrt(cos 2 theta), in mpmath.

    sqrt(1 + u^2) - u = 1/(sqrt(1 + u^2) + u) falls as u grows, so V rises
    with |theta| from (sqrt(2)-1)^2 at the center toward 1 at the ends.
    """
    u = mpmath.sqrt(mpmath.cos(2 * theta))
    return (mpmath.sqrt(1 + u * u) - u) ** 2


def test_criterion_08_proof_extrema():
    ok = True
    details = []
    # V's maximum on the domain extremize searches, |theta| <= pi/4 - EDGE_MARGIN
    with mpmath.workdps(40):
        v_max = float(lemniscate_shift_exact(mpmath.pi / 4 - EDGE_MARGIN))
        v_center = float(lemniscate_shift_exact(mpmath.mpf(0)))
    for m in (1.0, 2.0, 5.0):
        for tag in ("U", "V", "A", "B"):
            report = cs.extremize(tag, m)
            if tag == "V":
                if abs(report.located_value - v_max) > 1e-8:
                    ok = False
                    details.append(
                        f"V@m={m:g} max {report.located_value!r} vs {v_max!r}"
                    )
                if abs(report.closed_form - v_center) > 1e-12 or not v_center < v_max:
                    ok = False
                    details.append(f"V quoted {report.closed_form!r} is not V(0)")
            elif report.abs_gap > 1e-8:
                ok = False
                details.append(f"{tag}@m={m:g} gap {report.abs_gap:.3e}")
    for check in cs.constant_checks():
        if check["abs_diff"] > 1e-12:
            ok = False
            details.append(f"constant {check['locus']} diff {check['abs_diff']:.3e}")
    assert verdict(8, "proof extrema", ok, "; ".join(details) or "all gaps in range")


def test_criterion_09_bound_chain():
    rng = random.Random(909)
    violations = 0
    for _ in range(10_000):
        if rng.random() < 0.5:
            locus = "lemniscate"
            theta = rng.uniform(-math.pi / 4 + 1e-9, math.pi / 4 - 1e-9)
        else:
            locus = "exponential"
            theta = rng.uniform(0.0, 2 * math.pi - 1e-12)
        m = rng.uniform(1.0, 10.0)
        params = draw_params(rng, 2.0)
        z = 0.999 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        _, bound = cs.psi_lower_bound(params, locus, theta, m, z)
        if bound.abs_psi < bound.chain_value:
            violations += 1
    assert verdict(9, "bound chain", violations == 0, f"{violations} violations")


GOLDEN_CASES = [
    ("eval_g", ["eval", "--L", "0", "--eta", "0", "--z", "1", "--function", "g"], 0),
    ("coeffs", ["coeffs", "--L", "0", "--eta", "1", "--order", "8", "--radius", "1.0"], 0),
    ("zeros", ["zeros", "--L", "0", "--eta", "0", "--radius", "4"], 0),
    ("certify_lemniscate",
     ["certify", "--L", "0.5", "--eta", "0.1", "--class", "lemniscate"], 0),
    ("scan",
     ["scan", "--L-min", "0.4", "--L-max", "0.6", "--L-step", "0.1",
      "--eta-min", "0", "--eta-max", "0.1", "--eta-step", "0.05",
      "--class", "lemniscate"], 0),
    ("verify_lemmas", ["verify-lemmas", "--m", "1"], 1),
]


def test_criterion_10_cli_determinism():
    env = {k: v for k, v in os.environ.items() if k != "COULOMB_TOL"}
    ok = True
    details = []
    for name, args, expected_exit in GOLDEN_CASES:
        proc = subprocess.run(
            [sys.executable, "-m", "coulombstar", *args],
            capture_output=True,
            env=env,
        )
        golden = (GOLDEN_DIR / f"{name}.txt").read_bytes()
        if proc.returncode != expected_exit:
            ok = False
            details.append(f"{name}: exit {proc.returncode} != {expected_exit}")
        if proc.stdout != golden:
            ok = False
            details.append(f"{name}: stdout differs from golden")
    assert verdict(
        10, "CLI determinism and exit codes", ok, "; ".join(details) or "6 cases"
    )
