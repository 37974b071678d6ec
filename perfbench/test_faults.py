"""Fault-injection self-test of the benchmark's output checks.

    python3 -m pytest perfbench/test_faults.py

Each test drives the first ops of one workload through the benchmark's own
loop twice: once as the library answers, when nothing may fail, and once
with a fault injected between the library and the checks, which the checks
must catch.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import coulombstar as cs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 11


class Tampered:
    """An op's call whose output passes through `change` before the checks."""

    def __init__(self, call, change) -> None:
        self.call, self.change = call, change

    def __getattr__(self, name):
        return getattr(self.call, name)

    def __call__(self):
        return self.change(self.call())


def drive(workload_cls, ops: int, seconds: float = 1e-9, change=None, expect=None):
    """Run the workload's first `ops` inputs; a tiny `seconds` runs one op."""
    workload = workload_cls(SEED)
    workload.ops = workload.ops[:ops]
    workload.prepare()
    if expect is not None:
        expect(workload)
    if change is not None:
        for op in workload.ops:
            op.call = Tampered(op.call, change)
    result = run.run_loop(workload, seconds)
    result["failed"] = run.verify_outputs(workload, result)
    return workload, result


def test_pointwise_value_moved_by_1e9_fails():
    def nudge(out):
        if isinstance(out, cs.ComplexValue):
            return dataclasses.replace(out, value=out.value + 1e-9 * max(1.0, abs(out.value)))
        return dataclasses.replace(out, P=out.P + 1e-9 * max(1.0, abs(out.P)))

    _, clean = drive(workloads.Pointwise, 50, seconds=0.2)
    _, broken = drive(workloads.Pointwise, 50, seconds=0.2, change=nudge)
    assert clean["failed"] == 0
    assert broken["failed"] == broken["attempted"] > 0


def test_pointwise_shrunken_abs_error_violates_bound():
    def shrink(out):
        if isinstance(out, cs.ComplexValue):
            return dataclasses.replace(out, abs_error=out.abs_error * 1e-6)
        return out

    clean, _ = drive(workloads.Pointwise, 50, seconds=0.2)
    broken, result = drive(workloads.Pointwise, 50, seconds=0.2, change=shrink)
    held_clean = clean.bound_held / clean.bound_checked
    held_broken = broken.bound_held / broken.bound_checked
    assert result["failed"] == 0
    assert held_broken < held_clean


def test_cli_changed_golden_byte_fails():
    def flip_byte(workload):
        op = workload.ops[0]
        assert op.info["golden"] == "eval_g"
        code, stdout = workload.expected[op.key]
        workload.expected[op.key] = (code, stdout[:5] + bytes([stdout[5] ^ 1]) + stdout[6:])

    _, clean = drive(workloads.Cli, 1)
    _, broken = drive(workloads.Cli, 1, expect=flip_byte)
    assert clean["failed"] == 0
    assert broken["failed"] == broken["attempted"] == 1


def test_cli_typed_refusal_is_not_a_failure():
    """Exit 3-5 with empty stdout obeys the CLI contract: refused, not failed.

    An invalid L is refused on a well-posed request (eval asks nothing of the
    oracle), so it counts against answered_frac; a trust circle through the
    zero pi is ill posed, so its winding-mismatch refusal counts nowhere.
    """
    cases = (
        (("eval", "--L", "-1", "--eta", "0", "--z", "1", "--function", "g"), 3, "refused"),
        (("zeros", "--L", "0", "--eta", "0", "--radius", repr(math.pi)), 5, "ill_posed"),
    )
    for args, code, counted in cases:
        def swap_in(workload):
            op = workload.ops[0]
            op.call.args = args
            op.info = {"args": args}
            workload.expected[op.key] = workloads.in_process(args)
            assert workload.expected[op.key] == (code, b"")
            op.info["contract"] = workload._contract(op)

        _, result = drive(workloads.Cli, 1, expect=swap_in)
        assert result["failed"] == 0
        assert result[counted] == 1
        assert result["refused"] + result["ill_posed"] == 1


def test_zeros_moved_zero_fails():
    def move(out):
        zero_set, report = out
        zeros = (zero_set.zeros[0] * (1 + 1e-7),) + zero_set.zeros[1:]
        return dataclasses.replace(zero_set, zeros=zeros), report

    _, clean = drive(workloads.Zeros, 1)
    _, broken = drive(workloads.Zeros, 1, change=move)
    assert clean["failed"] == 0
    assert broken["failed"] == 1


def test_zeros_largest_zero_moved_by_1e10_fails():
    """The outermost zero, moved by 1e-10 relative, on inputs with R in 5-19.

    The gate scales with the series' size at |rho|, so the shift is caught
    wherever it exceeds the library's own rounding floor: on every input
    whose outermost zero has |rho| <= 15, sine cases included.  Beyond that
    a 1e-10 shift is smaller than eps * S and no sound check can see it.
    """
    def move_last(out):
        zero_set, report = out
        zeros = zero_set.zeros[:-1] + (zero_set.zeros[-1] * (1 + 1e-10),)
        return dataclasses.replace(zero_set, zeros=zeros), report

    caught = 0
    for key in range(16):
        def only(workload, key=key):
            workload.ops = [dataclasses.replace(workload.ops[key], key=0)]

        workload, clean = drive(workloads.Zeros, 16, expect=only)
        outermost = abs(workload.first_outputs[0][0].zeros[-1])
        _, broken = drive(workloads.Zeros, 16, change=move_last, expect=only)
        assert clean["failed"] == 0
        if outermost <= 15:
            assert broken["failed"] == 1, (key, outermost)
            caught += 1
    assert caught >= 10


def test_sweep_margin_above_eval_p_fails():
    def raise_margin(rows):
        return [dataclasses.replace(rows[0], min_margin=rows[0].min_margin + 0.1), *rows[1:]]

    _, clean = drive(workloads.Sweep, 1)
    _, broken = drive(workloads.Sweep, 1, change=raise_margin)
    assert clean["failed"] == 0
    assert broken["failed"] == 1
