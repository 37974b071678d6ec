"""Command-line interface.

Exit codes are part of the contract:

    0   success (or: certification succeeded, all lemma checks passed)
    1   clean negative (not certified / some lemma check has a gap)
    2   usage or argument parse error
    3   invalid parameters (polar set, gamma pole)
    4   evaluation failure (branch point, near-zero denominator,
        non-converging truncation, domain violation)
    5   winding count mismatch while locating zeros

stdout is byte-deterministic for identical invocations: JSON is emitted with
insertion-ordered keys and every float rendered at 17 significant digits
(non-finite values follow the Infinity / -Infinity / NaN convention).  The
scan subcommand emits CSV instead, with the fixed header
L,eta,slack,min_margin,certified.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys

import click

from .analytic import eval_p
from .errors import (
    BranchPoint,
    DomainError,
    InvalidParams,
    NearZeroOfG,
    NoConvergence,
    PoleError,
    WindingMismatch,
)
from .series import (
    DEFAULT_TOL,
    CoulombParams,
    eval_f,
    eval_g,
    make_coefficients,
)

LEMMA_GAP_TOL = 1e-8


# ---------------------------------------------------------------------------
# deterministic rendering

def _render_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def render_json(obj) -> str:
    """Small JSON emitter with fixed float formatting and stable key order."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _render_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {render_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot render {type(obj)!r}")


class ComplexParam(click.ParamType):
    """Complex numbers written as a+bi (also plain a, bi, a-bi)."""

    name = "complex"

    def convert(self, value, param, ctx):
        if isinstance(value, complex):
            return value
        # only a final i (before optional spaces and a closing parenthesis)
        # is the imaginary unit, so inf and Infinity keep theirs
        text = re.sub(r"[iI](?=\s*\)?$)", "j", str(value).strip())
        try:
            return complex(text)
        except ValueError:
            self.fail(f"{value!r} is not a complex number like a+bi", param, ctx)


COMPLEX = ComplexParam()

_tol_option = click.option(
    "--tol",
    type=click.FloatRange(min=0, min_open=True),
    default=DEFAULT_TOL,
    envvar="COULOMB_TOL",
    show_default=True,
    help="Evaluation tolerance (env COULOMB_TOL, flag wins).",
)


def _exit_for(exc: Exception) -> int:
    if isinstance(exc, (InvalidParams, PoleError)):
        return 3
    if isinstance(exc, (NearZeroOfG, BranchPoint, NoConvergence, DomainError)):
        return 4
    if isinstance(exc, WindingMismatch):
        return 5
    raise exc


def _runs(command):
    """Run a subcommand and exit with the code it returns.

    A library refusal exits 3, 4 or 5 with "error: <message>" on stderr.
    _exit_for raises anything else again, a click.ClickException included,
    so usage errors keep exit 2.  It goes directly under @main.command,
    above the option decorators below, so that the objects they build are
    refused here too.
    """

    @functools.wraps(command)
    def run(**options):
        try:
            code = command(**options)
        except Exception as exc:
            code = _exit_for(exc)
            click.echo(f"error: {exc}", err=True)
        sys.exit(code)

    return run


def _params_options(command):
    """--L and --eta, handed to the command as one CoulombParams."""

    @functools.wraps(command)
    def run(L: complex, eta: complex, **options):
        return command(params=CoulombParams(L=L, eta=eta), **options)

    run = click.option("--eta", type=COMPLEX, required=True, help="Sommerfeld parameter.")(run)
    return click.option("--L", "L", type=COMPLEX, required=True, help="Order parameter.")(run)


def _certify_options(command):
    """--class, --angles and --r-max, handed to certify and scan as a StarlikeClass and a ScanGrid.

    The class names are StarlikeClass's values, spelled out so that building
    the parser does not load starlike and numpy.
    """

    @functools.wraps(command)
    def run(flavor: str, angles: int, r_max: float, **options):
        from .starlike import ScanGrid, StarlikeClass

        return command(flavor=StarlikeClass(flavor), grid=ScanGrid(angles, r_max), **options)

    classes = click.Choice(["classical", "lemniscate", "exponential"])
    run = click.option("--r-max", type=float, default=0.999, show_default=True)(run)
    run = click.option("--angles", type=int, default=720, show_default=True)(run)
    return click.option("--class", "flavor", type=classes, required=True)(run)


def _complex_dict(w: complex) -> dict:
    return {"re": w.real, "im": w.imag}


@click.group()
def main() -> None:
    """Coulomb wave series evaluation and starlikeness certification."""


@main.command("eval")
@_runs
@_params_options
@click.option("--z", type=COMPLEX, required=True, help="Evaluation point.")
@click.option(
    "--function",
    type=click.Choice(["f", "g", "P"]),
    default="g",
    show_default=True,
    help="f: regular wave function, g: normalized form, P: z g'/g.",
)
@_tol_option
def cmd_eval(params: CoulombParams, z: complex, function: str, tol: float) -> int:
    """Evaluate f, g or P at a point and print value plus error bound."""
    if function == "P":
        ratio = eval_p(params, z, tol)
        value, abs_error = ratio.P, ratio.abs_error
    else:
        result = (eval_g if function == "g" else eval_f)(params, z, tol)
        value, abs_error = result.value, result.abs_error
    click.echo(render_json({"value": _complex_dict(value), "abs_error": abs_error}))
    return 0


@main.command("coeffs")
@_runs
@_params_options
@click.option("--order", type=int, default=30, show_default=True)
@click.option("--radius", type=float, default=1.0, show_default=True)
def cmd_coeffs(params: CoulombParams, order: int, radius: float) -> int:
    """Print the series coefficient table with its certified tail bound."""
    click.echo(render_json(make_coefficients(params, order, radius).to_jsonable()))
    return 0


@main.command("zeros")
@_runs
@_params_options
@click.option("--radius", type=float, default=10.0, show_default=True,
              help="Trust radius for the zero search.")
@_tol_option
def cmd_zeros(params: CoulombParams, radius: float, tol: float) -> int:
    """List zeros inside the trust radius (winding-count validated)."""
    from .zeros import find_zeros

    click.echo(render_json(find_zeros(params, radius, tol).to_jsonable()))
    return 0


@main.command("certify")
@_runs
@_params_options
@_certify_options
@_tol_option
def cmd_certify(params: CoulombParams, flavor, grid, tol: float) -> int:
    """Certify the requested starlikeness flavor on the circle |z| = r-max."""
    from .starlike import certify

    report = certify(params, flavor, grid, tol)
    click.echo(render_json(report.to_jsonable()))
    return 0 if report.certified else 1


@main.command("scan")
@_runs
@click.option("--l-min", "--L-min", "L_min", type=float, required=True)
@click.option("--l-max", "--L-max", "L_max", type=float, required=True)
@click.option("--l-step", "--L-step", "L_step", type=float, required=True)
@click.option("--eta-min", type=float, required=True)
@click.option("--eta-max", type=float, required=True)
@click.option("--eta-step", type=float, required=True)
@_certify_options
@_tol_option
def cmd_scan(
    L_min: float, L_max: float, L_step: float,
    eta_min: float, eta_max: float, eta_step: float,
    flavor, grid, tol: float,
) -> int:
    """Sweep a real parameter rectangle and emit one CSV row per pair."""
    from .starlike import parameter_scan

    rows = parameter_scan((L_min, L_max, L_step), (eta_min, eta_max, eta_step), flavor, grid, tol)
    lines = ["L,eta,slack,min_margin,certified"]
    for row in rows:
        fields = map(_render_float, (row.L, row.eta, row.slack, row.min_margin))
        lines.append(",".join((*fields, "true" if row.certified else "false")))
    click.echo("\n".join(lines))
    return 0


@main.command("verify-lemmas")
@_runs
@click.option(
    "--m",
    "m_list",
    default="1,2,5",
    show_default=True,
    help="Comma-separated list of m values (each >= 1).",
)
def cmd_verify_lemmas(m_list: str) -> int:
    """Recheck the quoted profile extrema and threshold identities.

    Exit 0 only when every located extremum matches its closed form to 1e-8
    and both threshold identities hold.
    """
    try:
        ms = [float(part) for part in m_list.split(",") if part.strip()]
    except ValueError:
        raise click.UsageError(f"cannot parse m list {m_list!r}")
    if not ms:
        raise click.UsageError("m list is empty")
    for m in ms:
        if not math.isfinite(m):
            raise click.UsageError(f"m must be finite, got {m}")
        if m < 1:
            raise click.UsageError(f"m must be >= 1, got {m}")

    from .admissibility import EXTREMIZE_MODES, constant_checks, extremize

    # the maximized shift profiles do not depend on m, and a list may repeat a value
    found: dict[tuple, dict] = {}
    reports = []
    for m in ms:
        for tag, mode in EXTREMIZE_MODES.items():
            key = (tag, m if mode == "min" else None)
            if key not in found:
                found[key] = extremize(tag, m).to_jsonable()
            reports.append(found[key])
    checks = constant_checks()
    click.echo(render_json({"reports": reports, "constant_checks": checks}))
    all_pass = all(r["abs_gap"] <= LEMMA_GAP_TOL for r in reports) and all(
        c["consistent"] for c in checks
    )
    return 0 if all_pass else 1


if __name__ == "__main__":
    main()
