"""CLI contract tests: payload shapes, exit codes, and determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import coulombstar
from coulombstar import StarlikeClass, WindingMismatch
from coulombstar.cli import ComplexParam, main, render_json


@pytest.fixture()
def runner():
    return CliRunner()


GOLDEN_DIR = Path(__file__).parent / "golden"


def invoke(runner, args, env=None):
    return runner.invoke(main, args, env=env, catch_exceptions=False)


class TestRenderJson:
    def test_float_formatting(self):
        assert render_json(1.0) == "1"
        assert render_json(0.1) == "0.10000000000000001"
        assert render_json(float("nan")) == "NaN"
        assert render_json(float("inf")) == "Infinity"
        assert render_json(float("-inf")) == "-Infinity"

    def test_structures(self):
        assert render_json({"a": [1, True, None]}) == '{"a": [1, true, null]}'

    def test_key_order_is_insertion_order(self):
        assert render_json({"b": 1, "a": 2}) == '{"b": 1, "a": 2}'


class TestEval:
    def test_g_at_one(self, runner):
        result = invoke(runner, ["eval", "--L", "0", "--eta", "0", "--z", "1"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["value"]["re"] == pytest.approx(math.sin(1.0), abs=1e-12)
        assert payload["value"]["im"] == 0.0
        assert payload["abs_error"] >= 0.0

    def test_p_at_origin(self, runner):
        result = invoke(
            runner, ["eval", "--L", "0", "--eta", "0", "--z", "0", "--function", "P"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload == {"value": {"re": 1.0, "im": 0.0}, "abs_error": 0.0}

    def test_p_matches_golden(self, runner):
        # value and abs_error of P, byte for byte
        result = invoke(
            runner,
            ["eval", "--L", "0.5", "--eta", "0.1", "--z", "0.3+0.4i", "--function", "P"],
        )
        assert result.exit_code == 0
        assert result.stdout == (GOLDEN_DIR / "eval_p.txt").read_text()

    def test_gamma_overflow_exit_four(self, runner):
        result = invoke(
            runner,
            ["eval", "--L", "85", "--eta", "0.1", "--z", "0.5", "--function", "f"],
        )
        assert result.exit_code == 4
        assert result.stdout == ""
        assert "gamma" in result.stderr

    @pytest.mark.parametrize("eta", ["-452", "-455"])
    def test_normalization_overflow_exit_four(self, runner, eta):
        result = invoke(
            runner,
            ["eval", "--L", "0", "--eta", eta, "--z", "0.5", "--function", "f"],
        )
        assert result.exit_code == 4
        assert result.stdout == ""

    def test_f_matches_g_for_sine(self, runner):
        result = invoke(
            runner, ["eval", "--L", "0", "--eta", "0", "--z", "1", "--function", "f"]
        )
        payload = json.loads(result.output)
        assert payload["value"]["re"] == pytest.approx(math.sin(1.0), abs=1e-12)

    def test_complex_flag_syntax(self, runner):
        result = invoke(runner, ["eval", "--L", "0", "--eta", "0", "--z", "0.3+0.4i"])
        assert result.exit_code == 0
        result = invoke(runner, ["eval", "--L", "0", "--eta", "0", "--z", "-0.5i"])
        assert result.exit_code == 0

    def test_parse_error_exits_two(self, runner):
        result = invoke(runner, ["eval", "--L", "0", "--eta", "0", "--z", "zebra"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text, value", [
        ("1+2i", 1 + 2j), ("2I", 2j), ("-i", -1j), ("i", 1j), ("1e-3-2.5i", 0.001 - 2.5j),
        ("(1+2i)", 1 + 2j), ("( 1+2i )", 1 + 2j), ("1+2j", 1 + 2j), ("inf", complex(math.inf, 0.0)),
        ("Infinity", complex(math.inf, 0.0)), ("-infi", complex(0.0, -math.inf)),
    ])
    def test_complex_param_syntax(self, text, value):
        # only a final i is the imaginary unit, so the i of inf stays put
        assert ComplexParam().convert(text, None, None) == value

    @pytest.mark.parametrize("flag, text, code", [
        ("--L", "inf", 3), ("--L", "nan", 3), ("--eta", "Infinity", 3), ("--eta", "-infi", 3),
        ("--z", "inf", 4), ("--z", "infi", 4), ("--z", "-Infinity", 4), ("--z", "nan", 4),
    ])
    def test_nonfinite_values_are_refused_not_misparsed(self, runner, flag, text, code):
        # parameters refuse with InvalidParams (3), a point with DomainError (4)
        args = {"--L": "0", "--eta": "0", "--z": "0.5", flag: text}
        result = invoke(runner, ["eval", *(item for pair in args.items() for item in pair)])
        assert result.exit_code == code
        assert result.stdout == ""

    def test_invalid_params_exit_three(self, runner):
        result = invoke(runner, ["eval", "--L", "-1", "--eta", "0", "--z", "0.5"])
        assert result.exit_code == 3
        assert "error:" in result.stderr

    def test_branch_point_exit_four(self, runner):
        result = invoke(
            runner,
            ["eval", "--L", "-0.5", "--eta", "0", "--z", "0", "--function", "f"],
        )
        assert result.exit_code == 4

    def test_near_zero_exit_four(self, runner):
        result = invoke(
            runner,
            ["eval", "--L", "0", "--eta", "5", "--z", "-0.362658574621303",
             "--function", "P"],
        )
        assert result.exit_code == 4

    def test_domain_error_exit_four(self, runner):
        result = invoke(
            runner, ["eval", "--L", "0", "--eta", "0", "--z", "2", "--function", "P"]
        )
        assert result.exit_code == 4

    def test_tol_env_and_flag_precedence(self, runner):
        loose = invoke(
            runner,
            ["eval", "--L", "0", "--eta", "0", "--z", "2.8"],
            env={"COULOMB_TOL": "1e-3"},
        )
        tight = invoke(
            runner,
            ["eval", "--L", "0", "--eta", "0", "--z", "2.8", "--tol", "1e-12"],
            env={"COULOMB_TOL": "1e-3"},
        )
        err_loose = json.loads(loose.output)["abs_error"]
        err_tight = json.loads(tight.output)["abs_error"]
        assert err_loose <= 1e-3
        assert err_tight <= 1e-12
        assert err_tight < err_loose

    def test_nonpositive_tol_exit_two(self, runner):
        result = invoke(
            runner, ["eval", "--L", "0", "--eta", "0", "--z", "1", "--tol", "-1"]
        )
        assert result.exit_code == 2
        result = invoke(
            runner, ["eval", "--L", "0", "--eta", "0", "--z", "1"], env={"COULOMB_TOL": "0"}
        )
        assert result.exit_code == 2


class TestCoeffs:
    def test_payload_shape(self, runner):
        result = invoke(runner, ["coeffs", "--L", "0", "--eta", "1", "--order", "8"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["order"] == 8
        assert len(payload["coeffs"]) == 9
        assert payload["coeffs"][0] == {"re": 1.0, "im": 0.0}
        assert payload["tail_bound"] >= 0.0

    def test_bad_order_exit_three(self, runner):
        result = invoke(runner, ["coeffs", "--L", "0", "--eta", "0", "--order", "1"])
        assert result.exit_code == 3


class TestZeros:
    def test_sine_radius_four(self, runner):
        result = invoke(runner, ["zeros", "--L", "0", "--eta", "0", "--radius", "4"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        res = sorted(z["re"] for z in payload["zeros"])
        assert res == pytest.approx([-math.pi, math.pi], abs=1e-8)
        assert all(z["residual"] <= 1e-10 for z in payload["zeros"])

    def test_sine_radius_one_empty(self, runner):
        result = invoke(runner, ["zeros", "--L", "0", "--eta", "0", "--radius", "1"])
        assert result.exit_code == 0
        assert json.loads(result.output)["zeros"] == []

    def test_polar_parameter_exit_three(self, runner):
        result = invoke(runner, ["zeros", "--L", "-1.5", "--eta", "0", "--radius", "2"])
        assert result.exit_code == 3

    def test_hopeless_radius_exit_four(self, runner):
        result = invoke(runner, ["zeros", "--L", "0", "--eta", "0", "--radius", "200"])
        assert result.exit_code == 4

    def test_underflowed_table_exit_five(self, runner):
        # the double pi lies 1.2e-16 inside the zero pi: the count is
        # unproven, which refuses before any eigensolve
        result = invoke(runner, ["zeros", "--L", "0", "--eta", "0", "--radius", repr(math.pi)])
        assert result.exit_code == 5
        assert result.stdout == ""
        assert "unproven" in result.stderr

    def test_underflowed_table_answers(self, runner):
        # at 38 the table's trailing coefficients underflow, which leaves a
        # circle count unproven; the Jacobi matrix's inertia proves 24 zeros
        result = invoke(runner, ["zeros", "--L", "0", "--eta", "0", "--radius", "38"])
        assert result.exit_code == 0
        res = sorted(z["re"] for z in json.loads(result.output)["zeros"])
        assert res == pytest.approx([k * math.pi for k in range(-12, 13) if k], rel=2e-14)

    @pytest.mark.parametrize("radius, shown", [("0", "0.0"), ("nan", "nan"), ("1e-320", "1e-320")])
    def test_refused_radius_names_the_rule(self, runner, radius, shown):
        # a trust radius has no upper bound, so the rule reads without "below inf"
        result = invoke(runner, ["zeros", "--L", "0", "--eta", "0", "--radius", radius])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == f"error: trust_radius must be a finite normal double, got {shown}\n"

    def test_winding_mismatch_exit_five(self, runner, monkeypatch):
        def broken(params, radius, tol):
            raise WindingMismatch("forced for the exit-code contract")

        # the zeros command imports find_zeros from its module on each call
        monkeypatch.setattr(coulombstar.zeros, "find_zeros", broken)
        result = invoke(runner, ["zeros", "--L", "0", "--eta", "0", "--radius", "4"])
        assert result.exit_code == 5
        assert "forced" in result.stderr


class TestTinyRadius:
    @pytest.mark.parametrize("args", [
        ["eval", "--z", "1e-200"],
        ["eval", "--z", "1e-200", "--function", "f"],
        ["eval", "--z", "1e-200", "--function", "P"],
        ["coeffs", "--radius", "1e-200"],
        ["zeros", "--radius", "1e-300"],
    ])
    def test_answers_or_refuses(self, runner, args):
        # r^2 underflows to 0 here; a crash would raise through invoke.  g ~ z
        # at the origin, so a tiny g is no zero of g and P answers 1 as well
        result = invoke(runner, args + ["--L", "0.3", "--eta", "0.2"])
        assert result.exit_code == 0

    def test_certify_reports(self, runner):
        args = ["certify", "--class", "classical", "--r-max", "1e-200"]
        result = invoke(runner, args + ["--L", "0.3", "--eta", "0.2"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["grid"]["r_max"] == 1e-200
        assert report["certified"] is True
        assert report["zero_in_disk"] is False
        assert report["min_margin"] == pytest.approx(1.0)

    @pytest.mark.parametrize("radius", ["1e-310", "1e-320", "5e-324"])
    def test_zeros_refuses_subnormal_radius(self, runner, radius):
        # refused before the count, whose angle steps overflow there
        result = invoke(runner, ["zeros", "--L", "0", "--eta", "0", "--radius", radius])
        assert result.exit_code == 3
        assert result.stdout == ""

    @pytest.mark.parametrize("radius", [repr(sys.float_info.min), "1e-300"])
    def test_zeros_answers_at_the_least_normal_radius(self, runner, radius):
        result = invoke(runner, ["zeros", "--L", "0", "--eta", "0", "--radius", radius])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["zeros"] == []

    @pytest.mark.parametrize("r_max", ["5e-324", "1e-310"])
    def test_certify_refuses_subnormal_radius(self, runner, r_max):
        args = ["certify", "--class", "classical", "--r-max", r_max]
        result = invoke(runner, args + ["--L", "0.3", "--eta", "0.2"])
        assert result.exit_code == 3
        assert result.stdout == ""


class TestCertify:
    def test_lemniscate_instance_exit_zero(self, runner):
        result = invoke(
            runner,
            ["certify", "--L", "0.5", "--eta", "0.1", "--class", "lemniscate"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["certified"] is True
        assert payload["hypothesis_satisfied"] is True
        assert payload["class"] == "lemniscate"

    def test_exponential_instance_exit_zero(self, runner):
        result = invoke(
            runner,
            ["certify", "--L", "0.5", "--eta", "0.1", "--class", "exponential"],
        )
        assert result.exit_code == 0

    def test_clean_negative_exit_one(self, runner):
        result = invoke(
            runner,
            ["certify", "--L", "-0.9", "--eta", "0", "--class", "classical"],
        )
        assert result.exit_code == 1
        assert json.loads(result.output)["certified"] is False

    @pytest.mark.parametrize("command", ["certify", "scan"])
    def test_class_choices_are_the_starlike_classes(self, command):
        # the parser spells the names out so that it need not load starlike
        option = next(p for p in main.commands[command].params if p.name == "flavor")
        assert list(option.type.choices) == [c.value for c in StarlikeClass]

    def test_unknown_class_exit_two(self, runner):
        result = invoke(
            runner,
            ["certify", "--L", "0.5", "--eta", "0.1", "--class", "frobnicate"],
        )
        assert result.exit_code == 2

    def test_custom_grid_flags(self, runner):
        result = invoke(
            runner,
            ["certify", "--L", "0.5", "--eta", "0.1", "--class", "lemniscate",
             "--angles", "90", "--r-max", "0.9"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["grid"] == {"angles_per_ring": 90, "r_max": 0.9}

    @pytest.mark.parametrize("command", [
        ["certify", "--L", "0.5", "--eta", "0.1"],
        ["scan", "--L-min", "0.5", "--L-max", "0.5", "--L-step", "0.1",
         "--eta-min", "0", "--eta-max", "0", "--eta-step", "0.1"],
    ])
    def test_rings_flag_is_gone(self, runner, command):
        result = invoke(runner, command + ["--class", "lemniscate", "--rings", "10"])
        assert result.exit_code == 2
        assert "--rings" in result.output

    @pytest.mark.parametrize("command", [
        ["certify", "--L", "0.5", "--eta", "0.1"],
        ["scan", "--L-min", "0.5", "--L-max", "0.5", "--L-step", "0.1",
         "--eta-min", "0", "--eta-max", "0", "--eta-step", "0.1"],
    ])
    def test_huge_angles_exit_three(self, runner, command):
        # the grid is refused before its sample array is allocated
        result = invoke(
            runner, command + ["--class", "lemniscate", "--angles", "1000000000000000"]
        )
        assert result.exit_code == 3
        assert result.stdout == ""


class TestScan:
    def test_csv_output(self, runner):
        result = invoke(
            runner,
            ["scan", "--L-min", "0.4", "--L-max", "0.6", "--L-step", "0.1",
             "--eta-min", "0", "--eta-max", "0.1", "--eta-step", "0.05",
             "--class", "lemniscate", "--angles", "90"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "L,eta,slack,min_margin,certified"
        assert len(lines) == 1 + 9
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 5
            assert fields[4] in ("true", "false")
            if float(fields[2]) > 0:
                assert fields[4] == "true"

    @pytest.mark.parametrize("axis", ["L", "eta"])
    @pytest.mark.parametrize(
        "flag, value",
        [("step", "nan"), ("step", "inf"), ("min", "-inf"), ("max", "inf"), ("min", "nan")],
    )
    def test_nonfinite_range_exit_three(self, runner, axis, flag, value):
        keys = ("min", "max", "step")
        ranges = {"L": ["0.4", "0.5", "0.1"], "eta": ["0", "0", "0.1"]}
        ranges[axis][keys.index(flag)] = value
        args = ["scan", "--class", "classical", "--angles", "12"]
        for name, values in ranges.items():
            for key, text in zip(keys, values):
                args += [f"--{name}-{key}", text]
        result = invoke(runner, args)
        assert result.exit_code == 3
        assert result.stdout == ""

    @pytest.mark.parametrize("axis", ["L", "eta"])
    def test_too_many_steps_exit_three(self, runner, axis):
        # 1e299 lattice values would be listed before the first pair is scanned
        args = ["scan", "--class", "classical", "--angles", "12",
                "--L-min", "0.4", "--L-max", "0.5", "--L-step", "0.1",
                "--eta-min", "0", "--eta-max", "0.1", "--eta-step", "0.1"]
        args[args.index(f"--{axis}-step") + 1] = "1e-300"
        result = invoke(runner, args)
        assert result.exit_code == 3
        assert result.stdout == ""

    def test_lowercase_flag_aliases(self, runner):
        result = invoke(
            runner,
            ["scan", "--l-min", "0.5", "--l-max", "0.5", "--l-step", "0.1",
             "--eta-min", "0", "--eta-max", "0", "--eta-step", "0.1",
             "--class", "classical", "--angles", "36"],
        )
        assert result.exit_code == 0
        assert len(result.output.strip().splitlines()) == 2


class TestVerifyLemmas:
    def test_default_shape_and_honest_exit(self, runner):
        result = invoke(runner, ["verify-lemmas"])
        payload = json.loads(result.output)
        assert len(payload["reports"]) == 12  # 4 profiles x 3 m values
        assert len(payload["constant_checks"]) == 2
        # the lemniscate shift profile's quoted center value is not its
        # maximum (the profile peaks at the interval edge), so the honest
        # verdict for the full sweep is a clean negative
        gaps = {
            r["function_tag"]: r["abs_gap"] for r in payload["reports"]
        }
        assert gaps["U"] <= 1e-8
        assert gaps["A"] <= 1e-8
        assert gaps["B"] <= 1e-8
        assert gaps["V"] > 0.8
        assert result.exit_code == 1

    def test_single_m(self, runner):
        result = invoke(runner, ["verify-lemmas", "--m", "1"])
        payload = json.loads(result.output)
        assert len(payload["reports"]) == 4

    def test_m_below_one_exit_two(self, runner):
        result = invoke(runner, ["verify-lemmas", "--m", "0.5"])
        assert result.exit_code == 2

    def test_unparseable_m_exit_two(self, runner):
        result = invoke(runner, ["verify-lemmas", "--m", "one"])
        assert result.exit_code == 2

    def test_empty_m_list_exit_two(self, runner):
        result = invoke(runner, ["verify-lemmas", "--m", ","])
        assert result.exit_code == 2
        assert "m list is empty" in result.stderr

    @pytest.mark.parametrize("m_list", ["nan", "inf", "-inf", "1,nan"])
    def test_nonfinite_m_exit_two(self, runner, m_list):
        result = invoke(runner, ["verify-lemmas", "--m", m_list])
        assert result.exit_code == 2
        assert result.stdout == ""

    @pytest.mark.parametrize("m", ["1e308", "1e152"])
    def test_huge_m_exit_four(self, runner, m):
        # U overflows on the grid's ends; a refusal, not a traceback
        result = invoke(runner, ["verify-lemmas", "--m", m])
        assert result.exit_code == 4
        assert result.stdout == ""
        assert result.stderr.startswith("error:")

    def test_repeated_m_repeats_reports(self, runner):
        single = json.loads(invoke(runner, ["verify-lemmas", "--m", "1"]).stdout)
        result = invoke(runner, ["verify-lemmas", "--m", "1,1"])
        assert result.exit_code == 1
        payload = json.loads(result.stdout)
        assert payload["reports"] == single["reports"] * 2
        assert payload["constant_checks"] == single["constant_checks"]


class TestRefusals:
    @pytest.mark.parametrize("args, code", [
        (["eval", "--L", "-1", "--eta", "0", "--z", "0.5"], 3),
        (["coeffs", "--L", "-1", "--eta", "0"], 3),
        (["certify", "--L", "-1", "--eta", "0", "--class", "classical"], 3),
        (["certify", "--L", "0.5", "--eta", "0.1", "--class", "classical", "--angles", "0"], 3),
        (["scan", "--L-min", "0.4", "--L-max", "0.5", "--l-step", "0",
          "--eta-min", "0", "--eta-max", "0", "--eta-step", "0.1", "--class", "classical"], 3),
        (["verify-lemmas", "--m", "1e200"], 4),
        (["zeros", "--L", "0", "--eta", "0", "--radius", "3.141592653589793"], 5),
    ], ids=["eval", "coeffs", "certify", "certify-angles", "scan", "verify-lemmas", "zeros"])
    def test_refusal_is_one_error_line(self, runner, args, code):
        # every subcommand reports a library refusal the same way
        result = invoke(runner, args)
        assert result.exit_code == code
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")


class TestHelp:
    @pytest.mark.parametrize("command", ["eval", "coeffs", "zeros", "certify"])
    def test_params_help(self, runner, command):
        # the four commands share one --L/--eta option decorator
        result = invoke(runner, [command, "--help"])
        assert result.exit_code == 0
        assert "Order parameter." in result.stdout
        assert "Sommerfeld parameter." in result.stdout


class TestDeterminism:
    def test_import_leaves_mpmath_unloaded(self):
        # only gamma and the Kummer oracle import mpmath, on first use
        code = "import coulombstar, sys; sys.exit('mpmath' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_repeated_invocations_byte_identical(self):
        cmd = [
            sys.executable, "-m", "coulombstar",
            "certify", "--L", "0.5", "--eta", "0.1", "--class", "lemniscate",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty payload

    def test_runner_matches_subprocess(self, runner):
        args = ["eval", "--L", "0", "--eta", "0", "--z", "1"]
        in_process = invoke(runner, args)
        spawned = subprocess.run(
            [sys.executable, "-m", "coulombstar", *args], capture_output=True, text=True
        )
        assert in_process.output == spawned.stdout


def _modules_after(argv):
    """Run the CLI in a fresh interpreter; return its exit code and its
    sys.modules keys as they stand when the command has finished."""
    code = (
        "import json, sys\n"
        "from coulombstar.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "sys.stderr.write(json.dumps([code, sorted(sys.modules)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True
    )
    exit_code, modules = json.loads(proc.stderr.splitlines()[-1])
    return exit_code, set(modules)


class TestImportContract:
    LAZY = ("coulombstar.admissibility", "coulombstar.starlike", "coulombstar.zeros")

    def test_import_leaves_numpy_unloaded(self):
        # the lazy submodules are registered at once, where the benchmark's
        # span tracer (perfbench/spans.py) looks them up
        code = (
            "import coulombstar, sys; "
            f"sys.exit('numpy' in sys.modules or not set({self.LAZY!r}) <= set(sys.modules))"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    @pytest.mark.parametrize("argv", [
        ["eval", "--L", "0.3", "--eta", "0.2", "--z", "0.5"],
        ["eval", "--L", "0.3", "--eta", "0.2", "--z", "0.5", "--function", "f"],
        ["eval", "--L", "0.3", "--eta", "0.2", "--z", "0.5", "--function", "P"],
        ["coeffs", "--L", "0.3", "--eta", "0.2"],
        ["--help"],
        ["coeffs", "--help"],
    ], ids=["eval-g", "eval-f", "eval-P", "coeffs", "help", "coeffs-help"])
    def test_numpy_free_commands(self, argv):
        exit_code, modules = _modules_after(argv)
        assert exit_code == 0
        assert "numpy" not in modules
        assert set(self.LAZY) <= modules

    def test_certify_loads_numpy(self):
        argv = ["certify", "--L", "0.5", "--eta", "0.1", "--class", "lemniscate"]
        exit_code, modules = _modules_after(argv)
        assert exit_code == 0
        assert "numpy" in modules
