"""The package's public surface: every name resolves, lazily or not."""

import pytest

import coulombstar

# the names `from coulombstar import *` binds
PUBLIC = {
    "errors": (
        "BranchPoint", "CoulombError", "DomainError", "InvalidParams",
        "NearZeroOfG", "NoConvergence", "PoleError", "WindingMismatch",
    ),
    "series": (
        "DEFAULT_TOL", "CoefficientTable", "ComplexValue", "CoulombParams",
        "eval_f", "eval_g", "eval_g_prime", "eval_g_second", "gamma_complex",
        "kummer_oracle", "make_coefficients", "normalization_constant",
        "table_for_radius",
    ),
    "analytic": ("RatioValue", "eval_p", "ode_residual_g", "ode_residual_p"),
    "admissibility": (
        "AdmissiblePoint", "ExtremumReport", "PsiBound", "admissible_point",
        "constant_checks", "exponential_offset_sq", "exponential_shift_sq",
        "extremize", "lemniscate_offset_sq", "lemniscate_shift_sq",
        "psi_lower_bound",
    ),
    "starlike": (
        "EXPONENTIAL_THRESHOLD", "LEMNISCATE_THRESHOLD", "CertificationReport",
        "ScanGrid", "ScanRow", "StarlikeClass", "certify", "classical_margin",
        "exponential_condition", "exponential_margin", "lemniscate_condition",
        "lemniscate_margin", "parameter_scan",
    ),
    "zeros": (
        "ZeroSet", "find_zeros", "product_convergence_report",
        "weierstrass_eval", "winding_number",
    ),
}
PAIRS = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from coulombstar import *", namespace)
    del namespace["__builtins__"]
    assert len(PAIRS) == 54
    assert set(namespace) == {name for _, name in PAIRS}


def test_dir_lists_the_public_names():
    assert {name for _, name in PAIRS} <= set(dir(coulombstar))


@pytest.mark.parametrize("module, name", PAIRS)
def test_name_is_the_submodule_object(module, name):
    submodule = getattr(coulombstar, module)
    assert getattr(coulombstar, name) is getattr(submodule, name)


def test_lookup_follows_a_rebinding(monkeypatch):
    # the package caches no lazy name, so a patched submodule shows through
    marker = object()
    monkeypatch.setattr(coulombstar.zeros, "find_zeros", marker)
    assert coulombstar.find_zeros is marker


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        coulombstar.no_such_name  # noqa: B018
