"""Series evaluation of regular Coulomb wave functions, their zeros, and
starlikeness certification of the normalized form on the unit disk.

`errors`, `series` and `analytic` load with the package; none of them
imports numpy.  `admissibility`, `starlike` and `zeros` sit in sys.modules
as lazy modules (importlib's LazyLoader): each module body, and numpy with
it, runs on the first access to one of its attributes, so `eval` and
`coeffs` never load numpy.  Their public names resolve through the module
`__getattr__` below on every lookup, never cached in the package namespace.
"""

import importlib.util
import sys

from .analytic import RatioValue, eval_p, ode_residual_g, ode_residual_p
from .errors import (
    BranchPoint,
    CoulombError,
    DomainError,
    InvalidParams,
    NearZeroOfG,
    NoConvergence,
    PoleError,
    WindingMismatch,
)
from .series import (
    DEFAULT_TOL,
    CoefficientTable,
    ComplexValue,
    CoulombParams,
    eval_f,
    eval_g,
    eval_g_prime,
    eval_g_second,
    gamma_complex,
    kummer_oracle,
    make_coefficients,
    normalization_constant,
    table_for_radius,
)

__version__ = "0.1.0"

_LAZY_NAMES = {
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
_LAZY = {name: module for module, names in _LAZY_NAMES.items() for name in names}


def _lazy_module(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


admissibility = _lazy_module("admissibility")
starlike = _lazy_module("starlike")
zeros = _lazy_module("zeros")

__all__ = [
    "RatioValue", "eval_p", "ode_residual_g", "ode_residual_p",
    "BranchPoint", "CoulombError", "DomainError", "InvalidParams",
    "NearZeroOfG", "NoConvergence", "PoleError", "WindingMismatch",
    "DEFAULT_TOL", "CoefficientTable", "ComplexValue", "CoulombParams",
    "eval_f", "eval_g", "eval_g_prime", "eval_g_second", "gamma_complex",
    "kummer_oracle", "make_coefficients", "normalization_constant",
    "table_for_radius",
    *_LAZY,
]


def __getattr__(name: str):
    # no caching in globals(): a tracer that rebinds the submodule's name
    # and later restores it must be seen through the package as well
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *_LAZY})
