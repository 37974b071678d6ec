"""Series evaluation of regular Coulomb wave functions, their zeros, and
starlikeness certification of the normalized form on the unit disk."""

from .admissibility import (
    AdmissiblePoint,
    ExtremumReport,
    PsiBound,
    admissible_point,
    constant_checks,
    exponential_offset_sq,
    exponential_shift_sq,
    extremize,
    lemniscate_offset_sq,
    lemniscate_shift_sq,
    psi_lower_bound,
)
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
from .starlike import (
    EXPONENTIAL_THRESHOLD,
    LEMNISCATE_THRESHOLD,
    CertificationReport,
    ScanGrid,
    ScanRow,
    StarlikeClass,
    certify,
    classical_margin,
    exponential_condition,
    exponential_margin,
    lemniscate_condition,
    lemniscate_margin,
    parameter_scan,
)
from .zeros import (
    ZeroSet,
    find_zeros,
    product_convergence_report,
    weierstrass_eval,
    winding_number,
)

__version__ = "0.1.0"
