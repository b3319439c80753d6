"""Parametric bivariate means with a numerical verification harness.

Mean families (Stolarsky, Gini, two-parameter identric and Heronian,
the four-parameter family, and the difference function H_D), a generic
homogeneous-generator framework with an integral-representation oracle,
closed-form Hessian log-convexity certification, and a catalog of mean
inequalities with a sampling checker.
"""

from .core import (
    BRANCH_BOTH_ZERO,
    BRANCH_DIAGONAL,
    BRANCH_GENERIC,
    BRANCH_P_EQ_Q,
    BRANCH_P_ZERO,
    BRANCH_Q_ZERO,
    EvalResult,
    GeneratorPair,
    MeanPoint,
    ParamPair,
    ReductionTag,
    Y_mean,
    arithmetic_mean,
    family_evaluator,
    four_param_F,
    geometric_mean,
    gini,
    heronian_mean,
    identric_mean,
    log_mean,
    power_exponential_Z,
    power_mean,
    reduction_table,
    stolarsky,
    two_param_heronian,
    two_param_identric,
)
from .errors import (
    DomainError,
    ParMeansError,
    QuadratureError,
    SaturationError,
)
from .generators import (
    GeneratorFunction,
    arithmetic_generator,
    builtin_generators,
    difference_generator,
    heronian_generator,
    identric_generator,
    logarithmic_generator,
    stolarsky_generator,
)
from .hgf import TDerivatives, hd_eval, hf_eval, hf_integral_oracle, t_derivatives
from .convexity import (
    CheckReport,
    HessianReport,
    ScanSpec,
    hessian_logF,
    integral_hessian,
    j_criterion_probe,
    midpoint_test,
    scan_convexity,
)
from .inequalities import (
    InequalityCase,
    NamedConstant,
    SampleStream,
    SamplingPlan,
    Slot,
    SupremumRecord,
    catalog,
    check_case,
    check_cases,
    special_reductions_check,
)
from .quadrature import QuadratureResult, integrate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
