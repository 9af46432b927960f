"""Gradient-based local search for low-rank matrix recovery under RIP."""

from .losses import (
    LinearOperator,
    LinearLoss,
    OneBitLoss,
    ScaledLoss,
    RecoveryProblem,
    make_gaussian_operator,
    make_onebit_loss,
    onebit_rho2,
    estimate_rho1,
)
from .factored import (
    g_value,
    g_grad,
    g_value_and_grad,
    g_hess_form,
    g_hess_min_eig,
    hess_matrix,
    LiftedLoss,
    lift_asymmetric,
    balance_and_augment,
)
from .rip import (
    RipEstimate,
    estimate_rip,
    pl_radius_sym,
    pl_radius_asym,
    local_region_sym,
    local_region_asym,
    max_step_sym,
    max_step_asym,
    prior_radii,
)
from .solver import (
    PgdParams,
    pgd_params,
    Trace,
    gradient_descent,
    perturbed_gd,
)
from .certify import (
    CertificateReport,
    x_operator,
    mean_hessian,
    verify_gradhessian,
    align,
    range_split,
    pl_dual_bound,
    saddle_eta0,
    normcompare_check,
    run_certificate_suites,
)
from .cli import ExperimentConfig, build_instance, run_experiment

__version__ = "0.1.0"

__all__ = [
    "LinearOperator", "LinearLoss", "OneBitLoss", "ScaledLoss",
    "RecoveryProblem", "make_gaussian_operator", "make_onebit_loss",
    "onebit_rho2", "estimate_rho1",
    "g_value", "g_grad", "g_value_and_grad", "g_hess_form",
    "g_hess_min_eig", "hess_matrix", "LiftedLoss", "lift_asymmetric",
    "balance_and_augment",
    "RipEstimate", "estimate_rip", "pl_radius_sym", "pl_radius_asym",
    "local_region_sym", "local_region_asym", "max_step_sym",
    "max_step_asym", "prior_radii",
    "PgdParams", "pgd_params", "Trace", "gradient_descent", "perturbed_gd",
    "CertificateReport", "x_operator", "mean_hessian", "verify_gradhessian",
    "align", "range_split", "pl_dual_bound", "saddle_eta0",
    "normcompare_check", "run_certificate_suites",
    "ExperimentConfig", "build_instance", "run_experiment",
]
