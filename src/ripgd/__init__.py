"""Gradient-based local search for low-rank matrix recovery under RIP.

The package root exports the names of the README's library sketch; the rest
of the API lives in the submodules ``losses``, ``factored``, ``rip``,
``solver``, ``certify`` and ``cli``.
"""

from .losses import (
    LinearLoss,
    RecoveryProblem,
    estimate_rho1,
    make_gaussian_operator,
)
from .rip import estimate_rip
from .solver import perturbed_gd, pgd_params

__version__ = "0.1.0"

__all__ = [
    "make_gaussian_operator", "estimate_rip", "LinearLoss", "RecoveryProblem",
    "estimate_rho1", "pgd_params", "perturbed_gd",
]
