"""Geodesic warps between conformal maps of the unit disk.

The package discretizes paths of truncated Taylor polynomials, evaluates the
Sobolev kinetic energy over the disk exactly in the coefficients, and solves
two-point geodesic problems by minimizing the resulting discrete action.
Closed-form reference dynamics for linear maps and mesh-warp exporters are
included; the ``diskwarp`` command drives batch experiments.
"""

from .action import (
    DiscretePath,
    action_gradient,
    discrete_action,
    discrete_lagrangian,
    lagrangian,
)
from .errors import (
    BranchFailureError,
    ConfigParseError,
    ConfigValidationError,
    DiskwarpError,
    NoConvergenceError,
    NotConformalError,
    SingularInertiaError,
)
from .linear_geodesics import (
    LinearState,
    closed_form,
    conserved_quantity,
    initial_velocity,
    integrate_reduced,
    reduced_rhs,
)
from .poly import (
    adjoint_dz,
    as_coeffs,
    derivative,
    evaluate,
    inner_h1,
    inner_l2,
    mul_naive,
)
from .solver import (
    CONFORMAL_MIN_DERIV,
    GeodesicResult,
    SolverConfig,
    certify_conformal,
    identity_map,
    initial_guess,
    project_by_truncation,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "DiscretePath",
    "GeodesicResult",
    "LinearState",
    "SolverConfig",
    "CONFORMAL_MIN_DERIV",
    "action_gradient",
    "adjoint_dz",
    "as_coeffs",
    "certify_conformal",
    "closed_form",
    "conserved_quantity",
    "derivative",
    "discrete_action",
    "discrete_lagrangian",
    "evaluate",
    "identity_map",
    "initial_guess",
    "initial_velocity",
    "inner_h1",
    "inner_l2",
    "integrate_reduced",
    "lagrangian",
    "mul_naive",
    "project_by_truncation",
    "reduced_rhs",
    "solve",
    "BranchFailureError",
    "ConfigParseError",
    "ConfigValidationError",
    "DiskwarpError",
    "NoConvergenceError",
    "NotConformalError",
    "SingularInertiaError",
]
