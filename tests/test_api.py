"""The public API of the package."""

import diskwarp

PUBLIC_API = [
    "BranchFailureError", "CONFORMAL_MIN_DERIV", "ConfigParseError", "ConfigValidationError",
    "DiscretePath", "DiskwarpError", "GeodesicResult", "LinearState", "NoConvergenceError",
    "NotConformalError", "SingularInertiaError", "SolverConfig", "action_gradient", "adjoint_dz",
    "as_coeffs", "certify_conformal", "closed_form", "conserved_quantity", "derivative",
    "discrete_action", "discrete_lagrangian", "evaluate", "identity_map", "initial_guess",
    "initial_velocity", "inner_h1", "inner_l2", "integrate_reduced", "lagrangian", "mul_naive",
    "project_by_truncation", "reduced_rhs", "solve",
]


def test_public_api_is_pinned():
    """A name added to or removed from ``diskwarp.__all__`` must be added to or
    removed from this list too, so every API change is deliberate."""
    assert sorted(diskwarp.__all__) == PUBLIC_API
    assert all(hasattr(diskwarp, name) for name in PUBLIC_API)
