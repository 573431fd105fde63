"""The public API of the package."""

import diskwarp
from diskwarp import action, errors, linear_geodesics, poly, solver

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


def test_each_public_name_has_one_owner():
    """``diskwarp.__all__`` is the concatenation of its five modules'
    ``__all__``, no name is in two of them, and each name is its module's
    object."""
    modules = (action, errors, linear_geodesics, poly, solver)
    assert diskwarp.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(diskwarp.__all__)) == len(diskwarp.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(diskwarp, name) is getattr(module, name)
