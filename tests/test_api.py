"""The public API of the package and the settings it leaves to callers."""

import dataclasses
import importlib
import inspect
import pkgutil

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


# Every parameter default and dataclass-field default in the package, each a
# value that a caller can leave out or set.
SETTINGS = [
    "action.discrete_action(mode='naive')",
    "checks.conservation(alphas=(0.0, 0.1, 1.0, 100.0))",
    "checks.gradient(eps=1e-06)",
    "cli.main(argv=None)",
    "cli.run_experiment(output_dir=None)",
    "cli.run_oracle(output_dir=None)",
    "config.ExperimentConfig(frame_format='svg')",
    "config.ExperimentConfig(mesh_circles=8)",
    "config.ExperimentConfig(mesh_rays=16)",
    "errors.DiskwarpError(result=None)",
    "poly.as_coeffs(n=None)",
    "solver.SolverConfig(grad_tol=1e-08)",
    "solver.SolverConfig(max_iters=5000)",
]


def _defaults(where, function):
    return [f"{where}({p.name}={p.default!r})"
            for p in inspect.signature(function).parameters.values() if p.default is not p.empty]


def test_settings_are_pinned():
    """A default added to or removed from a function, a method or a dataclass
    field of the package, private ones included, must be added to or removed
    from SETTINGS too, so every new knob is deliberate."""
    found = []
    for info in pkgutil.iter_modules(diskwarp.__path__):
        module = importlib.import_module(f"diskwarp.{info.name}")
        for name, obj in vars(module).items():
            obj = inspect.unwrap(obj)  # an lru_cache'd function is the function it wraps
            if inspect.isfunction(obj):
                functions = [obj]
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                functions = [method for method in vars(obj).values() if inspect.isfunction(method)]
            else:
                continue
            where = f"{info.name}.{name}"
            if dataclasses.is_dataclass(obj):
                found += [f"{where}({f.name}={f.default!r})" for f in dataclasses.fields(obj)
                          if f.default is not dataclasses.MISSING
                          or f.default_factory is not dataclasses.MISSING]
            for function in functions:
                # written in the module: a dataclass's generated __init__ is not
                if function.__code__.co_filename == module.__file__:
                    found += _defaults(where, function)
    assert sorted(found) == SETTINGS
