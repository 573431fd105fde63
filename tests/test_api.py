"""The public API of the package and the settings it leaves to callers."""

import dataclasses
import importlib
import inspect
import pkgutil
import warnings

import numpy as np
import pytest

import diskwarp
from diskwarp import action, errors, linear_geodesics, poly, solver
from diskwarp.config import ExperimentConfig
from diskwarp.frames import disk_mesh

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


STATE = diskwarp.LinearState(1.0, 0.5)
LINE = np.array([0, 1], dtype=complex)
PATH = diskwarp.DiscretePath(np.tile(LINE, (3, 1)))


def _experiment(**fields):
    return ExperimentConfig(**{"name": "x", "alpha": 0.1, "num_steps": 4, "degree_bound": 4,
                               "target": [0, 1], **fields})


# Every real argument of the package: the call that takes it, the word its
# error names it by and the sign it must have
REAL_ARGUMENTS = {
    "check_alpha": (poly.check_alpha, "alpha", "nonnegative"),
    "inner_h1": (lambda v: diskwarp.inner_h1([1, 2], [1, 2], v), "alpha", "nonnegative"),
    "lagrangian": (lambda v: diskwarp.lagrangian(LINE, LINE, v), "alpha", "nonnegative"),
    "discrete_lagrangian-alpha": (lambda v: diskwarp.discrete_lagrangian(LINE, LINE, 0.1, v),
                                  "alpha", "nonnegative"),
    "discrete_lagrangian-step": (lambda v: diskwarp.discrete_lagrangian(LINE, LINE, v, 1.0),
                                 "step size", "positive"),
    "discrete_action": (lambda v: diskwarp.discrete_action(PATH, v), "alpha", "nonnegative"),
    "discrete_action-fft": (lambda v: diskwarp.discrete_action(PATH, v, mode="fft"),
                            "alpha", "nonnegative"),
    "action_and_gradient": (lambda v: action.action_and_gradient(PATH, v), "alpha", "nonnegative"),
    "action_gradient": (lambda v: diskwarp.action_gradient(PATH, v), "alpha", "nonnegative"),
    "reduced_rhs": (lambda v: diskwarp.reduced_rhs(STATE, v), "alpha", "nonnegative"),
    "integrate_reduced-alpha": (lambda v: diskwarp.integrate_reduced(STATE, v, 1.0, 4),
                                "alpha", "nonnegative"),
    "integrate_reduced-duration": (lambda v: diskwarp.integrate_reduced(STATE, 0.1, v, 4),
                                   "duration", "real"),
    "closed_form": (lambda v: diskwarp.closed_form(1.0, 0.5, v, [0.0, 1.0]), "alpha",
                    "nonnegative"),
    "initial_velocity": (lambda v: diskwarp.initial_velocity(1.0, 0.5, v), "alpha",
                         "nonnegative"),
    "SolverConfig-alpha": (lambda v: diskwarp.SolverConfig(n=4, num_steps=4, alpha=v), "alpha",
                           "nonnegative"),
    "SolverConfig-grad_tol": (lambda v: diskwarp.SolverConfig(n=4, num_steps=4, alpha=0.1,
                                                              grad_tol=v),
                              "grad_tol", "positive"),
    "ExperimentConfig-alpha": (lambda v: _experiment(alpha=v), "alpha", "nonnegative"),
}
# Every count argument: the call that takes it, its name in the error and its
# least value
COUNT_ARGUMENTS = {
    "SolverConfig-n": (lambda v: diskwarp.SolverConfig(n=v, num_steps=4, alpha=0.1),
                       "degree bound n", 2),
    "SolverConfig-num_steps": (lambda v: diskwarp.SolverConfig(n=4, num_steps=v, alpha=0.1),
                               "num_steps", 2),
    "SolverConfig-max_iters": (lambda v: diskwarp.SolverConfig(n=4, num_steps=4, alpha=0.1,
                                                               max_iters=v),
                               "max_iters", 1),
    "identity_map": (diskwarp.identity_map, "degree bound n", 2),
    "integrate_reduced-steps": (lambda v: diskwarp.integrate_reduced(STATE, 0.1, 1.0, v),
                                "steps", 1),
    "ExperimentConfig-N": (lambda v: _experiment(num_steps=v), "N", 2),
    "ExperimentConfig-n": (lambda v: _experiment(degree_bound=v), "n", 2),
    "ExperimentConfig-circles": (lambda v: _experiment(mesh_circles=v), "circles", 1),
    "ExperimentConfig-rays": (lambda v: _experiment(mesh_rays=v), "rays", 1),
    "disk_mesh-circles": (lambda v: disk_mesh(v, 4), "circles", 1),
    "disk_mesh-rays": (lambda v: disk_mesh(4, v), "rays", 1),
}
# not finite, too large for a float once widened, or not a real number
NOT_FINITE_REALS = [np.nan, np.inf, -np.inf, 10**400, -10**400, np.float32("nan"),
                    np.float16("inf"), np.longdouble("1e400"), True, False, np.True_, "0.1",
                    None, 1j, [0.1]]
BELOW = {"real": [], "nonnegative": [-0.5, np.float32(-0.5), -5e-324],
         "positive": [0, 0.0, -0.0, np.float32(0.0), -0.5]}


def _error(where):
    return diskwarp.ConfigValidationError if where.startswith("ExperimentConfig") else ValueError


@pytest.mark.parametrize("where", REAL_ARGUMENTS)
def test_real_arguments_follow_one_rule(where):
    """A real argument is a finite Python or numpy number of any width, not a
    bool, of its sign; it is accepted without a warning, a narrow float
    included, and anything else is rejected by name."""
    call, name, sign = REAL_ARGUMENTS[where]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for width in (np.float16, np.float32, np.float64, np.longdouble):
            call(width(0.1))
        for value in (0.1, 1, np.int64(1), *([-0.1, np.float32(-0.1)] if sign == "real" else [])):
            call(value)
        for value in NOT_FINITE_REALS + BELOW[sign]:
            with pytest.raises(_error(where), match=f"{name} must be"):
                call(value)


@pytest.mark.parametrize("where", COUNT_ARGUMENTS)
def test_count_arguments_follow_one_rule(where):
    """A count is a Python or numpy integer, not a bool, of at least its least
    value; anything else is rejected by name."""
    call, name, least = COUNT_ARGUMENTS[where]
    for value in (least, least + 1, np.int8(least), np.uint64(least)):
        call(value)
    for value in (least - 1, -1, float(least), np.float64(least + 1), least + 0.5, True, False,
                  np.True_, str(least), None):
        with pytest.raises(_error(where), match=f"{name} must be"):
            call(value)

