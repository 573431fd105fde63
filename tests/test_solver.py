"""Two-point geodesic solver."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import diskwarp.solver as solver_module
from diskwarp import checks
from diskwarp.config import load_config
from diskwarp.errors import NoConvergenceError, NotConformalError
from diskwarp.linear_geodesics import closed_form
from diskwarp.poly import derivative, evaluate
from diskwarp.solver import (
    _ANGLES,
    CONFORMAL_MIN_DERIV,
    SolverConfig,
    certify_conformal,
    identity_map,
    initial_guess,
    project_by_truncation,
    solve,
)
from diskwarp.action import DiscretePath

PI = np.pi
ROTATION = np.exp(0.4j * PI)
SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def history_is_non_increasing(history):
    # ties at floating-point resolution of the action are allowed; see the
    # line-search contract in the solver
    h = np.asarray(history)
    return np.all(np.diff(h) <= 1e-12 * (1.0 + abs(h[0])))


def test_project_examples():
    assert np.allclose(project_by_truncation([0, 1, 0.5], 16),
                       np.pad([0, 1, 0.5], (0, 13)))
    target = np.zeros(21); target[1] = 1; target[20] = 1
    assert np.allclose(project_by_truncation(target, 16), identity_map(16))
    degree7 = [0.1, 0.8, -0.1, -0.2, -0.18, -0.01, 0.18, 0.27]
    assert np.allclose(project_by_truncation(degree7, 16)[:8], degree7)


def test_identity_needs_a_linear_coefficient():
    """Degree bound 1 holds no ``z``: the identity and a start path from a
    constant target are rejected by name, not by an IndexError."""
    with pytest.raises(ValueError, match="degree bound"):
        identity_map(1)
    with pytest.raises(ValueError, match="degree bound"):
        initial_guess([5.0], 4)


def test_initial_guess_examples():
    path = initial_guess(identity_map(4), 5)
    assert np.allclose(path.steps, np.tile(identity_map(4), (6, 1)))

    path = initial_guess([0, 0.5], 2)
    assert path.steps[1, 1] == pytest.approx(0.75)

    target = np.zeros(4, dtype=complex); target[1] = 1; target[2] = 0.2
    path = initial_guess(target, 4)
    for k in range(5):
        assert path.steps[k, 2] == pytest.approx(0.05 * k)


def test_certify_identity_and_scalings():
    steps = np.zeros((4, 3), dtype=complex)
    steps[:, 1] = 1.0
    assert np.allclose(certify_conformal(DiscretePath(steps)), 1.0)

    scales = np.linspace(1.0, 0.5, 4)
    steps[:, 1] = scales
    assert np.allclose(certify_conformal(DiscretePath(steps)), scales)


def test_certify_samples_interior_rings():
    # phi = z + 0.6 w z^2 with w = exp(2 pi i / 64) has phi' = 1 + 1.2 w z
    # vanishing at z = -5/(6 w) inside the disk, so the certified minimum
    # comes from the interior ring nearest the zero (r = 7/8, on a grid
    # direction), not from the boundary.
    steps = np.zeros((2, 3), dtype=complex)
    steps[:, 1] = 1.0
    steps[1, 2] = 0.6 * np.exp(2j * PI / 64)
    minima = certify_conformal(DiscretePath(steps))
    assert minima[0] == 1.0
    assert minima[1] == pytest.approx(abs(1 - 1.2 * 0.875), abs=1e-12)
    dense = np.min(np.abs(1 + 1.2 * (7 / 8) * np.exp(1j * 2 * PI * np.arange(64) / 64)))
    assert minima[1] == pytest.approx(dense)


def test_certify_samples_the_ring_through_a_zero():
    # phi' = 1 - z/0.75 vanishes at z = 0.75, a point of the 64 x 8 grid; a
    # grid of the center alone would pass the map
    path = DiscretePath([[0, 1, -1 / 1.5]] * 2)
    assert np.array_equal(certify_conformal(path), [0.0, 0.0])


def test_certificate_matches_full_grid_horner_on_random_paths():
    assert checks.certificate(np.random.default_rng(37), 300) < 0.5


@pytest.mark.parametrize("n", [3, 16, 64, 65, 128, 200])
def test_certificate_does_not_depend_on_the_batch(n):
    """Certifying any subset of a path's rows gives those rows' values bit
    for bit, so the endpoint gate and the final certificate agree."""
    rng = np.random.default_rng(n)
    for _ in range(10):
        rows = int(rng.integers(2, 42))
        steps = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        steps *= rng.uniform(0.2, 1.0) ** np.arange(n)
        whole = certify_conformal(DiscretePath(steps))
        for size in (2, int(rng.integers(2, rows + 1))):
            subset = np.sort(rng.choice(rows, size, replace=False))
            alone = certify_conformal(DiscretePath(steps[subset]))
            assert alone.tobytes() == whole[subset].tobytes()


@pytest.mark.parametrize(
    "name, size, analogue",
    [pytest.param(p.stem, None, False, id=p.stem) for p in SHIPPED_CONFIGS]
    + [pytest.param("example5a", (40, 64), False, id="example5a-40-64"),
       pytest.param("example5c", (20, 128), False, id="example5c-20-128"),
       pytest.param("example5a", (40, 64), True, id="example5a-40-64-analogue"),
       pytest.param("example5c", (20, 128), True, id="example5c-20-128-analogue")])
def test_certificate_matches_full_grid_horner_on_solved_paths(name, size, analogue):
    """Every shipped config's solved path, at its own (N, n) and at the
    benchmark's larger ones, and there also the conformal analogues that the
    benchmark's nonzero seeds solve, is certified within half a margin of the
    least |phi'| by Horner's rule over the 64 x 8 grid; the endpoint pair,
    certified alone as the endpoint gate does, gets the final certificate's
    endpoint values."""
    config = load_config(SHIPPED_CONFIGS[0].parent / f"{name}.json")
    num_steps, degree_bound = size or (config.num_steps, config.degree_bound)
    target = conformal_analogue(config.target) if analogue else config.target
    result = solve(SolverConfig(n=degree_bound, num_steps=num_steps, alpha=config.alpha),
                   target)
    d = derivative(result.path.steps)
    horner = np.min(np.abs(evaluate(d, solver_module._GRID)), axis=-1)
    assert np.all(np.abs(result.conformal_certificate - horner)
                  < 0.5 * solver_module._margin(np.abs(d)))
    pair = certify_conformal(DiscretePath(result.path.steps[[0, -1]]))
    assert pair.tobytes() == result.conformal_certificate[[0, -1]].tobytes()


def test_identity_target_is_instant():
    result = solve(SolverConfig(n=16, num_steps=20, alpha=0.5), identity_map(16))
    assert result.converged
    assert result.iterations <= 1
    assert result.action == 0
    assert np.allclose(result.path.steps, np.tile(identity_map(16), (21, 1)))


@pytest.mark.parametrize("alpha", [0.0, 0.1, 100.0])
def test_scaling_endpoints_and_descent(alpha):
    result = solve(SolverConfig(n=16, num_steps=20, alpha=alpha), [0, 0.5])
    assert result.converged and result.grad_norm <= 1e-8
    assert np.allclose(result.path.steps[0], identity_map(16))
    target = np.zeros(16, dtype=complex); target[1] = 0.5
    assert np.array_equal(result.path.steps[-1], target)
    assert history_is_non_increasing(result.action_history)
    assert np.all(result.conformal_certificate > CONFORMAL_MIN_DERIV)


@pytest.mark.parametrize("alpha", [0.0, 0.1, 100.0])
@pytest.mark.parametrize("target_c1", [0.5, ROTATION])
def test_linear_targets_stay_linear(alpha, target_c1):
    """Interior steps keep every coefficient except the z term at zero: the
    linear maps are closed under the discrete geodesic flow."""
    result = solve(SolverConfig(n=16, num_steps=20, alpha=alpha), [0, target_c1])
    others = np.delete(result.path.steps, 1, axis=1)
    assert np.max(np.abs(others)) <= 1e-8


def test_pure_scaling_stays_real_positive():
    result = solve(SolverConfig(n=16, num_steps=20, alpha=0.1), [0, 0.5])
    c1 = result.path.steps[:, 1]
    assert np.max(np.abs(c1.imag)) <= 1e-8
    assert np.min(c1.real) > 0


def test_scaling_alpha0_matches_closed_form():
    result = solve(SolverConfig(n=16, num_steps=20, alpha=0.0), [0, 0.5])
    ref = closed_form(1.0, 0.5, 0.0, result.path.times)
    assert np.max(np.abs(result.path.steps[:, 1] - ref)) <= 1e-6


def test_rotation_alpha0_matches_closed_form_and_picks_up_scaling():
    result = solve(SolverConfig(n=16, num_steps=20, alpha=0.0), [0, ROTATION])
    ref = closed_form(1.0, ROTATION, 0.0, result.path.times)
    assert np.max(np.abs(result.path.steps[:, 1] - ref)) <= 1e-6
    midpoint_modulus = abs(result.path.steps[10, 1])
    assert midpoint_modulus == pytest.approx(np.sqrt(np.cos(0.4 * PI)), abs=1e-4)
    assert midpoint_modulus < 1.0  # the rotation path contracts through the middle


def arc_length_nodes(c0, c1, alpha, num_steps, segments=4000):
    """Independent oracle for real scaling geodesics at any alpha: node values
    of the parametrization with constant speed in the induced metric
    pi (x^2/2 + alpha) dx^2, built from cumulative Gauss quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    grid = np.linspace(c0, c1, segments + 1)
    seg = np.zeros(segments)
    for i in range(segments):
        a, b = grid[i], grid[i + 1]
        pts = (a + b) / 2 + (b - a) / 2 * nodes
        seg[i] = abs(b - a) / 2 * np.sum(weights * np.sqrt(PI * (pts**2 / 2 + alpha)))
    cumulative = np.concatenate([[0.0], np.cumsum(seg)])
    out = []
    for k in range(num_steps + 1):
        target = (k / num_steps) * cumulative[-1]
        i = min(max(np.searchsorted(cumulative, target), 1), segments)
        frac = (target - cumulative[i - 1]) / (cumulative[i] - cumulative[i - 1])
        out.append(grid[i - 1] + frac * (grid[i] - grid[i - 1]))
    return np.array(out)


def test_scaling_minimizer_is_constant_speed_in_metric():
    """At alpha > 0 the minimizer parametrizes the scaling segment with
    constant metric speed, and so does the closed form: both agree with the
    independent quadrature oracle."""
    result = solve(SolverConfig(n=8, num_steps=40, alpha=2.0), [0, 0.5])
    oracle = arc_length_nodes(1.0, 0.5, 2.0, 40)
    assert np.max(np.abs(result.path.steps[:, 1] - oracle)) <= 1e-6
    vs_closed_form = np.max(
        np.abs(closed_form(1.0, 0.5, 2.0, result.path.times) - oracle)
    )
    assert vs_closed_form <= 1e-8


def test_translation_is_not_geodesically_closed():
    result = solve(SolverConfig(n=16, num_steps=20, alpha=0.1), [0.3, 1.0])
    deviation = 0.0
    for k in range(1, 20):
        step = result.path.steps[k].copy()
        step[0] = 0.0
        step[1] -= 1.0
        deviation = max(deviation, float(np.max(np.abs(step))))
    assert deviation > 1e-4


def test_nonconformal_target_raises():
    # phi' = 1 - z/0.75 vanishes on the certification grid
    with pytest.raises(NotConformalError) as excinfo:
        solve(SolverConfig(n=8, num_steps=10, alpha=0.1), [0, 1.0, -1.0 / 1.5])
    result = excinfo.value.result
    assert result is not None
    assert np.min(result.conformal_certificate) <= CONFORMAL_MIN_DERIV


def test_nonconformal_target_fails_before_optimizing():
    # phi = 0 has phi' = 0 everywhere; the endpoints are certified first
    with pytest.raises(NotConformalError) as excinfo:
        solve(SolverConfig(n=16, num_steps=20, alpha=0.0), [0, 0])
    result = excinfo.value.result
    assert result.iterations == 0
    assert not result.converged
    assert result.conformal_certificate[-1] == 0
    assert np.array_equal(result.path.steps, initial_guess(np.zeros(16), 20).steps)


def test_nan_certificate_fails_before_optimizing():
    # phi' = 1 + 2e308 z vanishes inside the disk; its endpoint certificate
    # overflows to NaN, which must fail the gate rather than pass it
    with pytest.raises(NotConformalError) as excinfo:
        solve(SolverConfig(n=4, num_steps=4, alpha=0.1), [0, 1.0, 1e308])
    result = excinfo.value.result
    assert result.iterations == 0
    assert np.isnan(result.conformal_certificate[-1])


@pytest.mark.parametrize("target, error", [([0, 1e200], NoConvergenceError),
                                           ([0, 1e-200], NotConformalError)],
                         ids=["action-overflows", "endpoint-fails"])
def test_start_is_evaluated_once_and_quietly(monkeypatch, target, error):
    """A target whose action overflows fails at iteration 0 without a
    RuntimeWarning (filterwarnings = error), from the one evaluation of the
    start that the endpoint gate reads too."""
    calls = []
    original = solver_module.action_and_gradient

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver_module, "action_and_gradient", counted)
    with pytest.raises(error) as excinfo:
        solve(SolverConfig(n=4, num_steps=6, alpha=0.1), target)
    result = excinfo.value.result
    assert result.iterations == 0 and not result.converged
    assert len(calls) == result.evaluations == 1 and result.termination == "start"


def test_preconditioner_inverts_hessian_along_affine_paths():
    assert checks.preconditioner(np.random.default_rng(29), 20) <= 1e-10


@pytest.mark.parametrize("target, num_steps, alpha, error", [
    ([0, -1], 21, 0.0, None), ([0, -1], 20, 0.0, None), ([0, -1], 21, 0.1, None),
    ([0, -1], 20, 0.1, NotConformalError), ([0, -0.9], 21, 0.0, None), ([0, -1j], 21, 0.0, None)])
def test_degenerate_start_paths_keep_their_outcome(target, num_steps, alpha, error):
    """Straight-line starts through or near the zero map, whose midpoint is
    the zero map at -z and a step of the path when N is even.  The initial
    inverse Hessian stays finite and positive definite, and each solve ends
    as it did with the identity path's: at alpha 0 the -z solves converge
    in 1,321 (N = 21) and 1,719 (N = 20) iterations there, and at alpha 0.1
    and N = 20 the geodesic leaves the conformal maps."""
    config = SolverConfig(n=16, num_steps=num_steps, alpha=alpha)
    path = initial_guess(project_by_truncation(target, config.n), num_steps)
    inv_hess = solver_module._inverse_hessian_along(path.steps, alpha)
    g = np.random.default_rng(53).standard_normal((20, 2 * 16 * (num_steps - 1)))
    hg = np.array([inv_hess(row) for row in g])
    assert np.all(np.isfinite(hg)) and np.all(np.sum(g * hg, axis=1) > 0)
    if error:
        with pytest.raises(error):
            solve(config, target)
    else:
        result = solve(config, target)
        assert result.converged and result.grad_norm <= 1e-8


def test_iteration_budget_raises_no_convergence():
    with pytest.raises(NoConvergenceError) as excinfo:
        solve(SolverConfig(n=16, num_steps=20, alpha=0.1, max_iters=2), [0, 0.5])
    result = excinfo.value.result
    assert result is not None
    assert not result.converged and result.termination == "budget"
    assert result.iterations == 2
    assert result.grad_norm > 1e-8


def test_line_search_exhausted_raises_no_convergence(monkeypatch):
    """The third exit: when no trial step of a line search passes, the loop
    stops there after its 60 backtracks, and solve raises NoConvergenceError
    with the last accepted iterate."""
    calls = []
    original = solver_module.action_and_gradient

    def nan_after_first(*args, **kwargs):
        calls.append(None)
        f, g = original(*args, **kwargs)
        return (f if len(calls) == 1 else float("nan")), g

    monkeypatch.setattr(solver_module, "action_and_gradient", nan_after_first)
    with pytest.raises(NoConvergenceError) as excinfo:
        solve(SolverConfig(n=16, num_steps=20, alpha=0.1), [0, 0.5])
    assert len(calls) == 61
    result = excinfo.value.result
    assert result.iterations == 0 and result.evaluations == 61
    assert not result.converged and result.termination == "line search"


def test_solver_config_validation():
    """SolverConfig checks its fields by the package's one rule (the tables of
    tests/test_api.py) and keeps alpha and grad_tol widened to floats, so that
    no comparison in a solve casts a float bound to a narrower width: a
    float32 grad_tol at a huge alpha ends quietly, as a float64 one does."""
    config = SolverConfig(n=4, num_steps=4, alpha=np.float32(0.1), grad_tol=np.float16(1e-3))
    assert type(config.alpha) is float and type(config.grad_tol) is float
    assert (config.alpha, config.grad_tol) == (float(np.float32(0.1)), float(np.float16(1e-3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergenceError):
            solve(SolverConfig(n=4, num_steps=20, alpha=1e100, grad_tol=np.float32(1e-8)),
                  [0, 1.01])


@pytest.mark.parametrize("config_path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_lbfgs_reaches_grad_tol_at_about_one_evaluation_per_iteration(config_path, monkeypatch):
    """Once the action no longer resolves the decrease of a step, the line
    search accepts on the directional derivative, so L-BFGS alone reaches
    grad_tol without a run of rejected trial steps."""
    calls = []
    original = solver_module.action_and_gradient

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver_module, "action_and_gradient", counted)
    config = load_config(config_path)
    result = solve(
        SolverConfig(n=config.degree_bound, num_steps=config.num_steps, alpha=config.alpha),
        config.target,
    )
    assert result.converged and result.termination == "converged"
    assert result.grad_norm <= 1e-8
    assert result.iterations <= 30
    assert len(calls) == result.evaluations <= result.iterations + 15


@pytest.mark.parametrize("name, num_steps, degree_bound", [("example5a", 40, 64),
                                                          ("example5c", 20, 128)])
def test_iteration_count_does_not_grow_with_mesh(name, num_steps, degree_bound):
    """The initial inverse Hessian models the metric along the start path,
    so the larger meshes of the benchmark converge in as few iterations as
    the shipped (N, n) = (20, 16)."""
    config = load_config(SHIPPED_CONFIGS[0].parent / f"{name}.json")
    result = solve(SolverConfig(n=degree_bound, num_steps=num_steps, alpha=config.alpha),
                   config.target)
    assert result.converged and result.grad_norm <= 1e-8
    assert result.iterations <= 30


def conformal_analogue(target):
    """``target`` with ``c_2, c_3, ...`` scaled by one factor so that
    ``sum_{j>=2} j|c_j| = |c_1|/2``, which makes it conformal on the disk."""
    out = np.array(target, dtype=complex)
    out[2:] *= 0.5 * abs(out[1]) / np.sum(np.arange(2, len(out)) * np.abs(out[2:]))
    return out


@pytest.mark.parametrize("name, num_steps, degree_bound, analogue, bound", [
    ("example5a", 40, 64, True, 6), ("example5c", 20, 128, True, 4),
    ("example1a", 20, 16, False, 7)])
def test_start_path_preconditioner_cuts_iterations(name, num_steps, degree_bound, analogue,
                                                   bound):
    """The initial inverse Hessian uses the metric along the straight-line
    start, not at the identity: the benchmark's large solves of the conformal
    analogues take 5 and 3 iterations (8 and 9 with the identity path's) and
    example1a as shipped takes 5 (13)."""
    config = load_config(SHIPPED_CONFIGS[0].parent / f"{name}.json")
    target = conformal_analogue(config.target) if analogue else config.target
    result = solve(SolverConfig(n=degree_bound, num_steps=num_steps, alpha=config.alpha),
                   target)
    assert result.converged and result.grad_norm <= 1e-8
    assert result.iterations <= bound


def test_lbfgs_directions_descend():
    """The two-loop direction is a descent direction for any gradient, which
    is why the optimizer needs no steepest-descent restart: the initial
    inverse Hessian, built along the straight-line start to a random target,
    is positive definite and only pairs with ``s.y > 0`` are kept.  Half the drawn pairs have ``s.y <= 0``; keeping one of them can
    make the two-loop matrix indefinite."""
    rng = np.random.default_rng(43)
    kept = 0
    for _ in range(200):
        num_steps, n = int(rng.integers(2, 25)), int(rng.integers(2, 17))
        alpha = float(rng.choice([0.0, 0.01, 1.0, 1000.0]))
        target = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        inv_hess = solver_module._inverse_hessian_along(initial_guess(target, num_steps).steps,
                                                        alpha)
        size = 2 * n * (num_steps - 1)
        pairs = deque(maxlen=12)
        for _ in range(int(rng.integers(1, 20))):
            s, y = rng.standard_normal(size), rng.standard_normal(size)
            solver_module._keep_pair(pairs, s, y * np.sign(np.dot(s, y)) * rng.choice([-1, 1]))
        assert all(np.dot(s, y) > 0 for s, y, _ in pairs)
        kept += len(pairs)
        for g in rng.standard_normal((10, size)):
            assert np.dot(g, solver_module._two_loop_direction(g, pairs, inv_hess)) < 0
    assert kept > 500


@pytest.mark.parametrize("alpha", [1e100, 1e150, 1e300, 1e306, np.finfo(float).max])
def test_huge_alpha_fails_quietly(alpha):
    """At these alphas the two-loop direction, the gradient's 2-norm or the
    initial inverse Hessian overflows: the solve ends in NoConvergenceError,
    with no RuntimeWarning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergenceError):
            solve(SolverConfig(n=4, num_steps=20, alpha=alpha), [0, 1.01])


# (N, n) of the cycle: more shapes than the kernel, the certificate and the
# L-BFGS history each keep workspaces for
CYCLED_SHAPES = [(6, 4), (10, 8), (20, 16), (8, 24), (12, 12), (5, 33)]
CYCLE_TARGET = [0, 0.9, 0.1, 0.05j, -0.02]


def _result_bytes(result):
    """Every array and number of a GeodesicResult, as bytes."""
    return (np.float64([result.action, result.grad_norm]).tobytes()
            + np.int64([result.iterations, result.evaluations]).tobytes()
            + result.termination.encode() + result.path.steps.tobytes()
            + result.conformal_certificate.tobytes() + result.action_history.tobytes())


def _solve_digest(num_steps, n):
    result = solve(SolverConfig(n=n, num_steps=num_steps, alpha=0.1), CYCLE_TARGET)
    return hashlib.sha256(_result_bytes(result)).hexdigest()


def test_cycling_shapes_matches_a_fresh_process():
    """Full solves cycled twice over six shapes, which evicts and rebuilds
    the workspaces of the kernel, the certificate and the L-BFGS history,
    give the bits of the same solves in a new interpreter: path,
    certificate, history and counts."""
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import test_solver as t; "
              "print(json.dumps([t._solve_digest(*shape) for shape in t.CYCLED_SHAPES]))")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    fresh = json.loads(subprocess.run([sys.executable, "-c", script, str(here)], env=env,
                                      capture_output=True, text=True, check=True, timeout=300).stdout)
    for _ in range(2):
        assert [_solve_digest(*shape) for shape in CYCLED_SHAPES] == fresh


# two targets of one shape, (N, n) = (20, 16), each solved by its own thread
THREAD_TARGETS = [CYCLE_TARGET, [0.01, 0.8j, -0.05, 0.03, 0.01j]]


def _in_two_threads(run):
    """``[run(0), run(1)]``, from two threads that a barrier releases
    together and that switch as often as the interpreter can."""
    results = [None, None]
    start = threading.Barrier(2, timeout=60)

    def target(i):
        start.wait()
        results[i] = run(i)

    threads = [threading.Thread(target=target, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_concurrent_solves_keep_their_own_workspaces():
    """Two threads solving different targets of one shape at the same time
    get the bits of the same solves one after another: each thread has its
    own workspaces."""
    config = SolverConfig(n=16, num_steps=20, alpha=0.1)
    expected = [_result_bytes(solve(config, target)) for target in THREAD_TARGETS]
    results = _in_two_threads(
        lambda i: [_result_bytes(solve(config, THREAD_TARGETS[i])) for _ in range(4)])
    assert results == [[want] * 4 for want in expected]


def test_concurrent_certificates_keep_their_own_workspaces():
    """Two threads certifying different paths of one shape, 200 times each,
    get the bits of the same certificates one after another."""
    rng = np.random.default_rng(83)
    paths = [DiscretePath(rng.standard_normal((41, 64)) + 1j * rng.standard_normal((41, 64)))
             for _ in range(2)]
    expected = [certify_conformal(path).tobytes() for path in paths]
    results = _in_two_threads(
        lambda i: [certify_conformal(paths[i]).tobytes() for _ in range(200)])
    assert results == [[want] * 200 for want in expected]


def test_a_later_solve_leaves_an_earlier_result_intact():
    """A result shares no array with the workspaces: solving another target
    of the same shape leaves its path, certificate and history as they were."""
    config = SolverConfig(n=16, num_steps=20, alpha=0.1)
    first = solve(config, THREAD_TARGETS[0])
    kept = [first.path.steps.copy(), first.conformal_certificate.copy(),
            first.action_history.copy()]
    second = solve(config, THREAD_TARGETS[1])
    assert not np.array_equal(second.path.steps, kept[0])
    for array, copy in zip([first.path.steps, first.conformal_certificate,
                            first.action_history], kept):
        assert array.tobytes() == copy.tobytes()


def _reference_keep_step(pairs, rows, slot, x_new, x, g_new, g):
    """The history as a deque of fresh arrays ``(s, y, 1 / s.y)``, with no
    stored rows: what :func:`solver._keep_step` must reproduce."""
    solver_module._keep_pair(pairs, x_new - x, g_new - g)
    return slot


def test_pair_rows_match_a_deque_of_fresh_pairs():
    """Twenty steps through the stored rows and through the reference give
    bit-identical pairs and two-loop directions after every step.  Steps 14
    and 17, taken while the memory is full, have ``s.y < 0`` and are
    rejected, two within thirteen steps: the rejected pairs' rows take the
    next pair, and every kept pair, the oldest included, stays intact."""
    rng = np.random.default_rng(79)
    num_steps, n = 10, 8
    inv_hess = solver_module._inverse_hessian_along(
        initial_guess(rng.standard_normal(n) + 0j, num_steps).steps, 0.1)
    size = 2 * n * (num_steps - 1)
    rows = solver_module._pair_rows(threading.get_ident(), size)
    pairs, reference = deque(maxlen=solver_module._MEMORY), deque(maxlen=solver_module._MEMORY)
    slot = 0
    x, g = rng.standard_normal(size), rng.standard_normal(size)
    for step in range(20):
        s, y = rng.standard_normal(size), rng.standard_normal(size)
        y *= np.sign(np.dot(s, y)) * (-1 if step in (14, 17) else 1)
        x_new, g_new = x + s, g + y
        before = (len(pairs), slot)
        slot = solver_module._keep_step(pairs, rows, slot, x_new, x, g_new, g)
        _reference_keep_step(reference, None, None, x_new, x, g_new, g)
        assert len(pairs) == len(reference)
        if step in (14, 17):
            assert before == (solver_module._MEMORY, slot)
        for (s1, y1, rho1), (s2, y2, rho2) in zip(pairs, reference):
            assert (s1.tobytes(), y1.tobytes(), rho1) == (s2.tobytes(), y2.tobytes(), rho2)
        for probe in rng.standard_normal((3, size)):
            assert (solver_module._two_loop_direction(probe, pairs, inv_hess).tobytes()
                    == solver_module._two_loop_direction(probe, reference, inv_hess).tobytes())
        x, g = x_new, g_new


def test_large_solve_matches_a_run_through_the_reference_history(monkeypatch):
    """The benchmark's seed-0 example5a solve at (N, n) = (40, 64), whose 17
    iterations fill the memory, gives the bits of the same solve with the
    history kept as a deque of fresh arrays."""
    config = load_config(SHIPPED_CONFIGS[0].parent / "example5a.json")
    settings = SolverConfig(n=64, num_steps=40, alpha=config.alpha)
    result = solve(settings, config.target)
    assert result.iterations > solver_module._MEMORY
    monkeypatch.setattr(solver_module, "_keep_step", _reference_keep_step)
    assert _result_bytes(solve(settings, config.target)) == _result_bytes(result)


@pytest.mark.parametrize("name, num_steps, degree_bound", [("example5a", 40, 64),
                                                          ("example5c", 20, 128)])
def test_coefficient_bound_spares_the_gate(monkeypatch, name, num_steps, degree_bound):
    """On the benchmark's large solves of the conformal analogues, the
    coefficient bound passes the endpoints without sampling them: the final
    certificate is the solve's one certify call."""
    certified = []
    certify = solver_module.certify_conformal

    def spy(path):
        certified.append(path.steps.shape)
        return certify(path)

    monkeypatch.setattr(solver_module, "certify_conformal", spy)
    config = load_config(SHIPPED_CONFIGS[0].parent / f"{name}.json")
    result = solve(SolverConfig(n=degree_bound, num_steps=num_steps, alpha=config.alpha),
                   conformal_analogue(config.target))
    assert result.converged
    assert certified == [(num_steps + 1, degree_bound)]


def test_shipped_target_goes_through_the_sampled_gate(monkeypatch):
    """example5a's target fails the coefficient bound (its phi' has zeros in
    the disk), so its endpoints are sampled before the solve."""
    certified = []
    certify = solver_module.certify_conformal

    def spy(path):
        certified.append(path.steps.shape[0])
        return certify(path)

    monkeypatch.setattr(solver_module, "certify_conformal", spy)
    config = load_config(SHIPPED_CONFIGS[0].parent / "example5a.json")
    target = project_by_truncation(config.target, config.degree_bound)
    assert not solver_module._bound_passes(target[None])
    solve(SolverConfig(n=config.degree_bound, num_steps=config.num_steps, alpha=config.alpha),
          config.target)
    assert certified == [2, config.num_steps + 1]


def test_bound_decided_gate_is_sound():
    """Wherever the coefficient bound passes a pair of endpoints, the sampled
    certificate passes them too.  The pairs are the identity and a target
    with ``|c_1| - sum_{j>=2} j|c_j|`` within 1e-6 of CONFORMAL_MIN_DERIV, at
    log-uniform distances down to 1e-16 so that some sit within the bound's
    margins, or far above it at ``|c_1|/2``.  Half the near targets align
    every term against ``c_1`` at a grid direction, where ``|phi'|`` attains
    the bound."""
    rng = np.random.default_rng(71)
    decided = {"near": 0, "far": 0}
    undecided = 0
    for trial in range(400):
        n = int(rng.integers(3, 80))
        target = np.zeros(n, dtype=complex)
        target[0] = rng.standard_normal() + 1j * rng.standard_normal()
        target[1] = rng.uniform(0.01, 2.0) * np.exp(2j * PI * rng.uniform())
        j = np.arange(2, n)
        weights = rng.uniform(0, 1, n - 2) * rng.uniform(0.3, 1.0) ** j
        if trial % 2:  # j c_j z**(j-1) = -weight c_1 / |c_1| at z = w
            w = np.exp(2j * PI * rng.integers(_ANGLES) / _ANGLES)
            target[2:] = -weights * target[1] / abs(target[1]) / (j * w ** (j - 1))
        else:
            target[2:] = weights * np.exp(2j * PI * rng.uniform(size=n - 2)) / j
        kind = "far" if trial % 4 >= 2 else "near"
        if kind == "far":
            total = abs(target[1]) / 2
        else:
            offset = rng.choice([-1, 1]) * 10 ** rng.uniform(-16, -6)
            total = max(abs(target[1]) - CONFORMAL_MIN_DERIV + offset, 0)
        target[2:] *= total / np.sum(j * np.abs(target[2:]))
        ends = np.stack([identity_map(n), target])
        if solver_module._bound_passes(ends):
            decided[kind] += 1
            assert np.all(certify_conformal(DiscretePath(ends)) > CONFORMAL_MIN_DERIV)
        else:
            undecided += 1
    assert decided["far"] == 200
    assert decided["near"] > 20 and undecided > 20
