"""Two-point geodesic solver."""

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


def full_grid_minima(steps):
    """The certificate by Horner's rule at every point of the 64 x 8 grid,
    which certify_conformal must give bit for bit."""
    return np.min(np.abs(evaluate(derivative(steps), solver_module._GRID)), axis=-1)


def test_certify_samples_interior_rings():
    # phi = z + 0.6 w z^2 with w = exp(2 pi i / 64) has phi' = 1 + 1.2 w z
    # vanishing at z = -5/(6 w) inside the disk, so the certified minimum
    # comes from the interior ring nearest the zero (r = 7/8, on a grid
    # direction), not from the boundary.  That point is the second row's only
    # candidate, and the identity row takes the whole grid: evaluated alone,
    # the point would go through numpy's scalar complex product, without the
    # fused multiply-add of its vector loop, and lose the last bit.
    steps = np.zeros((2, 3), dtype=complex)
    steps[:, 1] = 1.0
    steps[1, 2] = 0.6 * np.exp(2j * PI / 64)
    minima = certify_conformal(DiscretePath(steps))
    assert np.array_equal(minima, full_grid_minima(steps))
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
    assert checks.certificate(np.random.default_rng(37), 300) == 0


@pytest.mark.parametrize("name, size",
                         [pytest.param(p.stem, None, id=p.stem) for p in SHIPPED_CONFIGS]
                         + [pytest.param("example5a", (40, 64), id="example5a-40-64"),
                            pytest.param("example5c", (20, 128), id="example5c-20-128")])
def test_certificate_matches_full_grid_horner_on_solved_paths(name, size):
    """Every shipped config's solved path and endpoint pair, at its own
    (N, n) and at the benchmark's larger ones."""
    config = load_config(SHIPPED_CONFIGS[0].parent / f"{name}.json")
    num_steps, degree_bound = size or (config.num_steps, config.degree_bound)
    result = solve(SolverConfig(n=degree_bound, num_steps=num_steps, alpha=config.alpha),
                   config.target)
    steps = result.path.steps
    assert np.array_equal(result.conformal_certificate, full_grid_minima(steps))
    pair = steps[[0, -1]]
    assert np.array_equal(certify_conformal(DiscretePath(pair)), full_grid_minima(pair))


def test_ring_estimate_is_within_half_the_margin():
    """Where Horner's |phi'| is least, the ring-FFT estimate is within the
    margin of its own least as long as the two differ by at most half the
    margin.  Measured worst ratio: about 2e-5."""
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 300))  # past 64 the ring FFT folds mod 64
        steps = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        d = derivative(steps * rng.uniform(0.2, 1.0) ** np.arange(n))
        powers = (solver_module._RINGS[:, None] ** np.arange(n)).astype(complex)
        estimate = solver_module._ring_estimate(d, powers)
        margin = (n + solver_module._ANGLES) * 2.0**-40 * np.sum(np.abs(d), axis=1)
        gap = np.abs(estimate - np.abs(evaluate(d, solver_module._GRID))) / margin[:, None]
        worst = max(worst, float(np.max(gap)))
    assert worst < 0.5


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
    assert len(calls) == 1


def test_preconditioner_inverts_hessian_at_identity_path():
    assert checks.preconditioner(np.random.default_rng(29), 20) <= 1e-10


def test_iteration_budget_raises_no_convergence():
    with pytest.raises(NoConvergenceError) as excinfo:
        solve(SolverConfig(n=16, num_steps=20, alpha=0.1, max_iters=2), [0, 0.5])
    result = excinfo.value.result
    assert result is not None
    assert not result.converged
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
    assert result.iterations == 0
    assert not result.converged


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n=1, num_steps=20, alpha=0.1)
    with pytest.raises(ValueError):
        SolverConfig(n=16, num_steps=1, alpha=0.1)
    with pytest.raises(ValueError):
        SolverConfig(n=16, num_steps=20, alpha=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(n=16, num_steps=20, alpha=0.1, grad_tol=0.0)
    for bad in ({"grad_tol": float("inf")}, {"grad_tol": float("nan")}, {"max_iters": 2.5},
                {"n": 2.5}, {"num_steps": 2.5}, {"max_iters": True}, {"alpha": True},
                {"alpha": "0.1"}, {"alpha": None}, {"alpha": 10**400}, {"grad_tol": True},
                {"grad_tol": 10**400}, {"grad_tol": "1e-8"}, {"grad_tol": None}):
        with pytest.raises(ValueError):
            SolverConfig(**{"n": 16, "num_steps": 20, "alpha": 0.1, **bad})


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
    assert result.converged and result.grad_norm <= 1e-8
    assert result.iterations <= 30
    assert len(calls) <= result.iterations + 15


@pytest.mark.parametrize("name, num_steps, degree_bound", [("example5a", 40, 64),
                                                          ("example5c", 20, 128)])
def test_iteration_count_does_not_grow_with_mesh(name, num_steps, degree_bound):
    """The initial inverse Hessian is exact at the identity path, so the
    larger meshes of the benchmark converge in as few iterations as the
    shipped (N, n) = (20, 16)."""
    config = load_config(SHIPPED_CONFIGS[0].parent / f"{name}.json")
    result = solve(SolverConfig(n=degree_bound, num_steps=num_steps, alpha=config.alpha),
                   config.target)
    assert result.converged and result.grad_norm <= 1e-8
    assert result.iterations <= 30


def test_lbfgs_directions_descend():
    """The two-loop direction is a descent direction for any gradient, which
    is why the optimizer needs no steepest-descent restart: the initial
    inverse Hessian is positive definite and only pairs with ``s.y > 0`` are
    kept.  Half the drawn pairs have ``s.y <= 0``; keeping one of them can
    make the two-loop matrix indefinite."""
    rng = np.random.default_rng(43)
    kept = 0
    for _ in range(200):
        num_steps, n = int(rng.integers(2, 25)), int(rng.integers(2, 17))
        alpha = float(rng.choice([0.0, 0.01, 1.0, 1000.0]))
        inv_hess = solver_module._inverse_hessian_at_identity(n, num_steps, alpha)
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
