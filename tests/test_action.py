"""Kinetic energy, discrete action, and its analytic gradient."""

import numpy as np
import pytest

from diskwarp import checks
from diskwarp.action import (
    DiscretePath,
    action_and_gradient,
    action_gradient,
    discrete_action,
    discrete_lagrangian,
    lagrangian,
)

PI = np.pi


def random_path(rng, num_steps, n):
    steps = rng.standard_normal((num_steps + 1, n)) + 1j * rng.standard_normal((num_steps + 1, n))
    return DiscretePath(steps)


def fd_component(steps, alpha, k, j, real_part, eps=1e-6):
    delta = eps if real_part else 1j * eps
    sp, sm = steps.copy(), steps.copy()
    sp[k, j] += delta
    sm[k, j] -= delta
    return (
        discrete_action(DiscretePath(sp), alpha) - discrete_action(DiscretePath(sm), alpha)
    ) / (2 * eps)


def test_lagrangian_examples():
    z = [0, 1]
    assert lagrangian(z, [0, 0], 3.0) == 0
    assert lagrangian(z, z, 0.0) == pytest.approx(PI / 4)
    assert lagrangian(z, [1, 0], 5.0) == pytest.approx(PI / 2)


def test_lagrangian_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        phi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        dphi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert lagrangian(phi, dphi, 0.3) >= 0


def test_discrete_lagrangian_examples():
    z = np.array([0, 1], dtype=complex)
    assert discrete_lagrangian(z, z, 0.1, 2.0) == 0

    h = 0.05
    scaled = np.array([0, 1 + h], dtype=complex)
    expected = (h / 2) * (1 + h / 2) ** 2 * PI / 2
    assert discrete_lagrangian(z, scaled, h, 0.0) == pytest.approx(expected)

    h = 0.1
    translated = np.array([h, 1], dtype=complex)
    assert discrete_lagrangian(z, translated, h, 1.0) == pytest.approx(h / 2 * PI)


def test_discrete_lagrangian_symmetric_in_endpoints():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert discrete_lagrangian(u, v, 0.2, 0.7) == pytest.approx(
        discrete_lagrangian(v, u, 0.2, 0.7)
    )


def test_discrete_lagrangian_rejects_bad_step():
    z = np.array([0, 1], dtype=complex)
    with pytest.raises(ValueError):
        discrete_lagrangian(z, z, 0.0, 1.0)
    with pytest.raises(ValueError):
        discrete_lagrangian(z, z, -0.1, 1.0)
    with pytest.raises(ValueError, match="share a degree bound"):
        discrete_lagrangian(z, np.array([0, 1, 0.5]), 0.1, 1.0)


def test_constant_path_has_zero_action():
    steps = np.tile(np.array([0.2, 1.0, 0.1j]), (6, 1))
    path = DiscretePath(steps)
    assert discrete_action(path, 0.0) == 0
    assert discrete_action(path, 5.0) == 0


def test_action_is_sum_of_interval_terms():
    rng = np.random.default_rng(2)
    path = random_path(rng, 6, 5)
    expected = sum(
        discrete_lagrangian(path.steps[k], path.steps[k + 1], path.h, 0.4)
        for k in range(6)
    )
    assert discrete_action(path, 0.4) == pytest.approx(expected, rel=1e-13)


def test_two_step_scaling_action_composes():
    # linear-in-t scaling from z to 0.5z with N=2: two interval terms built
    # from the midpoint formula by hand
    steps = np.zeros((3, 2), dtype=complex)
    steps[:, 1] = [1.0, 0.75, 0.5]
    h = 0.5
    term = lambda a, b: (1 / (2 * h)) * abs((a + b) / 2) ** 2 * abs(b - a) ** 2 * PI / 2
    expected = term(1.0, 0.75) + term(0.75, 0.5)
    assert discrete_action(DiscretePath(steps), 0.0) == pytest.approx(expected)


@pytest.mark.parametrize("alpha", [0.0, 0.1, 3.0])
def test_action_positive_on_random_paths(alpha):
    rng = np.random.default_rng(3)
    for _ in range(10):
        assert discrete_action(random_path(rng, 4, 5), alpha) > 0


def test_action_invariant_under_path_reversal():
    rng = np.random.default_rng(4)
    path = random_path(rng, 7, 6)
    reversed_path = DiscretePath(path.steps[::-1])
    for alpha in (0.0, 0.8):
        assert discrete_action(path, alpha) == pytest.approx(
            discrete_action(reversed_path, alpha), rel=1e-13
        )


@pytest.mark.parametrize("alpha", [0.0, 0.25, 10.0])
def test_fft_mode_matches_naive(alpha):
    rng = np.random.default_rng(5)
    for _ in range(10):
        path = random_path(rng, rng.integers(1, 8), rng.integers(1, 20))
        a = discrete_action(path, alpha, "naive")
        b = discrete_action(path, alpha, "fft")
        assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_action_rejects_unknown_mode():
    path = random_path(np.random.default_rng(6), 3, 4)
    with pytest.raises(ValueError):
        discrete_action(path, 0.1, "magic")


def test_second_order_consistency_on_smooth_path():
    """The per-interval midpoint rule converges at second order to the time
    integral of the energy along a generic smooth (non-geodesic) path."""
    c = lambda t: 1.0 - 0.5 * t + 0.15j * np.sin(PI * t)
    dc = lambda t: -0.5 + 0.15j * PI * np.cos(PI * t)

    m = 8192  # Simpson quadrature of the continuous energy
    ts = np.linspace(0.0, 1.0, 2 * m + 1)
    vals = np.array(
        [lagrangian([0, c(t)], [0, dc(t)], 0.7) for t in ts]
    )
    energy = (1.0 / (6 * m)) * (
        vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum()
    )

    errors = []
    for num_steps in (10, 20, 40, 80):
        steps = np.zeros((num_steps + 1, 2), dtype=complex)
        steps[:, 1] = c(np.linspace(0.0, 1.0, num_steps + 1))
        errors.append(abs(discrete_action(DiscretePath(steps), 0.7) - energy))
    order = -np.polyfit(np.log([10, 20, 40, 80]), np.log(errors), 1)[0]
    assert order >= 1.9


def test_gradient_zero_on_constant_path():
    steps = np.tile(np.array([0.1, 1.0, -0.2j, 0.05]), (5, 1))
    grad = action_gradient(DiscretePath(steps), 0.6)
    assert np.max(np.abs(grad)) == 0


@pytest.mark.parametrize("alpha", [0.0, 0.7, 50.0])
def test_gradient_matches_finite_differences(alpha):
    # every interior component of five random paths
    assert checks.gradient(np.random.default_rng(7), 5, (6, 8), alpha) <= 1e-6


def test_gradient_single_direction_richardson():
    # Richardson-extrapolated difference quotient pins individual components
    # about two digits tighter than a plain central difference
    rng = np.random.default_rng(11)
    steps = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
    grad = action_gradient(DiscretePath(steps), 0.7)
    for k, j, real_part in [(1, 3, True), (2, 0, False), (4, 7, True), (3, 5, False)]:
        coarse = fd_component(steps, 0.7, k, j, real_part, eps=1e-6)
        fine = fd_component(steps, 0.7, k, j, real_part, eps=5e-7)
        richardson = (4 * fine - coarse) / 3
        an = grad[k - 1, j].real if real_part else grad[k - 1, j].imag
        assert abs(richardson - an) <= 1e-7 * (1 + abs(richardson))


@pytest.mark.parametrize("alpha", [0.0, 0.7])
@pytest.mark.parametrize("num_steps,n", [(2, 2), (3, 5), (20, 16), (40, 64), (20, 128)])
def test_action_and_gradient_match_interval_sum_and_finite_differences(num_steps, n, alpha):
    rng = np.random.default_rng(13)
    # Coefficients decaying like a map's keep the action moderate at large n,
    # so the difference quotients are not dominated by round-off.
    shape = (num_steps + 1, n)
    steps = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / (1.0 + np.arange(n))
    path = DiscretePath(steps)
    f, grad = action_and_gradient(path, alpha)
    expected = sum(
        discrete_lagrangian(steps[k], steps[k + 1], path.h, alpha) for k in range(num_steps)
    )
    assert f == pytest.approx(expected, rel=1e-12)
    for _ in range(8):
        k = int(rng.integers(1, num_steps))
        j = int(rng.integers(0, n))
        real_part = bool(rng.integers(0, 2))
        fd = fd_component(steps, alpha, k, j, real_part, eps=1e-5)
        an = grad[k - 1, j].real if real_part else grad[k - 1, j].imag
        assert abs(fd - an) <= 1e-6 * (1 + abs(fd))
    assert np.array_equal(action_gradient(path, alpha), grad)


def test_gradient_needs_interior_step():
    path = random_path(np.random.default_rng(8), 1, 4)
    with pytest.raises(ValueError):
        action_gradient(path, 0.1)
    with pytest.raises(ValueError):
        action_and_gradient(path, 0.1)


def test_path_validation_and_properties():
    with pytest.raises(ValueError):
        DiscretePath(np.zeros((1, 4)))
    with pytest.raises(ValueError):
        DiscretePath(np.zeros(4))
    path = DiscretePath(np.zeros((11, 3)))
    assert path.num_intervals == 10
    assert path.degree_bound == 3
    assert path.h == pytest.approx(0.1)
    assert np.allclose(path.times, np.linspace(0, 1, 11))


def test_alpha_validation():
    path = DiscretePath(np.zeros((3, 2)))
    # a bool, a string, None and an int too large for a float are not a weight
    for bad in (-0.5, float("nan"), float("inf"), "0.1", None, 10**400, True):
        with pytest.raises(ValueError):
            discrete_action(path, bad)
    with pytest.raises(ValueError):
        lagrangian([0, 1], [0, 1], -2.0)
