"""Reduced reference dynamics on the linear maps c z."""

import sys

import numpy as np
import pytest

from diskwarp import checks
from diskwarp.errors import BranchFailureError, SingularInertiaError
from diskwarp.linear_geodesics import (
    LinearState,
    closed_form,
    initial_velocity,
    integrate_reduced,
    reduced_rhs,
)

PI = np.pi


def test_rhs_examples():
    rest = reduced_rhs(LinearState(0.7 + 0.2j, 0.0), 1.0)
    assert rest.coeff == 0 and rest.vel == 0

    d = reduced_rhs(LinearState(1.0, 1.0), 0.0)
    assert d.coeff == pytest.approx(1.0)
    assert d.vel == pytest.approx(-2.0)

    # Euler-Lagrange at c = a = 1, alpha = 2: lam = |c|**2/2 + alpha = 5/2 and
    # da/dt = |c|**2 (|a|**2/2 - a Re a) / lam - a**2 = (1/2 - 1) / (5/2) - 1
    d = reduced_rhs(LinearState(1.0, 1.0), 2.0)
    assert d.coeff == pytest.approx(1.0)
    assert d.vel == pytest.approx(-6.0 / 5.0)


def test_rhs_singular_inertia():
    # the inertia lam = |c|**2/2 + alpha never vanishes for alpha > 0; the
    # reduced velocity a = (dc/dt) / c is what breaks down, at c = 0
    with pytest.raises(SingularInertiaError):
        reduced_rhs(LinearState(0.0, 1.0), 0.1)


def test_rest_state_stays_at_rest():
    traj = integrate_reduced(LinearState(0.8 - 0.3j, 0.0), 0.5, 1.0, 50)
    assert np.allclose(traj[:, 0], 0.8 - 0.3j)
    assert np.allclose(traj[:, 1], 0.0)


NON_FINITE_STATES = [LinearState(np.nan, 0.5), LinearState(1.0, np.inf),
                     LinearState(complex(1.0, np.nan), 0.5),
                     LinearState(1.0, complex(0.5, -np.inf))]


@pytest.mark.parametrize("state, duration, steps", [
    *((LinearState(1.0, 0.5), duration, steps) for duration, steps in (
        (1.0, 0), (1.0, 2.5), (1.0, True), (np.nan, 10), (np.inf, 10), (True, 10), (10**400, 10))),
    *((state, 1.0, 4) for state in NON_FINITE_STATES),
], ids=["0", "2.5", "True", "duration-nan", "duration-inf", "duration-True", "duration-huge",
        "coeff-nan", "vel-inf", "coeff-imag-nan", "vel-imag-inf"])
def test_integrate_reduced_rejects_bad_steps(state, duration, steps):
    with pytest.raises(ValueError):
        integrate_reduced(state, 0.1, duration, steps)


def test_narrow_duration_steps_as_its_float():
    """A float32 duration is widened before the step is formed, so the
    trajectory is the float64 one bit for bit."""
    state = LinearState(1.0, 0.5)
    narrow = integrate_reduced(state, 0.1, np.float32(0.1), 20)
    assert narrow.tobytes() == integrate_reduced(state, 0.1, float(np.float32(0.1)), 20).tobytes()


@pytest.mark.parametrize("state", NON_FINITE_STATES,
                         ids=["coeff-nan", "vel-inf", "coeff-imag-nan", "vel-imag-inf"])
def test_reduced_rhs_rejects_non_finite_state(state):
    with pytest.raises(ValueError):
        reduced_rhs(state, 0.1)


def test_scaling_trajectory_squares_affine():
    # velocity implied by conservation for endpoints 1 -> 0.5 at alpha = 0
    q0, q1 = 1.0, 0.25
    a0 = (q1 - q0) / 2.0
    traj = integrate_reduced(LinearState(1.0, a0), 0.0, 1.0, 1000)
    ts = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(traj[:, 0] ** 2 - (1.0 - 0.75 * ts))) < 1e-8
    assert abs(traj[-1, 0] - 0.5) < 1e-9


@pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0, 100.0])
def test_conserved_quantity_drift(alpha):
    assert checks.conservation(np.random.default_rng(17), 5, (alpha,)) <= 1e-10


def test_closed_form_constant_for_equal_endpoints():
    ts = np.linspace(0, 1, 17)
    vals = closed_form(0.6 + 0.1j, 0.6 + 0.1j, 2.0, ts)
    assert np.allclose(vals, 0.6 + 0.1j)


def test_closed_form_scaling_midpoint():
    val = closed_form(1.0, 0.5, 0.0, [0.5])[0]
    assert val == pytest.approx(np.sqrt(0.625))
    assert val == pytest.approx(0.790569, abs=1e-6)


def test_closed_form_rotation_midpoint_modulus():
    c1 = np.exp(0.4j * PI)
    val = closed_form(1.0, c1, 0.0, [0.5])[0]
    assert abs(val) == pytest.approx(np.sqrt(np.cos(0.4 * PI)), abs=1e-12)
    assert abs(val) == pytest.approx(0.5559, abs=1e-4)


def test_closed_form_square_plus_alpha_affine():
    ts = np.linspace(0, 1, 33)
    c = closed_form(1.0, 0.5, 0.0, ts)
    q_affine = (1 - ts) * 1.0 + ts * 0.25
    assert np.max(np.abs(c * c - q_affine)) < 1e-12 * (1 + np.max(np.abs(c * c)))

    # at alpha > 0 the path conserves the energy lam |dc/dt|**2 and the
    # Clairaut momentum lam Im(conj(c) dc/dt), velocities from dense central
    # differences (as in acceptance criterion 6) at the interior nodes
    ts = np.linspace(0.0, 1.0, 2001)[1:-1]
    delta = 1e-5
    for alpha, c1 in [(0.7, 0.4 + 0.3j), (100.0, np.exp(0.4j * PI))]:
        c = closed_form(1.0, c1, alpha, ts)
        dc = (closed_form(1.0, c1, alpha, ts + delta)
              - closed_form(1.0, c1, alpha, ts - delta)) / (2 * delta)
        lam = np.abs(c) ** 2 / 2 + alpha
        energy, momentum = lam * np.abs(dc) ** 2, lam * (np.conj(c) * dc).imag
        for invariant in (energy, momentum):
            assert np.max(np.abs(invariant - np.median(invariant))) <= 1e-8 * np.max(np.abs(invariant))


def test_closed_form_large_alpha_approaches_linear_interpolation():
    ts = np.linspace(0, 1, 41)
    c1 = 0.4 + 0.3j
    prev = np.inf
    for alpha in (1e2, 1e3, 1e4):
        dev = np.max(np.abs(closed_form(1.0, c1, alpha, ts) - ((1 - ts) + ts * c1)))
        assert dev < prev
        prev = dev
    assert prev < 2e-5


def test_pure_scalings_stay_real_positive():
    ts = np.linspace(0, 1, 101)
    for alpha in (0.0, 0.1, 1.0, 100.0):
        for c1 in (0.3, 0.5, 2.0):
            c = closed_form(1.0, c1, alpha, ts)
            assert np.max(np.abs(c.imag)) == 0
            assert np.min(c.real) > 0


def test_closed_form_agrees_with_integrated_dynamics():
    assert checks.shooting(np.random.default_rng(23), 20) <= 1e-7


def geodesic_rk4(c, dc, alpha, steps, every):
    """Classical Runge-Kutta on the geodesic equation of the metric
    (|c|**2/2 + alpha) |dc|**2 in Cartesian form, vectorized over initial
    states; returns c at every ``every``-th node."""
    def accel(c, v):
        return ((c / 2) * np.abs(v) ** 2 - (np.conj(c) * v).real * v) / (np.abs(c) ** 2 / 2 + alpha)

    h = 1.0 / steps
    out = [c]
    for k in range(steps):
        k1c, k1v = dc, accel(c, dc)
        k2c, k2v = dc + h / 2 * k1v, accel(c + h / 2 * k1c, dc + h / 2 * k1v)
        k3c, k3v = dc + h / 2 * k2v, accel(c + h / 2 * k2c, dc + h / 2 * k2v)
        k4c, k4v = dc + h * k3v, accel(c + h * k3c, dc + h * k3v)
        c = c + h / 6 * (k1c + 2 * k2c + 2 * k3c + k4c)
        dc = dc + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if (k + 1) % every == 0:
            out.append(c)
    return np.array(out)


@pytest.mark.parametrize("alpha", [0.1, 100.0])
def test_closed_form_matches_rk_geodesic_equation(alpha):
    # real scalings in [0.3, 0.9] and rotations by 0.2 pi to 0.45 pi either way,
    # each integrated from its exact initial velocity
    targets = [0.3, 0.6, 0.9] + [np.exp(1j * PI * s * f) for s in (-1, 1) for f in (0.2, 0.3, 0.45)]
    a0 = np.array([initial_velocity(1.0 + 0j, c1, alpha) for c1 in targets])
    ones = np.ones(len(targets), dtype=complex)
    traj = geodesic_rk4(ones, a0, alpha, steps=2000, every=100)
    ts = np.linspace(0.0, 1.0, 21)
    for i, c1 in enumerate(targets):
        assert np.max(np.abs(traj[:, i] - closed_form(1.0, c1, alpha, ts))) <= 1e-9


def test_initial_velocity_hits_endpoint():
    a0 = initial_velocity(1.0 + 0j, 0.5 + 0.1j, 0.3)
    traj = integrate_reduced(LinearState(1.0 + 0j, a0), 0.3, 1.0, 500)
    assert abs(traj[-1, 0] - (0.5 + 0.1j)) <= 1e-10


@pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0, 100.0])
def test_initial_velocity_is_closed_form_derivative(alpha):
    # one-sided 3-point difference of the closed form at t = 0, over c0
    h = 1e-5
    for c0, c1 in ((1.0, 0.5), (1.0, np.exp(0.3j * PI)), (0.9 - 0.2j, 0.7 * np.exp(0.3j))):
        c = closed_form(c0, c1, alpha, [0.0, h, 2 * h])
        slope = (-3 * c[0] + 4 * c[1] - c[2]) / (2 * h)
        assert abs(slope / c0 - initial_velocity(c0, c1, alpha)) <= 1e-8


def test_initial_velocity_branch_failures():
    # the same endpoints closed_form rejects: c0 = 0 at any alpha, a quarter
    # turn or more at alpha = 0, a half turn at alpha > 0
    for c0, c1, alpha in ((0.0, 0.5, 0.0), (0.0, 0.5, 1.0), (1.0, 1j, 0.0),
                          (1.0, np.exp(0.95j * PI), 0.0), (1.0, -1.0, 0.1), (0.5j, -0.5j, 10.0)):
        with pytest.raises(BranchFailureError):
            closed_form(c0, c1, alpha, [0.0, 1.0])
        with pytest.raises(BranchFailureError):
            initial_velocity(c0, c1, alpha)


def test_branch_failure_for_large_rotation():
    # at alpha = 0 the minimizer for a rotation of a quarter turn or more runs
    # through c = 0; just short of a quarter turn the path still ends at c1
    ts = np.linspace(0, 1, 5)
    near = np.exp(0.499j * PI)
    assert abs(closed_form(1.0, near, 0.0, ts)[-1] - near) <= 1e-15
    for turn in (0.501, 0.95):
        with pytest.raises(BranchFailureError):
            closed_form(1.0, np.exp(1j * PI * turn), 0.0, ts)


def test_closed_form_ends_exactly_at_the_endpoints():
    # at alpha = 0, 1 + ((c1/c0)**2 - 1) loses (c1/c0)**2 below the round-off of 1
    ts = [0.0, 0.5, 1.0]
    for alpha in (0.0, 0.1):
        for c0, c1 in ((1.0, 1e-70), (1.0, 3e-9j + 1e-9), (2.0**-255, 2.0**255), (0.7, 0.7)):
            path = closed_form(c0, c1, alpha, ts)
            assert path[0] == c0 and path[-1] == c1


def test_closed_form_rejects_bad_times():
    """And endpoints that are not finite or whose moduli lie outside [2**-255,
    2**255] (the closed form would overflow or warn), which initial_velocity
    rejects too."""
    for alpha in (0.0, 0.1):
        for ts in ([-0.1], [1.5], [np.nan]):
            with pytest.raises(ValueError):
                closed_form(1.0, 0.5, alpha, ts)
        for c0, c1 in ((1.0, np.nan), (1.0, np.inf), (np.inf, 0.5), (complex(1, np.nan), 0.5),
                       (1.0, 1e200), (1.0, 1e154), (1e-200, 1.0), (1.0, 1e-200),
                       (1.0, complex(1.5e308, 1.5e308)), (1.0, 2.0**255 * 1.0000001)):
            with pytest.raises(ValueError):
                closed_form(c0, c1, alpha, [0.0, 0.5, 1.0])
            with pytest.raises(ValueError):
                initial_velocity(c0, c1, alpha)


def test_every_alpha_gives_a_finite_path_or_a_value_error():
    """From 0 through the subnormals to the largest double, alpha outside
    [2**-510, 2**510] is a ValueError and alpha inside gives a finite path
    that ends exactly at c1 and a finite initial velocity, at every endpoint
    modulus, real or turned by 0.3 pi; never a RuntimeWarning
    (filterwarnings = error)."""
    ts = np.linspace(0.0, 1.0, 5)
    for alpha in (0.0, *(2.0**k for k in range(-1074, 1024, 37)), 1e308, sys.float_info.max,
                  2.0**-510, 2.0**510, np.nextafter(2.0**-510, 0), np.nextafter(2.0**510, np.inf)):
        for k in (-255, -100, -20, 0, 20, 100, 255):
            for c1 in (2.0**k, 2.0**k * np.exp(0.3j * PI)):
                if not (alpha == 0.0 or 2.0**-510 <= alpha <= 2.0**510):
                    with pytest.raises(ValueError, match="alpha"):
                        closed_form(1.0, c1, alpha, ts)
                    with pytest.raises(ValueError, match="alpha"):
                        initial_velocity(1.0, c1, alpha)
                    continue
                path = closed_form(1.0, c1, alpha, ts)
                assert np.all(np.isfinite(path)) and path[-1] == c1
                assert np.isfinite(initial_velocity(1.0, c1, alpha))
