"""The numerical identities the package rests on, one function each.

Every check draws its samples from ``rng``, runs ``count`` trials and returns
the worst error it saw (NaN if any trial gave NaN); :func:`svg_format`
returns the number of values it got wrong.  ``diskwarp check`` runs
them through :data:`BATTERY`; the test suite calls the same functions with
its own seeds, counts and tolerances.
"""

from __future__ import annotations

import numpy as np

from .action import DiscretePath, action_and_gradient, action_gradient, discrete_action
from .frames import points_text
from .linear_geodesics import (LinearState, closed_form, conserved_quantity, initial_velocity,
                               integrate_reduced)
from .poly import adjoint_dz, derivative, inner_l2
from .solver import _inverse_hessian_at_identity, identity_map

__all__ = ["BATTERY", "adjoint", "action_modes", "gradient", "preconditioner", "conservation",
           "shooting", "svg_format"]


def _poly_pair(rng, max_len):
    """Two random complex polynomials of 1 to ``max_len - 1`` coefficients;
    both lengths are drawn first."""
    lengths = rng.integers(1, max_len), rng.integers(1, max_len)
    return [rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m) for m in lengths]


def _steps(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _near(rng, center):
    """``center`` plus a random point of the square of half-width 0.5."""
    return center + 0.5 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def adjoint(rng, count):
    """Relative gap in ``<xi, eta'> = <adjoint_dz(xi), eta>``, which also pins
    the ``pi/(i+1)`` normalization of the inner product."""
    worst = 0.0
    for _ in range(count):
        xi, eta = _poly_pair(rng, 33)
        lhs = inner_l2(xi, derivative(eta))
        worst = np.maximum(worst, abs(lhs - inner_l2(adjoint_dz(xi), eta)) / (1 + abs(lhs)))
    return worst


def action_modes(rng, count, alpha=0.3):
    """Relative gap of the fft-mode and the fused kernel's action to the naive
    mode, on random paths at the shipped (N, n) = (20, 16)."""
    worst = 0.0
    for _ in range(count):
        path = DiscretePath(_steps(rng, (21, 16)))
        naive = discrete_action(path, alpha, "naive")
        for other in (discrete_action(path, alpha, "fft"), action_and_gradient(path, alpha)[0]):
            worst = np.maximum(worst, abs(naive - other) / (1 + abs(naive)))
    return worst


def gradient(rng, count, shape, alpha, eps=1e-6):
    """Relative gap of :func:`action_gradient` to central differences of the
    action, in the real and the imaginary part of every interior coefficient
    of random paths of ``shape`` (N+1, n)."""
    worst = 0.0
    for _ in range(count):
        steps = _steps(rng, shape)
        for (k, j), g in np.ndenumerate(action_gradient(DiscretePath(steps), alpha)):
            for delta, an in ((eps, g.real), (1j * eps, g.imag)):
                sp, sm = steps.copy(), steps.copy()
                sp[k + 1, j] += delta
                sm[k + 1, j] -= delta
                fd = (discrete_action(DiscretePath(sp), alpha)
                      - discrete_action(DiscretePath(sm), alpha)) / (2 * eps)
                worst = np.maximum(worst, abs(fd - an) / (1 + abs(fd)))
    return worst


def preconditioner(rng, count, eps=1e-3):
    """Worst sup-norm ``|P(Hv) - v| / |v|`` of the solver's initial inverse
    Hessian P against the action's Hessian H at the constant identity path,
    for random (N, n, alpha) and directions v.  Hv is the Richardson value of
    central gradient differences at steps ``eps`` and ``2 eps``, exact up to
    round-off since the gradient is cubic."""
    worst = 0.0
    for _ in range(count):
        num_steps, n = rng.integers(2, 25), rng.integers(2, 17)
        alpha = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
        steps = np.tile(identity_map(n), (num_steps + 1, 1))
        v = np.zeros_like(steps)
        v[1:-1] = _steps(rng, (num_steps - 1, n))
        grads = [action_and_gradient(DiscretePath(steps + t * v), alpha)[1].ravel()
                 for t in (eps, -eps, 2 * eps, -2 * eps)]
        hv = (8 * (grads[0] - grads[1]) - grads[2] + grads[3]) / (12 * eps)
        p_hv = _inverse_hessian_at_identity(n, num_steps, alpha)(hv.view(float))
        v = v[1:-1].ravel().view(float)
        worst = np.maximum(worst, np.max(np.abs(p_hv - v)) / np.max(np.abs(v)))
    return worst


def conservation(rng, count, alphas=(0.0, 0.1, 1.0, 100.0)):
    """Largest drift of the energy and the Clairaut momentum along reduced
    trajectories over unit time, ``count`` random states per alpha."""
    worst = 0.0
    for alpha in alphas:
        for _ in range(count):
            state = LinearState(_near(rng, 1.0), _near(rng, 0.0))
            traj = integrate_reduced(state, alpha, 1.0, 1000)
            for q in conserved_quantity(LinearState(traj[:, 0], traj[:, 1]), alpha):
                worst = np.maximum(worst, np.max(np.abs(q - q[0])))
    return worst


def shooting(rng, count, alphas=(0.0, 0.1, 1.0, 10.0)):
    """Largest gap at 101 nodes between :func:`closed_form` and the reduced
    dynamics started from its :func:`initial_velocity`, for random targets
    near 1 and an alpha drawn from ``alphas``."""
    ts = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for _ in range(count):
        c1 = _near(rng, 1.0)
        alpha = float(rng.choice(alphas))
        ref = closed_form(1.0 + 0j, c1, alpha, ts)
        a0 = initial_velocity(1.0 + 0j, c1, alpha)
        traj = integrate_reduced(LinearState(1.0 + 0j, a0), alpha, 1.0, 100)
        worst = np.maximum(worst, np.max(np.abs(traj[:, 0] - ref)))
    return worst


def svg_format(rng, count):
    """Number of values whose ``"%.6f"`` text :func:`points_text` gets wrong.

    The values are ``count`` of each kind: magnitudes from 1e-8 to 1e3 of
    both signs, multiples of 1/128 (exact rounding ties when odd), the
    floats nearest seven-decimal ties such as 0.0185475, and the extremes
    +-0, +-999.9999995, 1e16, NaN and +-inf.  Each value is formatted alone,
    as the point ``x - ix`` whose text is ``"%.6f,%.6f" % (x, x)``.  A value
    the kernel declines counts as correct only if exact arithmetic puts it
    out of range, non-finite or within round-off of a tie.  The accepted
    values are then formatted together, in lines of random lengths (empty
    ones included), and every value of a line whose text differs counts.
    """
    signs = rng.choice([-1.0, 1.0], (3, count))
    values = np.concatenate([
        signs[0] * 10.0 ** rng.uniform(-8, 3, count),
        signs[1] * rng.integers(0, 128_000, count) / 128,
        signs[2] * [float(f"{10 * k + 5}e-7") for k in rng.integers(0, 10**8, count)],
        [0.0, -0.0, 999.9999995, -999.9999995, 1e16, np.nan, np.inf, -np.inf],
    ])
    wrong, accepted = 0, []
    for x in values:
        text = points_text([np.array([complex(x, -x)])])
        if text is None:
            wrong += not _must_decline(x)
        else:
            wrong += text != ["%.6f,%.6f" % (x, x)]
            accepted.append(x)
    points = np.stack([accepted, np.negative(accepted)], 1).ravel().view(complex)  # x - ix
    lines = np.split(points, np.sort(rng.integers(0, len(points) + 1, len(points) // 4)))
    for pts, text in zip(lines, points_text(lines) or [None] * len(lines)):
        wrong += len(pts) * (text != " ".join("%.6f,%.6f" % (x, x) for x in pts.real))
    return wrong


def _must_decline(x):
    """Whether :func:`points_text` may decline ``x``: not finite, ``|x| * 10**6``
    of 999_999_998 or more, or within its half-ulp of a half-integer, decided
    in exact arithmetic."""
    if not np.isfinite(x):
        return True
    num, den = abs(float(x)).as_integer_ratio()
    scaled = num * 10**6  # |x| * 10**6 == scaled / den
    return scaled >= 999_999_998 * den or abs(2 * (scaled % den) - den) * 2**51 <= scaled


# (name, check, arguments after ``rng``, tolerance on the worst error)
BATTERY = [
    ("adjoint identity <xi, eta'> = <adj xi, eta>", adjoint, (50,), 1e-12),
    ("action fft mode and fused kernel match naive mode", action_modes, (5,), 1e-12),
    ("analytic action gradient matches finite differences", gradient, (3, (6, 6), 0.7), 1e-6),
    # larger actions take a larger difference step
    ("analytic action gradient matches finite differences at (N, n) = (20, 16)",
     gradient, (1, (21, 16), 0.7, 1e-4), 1e-6),
    ("L-BFGS preconditioner inverts the action's Hessian at the identity path",
     preconditioner, (10,), 1e-10),
    ("reduced dynamics conserve energy and Clairaut momentum", conservation, (5,), 1e-10),
    ("closed form agrees with integrated dynamics", shooting, (3,), 1e-7),
    ("fixed-point SVG coordinates match %.6f", svg_format, (200,), 0),
]
