"""The numerical identities the package rests on, one function each.

Every check draws its samples from ``rng``, runs ``count`` trials and returns
the worst error it saw (NaN if any trial gave NaN); :func:`certificate`,
:func:`svg_format` and :func:`csv_format` return the number of values they
got wrong.  ``diskwarp check`` runs them through :data:`BATTERY`; the test
suite calls the same functions with its own seeds, counts and tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from .action import DiscretePath, action_and_gradient, action_gradient, discrete_action
from .frames import points_text, repr_text
from .linear_geodesics import (LinearState, closed_form, conserved_quantity, initial_velocity,
                               integrate_reduced)
from .poly import adjoint_dz, derivative, evaluate, inner_l2
from .solver import _ANGLES, _GRID, _inverse_hessian_at_identity, certify_conformal, identity_map

__all__ = ["BATTERY", "adjoint", "action_modes", "gradient", "preconditioner", "conservation",
           "shooting", "certificate", "svg_format", "csv_format"]


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


def action_modes(rng, count):
    """Relative gap of the fft-mode and the fused kernel's action to the naive
    mode, on random paths at the shipped (N, n) = (20, 16) and alpha 0.3."""
    worst = 0.0
    for _ in range(count):
        path = DiscretePath(_steps(rng, (21, 16)))
        naive = discrete_action(path, 0.3, "naive")
        for other in (discrete_action(path, 0.3, "fft"), action_and_gradient(path, 0.3)[0]):
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


def preconditioner(rng, count):
    """Worst sup-norm ``|P(Hv) - v| / |v|`` of the solver's initial inverse
    Hessian P against the action's Hessian H at the constant identity path,
    for random (N, n, alpha) and directions v.  Hv is the Richardson value of
    central gradient differences at steps ``eps = 1e-3`` and ``2 eps``, exact
    up to round-off since the gradient is cubic."""
    eps = 1e-3
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


def shooting(rng, count):
    """Largest gap at 101 nodes between :func:`closed_form` and the reduced
    dynamics started from its :func:`initial_velocity`, for random targets
    near 1 and an alpha drawn from 0, 0.1, 1 and 10."""
    ts = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for _ in range(count):
        c1 = _near(rng, 1.0)
        alpha = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
        ref = closed_form(1.0 + 0j, c1, alpha, ts)
        a0 = initial_velocity(1.0 + 0j, c1, alpha)
        traj = integrate_reduced(LinearState(1.0 + 0j, a0), alpha, 1.0, 100)
        worst = np.maximum(worst, np.max(np.abs(traj[:, 0] - ref)))
    return worst


def certificate(rng, count):
    """Number of values of :func:`certify_conformal` that differ in any bit
    from the least ``|p'|`` by Horner's rule over its whole 64 x 8 grid.

    Each trial draws a degree bound n, up to 64 on even trials and 65 to 191
    on odd ones, so that the ring FFT runs both unfolded and folded mod the
    grid's 64 directions, and certifies three paths: coefficients decaying
    at a random rate after the identity and a linear map (flat rows), with a
    NaN in one row on every other pair of trials; ``z + c z**k`` with ``c <
    0`` and k - 1 a divisor of 64, whose ``|p'|`` is least at k - 1 grid
    directions of each ring, where Horner's values differ in the last bits;
    and the identity followed by ``z + 0.6 w z**2`` for a random grid
    direction w, whose second row can have one candidate point alone.
    """
    wrong = 0
    for trial in range(count):
        n = int(rng.integers(_ANGLES + 1, 3 * _ANGLES) if trial % 2
                else rng.integers(3, _ANGLES + 1))
        decaying = _steps(rng, (4, n)) * rng.uniform(0.2, 1.0) ** np.arange(n)
        decaying[:2] = identity_map(n)
        decaying[1, 1] = _near(rng, 1.0)
        if trial % 4 >= 2:
            decaying[rng.integers(4), rng.integers(n)] = np.nan
        k = 1 + int(rng.choice([q for q in range(1, n - 1) if _ANGLES % q == 0]))
        ties = np.tile(identity_map(n), (2, 1))
        ties[:, k] = -rng.uniform(0.1, 0.9, 2) / k
        single = np.tile(identity_map(n), (2, 1))
        single[1, 2] = 0.6 * np.exp(2j * np.pi * rng.integers(_ANGLES) / _ANGLES)
        for steps in (decaying, ties, single):
            full = np.min(np.abs(evaluate(derivative(steps), _GRID)), axis=-1)
            screened = certify_conformal(DiscretePath(steps))
            wrong += int(np.sum(screened.view(np.uint64) != full.view(np.uint64)))
    return wrong


def svg_format(rng, count):
    """Number of values whose ``"%.6f"`` text :func:`points_text` gets wrong.

    The values are ``count`` of each kind: magnitudes from 1e-8 to 1e3 of
    both signs, multiples of 1/128 (exact rounding ties when odd), the
    floats nearest seven-decimal ties such as 0.0185475, and the extremes
    +-0, +-999.9999995, 1e16, NaN and +-inf.  Each value is formatted alone,
    as the point ``x - ix`` whose text is ``"%.6f,%.6f" % (x, x)``, and is
    wrong if its text differs or if the kernel declines it while
    :func:`_must_decline` does not allow that.  Then all values are formatted
    together, in lines of random lengths (empty ones included), and every
    value of a line whose text differs counts.
    """
    signs = rng.choice([-1.0, 1.0], (3, count))
    values = np.concatenate([
        signs[0] * 10.0 ** rng.uniform(-8, 3, count),
        signs[1] * rng.integers(0, 128_000, count) / 128,
        signs[2] * [float(f"{10 * k + 5}e-7") for k in rng.integers(0, 10**8, count)],
        [0.0, -0.0, 999.9999995, -999.9999995, 1e16, np.nan, np.inf, -np.inf],
    ])
    wrong = 0
    for x in values:
        texts, declined = points_text([np.array([complex(x, -x)])])
        wrong += texts != ["%.6f,%.6f" % (x, x)] or (declined.any() and not _must_decline(x))
    points = np.stack([values, np.negative(values)], 1).ravel().view(complex)  # x - ix
    lines = np.split(points, np.sort(rng.integers(0, len(points) + 1, len(points) // 4)))
    for pts, text in zip(lines, points_text(lines)[0]):
        wrong += len(pts) * (text != " ".join("%.6f,%.6f" % (x, x) for x in pts.real))
    return wrong


def _must_decline(x):
    """Whether :func:`points_text` may decline ``x``: not finite, or ``|x| *
    1e6`` of 999_999_998 or more, whose text may need a fourth integer digit,
    with a margin for the product's rounding."""
    return not abs(float(x)) * 1e6 < 999_999_998


def csv_format(rng, count):
    """Number of values whose :func:`repr_text` differs from ``repr``.

    The values are ``count`` of each kind: magnitudes log-uniform from the
    least normal double, about 2.2e-308, to 1e17 of both signs, random bit
    patterns, short decimals such as ``float("0.125")``, single-digit
    mantissas such as ``5e-100``, exact dyadic ties, where ``X = |x| *
    10**j`` is an odd multiple of 1/2 or of 5, and values below 1e-4 whose
    ``X`` lies within about ``2**-53`` of an integer or a half-integer.
    Then every power of two from the least normal double to 2**60, where the
    rounding interval is asymmetric, and its neighbours, ``10**-k`` for k =
    5..307 and their neighbours, the neighbours of 1e-4, 1e15, 1e16 and the
    least normal double, and the extremes +-0, 5e-324, the largest double,
    NaN and +-inf.  All go through the kernel together, so declined values
    sit among accepted ones.
    """
    signs = rng.choice([-1.0, 1.0], (5, count))
    least = np.finfo(float).tiny
    j = rng.integers(2, 25, count)
    halves = rng.integers(0, 2, count)
    odd = rng.uniform(10.0 ** (16 - j), 10.0 ** (17 - j)) * 2.0 ** (j + halves) // 2 * 2 + 1
    powers = np.ldexp(1.0, np.arange(-1022, 61))
    edges = np.array([1e-4, 1e15, 1e16, least] + [float(f"1e-{k}") for k in range(5, 308)])
    edges = np.concatenate([edges, powers, np.nextafter(edges, 0), np.nextafter(powers, 0),
                            np.nextafter(edges, np.inf), np.nextafter(powers, np.inf)])
    short = signs[1] * 10.0 ** rng.uniform(-5, 16, count)
    values = np.concatenate([
        signs[0] * 10.0 ** rng.uniform(np.log10(least), 17, count),
        rng.integers(0, 2**64, count, dtype=np.uint64).view(float),
        [float(f"{x:.{digits}e}") for x, digits in zip(short, rng.integers(0, 16, count))],
        signs[3] * [float(f"{d}e-{k}") for d, k in zip(rng.integers(1, 10, count),
                                                        rng.integers(5, 308, count))],
        signs[2] * np.ldexp(odd, -(j + halves)),
        signs[4] * _near_ties(rng, count),
        edges, np.negative(edges),
        [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
         np.nan, np.inf, -np.inf],
    ])
    return sum(text.tobytes().replace(b"\0", b"").decode() != repr(x)
               for text, x in zip(repr_text(values)[0], values.tolist()))


def _near_ties(rng, count):
    """``count`` doubles ``x = q * 2**(E - 1075)`` below 1e-4 whose ``X =
    |x| * 10**j`` lies within about ``2**-53`` of an integer or a
    half-integer, closer than :func:`repr_text`'s error bound there: ``q`` is
    a denominator in ``[2**52, 2**53)`` of a continued-fraction convergent
    ``p / q`` of ``2 * 10**j * 2**(E - 1075)``, so ``|2X - p| < 1 / q``.  The
    fraction is cut to 128 bits after the point, far finer than such
    convergents resolve."""
    values = []
    while len(values) < count:
        e = int(rng.integers(1, 1010))
        j = 16 - math.floor((e - 1022.5) * math.log10(2))
        num, den = 2 * 10**j, 2**(1075 - e)
        if e < 947:
            num, den = num >> (947 - e), 2**128
        p0, q0, p1, q1 = 0, 1, 1, 0
        while den and q1 < 2**53:
            if q1 >= 2**52 and 2 * 10**16 <= p1 < 2 * 10**17:
                values.append(math.ldexp(q1, e - 1075))
            a, num, den = num // den, den, num % den
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    return np.array(values[:count])


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
    ("screened conformality certificate matches full-grid Horner bit for bit",
     certificate, (100,), 0),
    ("fixed-point SVG coordinates match %.6f", svg_format, (200,), 0),
    ("shortest-repr CSV coordinates match repr", csv_format, (2000,), 0),
]
