"""Reference dynamics for geodesics among the linear maps ``z -> c z``.

The linear maps are closed under the geodesic flow.  On them the package's
``lagrangian`` reads ``(pi/2) lam |dc/dt|**2`` with ``lam = |c|**2/2 + alpha``:
a conformal metric on the c-plane, invariant under ``c -> exp(i theta) c``.
In the pair ``(c, a)`` (map coefficient and reduced velocity, ``dc/dt = a c``)
its Euler-Lagrange equation ``c'' = ((c/2)|c'|**2 - Re(conj(c) c') c') / lam``
reads

    dc/dt = a c
    da/dt = |c|**2 (|a|**2/2 - a Re a) / lam - a**2 ,

which conserves the energy ``E = lam |dc/dt|**2`` and the Clairaut momentum
``p = lam Im(conj(c) dc/dt)``.

At ``alpha = 0`` the metric is ``|d(c**2)|**2 / 8``, flat in ``c**2``, so the
geodesic keeps ``c**2`` affine in time.  At ``alpha > 0`` the metric is
complete with curvature ``-alpha / lam**3 < 0``, so any two endpoints are
joined by exactly one geodesic, and it minimizes the action.  With
``u = |c|**2`` and ``sigma = |p| / sqrt(E)``, the path turns (if it does) at
the root ``u*`` of ``u**2/2 + alpha u = sigma**2``.  Writing ``u = u* + w**2``
with ``w`` increasing in time (negative before the turning point), the time
and angle quadratures of the two invariants become smooth odd functions of w:

    sqrt(E) t = H(w) - H(w0),    H(w) = (w s + alpha sgn(w) log1p(|w| (s + |w|) / D)) / (2 sqrt 2),
    theta - theta0 = sgn(p) (A(w) - A(w0)),    A(w) = atan2(w sqrt(u* + 2 alpha), sqrt(u u* + 2 sigma**2)),

with ``D = u* + alpha`` and ``s = sqrt(u + alpha + D)``.  These are the
quadratures in u, ``2 E t = sqrt(Q) + alpha sqrt(E/2) log(sqrt(2 E Q) + E u + E alpha)``
and ``theta = (sgn p / 2) arcsin((E alpha u - 2 p**2) / (u sqrt(E**2 alpha**2 + 2 E p**2)))``
with ``Q = E u lam - p**2``, split at the turning point; in w they keep full
precision there, where the arcsin form loses half the digits.

This module provides the right-hand side, a classical 4th-order fixed-step
integrator, the closed-form geodesic and its exact initial reduced velocity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchFailureError, SingularInertiaError
from .poly import _count, _real, check_alpha

__all__ = [
    "LinearState",
    "reduced_rhs",
    "integrate_reduced",
    "conserved_quantity",
    "closed_form",
    "initial_velocity",
]

_SINGULAR_TOL = 1e-12
_BISECTION_TOL = 1e-15
_NEWTON_STEPS = 50


@dataclass(frozen=True)
class LinearState:
    """Map coefficient and reduced velocity of a linear map ``c z``.

    Along any valid trajectory ``coeff`` stays away from zero (the map must
    remain invertible); ``vel`` is the reduced velocity: ``dc/dt = vel * c``.
    """

    coeff: complex
    vel: complex


def reduced_rhs(state: LinearState, alpha: float) -> LinearState:
    """Time derivative of the reduced state; raises at ``c = 0``, where the
    reduced velocity ``a = (dc/dt) / c`` is undefined, and for a state that
    is not finite (ValueError)."""
    return LinearState(*_rhs(*_finite(state), check_alpha(alpha)))


def _finite(state: LinearState) -> tuple[complex, complex]:
    """``(coeff, vel)`` of a finite state, or ValueError."""
    if not (cmath.isfinite(state.coeff) and cmath.isfinite(state.vel)):
        raise ValueError(f"the state must be finite, got {state}")
    return state.coeff, state.vel


def _rhs(c: complex, a: complex, alpha: float) -> tuple[complex, complex]:
    if abs(c) < _SINGULAR_TOL:
        raise SingularInertiaError(
            f"|c| = {abs(c):.3e} below {_SINGULAR_TOL}: the reduced velocity is undefined"
        )
    u = abs(c) ** 2
    return a * c, u * (abs(a) ** 2 / 2.0 - a * a.real) / (u / 2.0 + alpha) - a * a


def conserved_quantity(state: LinearState, alpha: float) -> tuple[float, float]:
    """Energy ``lam |dc/dt|**2`` and Clairaut momentum ``lam Im(conj(c) dc/dt)``,
    both constant along exact trajectories.  ``state`` may hold arrays of states.
    """
    c, a = state.coeff, state.vel
    u = abs(c) ** 2
    lam_u = (u / 2.0 + alpha) * u
    return lam_u * abs(a) ** 2, lam_u * a.imag


def integrate_reduced(state: LinearState, alpha: float, duration: float, steps: int) -> np.ndarray:
    """Fixed-step classical Runge-Kutta trajectory of the reduced dynamics.

    Returns a (steps+1, 2) complex array of (coeff, vel) pairs at the nodes;
    raises ValueError for a state or a duration that is not finite.
    """
    alpha = check_alpha(alpha)
    h = _real(duration, "duration", "real") / _count(steps, "steps", 1)
    c, a = _finite(state)
    out = np.empty((steps + 1, 2), dtype=complex)
    out[0] = (c, a)
    for k in range(steps):
        k1 = _rhs(c, a, alpha)
        k2 = _rhs(c + h / 2 * k1[0], a + h / 2 * k1[1], alpha)
        k3 = _rhs(c + h / 2 * k2[0], a + h / 2 * k2[1], alpha)
        k4 = _rhs(c + h * k3[0], a + h * k3[1], alpha)
        c = c + (h / 6) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        a = a + (h / 6) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        out[k + 1] = (c, a)
    return out


def _clock(w, u_star, alpha):
    """``H(w)``: time along the geodesic times ``sqrt(E)``, up to a constant."""
    u = u_star + w * w
    s = np.sqrt(u + 2.0 * alpha + u_star)
    aw = np.abs(w)
    log_term = np.sign(w) * np.log1p(aw * (s + aw) / (u_star + alpha))
    return (w * s + alpha * log_term) / (2.0 * math.sqrt(2.0))


def _clock_rate(w, u_star, alpha):
    """``dH/dw``, positive everywhere."""
    u = u_star + w * w
    return (u + 2.0 * alpha) / np.sqrt(2.0 * (u + 2.0 * alpha + u_star))


def _angle(w, u_star, alpha):
    """``A(w)``: polar angle swept along the geodesic, up to a constant."""
    sigma2 = u_star * (u_star / 2.0 + alpha)
    return np.arctan2(w * math.sqrt(u_star + 2.0 * alpha),
                      np.sqrt((u_star + w * w) * u_star + 2.0 * sigma2))


def _family(beta: float, u0: float, u1: float):
    """Turning point ``u*`` and end parameters ``(w0, w1)`` of the geodesics
    from ``|c|**2 = u0`` to ``|c|**2 = u1``, by shape ``beta`` in [0, pi]:
    ``beta = 0`` is the radial path, ``beta -> pi`` passes through ``c = 0``,
    and the swept angle grows strictly in between (geodesics are unique).
    """
    lo, hi = min(u0, u1), max(u0, u1)
    u_star = lo * math.sin(beta) ** 2
    w_lo, w_hi = math.sqrt(lo) * math.cos(beta), math.sqrt(hi - u_star)
    return (u_star, w_lo, w_hi) if u0 <= u1 else (u_star, -w_hi, -w_lo)


def _minimizer(c0: complex, c1: complex, alpha: float):
    """``(u*, w0, w1, sgn p)`` of the geodesic from c0 to c1 at alpha > 0.

    Bisection on the shape ``beta`` matches the swept angle to
    ``|arg(c1 / c0)|``.  Raises BranchFailureError when an endpoint or the
    geodesic itself reaches ``c = 0``.
    """
    if c0 == 0 or c1 == 0:
        raise BranchFailureError(f"endpoint {c0 if c0 == 0 else c1} is not an invertible map")
    phi = cmath.phase(c1 / c0)
    if abs(phi) == math.pi:
        raise BranchFailureError(f"the geodesic from {c0} to {c1} passes through c = 0")
    u0, u1 = abs(c0) ** 2, abs(c1) ** 2
    lo, hi = 0.0, math.pi if phi else 0.0
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        u_star, w0, w1 = _family(mid, u0, u1)
        if _angle(w1, u_star, alpha) - _angle(w0, u_star, alpha) < abs(phi):
            lo = mid
        else:
            hi = mid
    return (*_family(0.5 * (lo + hi), u0, u1), float(np.sign(phi)))


def _endpoints(c0, c1, alpha: float) -> tuple[complex, complex]:
    """The endpoints as complex numbers, each 0 or of modulus in ``[2**-255,
    2**255]`` or ValueError: in that range every square ``|c|**2``, and every
    product or quotient of two of them, is a finite normal double.  So must
    alpha be 0 or in ``[2**-510, 2**510]``, the range of those squares, or
    ValueError: then the clock's terms, ``u + 2 alpha`` and ``|w| (s + |w|) /
    (u* + alpha)`` among them, are finite too.  At ``alpha = 0`` the
    endpoints must be nonzero and less than a quarter turn apart, or the
    minimizer runs through ``c = 0`` (BranchFailureError); at alpha > 0
    :func:`_minimizer` checks them."""
    c0, c1 = complex(c0), complex(c1)
    # NaN fails both comparisons; hypot, unlike abs, overflows to inf quietly
    if not all(c == 0 or 2.0**-255 <= math.hypot(c.real, c.imag) <= 2.0**255
               for c in (c0, c1)):
        raise ValueError(
            f"endpoints must be 0 or of modulus in [2**-255, 2**255], got {c0} and {c1}")
    if not (alpha == 0.0 or 2.0**-510 <= alpha <= 2.0**510):
        raise ValueError(f"alpha must be 0 or in [2**-510, 2**510], got {alpha!r}")
    if alpha == 0.0 and (c0 == 0 or (c1 / c0).real <= 0):
        raise BranchFailureError(
            f"the geodesic from {c0} to {c1} at alpha = 0 reaches c = 0: the endpoints "
            f"must be nonzero and less than a quarter turn apart"
        )
    return c0, c1


def closed_form(c0: complex, c1: complex, alpha: float, ts) -> np.ndarray:
    """Coefficient path ``c(t)`` of the geodesic from c0 to c1 at times ts.

    At ``alpha = 0`` the path keeps ``c**2`` affine in time:
    ``c = c0 sqrt(1 + t ((c1/c0)**2 - 1))`` with the principal root, which
    is continuous along the segment and ends at ``c1`` exactly when
    ``Re(c1/c0) > 0``; from a quarter turn on, the minimizer runs through
    ``c = 0``.  At ``alpha > 0`` the path is the unique geodesic,
    evaluated from its invariants (see the module docstring): the time
    quadrature is inverted by Newton's method at every query time.  Raises
    BranchFailureError when the minimizer would reach ``c = 0``.
    """
    alpha = check_alpha(alpha)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.all((ts >= 0) & (ts <= 1)):  # NaN fails too
        raise ValueError("query times must lie in [0, 1]")
    c0, c1 = _endpoints(c0, c1, alpha)
    if alpha == 0.0:
        path = c0 * np.sqrt(1.0 + ts * ((c1 / c0) ** 2 - 1.0))
        path[ts == 1.0] = c1  # 1 + ((c1/c0)**2 - 1) need not round to (c1/c0)**2
        return path

    u_star, w0, w1, turn = _minimizer(c0, c1, alpha)
    h0 = _clock(w0, u_star, alpha)
    goal = h0 + ts * (_clock(w1, u_star, alpha) - h0)
    w = w0 + ts * (w1 - w0)
    for _ in range(_NEWTON_STEPS):
        step = (_clock(w, u_star, alpha) - goal) / _clock_rate(w, u_star, alpha)
        w = w - step
        if np.max(np.abs(step)) <= 1e-15 * (abs(w0) + abs(w1)):
            break
    theta = turn * (_angle(w, u_star, alpha) - _angle(w0, u_star, alpha))
    path = c0 * np.sqrt((u_star + w * w) / abs(c0) ** 2) * np.exp(1j * theta)
    path[ts == 0.0] = c0
    path[ts == 1.0] = c1
    return path


def initial_velocity(c0: complex, c1: complex, alpha: float) -> complex:
    """Reduced velocity ``a = (dc/dt) / c`` at t = 0 of the geodesic from c0
    to c1, the path :func:`closed_form` evaluates, in closed form: at
    ``alpha = 0`` it is ``((c1/c0)**2 - 1) / 2``; at ``alpha > 0`` it follows
    from the invariants.  Raises where closed_form does.
    """
    alpha = check_alpha(alpha)
    c0, c1 = _endpoints(c0, c1, alpha)
    if alpha == 0.0:
        return (c1 * c1 - c0 * c0) / (2.0 * c0 * c0)
    u_star, w0, w1, turn = _minimizer(c0, c1, alpha)
    sqrt_energy = _clock(w1, u_star, alpha) - _clock(w0, u_star, alpha)
    u0 = abs(c0) ** 2
    radial = w0 / _clock_rate(w0, u_star, alpha)
    angular = turn * math.sqrt(u_star * (u_star / 2.0 + alpha)) / (u0 / 2.0 + alpha)
    return complex(sqrt_energy * (radial + 1j * angular) / u0)
