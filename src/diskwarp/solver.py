"""Two-point geodesic solver: minimize the discrete action over interior steps.

Given a target map, the solver truncates it to the working degree bound,
interpolates linearly from the identity to build an initial path, and runs
limited-memory BFGS over the interior coefficients until the gradient sup-norm
reaches ``grad_tol``, preconditioned by the exact inverse Hessian of the
action at the constant identity path.  Its line search falls back on the
directional derivative once f stops resolving the decrease.  Each evaluation
is one call of the batched kernel :func:`~diskwarp.action.action_and_gradient`
for action and gradient together.  Endpoints are never touched, so a target
that fails certification fails before any iteration.  Optimization happens in
the ambient coefficient space; membership in the conformal maps is certified
afterwards by sampling the derivative modulus on a polar grid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .action import DiscretePath, action_and_gradient
from .errors import NoConvergenceError, NotConformalError
from .poly import _FLOAT_MAX, _is_integer, _is_number, as_coeffs, check_alpha, derivative, evaluate

__all__ = [
    "SolverConfig",
    "GeodesicResult",
    "CONFORMAL_MIN_DERIV",
    "identity_map",
    "project_by_truncation",
    "initial_guess",
    "certify_conformal",
    "solve",
]

# A step is declared non-conformal when min |phi'| on the sample grid _GRID,
# the center and then _ANGLES directions on each ring of radius j/8 in _RINGS,
# j = 1..8, ring by ring, is at or below this threshold.
CONFORMAL_MIN_DERIV = 1e-3
_ANGLES, _RINGS = 64, np.arange(1, 9) / 8
_GRID = np.concatenate([[0.0 + 0.0j], (_RINGS[:, None] * np.exp(
    1j * (2.0 * np.pi * np.arange(_ANGLES) / _ANGLES))[None, :]).ravel()])
_RINGS.flags.writeable = _GRID.flags.writeable = False

# L-BFGS pairs kept, Armijo fraction, backtracking factor, and round-off
# allowance of the line search's second test in ulps of f (see _lbfgs).
_MEMORY, _ARMIJO, _BACKTRACK, _ROUNDOFF_ULPS = 12, 1e-4, 0.5, 10


@dataclass(frozen=True)
class SolverConfig:
    """Problem sizes and termination knobs for one geodesic solve."""

    n: int
    num_steps: int
    alpha: float
    grad_tol: float = 1e-8
    max_iters: int = 5000

    def __post_init__(self):
        if not (_is_integer(self.n) and self.n >= 2):
            raise ValueError(f"degree bound n must be an integer >= 2, got {self.n!r}")
        if not (_is_integer(self.num_steps) and self.num_steps >= 2):
            raise ValueError(f"num_steps must be an integer >= 2, got {self.num_steps!r}")
        check_alpha(self.alpha)
        # NaN fails both comparisons; an int too large for a float fails the second
        if not (_is_number(self.grad_tol) and 0 < self.grad_tol <= _FLOAT_MAX):
            raise ValueError(f"grad_tol must be a positive finite number, got {self.grad_tol!r}")
        if not (_is_integer(self.max_iters) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")


@dataclass(frozen=True)
class GeodesicResult:
    """Converged path with diagnostics.

    ``action_history`` holds the action at the accepted iterates, which is
    non-increasing up to a few ulps of the action (the line search accepts
    steps that leave it unchanged within round-off).  ``conformal_certificate``
    holds min |phi_k'| over the sample grid for every step; all entries must
    exceed :data:`CONFORMAL_MIN_DERIV` for the path to count as conformal.
    """

    path: DiscretePath
    action: float
    grad_norm: float
    iterations: int
    converged: bool
    conformal_certificate: np.ndarray
    action_history: np.ndarray = field(repr=False)


def identity_map(n: int) -> np.ndarray:
    """Coefficients of ``phi(z) = z`` at degree bound n."""
    c = np.zeros(n, dtype=complex)
    c[1] = 1.0
    return c


def project_by_truncation(target, n: int) -> np.ndarray:
    """Drop coefficients at index n and beyond; keep the rest unchanged."""
    return as_coeffs(np.atleast_1d(target)[:n], n)


def initial_guess(target, num_steps: int) -> DiscretePath:
    """Straight-line interpolation in coefficient space from the identity."""
    tgt = np.atleast_1d(np.asarray(target, dtype=complex))
    start = identity_map(len(tgt))
    ts = np.linspace(0.0, 1.0, num_steps + 1)
    steps = (1.0 - ts[:, None]) * start[None, :] + ts[:, None] * tgt[None, :]
    return DiscretePath(steps)


def certify_conformal(path: DiscretePath) -> np.ndarray:
    """Per-step minimum of |phi'| over a polar grid of the closed disk.

    The grid has 64 equispaced directions on rings of radius ``j/8``, ``j =
    1..8``, and the center.  The boundary is always sampled, but the minimum
    modulus of a holomorphic derivative can sit strictly inside the disk,
    hence the interior rings.  Sampling is a certification heuristic, not a
    proof; ``evaluate(derivative(path.steps), z)`` samples a denser grid z.

    The values are those of Horner's rule on the whole grid, bit for bit,
    but Horner runs only at the points where a step's minimum can be.  On the
    ring of radius r, ``phi'(r w**m) = sum_j d_j r**j w**(j m)`` with ``w =
    exp(2 pi i / M)`` and M = 64 is one inverse FFT of the ring-scaled
    coefficients ``d_j r**j`` for the path's n, folded mod M when n exceeds M.
    This estimate E and the Horner values H differ by less than half the
    margin ``(n + M) 2**-40 sum_j |d_j|``: complex Horner at ``|z| <= 1`` errs
    by about ``4 n u sum_j |d_j|`` at most (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 5.1), and the FFT by a small multiple of ``(log2 M
    + n / M) u sum_j |d_j|``, with ``u = 2**-53``; an absolute term of n + M
    least normal doubles covers subnormal round-off.  So where H is least, E
    is within the margin of its own least, and Horner runs on the union of
    such candidate points over the steps.  A step whose terms past ``d_0``
    sum to at most the margin (the identity, a linear map), or that holds a
    NaN or an infinity, takes the whole grid.
    """
    d = derivative(path.steps)
    rows, n = d.shape
    moduli = np.abs(d)
    tail = np.sum(moduli[:, 1:], axis=1)
    margin = (n + _ANGLES) * (2.0**-40 * (moduli[:, 0] + tail) + np.finfo(float).tiny)
    flat = ~(tail > margin)  # NaN compares false: a NaN or an infinity is flat
    minima = np.empty(rows)
    if flat.any():
        minima[flat] = np.min(np.abs(evaluate(d[flat], _GRID)), axis=-1)
    if not flat.all():
        # each ring's r**j as complex numbers, for a screen product of one dtype
        estimate = _ring_estimate(d[~flat], (_RINGS[:, None] ** np.arange(n)).astype(complex))
        # an estimate that overflowed to NaN makes every point a candidate
        near = ~(estimate > (estimate.min(axis=1) + margin[~flat])[:, None])
        # Never one point: for a single row at a single point numpy's complex
        # product runs a scalar loop without the fused multiply-add of its
        # vector loop, and the last bit can differ from the whole grid's.
        near[:, :2] = True
        columns = np.flatnonzero(near.any(axis=0))
        minima[~flat] = np.min(np.abs(evaluate(d[~flat], _GRID[columns])), axis=-1)
    return minima


def _ring_estimate(d: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """``|p'|`` at every point of :data:`_GRID`, for each coefficient row of
    ``d``, from one inverse FFT per ring; ``powers`` holds each ring's
    ``r**j`` for ``j < n``."""
    rows, n = d.shape
    terms = d[:, None, :] * powers
    for start in range(_ANGLES, n, _ANGLES):  # w**(j m) depends on j mod M only
        block = terms[..., start:start + _ANGLES]
        terms[..., :block.shape[-1]] += block
    rings = np.fft.ifft(terms[..., :_ANGLES], _ANGLES, norm="forward")
    estimate = np.empty((rows, 1 + rings[0].size))
    estimate[:, 0] = np.abs(d[:, 0])
    np.abs(rings.reshape(rows, -1), out=estimate[:, 1:])
    return estimate


def solve(config: SolverConfig, target) -> GeodesicResult:
    """Geodesic from the identity to ``target`` by action minimization.

    Raises NoConvergenceError when the iteration budget or a line search runs
    out before the gradient reaches ``grad_tol``, and NotConformalError when
    any step of the accepted path fails certification.  Before any iteration,
    one quiet evaluation of the start raises the latter if an endpoint fails
    certification and the former if its action or gradient is not finite.
    Both carry the offending result on their ``result`` attribute.
    """
    path = initial_guess(project_by_truncation(target, config.n), config.num_steps)
    # the optimizer's variables are the interior rows, real and imaginary
    # parts interleaved: x.view(complex) is their row-major order
    interior = path.steps[1:-1]

    def fun_grad(x: np.ndarray):
        interior[...] = x.view(complex).reshape(interior.shape)
        f, g = action_and_gradient(path, config.alpha)
        return f, g.ravel().view(float)

    x = interior.ravel().view(float).copy()
    with np.errstate(all="ignore"):  # an overflowing target fails here, without warnings
        f, g = fun_grad(x)
        gnorm = float(np.max(np.abs(g)))
        if not np.all(certify_conformal(DiscretePath(path.steps[[0, -1]])) > CONFORMAL_MIN_DERIV):
            _certified(_result(path, f, gnorm, 0, False, [f]))
        if not (np.isfinite(f) and np.isfinite(gnorm)):
            raise NoConvergenceError(
                f"start not finite: action {f!r}, gradient sup-norm {gnorm!r}",
                result=_result(path, f, gnorm, 0, False, [f]))

    x, f, gnorm, iters, history, converged = _lbfgs(
        fun_grad, x, f, g,
        grad_tol=config.grad_tol,
        max_iters=config.max_iters,
        inv_hess=_inverse_hessian_at_identity(config.n, config.num_steps, config.alpha),
    )
    # the last evaluation may have been a rejected trial step
    interior[...] = x.view(complex).reshape(interior.shape)

    result = _result(path, f, gnorm, iters, converged, history)
    if not converged:
        raise NoConvergenceError(
            f"gradient sup-norm {gnorm:.3e} above {config.grad_tol:.1e} "
            f"after {iters} iterations",
            result=result,
        )
    return _certified(result)


def _result(path, f, gnorm, iters, converged, history) -> GeodesicResult:
    return GeodesicResult(path=path, action=f, grad_norm=gnorm, iterations=iters,
                          converged=converged, conformal_certificate=certify_conformal(path),
                          action_history=np.asarray(history))


def _certified(result: GeodesicResult) -> GeodesicResult:
    certificate = result.conformal_certificate
    bad = np.nonzero(~(certificate > CONFORMAL_MIN_DERIV))[0]  # NaN fails too
    if len(bad):
        raise NotConformalError(
            f"step(s) {bad.tolist()} have min |phi'| <= {CONFORMAL_MIN_DERIV:.0e} "
            f"(worst {certificate[bad].min():.3e}): the path is not in the conformal maps",
            result=result,
        )
    return result


def _inverse_hessian_at_identity(n: int, num_steps: int, alpha: float):
    """The inverse of the action's Hessian at the constant identity path,
    applied to a gradient in the solver's interleaved coordinates.

    There ``m' = 1`` and every increment is zero, so the Hessian is exactly
    ``pi N T (x) diag(1/(j+1) + alpha j)`` per real coordinate, with the time
    Laplacian ``T = tridiag(-1, 2, -1)`` of order N-1, whose inverse is
    ``T**-1[i, k] = min(i, k)(N - max(i, k)) / N``.
    """
    i = np.arange(1, num_steps)
    t_inv = np.minimum.outer(i, i) * (num_steps - np.maximum.outer(i, i)) / num_steps
    j = np.arange(n)
    # one weight per real coordinate, real and imaginary parts interleaved
    weights = np.repeat(np.pi * num_steps * (1.0 / (j + 1.0) + alpha * j), 2)
    return lambda g: (t_inv @ g.reshape(num_steps - 1, 2 * n) / weights).ravel()


def _lbfgs(fun_grad, x, f, g, grad_tol, max_iters, inv_hess):
    """Limited-memory BFGS with a backtracking line search from x, at which
    the caller evaluated f and g; ``_MEMORY`` pairs, steps cut by ``_BACKTRACK``.

    Returns (x, f, grad_sup_norm, iterations, accepted_action_history,
    converged); the history lists f at the start and at every accepted iterate.
    ``inv_hess`` maps a gradient to its image under ``H0``, the initial
    inverse Hessian of the two-loop recursion (scaled there by ``s.y / y.H0 y``
    of the latest pair), which is positive definite; as only pairs with ``s.y
    > 0`` are kept, so is the two-loop matrix, and every direction descends
    (Nocedal and Wright, *Numerical Optimization*, 7.2).  The loop stops on
    convergence, on the iteration budget, or when a line search runs out of
    backtracks, as one with no trials does after a slope that is not negative.

    A trial step passes the Armijo test or the round-off test of Hager and
    Zhang's approximate Wolfe conditions (SIAM J. Optim. 16, 2005): f rose
    by at most its round-off and ``g_new . d <= (1 - 2 _ARMIJO)(-g . d)``,
    the slope at which a quadratic along ``d`` meets the Armijo test.  Near
    the minimizer the decrease per step falls below the round-off of f, so
    f values cannot certify progress, but the analytic gradient still gives
    the slope to full precision.  The history is therefore non-increasing up
    to ``_ROUNDOFF_ULPS`` ulps of f.
    """
    history = [f]
    pairs = deque(maxlen=_MEMORY)  # curvature pairs (s, y, 1 / s.y), oldest first
    gnorm = float(np.max(np.abs(g)))
    iters = 0

    while gnorm > grad_tol and iters < max_iters:
        d = _two_loop_direction(g, pairs, inv_hess)
        slope = float(np.dot(g, d))

        step = 1.0 if iters > 0 else min(1.0, 1.0 / (1.0 + np.linalg.norm(g)))
        roundoff = _ROUNDOFF_ULPS * np.finfo(float).eps * (1.0 + abs(f))
        for _ in range(60 if slope < 0 else 0):
            x_new = x + step * d
            f_new, g_new = fun_grad(x_new)
            if f_new <= f + _ARMIJO * step * slope or (
                f_new <= f + roundoff
                and float(np.dot(g_new, d)) <= (1.0 - 2.0 * _ARMIJO) * -slope
            ):
                break
            step *= _BACKTRACK
        else:
            break

        _keep_pair(pairs, x_new - x, g_new - g)
        x, f, g = x_new, f_new, g_new
        history.append(f)
        gnorm = float(np.max(np.abs(g)))
        iters += 1

    return x, f, gnorm, iters, history, gnorm <= grad_tol


def _keep_pair(pairs, s, y):
    """Append ``(s, y, 1 / s.y)`` if ``s.y`` is positive beyond round-off."""
    sy = float(np.dot(s, y))
    if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
        pairs.append((s, y, 1.0 / sy))


def _two_loop_direction(g, pairs, inv_hess):
    d = -g
    if not pairs:
        return inv_hess(d)
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * np.dot(s, d)
        alphas.append(a)
        d -= a * y
    s, y, _ = pairs[-1]
    d = np.dot(s, y) / np.dot(y, inv_hess(y)) * inv_hess(d)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        d += (a - rho * np.dot(y, d)) * s
    return d
