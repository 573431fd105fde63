"""Two-point geodesic solver: minimize the discrete action over interior steps.

Given a target map, the solver truncates it to the working degree bound,
interpolates linearly from the identity to build an initial path, and runs
limited-memory BFGS over the interior coefficients until the gradient sup-norm
reaches ``grad_tol``.  Its line search falls back on the directional
derivative once f stops resolving the decrease.  Each evaluation is one call
of the batched kernel :func:`~diskwarp.action.action_and_gradient` for action
and gradient together.  Endpoints are never touched.  Optimization happens in
the ambient coefficient space; membership in the conformal maps is certified
afterwards by sampling the derivative modulus on a polar grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action import DiscretePath, action_and_gradient, check_alpha
from .errors import NoConvergenceError, NotConformalError
from .poly import as_coeffs, derivative, evaluate

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

# A step is declared non-conformal when min |phi'| on the sample grid is at
# or below this threshold.
CONFORMAL_MIN_DERIV = 1e-3

# Round-off allowance of the line search's second acceptance test, in ulps of
# the objective (see _lbfgs).
_ROUNDOFF_ULPS = 10


@dataclass(frozen=True)
class SolverConfig:
    """Problem sizes and termination knobs for one geodesic solve.

    ``conformality_samples`` is the (angular, radial) grid used to certify
    nonvanishing derivatives; the radial rings are ``j/R`` for ``j = 1..R``
    so the boundary circle is always included.
    """

    n: int
    num_steps: int
    alpha: float
    grad_tol: float = 1e-8
    max_iters: int = 5000
    conformality_samples: tuple[int, int] = (64, 8)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"degree bound must be at least 2, got {self.n}")
        if self.num_steps < 2:
            raise ValueError(f"need at least 2 time steps, got {self.num_steps}")
        check_alpha(self.alpha)
        if self.grad_tol <= 0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        angles, radii = self.conformality_samples
        if angles < 1 or radii < 1:
            raise ValueError(f"sample counts must be positive, got {self.conformality_samples}")


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
    action_history: np.ndarray = field(repr=False, default=None)


def identity_map(n: int) -> np.ndarray:
    """Coefficients of ``phi(z) = z`` at degree bound n."""
    c = np.zeros(n, dtype=complex)
    c[1] = 1.0
    return c


def project_by_truncation(target, n: int) -> np.ndarray:
    """Drop coefficients at index n and beyond; keep the rest unchanged."""
    c = np.atleast_1d(np.asarray(target, dtype=complex))
    out = np.zeros(n, dtype=complex)
    m = min(len(c), n)
    out[:m] = c[:m]
    return out


def initial_guess(target, num_steps: int) -> DiscretePath:
    """Straight-line interpolation in coefficient space from the identity."""
    tgt = np.atleast_1d(np.asarray(target, dtype=complex))
    start = identity_map(len(tgt))
    ts = np.linspace(0.0, 1.0, num_steps + 1)
    steps = (1.0 - ts[:, None]) * start[None, :] + ts[:, None] * tgt[None, :]
    return DiscretePath(steps)


def certify_conformal(path: DiscretePath, angles: int = 64, radii: int = 8) -> np.ndarray:
    """Per-step minimum of |phi'| over a polar grid of the closed disk.

    The grid has ``angles`` equispaced directions and rings of radius ``j/R``
    for ``j = 1..radii`` plus the center.  The boundary is always sampled,
    but the minimum modulus of a holomorphic derivative can sit strictly
    inside the disk, hence the interior rings.  Sampling is a certification
    heuristic, not a proof.
    """
    theta = 2.0 * np.pi * np.arange(angles) / angles
    rings = np.arange(1, radii + 1) / radii
    grid = np.concatenate([[0.0 + 0.0j], (rings[:, None] * np.exp(1j * theta)[None, :]).ravel()])
    minima = np.empty(path.steps.shape[0])
    for k, coeffs in enumerate(path.steps):
        minima[k] = np.min(np.abs(evaluate(derivative(coeffs), grid)))
    return minima


def solve(config: SolverConfig, target) -> GeodesicResult:
    """Geodesic from the identity to ``target`` by action minimization.

    Raises NoConvergenceError when the iteration budget or a line search runs
    out before the gradient reaches ``grad_tol``, and NotConformalError when
    any step of the accepted path fails certification; both carry the
    offending result on their ``result`` attribute.
    """
    tgt = project_by_truncation(as_coeffs(target), config.n)
    path0 = initial_guess(tgt, config.num_steps)
    N, n = config.num_steps, config.n
    endpoints = (path0.steps[0].copy(), path0.steps[-1].copy())

    def to_path(x: np.ndarray) -> DiscretePath:
        interior = x[: (N - 1) * n] + 1j * x[(N - 1) * n :]
        steps = np.vstack([endpoints[0], interior.reshape(N - 1, n), endpoints[1]])
        return DiscretePath(steps)

    def fun_grad(x: np.ndarray):
        f, g = action_and_gradient(to_path(x), config.alpha)
        return f, np.concatenate([g.real.ravel(), g.imag.ravel()])

    interior0 = path0.steps[1:-1].ravel()
    x0 = np.concatenate([interior0.real, interior0.imag])
    x, f, gnorm, iters, history, converged = _lbfgs(
        fun_grad,
        x0,
        grad_tol=config.grad_tol,
        max_iters=config.max_iters,
        inv_diag=_inverse_curvature_diag(n, N, config.alpha),
    )

    final = to_path(x)
    angles, radii = config.conformality_samples
    certificate = certify_conformal(final, angles, radii)
    result = GeodesicResult(
        path=final,
        action=f,
        grad_norm=gnorm,
        iterations=iters,
        converged=converged,
        conformal_certificate=certificate,
        action_history=np.asarray(history),
    )
    if not converged:
        raise NoConvergenceError(
            f"gradient sup-norm {gnorm:.3e} above {config.grad_tol:.1e} "
            f"after {iters} iterations",
            result=result,
        )
    bad = np.nonzero(certificate <= CONFORMAL_MIN_DERIV)[0]
    if len(bad):
        raise NotConformalError(
            f"step(s) {bad.tolist()} have min |phi'| <= {CONFORMAL_MIN_DERIV:.0e} "
            f"(worst {certificate[bad].min():.3e}): path left the conformal maps",
            result=result,
        )
    return result


def _inverse_curvature_diag(n: int, num_steps: int, alpha: float) -> np.ndarray:
    """Inverse of the per-coefficient curvature scale of the action.

    Near the identity path the second derivative of the action with respect
    to coefficient j of an interior step is about ``(2 pi / h)(1/(j+1) +
    alpha j)``; the spread between small and large j (a factor of roughly
    ``alpha n**2``) is what slows an unpreconditioned quasi-Newton method at
    large alpha.  Used as the initial inverse Hessian of the two-loop
    recursion.
    """
    j = np.arange(n)
    diag = (2.0 * np.pi * num_steps) * (1.0 / (j + 1.0) + alpha * j)
    per_step = 1.0 / diag
    interior = np.tile(per_step, num_steps - 1)
    return np.concatenate([interior, interior])  # real parts, then imaginary


def _lbfgs(fun_grad, x0, grad_tol, max_iters, inv_diag, memory=12,
           armijo=1e-4, backtrack=0.5):
    """Limited-memory BFGS with a backtracking line search.

    Returns (x, f, grad_sup_norm, iterations, accepted_action_history,
    converged); the history lists f at x0 and at every accepted iterate.
    ``inv_diag`` preconditions the two-loop recursion.  The loop stops on
    convergence, on the iteration budget, or when a line search runs out of
    backtracks.

    A trial step passes the Armijo test or the round-off test of Hager and
    Zhang's approximate Wolfe conditions (SIAM J. Optim. 16, 2005): f rose
    by at most its round-off and ``g_new . d <= (1 - 2 armijo)(-g . d)``,
    the slope at which a quadratic along ``d`` meets the Armijo test.  Near
    the minimizer the decrease per step falls below the round-off of f, so
    f values cannot certify progress, but the analytic gradient still gives
    the slope to full precision.  The history is therefore non-increasing up
    to ``_ROUNDOFF_ULPS`` ulps of f.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_grad(x)
    history = [f]
    s_list, y_list, rho_list = [], [], []
    gnorm = float(np.max(np.abs(g)))
    iters = 0

    while gnorm > grad_tol and iters < max_iters:
        d = _two_loop_direction(g, s_list, y_list, rho_list, inv_diag)
        slope = float(np.dot(g, d))
        if slope >= 0:  # stale curvature pairs; fall back to steepest descent
            s_list, y_list, rho_list = [], [], []
            d = -inv_diag * g
            slope = float(np.dot(g, d))

        step = 1.0 if iters > 0 else min(1.0, 1.0 / (1.0 + np.linalg.norm(g)))
        roundoff = _ROUNDOFF_ULPS * np.finfo(float).eps * (1.0 + abs(f))
        for _ in range(60):
            x_new = x + step * d
            f_new, g_new = fun_grad(x_new)
            if f_new <= f + armijo * step * slope or (
                f_new <= f + roundoff
                and float(np.dot(g_new, d)) <= (1.0 - 2.0 * armijo) * -slope
            ):
                break
            step *= backtrack
        else:
            break

        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            if len(s_list) > memory:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)

        x, f, g = x_new, f_new, g_new
        history.append(f)
        gnorm = float(np.max(np.abs(g)))
        iters += 1

    return x, f, gnorm, iters, history, gnorm <= grad_tol


def _two_loop_direction(g, s_list, y_list, rho_list, inv_diag):
    d = -g.copy()
    if not s_list:
        return inv_diag * d
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * np.dot(s, d)
        alphas.append(a)
        d -= a * y
    y_last, s_last = y_list[-1], s_list[-1]
    gamma = np.dot(s_last, y_last) / np.dot(y_last, inv_diag * y_last)
    d *= gamma * inv_diag
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * np.dot(y, d)
        d += (a - b) * s
    return d
