"""Two-point geodesic solver: minimize the discrete action over interior steps.

Given a target map, the solver truncates it to the working degree bound,
interpolates linearly from the identity to build an initial path, and runs
limited-memory BFGS over the interior coefficients until the gradient sup-norm
reaches ``grad_tol``, preconditioned by the inverse of the metric along that
initial path, the exact inverse Hessian of the action at every constant
affine path (see ``_inverse_hessian_along``).  Its line search falls back on the
directional derivative once f stops resolving the decrease.  Each evaluation
is one call of the batched kernel :func:`~diskwarp.action.action_and_gradient`
for action and gradient together.  Endpoints are never touched, so a target
that fails certification fails before any iteration.  Optimization happens in
the ambient coefficient space; membership in the conformal maps is certified
afterwards by sampling the derivative modulus on a polar grid, one batched
ring FFT, and at the endpoints first by a coefficient bound where it decides
the outcome.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .action import DiscretePath, action_and_gradient
from .errors import NoConvergenceError, NotConformalError
from .poly import _count, _real, as_coeffs, check_alpha, derivative, monomial_weights

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
        _count(self.n, "degree bound n", 2)
        _count(self.num_steps, "num_steps", 2)
        # stored widened, so that no comparison in a solve casts a float bound
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        object.__setattr__(self, "grad_tol", _real(self.grad_tol, "grad_tol", "positive"))
        _count(self.max_iters, "max_iters", 1)


@dataclass(frozen=True)
class GeodesicResult:
    """Converged path with diagnostics.

    ``action_history`` holds the action at the accepted iterates, which is
    non-increasing up to a few ulps of the action (the line search accepts
    steps that leave it unchanged within round-off).  ``conformal_certificate``
    holds min |phi_k'| over the sample grid for every step; all entries must
    exceed :data:`CONFORMAL_MIN_DERIV` for the path to count as conformal.
    ``evaluations`` counts the calls of the kernel, the start's included.
    ``termination`` names the optimizer's exit: ``"converged"``,
    ``"budget"`` or ``"line search"``, or ``"start"`` for a result attached
    to a failure before the first iteration; ``converged`` is read from it.
    """

    path: DiscretePath
    action: float
    grad_norm: float
    iterations: int
    conformal_certificate: np.ndarray
    action_history: np.ndarray = field(repr=False)
    evaluations: int
    termination: str

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


def identity_map(n: int) -> np.ndarray:
    """Coefficients of ``phi(z) = z`` at degree bound n >= 2."""
    c = np.zeros(_count(n, "the identity's degree bound n", 2), dtype=complex)
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
    The samples are those of :func:`_samples`, one batched ring FFT, which
    lie within half of :func:`_margin` of Horner's rule at every grid point.
    A step that holds a NaN or an infinity gets NaN, and fails.  The
    samples live in a workspace of :func:`_samples`; the certificate
    returned is a fresh array.
    """
    return np.min(_samples(derivative(path.steps)), axis=1)


class _RingWorkspace:
    """Every array of :func:`_samples` for derivatives of shape (rows, n):
    the ring powers ``r**j``, the ring-scaled terms, the inverse FFT of the
    folded terms and the samples, whose columns after the center's are
    ``moduli``, the FFT's moduli in place."""

    def __init__(self, rows: int, n: int):
        self.powers = _RINGS[:, None] ** np.arange(n)
        self.terms = np.empty((rows, len(_RINGS), n), complex)
        self.inverse = np.empty((rows, len(_RINGS), _ANGLES), complex)
        self.samples = np.empty((rows, 1 + len(_RINGS) * _ANGLES))
        self.moduli = self.samples[:, 1:].reshape(self.inverse.shape)


@lru_cache(maxsize=4)
def _ring_workspace(thread: int, rows: int, n: int) -> _RingWorkspace:
    """The workspace of :func:`_samples` for derivatives of shape (rows, n)
    in the thread of that identifier; the last four keys are kept, as for
    the kernel's :func:`~diskwarp.action._workspace`."""
    return _RingWorkspace(rows, n)


def _samples(d: np.ndarray) -> np.ndarray:
    """``|p'|`` at the points of :data:`_GRID`, in its order, for each
    coefficient row of a derivative ``d``: (rows, 1 + 8 * _ANGLES).

    The center gives ``|d_0|``.  On the ring of radius r, ``p'(r w**m) =
    sum_j d_j r**j w**(j m)`` with ``w = exp(2 pi i / M)`` and M = 64 is one
    inverse FFT of the ring-scaled coefficients ``d_j r**j``, folded mod M
    when n exceeds M, and all eight rings of all rows take one FFT call.

    Every array, the returned samples included, belongs to a workspace per
    thread and shape of ``d``, so the next call at that shape overwrites
    them: a caller that keeps the samples must copy them.  The values are
    those of the same operations on fresh arrays, bit for bit.
    """
    rows, n = d.shape
    w = _ring_workspace(threading.get_ident(), rows, n)
    terms = np.multiply(d[:, None, :], w.powers, out=w.terms)
    for start in range(_ANGLES, n, _ANGLES):  # w**(j m) depends on j mod M only
        block = terms[..., start:start + _ANGLES]
        terms[..., :block.shape[-1]] += block
    np.fft.ifft(terms[..., :_ANGLES], _ANGLES, norm="forward", out=w.inverse)
    np.abs(d[:, 0], out=w.samples[:, 0])
    np.abs(w.inverse, out=w.moduli)
    return w.samples


def _margin(moduli: np.ndarray) -> np.ndarray:
    """``(n + M) (2**-40 sum_j |d_j| + tiny)`` for each row of the moduli
    ``|d|`` of a derivative: twice a bound on the gap between :func:`_samples`
    and Horner's rule.  Complex Horner at ``|z| <= 1`` errs by about ``4 n u
    sum_j |d_j|`` at most (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 5.1), and the ring FFT by a small multiple of ``(log2 M + n /
    M) u sum_j |d_j|``, with ``u = 2**-53``; n + M least normal doubles cover
    subnormal round-off."""
    return (moduli.shape[1] + _ANGLES) * (2.0**-40 * np.sum(moduli, axis=1)
                                          + np.finfo(float).tiny)


def _bound_passes(ends: np.ndarray) -> bool:
    """Whether every row of ``ends`` passes certification by the coefficient
    bound ``|d_0| - sum_{j>=1} |d_j|`` on ``|p'|`` over the closed disk: it
    clears :data:`CONFORMAL_MIN_DERIV` by two margins of :func:`_margin`,
    beyond the round-off of the sampled certificate.  This is the coefficient
    test of Noshiro and Warschawski (Duren, *Univalent Functions*, 1983),
    which also proves univalence."""
    moduli = np.abs(derivative(ends))
    return bool(np.all(moduli[:, 0] - np.sum(moduli[:, 1:], axis=1)
                       > CONFORMAL_MIN_DERIV + 2 * _margin(moduli)))


def solve(config: SolverConfig, target) -> GeodesicResult:
    """Geodesic from the identity to ``target`` by action minimization.

    Raises NoConvergenceError when the iteration budget or a line search runs
    out before the gradient reaches ``grad_tol``, and NotConformalError when
    any step of the accepted path fails certification.  Before any iteration,
    one quiet evaluation of the start raises the latter if an endpoint fails
    certification and the former if its action, its gradient or that
    gradient's image under the initial inverse Hessian is not finite.  Both
    carry the offending result on their ``result`` attribute.  The endpoints
    pass without sampling where the coefficient bound ``|c_1| - sum_{j>=2}
    j|c_j|`` on ``|phi'|`` clears CONFORMAL_MIN_DERIV by two margins of
    :func:`_margin`, and are sampled as every step is otherwise, to the same
    bits as in the final certificate.
    """
    path = initial_guess(project_by_truncation(target, config.n), config.num_steps)
    # the optimizer's variables are the interior rows, real and imaginary
    # parts interleaved: x.view(complex) is their row-major order
    interior = path.steps[1:-1]
    evaluations = 0

    def fun_grad(x: np.ndarray):
        nonlocal evaluations
        evaluations += 1
        interior[...] = x.view(complex).reshape(interior.shape)
        f, g = action_and_gradient(path, config.alpha)
        return f, g.ravel().view(float)

    x = interior.ravel().view(float).copy()
    with np.errstate(all="ignore"):  # an overflowing target fails here, without warnings
        f, g = fun_grad(x)
        gnorm = float(np.max(np.abs(g)))
        ends = path.steps[[0, -1]]
        if not (_bound_passes(ends)
                or np.all(certify_conformal(DiscretePath(ends)) > CONFORMAL_MIN_DERIV)):
            _certified(_result(path, f, gnorm, 0, evaluations, "start", [f]))
        inv_hess = _inverse_hessian_along(path.steps, config.alpha)
        # the initial inverse Hessian's image of g, the first direction up to sign
        pnorm = float(np.max(np.abs(inv_hess(g))))
        if not (np.isfinite(f) and np.isfinite(gnorm) and np.isfinite(pnorm)):
            raise NoConvergenceError(
                f"start not finite: action {f!r}, gradient sup-norm {gnorm!r}, "
                f"preconditioned gradient sup-norm {pnorm!r}",
                result=_result(path, f, gnorm, 0, evaluations, "start", [f]))

    x, f, gnorm, iters, history, termination = _lbfgs(
        fun_grad, x, f, g,
        grad_tol=config.grad_tol,
        max_iters=config.max_iters,
        inv_hess=inv_hess,
    )
    # the last evaluation may have been a rejected trial step
    interior[...] = x.view(complex).reshape(interior.shape)

    result = _result(path, f, gnorm, iters, evaluations, termination, history)
    if not result.converged:
        raise NoConvergenceError(
            f"gradient sup-norm {gnorm:.3e} above {config.grad_tol:.1e} "
            f"after {iters} iterations",
            result=result,
        )
    return _certified(result)


def _result(path, f, gnorm, iters, evaluations, termination, history) -> GeodesicResult:
    return GeodesicResult(path=path, action=f, grad_norm=gnorm, iterations=iters,
                          conformal_certificate=certify_conformal(path),
                          action_history=np.asarray(history),
                          evaluations=evaluations, termination=termination)


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


def _inverse_hessian_along(steps: np.ndarray, alpha: float):
    """The inverse of the metric along the path ``steps``, as a model of the
    action's Hessian, applied to a gradient in the solver's interleaved
    coordinates.

    The model is diagonal in the coefficient j and, in time, the path
    Laplacian T_j whose interval k has the conductance ``c[k, j] = N
    (||phi_k' z**j||**2 + ||phi_{k+1}' z**j||**2) / 2 + N alpha pi j`` per real
    coordinate, with ``||p z**j||**2 = sum_i |p_i|**2 pi/(i+j+1)``.  It is the
    Hessian at every constant affine path ``c_0 + c_1 z``, where the
    increments vanish and ``phi' = c_1``.  The endpoint average is positive
    on any straight-line start that passes the endpoint gate, whose
    derivative vanishes at one time at most; a midpoint map can be zero.
    With cumulative resistances ``r = cumsum(1/c)`` from step 0 and ``R =
    r_N``, ``T_j**-1[i, l] = r_min (R - r_max) / R``: two cumulative sums.
    """
    num_steps, n = steps.shape[0] - 1, steps.shape[1]
    sq = np.abs(derivative(steps))
    sq *= sq
    j = np.arange(n)
    norms = sq @ monomial_weights(2 * n - 1)[j[:, None] + j]
    conductance = num_steps * (0.5 * (norms[:-1] + norms[1:]) + alpha * np.pi * j)
    # r_1 .. r_N, one column per real coordinate, real and imaginary interleaved
    r = np.repeat(np.cumsum(1.0 / conductance, axis=0), 2, axis=1)
    total, r = r[-1], r[:-1]
    near, far = r / total, (total - r) / total

    def apply(g):
        # row i: (R - r_i)/R sum_{l <= i} r_l g_l + r_i/R sum_{l > i} (R - r_l) g_l
        g = g.reshape(r.shape)
        out = far * np.cumsum(r * g, axis=0)
        beyond = np.cumsum(((total - r) * g)[::-1], axis=0)[::-1]
        out[:-1] += near[:-1] * beyond[1:]
        return out.ravel()

    return apply


@lru_cache(maxsize=4)
def _pair_rows(thread: int, size: int) -> np.ndarray:
    """The rows that :func:`_lbfgs` stores its curvature pairs in, for
    variables of that size in the thread of that identifier: (_MEMORY + 1,
    2, size), one row per pair ``(s, y)``, and one more that no kept pair
    holds.  The last four keys are kept."""
    return np.empty((_MEMORY + 1, 2, size))


def _lbfgs(fun_grad, x, f, g, grad_tol, max_iters, inv_hess):
    """Limited-memory BFGS with a backtracking line search from x, at which
    the caller evaluated f and g; ``_MEMORY`` pairs, steps cut by ``_BACKTRACK``.

    Returns (x, f, grad_sup_norm, iterations, accepted_action_history,
    termination); the history lists f at the start and at every accepted
    iterate, and the termination is ``"converged"``, ``"budget"`` or ``"line
    search"``.  The pairs live in :func:`_pair_rows`, a workspace per thread
    and size of x that persists across solves (see :func:`_keep_step`); the
    x returned is a fresh array.
    ``inv_hess`` maps a gradient to its image under ``H0``, the initial
    inverse Hessian of the two-loop recursion (scaled there by ``s.y / y.H0 y``
    of the latest pair): ``solve`` passes the inverse of the metric along its
    start path, which is positive definite; as only pairs with ``s.y
    > 0`` are kept, so is the two-loop matrix, and every direction descends
    (Nocedal and Wright, *Numerical Optimization*, 7.2).  The loop stops on
    convergence, on the iteration budget, or when a line search runs out of
    backtracks, as one with no trials does after a slope that is not negative
    and finite or a first step of 0, which a gradient norm that overflows
    gives.

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
    rows, slot = _pair_rows(threading.get_ident(), x.size), 0
    gnorm = float(np.max(np.abs(g)))
    iters = 0

    while gnorm > grad_tol and iters < max_iters:
        # A direction or a norm that over- or underflows ends the loop quietly
        # below: its slope is not finite, or its first step is 0.
        with np.errstate(all="ignore"):
            d = _two_loop_direction(g, pairs, inv_hess)
            slope = float(np.dot(g, d))
            step = 1.0 if iters > 0 else min(1.0, 1.0 / (1.0 + np.linalg.norm(g)))
        roundoff = _ROUNDOFF_ULPS * np.finfo(float).eps * (1.0 + abs(f))
        for _ in range(60 if -np.inf < slope < 0 and step > 0 else 0):
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

        slot = _keep_step(pairs, rows, slot, x_new, x, g_new, g)
        x, f, g = x_new, f_new, g_new
        history.append(f)
        gnorm = float(np.max(np.abs(g)))
        iters += 1

    # a NaN norm counts as a line search's exit: the next would have no trials
    termination = ("converged" if gnorm <= grad_tol
                   else "budget" if iters == max_iters else "line search")
    return x, f, gnorm, iters, history, termination


def _keep_step(pairs, rows, slot, x_new, x, g_new, g):
    """:func:`_keep_pair` of the step's pair ``(x_new - x, g_new - g)``,
    written into row ``slot`` of ``rows``, which no kept pair holds; returns
    the row for the next pair, the one after ``slot`` if this pair was kept.
    The kept pairs hold the rows before ``slot``, cyclically, so a pair
    rejected while ``_MEMORY`` pairs are kept leaves the oldest intact."""
    s, y = rows[slot]
    _keep_pair(pairs, np.subtract(x_new, x, out=s), np.subtract(g_new, g, out=y))
    return (slot + 1) % len(rows) if pairs and pairs[-1][0] is s else slot


def _keep_pair(pairs, s, y):
    """Append ``(s, y, 1 / s.y)`` if ``s.y`` is positive beyond round-off."""
    with np.errstate(all="ignore"):  # a norm that overflows keeps no pair
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
