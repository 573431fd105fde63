"""Kinetic energy of disk warps and its discrete action.

The instantaneous energy of a map ``phi`` moving with velocity ``phidot`` is

    L(phi, phidot) = 1/2 ( <phi' phidot, phi' phidot> + alpha <phidot', phidot'> )

with inner products over the unit disk.  A path is discretized by N+1 maps on
a uniform grid over [0, 1]; each interval contributes a midpoint-rule term

    L_d(u, v) = 1/(2h) <m'(v-u), m'(v-u)> + alpha/(2h) <v'-u', v'-u'>,

where ``m = (u+v)/2`` and ``h`` is the step.  The discrete action sums these
terms.  :func:`action_and_gradient`, the solver's kernel, returns it with its
analytic gradient in one batched pass with no loop: one stacked FFT of all
increments and midpoint derivatives gives every product ``m_k' delta_k``, and
one stacked inverse FFT against both conjugate spectra gives the gradient's
correlations.
:func:`discrete_action` keeps a direct-convolution ``naive`` reference mode.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .poly import _real, check_alpha, derivative, inner_l2, monomial_weights, mul_naive

__all__ = [
    "DiscretePath",
    "lagrangian",
    "discrete_lagrangian",
    "discrete_action",
    "action_gradient",
]


@dataclass(frozen=True)
class DiscretePath:
    """Time-indexed maps ``phi_0, ..., phi_N`` on a uniform grid over [0, 1].

    ``steps`` is an (N+1, n) complex array; row k holds the coefficients of
    the map at time k/N.  All rows share the degree bound n.
    """

    steps: np.ndarray

    def __post_init__(self):
        steps = np.asarray(self.steps, dtype=complex)
        if steps.ndim != 2 or steps.shape[0] < 2 or steps.shape[1] < 1:
            raise ValueError("path needs at least two steps of one degree bound n >= 1, "
                             f"got shape {steps.shape}")
        object.__setattr__(self, "steps", steps)

    @property
    def num_intervals(self) -> int:
        return self.steps.shape[0] - 1

    @property
    def degree_bound(self) -> int:
        return self.steps.shape[1]

    @property
    def h(self) -> float:
        return 1.0 / self.num_intervals

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.steps.shape[0])


def lagrangian(phi, phidot, alpha: float) -> float:
    """Kinetic energy of ``phi`` moving with velocity ``phidot``; real, >= 0."""
    alpha = check_alpha(alpha)
    prod = mul_naive(derivative(phi), phidot)
    dphidot = derivative(phidot)
    return 0.5 * (inner_l2(prod, prod).real + alpha * inner_l2(dphidot, dphidot).real)


def discrete_lagrangian(phi_k, phi_k1, h: float, alpha: float) -> float:
    """Midpoint-rule energy of one interval, ``h L(m, (v-u)/h) = L(m, v-u) / h``
    with ``m = (u+v)/2``; symmetric in its two endpoints."""
    h = _real(h, "step size", "positive")
    u = np.asarray(phi_k, dtype=complex)
    v = np.asarray(phi_k1, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"endpoints must share a degree bound, got {u.shape} and {v.shape}")
    return lagrangian((u + v) / 2.0, v - u, alpha) / h


@lru_cache(maxsize=256)
def _shifted_weights(m: int) -> np.ndarray:
    """Disk monomial norms indexed one slot up: ``w[i] = pi/i``, ``w[0] = 0``,
    for the kernels' shifted layout, where entry i of a derivative (``i * c_i``)
    or of a product carries ``z**(i-1)``; it keeps every array write contiguous.
    """
    w = np.concatenate([[0.0], monomial_weights(m - 1)])
    w.flags.writeable = False
    return w


def _spectrum(x: np.ndarray) -> np.ndarray:
    """Row spectra of an (N, n) factor, zero-padded along axis 1 to the next
    power of two >= ``2n-1`` so that products of two factors do not wrap."""
    return np.fft.fft(x, 1 << (2 * x.shape[1] - 2).bit_length(), axis=-1)


def _sq_norms(x: np.ndarray) -> float:
    """``sum_k <x_k, x_k>`` over the rows of a shifted-layout array."""
    return _sq_norms_into(x, np.empty(x.shape), np.empty(x.shape[0]))


def _sq_norms_into(x: np.ndarray, sq: np.ndarray, totals: np.ndarray) -> float:
    """:func:`_sq_norms`, through the real arrays ``sq`` of x's shape and
    ``totals`` of its row count."""
    np.abs(x, out=sq)
    sq *= sq
    return float(np.sum(np.matmul(sq, _shifted_weights(x.shape[1]), out=totals)))


class _Workspace:
    """Every intermediate array of :func:`action_and_gradient` for paths of
    one shape (N+1, n): factors and products of length n, spectra of the FFT
    length ``size``, and the complex multipliers, which spare the kernel's
    products any cast.  ``factors`` stacks ``delta`` over ``mid``, so that
    one transform each way serves both."""

    def __init__(self, rows: int, n: int):
        intervals, size = rows - 1, 1 << (2 * n - 2).bit_length()
        self.j = np.arange(n).astype(complex)
        self.half_j = 0.5 * self.j
        self.weights = _shifted_weights(2 * n - 1).astype(complex)
        self.derivs = np.empty((rows, n), complex)
        self.diffs = np.empty((intervals, n), complex)
        self.factors = np.empty((2, intervals, n), complex)
        self.weighted_prods = np.empty((intervals, 2 * n - 1), complex)
        self.sq_prods = np.empty((intervals, 2 * n - 1))
        self.sq_diffs = np.empty((intervals, n))
        self.totals = np.empty(intervals)
        self.spectra = np.empty((2, intervals, size), complex)
        # A measured layout: with ``inverse`` in a block of its own, or in
        # one with ``spectra``, the benchmark's large solves ran 2-5% slower.
        transforms = np.empty((3, intervals, size), complex)
        self.inverse, self.weighted = transforms[:2], transforms[2]
        self.grad = np.empty((intervals - 1, n), complex)


@lru_cache(maxsize=4)
def _workspace(thread: int, rows: int, n: int) -> _Workspace:
    """The kernel's workspace for paths of shape (rows, n) in the thread of
    that identifier; a solve alternates few shapes (the benchmark's large
    workload two), and the last four keys are kept."""
    return _Workspace(rows, n)


def discrete_action(path: DiscretePath, alpha: float, mode: str = "naive") -> float:
    """Sum of the per-interval discrete energies.

    ``mode="naive"`` multiplies each interval's midpoint derivative and
    increment by direct convolution, interval by interval: the O(N n**2)
    reference.  ``mode="fft"`` forms all N products at once from batched
    zero-padded FFTs, O(N n log n).  The modes agree to round-off.
    """
    alpha = check_alpha(alpha)
    if mode not in ("naive", "fft"):
        raise ValueError(f"mode must be 'naive' or 'fft', got {mode!r}")
    steps = path.steps
    derivs = steps * np.arange(path.degree_bound)
    if mode == "naive":
        mids = (derivs[:-1] + derivs[1:]) / 2.0
        prods = np.array([np.convolve(m, d) for m, d in zip(mids, steps[1:] - steps[:-1])])
    else:
        prods = _spectrum((derivs[:-1] + derivs[1:]) / 2.0)
        prods *= _spectrum(steps[1:] - steps[:-1])
        prods = np.fft.ifft(prods, axis=-1)[:, : 2 * path.degree_bound - 1]
    energy = _sq_norms(prods) + alpha * _sq_norms(derivs[1:] - derivs[:-1])
    return energy / (2.0 * path.h)


def action_and_gradient(path: DiscretePath, alpha: float) -> tuple[float, np.ndarray]:
    """The fft-mode :func:`discrete_action` and its :func:`action_gradient`
    from one batched pass over all intervals.

    With ``prod_k = m_k' delta_k``, the derivative of interval k's energy
    with respect to coefficient j of its end step is ``(j/2 <prod_k,
    z**(j-1) delta_k> + <prod_k, z**j m_k'> + alpha pi j delta_k[j]) / h``;
    for its start step the last two terms change sign.

    One stacked FFT transforms both factors, ``delta_k`` and ``m_k'``, and
    one stacked inverse FFT gives both correlations: four FFT calls in all.
    Every intermediate array, the FFTs' included, is written into a
    workspace per thread and path shape, of which the last four are kept, so
    a call allocates only the gradient it returns.  The values are those of
    the same operations on fresh arrays, bit for bit.
    """
    alpha = check_alpha(alpha)
    if path.num_intervals < 2:
        raise ValueError("gradient needs at least one interior step (N >= 2)")
    steps, n, h = path.steps, path.degree_bound, path.h
    w = _workspace(threading.get_ident(), *steps.shape)
    size = w.spectra.shape[-1]
    derivs = np.multiply(steps, w.j, out=w.derivs)
    diffs = np.subtract(derivs[1:], derivs[:-1], out=w.diffs)
    delta, mid = w.factors
    np.subtract(steps[1:], steps[:-1], out=delta)
    np.add(derivs[:-1], derivs[1:], out=mid)
    mid /= 2.0
    spectra = np.fft.fft(w.factors, size, axis=-1, out=w.spectra)
    product = np.multiply(spectra[0], spectra[1], out=w.inverse[0])
    prods = np.fft.ifft(product, axis=-1, out=w.inverse[1])[:, : 2 * n - 1]
    action = (_sq_norms_into(prods, w.sq_prods, w.totals)
              + alpha * _sq_norms_into(diffs, w.sq_diffs, w.totals)) / (2.0 * h)
    weighted = np.fft.fft(np.multiply(prods, w.weights, out=w.weighted_prods), size, axis=-1,
                          out=w.weighted)
    # <prod_k, z**(j-1) delta_k> and <prod_k, z**j m_k'> for j < n: one
    # inverse FFT of the weighted products' spectrum times both conjugate
    # factor spectra.  The circular correlation reads product coefficients up
    # to j + n - 1 < 2n - 1 <= size, so wrap-around cannot reach them.
    np.multiply(np.conjugate(spectra, out=spectra), weighted, out=spectra)
    corr_delta, corr_mid = np.fft.ifft(spectra, axis=-1, out=w.inverse)[..., :n]
    # the factors' arrays are free once their spectra are taken
    shared = np.multiply(w.half_j, corr_delta, out=delta)
    signed = np.multiply(alpha * np.pi, diffs, out=mid)
    np.add(corr_mid, signed, out=signed)
    grad = np.add(shared[:-1], signed[:-1], out=w.grad)
    grad += shared[1:]
    grad -= signed[1:]
    return action, np.divide(grad, h)


def action_gradient(path: DiscretePath, alpha: float) -> np.ndarray:
    """Gradient of :func:`discrete_action` in the interior coefficients: an
    (N-1, n) complex array ``G`` for the steps ``k = 1 .. N-1`` with ``G.real``
    the derivative in the real part of each coefficient, ``G.imag`` in its
    imaginary part."""
    return action_and_gradient(path, alpha)[1]
