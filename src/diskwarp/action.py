"""Kinetic energy of disk warps and its discrete action.

The instantaneous energy of a map ``phi`` moving with velocity ``phidot`` is

    L(phi, phidot) = 1/2 ( <phi' phidot, phi' phidot> + alpha <phidot', phidot'> )

with inner products over the unit disk.  A path is discretized by N+1 maps on
a uniform grid over [0, 1]; each interval contributes a midpoint-rule term

    L_d(u, v) = 1/(2h) <m'(v-u), m'(v-u)> + alpha/(2h) <v'-u', v'-u'>,

where ``m = (u+v)/2`` and ``h`` is the step.  The discrete action sums these
terms.  :func:`action_and_gradient`, the solver's kernel, returns it with its
analytic gradient in one batched pass with no loop over intervals: FFTs of all
midpoint derivatives and increments give every product ``m_k' delta_k``, and
inverse FFTs against the conjugate spectra give the gradient's correlations.
:func:`discrete_action` keeps a direct-convolution ``naive`` reference mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .poly import check_alpha, derivative, inner_l2, monomial_weights, mul_naive

__all__ = [
    "DiscretePath",
    "check_alpha",
    "lagrangian",
    "discrete_lagrangian",
    "discrete_action",
    "action_and_gradient",
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
        if steps.ndim != 2 or steps.shape[0] < 2:
            raise ValueError(
                f"path needs at least two steps of equal degree bound, got shape {steps.shape}"
            )
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
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
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
    sq = np.abs(x)
    sq *= sq
    return float(np.sum(sq @ _shifted_weights(x.shape[1])))


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
    """
    alpha = check_alpha(alpha)
    if path.num_intervals < 2:
        raise ValueError("gradient needs at least one interior step (N >= 2)")
    steps, n, h = path.steps, path.degree_bound, path.h
    derivs = steps * np.arange(n)
    diffs = derivs[1:] - derivs[:-1]
    spectra = _spectrum(steps[1:] - steps[:-1]), _spectrum((derivs[:-1] + derivs[1:]) / 2.0)
    prods = np.fft.ifft(spectra[0] * spectra[1], axis=-1)[:, : 2 * n - 1]
    action = (_sq_norms(prods) + alpha * _sq_norms(diffs)) / (2.0 * h)
    weighted = np.fft.fft(prods * _shifted_weights(2 * n - 1), spectra[0].shape[1], axis=-1)
    # Released early: a lower peak spares the page faults of regrowing the
    # heap on every call.
    del prods
    # <prod_k, z**(j-1) delta_k> and <prod_k, z**j m_k'> for j < n, each one
    # inverse FFT of the weighted products' spectrum times a conjugate factor
    # spectrum.  The circular correlation reads product coefficients up to
    # j + n - 1 < 2n - 1 <= size, so wrap-around cannot reach them.
    for s in spectra:
        np.multiply(np.conjugate(s, out=s), weighted, out=s)
    corr_delta, corr_mid = (np.fft.ifft(s, axis=-1)[:, :n] for s in spectra)
    shared = 0.5 * np.arange(n) * corr_delta
    signed = corr_mid + (alpha * np.pi) * diffs
    return action, (shared[:-1] + signed[:-1] + shared[1:] - signed[1:]) / h


def action_gradient(path: DiscretePath, alpha: float) -> np.ndarray:
    """Gradient of :func:`discrete_action` in the interior coefficients: an
    (N-1, n) complex array ``G`` for the steps ``k = 1 .. N-1`` with ``G.real``
    the derivative in the real part of each coefficient, ``G.imag`` in its
    imaginary part."""
    return action_and_gradient(path, alpha)[1]
