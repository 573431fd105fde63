"""Truncated Taylor polynomials on the unit disk.

A candidate conformal map is stored as a dense complex coefficient array
``c`` of length ``n`` representing ``phi(z) = sum_i c[i] z**i``.  The length
of the array is the degree bound; trailing zeros are allowed and significant
for indexing.  Whether a polynomial actually is conformal (nonvanishing
derivative on the closed disk) is certified separately by the solver, never
assumed here.

All inner products are taken over the unit disk with the area measure, so
``<z**i, z**j> = pi/(i+1)`` for ``i == j`` and ``0`` otherwise.  Products of
polynomials are never truncated: inner products of products are exact.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "as_coeffs",
    "derivative",
    "mul_naive",
    "inner_l2",
    "inner_h1",
    "adjoint_dz",
    "evaluate",
]

_FLOAT_MAX = float(np.finfo(float).max)


def as_coeffs(values, n: int | None = None) -> np.ndarray:
    """Return a complex coefficient array, zero-padded to degree bound ``n``.

    Raises ValueError if ``values`` has more than ``n`` coefficients.
    """
    c = np.atleast_1d(np.asarray(values, dtype=complex))
    if c.ndim != 1:
        raise ValueError(f"coefficients must be one-dimensional, got shape {c.shape}")
    if n is None:
        return c.copy()
    if len(c) > n:
        raise ValueError(f"{len(c)} coefficients exceed degree bound {n}")
    return np.pad(c, (0, n - len(c)))


@lru_cache(maxsize=256)
def monomial_weights(m: int) -> np.ndarray:
    """Disk squared norms of the monomials: ``w[i] = <z**i, z**i> = pi/(i+1)``.

    The returned array is cached and read-only.
    """
    w = np.pi / (np.arange(m) + 1.0)
    w.flags.writeable = False
    return w


def derivative(p) -> np.ndarray:
    """Coefficients of ``p'`` for each coefficient row along the last axis of
    ``p``, same degree bound (last coefficient zero)."""
    c = np.asarray(p, dtype=complex)
    out = np.zeros_like(c)
    out[..., :-1] = c[..., 1:] * np.arange(1, c.shape[-1])
    return out


def mul_naive(p, q) -> np.ndarray:
    """Exact coefficient convolution; output degree bound ``len(p)+len(q)-1``."""
    return np.convolve(np.asarray(p, dtype=complex), np.asarray(q, dtype=complex))


def inner_l2(p, q) -> complex:
    """Complex disk inner product ``<p, q> = sum_i p[i] conj(q[i]) pi/(i+1)``.

    Hermitian in its arguments and positive definite.  Mixed degree bounds
    are fine: coefficients beyond either bound are zero.
    """
    a = np.asarray(p, dtype=complex)
    b = np.asarray(q, dtype=complex)
    m = min(len(a), len(b))
    return complex(np.sum(a[:m] * np.conj(b[:m]) * monomial_weights(m)))


def _is_number(value) -> bool:
    # bool subclasses int, but True is not a number
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    # nor is True a count
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_alpha(alpha: float) -> float:
    """The metric weight ``alpha`` as a float; ValueError unless it is a
    finite nonnegative real number (a bool is not)."""
    # NaN fails both comparisons; an int too large for a float fails the second
    if not (_is_number(alpha) and 0 <= alpha <= _FLOAT_MAX):
        raise ValueError(f"alpha must be a finite nonnegative number, got {alpha!r}")
    return float(alpha)


def inner_h1(p, q, alpha: float) -> complex:
    """Sobolev inner product ``<p, q> + alpha <p', q'>`` with ``alpha >= 0``."""
    alpha = check_alpha(alpha)
    return inner_l2(p, q) + alpha * inner_l2(derivative(p), derivative(q))


def adjoint_dz(xi) -> np.ndarray:
    """Adjoint of complex differentiation on the disk: ``xi -> (z**2 xi)'``.

    Coefficient ``i`` of the input lands at coefficient ``i+1`` of the output
    with factor ``i+2``; the output degree bound grows by one.  Satisfies
    ``<xi, eta'> == <adjoint_dz(xi), eta>`` for all polynomials.
    """
    c = np.asarray(xi, dtype=complex)
    out = np.zeros(len(c) + 1, dtype=complex)
    out[1:] = c * (np.arange(len(c)) + 2)
    return out


def evaluate(p, z):
    """Values at the complex point(s) ``z`` of each coefficient row along the
    last axis of ``p`` (Horner), shaped ``p.shape[:-1] + z.shape``."""
    c = np.asarray(p, dtype=complex)
    z = np.asarray(z, dtype=complex)
    rows = c.shape[:-1]
    # Trailing coefficients that are +0 (by sign bit, never -0.0) in every row
    # are dropped but one: each Horner step from +0 gives +0 again, since
    # +-0 * z + (+0) is +0 for finite z.
    plus_zero = (c == 0) & ~np.signbit(c.real) & ~np.signbit(c.imag)
    live = np.flatnonzero(~plus_zero.all(axis=tuple(range(c.ndim - 1))))
    c = c[..., :live[-1] + 2 if live.size else 1]
    # coefficient k of every row, shaped to broadcast against the output
    c = np.moveaxis(c, -1, 0).reshape(c.shape[-1:] + rows + (1,) * z.ndim)
    out = np.zeros(rows + z.shape, dtype=complex)
    if len(c):
        out[...] = c[-1]
    for k in range(len(c) - 2, -1, -1):
        out *= z
        out += c[k]
    return out
