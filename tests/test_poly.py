"""Polynomial arithmetic and disk inner products."""

import numpy as np
import pytest

from diskwarp.poly import (
    adjoint_dz,
    as_coeffs,
    derivative,
    evaluate,
    inner_h1,
    inner_l2,
    mul_naive,
)

PI = np.pi


def disk_inner_quadrature(p, q, radial=48, angular=256):
    """Independent oracle: tensor Gauss-Legendre x trapezoid quadrature of
    the disk integral of p(z) conj(q(z)).

    Exact to round-off for polynomial integrands once the node counts
    exceed the degrees involved (radial integrand is a polynomial in r,
    angular a trigonometric polynomial).
    """
    nodes, weights = np.polynomial.legendre.leggauss(radial)
    r = 0.5 * (nodes + 1.0)
    wr = 0.5 * weights * r  # area element r dr
    theta = 2.0 * PI * np.arange(angular) / angular
    z = r[:, None] * np.exp(1j * theta)[None, :]
    vals = evaluate(p, z) * np.conj(evaluate(q, z))
    return complex(np.sum(vals * wr[:, None]) * (2.0 * PI / angular))


def test_derivative_examples():
    assert np.allclose(derivative([0, 1]), [1, 0])
    assert np.allclose(derivative([1]), [0])
    assert np.allclose(derivative([0, 2, 3]), [2, 6, 0])


def test_derivative_keeps_degree_bound():
    out = derivative([1, 2, 3, 4])
    assert len(out) == 4 and out[-1] == 0


def test_mul_naive_examples():
    assert np.allclose(mul_naive([1, 1], [1, -1]), [1, 0, -1])
    assert np.allclose(mul_naive([2, 3, 1], [0]), [0, 0, 0])
    assert np.allclose(mul_naive([0, 1], [0, 1]), [0, 0, 1])


def test_mul_output_degree_is_full():
    out = mul_naive(np.ones(5), np.ones(7))
    assert len(out) == 11


def test_inner_l2_monomial_examples():
    assert inner_l2([1], [1]) == pytest.approx(PI)
    assert inner_l2([0, 1], [1]) == 0
    # <z, z> against the quadrature oracle
    oracle = disk_inner_quadrature([0, 1], [0, 1])
    assert abs(oracle - PI / 2) < 1e-10
    assert inner_l2([0, 1], [0, 1]) == pytest.approx(oracle.real, abs=1e-12)


def test_monomial_orthogonality_against_quadrature():
    for i in range(9):
        for j in range(9):
            ei = np.zeros(i + 1); ei[i] = 1
            ej = np.zeros(j + 1); ej[j] = 1
            oracle = disk_inner_quadrature(ei, ej)
            expected = PI / (i + 1) if i == j else 0.0
            assert abs(oracle - expected) < 1e-10
            assert abs(inner_l2(ei, ej) - expected) < 1e-12


def test_inner_l2_random_against_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
        q = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        assert abs(inner_l2(p, q) - disk_inner_quadrature(p, q)) < 1e-10


def test_inner_l2_hermitian_positive_definite():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.integers(1, 20)
        p = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        q = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        assert inner_l2(p, q) == pytest.approx(np.conj(inner_l2(q, p)))
        assert inner_l2(p, p).real > 0
        assert abs(inner_l2(p, p).imag) < 1e-14 * (1 + inner_l2(p, p).real)


def test_inner_h1_examples():
    assert inner_h1([0, 1], [0, 1], 1.0) == pytest.approx(PI / 2 + PI)
    rng = np.random.default_rng(5)
    p = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
    q = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
    assert inner_h1(p, q, 0.0) == pytest.approx(inner_l2(p, q))
    for alpha in (0.0, 0.5, 100.0):
        assert inner_h1([1], [1], alpha) == pytest.approx(PI)


def test_inner_h1_rejects_negative_alpha():
    for alpha in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha"):
            inner_h1([1, 2], [1, 2], alpha)


def test_adjoint_examples():
    assert np.allclose(adjoint_dz([1]), [0, 2])
    assert np.allclose(adjoint_dz([0, 1]), [0, 0, 3])
    e4 = np.zeros(5); e4[4] = 1
    out = adjoint_dz(e4)
    assert len(out) == 6 and out[5] == 6


@pytest.mark.parametrize("seed", range(8))
def test_adjoint_identity(seed):
    """<xi, eta'> == <adjoint_dz(xi), eta>, which also pins the pi/(i+1)
    inner-product normalization (the identity fails for the inverted one)."""
    rng = np.random.default_rng(100 + seed)
    xi = rng.uniform(-1, 1, rng.integers(1, 33)) + 1j * rng.uniform(-1, 1, 1)[0]
    xi = xi + 1j * rng.uniform(-1, 1, len(xi))
    eta = rng.uniform(-1, 1, rng.integers(1, 33)) + 0j
    eta = eta + 1j * rng.uniform(-1, 1, len(eta))
    lhs = inner_l2(xi, derivative(eta))
    rhs = inner_l2(adjoint_dz(xi), eta)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_inverted_normalization_breaks_adjointness():
    # with weights (i+1)/pi instead of pi/(i+1) the identity fails even for
    # monomials, so this is a real certification, not a tautology
    i = 3
    xi = np.zeros(i + 1); xi[i] = 1
    eta = np.zeros(i + 2); eta[i + 1] = 1
    bad = lambda p, q: sum(
        p[k] * np.conj(q[k]) * (k + 1) / PI for k in range(min(len(p), len(q)))
    )
    assert abs(bad(xi, derivative(eta)) - bad(adjoint_dz(xi), eta)) > 0.1


def test_as_coeffs_padding_and_validation():
    assert np.allclose(as_coeffs([1, 2], 4), [1, 2, 0, 0])
    with pytest.raises(ValueError):
        as_coeffs([1, 2, 3], 2)
    with pytest.raises(ValueError, match="one-dimensional"):
        as_coeffs([[1, 2], [3, 4]])


def test_evaluate_horner():
    p = [1.0, -2.0, 0.5j]
    z = np.array([0.0, 1.0, 0.5 - 0.5j])
    expected = 1.0 - 2.0 * z + 0.5j * z * z
    assert np.allclose(evaluate(p, z), expected)


def _plain_horner(c, z):
    out = np.empty(c.shape[:-1] + z.shape, dtype=complex)
    for row in np.ndindex(c.shape[:-1]):
        value = np.full(z.shape, c[row][-1])
        for coefficient in c[row][-2::-1]:
            value = value * z + coefficient
        out[row] = value
    return out


@pytest.mark.parametrize("trailing", ["+0", "-0 real", "-0 imaginary", "all zero"])
def test_evaluate_bitwise_plain_horner_with_zero_columns(trailing):
    """Dropped +0 columns leave every bit as a Horner loop over all of them,
    also on a strided coefficient array.  A row of signed zeros keeps the
    sign of its zero to the end, so a -0.0 column must never be dropped."""
    rng = np.random.default_rng(7)
    c = np.zeros((4, 3, 18), dtype=complex)[..., ::2]  # not contiguous
    c[..., :5] = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
    c[1, 2] = 0.0  # an all-zero row
    c[2, 0, :5] = complex(-0.0, -0.0)
    if trailing == "-0 real":
        c[2, 0, 5] = complex(-0.0, 0.0)
    elif trailing == "-0 imaginary":
        c[2, 0, 5] = complex(0.0, -0.0)
    elif trailing == "all zero":
        c[...] = 0.0
    z = np.concatenate([rng.standard_normal(40) + 1j * rng.standard_normal(40),
                        [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), -1.0, -1j]])
    assert evaluate(c, z).tobytes() == _plain_horner(c, z).tobytes()
