import numpy as np
import pytest
from numpy.testing import assert_allclose

from capax import (
    SingularMatrix,
    det,
    eigh,
    expm_hermitian,
    haar_unitary,
    hermitian_part,
    max_singular_value,
    psd_inv_sqrt,
    random_hermitian,
)


def _det_cofactor(a: np.ndarray) -> complex:
    """Independent determinant by first-row cofactor expansion."""
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * _det_cofactor(minor)
    return total


def test_det_matches_cofactor_expansion(rng):
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        expected = _det_cofactor(a)
        assert abs(det(a) - expected) <= 1e-12 * max(abs(expected), 1.0)


def test_det_multiplicative(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    lhs = det(a @ b)
    rhs = det(a) * det(b)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_hermitian_part_projects(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = hermitian_part(a)
    assert_allclose(h, h.conj().T, atol=1e-15)
    # already Hermitian input is a fixed point
    assert_allclose(hermitian_part(h), h, atol=1e-15)


def test_eigh_reconstruction(rng):
    h = random_hermitian(5, rng)
    w, v = eigh(h)
    assert np.all(np.diff(w) >= 0)
    assert_allclose((v * w) @ v.conj().T, h, atol=1e-10)
    assert_allclose(v.conj().T @ v, np.eye(5), atol=1e-12)


def test_psd_inv_sqrt_diagonal():
    s = psd_inv_sqrt(np.diag([4.0, 9.0]).astype(complex))
    assert_allclose(s, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)


def test_psd_inv_sqrt_random(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = g @ g.conj().T + 0.5 * np.eye(4)
    s = psd_inv_sqrt(h)
    assert_allclose(s @ h @ s, np.eye(4), atol=1e-9)


def test_psd_inv_sqrt_floor_is_relative():
    """A well-conditioned matrix of tiny scale passes; a singular one does not."""
    assert_allclose(psd_inv_sqrt(1e-14 * np.eye(2)), 1e7 * np.eye(2), rtol=1e-12)
    with pytest.raises(SingularMatrix):
        psd_inv_sqrt(np.diag([1.0, 0.0]))


def test_psd_inv_sqrt_rejects_singular():
    with pytest.raises(SingularMatrix):
        psd_inv_sqrt(np.diag([1.0, 0.0]).astype(complex))


def test_expm_hermitian_closed_form():
    theta = 0.7
    h = np.array([[0.0, theta], [theta, 0.0]], dtype=complex)
    e = expm_hermitian(h)
    expected = np.array(
        [[np.cosh(theta), np.sinh(theta)], [np.sinh(theta), np.cosh(theta)]]
    )
    assert_allclose(e, expected, atol=1e-12)


def test_expm_hermitian_det_is_exp_trace(rng):
    h = random_hermitian(4, rng)
    lhs = det(expm_hermitian(h))
    rhs = np.exp(np.trace(h))
    assert abs(lhs - rhs) <= 1e-9 * abs(rhs)
    assert_allclose(expm_hermitian(h) @ expm_hermitian(-h), np.eye(4), atol=1e-10)


def test_haar_unitary_is_unitary(rng):
    for dim in (1, 2, 5):
        u = haar_unitary(dim, rng)
        assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)
        assert abs(abs(det(u)) - 1.0) <= 1e-10


def test_haar_unitary_first_entry_moment():
    """|U_00|^2 averages to 1/dim for Haar samples (3 sigma band)."""
    dim, samples = 3, 10_000
    rng = np.random.default_rng(99)
    acc = np.empty(samples)
    for i in range(samples):
        acc[i] = abs(haar_unitary(dim, rng)[0, 0]) ** 2
    # |U_00|^2 is Beta(1, dim-1): variance (dim-1) / (dim^2 (dim+1))
    sigma = np.sqrt((dim - 1) / (dim**2 * (dim + 1)) / samples)
    assert abs(acc.mean() - 1.0 / dim) <= 3 * sigma


def test_haar_unitary_seed_determinism():
    u1 = haar_unitary(4, 123)
    u2 = haar_unitary(4, 123)
    assert u1.tobytes() == u2.tobytes()


def test_max_singular_value_against_svd(rng):
    for shape in ((5, 3), (3, 5), (4, 4), (1, 1)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(max_singular_value(a) - expected) <= 1e-8 * max(expected, 1.0)


def test_max_singular_value_repeated_top():
    # doubly degenerate top singular value must not stall the iteration
    a = np.diag([2.0, 2.0, 1.0]).astype(complex)
    assert abs(max_singular_value(a) - 2.0) <= 1e-8


def test_random_hermitian_is_hermitian(rng):
    h = random_hermitian(6, rng, scale=2.0)
    assert_allclose(h, h.conj().T, atol=1e-14)
