"""Dense complex matrix kernel used by every other module.

All routines operate on plain numpy arrays in double precision. Matrices at
the intended working scale stay small (dimension below roughly 32), so
numerics favour robustness and determinism over asymptotic speed.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

__all__ = [
    "hermitian_part",
    "det",
    "eigh",
    "psd_inv_sqrt",
    "expm_hermitian",
    "haar_unitary",
    "max_singular_value",
    "random_hermitian",
]

# psd_inv_sqrt's eigenvalue floor, relative to the largest eigenvalue
_INV_SQRT_FLOOR = 1e-12


def _as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be two dimensional, got shape {a.shape}")
    return a


def hermitian_part(a) -> np.ndarray:
    """Return (A + A*)/2, the Hermitian part of a square matrix."""
    a = _as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"hermitian part needs a square matrix, got {a.shape}")
    return 0.5 * (a + a.conj().T)


def det(a) -> complex:
    """Determinant of a square complex matrix via pivoted LU."""
    a = _as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"determinant needs a square matrix, got {a.shape}")
    if a.shape[0] == 0:
        return complex(1.0)
    return complex(np.linalg.det(a))


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with eigenvalues ascending and unitary v so that
    h = v @ diag(w) @ v*. The input is symmetrized first to strip roundoff.
    """
    h = hermitian_part(h)
    w, v = np.linalg.eigh(h)
    return w, v


def psd_inv_sqrt(h) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix.

    Raises SingularMatrix when the smallest eigenvalue falls below 1e-12
    times the largest, so the floor scales with the matrix.
    """
    w, v = eigh(h)
    if w.size == 0:
        return np.zeros((0, 0), dtype=complex)
    if not (w.max() > 0 and w.min() >= _INV_SQRT_FLOOR * w.max()):
        raise SingularMatrix(
            f"matrix is not safely positive definite (eigenvalues {w.min():.3e} to {w.max():.3e}, "
            f"relative floor {_INV_SQRT_FLOOR:.1e})"
        )
    return hermitian_part((v * (w ** -0.5)) @ v.conj().T)


def expm_hermitian(h) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix via spectral calculus."""
    w, v = eigh(h)
    return hermitian_part((v * np.exp(w)) @ v.conj().T)


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Draw a Haar-distributed unitary of the given dimension.

    rng may be an integer seed or a numpy Generator; the caller owns the
    stream. Uses the QR factorization of a complex Ginibre matrix with the
    phase of the R diagonal folded back into Q.
    """
    if dim < 1:
        raise DimensionMismatch(f"unitary dimension must be positive, got {dim}")
    rng = np.random.default_rng(rng)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def max_singular_value(a) -> float:
    """Largest singular value (the spectral norm), computed by a dense SVD."""
    a = _as_complex_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def random_hermitian(dim: int, rng, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries of the given scale."""
    rng = np.random.default_rng(rng)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return hermitian_part(scale * z)
