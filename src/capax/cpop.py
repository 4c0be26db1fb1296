"""Completely positive operators in Kraus form.

A CPOperator maps n x n complex matrices to m x m complex matrices through
T(X) = sum_k A_k X A_k*. The Kraus matrices are the ground truth; a flat
m^2 x n^2 matrix representation (row-major vectorization) is cached on
first use for norms and distances.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NotUnitary, ParseError
from .linalg import hermitian_part, max_singular_value

__all__ = [
    "CPOperator",
    "apply",
    "dual_apply",
    "coeff",
    "conjugate_unitary",
    "op_norm",
    "distance",
    "random_cp",
    "identity_channel",
    "trace_channel",
    "to_json",
    "from_json",
]

# Coefficient extraction is exponential in m (2^m column sets for the Leibniz
# route, binomial(n*K, m) minors for the Gram-minor route), so large instances
# are legal but deserve a warning at construction time.
_COMFORT_DIM = 6
_COMFORT_KRAUS = 8


@dataclass(frozen=True)
class CPOperator:
    """A completely positive operator given by a nonempty tuple of Kraus matrices."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(self.kraus)
        if len(mats) == 0:
            raise DimensionMismatch("a CP operator needs at least one Kraus matrix")
        clean = []
        shape = None
        for idx, a in enumerate(mats):
            a = np.array(a, dtype=complex, order="C")
            if a.ndim != 2:
                raise DimensionMismatch(f"kraus[{idx}] must be a matrix, got ndim {a.ndim}")
            if shape is None:
                shape = a.shape
            elif a.shape != shape:
                raise DimensionMismatch(
                    f"kraus[{idx}] has shape {a.shape}, expected {shape}"
                )
            if not np.all(np.isfinite(a.view(float))):
                raise DimensionMismatch(f"kraus[{idx}] contains non-finite entries")
            a.setflags(write=False)
            clean.append(a)
        if shape[0] == 0 or shape[1] == 0:
            raise DimensionMismatch(f"Kraus matrices must be nonempty, got shape {shape}")
        object.__setattr__(self, "kraus", tuple(clean))
        if max(shape) > _COMFORT_DIM or len(clean) > _COMFORT_KRAUS:
            warnings.warn(
                f"CP operator with n={shape[1]}, m={shape[0]}, K={len(clean)} exceeds the "
                f"comfortable scale (dims <= {_COMFORT_DIM}, K <= {_COMFORT_KRAUS}); "
                "coefficient extraction cost grows exponentially in m",
                stacklevel=2,
            )

    @property
    def n(self) -> int:
        """Input dimension."""
        return self.kraus[0].shape[1]

    @property
    def m(self) -> int:
        """Output dimension."""
        return self.kraus[0].shape[0]

    @cached_property
    def matrix_rep(self) -> np.ndarray:
        """Flat m^2 x n^2 matrix so that matrix_rep @ vec(X) = vec(T(X)) (row-major vec)."""
        rep = np.zeros((self.m * self.m, self.n * self.n), dtype=complex)
        for a in self.kraus:
            rep += np.kron(a, a.conj())
        rep.setflags(write=False)
        return rep

    @cached_property
    def _kraus_stack(self) -> np.ndarray:
        stack = np.stack(self.kraus)
        stack.setflags(write=False)
        return stack


def apply(t: CPOperator, x) -> np.ndarray:
    """Evaluate T(X) = sum_k A_k X A_k*."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (t.n, t.n):
        raise DimensionMismatch(f"input must be {t.n} x {t.n}, got {x.shape}")
    a = t._kraus_stack
    y = (a @ x @ a.conj().transpose(0, 2, 1)).sum(axis=0)
    # A Hermitian input must map to a Hermitian output; kill roundoff skew.
    if np.linalg.norm(x - x.conj().T) <= 1e-13 * max(1.0, np.linalg.norm(x)):
        y = hermitian_part(y)
    return y


def dual_apply(t: CPOperator, y) -> np.ndarray:
    """Evaluate the adjoint T*(Y) = sum_k A_k* Y A_k."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (t.m, t.m):
        raise DimensionMismatch(f"input must be {t.m} x {t.m}, got {y.shape}")
    a = t._kraus_stack
    out = (a.conj().transpose(0, 2, 1) @ y @ a).sum(axis=0)
    if np.linalg.norm(y - y.conj().T) <= 1e-13 * max(1.0, np.linalg.norm(y)):
        out = hermitian_part(out)
    return out


def coeff(t: CPOperator, x: tuple[int, int], y: tuple[int, int]) -> complex:
    """Matrix-unit basis coefficient of T.

    x = (i, j) indexes the output matrix unit, y = (k, l) the input one; both
    pairs are 1-based. Equals T(E_kl)[i, j], where E_kl has a single 1 in row
    k, column l.
    """
    i, j = x
    k, l = y
    if not (1 <= i <= t.m and 1 <= j <= t.m):
        raise IndexOutOfRange(f"output index {x} outside [1, {t.m}]^2")
    if not (1 <= k <= t.n and 1 <= l <= t.n):
        raise IndexOutOfRange(f"input index {y} outside [1, {t.n}]^2")
    a = t._kraus_stack
    return complex(np.sum(a[:, i - 1, k - 1] * a[:, j - 1, l - 1].conj()))


def conjugate_unitary(t: CPOperator, u) -> CPOperator:
    """Return T_U with T_U(X) = T(U X U*), realized by Kraus matrices A_k U."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (t.n, t.n):
        raise DimensionMismatch(f"unitary must be {t.n} x {t.n}, got {u.shape}")
    defect = np.linalg.norm(u.conj().T @ u - np.eye(t.n))
    if defect > 1e-10 * np.sqrt(t.n):
        raise NotUnitary(f"matrix fails unitarity check (defect {defect:.3e})")
    return CPOperator(tuple(a @ u for a in t.kraus))


def op_norm(t: CPOperator) -> float:
    """Operator norm of T as a map between Hilbert-Schmidt spaces."""
    return max_singular_value(t.matrix_rep)


def distance(t: CPOperator, t2: CPOperator) -> float:
    """Operator-norm distance between two CP operators of equal dimensions."""
    if (t.n, t.m) != (t2.n, t2.m):
        raise DimensionMismatch(
            f"operators act on different spaces: ({t.n},{t.m}) vs ({t2.n},{t2.m})"
        )
    return max_singular_value(t.matrix_rep - t2.matrix_rep)


def random_cp(n: int, m: int, num_kraus: int, scale: float = 1.0, rng=0) -> CPOperator:
    """Random CP operator with i.i.d. complex Gaussian Kraus entries of the given scale."""
    if n < 1 or m < 1 or num_kraus < 1:
        raise DimensionMismatch("n, m and the Kraus count must all be positive")
    rng = np.random.default_rng(rng)
    mats = []
    for _ in range(num_kraus):
        z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        mats.append(scale * z / np.sqrt(2.0))
    return CPOperator(tuple(mats))


def identity_channel(n: int) -> CPOperator:
    """The identity map on n x n matrices."""
    return CPOperator((np.eye(n, dtype=complex),))


def trace_channel(n: int, m: int) -> CPOperator:
    """The map X -> trace(X) * I_m, with Kraus matrices the m x n matrix units."""
    mats = []
    for i in range(m):
        for l in range(n):
            e = np.zeros((m, n), dtype=complex)
            e[i, l] = 1.0
            mats.append(e)
    return CPOperator(tuple(mats))


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_to_lists(a: np.ndarray) -> list:
    return [[_pair(a[i, j]) for j in range(a.shape[1])] for i in range(a.shape[0])]


def to_json(t: CPOperator) -> str:
    """Serialize to the interchange schema {"n", "m", "kraus"} with [re, im] pairs."""
    payload = {
        "n": t.n,
        "m": t.m,
        "kraus": [_matrix_to_lists(a) for a in t.kraus],
    }
    return json.dumps(payload)


def _parse_pair(obj, path: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)
    ):
        raise ParseError(f"{path}: expected a [re, im] pair of numbers")
    z = complex(float(obj[0]), float(obj[1]))
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ParseError(f"{path}: entries must be finite")
    return z


def from_json(text: str) -> CPOperator:
    """Parse the interchange schema produced by to_json."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("top level: expected an object")
    for key in ("n", "m", "kraus"):
        if key not in payload:
            raise ParseError(f"top level: missing key '{key}'")
    n, m = payload["n"], payload["m"]
    if not isinstance(n, int) or not isinstance(m, int) or n < 1 or m < 1:
        raise ParseError("n and m must be positive integers")
    kraus_obj = payload["kraus"]
    if not isinstance(kraus_obj, list) or len(kraus_obj) == 0:
        raise ParseError("kraus: expected a nonempty list of matrices")
    mats = []
    for k, mat in enumerate(kraus_obj):
        if not isinstance(mat, list) or len(mat) != m:
            raise ParseError(f"kraus[{k}]: expected {m} rows")
        a = np.zeros((m, n), dtype=complex)
        for i, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != n:
                raise ParseError(f"kraus[{k}][{i}]: expected {n} entries")
            for j, entry in enumerate(row):
                a[i, j] = _parse_pair(entry, f"kraus[{k}][{i}][{j}]")
        mats.append(a)
    return CPOperator(tuple(mats))
