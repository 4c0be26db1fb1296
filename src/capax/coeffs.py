"""Determinant coefficients of a CP operator on positive diagonals.

For diagonal input D = diag(lam), det(T(D)) is a polynomial sum_j d_j * lam^j
over multi-indices j of total degree m. Three independent routes compute the
coefficient vector d:

* d_leibniz: signed permutation expansion of the determinant over
  matrix-unit coefficients, summed row by row over (used columns, letter
  counts) states so that shared prefixes are multiplied once; at most
  n * m * 2^m * binomial(n+m-1, m) transitions.
* d_cauchy_binet: Gram-minor expansion over m-subsets of the labeled Kraus
  columns; each contribution is a squared modulus, so nonnegativity is
  structural. The minors are expanded row by row and shared across subsets:
  sum_r r * binomial(n*K, r) multiply-adds for r = 1..m.
* d_interpolate: least-squares fit of det(T(diag(lam))) sampled on a random
  positive grid, with iterative refinement in extended precision; one QR
  factorization per grid, O(S * N^2) for S points and N coefficients, and
  O(S * N) per call once the default grid's factors are cached.

Agreement of the three routes is the main correctness check for everything
downstream.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import cpop
from .errors import (
    CombinatorialOverflow,
    DimensionMismatch,
    IllConditionedGrid,
    NonRealCoefficient,
)

__all__ = [
    "CoeffVector",
    "enumerate_multiindices",
    "pi_fiber",
    "d_leibniz",
    "d_cauchy_binet",
    "d_interpolate",
    "evaluate_poly",
    "lipschitz_ratio",
]


# rows per Vandermonde block in d_interpolate's factorization and residuals
_RESIDUAL_ROWS = 256
# d_interpolate's default grid has 3 points per coefficient plus 2, log(lam)
# uniform on [-0.7, 0.7]; any grid above the condition limit is rejected
_GRID_OVERSAMPLE = 3
_GRID_SPREAD = 0.7
_COND_LIMIT = 1e12


def enumerate_multiindices(n: int, m: int) -> list[tuple[int, ...]]:
    """All j in N^n with |j| = m, ascending lexicographic order."""
    if n < 1 or m < 0:
        raise DimensionMismatch(f"need n >= 1 and m >= 0, got n={n}, m={m}")

    def gen(length: int, total: int):
        if length == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in gen(length - 1, total - first):
                yield (first,) + rest

    return list(gen(n, m))


def pi_fiber(j: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All words k in [n]^m whose letter counts equal j (1-based letters).

    These are the distinct permutations of the multiset with j_l copies of
    letter l; the fiber has size m! / prod(j_l!).
    """
    if any((not isinstance(v, (int, np.integer))) or v < 0 for v in j):
        raise DimensionMismatch(f"multi-index must have nonnegative integer parts, got {j}")
    n = len(j)
    m = int(sum(j))
    counts = [int(v) for v in j]
    out: list[tuple[int, ...]] = []
    word: list[int] = []

    def rec():
        if len(word) == m:
            out.append(tuple(word))
            return
        for letter in range(n):
            if counts[letter] > 0:
                counts[letter] -= 1
                word.append(letter + 1)
                rec()
                word.pop()
                counts[letter] += 1

    rec()
    return out


@dataclass(frozen=True)
class CoeffVector:
    """Coefficient vector over the lexicographic multi-index list for (n, m)."""

    n: int
    m: int
    values: np.ndarray
    fit_residual: float | None = field(default=None, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expected = math.comb(self.n + self.m - 1, self.m)
        if vals.shape != (expected,):
            raise DimensionMismatch(
                f"expected {expected} coefficients for n={self.n}, m={self.m}, got shape {vals.shape}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @cached_property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(enumerate_multiindices(self.n, self.m))

    def __len__(self) -> int:
        return len(self.values)

    def to_csv(self, path) -> None:
        """Write 'j_1,...,j_n,d' rows in lexicographic index order."""
        with open(path, "w", encoding="utf-8") as fh:
            header = ",".join(f"j_{i}" for i in range(1, self.n + 1))
            fh.write(header + ",d\n")
            for j, v in zip(self.indices, self.values):
                fh.write(",".join(str(c) for c in j) + f",{float(v)!r}\n")


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Freeze arrays that a cache hands to every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=32)
def _multiindex_table(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lexicographic multi-index list as an (N, n) array, the base-(m+1)
    weights that turn letter counts into integer keys, the sorted keys of
    the list and their positions in it."""
    jarr = np.array(enumerate_multiindices(n, m), dtype=np.int64)
    base = (m + 1) ** np.arange(n, dtype=np.int64)
    keys = jarr @ base
    order = np.argsort(keys)
    return _read_only(jarr, base, keys[order], order)


def _lookup(n: int, m: int, keys: np.ndarray) -> np.ndarray:
    """Map letter-count keys to positions in the lexicographic list."""
    _, _, sorted_keys, order = _multiindex_table(n, m)
    return order[np.searchsorted(sorted_keys, keys)]


@lru_cache(maxsize=16)
def _leibniz_plan(n: int, m: int) -> tuple[tuple[tuple[np.ndarray, ...], ...], np.ndarray]:
    """Row-by-row transition tables for the prefix-grouped Leibniz sum.

    A state after i rows is the set of used columns (a bit mask) plus the
    letter counts so far. Placing row i in free column c with letter l moves
    to the state with c used and l counted once more; the permutation sign
    flips once for each used column above c. Level i lists its transitions
    sorted by target state: the source state, the flat index of the factor
    +-T(E_ll)[i, c] in the signed image stack [T(E_ll)] + [-T(E_ll)], and the
    start of each target's run. The second value maps the final states to
    lexicographic multi-index positions.
    """
    base = _multiindex_table(n, m)[1]
    stride = (m + 1) ** n
    masks = np.zeros(1, dtype=np.int64)
    counts = np.zeros(1, dtype=np.int64)
    levels = []
    for i in range(m):
        src, col, letter = np.indices((masks.size, m, n)).reshape(3, -1)
        free = (masks[src] >> col) & 1 == 0
        src, col, letter = src[free], col[free], letter[free]
        above = sum(((masks[src] >> b) & 1) * (col < b) for b in range(m))
        targets, dst = np.unique(
            (masks[src] | (1 << col)) * stride + counts[src] + base[letter], return_inverse=True
        )
        order = np.argsort(dst, kind="stable")
        factor = ((above % 2 * n + letter) * m + i) * m + col
        starts = np.searchsorted(dst[order], np.arange(targets.size))
        levels.append(_read_only(*(a.astype(np.int32) for a in (src[order], factor[order], starts))))
        masks, counts = targets // stride, targets % stride
    return tuple(levels), _read_only(_lookup(n, m, counts))[0]


def _diag_images(t) -> tuple[np.ndarray, int, int]:
    """Stack of the n matrices T(E_ll), for a CPOperator, a (K, m, n) Kraus
    stack or a flat matrix rep.

    For a Kraus stack, T(E_ll) = C_l C_l* where C_l is the (m, K) matrix of
    the l-th Kraus columns, so the stack is one batched matmul, taken as the
    transpose of conj(C_l) C_l^T: that factor order is the one numpy's
    einsum uses for this contraction, and for K >= 2 both give the same bits.
    """
    if isinstance(t, cpop.CPOperator):
        t = t._kraus_stack
    rep = np.asarray(t, dtype=complex)
    if rep.ndim == 3:
        cols = rep.transpose(2, 1, 0)
        images = (cols.conj() @ cols.transpose(0, 2, 1)).transpose(0, 2, 1)
        return images, rep.shape[2], rep.shape[1]
    if rep.ndim != 2:
        raise DimensionMismatch(f"matrix representation must be 2-d, got shape {rep.shape}")
    m = math.isqrt(rep.shape[0])
    n = math.isqrt(rep.shape[1])
    if m * m != rep.shape[0] or n * n != rep.shape[1]:
        raise DimensionMismatch(f"matrix representation shape {rep.shape} is not (m^2, n^2)")
    images = np.stack([rep[:, l * n + l].reshape(m, m) for l in range(n)])
    return images, n, m


def d_leibniz(t, max_m: int = 7) -> CoeffVector:
    """Coefficient vector by the signed Leibniz expansion, grouped by row prefix.

    Expands det(sum_l lam_l T(E_ll)) one row at a time over states (used
    columns, letter counts), so every permutation-word pair sharing a prefix
    shares its partial product. The transitions number at most
    n * m * 2^m * binomial(n+m-1, m): polynomial in n, exponential rather
    than factorial in m. Imaginary residue above 1e-10 of the coefficient
    scale raises NonRealCoefficient.
    """
    images, n, m = _diag_images(t)
    if m > max_m:
        raise CombinatorialOverflow(
            f"m={m} exceeds the permutation ceiling {max_m}; raise max_m to force the computation"
        )
    levels, positions = _leibniz_plan(n, m)
    signed = np.concatenate([images, -images]).ravel()
    partial = np.ones(1, dtype=complex)
    for src, factor, starts in levels:
        partial = np.add.reduceat(partial[src] * signed[factor], starts)
    vals = np.empty(positions.size, dtype=complex)
    vals[positions] = partial
    scale = max(float(np.abs(vals).max(initial=0.0)), 1.0)
    worst = float(np.abs(vals.imag).max(initial=0.0))
    if worst > 1e-10 * scale:
        raise NonRealCoefficient(
            f"imaginary residue {worst:.3e} exceeds 1e-10 of the coefficient scale {scale:.3e}"
        )
    return CoeffVector(n, m, vals.real)


@lru_cache(maxsize=16)
def _minor_plan(n: int, kk: int, m: int):
    """Colex tables for the row-by-row minor expansion over n*K labeled columns.

    Level r lists the r-subsets S = {s_0 < ... < s_{r-1}} of the columns in
    colex order, so the subsets whose largest column is c are the first
    binomial(c, r-1) subsets of level r-1 with c appended, at ranks from
    binomial(c, r). Each level grows block by block from the one before:
    for every position p it keeps the column s_p and the rank of S minus
    s_p in level r-1 (tables of shape (r, binomial(n*K, r))). Levels 0 to
    m-1 are kept; level m is streamed one block per column by the caller.
    The last values place each level m-1 subset's label counts in the
    lexicographic (n, m-1) list, and lift position j' with one more label l
    to its position in the (n, m) list, as lift[l, j'].
    """
    width = n * kk
    cols, drops = _read_only(*np.zeros((2, 0, 1), dtype=np.int32))
    levels = [(cols, drops)]
    for r in range(1, m):
        grown = np.empty((2, r, math.comb(width, r)), dtype=np.int32)
        for c in range(r - 1, width):
            k, start = math.comb(c, r - 1), math.comb(c, r)
            block = grown[:, :, start : start + k]
            block[0, :-1], block[0, -1] = cols[:, :k], c
            block[1, :-1], block[1, -1] = drops[:, :k] + k, np.arange(k)
        cols, drops = grown
        levels.append(_read_only(cols, drops))
    jarr, base = _multiindex_table(n, m - 1)[:2]
    labels = np.tile(np.arange(n, dtype=np.int64), kk)
    positions = _lookup(n, m - 1, base[labels[cols]].sum(axis=0)).astype(np.int32)
    lifted = _lookup(n, m, (jarr + np.eye(n, dtype=np.int64)[:, None]) @ _multiindex_table(n, m)[1])
    return tuple(levels), *_read_only(positions, lifted)


def _laplace(row: np.ndarray, terms) -> np.ndarray:
    """Sum of +-row[cols] * minors over the (cols, minors) terms of a Laplace
    expansion along one row, with signs alternating from + on the first."""
    terms = iter(terms)
    cols, minors = next(terms)
    out = row[cols] * minors
    for q, (cols, minors) in enumerate(terms, start=1):
        if q % 2:
            out -= row[cols] * minors
        else:
            out += row[cols] * minors
    return out


def d_cauchy_binet(t: cpop.CPOperator, max_subsets: int = 10_000_000) -> CoeffVector:
    """Coefficient vector as sums of squared minors of the labeled Kraus columns.

    Column l of every Kraus matrix carries label l; for each m-subset S of
    the n*K labeled columns the squared modulus of its m x m minor lands on
    the multi-index counting the labels. All contributions are nonnegative.
    The minors are built one row at a time by Laplace expansion along the
    last row, M_r(S) = sum_p (-1)^(r-1+p) C[r-1, s_p] M_{r-1}(S - s_p), so
    every r x r minor on rows 0..r-1 is formed once and shared by all the
    subsets above it: sum_r r * binomial(n*K, r) multiply-adds for r = 1..m
    in place of one LU factorization per m-subset. Levels below m are kept
    whole and level m is streamed one block per largest column, so no array
    outgrows the widest level; one wider than max_subsets raises
    CombinatorialOverflow.
    """
    if not isinstance(t, cpop.CPOperator):
        raise DimensionMismatch("the Gram-minor route needs Kraus matrices, not a matrix rep")
    n, m, kk = t.n, t.m, len(t.kraus)
    width = n * kk
    if m > width:
        return CoeffVector(n, m, np.zeros(math.comb(n + m - 1, m)))
    widest = min(m, width // 2)
    if math.comb(width, widest) > max_subsets:
        raise CombinatorialOverflow(
            f"the row expansion forms binomial({width}, {widest}) = {math.comb(width, widest)} "
            f"minors, which exceeds the ceiling {max_subsets}"
        )
    columns = np.hstack(t.kraus)  # (m, n*K), label = column index mod n
    levels, positions, lifted = _minor_plan(n, kk, m)
    minors = np.ones(1, dtype=complex)
    for r, (cols, drops) in enumerate(levels[1:], start=1):
        minors = _laplace(columns[r - 1], ((cols[p], minors[drops[p]]) for p in reversed(range(r))))
    cols, drops = levels[-1]
    sums = np.zeros(lifted.shape)
    for c in range(m - 1, width):
        k = math.comb(c, m - 1)
        tail = minors[k:]
        top = _laplace(
            columns[m - 1],
            itertools.chain(
                [(c, minors[:k])], ((cols[p, :k], tail[drops[p, :k]]) for p in reversed(range(m - 1)))
            ),
        )
        sums[c % n] += np.bincount(positions[:k], top.real**2 + top.imag**2, minlength=sums.shape[1])
    vals = np.bincount(lifted.ravel(), sums.ravel(), minlength=math.comb(n + m - 1, m))
    return CoeffVector(n, m, vals)


def _vandermonde_blocks(log_lam: np.ndarray, jarr: np.ndarray):
    """Row blocks (rows, lam^j) of the Vandermonde matrix exp(log(lam) @ j).

    The factorization and the residuals both form V through this generator,
    so the residual blocks are the very rows that were factored, while no
    whole copy of V is kept.
    """
    for lo in range(0, log_lam.shape[0], _RESIDUAL_ROWS):
        rows = slice(lo, lo + _RESIDUAL_ROWS)
        yield rows, np.exp(log_lam[rows] @ jarr.T)


def _factor_grid(lam: np.ndarray, jarr: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Reduced QR of the grid's Vandermonde matrix and its 2-norm condition
    number, read from the singular values of R (they equal those of V)."""
    q, r = np.linalg.qr(np.vstack([block for _, block in _vandermonde_blocks(np.log(lam), jarr)]))
    svals = np.linalg.svd(r, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return q, r, float(svals[0] / svals[-1])


@lru_cache(maxsize=16)
def _default_grid(n: int, m: int, seed: int):
    """Log-uniform random grid for (n, m) with its factored Vandermonde matrix."""
    num = math.comb(n + m - 1, m)
    rng = np.random.default_rng(seed)
    lam = np.exp(rng.uniform(-_GRID_SPREAD, _GRID_SPREAD, size=(_GRID_OVERSAMPLE * num + 2, n)))
    q, r, cond = _factor_grid(lam, _multiindex_table(n, m)[0].astype(float))
    return (*_read_only(lam, q, r), cond)


def d_interpolate(t, probe_grid=None, *, seed: int = 2027) -> CoeffVector:
    """Coefficient vector by least squares on determinant samples.

    Samples det(T(diag(lam))) on a log-uniform random positive grid drawn
    from seed (3 points per coefficient plus 2, log(lam) in [-0.7, 0.7]) or
    on a caller-supplied one with at least as many points as coefficients,
    fits the monomial model through one QR factorization of the Vandermonde
    matrix, and polishes with two rounds of iterative refinement using
    extended-precision residuals formed in row blocks. The default grid and
    its factors are cached per (n, m, seed). The relative fit residual is
    stored on the result; grids with condition number above 1e12 are
    rejected.
    """
    images, n, m = _diag_images(t)
    jarr = _multiindex_table(n, m)[0].astype(float)
    num = jarr.shape[0]
    if probe_grid is None:
        lam, q, r, cond = _default_grid(n, m, seed)
    else:
        lam = np.asarray(probe_grid, dtype=float)
        if lam.ndim != 2 or lam.shape[1] != n:
            raise DimensionMismatch(f"probe grid must have shape (S, {n}), got {lam.shape}")
        if lam.shape[0] < num:
            raise IllConditionedGrid(
                f"grid has {lam.shape[0]} points but {num} coefficients are needed"
            )
        if lam.min() <= 0:
            raise IllConditionedGrid("probe grid must be strictly positive")
        q, r, cond = _factor_grid(lam, jarr)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise IllConditionedGrid(f"grid condition number {cond:.3e} exceeds {_COND_LIMIT:.1e}")

    log_lam = np.log(lam)
    dets = np.linalg.det(np.einsum("lij,sl->sij", images, lam, optimize=True))
    b = dets.real

    scale = max(float(np.abs(b).max(initial=0.0)), 1e-300)
    rhs = b / scale

    from scipy.linalg import solve_triangular

    def solve(vec):
        return solve_triangular(r, q.T @ vec)

    def residual(coeffs):
        c_ext = coeffs.astype(np.longdouble)
        out = np.empty(rhs.size)
        for rows, block in _vandermonde_blocks(log_lam, jarr):
            out[rows] = rhs[rows].astype(np.longdouble) - np.einsum("ij,j->i", block, c_ext)
        return out

    coeffs = solve(rhs)
    for _ in range(2):
        coeffs = coeffs + solve(residual(coeffs))
    rel_residual = float(np.linalg.norm(residual(coeffs)) / max(np.linalg.norm(rhs), 1e-300))
    return CoeffVector(n, m, coeffs * scale, fit_residual=rel_residual)


def evaluate_poly(cv: CoeffVector, lam) -> float:
    """Evaluate sum_j d_j * lam^j at a nonnegative diagonal lam."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (cv.n,):
        raise DimensionMismatch(f"lam must have shape ({cv.n},), got {lam.shape}")
    jarr = np.array(cv.indices, dtype=np.int64)
    monomials = np.prod(lam[None, :] ** jarr, axis=1)
    return float(cv.values @ monomials)


def lipschitz_ratio(t: cpop.CPOperator, t2: cpop.CPOperator) -> float:
    """Ratio of the sup-norm coefficient gap to the operator-norm distance.

    Returns 0 when both vanish and inf when the operators coincide in norm
    but not in coefficients (which cannot happen for exact data).
    """
    num = float(np.abs(d_leibniz(t).values - d_leibniz(t2).values).max(initial=0.0))
    den = cpop.distance(t, t2)
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den
