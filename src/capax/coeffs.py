"""Determinant coefficients of a CP operator on positive diagonals.

For diagonal input D = diag(lam), det(T(D)) is a polynomial sum_j d_j * lam^j
over multi-indices j of total degree m. Three independent routes compute the
coefficient vector d:

* d_leibniz: permutation expansion of the determinant over matrix-unit
  coefficients, grouped by the fibers of the word-to-multi-index surjection.
* d_cauchy_binet: Gram-minor expansion over m-subsets of the labeled Kraus
  columns; each contribution is a squared modulus, so nonnegativity is
  structural.
* d_interpolate: least-squares fit of det(T(diag(lam))) sampled on a random
  positive grid, with iterative refinement in extended precision.

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


class _LeibnizPlan:
    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        js = enumerate_multiindices(n, m)
        self.num_coeffs = len(js)
        jarr = np.array(js, dtype=np.int64)
        base = (m + 1) ** np.arange(n, dtype=np.int64)
        jkeys = jarr @ base
        self.key_order = np.argsort(jkeys)
        self.sorted_keys = jkeys[self.key_order]
        self.jarr = jarr
        # all words k in [n]^m as 0-based rows, lexicographic
        grids = np.meshgrid(*([np.arange(n)] * m), indexing="ij") if m > 0 else []
        if m > 0:
            k_all = np.stack(grids, axis=-1).reshape(-1, m)
        else:
            k_all = np.zeros((1, 0), dtype=np.int64)
        counts = (k_all[:, :, None] == np.arange(n)).sum(axis=1)
        jpos = self.lookup(counts @ base)
        order = np.argsort(jpos, kind="stable")
        self.k_sorted = k_all[order]
        self.group_starts = np.searchsorted(jpos[order], np.arange(self.num_coeffs))
        perms = list(itertools.permutations(range(m)))
        self.perms = np.array(perms, dtype=np.int64) if m > 0 else np.zeros((1, 0), np.int64)
        self.signs = np.array([_perm_sign(p) for p in perms] or [1], dtype=float)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Map base-(m+1) count keys to positions in the lexicographic list."""
        return self.key_order[np.searchsorted(self.sorted_keys, keys)]


def _perm_sign(p) -> int:
    inversions = sum(1 for a, b in itertools.combinations(p, 2) if a > b)
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def _leibniz_plan(n: int, m: int) -> _LeibnizPlan:
    return _LeibnizPlan(n, m)


def _diag_images(t) -> tuple[np.ndarray, int, int]:
    """Stack of the n matrices T(E_ll), for a CPOperator, a (K, m, n) Kraus
    stack or a flat matrix rep."""
    if isinstance(t, cpop.CPOperator):
        t = t._kraus_stack
    rep = np.asarray(t, dtype=complex)
    if rep.ndim == 3:
        images = np.einsum("kil,kjl->lij", rep, rep.conj(), optimize=True)
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
    """Coefficient vector by the signed permutation expansion.

    Iterates permutations outermost and accumulates per-fiber products with
    compensated summation; cost O(m! * n^m * m). Imaginary residue above
    1e-10 of the coefficient scale raises NonRealCoefficient.
    """
    images, n, m = _diag_images(t)
    if m > max_m:
        raise CombinatorialOverflow(
            f"m={m} exceeds the permutation ceiling {max_m}; raise max_m to force the computation"
        )
    plan = _leibniz_plan(n, m)
    vals = np.zeros(plan.num_coeffs, dtype=complex)
    comp = np.zeros(plan.num_coeffs, dtype=complex)
    rows = np.arange(m)
    for perm, sign in zip(plan.perms, plan.signs):
        if m > 0:
            gathered = images[:, rows, perm].T  # [i, l] = images[l, i, perm[i]]
            prod = gathered[0, plan.k_sorted[:, 0]].copy()
            for i in range(1, m):
                prod *= gathered[i, plan.k_sorted[:, i]]
            contrib = sign * np.add.reduceat(prod, plan.group_starts)
        else:
            contrib = np.ones(1, dtype=complex)
        # Kahan update, vectorized over coefficients
        y = contrib - comp
        total = vals + y
        comp = (total - vals) - y
        vals = total
    scale = max(float(np.abs(vals).max(initial=0.0)), 1.0)
    worst = float(np.abs(vals.imag).max(initial=0.0))
    if worst > 1e-10 * scale:
        raise NonRealCoefficient(
            f"imaginary residue {worst:.3e} exceeds 1e-10 of the coefficient scale {scale:.3e}"
        )
    return CoeffVector(n, m, vals.real)


def d_cauchy_binet(t: cpop.CPOperator, max_subsets: int = 10_000_000) -> CoeffVector:
    """Coefficient vector as sums of squared minors of the labeled Kraus columns.

    Column l of every Kraus matrix carries label l; for each m-subset of the
    n*K labeled columns the squared modulus of its determinant lands on the
    multi-index counting the labels. All contributions are nonnegative.
    """
    if not isinstance(t, cpop.CPOperator):
        raise DimensionMismatch("the Gram-minor route needs Kraus matrices, not a matrix rep")
    n, m, kk = t.n, t.m, len(t.kraus)
    total = math.comb(n * kk, m) if m <= n * kk else 0
    if total > max_subsets:
        raise CombinatorialOverflow(
            f"binomial({n * kk}, {m}) = {total} subsets exceeds the ceiling {max_subsets}"
        )
    plan = _leibniz_plan(n, m)
    vals = np.zeros(plan.num_coeffs, dtype=float)
    if total == 0:
        return CoeffVector(n, m, vals)
    columns = np.hstack([a for a in t.kraus])  # (m, n*K), label = column index mod n
    labels = np.tile(np.arange(n, dtype=np.int64), kk)
    base = (m + 1) ** np.arange(n, dtype=np.int64)
    combos = itertools.combinations(range(n * kk), m)
    chunk_size = 20000
    while True:
        chunk = np.array(list(itertools.islice(combos, chunk_size)), dtype=np.int64)
        if chunk.size == 0:
            break
        chunk = chunk.reshape(-1, m)
        mats = columns[:, chunk].transpose(1, 0, 2)  # (B, m, m), columns as chosen
        dets = np.linalg.det(mats)
        weights = (dets * dets.conj()).real
        keys = base[labels[chunk]].sum(axis=1)
        np.add.at(vals, plan.lookup(keys), weights)
    return CoeffVector(n, m, vals)


def d_interpolate(
    t,
    probe_grid=None,
    *,
    oversample: int = 3,
    spread: float = 0.7,
    seed: int = 2027,
    cond_limit: float = 1e12,
) -> CoeffVector:
    """Coefficient vector by least squares on determinant samples.

    Samples det(T(diag(lam))) on a log-uniform random positive grid (or a
    caller-supplied one with at least as many points as coefficients), fits
    the monomial model, and polishes with two rounds of iterative refinement
    using extended-precision residuals. The relative fit residual is stored
    on the result; grids with condition number above cond_limit are rejected.
    """
    images, n, m = _diag_images(t)
    js = enumerate_multiindices(n, m)
    jarr = np.array(js, dtype=float)
    num = len(js)
    if probe_grid is None:
        rng = np.random.default_rng(seed)
        lam = np.exp(rng.uniform(-spread, spread, size=(max(oversample, 1) * num + 2, n)))
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

    vandermonde = np.exp(np.log(lam) @ jarr.T)  # (S, num)
    cond = float(np.linalg.cond(vandermonde))
    if not np.isfinite(cond) or cond > cond_limit:
        raise IllConditionedGrid(f"grid condition number {cond:.3e} exceeds {cond_limit:.1e}")

    dets = np.linalg.det(np.einsum("lij,sl->sij", images, lam, optimize=True))
    b = dets.real

    scale = max(float(np.abs(b).max(initial=0.0)), 1e-300)
    rhs = b / scale
    coeffs = np.linalg.lstsq(vandermonde, rhs, rcond=None)[0]
    v_ext = vandermonde.astype(np.longdouble)
    rhs_ext = rhs.astype(np.longdouble)
    for _ in range(2):
        residual_ext = rhs_ext - v_ext @ coeffs.astype(np.longdouble)
        coeffs = coeffs + np.linalg.lstsq(vandermonde, np.asarray(residual_ext, float), rcond=None)[0]
    final_res = rhs_ext - v_ext @ coeffs.astype(np.longdouble)
    rel_residual = float(np.linalg.norm(np.asarray(final_res, float)) / max(np.linalg.norm(rhs), 1e-300))
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
