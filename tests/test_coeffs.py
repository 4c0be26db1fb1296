import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from capax import (
    CombinatorialOverflow,
    CPOperator,
    IllConditionedGrid,
    NonRealCoefficient,
    apply,
    conjugate_unitary,
    d_cauchy_binet,
    d_interpolate,
    d_leibniz,
    enumerate_multiindices,
    evaluate_poly,
    identity_channel,
    lipschitz_ratio,
    pi_fiber,
    trace_channel,
)
from capax.coeffs import _default_grid, _diag_images, _lookup, _multiindex_table
from conftest import make_op


def _leibniz_by_permutations(t) -> np.ndarray:
    """Reference coefficients: the signed Leibniz sum over every permutation
    and every word, one permutation at a time."""
    images, n, m = _diag_images(t)
    words = np.array(list(itertools.product(range(n), repeat=m))).reshape(-1, m)
    slot = {j: p for p, j in enumerate(enumerate_multiindices(n, m))}
    slots = [slot[tuple(np.bincount(w, minlength=n))] for w in words]
    vals = np.zeros(len(slot), dtype=complex)
    for perm in itertools.permutations(range(m)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        # images[word[i], i, perm[i]] multiplied over the rows i
        np.add.at(vals, slots, sign * np.prod(images[words, np.arange(m), perm], axis=1))
    return vals.real


def _cauchy_binet_by_lu(t) -> np.ndarray:
    """Reference coefficients: one LU determinant per m-subset of the labeled
    Kraus columns, the subsets taken from itertools.combinations."""
    n, m, kk = t.n, t.m, len(t.kraus)
    vals = np.zeros(math.comb(n + m - 1, m))
    if m > n * kk:
        return vals
    columns = np.hstack(t.kraus)
    labels = np.tile(np.arange(n), kk)
    subsets = np.array(list(itertools.combinations(range(n * kk), m)))
    dets = np.linalg.det(columns[:, subsets].transpose(1, 0, 2))
    keys = _multiindex_table(n, m)[1][labels[subsets]].sum(axis=1)
    np.add.at(vals, _lookup(n, m, keys), (dets * dets.conj()).real)
    return vals


@pytest.mark.parametrize("shape", [(2, 2, 3), (3, 4, 2)])
def test_diag_images_match_einsum(shape):
    """The batched matmul images T(E_ll) equal the einsum contraction."""
    rng = np.random.default_rng(17)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    expected = np.einsum("kil,kjl->lij", a, a.conj())
    images, n, m = _diag_images(a)
    assert (n, m) == (shape[2], shape[1])
    assert_allclose(images, expected, rtol=0, atol=1e-15 * np.abs(expected).max())


def test_diag_images_of_matrix_rep_match_einsum():
    t = make_op(3, 4, 2, seed=23)
    a = t._kraus_stack
    images, n, m = _diag_images(t.matrix_rep)
    assert (n, m) == (3, 4)
    expected = np.einsum("kil,kjl->lij", a, a.conj())
    assert_allclose(images, expected, rtol=0, atol=1e-14 * np.abs(expected).max())
    assert_allclose(_diag_images(t)[0], expected, rtol=0, atol=1e-15 * np.abs(expected).max())


def test_enumerate_small_case():
    assert list(enumerate_multiindices(2, 2)) == [(0, 2), (1, 1), (2, 0)]


@pytest.mark.parametrize("n,m", [(1, 3), (2, 4), (3, 3), (4, 2)])
def test_enumerate_count_and_order(n, m):
    idx = list(enumerate_multiindices(n, m))
    assert len(idx) == math.comb(n + m - 1, m)
    assert all(sum(j) == m for j in idx)
    assert idx == sorted(idx)


def test_pi_fiber_contents():
    assert pi_fiber((1, 1)) == [(1, 2), (2, 1)]
    assert pi_fiber((0, 2)) == [(2, 2)]
    assert pi_fiber((2, 1)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3)])
def test_fibers_partition_all_words(n, m):
    """Fibers over the multi-indices partition the n^m letter words."""
    total = 0
    seen = set()
    for j in enumerate_multiindices(n, m):
        fiber = pi_fiber(j)
        assert len(fiber) == math.factorial(m) // math.prod(
            math.factorial(c) for c in j
        )
        total += len(fiber)
        seen.update(fiber)
    assert total == n**m
    assert len(seen) == total


def test_identity_channel_coefficients():
    """det(diag(lam)) = prod(lam): unit mass on the all-ones index."""
    cv = d_leibniz(identity_channel(3))
    for j, v in zip(cv.indices, cv.values):
        expected = 1.0 if j == (1, 1, 1) else 0.0
        assert abs(v - expected) <= 1e-12


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
def test_trace_channel_coefficients(n, m):
    """det(tr(X) I_m) = (sum lam)^m gives multinomial coefficients."""
    cv = d_leibniz(trace_channel(n, m))
    for j, v in zip(cv.indices, cv.values):
        expected = math.factorial(m) / math.prod(math.factorial(c) for c in j)
        assert abs(v - expected) <= 1e-10 * expected


def test_leibniz_near_nonnegative():
    for seed in range(8):
        cv = d_leibniz(make_op(3, 2, 2, seed=seed))
        assert cv.values.min() >= -1e-10


@pytest.mark.parametrize(
    "case", [(1, 1, 1), (2, 3, 1), (3, 2, 3), (4, 4, 2), "matrix-rep"], ids=str
)
def test_leibniz_matches_permutation_reference(case):
    t = make_op(3, 3, 2, seed=71).matrix_rep if case == "matrix-rep" else make_op(*case, seed=71)
    ref = _leibniz_by_permutations(t)
    gap = np.abs(d_leibniz(t).values - ref).max()
    assert gap <= 1e-13 * max(np.abs(ref).max(), 1.0)


def test_leibniz_matches_cauchy_binet_at_m7():
    with pytest.warns(UserWarning, match="comfortable scale"):
        t = make_op(7, 7, 2, seed=73)
    ref, other = d_leibniz(t).values, d_cauchy_binet(t).values
    bounds = 1e-12 + 1e-9 * np.maximum(np.abs(ref), np.abs(other))
    assert np.all(np.abs(ref - other) <= bounds)


def test_cauchy_binet_exactly_nonnegative():
    for seed in range(8):
        cv = d_cauchy_binet(make_op(2, 3, 2, seed=seed))
        assert cv.values.min() >= 0.0


def _rank_deficient_op() -> CPOperator:
    """Rank-2 and rank-3 Kraus matrices, one of them repeated, so many
    minors of the labeled columns vanish exactly or nearly."""
    rng = np.random.default_rng(79)
    low = [
        rng.standard_normal((4, r)) @ rng.standard_normal((r, 4)) + 0j for r in (2, 2, 3)
    ]
    return CPOperator((low[0], low[1], low[0], low[2]))


def _scaled_op(factor) -> CPOperator:
    return CPOperator(tuple(factor * a for a in make_op(3, 3, 2, seed=83).kraus))


@pytest.mark.parametrize(
    "case",
    ["K=1", "n<m", "n>m", "m>nK", "rank-deficient", "scaled-1e8", "scaled-1e-8", "(7,7,2)"],
)
def test_cauchy_binet_matches_lu_reference(case):
    """The row-by-row minor expansion equals one LU determinant per subset."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".*comfortable scale", UserWarning)
        t = {
            "K=1": lambda: make_op(4, 4, 1, seed=83),
            "n<m": lambda: make_op(3, 4, 2, seed=83),
            "n>m": lambda: make_op(5, 3, 2, seed=83),
            "m>nK": lambda: make_op(1, 3, 2, seed=83),
            "rank-deficient": _rank_deficient_op,
            "scaled-1e8": lambda: _scaled_op(1e8),
            "scaled-1e-8": lambda: _scaled_op(1e-8),
            "(7,7,2)": lambda: make_op(7, 7, 2, seed=73),
        }[case]()
    ref, got = _cauchy_binet_by_lu(t), d_cauchy_binet(t).values
    if case == "m>nK":
        assert not got.any() and not ref.any()
    else:
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n,m,k", [(1, 1, 1), (2, 2, 2), (2, 3, 1), (3, 2, 3), (3, 3, 2)])
def test_three_routes_agree(n, m, k):
    t = make_op(n, m, k, seed=100 + 10 * n + m)
    ref = d_leibniz(t).values
    for other in (d_cauchy_binet(t).values, d_interpolate(t).values):
        gaps = np.abs(ref - other)
        bounds = 1e-12 + 1e-9 * np.maximum(np.abs(ref), np.abs(other))
        assert np.all(gaps <= bounds)


def test_coefficients_sum_to_det_at_identity():
    t = make_op(3, 3, 2, seed=41)
    cv = d_leibniz(t)
    total = cv.values.sum()
    expected = np.linalg.det(apply(t, np.eye(3, dtype=complex))).real
    assert abs(total - expected) <= 1e-9 * max(abs(expected), 1.0)


def test_evaluate_poly_matches_determinant(rng):
    t = make_op(3, 2, 2, seed=43)
    cv = d_leibniz(t)
    for _ in range(20):
        lam = np.exp(rng.uniform(-1.0, 1.0, size=3))
        direct = np.linalg.det(apply(t, np.diag(lam).astype(complex))).real
        value = evaluate_poly(cv, lam)
        assert abs(value - direct) <= 1e-9 * max(abs(direct), abs(value), 1.0)


def test_permutation_equivariance():
    """Permuting the input basis permutes the multi-index labels."""
    t = make_op(3, 2, 2, seed=47)
    perm = np.array([2, 0, 1])
    p = np.zeros((3, 3), dtype=complex)
    for i, pi in enumerate(perm):
        p[pi, i] = 1.0
    cv = d_leibniz(t)
    cv_p = d_leibniz(conjugate_unitary(t, p))
    lookup = {j: v for j, v in zip(cv.indices, cv.values)}
    for j, v in zip(cv_p.indices, cv_p.values):
        # T_P(diag(lam)) = T(diag(P lam P^T)), so index i picks up lam_{perm[i]}
        j_orig = tuple(np.array(j)[np.argsort(perm)])
        assert abs(v - lookup[j_orig]) <= 1e-10 * max(abs(v), 1.0)


def test_interpolate_accepts_custom_grid(rng):
    t = make_op(2, 2, 2, seed=53)
    count = math.comb(2 + 2 - 1, 2)
    grid = np.exp(rng.uniform(-0.5, 0.5, size=(3 * count, 2)))
    cv = d_interpolate(t, probe_grid=grid)
    assert_allclose(cv.values, d_leibniz(t).values, atol=1e-9)
    assert cv.fit_residual is not None and cv.fit_residual <= 1e-9


def test_interpolate_default_grid_repeats_exactly():
    """The cached default-grid factors give the same bits on every call, and
    the same bits as passing that grid explicitly, which factors afresh."""
    t = make_op(3, 3, 2, seed=79)
    first, again = d_interpolate(t), d_interpolate(t)
    assert np.array_equal(first.values, again.values)
    assert first.fit_residual == again.fit_residual
    grid = _default_grid(3, 3, 2027)[0]
    assert np.array_equal(d_interpolate(t, probe_grid=grid).values, first.values)


def test_interpolate_rejects_repeated_rows(rng):
    t = make_op(2, 2, 2, seed=83)
    rows = np.exp(rng.uniform(-0.5, 0.5, size=(2, 2)))
    with pytest.raises(IllConditionedGrid):
        d_interpolate(t, probe_grid=np.repeat(rows, 6, axis=0))


def test_interpolate_rejects_small_grid():
    t = make_op(2, 2, 2, seed=59)
    with pytest.raises(IllConditionedGrid):
        d_interpolate(t, probe_grid=np.ones((2, 2)))


def test_csv_export(tmp_path):
    cv = d_leibniz(trace_channel(2, 2))
    path = tmp_path / "coeffs.csv"
    cv.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "j_1,j_2,d"
    assert len(lines) == 1 + len(cv.values)
    j1, j2, v = lines[2].split(",")
    assert (int(j1), int(j2)) == cv.indices[1]
    assert float(v) == cv.values[1]


def test_non_real_coefficient_detected():
    # a raw matrix form whose diagonal blocks carry a complex determinant
    rep = np.array([[1j]], dtype=complex)
    with pytest.raises(NonRealCoefficient):
        d_leibniz(rep)


def test_overflow_gates():
    with pytest.warns(UserWarning, match="comfortable scale"):
        t = make_op(1, 8, 1, seed=61)
    with pytest.raises(CombinatorialOverflow):
        d_leibniz(t)
    with pytest.raises(CombinatorialOverflow):
        d_cauchy_binet(make_op(3, 3, 3, seed=61), max_subsets=5)


def test_lipschitz_ratio_behaviour():
    t = make_op(2, 2, 2, seed=67)
    assert lipschitz_ratio(t, t) == 0.0
    t2 = CPOperator(tuple(1.01 * a for a in t.kraus))
    r = lipschitz_ratio(t, t2)
    assert np.isfinite(r) and r > 0
