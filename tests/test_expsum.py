import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from capax import (
    CapaxError,
    DeltaTooLarge,
    DimensionMismatch,
    EmptySupport,
    ExpSumProblem,
    HullTag,
    InfeasibleMoment,
    NotSupported,
    ParseError,
    SupportViolation,
    classify_hull,
    diag_problem,
    entropy_dual,
    enumerate_multiindices,
    grad_hess,
    kl_divergence,
    near_minimizer,
    phi_eval,
    problem_from_json,
    problem_to_json,
    psi_minimize,
    psi_result_to_dict,
    semicontinuity_bound,
    trace_channel,
)
from capax import expsum
from capax.expsum import _analyze_hull, _cached_hull

# the trace channel on 2x2 inputs: weights (1, 2, 1) on exponents
# (-1, 1), (0, 0), (1, -1); the infimum 4 sits at the origin
TRACE = diag_problem(trace_channel(2, 2))

# origin strictly inside a segment with one extra point below it
BOUNDARY = ExpSumProblem(
    np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    np.array([2.0, 3.0, 5.0]),
)


def test_phi_eval_direct_sum():
    y = np.array([0.3, -0.2])
    expected = sum(
        d * np.exp(u @ y) for u, d in zip(TRACE.u, TRACE.d)
    )
    assert abs(phi_eval(TRACE, y) - expected) <= 1e-12 * expected


def test_phi_eval_survives_large_arguments():
    val = phi_eval(TRACE, np.array([500.0, -500.0]))
    assert np.isfinite(val) or val == np.inf
    assert phi_eval(TRACE, np.array([-500.0, 500.0])) > 0


def test_grad_hess_match_finite_differences(rng):
    u = rng.standard_normal((6, 3))
    d = np.exp(rng.standard_normal(6))
    prob = ExpSumProblem(u, d)
    y = rng.standard_normal(3) * 0.4
    g, h = grad_hess(prob, y)
    step = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        fd = (phi_eval(prob, y + e) - phi_eval(prob, y - e)) / (2 * step)
        assert abs(g[i] - fd) <= 1e-6 * max(abs(fd), 1.0)
        for j in range(3):
            ej = np.zeros(3)
            ej[j] = step
            gp, _ = grad_hess(prob, y + ej)
            gm, _ = grad_hess(prob, y - ej)
            fd2 = (gp[i] - gm[i]) / (2 * step)
            assert abs(h[i, j] - fd2) <= 1e-5 * max(abs(fd2), 1.0)


def test_classification_tags():
    assert classify_hull(TRACE).tag is HullTag.INTERIOR_ZERO
    cls = classify_hull(BOUNDARY)
    assert cls.tag is HullTag.BOUNDARY_ZERO
    assert cls.active_face == (0, 1)
    ext = ExpSumProblem(np.array([[1.0, 0.5]]), np.array([3.0]))
    assert classify_hull(ext).tag is HullTag.EXTERIOR_ZERO


def test_classification_ignores_zero_weights():
    """Dropping a term's weight to zero removes it from the hull: the origin
    moves from the boundary of a triangle to the relative interior of a
    segment, where the infimum is attained again."""
    u = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    with_weight = classify_hull(ExpSumProblem(u, np.array([1.0, 1.0, 1.0])))
    assert with_weight.tag is HullTag.BOUNDARY_ZERO
    assert with_weight.active_face == (0, 1)
    without = classify_hull(ExpSumProblem(u, np.array([1.0, 1.0, 0.0])))
    assert without.tag is HullTag.INTERIOR_ZERO


def test_hull_cache_is_bounded_and_counts_hits():
    info = _cached_hull.cache_info()
    assert info.maxsize is not None
    first = classify_hull(BOUNDARY)
    again = classify_hull(ExpSumProblem(BOUNDARY.u, 7.0 * BOUNDARY.d))
    assert again == first
    # the second call shares the support geometry, so it is a hit
    assert _cached_hull.cache_info().hits >= info.hits + 1
    assert _cached_hull.cache_info().currsize <= info.maxsize


def _row_form_alpha_lp(u_sup, eta, objective):
    """Reference hull LP with one row alpha_j >= s per term, over [alpha, s]."""
    count, n = u_sup.shape
    hull_rows = np.hstack([u_sup.T, np.zeros((n, 1))])
    weight_rows = np.hstack([-np.eye(count), np.ones((count, 1))])
    res = linprog(
        -objective,
        A_ub=np.vstack([hull_rows, -hull_rows, weight_rows]),
        b_ub=np.concatenate([np.full(2 * n, eta), np.zeros(count)]),
        A_eq=np.append(np.ones(count), 0.0)[None, :],
        b_eq=[1.0],
        bounds=(0.0, 1.0),
        method="highs",
    )
    return res.status, res.x


def _hull_case(kind, seed):
    """Seeded exponents whose hull holds the origin inside, on a face, or not."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    u = rng.standard_normal((n + 3 + seed % 5, n))
    if kind == "interior":
        return u - u.mean(axis=0)
    if kind == "exterior":
        u[:, 0] = np.abs(u[:, 0]) + 0.1
        return u
    # boundary: a centred face in the hyperplane u_0 = 0, the rest above it
    face = u[: n + 1] - u[: n + 1].mean(axis=0)
    face[:, 0] = 0.0
    rest = u[n + 1 :]
    rest[:, 0] = np.abs(rest[:, 0]) + 0.1
    return np.vstack([face, rest])


@pytest.mark.parametrize(
    "kind,tag",
    [
        ("interior", HullTag.INTERIOR_ZERO),
        ("boundary", HullTag.BOUNDARY_ZERO),
        ("exterior", HullTag.EXTERIOR_ZERO),
    ],
)
def test_bound_form_hull_lp_matches_row_form(kind, tag, monkeypatch):
    for seed in range(12):
        u = _hull_case(kind, seed)
        got = _lp_only(u)
        with monkeypatch.context() as patch:
            patch.setattr(expsum, "_feasible_alpha_lp", _row_form_alpha_lp)
            assert _lp_only(u) == got
        assert got[0] is tag
        if kind == "boundary":
            assert got[1] == tuple(range(u.shape[1] + 1))


def _lp_only(u):
    """The LP stage of _analyze_hull on its own, skipping the certificate."""
    return expsum._analyze_hull_lp(u, expsum._MEMBER_ETA_REL * max(1.0, float(np.abs(u).max())))


def _certifies(u):
    eta = expsum._MEMBER_ETA_REL * max(1.0, float(np.abs(u).max()))
    return expsum._gibbs_certifies_interior(u, expsum._span_basis(u), eta)


@pytest.mark.parametrize("kind", ["interior", "boundary", "exterior"])
def test_certificate_matches_lp_only_classifier(kind):
    """The Gibbs certificate accepts every seeded interior support, declines
    every boundary and exterior one, and _analyze_hull gives the LP's tag
    and face either way."""
    for seed in range(12):
        u = _hull_case(kind, seed)
        assert _certifies(u) is (kind == "interior")
        assert _analyze_hull(u) == _lp_only(u)


def test_certificate_declines_near_boundary_interior():
    """An origin 1e-5 inside a face is interior to the LP, but the Gibbs
    weight on the far side falls below 10 _WEIGHT_TOL: the certificate
    declines and the LP decides."""
    for seed in range(6):
        u = _hull_case("boundary", seed)
        u[:, 0] -= 1e-5
        assert not _certifies(u)
        assert _analyze_hull(u) == _lp_only(u) == (HullTag.INTERIOR_ZERO, None)


def _diag_support(n, m, k):
    """The diagonal exponents j - m/n that can carry weight (every j_l <= K)."""
    index = np.array(enumerate_multiindices(n, m), dtype=float)
    return index[index.max(axis=1) <= k] - m / n


@pytest.mark.parametrize(
    "n,m,k", [(2, 2, 2), (3, 3, 3), (4, 4, 4), (5, 5, 5), (6, 6, 3), (3, 4, 2), (4, 3, 3)]
)
def test_certificate_matches_lp_on_coefficient_supports(n, m, k):
    """Moment targets inside the diagonal support of each coefficient shape
    are certified interior, as the LP finds them."""
    u = _diag_support(n, m, k)
    rng = np.random.default_rng(n * 100 + m * 10 + k)
    for theta in rng.dirichlet(np.ones(u.shape[0]), size=3) @ u:
        shifted = np.ascontiguousarray(u - theta)
        assert _certifies(shifted)
        assert _analyze_hull(shifted) == _lp_only(shifted) == (HullTag.INTERIOR_ZERO, None)


@pytest.mark.parametrize("n,m,k", [(2, 2, 2), (3, 3, 3), (3, 4, 2), (4, 3, 3)])
def test_certificate_declines_support_vertex(n, m, k):
    """A moment target on the lexicographically first support point, a
    vertex, is declined and the LP reports that vertex as the face."""
    u = _diag_support(n, m, k)
    vertex = np.ascontiguousarray(u - u[0])
    assert not _certifies(vertex)
    assert _analyze_hull(vertex) == _lp_only(vertex) == (HullTag.BOUNDARY_ZERO, (0,))


def test_interior_classification_needs_no_lp(monkeypatch):
    """A cold interior classification and Psi solve succeed with the LP
    entry point raising."""

    def no_lp(*args, **kwargs):
        raise AssertionError("linprog called for an interior support")

    monkeypatch.setattr(expsum, "linprog", no_lp)
    monkeypatch.setattr(expsum, "_cached_hull", expsum._HullCache(maxsize=8))
    u = _hull_case("interior", 7)
    prob = ExpSumProblem(u, np.exp(np.random.default_rng(7).standard_normal(u.shape[0])))
    assert classify_hull(prob).tag is HullTag.INTERIOR_ZERO
    assert psi_minimize(prob).converged
    assert expsum._cached_hull.cache_info().misses == 1


def test_cached_boundary_entry_matches_cold_call():
    """A cache hit on a boundary geometry returns the face that a cold
    _analyze_hull finds, and cache_info() counts the miss and the hit."""
    u = 1.37 * _hull_case("boundary", 101)
    d = np.exp(np.random.default_rng(101).standard_normal(u.shape[0]))
    cold_tag, cold_face = _analyze_hull(np.ascontiguousarray(u))
    before = _cached_hull.cache_info()
    first = classify_hull(ExpSumProblem(u, d))
    after_miss = _cached_hull.cache_info()
    again = classify_hull(ExpSumProblem(u, 2.0 * d))
    after_hit = _cached_hull.cache_info()
    assert after_miss.misses == before.misses + 1
    assert after_hit.hits == after_miss.hits + 1 and after_hit.misses == after_miss.misses
    assert first.tag is again.tag is cold_tag is HullTag.BOUNDARY_ZERO
    assert first.active_face == again.active_face == cold_face  # all terms supported
    assert first == again and repr(first) == repr(again)


def _psi_by_svd(problem, tol=1e-10, max_iter=200):
    """Reference Psi solve: the active terms from a fresh support scan and
    the span basis from a fresh SVD, then the same damped Newton."""
    cls = classify_hull(problem)
    if cls.tag is HullTag.EXTERIOR_ZERO:
        return 0.0, None
    if cls.tag is HullTag.BOUNDARY_ZERO:
        active = np.array(cls.active_face)
    else:
        active = np.flatnonzero(problem.d > 1e-14 * problem.d.max())
    u_act = problem.u[active]
    _, svals, vt = np.linalg.svd(u_act, full_matrices=False)
    basis = vt[: int(np.sum(svals > 1e-12 * svals[0]))].T
    z, _, f, _, _, converged = expsum._newton_log_phi(
        u_act @ basis, np.log(problem.d[active]), tol, max_iter
    )
    assert converged
    return math.exp(f), basis @ z


@pytest.mark.parametrize("kind", ["interior", "boundary", "exterior"])
def test_psi_matches_fresh_svd_reference(kind):
    """psi_minimize, which takes the span basis from the hull cache, agrees
    with a solve that recomputes it, within 1e-13."""
    problems = {"interior": [TRACE], "boundary": [BOUNDARY], "exterior": []}[kind]
    for seed in range(8):
        u = _hull_case(kind, seed)
        d = np.exp(np.random.default_rng(seed).standard_normal(u.shape[0]))
        problems.append(ExpSumProblem(u, d))
    for prob in problems:
        res = psi_minimize(prob)
        assert res.classification.tag.value.lower().startswith(kind)
        value, y = _psi_by_svd(prob)
        assert abs(res.value - value) <= 1e-13 * max(value, 1e-300)
        if kind == "exterior":
            assert res.value == 0.0 and res.minimizer is None
            continue
        assert np.abs(res.minimizer - y).max() <= 1e-13 * max(1.0, np.abs(y).max())
        if kind == "boundary" and prob is not BOUNDARY:
            assert res.classification.active_face == tuple(range(prob.dim + 1))


def test_psi_stops_short_without_warning():
    """A solve cut off by max_iter says so through converged, not a warning."""
    u = _hull_case("interior", 4)
    prob = ExpSumProblem(u, np.exp(np.random.default_rng(4).standard_normal(u.shape[0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = psi_minimize(prob, max_iter=1)
    assert res.iterations == 1 and not res.converged
    assert res.grad_residual > 1e-10
    assert psi_result_to_dict(res)["converged"] is False
    assert psi_minimize(prob).value <= res.value


def test_empty_support_raises():
    prob = ExpSumProblem(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))
    with pytest.raises(EmptySupport):
        classify_hull(prob)


def test_psi_trace_channel():
    res = psi_minimize(TRACE)
    assert abs(res.value - 4.0) <= 1e-10
    assert res.converged
    # the minimizer is only defined up to the kernel; phi must equal psi there
    assert abs(phi_eval(TRACE, res.minimizer) - res.value) <= 1e-12 * res.value


def test_psi_am_gm_two_terms():
    """Two opposite exponents: inf is 2 sqrt(d1 d2) by AM-GM."""
    prob = ExpSumProblem(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([3.0, 12.0]))
    res = psi_minimize(prob)
    assert abs(res.value - 12.0) <= 1e-9 * 12.0


def test_psi_exterior_is_zero():
    prob = ExpSumProblem(np.array([[1.0, 0.5]]), np.array([3.0]))
    res = psi_minimize(prob)
    assert res.value == 0.0 and res.minimizer is None


def test_psi_boundary_equals_face_value():
    res = psi_minimize(BOUNDARY)
    expected = 2.0 * np.sqrt(2.0 * 3.0)
    assert abs(res.value - expected) <= 1e-9 * expected


def test_psi_positive_homogeneous_in_weights():
    for c in (0.25, 3.0, 64.0):
        scaled = psi_minimize(ExpSumProblem(TRACE.u, c * TRACE.d)).value
        assert abs(scaled - c * 4.0) <= 1e-10 * c * 4.0


def test_psi_monotone_in_weights(rng):
    u = rng.standard_normal((5, 2))
    u = np.vstack([u, -u.sum(axis=0, keepdims=True)])  # force 0 into the hull
    d = np.exp(rng.standard_normal(6))
    base = psi_minimize(ExpSumProblem(u, d)).value
    bigger = psi_minimize(ExpSumProblem(u, d + 0.5)).value
    assert bigger >= base - 1e-12


def test_phi_translation_product_identity(rng):
    """Shifting every exponent by v multiplies Phi by exp(<y, v>) pointwise."""
    v = rng.standard_normal(2)
    shifted = ExpSumProblem(TRACE.u + v[None, :], TRACE.d)
    for _ in range(5):
        y = rng.standard_normal(2)
        lhs = phi_eval(shifted, y)
        rhs = np.exp(y @ v) * phi_eval(TRACE, y)
        assert abs(lhs - rhs) <= 1e-10 * max(lhs, rhs)


def test_psi_upper_bound_under_weight_growth(rng):
    """Psi of a perturbed weight vector is at most Phi of the perturbation
    at the reference minimizer."""
    res = psi_minimize(TRACE)
    bump = np.abs(rng.standard_normal(3)) * 1e-3
    perturbed = ExpSumProblem(TRACE.u, TRACE.d + bump)
    upper = phi_eval(perturbed, res.minimizer)
    assert psi_minimize(perturbed).value <= upper + 1e-8


def test_near_minimizer_interior():
    for delta in (1e-2, 1e-8):
        y, norm = near_minimizer(TRACE, delta)
        assert phi_eval(TRACE, y) <= 4.0 + delta
        assert norm <= 1.0  # the interior minimizer itself, independent of delta


def test_near_minimizer_boundary_qualifies_and_grows():
    psi = psi_minimize(BOUNDARY).value
    norms = []
    deltas = 10.0 ** -np.arange(2, 9)
    for delta in deltas:
        y, norm = near_minimizer(BOUNDARY, delta)
        assert phi_eval(BOUNDARY, y) <= psi + delta * (1 + 1e-12)
        norms.append(norm)
    # sup norm grows affinely in log(1/delta)
    slope, _ = np.polyfit(np.log(1.0 / deltas), norms, 1)
    assert slope > 0.1
    corr = np.corrcoef(np.log(1.0 / deltas), norms)[0, 1]
    assert corr >= 0.999


def test_near_minimizer_rejects_exterior():
    prob = ExpSumProblem(np.array([[1.0, 0.5]]), np.array([3.0]))
    with pytest.raises(NotSupported):
        near_minimizer(prob, 1e-3)


def test_near_minimizer_rejects_bad_delta():
    with pytest.raises(DeltaTooLarge):
        near_minimizer(TRACE, 0.0)


def test_semicontinuity_trace_case():
    ok, slack = semicontinuity_bound(TRACE, np.array([0.95, 2.0, 1.0]), 0.06)
    assert ok and slack >= 0


def test_semicontinuity_random_perturbations():
    rng = np.random.default_rng(77)
    delta0 = TRACE.d[TRACE.d > 0].min()
    delta = 0.4 * delta0
    for _ in range(100):
        shift = rng.uniform(-1.0, 1.0, size=3) * (0.9 * delta)
        d_new = np.maximum(TRACE.d + shift, 0.0)
        ok, _ = semicontinuity_bound(TRACE, d_new, delta)
        assert ok


def test_semicontinuity_rejects_out_of_range():
    with pytest.raises(DeltaTooLarge):
        semicontinuity_bound(TRACE, TRACE.d + 0.5, 0.1)
    with pytest.raises(DeltaTooLarge):
        semicontinuity_bound(TRACE, TRACE.d, 2.0)


def test_entropy_dual_trace_channel():
    p, value = entropy_dual(TRACE, np.zeros(2))
    assert_allclose(p, [0.25, 0.5, 0.25], atol=1e-9)
    assert abs(value - np.log(4.0)) <= 1e-10


def test_entropy_dual_vertex_target():
    """A vertex moment forces all mass onto that single term."""
    p, value = entropy_dual(TRACE, np.array([-1.0, 1.0]))
    assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-9)
    assert abs(value - np.log(TRACE.d[0])) <= 1e-9


def test_entropy_dual_infeasible_target():
    with pytest.raises(InfeasibleMoment):
        entropy_dual(TRACE, np.array([5.0, -5.0]))


def test_entropy_dual_closes_duality_gap(rng):
    """The entropy value equals log Psi of the shifted problem."""
    for seed in range(5):
        local = np.random.default_rng(seed)
        u = local.standard_normal((7, 2))
        u = np.vstack([u, -u.mean(axis=0, keepdims=True) * 7])
        d = np.exp(local.standard_normal(8))
        prob = ExpSumProblem(u, d)
        theta = 0.05 * local.standard_normal(2)
        try:
            p, value = entropy_dual(prob, theta)
        except InfeasibleMoment:
            continue
        shifted = ExpSumProblem(prob.u - theta[None, :], d)
        dual = np.log(psi_minimize(shifted, tol=1e-11).value)
        assert abs(value - dual) <= 1e-6
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.abs(p @ prob.u - theta).max() <= 1e-6


def test_entropy_optimality_among_feasible(rng):
    """Any feasible p scores at most the returned entropy value."""
    y = np.array([0.3, -0.1])
    weights = TRACE.d * np.exp(TRACE.u @ y)
    p_ref = weights / weights.sum()
    theta = p_ref @ TRACE.u
    p_opt, value = entropy_dual(TRACE, theta)
    assert -kl_divergence(p_ref, TRACE.d) <= value + 1e-8
    assert abs(-kl_divergence(p_opt, TRACE.d) - value) <= 1e-8


def test_kl_divergence_closed_forms():
    k = 5
    p = np.full(k, 1.0 / k)
    assert abs(kl_divergence(p, np.ones(k)) - (-np.log(k))) <= 1e-12
    d = np.array([0.2, 0.5, 0.3])
    assert kl_divergence(d, d) == 0.0


def test_kl_divergence_support_violation():
    with pytest.raises(SupportViolation):
        kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    with pytest.raises(SupportViolation):
        kl_divergence(np.array([0.7, 0.7]), np.array([1.0, 1.0]))


def test_problem_validation():
    with pytest.raises(DimensionMismatch):
        ExpSumProblem(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DimensionMismatch):
        ExpSumProblem(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(CapaxError):
        ExpSumProblem(np.zeros((2, 2)), np.array([1.0, -0.5]))


def test_problem_json_round_trip():
    text = problem_to_json(BOUNDARY)
    again = problem_from_json(text)
    assert np.array_equal(again.u, BOUNDARY.u)
    assert np.array_equal(again.d, BOUNDARY.d)
    for bad in ('{"u": [[1]]}', '{"u": [[1], [1, 2]], "d": [1, 1]}', "[]", "nope"):
        with pytest.raises(ParseError):
            problem_from_json(bad)
