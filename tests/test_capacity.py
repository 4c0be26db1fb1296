import json
import math
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from capax import (
    CapacityConfig,
    CPOperator,
    Method,
    NotSupported,
    SingularEvaluation,
    SingularMarginal,
    SingularMatrix,
    cap,
    cap0,
    cap_direct_pd,
    cap_unitary_search,
    cap_via_scaling,
    capacity_ratio,
    diag_problem,
    eigh,
    enumerate_multiindices,
    expm_hermitian,
    haar_unitary,
    hermitian_part,
    identity_channel,
    random_cp,
    report_to_dict,
    report_to_json,
    scaling_step,
    trace_channel,
)
import capax.capacity
from capax.capacity import (
    ScalingState,
    _diag_exponents,
    _herm_basis,
    _logdet_kernel,
    _logdet_oracle,
    _marginals,
    _unitary_oracle,
)
from capax.cpop import apply, conjugate_unitary, dual_apply
from conftest import make_op


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (4, 3)])
def test_diag_problem_exponents_are_read_only(n, m):
    prob = diag_problem(make_op(n, m, 2, seed=31))
    expected = np.array(enumerate_multiindices(n, m), dtype=float) - m / n
    assert np.array_equal(prob.u, expected)
    assert not prob.u.flags.writeable
    assert _diag_exponents(n, m) is _diag_exponents(n, m)  # one table per (n, m)
    assert not _diag_exponents(n, m).flags.writeable
    with pytest.raises(ValueError):
        _diag_exponents(n, m)[0, 0] = 1.0


def test_cap0_identity_is_one():
    report = cap0(identity_channel(3))
    assert abs(report.value - 1.0) <= 1e-10
    assert report.witness is not None
    assert_allclose(report.witness["x"], np.eye(3), atol=1e-9)


def test_cap0_trace_channel():
    report = cap0(trace_channel(2, 2))
    assert abs(report.value - 2.0) <= 1e-10
    assert report.method is Method.PSI_UNITARY


def test_cap0_single_kraus_diagonal():
    t = CPOperator((np.diag([1.0, 2.0]).astype(complex),))
    assert abs(cap0(t).value - 2.0) <= 1e-10


def test_cap0_witness_reproduces_value():
    report = cap0(trace_channel(2, 2))
    ratio = capacity_ratio(trace_channel(2, 2), report.witness["x"])
    assert abs(ratio - report.value) <= 1e-9


def test_direct_identity_and_diagonal():
    assert abs(cap_direct_pd(identity_channel(2)).value - 1.0) <= 1e-8
    t = CPOperator((np.diag([1.0, 2.0]).astype(complex),))
    assert abs(cap_direct_pd(t).value - 2.0) <= 1e-6


def test_direct_degenerate_rank_one():
    """A Kraus map whose image is rank deficient has capacity zero."""
    t = CPOperator((np.diag([1.0, 0.0]).astype(complex),))
    report = cap_direct_pd(t)
    assert report.value == 0.0
    assert "Degenerate" in report.flags


def test_direct_witness_reproduces_value():
    t = make_op(3, 3, 2, seed=7)
    report = cap_direct_pd(t)
    ratio = capacity_ratio(t, report.witness["x"])
    assert abs(ratio - report.value) <= 1e-8 * max(report.value, 1.0)


@pytest.mark.parametrize("n,m,k", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 3, 3), (3, 4, 2), (4, 3, 3)])
def test_logdet_oracle_gradient_matches_central_differences(n, m, k):
    t = make_op(n, m, k, seed=100 * n + 10 * m + k)
    a = t._kraus_stack
    basis = _herm_basis(n)
    rng = np.random.default_rng(n * m * k)
    step = 1e-6
    # H = 0 repeats every eigenvalue, so the Taylor branch of the divided
    # differences carries the whole gradient there.
    points = [np.zeros(n * n - 1)] + [0.5 * rng.standard_normal(n * n - 1) for _ in range(4)]
    for v in points:
        h = np.tensordot(v, basis, axes=1)
        value, grad = _logdet_oracle(a, h)
        assert_allclose(grad, grad.conj().T, atol=1e-14)
        exact = np.array([np.vdot(b, grad).real for b in basis])
        central = np.array(
            [
                (_logdet_oracle(a, h + step * b)[0] - _logdet_oracle(a, h - step * b)[0])
                / (2 * step)
                for b in basis
            ]
        )
        assert np.linalg.norm(exact - central) <= 1e-6 * np.linalg.norm(exact)
        # det exp(H) = 1 for traceless H, so the value is the log capacity ratio
        ratio = capacity_ratio(t, expm_hermitian(h))
        assert abs(value - np.log(ratio)) <= 1e-12 * max(abs(value), 1.0)


@pytest.mark.parametrize("n,m,k", [(2, 2, 2), (2, 3, 2), (3, 2, 3)])
def test_logdet_kernel_matches_apply_and_dual_apply(n, m, k):
    t = make_op(n, m, k, seed=300 * n + 10 * m + k)
    x = expm_hermitian(np.tensordot(np.linspace(-0.6, 0.7, n * n - 1), _herm_basis(n), axes=1))
    logdet, g = _logdet_kernel(t._kraus_stack, x)
    y = apply(t, x)
    assert abs(logdet - np.log(np.linalg.det(y).real)) <= 1e-12 * max(abs(logdet), 1.0)
    assert_allclose(g, dual_apply(t, np.linalg.inv(y)), rtol=0, atol=1e-12 * np.abs(g).max())
    assert_allclose(g, g.conj().T, atol=0)


def test_herm_basis_is_orthonormal_and_traceless():
    for n in (1, 2, 3, 4):
        basis = _herm_basis(n)
        flat = basis.reshape(n * n - 1, n * n)
        assert_allclose(flat.conj() @ flat.T, np.eye(n * n - 1), atol=1e-14)
        assert_allclose(basis, basis.conj().transpose(0, 2, 1), atol=0)
        assert_allclose(np.trace(basis, axis1=1, axis2=2), 0.0, atol=1e-15)


def test_direct_flags_no_convergence(monkeypatch):
    """NoConvergence comes from the final gradient test: stalled here by a
    Newton oracle whose gradient norm cannot fall below 1e-6."""
    for t in (make_op(2, 2, 2, seed=1), make_op(2, 3, 2, seed=2), make_op(3, 3, 2, seed=7)):
        assert cap_direct_pd(t).flags == ()
    real_terms = capax.capacity._geodesic_terms

    def stalled(*args):
        value, err, grad, hess = real_terms(*args)
        return value, err, grad * max(1.0, 1e-6 / max(np.linalg.norm(grad), 1e-300)), hess

    monkeypatch.setattr(capax.capacity, "_geodesic_terms", stalled)
    report = cap_direct_pd(make_op(2, 2, 2, seed=1))
    assert report.flags == ("NoConvergence",)
    assert report.value > 0.0


def _boundary_kraus(eps: float = 0.0) -> CPOperator:
    """E_ij over the support of [[1, 1], [0, 1]], plus sqrt(eps) E_21 when
    eps > 0. T(X) = diag(x_00 + x_11, x_11 + eps x_00), so on det X = 1 the
    capacity is 1 + sqrt(eps), attained only when eps > 0."""
    units = []
    for i, j, weight in ((0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (1, 0, math.sqrt(eps))):
        if weight > 0:
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = weight
            units.append(e)
    return CPOperator(tuple(units))


def test_direct_newton_refuses_a_rising_value(monkeypatch):
    """A Newton step that lowers the gradient but raises the value by more
    than rounding is refused: here every evaluation reads 1e-9 higher than
    the one before, so the first step is refused and the value is the one
    at BFGS's stopping point."""
    real_terms = capax.capacity._geodesic_terms
    values = []

    def rising(*args):
        value, err, grad, hess = real_terms(*args)
        values.append(value)
        return value + 1e-9 * len(values), err, grad, hess

    monkeypatch.setattr(capax.capacity, "_geodesic_terms", rising)
    report = cap_direct_pd(make_op(2, 2, 2, seed=1))
    assert len(values) == 2
    assert report.value == math.exp(values[0] + 1e-9)


def test_direct_boundary_base_keeps_value_and_flag():
    """cap = 1 is approached as X runs off to infinity: the Newton steps
    keep their length to the end, so the report is flagged, and the value
    stays as accurate as the descent can make it."""
    report = cap_direct_pd(_boundary_kraus())
    assert abs(report.value - 1.0) <= 1e-10
    assert report.flags == ("InfimumNotAttained",)
    assert abs(capacity_ratio(_boundary_kraus(), report.witness["x"]) - report.value) <= 1e-12


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
def test_direct_sqrt_eps_family(eps):
    """Near the boundary base the minimizer is attained but far out; cap - 1
    is sqrt(eps) exactly."""
    report = cap_direct_pd(_boundary_kraus(eps))
    assert abs((report.value - 1.0) / math.sqrt(eps) - 1.0) <= 1e-9
    assert report.flags == ()


def test_direct_single_kraus_closed_form():
    """K = 1 and n = m: det T(X) = |det A|^2 det X, so every X is a minimizer
    and the objective is flat; cap = |det A|^(2/n)."""
    t = make_op(3, 3, 1, seed=41)
    report = cap_direct_pd(t)
    exact = abs(np.linalg.det(t.kraus[0])) ** (2.0 / 3.0)
    assert abs(report.value - exact) <= 1e-13 * exact
    assert report.flags == ()


# Values of the earlier four-restart BFGS route (gradient test 1e-8, no
# Newton steps) on the same operators.
@pytest.mark.parametrize(
    "n,m,k,seed,scale,expected",
    [
        (2, 3, 2, 42, 1.0, 0.4300331799551057),
        (3, 2, 2, 43, 1.0, 0.26446980459590597),
        (3, 4, 3, 44, 1.0, 0.6557307355068446),
        (2, 2, 2, 45, 1e8, 3407376878724906.5),
        (2, 3, 2, 42, 1e8, 4300331799551062.0),
        (2, 2, 2, 45, 1e-8, 3.407376878724907e-17),
        (2, 3, 2, 42, 1e-8, 4.300331799551032e-17),
    ],
)
def test_direct_edge_inputs_match_reference(n, m, k, seed, scale, expected):
    t = CPOperator(tuple(scale * a for a in make_op(n, m, k, seed=seed).kraus))
    report = cap_direct_pd(t)
    assert abs(report.value - expected) <= 1e-13 * expected
    assert report.flags == ()
    assert report.residual <= 1e-8


def _criterion_06_corpus():
    for i in range(30):
        rng = np.random.default_rng(7000 + i)
        n = 2 if i % 2 == 0 else 3
        k = int(rng.integers(2, 4))
        yield random_cp(n, n, k, scale=1.0 / np.sqrt(n * k), rng=rng)


def test_direct_criterion_06_corpus_converges_in_few_evaluations(monkeypatch):
    """Every report meets the gradient test unflagged, and the mean number of
    evaluations per solve (BFGS oracle calls plus Newton-chart evaluations)
    stays under half of the 78.5 oracle calls that four BFGS restarts at
    gradient test 1e-8 took on this corpus."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("_logdet_oracle", "_geodesic_terms"):
        monkeypatch.setattr(capax.capacity, name, counting(name, getattr(capax.capacity, name)))
    for t in _criterion_06_corpus():
        report = cap_direct_pd(t)
        assert report.flags == ()
        assert report.residual <= 1e-8
    assert calls["_geodesic_terms"] >= 30
    assert sum(calls.values()) / 30 < 78.5 / 2


def test_scaling_identity_converges_immediately():
    report = cap_via_scaling(identity_channel(3))
    assert report.iterations == 0
    assert abs(report.value - 1.0) <= 1e-12


def test_scaling_single_unitary_kraus(rng):
    u = haar_unitary(3, rng)
    report = cap_via_scaling(CPOperator((u,)))
    assert abs(report.value - 1.0) <= 1e-10


def test_scaling_agrees_with_direct():
    for seed in (1, 2, 3):
        t = make_op(3, 3, 2, seed=seed)
        direct = cap_direct_pd(t).value
        scaled = cap_via_scaling(t)
        assert "NoConvergence" not in scaled.flags
        assert abs(scaled.value - direct) <= 1e-6 * max(direct, 1.0)


def test_scaling_witness_is_exact():
    """value equals the capacity ratio at the scaling witness by construction."""
    t = make_op(2, 2, 3, seed=4)
    report = cap_via_scaling(t)
    ratio = capacity_ratio(t, report.witness["x"])
    assert abs(ratio - report.value) <= 1e-10 * max(report.value, 1.0)


def test_scaling_requires_square():
    with pytest.raises(NotSupported):
        cap_via_scaling(make_op(2, 3, 2, seed=5))


def test_scaling_step_reduces_residual():
    t = make_op(2, 2, 2, seed=6)
    _, _, (r_row, r_col) = _marginals(t._kraus_stack)
    state = ScalingState(t, 0.0, 0, r_row, r_col, np.eye(2, dtype=complex))
    stepped = scaling_step(state, "row")
    assert stepped.row_residual <= 1e-10  # the row marginal is now exactly balanced
    assert stepped.step == 1


def test_scaling_steps_reproduce_the_loop():
    """Public scaling_step calls from t retrace cap_via_scaling exactly."""
    t = make_op(3, 3, 2, seed=19)
    report = cap_via_scaling(t)
    _, _, (r_row, r_col) = _marginals(t._kraus_stack)
    state = ScalingState(t, 0.0, 0, r_row, r_col, np.eye(3, dtype=complex))
    while max(state.row_residual, state.col_residual) > 1e-8 and state.step < 2000:
        state = scaling_step(state, ("row", "col")[state.step % 2])
    assert state.step == report.iterations > 0
    assert max(state.row_residual, state.col_residual) == report.residual
    w, _ = eigh(apply(state.op, np.eye(3)))
    assert float(np.exp(state.log_correction + np.sum(np.log(w)) / 3)) == report.value
    r = state.col_transform
    assert np.array_equal(hermitian_part(r @ r.conj().T), report.witness["x"])


@pytest.mark.parametrize("scale", [1e-8, 1e8])
@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 2)])
def test_scaling_agrees_with_direct_at_extreme_scales(n, k, scale):
    """The singular-marginal gate is relative, so Kraus entries of order
    1e-8 (marginals of order 1e-16) or 1e8 scale like any others."""
    base = make_op(n, n, k, seed=40 + 10 * n + k)
    t = CPOperator(tuple(scale * a for a in base.kraus))
    direct = cap_direct_pd(t)
    scaled = cap_via_scaling(t)
    assert direct.flags == () and scaled.flags == ()
    assert abs(scaled.value - direct.value) <= 1e-3 * direct.value
    report = cap(t, CapacityConfig(check_scaling=True))
    assert report.cross_checks["scaling_delta"] <= 1e-3 * report.value


def test_scaling_singular_marginal_raises():
    with pytest.raises(SingularMarginal):
        cap_via_scaling(CPOperator((np.diag([1.0, 0.0]).astype(complex),)))


def test_unitary_search_matches_direct():
    t = make_op(2, 2, 2, seed=8)
    direct = cap_direct_pd(t).value
    searched = cap_unitary_search(t, restarts=4, seed=0)
    assert abs(searched.value - direct) <= 1e-5 * max(direct, 1.0)


def test_unitary_search_bounded_by_cap0():
    """The unitary search starts at the identity, so it never exceeds cap0."""
    for seed in (10, 11):
        t = make_op(2, 2, 2, seed=seed)
        assert cap_unitary_search(t, restarts=2).value <= cap0(t).value + 1e-8


@pytest.mark.parametrize("n,m,k", [(2, 2, 2), (2, 2, 3), (3, 3, 2), (3, 3, 3), (2, 3, 2)])
def test_unitary_oracle_gradient_matches_central_differences(n, m, k):
    t = make_op(n, m, k, seed=200 * n + 10 * m + k)
    basis = _herm_basis(n)
    rng = np.random.default_rng(n * m * k + 1)
    step = 1e-5
    a = t._kraus_stack
    # a tight inner solve, so the differences resolve the envelope gradient
    oracle = lambda h: _unitary_oracle(a, h, 1e-13)  # noqa: E731
    points = [np.zeros(n * n - 1)] + [0.8 * rng.standard_normal(n * n - 1) for _ in range(3)]
    for v in points:
        h = np.tensordot(v, basis, axes=1)
        value, grad = oracle(h)
        exact = np.array([np.vdot(b, grad).real for b in basis])
        central = np.array(
            [(oracle(h + step * b)[0] - oracle(h - step * b)[0]) / (2 * step) for b in basis]
        )
        assert np.linalg.norm(exact - central) <= 1e-6 * np.linalg.norm(exact)
        w, vec = np.linalg.eigh(h)
        u = (vec * np.exp(1j * w)) @ vec.conj().T
        assert abs(value - np.log(cap0(conjugate_unitary(t, u)).value)) <= 1e-9


def test_unitary_search_matches_direct_non_square():
    t = make_op(2, 3, 2, seed=9)
    direct = cap_direct_pd(t).value
    searched = cap_unitary_search(t, restarts=4, seed=0)
    assert abs(searched.value - direct) <= 1e-6 * direct
    assert searched.flags == ()
    assert abs(capacity_ratio(t, searched.witness["x"]) - searched.value) <= 1e-8 * direct


def test_unitary_search_boundary_base():
    """T(X) = sum E_ij X E_ji over the support of [[1, 1], [0, 1]]: cap = 1,
    approached but not attained. The identity start is a point where the
    diagonal infimum is not attained, so g has no gradient there."""
    units = []
    for i, j in ((0, 0), (0, 1), (1, 1)):
        e = np.zeros((2, 2), dtype=complex)
        e[i, j] = 1.0
        units.append(e)
    report = cap_unitary_search(CPOperator(tuple(units)))
    assert abs(report.value - 1.0) <= 1e-9
    assert "InfimumNotAttained" in report.flags
    assert report.witness is None


def test_unitary_search_rank_deficient_is_degenerate():
    report = cap_unitary_search(CPOperator((np.diag([1.0, 0.0]).astype(complex),)))
    assert report.value == 0.0
    assert report.flags == ("Degenerate",)


def test_unitary_search_tol_sets_the_gradient_test():
    t = make_op(3, 3, 2, seed=15)
    loose = cap_unitary_search(t, tol=1e-4, restarts=1)
    tight = cap_unitary_search(t, tol=1e-14, restarts=1)
    assert loose.iterations < tight.iterations
    assert abs(loose.value - tight.value) <= 1e-3 * tight.value


def test_unitary_search_flags_no_convergence(monkeypatch):
    t = make_op(2, 2, 2, seed=1)
    assert cap_unitary_search(t, restarts=2).flags == ()
    real_minimize = capax.capacity.minimize

    def stalled(*args, **kwargs):
        res = real_minimize(*args, **kwargs)
        res.success = False
        return res

    monkeypatch.setattr(capax.capacity, "minimize", stalled)
    report = cap_unitary_search(t, restarts=2)
    assert report.flags == ("NoConvergence",)
    assert report.value > 0.0


def test_cap_facade_homogeneity():
    t = make_op(2, 2, 2, seed=12)
    base = cap(t).value
    for c in (0.5, 2.0, 10.0):
        scaled = cap(CPOperator(tuple(np.sqrt(c) * a for a in t.kraus))).value
        assert abs(scaled - c * base) <= 1e-8 * max(c * base, 1.0)


def test_cap_facade_cross_checks():
    t = make_op(2, 2, 2, seed=13)
    cfg = CapacityConfig(check_psi=True, check_scaling=True, restarts_unitary=3)
    report = cap(t, cfg)
    assert set(report.cross_checks) == {
        "psi_unitary",
        "psi_unitary_delta",
        "scaling",
        "scaling_delta",
    }
    assert report.cross_checks["psi_unitary_delta"] <= 1e-4 * max(report.value, 1.0)
    assert report.cross_checks["scaling_delta"] <= 1e-4 * max(report.value, 1.0)


def test_cap_invariant_under_conjugation(rng):
    t = make_op(2, 2, 2, seed=14)
    base = cap_direct_pd(t).value
    for _ in range(3):
        u = haar_unitary(2, rng)
        from capax import conjugate_unitary

        conj = cap_direct_pd(conjugate_unitary(t, u)).value
        assert abs(conj - base) <= 1e-6 * max(base, 1.0)


def test_diagonal_restriction_upper_bounds_cap():
    for seed in (15, 16, 17):
        t = make_op(2, 2, 2, seed=seed)
        assert cap_direct_pd(t).value <= cap0(t).value + 1e-8


def test_capacity_ratio_rejects_bad_input():
    t = trace_channel(2, 2)
    with pytest.raises(SingularMatrix):
        capacity_ratio(t, np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(SingularMatrix):
        capacity_ratio(t, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    rank_one = CPOperator((np.diag([1.0, 0.0]).astype(complex),))
    with pytest.raises(SingularEvaluation):
        capacity_ratio(rank_one, np.eye(2, dtype=complex))


def test_capacity_ratio_closed_form():
    t = identity_channel(2)
    x = np.diag([2.0, 8.0]).astype(complex)
    assert abs(capacity_ratio(t, x) - 1.0) <= 1e-12


def test_report_serialization():
    report = cap_direct_pd(make_op(2, 2, 2, seed=18))
    payload = report_to_dict(report)
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text)["method"] == "direct_pd"
    assert report_to_json(report) == text


def test_single_kraus_general_closed_form(rng):
    """One Kraus matrix A gives capacity |det A|^(2/n)."""
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a /= np.linalg.norm(a, 2)
    t = CPOperator((a,))
    expected = abs(np.linalg.det(a)) ** (2.0 / 3.0)
    assert abs(cap_direct_pd(t).value - expected) <= 1e-6 * expected
    assert abs(cap_via_scaling(t).value - expected) <= 1e-8 * expected
