import dataclasses
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from capax import (
    CapacityConfig,
    CompactFamily,
    ConfigError,
    CPOperator,
    ExpSumProblem,
    HullTag,
    Method,
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
    enumerate_multiindices,
    expm_hermitian,
    haar_unitary,
    hermitian_part,
    identity_channel,
    perturb,
    phi_eval,
    psi_minimize,
    random_cp,
    random_direction,
    random_hermitian,
    report_to_dict,
    report_to_json,
    trace_channel,
)
import capax.capacity
from capax.capacity import (
    CapacityReport,
    _CURVATURE_FLOOR,
    _MARGINS,
    _certified_lower,
    _diag_exponents,
    _distance_from_scalar,
    _MAX_BACKTRACKS,
    _STALL_GRAD,
    _geodesic_terms,
    _gram,
    _herm_basis,
    _shrunk_subspace,
    _unitary_oracle,
    _whiten,
    _whitened,
    _whiten_marginal,
    _zero_capacity,
)
from capax.cpop import apply, conjugate_unitary, dual_apply
from capax.linalg import eigh
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
    """The direct route's log-det oracle, _geodesic_terms: its gradient and
    Hessian at E = 0 match central differences of f(E) = (1/m) log det
    T_b(exp E) and of its gradient, at X = I and at four points X = R R*."""
    t = make_op(n, m, k, seed=100 * n + 10 * m + k)
    a = t._kraus_stack
    basis = _herm_basis(n)
    rng = np.random.default_rng(n * m * k)
    step = 1e-6

    def terms(b, e):  # the chart at b, moved to exp(e): T_b(exp e) = T_b'(I)
        return _geodesic_terms(b @ expm_hermitian(0.5 * e), basis)

    points = [np.zeros(n * n - 1)] + [0.5 * rng.standard_normal(n * n - 1) for _ in range(4)]
    for v in points:
        r = expm_hermitian(0.5 * np.tensordot(v, basis, axes=1))
        b = a @ r
        value, err, grad, hess = _geodesic_terms(b, basis)
        assert 0.0 < err <= 1e-13 * max(abs(value), 1.0)
        assert_allclose(hess, hess.T, atol=1e-14)
        central = np.array(
            [(terms(b, step * e)[0] - terms(b, -step * e)[0]) / (2 * step) for e in basis]
        )
        assert np.linalg.norm(grad - central) <= 1e-6 * np.linalg.norm(grad)
        # The geodesic chart and exp(E) agree to second order along a line.
        central = np.array(
            [(terms(b, step * e)[2] - terms(b, -step * e)[2]) / (2 * step) for e in basis]
        )
        assert np.linalg.norm(hess - central) <= 1e-6 * np.linalg.norm(hess)
        # det R R* = 1 for traceless H, so the value is the log capacity ratio
        ratio = capacity_ratio(t, r @ r.conj().T)
        assert abs(value - np.log(ratio)) <= 1e-12 * max(abs(value), 1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 1e200])
def test_geodesic_terms_reads_a_non_finite_stack_as_degenerate(bad):
    """The kernel refuses a non-finite marginal before its eigh, and the
    direct route's terms, which whiten through it, read it as Degenerate."""
    b = make_op(2, 2, 2, seed=3)._kraus_stack.copy()
    b[0, 0, 0] = bad
    with np.errstate(all="ignore"):
        gram = _gram(b)
        assert not np.isfinite(gram).all()
        with pytest.raises(capax.capacity._Degenerate):
            _whiten(gram)
        with pytest.raises(capax.capacity._Degenerate):
            _geodesic_terms(b, _herm_basis(2))


@pytest.mark.parametrize("n,m,k", [(2, 2, 2), (2, 3, 2), (3, 2, 3)])
def test_logdet_kernel_matches_apply_and_dual_apply(n, m, k):
    """The one log-det kernel, _whiten, at the stack b = A X^(1/2), whose
    marginal is T(X): sum(log w) = log det T(X), F* T(X) F = I, and
    T*(F F*) = T*(T(X)^-1), the gradient G of log det T(X)."""
    t = make_op(n, m, k, seed=300 * n + 10 * m + k)
    h = np.tensordot(np.linspace(-0.6, 0.7, n * n - 1), _herm_basis(n), axes=1)
    y = apply(t, expm_hermitian(h))
    w, f = _whiten(_gram(t._kraus_stack @ expm_hermitian(0.5 * h)))
    logdet = float(np.sum(np.log(w)))
    assert abs(logdet - np.log(np.linalg.det(y).real)) <= 1e-12 * max(abs(logdet), 1.0)
    assert_allclose(f.conj().T @ y @ f, np.eye(m), rtol=0, atol=1e-12)
    g = dual_apply(t, np.linalg.inv(y))
    assert_allclose(dual_apply(t, f @ f.conj().T), g, rtol=0, atol=1e-12 * np.abs(g).max())


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
    real_terms = capax.capacity._chart_terms

    def stalled(*args):
        value, err, grad, hess, c = real_terms(*args)
        return value, err, grad * max(1.0, 1e-6 / max(np.linalg.norm(grad), 1e-300)), hess, c

    monkeypatch.setattr(capax.capacity, "_chart_terms", stalled)
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


def _recording_steps(monkeypatch) -> list:
    """Record the chart step of every trial of the direct descent, as the
    argument S/2 of its expm_hermitian."""
    steps, real_expm = [], capax.capacity.expm_hermitian

    def recording(h):
        steps.append(h)
        return real_expm(h)

    monkeypatch.setattr(capax.capacity, "expm_hermitian", recording)
    return steps


def _start_value(t: CPOperator) -> float:
    """(1/m) log det T(I) from the whitening of the start at X = I; the
    descent's first evaluation, on the whitened stack, reads the rest."""
    return float(np.sum(np.log(_whitened(t._kraus_stack)[0]))) / t.m


def _value_at(t: CPOperator, values: list, steps: list, j: int) -> float:
    """The descent's value at evaluation j, which it kept: the start's value
    plus, in order, the change of every kept trial up to j (values[i] of a
    trial is its change from the point it stepped from). Trial i, whose step
    is steps[i - 1], is refused when trial i + 1 halves that step."""
    halved = {i for i in range(1, len(steps)) if np.array_equal(steps[i], 0.5 * steps[i - 1])}
    f = values[0] + _start_value(t)
    for i in range(1, j + 1):
        f = f if i in halved else f + values[i]
    return f


def test_direct_newton_refuses_a_rising_value(monkeypatch):
    """The line search refuses a trial point whose value rises by more than
    rounding: here evaluation j reads j higher than it is, so every trial
    reads at least 1 above the start, more than the descent can gain, and
    every halving of the first step is refused until the line search gives
    out; the value is the one at X = I."""
    real_terms = capax.capacity._chart_terms
    values = []

    def rising(*args):
        value, err, grad, hess, c = real_terms(*args)
        values.append(value)
        # a trial reads its change from the start, which reads values[0] + 1
        return value + len(values) - (len(values) > 1), err, grad, hess, c

    monkeypatch.setattr(capax.capacity, "_chart_terms", rising)
    t = make_op(2, 2, 2, seed=1)
    report = cap_direct_pd(t)
    assert len(values) == 1 + _MAX_BACKTRACKS
    assert report.value == math.exp((values[0] + 1) + _start_value(t))
    assert report.iterations == 0
    # the trial points close in on X = I as the step halves
    assert abs(values[-1]) <= 1e-6 * abs(values[1])


def test_direct_line_search_refuses_a_rise_of_1e_9(monkeypatch):
    """Once the gradient norm is under _STALL_GRAD a step gains far less than
    1e-9, so a rise of 1e-9 per evaluation from there on is more than
    rounding: every halving of the next step is refused, and the value and
    residual are the ones at the first point under _STALL_GRAD."""
    real_terms = capax.capacity._chart_terms
    values, norms = [], []
    steps = _recording_steps(monkeypatch)

    def rising(*args):
        value, err, grad, hess, c = real_terms(*args)
        values.append(value)
        norms.append(float(np.linalg.norm(grad)))
        below = [i for i, norm in enumerate(norms) if norm <= _STALL_GRAD]
        rise = 1e-9 * (len(values) - 1 - below[0]) if below else 0.0
        return value + rise, err, grad, hess, c

    monkeypatch.setattr(capax.capacity, "_chart_terms", rising)
    t = make_op(2, 2, 2, seed=1)
    report = cap_direct_pd(t)
    first = next(i for i, norm in enumerate(norms) if norm <= _STALL_GRAD)
    assert first >= 1
    assert len(values) == first + 1 + _MAX_BACKTRACKS
    assert report.value == math.exp(_value_at(t, values, steps, first))
    assert report.residual == norms[first]


def test_direct_line_search_refuses_a_nan_value(monkeypatch):
    """A trial value that is NaN counts as refused, never as accepted."""
    real_terms = capax.capacity._chart_terms
    values = []

    def nan_after_first(*args):
        value, err, grad, hess, c = real_terms(*args)
        values.append(value)
        return (value if len(values) == 1 else math.nan), err, grad, hess, c

    monkeypatch.setattr(capax.capacity, "_chart_terms", nan_after_first)
    t = make_op(2, 2, 2, seed=1)
    with np.errstate(all="raise"):
        report = cap_direct_pd(t)
    assert len(values) == 1 + _MAX_BACKTRACKS
    assert report.value == math.exp(values[0] + _start_value(t))
    assert report.flags == ("NoConvergence",)


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


def _ladder(n: int) -> CPOperator:
    """Rank-one E_ij over the support of triu(J_n), the n x n upper
    triangle; _boundary_kraus() is n = 2. The support has a perfect matching
    but not total support, so cap = 1 is approached only as X runs off to
    infinity."""
    units = []
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    return CPOperator(tuple(units))


@pytest.mark.filterwarnings("ignore:CP operator with n=")
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_direct_ladder_bases_are_flagged_unattained(n):
    """The descent stops on its Newton decrement while the steps along the
    unattained direction are still long, so every ladder base is flagged,
    n = 3 and 4 included, and the value stays within 1e-10 of 1."""
    report = cap_direct_pd(_ladder(n))
    assert abs(report.value - 1.0) <= 1e-10
    assert report.flags == ("InfimumNotAttained",)


def _ill_conditioned_single_kraus(n: int, c: float, seed: int) -> np.ndarray:
    """A = U diag(c, sqrt(c), 1, ...) V with Haar U and V: a flat objective
    whose T(I) has condition 1/c^2."""
    rng = np.random.default_rng(seed)
    u, v = haar_unitary(n, rng), haar_unitary(n, rng)
    d = np.ones(n)
    d[:2] = c, math.sqrt(c)
    return u @ np.diag(d) @ v


def test_direct_single_kraus_ill_conditioned_corpus():
    """On the whitened stack the first gradient of a flat objective is
    rounding of order eps, not eps cond(A A*): no run steps along it into a
    false InfimumNotAttained, and each value is |det A|^(2/n) to 1e-12. On
    the unwhitened stack 32 of these 120 runs were flagged."""
    for n, c, seed in itertools.product((3, 4), (1e-2, 1e-3, 1e-4), range(20)):
        a = _ill_conditioned_single_kraus(n, c, seed)
        report = cap_direct_pd(CPOperator((a,)))
        exact = abs(np.linalg.det(a)) ** (2.0 / n)
        assert report.flags == ()
        assert abs(report.value - exact) <= 1e-12 * exact


def test_direct_start_that_breaks_down_is_never_degenerate():
    """Past the rank gate a T(I) that reads singular is a breakdown, not
    cap = 0: K = 1, n = 2 with T(I) of condition up to 1e16 reads |det A|
    (the whitening of the start loses digits as the condition grows), and at
    1e20 it reads |det A| or raises SingularEvaluation, never 0.0."""
    for c, seed in itertools.product((1e-6, 1e-7, 1e-8, 1e-10), range(5)):
        rng = np.random.default_rng(seed)
        a = haar_unitary(2, rng) @ np.diag([1.0, c]) @ haar_unitary(2, rng)
        try:
            report = cap_direct_pd(CPOperator((a,)))
        except SingularEvaluation:
            assert c == 1e-10
            continue
        assert report.flags == ()
        assert abs(report.value / abs(np.linalg.det(a)) - 1.0) <= (1e-8 if c >= 1e-8 else 1e-6)


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


@pytest.mark.parametrize("m,k", [(1, 1), (1, 3), (2, 3), (3, 4)])
def test_direct_one_dimensional_input(m, k):
    """n = 1: every X is a scalar x > 0 and det T(x)^(1/m) / x = det T(1)^(1/m),
    so the chart has no directions and the value is the one at X = I. The
    unitary route, whose U is then a phase, evaluates that one point and
    runs no BFGS, and its certified lower bound is that value."""
    t = make_op(1, m, k, seed=10 * m + k)
    report = cap_direct_pd(t)
    exact = np.linalg.det(apply(t, np.eye(1))).real ** (1.0 / m)
    assert abs(report.value - exact) <= 1e-13 * exact
    assert report.flags == ()
    assert report.residual == 0.0
    assert_allclose(report.witness["x"], np.eye(1), atol=0.0)
    searched = cap_unitary_search(t)
    assert abs(searched.value - exact) <= 1e-13 * exact
    assert searched.flags == ()
    assert searched.iterations == 1
    assert_allclose(searched.witness["x"], np.eye(1), atol=0.0)
    # G = (m/n) I: the certificate is the value, less its rounding
    assert abs(searched.lower - searched.value) <= 1e-13 * searched.value


def test_direct_exact_zero_gradient_is_not_a_zero_division():
    """Probe-family item 90 at seed 6200, scale 2^-11: the Hessian turns flat
    at the minimum (smallest curvature of order 1e-16) as the gradient falls
    to rounding, and can read exactly 0 there. Leaving out directions whose
    shifted curvature is below _CURVATURE_FLOOR keeps the step from dividing
    0 by 0 or wandering along the flat direction into a false
    InfimumNotAttained. The value is the one of the earlier BFGS-plus-Newton
    route."""
    family = CompactFamily(2, 2, 2, radius=2.0, seed=42)
    sequence = np.random.SeedSequence(6200, spawn_key=(90,))
    base = family.sample(np.random.default_rng(sequence))
    direction = random_direction(base, np.random.default_rng(sequence))
    with np.errstate(all="raise"):
        report = cap_direct_pd(perturb(base, direction, 2.0**-11), tol=1e-10)
    assert report.flags == ()
    assert abs(report.value - 0.9825212724605034) <= 1e-12


def _rank_decreasing(n: int, seed: int) -> CPOperator:
    """Two Kraus operators that map a 2-dimensional subspace into a
    1-dimensional one, mixed by Haar unitaries on both sides: they share no
    kernel vector, but T is rank decreasing, so cap(T) = 0."""
    rng = np.random.default_rng(seed)
    u, v = haar_unitary(n, rng), haar_unitary(n, rng)
    kraus = []
    for _ in range(2):
        z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        z[1:, :2] = 0.0
        kraus.append(u @ z @ v)
    return CPOperator(tuple(kraus))


def _rank_decreasing_rectangular(seed: int) -> CPOperator:
    """Three 4 x 2 Kraus operators that all map one input direction into one
    output line, mixed by Haar unitaries: V of dimension 1 has
    dim sum_k A_k V = 1 < (m/n) dim V = 2, so cap(T) = 0, with no common
    kernel and no singular image."""
    rng = np.random.default_rng(seed)
    kraus = []
    for _ in range(3):
        z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        z[:, 0] = 0.0
        z[0, 0] = rng.standard_normal()
        kraus.append(z)
    u, w = haar_unitary(2, rng), haar_unitary(4, rng)
    return CPOperator(tuple(w @ z @ u for z in kraus))


def _singular_image_corpus():
    """K n < m: T(I), and so every T(X), is singular."""
    shapes = [(2, 5, 2), (2, 3, 1), (3, 7, 2), (1, 2, 1)]
    return [random_cp(n, m, k, rng=100 * s + n) for n, m, k in shapes for s in range(10)]


def _zero_capacity_corpus():
    """145 operators with cap(T) = 0: a common kernel (K m < n), a singular
    T(I) (K n < m), and rank-decreasing operators without either."""
    shapes = [(2, 1, 1), (3, 1, 2), (4, 1, 3), (5, 2, 2), (7, 3, 2), (3, 2, 1)]
    corpus = [random_cp(n, m, k, rng=seed) for n, m, k in shapes for seed in range(10)]
    corpus += _singular_image_corpus()
    corpus += [_rank_decreasing(n, seed) for n in (3, 4) for seed in range(20)]
    return corpus + [_rank_decreasing_rectangular(seed) for seed in range(5)]


@pytest.mark.filterwarnings("ignore:CP operator with n=7")
@pytest.mark.filterwarnings("ignore:CP operator with n=3, m=7")
def test_direct_zero_capacity_corpora_are_degenerate():
    """cap(T) = 0 exactly when T is rank decreasing (Gurvits 2004). Kraus
    operators with a common kernel (K m < n here) and operators whose T(I)
    is singular (K n < m) are decided by rank tests on every route. The
    rank-decreasing operators without either, square or 2 x 4, are decided
    by the shrunk-subspace test. _zero_capacity runs all three on every
    route, and is the only source of Degenerate there."""
    corpus = _zero_capacity_corpus()
    assert len(corpus) == 145
    for route in (cap_direct_pd, cap_unitary_search, cap_via_scaling):
        for t in corpus:
            with np.errstate(all="raise"):
                report = route(t)
            assert report.value == 0.0
            assert report.flags == ("Degenerate",)


def test_direct_warm_start_keeps_the_floor_at_the_identity():
    """A warm start on a rank-decreasing operator still reads Degenerate:
    the rank gate decides before the descent starts. A start whose value
    lies more than 40 above the minimum of a generic operator, a ratio of
    e^-40, below the rounding of the value at X = I, reaches the cold value
    unflagged."""
    corpus = [_rank_decreasing(n, seed) for n in (3, 4) for seed in range(20)]
    corpus += [_rank_decreasing_rectangular(seed) for seed in range(5)]
    for t in corpus:
        h = random_hermitian(t.n, 3)  # traceless below, so det R R* = 1
        start = expm_hermitian(0.5 * (h - np.trace(h).real / t.n * np.eye(t.n)))
        report, r = capax.capacity._cap_direct(t, 1e-10, start)
        assert report.flags == ("Degenerate",) and r is None
    for seed in (1, 2, 3):
        t = make_op(2, 2, 2, seed=seed)
        cold = cap_direct_pd(t, tol=1e-10)
        start = expm_hermitian(np.diag([22.5, -22.5]).astype(complex))
        start_value = _geodesic_terms(t._kraus_stack @ start, _herm_basis(2))[0]
        assert start_value - math.log(cold.value) > 40.0
        report, r = capax.capacity._cap_direct(t, 1e-10, start)
        assert report.flags == ()
        assert abs(report.value - cold.value) <= 1e-13 * cold.value
        assert_allclose(hermitian_part(r @ r.conj().T), report.witness["x"], atol=0)


@pytest.mark.filterwarnings("ignore:CP operator with n=")
def test_zero_capacity_certificate_never_contradicts_the_rank_tests(monkeypatch):
    """_zero_capacity's certificate of cap > 0, a nonsingular element of the
    blown-up span, runs none of the three rank tests when it fires. It
    declines on every zero-capacity corpus operator, and fires on every
    make_op input with n, m <= 5 and K <= 3 that the rank tests find to have
    cap > 0."""
    tests = ("_common_kernel", "_singular_image", "_shrunk_subspace")
    real = {name: getattr(capax.capacity, name) for name in tests}
    ran = []
    for name in tests:
        monkeypatch.setattr(capax.capacity, name, lambda a, f=real[name]: ran.append(f) or f(a))

    def certified(t: CPOperator) -> bool:
        ran.clear()
        _zero_capacity(t._kraus_stack)
        return not ran

    def rank_tests(t: CPOperator) -> bool:
        return any(real[name](t._kraus_stack) for name in tests)

    for t in _zero_capacity_corpus():
        assert rank_tests(t) and not certified(t)
    positive = 0
    for n, m, k in itertools.product(range(1, 6), range(1, 6), range(1, 4)):
        for seed in range(2):
            t = make_op(n, m, k, seed=seed)
            if not rank_tests(t):
                assert certified(t)
                positive += 1
    assert positive >= 80


def test_shrunk_subspace_test_passes_rank_non_decreasing_operators():
    """Generic operators, square with K = 1 included and rectangular, and the
    boundary operator, whose capacity 1 is not attained, have no shrunk
    subspace."""
    ops = [make_op(n, n, k, seed=s) for n in (2, 3, 4) for k in (1, 2, 3) for s in range(10)]
    shapes = [(2, 3, 2), (3, 2, 2), (2, 4, 2), (4, 2, 2), (3, 4, 2), (4, 3, 2)]
    ops += [make_op(n, m, k, seed=s) for n, m, k in shapes for s in range(10)]
    for t in ops + [_boundary_kraus(), _boundary_kraus(1e-12)]:
        assert not _shrunk_subspace(t._kraus_stack)


@pytest.mark.filterwarnings("ignore:CP operator with n=3, m=7")
def test_cap0_singular_image_is_degenerate():
    """A singular T(I) makes every T(X) singular, so cap0 = 0 as well."""
    for t in _singular_image_corpus():
        report = cap0(t)
        assert report.value == 0.0
        assert report.flags == ("Degenerate",)


@pytest.mark.parametrize(
    "n,m,k", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 4, 3), (4, 2, 3), (4, 4, 1), (3, 3, 1)]
)
def test_geodesic_hessian_is_positive_semidefinite(n, m, k):
    """The objective is geodesically convex (Allen-Zhu, Garg, Li, Oliveira
    and Wigderson 2018), so one descent from X = I reaches the value of any
    other start: at R = exp(H/2) the chart Hessian has no curvature below
    -_CURVATURE_FLOOR, or below the rounding eps cond(T_b(I)) where that is
    larger. The K = 1 square shapes have a flat objective and read only
    rounding: (4, 4, 1) at seed 15, with cond(T_b(I)) = 2.9e4, reads
    -1.4e-12. On the whitened stack, where the descent evaluates it, the
    rounding is of order eps, so no curvature lies below -_CURVATURE_FLOOR
    (that point reads -1.8e-16)."""
    basis = _herm_basis(n)
    for seed in range(20):
        b = make_op(n, m, k, seed=seed)._kraus_stack @ expm_hermitian(
            0.5 * random_hermitian(n, seed, scale=0.5)
        )
        rounding = np.finfo(float).eps * np.linalg.cond(apply(CPOperator(tuple(b)), np.eye(n)))
        hess = _geodesic_terms(b, basis)[3]
        assert np.linalg.eigvalsh(hess).min() >= -max(_CURVATURE_FLOOR, rounding)
        whitened = _geodesic_terms(_whitened(b)[1], basis)[3]
        assert np.linalg.eigvalsh(whitened).min() >= -_CURVATURE_FLOOR


def _criterion_06_corpus():
    for i in range(30):
        rng = np.random.default_rng(7000 + i)
        n = 2 if i % 2 == 0 else 3
        k = int(rng.integers(2, 4))
        yield random_cp(n, n, k, scale=1.0 / np.sqrt(n * k), rng=rng)


def test_direct_criterion_06_corpus_converges_in_few_evaluations(monkeypatch):
    """Every report meets the gradient test unflagged, and the mean number of
    evaluations per solve (_chart_terms calls, trial points included)
    stays under half of the 78.5 oracle calls that four BFGS restarts at
    gradient test 1e-8 took on this corpus."""
    calls = Counter()
    real_terms = capax.capacity._chart_terms

    def counting(*args):
        calls["_chart_terms"] += 1
        return real_terms(*args)

    monkeypatch.setattr(capax.capacity, "_chart_terms", counting)
    for t in _criterion_06_corpus():
        report = cap_direct_pd(t)
        assert report.flags == ()
        assert report.residual <= 1e-8
    assert calls["_chart_terms"] >= 30
    assert calls["_chart_terms"] / 30 < 78.5 / 2


def test_direct_keeps_its_last_evaluation(monkeypatch):
    """The descent stops on its Newton decrement before a trial step, so no
    evaluation is thrown away but the refused halvings: per solve,
    evaluations = kept steps + refused halvings + 1, and the value is the one
    of the last evaluation, the start's value plus the changes of the kept
    trials. A halving is a trial whose chart step is exactly half the one
    before."""
    values, real_terms = [], capax.capacity._chart_terms
    steps = _recording_steps(monkeypatch)

    def counting(*args):
        terms = real_terms(*args)
        values.append(terms[0])
        return terms

    monkeypatch.setattr(capax.capacity, "_chart_terms", counting)
    for t in _criterion_06_corpus():
        values.clear()
        steps.clear()
        report = cap_direct_pd(t)
        refused = sum(np.array_equal(b, 0.5 * a) for a, b in zip(steps, steps[1:]))
        assert len(values) == report.iterations + refused + 1
        assert report.value == float(np.exp(_value_at(t, values, steps, len(values) - 1)))


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


@pytest.mark.parametrize("scale", [1e-8, 1e8])
@pytest.mark.parametrize(
    "n,m,k",
    [(2, 2, 1), (2, 2, 2), (3, 3, 2), (2, 3, 2), (3, 2, 2)],
    ids=["2-1", "2-2", "3-2", "2x3-2", "3x2-2"],
)
def test_scaling_agrees_with_direct_at_extreme_scales(n, m, k, scale):
    """The singular-marginal gate is relative, so Kraus entries of order
    1e-8 (marginals of order 1e-16) or 1e8 scale like any others, square or
    not."""
    base = make_op(n, m, k, seed=40 + 10 * n + k)
    t = CPOperator(tuple(scale * a for a in base.kraus))
    direct = cap_direct_pd(t)
    scaled = cap_via_scaling(t)
    assert direct.flags == () and scaled.flags == ()
    assert abs(scaled.value - direct.value) <= 1e-3 * direct.value
    report = cap(t, CapacityConfig(check_scaling=True))
    assert report.cross_checks["scaling_delta"] <= 1e-3 * report.value


def test_scaling_singular_marginal_raises():
    """A marginal whose eigenvalues span more than 1e12 stops the loop,
    although cap(T) = 1e-7 > 0 here: cap then keeps the direct report and
    names why the scaling check is missing. An exactly singular marginal is
    a common kernel, which the rank tests report as Degenerate before the
    loop."""
    t = CPOperator((np.diag([1.0, 1e-7]).astype(complex),))
    with pytest.raises(SingularMarginal):
        cap_via_scaling(t)
    direct = cap_direct_pd(t)
    assert direct.flags == () and abs(direct.value - 1e-7) <= 1e-15
    report = cap(t, CapacityConfig(check_psi=True, check_scaling=True, restarts_unitary=2))
    assert report.value == direct.value
    assert report.flags == ("ScalingSingularMarginal",)
    assert set(report.cross_checks) == {"psi_unitary", "psi_unitary_delta"}
    report = cap_via_scaling(CPOperator((np.diag([1.0, 0.0]).astype(complex),)))
    assert report.value == 0.0
    assert report.flags == ("Degenerate",)


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
        value, grad, _ = oracle(h)
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


def test_scaling_matches_direct_on_every_shape():
    """Scaling T(I) to I_m and T*(I) to (m/n) I_n gives the direct value,
    unflagged, with a witness whose ratio is the value; the operators the
    direct route reads as Degenerate (every (3, 5, 2) here) read so on this
    route too, and cap cross-checks scaling whatever the shape. On the
    adjoint T*, with Kraus operators A_k*, the row and column steps trade
    places, and the value is cap(T*) = (m/n) cap(T)."""
    shapes = [(2, 3, 2), (3, 2, 2), (2, 4, 3), (4, 2, 2), (3, 4, 2), (4, 3, 3), (3, 5, 2)]
    shapes += [(2, 2, 2), (3, 3, 2)]
    for n, m, k in shapes:
        for seed in range(10):
            t = random_cp(n, m, k, rng=seed)
            direct, scaled = cap_direct_pd(t), cap_via_scaling(t)
            adjoint = cap_via_scaling(CPOperator(tuple(a.conj().T for a in t.kraus)))
            if direct.flags == ("Degenerate",):
                assert scaled.flags == ("Degenerate",) and scaled.value == 0.0
                assert adjoint.flags == ("Degenerate",) and adjoint.value == 0.0
                continue
            assert direct.flags == () and scaled.flags == () and adjoint.flags == ()
            assert abs(scaled.value - direct.value) <= 1e-9 * direct.value
            ratio = capacity_ratio(t, scaled.witness["x"])
            assert abs(ratio - scaled.value) <= 1e-10 * scaled.value
            assert abs(adjoint.value - m / n * scaled.value) <= 1e-9 * adjoint.value
    report = cap(make_op(2, 3, 2, seed=9), CapacityConfig(check_scaling=True))
    assert report.cross_checks["scaling_delta"] <= 1e-9 * report.value


def _scaling_forming_both_marginals(t, max_steps=2000, residual_tol=1e-8):
    """cap_via_scaling as it was when every step formed both marginals and
    tested both distances: the reference its reports must match bit for bit."""
    a = t._kraus_stack
    if _zero_capacity(a):
        return CapacityReport(0.0, Method.SCALING, 0.0, 0, None, ("Degenerate",))
    log_corr, r, steps = 0.0, np.eye(t.n, dtype=complex), 0
    while True:
        q, p = _gram(a), _gram(a.conj().transpose(0, 2, 1))
        residual = max(_distance_from_scalar(q, 1.0), _distance_from_scalar(p, t.m / t.n))
        if residual <= residual_tol or steps == max_steps:
            break
        if steps % 2 == 0:
            w, f = _whiten_marginal(q, "row")
            a, dim = f.conj().T @ a, t.m
        else:
            w, f = _whiten_marginal((t.n / t.m) * p, "column")
            a, r, dim = a @ f, r @ f, t.n
        log_corr += float(np.sum(np.log(w))) / dim
        steps += 1
    flags = ("NoConvergence",) if residual > residual_tol else ()
    value = float(np.exp(log_corr + np.sum(np.log(_whiten(q)[0])) / t.m))
    x = hermitian_part(r @ r.conj().T)
    return CapacityReport(value, Method.SCALING, residual, steps, {"x": x}, flags)


def test_scaling_forms_one_marginal_per_step_and_keeps_its_reports():
    """Forming only the marginal the next step whitens, and both once it
    passes residual_tol or at max_steps, leaves every report bit-identical to
    the loop that formed both each step: 9 shapes x 3 seeds and their
    adjoints, and runs cut short by max_steps (NoConvergence)."""
    shapes = [(2, 3, 2), (3, 2, 2), (2, 4, 3), (4, 2, 2), (3, 4, 2), (4, 3, 3), (3, 5, 2)]
    shapes += [(2, 2, 2), (3, 3, 2)]
    for n, m, k in shapes:
        for seed in range(3):
            t = random_cp(n, m, k, rng=seed)
            for op in (t, CPOperator(tuple(a.conj().T for a in t.kraus))):
                expected = report_to_json(_scaling_forming_both_marginals(op))
                assert report_to_json(cap_via_scaling(op)) == expected
    t = make_op(3, 3, 2, seed=1)
    for max_steps in (1, 2, 3):
        report = cap_via_scaling(t, max_steps=max_steps)
        assert report.flags == ("NoConvergence",) and report.iterations == max_steps
        expected = _scaling_forming_both_marginals(t, max_steps=max_steps)
        assert report_to_json(report) == report_to_json(expected)


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


def _counting_minimize(monkeypatch, offsets=None):
    """Wrap capax.capacity.minimize; return the list of (fun, x) per start.
    With offsets, start j's fun is raised by offsets[j] before the search
    sees it."""
    real_minimize, starts = capax.capacity.minimize, []

    def counting(*args, **kwargs):
        res = real_minimize(*args, **kwargs)
        if offsets is not None:
            res.fun += offsets[len(starts)]
        starts.append((res.fun, res.x))
        return res

    monkeypatch.setattr(capax.capacity, "minimize", counting)
    return starts


def _uncertified(monkeypatch):
    """Take the certificate out of the unitary search's stop, which then
    rests on agreement between starts alone."""
    monkeypatch.setattr(capax.capacity, "_MARGINS", {})


def test_unitary_search_leaves_the_near_stationary_identity(monkeypatch):
    """At criterion-06 draw 7199 the identity is near-stationary, |grad g| =
    2.5e-5 < sqrt(tol), so its start stops after 0 iterations 1.3e-2 relative
    above cap. Its certified gap, about 6e-2, rejects it; the second start is
    certified within sqrt(tol) and the search stops there on the direct
    value, 2 starts where the agreement stop alone took 3."""
    rng = np.random.default_rng(7199)
    k = int(rng.integers(2, 4))
    t = random_cp(2, 2, k, scale=1.0 / np.sqrt(2 * k), rng=rng)
    starts = _counting_minimize(monkeypatch)
    direct = cap_direct_pd(t).value
    searched = cap_unitary_search(t, restarts=4)
    assert abs(searched.value - direct) <= 1e-9 * direct
    assert len(starts) == 2
    assert searched.flags == ()
    assert math.log(searched.value / searched.lower) <= math.sqrt(1e-9)


def test_unitary_search_stops_when_a_start_agrees(monkeypatch):
    """The first start is certified and ends the search; without the
    certificate the second start agrees with the first and ends it."""
    starts = _counting_minimize(monkeypatch)
    cap_unitary_search(make_op(2, 2, 2, seed=8), restarts=8)
    assert len(starts) == 1
    starts.clear()
    _uncertified(monkeypatch)
    cap_unitary_search(make_op(2, 2, 2, seed=8), restarts=8)
    assert len(starts) == 2


def test_unitary_search_runs_every_start_while_none_agree(monkeypatch):
    """With no certificate, starts whose values lie 1e-6 apart, far above
    tol, never agree: all of them run, and the winner is the lowest,
    wherever it comes."""
    _uncertified(monkeypatch)
    offsets = 1e-6 * np.array([4.0, 1.0, 3.0, 2.0])
    starts = _counting_minimize(monkeypatch, offsets)
    report = cap_unitary_search(make_op(2, 2, 2, seed=8), restarts=4)
    assert len(starts) == 4
    winner = starts[int(np.argmin([fun for fun, _ in starts]))][1]
    w, vec = eigh(np.tensordot(winner, _herm_basis(2), axes=1))
    assert np.array_equal(report.witness["unitary"], (vec * np.exp(1j * w)) @ vec.conj().T)
    assert np.array_equal(winner, starts[1][1])


def test_unitary_search_refuses_fewer_than_one_start():
    """restarts is the most starts run, so fewer than one is a ConfigError,
    from cap_unitary_search and from cap's unitary check alike."""
    t = make_op(2, 2, 2, seed=8)
    for restarts in (0, -3):
        with pytest.raises(ConfigError, match="restarts must be at least 1"):
            cap_unitary_search(t, restarts=restarts)
        with pytest.raises(ConfigError):
            cap(t, CapacityConfig(restarts_unitary=restarts, check_psi=True))
    assert cap(t, CapacityConfig(restarts_unitary=0)).value == cap_direct_pd(t).value


def _recording(monkeypatch, name, results):
    """Wrap capax.capacity.<name> so that each call appends its result to
    results."""
    real = getattr(capax.capacity, name)

    def wrapper(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(capax.capacity, name, wrapper)


@pytest.mark.parametrize("n,m,k,seed", [(2, 2, 2, 7), (2, 3, 2, 3), (3, 3, 2, 1)])
def test_unitary_search_solves_each_point_once(monkeypatch, n, m, k, seed):
    """Every evaluation solves Psi once, to _PSI_TOL, and whitens T(X) once
    where the infimum is attained; the certificate and the report read that
    solve and that whitening, so there are as many Psi solves as evaluations
    and as many whitenings as attained evaluations, and the report's value,
    residual and witness are the winning evaluation's, bit for bit (a
    second, tighter solve of the winner moved them on these inputs)."""
    solves, whitenings = [], []
    _recording(monkeypatch, "_diag_psi", solves)
    _recording(monkeypatch, "_whiten", whitenings)
    report = cap_unitary_search(make_op(n, m, k, seed=seed), restarts=4)
    assert report.flags == () and report.lower > 0.0
    assert len(solves) == report.iterations
    evaluations = solves[: report.iterations]
    attained = [res for res in evaluations if res.classification.tag is HullTag.INTERIOR_ZERO]
    assert len(whitenings) == len(attained)
    y = report.witness["diag_log"]
    winners = [res for res in evaluations if np.array_equal(res.minimizer, y)]
    assert len(winners) >= 1
    assert report.value == winners[0].value ** (1.0 / m)
    assert report.residual == winners[0].grad_residual


def test_unitary_search_criterion_06_corpus_needs_few_evaluations():
    """The certified stop cuts the mean oracle calls of four starts on the
    criterion-06 corpus to 11.3 at n = 2 and 39.0 at n = 3, counted by
    report.iterations; the agreement stop alone took 22.6 and 57.9, and
    every start 38.9 and 91.7. Every report is unflagged, and its lower
    bound is at most its value."""
    evals = {2: [], 3: []}
    for t in _criterion_06_corpus():
        report = cap_unitary_search(t, restarts=4)
        evals[t.n].append(report.iterations)
        assert report.flags == ()
        assert 0.0 < report.lower <= report.value
    assert len(evals[2]) == len(evals[3]) == 15
    assert np.mean(evals[2]) < 15
    assert np.mean(evals[3]) < 50


def _points_in_sum_zero_chart(n: int, m: int) -> np.ndarray:
    """The distinct exponents of _diag_exponents(n, m) in an orthonormal
    basis of the hyperplane sum = 0 that holds them, so distances keep."""
    q = np.linalg.qr(np.vstack([np.ones(n), np.eye(n)[:-1]]).T)[0][:, 1:]
    return np.unique(np.round(_diag_exponents(n, m) @ q, 12), axis=0)


def _hull_distance(points: np.ndarray) -> float:
    """Distance from 0 to conv(points): min |sum_i l_i p_i| over the simplex,
    solved as non-negative least squares with the row sum l_i = 1 weighted
    by 1e6; the weights, rescaled to sum 1, give a point of the hull whose
    norm is off by about 1e-12."""
    from scipy.optimize import nnls

    big = 1e6
    lhs = np.vstack([points.T, big * np.ones(len(points))])
    lam = nnls(lhs, np.concatenate([np.zeros(points.shape[1]), [big]]))[0]
    return float(np.linalg.norm(points.T @ (lam / lam.sum())))


def _margin_by_subsets(n: int, m: int) -> float:
    """The weight margin by brute force over every subset of exponents."""
    points = _points_in_sum_zero_chart(n, m)
    distances = [
        _hull_distance(points[list(subset)])
        for size in range(1, len(points) + 1)
        for subset in itertools.combinations(range(len(points)), size)
    ]
    return min(d for d in distances if d > 1e-7)


def _margin_by_half_spaces(n: int, m: int) -> float:
    """The weight margin for n = 4, by exact enumeration of the open
    half-spaces <w, u> > 0: a subset S with 0 outside conv(S) lies in one,
    so the least distance is taken over those that are maximal. They are
    the cells of the arrangement of the planes w.u = 0 in the 3-dimensional
    chart, and each cell touches a vertex, a ray r = u_i x u_j: around r,
    one w per sector between the planes through r lands in every cell
    there."""
    points = _points_in_sum_zero_chart(n, m)
    assert points.shape[1] == 3
    cells = set()
    for p, q in itertools.combinations(points, 2):
        ray = np.cross(p, q)
        if np.linalg.norm(ray) < 1e-9:
            continue
        ray /= np.linalg.norm(ray)
        t1 = np.cross(ray, p) / np.linalg.norm(np.cross(ray, p))
        t2 = np.cross(ray, t1)
        through = points[np.abs(points @ ray) < 1e-9]
        # the plane of u meets the tangent plane at r in the line at angle(u) + pi/2
        angles = np.unique(np.round(np.arctan2(through @ t2, through @ t1) % np.pi, 9))
        lines = np.sort(np.concatenate([angles + np.pi / 2, angles + 3 * np.pi / 2]) % (2 * np.pi))
        sectors = lines + np.diff(np.append(lines, lines[0] + 2 * np.pi)) / 2
        for sign in (1.0, -1.0):
            for angle in sectors:
                w = sign * ray + 1e-6 * (np.cos(angle) * t1 + np.sin(angle) * t2)
                cells.add(tuple(np.flatnonzero(points @ w > 0)))
    return min(_hull_distance(points[list(cell)]) for cell in cells)


def test_margins_are_rederived_and_rounded_down():
    """Every _MARGINS entry is the weight margin of its shape to 1e-9 and not
    above it: by brute force over all subsets up to (3, 3), and by the
    half-space enumeration at (4, 4). The two enumerations agree on (4, 2),
    whose 10 exponents brute force can still take."""
    assert set(_MARGINS) == {(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)}
    assert abs(_margin_by_half_spaces(4, 2) - _margin_by_subsets(4, 2)) <= 1e-9
    for (n, m), stored in _MARGINS.items():
        margin = _margin_by_half_spaces(n, m) if n == 4 else _margin_by_subsets(n, m)
        assert -1e-12 <= margin - stored <= 1e-9, (n, m, margin, stored)


def test_commutative_duality_holds_on_random_sums():
    """inf Phi >= Phi(y) (1 - |grad log Phi(y)| / gamma(n, m)) for sums over
    the exponents of _diag_exponents(n, m) with random non-negative weights
    on random supports, at random points y; where 0 lies outside the hull of
    the support, Psi = 0 and the bound must be at most 0, which is the
    margin itself."""
    rng = np.random.default_rng(3301)
    checked = {"positive": 0, "zero": 0}
    for (n, m), margin in _MARGINS.items():
        u = _diag_exponents(n, m)
        for _ in range(40):
            d = rng.exponential(size=len(u)) * (rng.random(len(u)) < 0.5)
            if not d.any():
                continue
            prob = ExpSumProblem(u, d)
            psi = psi_minimize(prob).value
            for y in rng.standard_normal((5, n)):
                weights = d * np.exp(u @ y - (u @ y).max())
                slope = np.linalg.norm(u.T @ weights) / weights.sum()
                bound = phi_eval(prob, y) * (1.0 - slope / margin)
                assert bound <= psi * (1.0 + 1e-9) + 1e-300, (n, m, bound, psi)
                checked["positive" if psi > 0 else "zero"] += 1
    assert min(checked.values()) >= 100


def test_certified_lower_bounds_cap_near_and_far_from_the_witness():
    """The operator certificate of _certified_lower, at witnesses X = U
    diag(e^y) U* taken along the geodesic from the direct route's witness
    in random directions, never exceeds log cap (the direct value, to
    rounding), on seeded corpora of every shape with a margin, n != m
    included; at the witness itself it is tight to 1e-6."""
    finite = 0
    for n, m in _MARGINS:
        for seed in range(6 if n < 4 else 2):
            t = random_cp(n, m, 2 + seed % 2, rng=4400 + 10 * n + m + 100 * seed)
            direct = cap_direct_pd(t)
            assert direct.flags == ()
            r = np.linalg.cholesky(direct.witness["x"])
            rng = np.random.default_rng(seed)
            for s in (0.0, 1e-3, 1e-2, 1e-1, 1.0):
                x = r @ expm_hermitian(s * random_hermitian(n, rng)) @ r.conj().T
                w, u = np.linalg.eigh(hermitian_part(x))
                wt, _, g = _whitened(t._kraus_stack @ u * np.sqrt(w))
                lower = _certified_lower(wt, g, np.log(w))
                assert lower <= math.log(direct.value) + 1e-12
                if s == 0.0:
                    assert math.log(direct.value) - lower <= 1e-6
                finite += math.isfinite(lower)
    assert finite >= 50


def _mixed_ladder(n: int, seed: int) -> CPOperator:
    """_ladder(n) mixed by Haar unitaries on both sides, Kraus u E_ij v:
    cap = 1, approached but not attained, on a support that no longer lines
    up with the axes."""
    rng = np.random.default_rng(seed)
    u, v = haar_unitary(n, rng), haar_unitary(n, rng)
    return CPOperator(tuple(u @ k @ v for k in _ladder(n).kraus))


@pytest.mark.filterwarnings("ignore:CP operator with n=")
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_direct_mixed_ladders_read_their_capacity(n):
    """On the whitened stack no evaluation of the descent loses the small
    eigenvalues of T_b(I) as X runs off to infinity, so the mixed ladders,
    cap = 1 approached but not attained, read 1 within 1e-6 and never 0.0
    Degenerate (n = 4 and 5 did on the unwhitened stack); no value falls
    below the infimum by more than rounding."""
    for seed in (1, 2, 3):
        report = cap_direct_pd(_mixed_ladder(n, seed))
        assert "Degenerate" not in report.flags
        assert 1.0 - 1e-12 <= report.value <= 1.0 + 1e-6


@pytest.mark.filterwarnings("ignore:CP operator with n=")
@pytest.mark.parametrize("n", [3, 4, 5])
def test_unitary_search_mixed_ladders_never_read_zero(n):
    """Past the rank gates a T(X) that reads as singular inside the oracle
    is a numerical breakdown (n = 5, seed 2 read 0.0 Degenerate before): the
    start stops there as not converged. So no mixed ladder reads 0, a value
    off by more than 1e-6 carries a flag, and the certified lower bound
    stays below it."""
    for seed in (1, 2, 3):
        report = cap_unitary_search(_mixed_ladder(n, seed), restarts=2)
        assert report.value > 0.0 and "Degenerate" not in report.flags
        if abs(report.value - 1.0) > 1e-6:
            assert report.flags
        assert report.lower <= 1.0


@pytest.mark.filterwarnings("ignore:CP operator with n=")
def test_cap_flags_a_certified_lower_bound_above_its_value(monkeypatch):
    """On the mixed ladders at n = 4 the unitary check certifies cap > 0.9,
    and the direct value lies above that bound, so it is not flagged. A
    direct value below the bound, injected here since the direct route no
    longer gives one on these inputs, is flagged CertifiedLowerAboveValue,
    and the value is kept."""
    checks, real_search = [], capax.capacity.cap_unitary_search
    real_direct = capax.capacity.cap_direct_pd

    def recording(*args, **kwargs):
        checks.append(real_search(*args, **kwargs))
        return checks[-1]

    monkeypatch.setattr(capax.capacity, "cap_unitary_search", recording)
    config = CapacityConfig(check_psi=True, restarts_unitary=2)
    for seed in (1, 2, 3):
        t = _mixed_ladder(4, seed)
        report = cap(t, config)
        assert checks[-1].lower > 0.9
        assert report.value == real_direct(t).value >= checks[-1].lower
        assert "CertifiedLowerAboveValue" not in report.flags
    low = dataclasses.replace(real_direct(_mixed_ladder(4, 1)), value=0.5)
    monkeypatch.setattr(capax.capacity, "cap_direct_pd", lambda t, tol: low)
    report = cap(_mixed_ladder(4, 1), config)
    assert report.value == 0.5 < checks[-1].lower
    assert "CertifiedLowerAboveValue" in report.flags


def test_unitary_lower_is_below_every_unflagged_value():
    """On the make_op shapes with a margin, every unflagged unitary report
    carries a positive lower bound no larger than its own value or the
    direct value, so cap with the unitary check would not flag it."""
    for n, m, k in [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 2), (4, 4, 2)]:
        for seed in range(4):
            t = make_op(n, m, k, seed=seed)
            report = cap_unitary_search(t, restarts=4)
            if report.flags:
                continue
            assert 0.0 < report.lower <= min(report.value, cap_direct_pd(t).value)


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
    assert json.loads(text)["lower"] is None
    assert report_to_json(report) == text
    searched = cap_unitary_search(make_op(2, 2, 2, seed=18))
    assert json.loads(report_to_json(searched))["lower"] == searched.lower > 0.0


def test_single_kraus_general_closed_form(rng):
    """One Kraus matrix A gives capacity |det A|^(2/n)."""
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a /= np.linalg.norm(a, 2)
    t = CPOperator((a,))
    expected = abs(np.linalg.det(a)) ** (2.0 / 3.0)
    assert abs(cap_direct_pd(t).value - expected) <= 1e-6 * expected
    assert abs(cap_via_scaling(t).value - expected) <= 1e-8 * expected
