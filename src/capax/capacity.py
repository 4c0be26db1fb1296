"""Capacity of a completely positive operator.

cap(T) is the infimum of det(T(X))^(1/m) / det(X)^(1/n) over positive
definite X. On every route cap(T) = 0 is decided first, and only, by the
rank tests of _zero_capacity, and reported as Degenerate. Three routes:

* ``cap_direct_pd``: one regularized Newton descent from X = I in the
  geodesic chart, where the objective is convex, on the whitened stack,
  stopped on its Newton decrement at tol (holderlab warm-starts it);
* ``cap_unitary_search``: cap(T) = inf_U cap0(T_U), where cap0 restricts X
  to diagonal matrices and reduces to a weighted exponential sum, so the
  outer search runs over unitaries only. Each point is solved once; the
  restarts stop once a certified lower bound (commutative duality with the
  weight margin of the shape, _MARGINS) is within sqrt(tol) of the best
  value, and the report is the winning point's solve;
* ``cap_via_scaling``: alternate row and column marginal normalization,
  T(I) to I_m and T*(I) to (m/n) I_n, accumulating determinant corrections.

One kernel, ``_whiten``, serves all three routes: it eigendecomposes a
marginal T_b(I) of a Kraus stack b, giving (1/m) log det T_b(I), and
whitens the stack so that its marginal becomes I. ``_whitened`` adds
G = T_b*(T_b(I)^-1), from which the direct route's ``_chart_terms`` takes
the Hessian, and the unitary route the gradient and certificate of its
BFGS restarts (scipy.optimize) on A U D^(1/2). The scaling route whitens
T(I) and (n/m) T*(I) in turn.

All routes return a CapacityReport carrying the value, a witness when one
exists, solver residuals, and flags for degenerate or non-converged runs;
the unitary route's report also carries its certified lower bound.
"""
from __future__ import annotations

import enum
import json
import math
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .coeffs import _multiindex_table, d_leibniz
from .cpop import CPOperator, apply
from .errors import ConfigError, SingularEvaluation, SingularMarginal, SingularMatrix
from .expsum import ExpSumProblem, HullTag, PsiResult, psi_minimize
from .linalg import eigh, expm_hermitian, hermitian_part

__all__ = [
    "Method",
    "CapacityConfig",
    "CapacityReport",
    "diag_problem",
    "cap0",
    "cap_direct_pd",
    "cap_unitary_search",
    "cap_via_scaling",
    "cap",
    "capacity_ratio",
    "report_to_dict",
    "report_to_json",
]


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


class Method(str, enum.Enum):
    PSI_UNITARY = "psi_unitary"
    DIRECT_PD = "direct_pd"
    SCALING = "scaling"


@dataclass(frozen=True)
class CapacityConfig:
    """Options of cap; restarts_unitary, the most starts of the unitary
    search, and seed reach only check_psi."""

    tol: float = 1e-9
    restarts_unitary: int = 8
    seed: int = 0
    check_psi: bool = False
    check_scaling: bool = False


@dataclass(frozen=True)
class CapacityReport:
    """One route's answer: the value, the route's residual and work count,
    the witness X when one exists, flags, and the other routes' values that
    cap ran. lower is a certified lower bound on cap(T), so [lower, value]
    brackets it: the unitary route sets it (0.0 where no certificate
    applies), the other routes leave it None."""

    value: float
    method: Method
    residual: float
    iterations: int
    witness: dict | None = None
    flags: tuple[str, ...] = ()
    cross_checks: dict = field(default_factory=dict)
    lower: float | None = None


def diag_problem(t: CPOperator | np.ndarray) -> ExpSumProblem:
    """Exponential-sum form of the diagonal restriction of T (a CPOperator
    or a raw (K, m, n) Kraus stack).

    det(T(diag(lam))) is a polynomial with coefficient vector d over the
    degree-m multi-indices j; substituting lam_i = exp(y_i) and dividing by
    the homogeneous normalization gives Phi_d over exponents u_j = j - (m/n) 1.
    """
    cv = d_leibniz(t)
    return ExpSumProblem(_diag_exponents(cv.n, cv.m), cv.values)


@lru_cache(maxsize=32)
def _diag_exponents(n: int, m: int) -> np.ndarray:
    """The read-only exponents u_j = j - (m/n) 1 of diag_problem for (n, m)."""
    u = _multiindex_table(n, m)[0] - m / n
    u.setflags(write=False)
    return u


def capacity_ratio(t: CPOperator, x) -> float:
    """det(T(X))^(1/m) / det(X)^(1/n) for a positive definite X."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (t.n, t.n):
        raise SingularMatrix(f"x must be {t.n} x {t.n}, got {x.shape}")
    scale = float(np.abs(x).max(initial=0.0))
    if np.abs(x - x.conj().T).max(initial=0.0) > 1e-10 * max(scale, 1.0):
        raise SingularMatrix("x must be Hermitian")
    wx, _ = eigh(x)
    if wx.min(initial=1.0) <= 0:
        raise SingularMatrix("x must be positive definite")
    wt, _ = eigh(apply(t, x))
    if wt.min(initial=1.0) <= 0:
        raise SingularEvaluation("T(x) is singular, the ratio is not defined")
    return float(np.exp(np.sum(np.log(wt)) / t.m - np.sum(np.log(wx)) / t.n))


def _matrix_json(a: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(a, dtype=complex)]


class _Degenerate(Exception):
    """Internal signal: det(T(X)) or Psi reads 0; past _zero_capacity, a breakdown."""


def _common_kernel(a: np.ndarray) -> bool:
    """The Kraus operators of the (K, m, n) stack a share a kernel vector:
    the stacked (K m, n) matrix has rank below n, so cap(T) = 0."""
    return np.linalg.matrix_rank(a.reshape(-1, a.shape[2])) < a.shape[2]


def _singular_image(a: np.ndarray) -> bool:
    """T(I), and so every T(X), is singular: [A_1 ... A_K], an m x K n
    matrix, has rank below m, so cap(T) = cap0(T) = 0. The SVD of that
    matrix, not the eigenvalues of T(I), whose conditioning is its square."""
    return np.linalg.matrix_rank(np.concatenate(a, axis=1)) < a.shape[1]


def _shrunk_subspace(a: np.ndarray) -> bool:
    """T shrinks some subspace V, dim sum_k A_k V < (m/n) dim V, so cap(T) = 0
    (Gurvits 2004 for square T).

    A square T is tested by its blow-up: sum_k A_k (x) M_k is singular for
    fixed generic d x d M_k, d = n - 1. At that d it is nonsingular for
    generic M_k exactly when no such V exists (Derksen and Makam 2017).

    An m x n T with m != n is tested through the square T (x) Phi of side
    L = lcm(n, m), Phi: M_(L/n) -> M_(L/m), Phi(Y) = tr(Y) I_(L/m), whose
    Kraus operators are A_k (x) E_ij for the (L/m) x (L/n) matrix units
    E_ij. If V is shrunk by T, then V (x) C^(L/n) is shrunk by T (x) Phi:
    its image (sum_k A_k V) (x) C^(L/m) has dimension below
    (m/n) dim V L/m = dim V L/n. If cap(T) > 0, T scales to T' with
    T'(I) = I_m and T'*(I) = (m/n) I_n (Garg, Gurvits, Oliveira and
    Wigderson 2016), and the same scaling tensored with identities takes
    T (x) Phi to L/n times a doubly stochastic operator, which shrinks no
    subspace. Coprime n and m still give side n m.
    """
    k, m, n = a.shape
    if m != n:
        rows, cols = math.lcm(n, m) // m, math.lcm(n, m) // n
        units = np.eye(rows * cols).reshape(rows * cols, rows, cols)
        a = np.einsum("kab,ecd->keacbd", a, units).reshape(-1, m * rows, n * cols)
        k, m, n = a.shape
    if n == 1:
        return False
    blow_up = np.einsum("kab,kcd->acbd", a, _generic(k, n - 1, n - 1)).reshape(n * (n - 1), -1)
    return np.linalg.matrix_rank(blow_up) < n * (n - 1)


def _generic(*shape: int) -> np.ndarray:
    """Fixed generic complex entries, sin(j^2), without numpy.random."""
    z = np.sin(np.arange(1.0, 2 * math.prod(shape) + 1) ** 2).reshape(2, *shape)
    return z[0] + 1j * z[1]


def _zero_capacity(a: np.ndarray) -> bool:
    """cap(T) = 0 for the raw (K, m, n) stack a: the one source of
    Degenerate on the three routes. First a certificate of cap > 0: if
    B = sum_k A_k (x) C_k, with fixed generic (L/m) x (L/n) C_k, L = lcm(n, m),
    is nonsingular, then dim B V = dim V, so T (x) Phi of _shrunk_subspace,
    and with it T, shrinks no subspace. Only a singular B runs the rank tests
    that decide: a common kernel, a singular T(I) or a shrunk subspace.
    """
    k, m, n = a.shape
    side = math.lcm(n, m)
    b = np.einsum("kab,kcd->acbd", a, _generic(k, side // m, side // n)).reshape(side, side)
    certified = np.linalg.matrix_rank(b) == side
    return not certified and (_common_kernel(a) or _singular_image(a) or _shrunk_subspace(a))


def _diag_psi(t: CPOperator | np.ndarray, tol: float) -> PsiResult:
    """Psi of the diagonal restriction; raises _Degenerate when it vanishes."""
    prob = diag_problem(t)
    if float(prob.d.max(initial=0.0)) <= 1e-300:
        raise _Degenerate
    res = psi_minimize(prob, tol=tol)
    if res.value <= 1e-300:
        raise _Degenerate
    return res


def _psi_report(
    res: PsiResult, m: int, iterations: int, u: np.ndarray | None = None
) -> CapacityReport:
    """cap0(T_U) reported from Psi of the diagonal restriction of T_U; the
    witness, present when the infimum is attained, is U diag(exp y) U*."""
    flags = [] if res.converged else ["MaxIterations"]
    witness = None
    if res.classification.tag is HullTag.INTERIOR_ZERO:
        y = res.minimizer
        witness = {"x": np.diag(np.exp(y)).astype(complex), "diag_log": y.copy()}
        if u is not None:
            witness.update(x=hermitian_part(u @ witness["x"] @ u.conj().T), unitary=u)
    else:
        flags.insert(0, "InfimumNotAttained")
    value = res.value ** (1.0 / m)
    return CapacityReport(
        float(value), Method.PSI_UNITARY, res.grad_residual, iterations, witness, tuple(flags)
    )


def cap0(t: CPOperator, tol: float = 1e-10) -> CapacityReport:
    """Diagonally restricted capacity: inf over positive diagonal X.

    Solved exactly through the exponential-sum form; the witness (present
    when the infimum is attained) is the optimal diagonal matrix.
    """
    try:
        if _singular_image(t._kraus_stack):  # a common kernel does not force cap0 = 0
            raise _Degenerate
        res = _diag_psi(t, tol)
    except _Degenerate:
        return CapacityReport(0.0, Method.PSI_UNITARY, 0.0, 0, None, ("Degenerate",))
    return _psi_report(res, t.m, res.iterations)


def _herm_basis(n: int) -> np.ndarray:
    """Orthonormal basis (Frobenius inner product) of the traceless Hermitian
    n x n matrices, stacked as an array of shape (n*n - 1, n, n)."""
    basis = np.zeros((n * n - 1, n, n), dtype=complex)
    idx = 0
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            basis[idx, i, j] = basis[idx, j, i] = inv_sqrt2
            basis[idx + 1, i, j] = -1j * inv_sqrt2
            basis[idx + 1, j, i] = 1j * inv_sqrt2
            idx += 2
    for k in range(1, n):
        coeff = 1.0 / math.sqrt(k * (k + 1))
        basis[idx, np.arange(k), np.arange(k)] = coeff
        basis[idx, k, k] = -k * coeff
        idx += 1
    return basis


def _exp_divided_differences(w: np.ndarray) -> np.ndarray:
    """First divided differences of exp at the points w.

    Entry (i, j) is (e^wi - e^wj) / (wi - wj), written as
    exp((wi + wj)/2) sinh(d)/d with d = (wi - wj)/2 so that nearly equal
    points lose no digits; below |d| = 1e-3 the Taylor series of sinh(d)/d
    (error under d^6/5040) replaces the quotient.
    """
    d = 0.5 * (w[:, None] - w[None, :])
    small = np.abs(d) < 1e-3
    safe = np.where(small, 1.0, d)
    d2 = d * d
    ratio = np.where(small, 1.0 + d2 / 6.0 * (1.0 + d2 / 20.0), np.sinh(safe) / safe)
    return np.exp(0.5 * (w[:, None] + w[None, :])) * ratio


def _gram(b: np.ndarray) -> np.ndarray:
    """The marginal T_b(I) = sum_k B_k B_k* of the (K, m, n) stack b; the
    adjoint stack b* gives T_b*(I)."""
    return (b @ b.conj().transpose(0, 2, 1)).sum(axis=0)


def _whiten(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w of the Hermitian marginal gram and F = V diag(w)^(-1/2),
    so that F* gram F = I: the stack F* b has marginal I, and
    sum(log w) = log det gram. The one eigendecomposition of a marginal
    under every capacity route. Raises _Degenerate when gram is not finite,
    so that its eigenvalues are never asked of a non-finite matrix, or when
    it is singular, w[0] <= 0.
    """
    if not np.isfinite(gram).all():
        raise _Degenerate
    w, v = eigh(gram)
    if w[0] <= 0:
        raise _Degenerate
    return w, v / np.sqrt(w)


def _whitened(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalues w of T_b(I) for the (K, m, n) stack b, the whitened
    stack C = F* b of _whiten, and G = sum_k C_k* C_k = T_b*(T_b(I)^-1): the
    kernel that the direct and the unitary route share."""
    w, f = _whiten(_gram(b))
    c = f.conj().T @ b
    return w, c, (c.conj().transpose(0, 2, 1) @ c).sum(axis=0)


def _geodesic_terms(
    b: np.ndarray, basis: np.ndarray
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """The value, its rounding error, gradient and Hessian of _chart_terms."""
    return _chart_terms(b, basis)[:4]


def _chart_terms(
    b: np.ndarray, basis: np.ndarray
) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
    """Value, its rounding error, gradient and Hessian at E = 0 of
    f(E) = (1/m) log det T_b(exp E), in the coordinates of basis, for the
    rebased (K, m, n) stack b, and the whitened stack C = F* b of _whitened,
    whose chart is the one at b with the value shifted to 0.

    For the stack A R of T, T_b(exp E) = T(R exp(E) R*): the geodesic chart
    at X = R R*, where f is convex. With Q = T_b(I)^-1 the gradient is
    Re tr(Q T_b(E)) / m and the Hessian (Re tr(Q T_b(EF)) -
    Re tr(Q T_b(E) Q T_b(F))) / m, computed from P_i = C B_i C* and
    T_b*(Q), C being Q^(1/2) b up to a unitary. The value's rounding is
    taken as eps sum_i (w_max / w_i + |log w_i|) / m over the eigenvalues w
    of T_b(I). Raises _Degenerate, through _whiten, when T_b(I) is singular
    or not finite.
    """
    m = b.shape[1]
    wt, c, g = _whitened(b)
    ch = c.conj().transpose(0, 2, 1)
    p = np.einsum("kab,ibc,kcd->iad", c, basis, ch)
    flat = p.reshape(len(basis), m * m)  # n = 1: no directions, an empty chart
    first = np.einsum("ab,ibc,jca->ij", g, basis, basis).real
    hess = (first - (flat @ flat.conj().T).real) / m
    logs = np.log(wt)
    err = float(np.finfo(float).eps * np.sum(wt[-1] / wt + np.abs(logs))) / m
    return float(np.sum(logs)) / m, err, np.trace(p, axis1=1, axis2=2).real / m, hess, c


# The geodesic-chart Hessian is scale free with entries of order one, and on
# the whitened stack its rounding is of order eps: below this, a shifted
# curvature is rounding, as along the flat directions of K = 1.
_CURVATURE_FLOOR = 1e-12
# The boundary base of the sqrt(eps) family takes 48 steps; an unattained
# infimum shrinks the gradient by about e per step.
_NEWTON_MAX_STEPS = 100
# Halvings of a refused step before the line search gives out.
_MAX_BACKTRACKS = 30
# Once the gradient norm is this small, a step that does not lower it ends
# the descent: the fallback for runs that rounding keeps from the decrement
# test.
_STALL_GRAD = 1e-6
# Steps that stay this long (geodesic length) while the gradient falls
# under _STALL_GRAD follow a minimizing sequence out to infinity.
_UNATTAINED_STEP = 0.1


def _newton_descent(
    a: np.ndarray, basis: np.ndarray, tol: float, r: np.ndarray | None = None
) -> tuple[float, np.ndarray, float, int, float]:
    """Regularized Newton descent on the stack a from X = R R*, R = r or I,
    in the geodesic chart at the current point, R moving to R exp(S/2), on
    the whitened stack (Allen-Zhu, Garg, Li, Oliveira and Wigderson, STOC
    2018): a trial is evaluated on C exp(S/2), C the kept _chart_terms stack,
    and its value, the change of f, is added to f, so no evaluation is ill
    conditioned however far R runs off.

    The step is S = -(H+ + |g| I)^-1 g, with H+ the Hessian whose negative
    curvatures are clipped to 0 (Mishchenko, "Regularized Newton method with
    global O(1/k^2) convergence", 2021); an eigen-direction whose shifted
    curvature is at most _CURVATURE_FLOOR is left out, so a zero gradient
    gives a zero step, not 0/0. The descent stops before the line search
    once the Newton decrement lambda^2 = -g.S is at most 2 tol^2 (Boyd and
    Vandenberghe, Convex Optimization, 9.5.1): the gap to the minimum is
    then about lambda^2 / 2 <= tol^2, so log cap is accurate to tol, and the
    last evaluation is the one reported. An Armijo line search halves S
    until the value falls by 1e-4 of the predicted decrease, less twice the
    rounding of the trial and of f, which adds up the rounding of the kept
    changes; a trial whose value is not finite, or whose marginal reads
    singular, a breakdown past the rank gate, is refused. As a fallback for
    runs that rounding keeps from the decrement test, the descent also ends
    when the line search gives out, or when a step no longer lowers a
    gradient norm of at most _STALL_GRAD. Returns the value, R, the gradient
    norm, the steps kept and the last one's length. Raises _Degenerate when
    T(X) at the start reads singular.
    """
    r = np.eye(a.shape[2], dtype=complex) if r is None else r
    w, c, _ = _whitened(a @ r)
    f, err, grad, hess, c = _chart_terms(c, basis)
    f += float(np.sum(np.log(w))) / a.shape[1]
    grad_norm, steps, last = float(np.linalg.norm(grad)), 0, 0.0
    while steps < _NEWTON_MAX_STEPS:
        w, v = np.linalg.eigh(hess)
        shifted = np.maximum(w, 0.0) + grad_norm
        keep = shifted > _CURVATURE_FLOOR
        step = -v[:, keep] @ ((v[:, keep].T @ grad) / shifted[keep])
        if -float(grad @ step) <= 2 * tol * tol:
            break
        decrease = 1e-4 * float(grad @ step)
        for _ in range(_MAX_BACKTRACKS):
            move = expm_hermitian(np.tensordot(0.5 * step, basis, axes=1))
            with suppress(_Degenerate):  # refused, like a value that is not finite
                change, err_next, grad_next, hess_next, c_next = _chart_terms(c @ move, basis)
                if change <= decrease + 2 * (err + err_next):
                    break
            step, decrease = 0.5 * step, 0.5 * decrease
        else:
            break
        norm_next = float(np.linalg.norm(grad_next))
        if grad_norm <= _STALL_GRAD and not norm_next < grad_norm:
            break
        r, f, err, c = r @ move, f + change, err + err_next, c_next
        grad, hess, grad_norm = grad_next, hess_next, norm_next
        steps, last = steps + 1, float(np.linalg.norm(step))
    return f, r, grad_norm, steps, last


def cap_direct_pd(t: CPOperator, tol: float = 1e-9) -> CapacityReport:
    """Minimize the capacity ratio over positive definite X by regularized
    Newton descent in the geodesic chart (_newton_descent) from X = I, once
    _zero_capacity has found cap(T) > 0 (Degenerate otherwise).

    The objective is geodesically convex, so the one start at X = I reaches
    the value that any other start would. tol is the accuracy asked of log
    cap: the descent stops once its Newton decrement lambda^2 is at most
    2 tol^2. The residual is the final geodesic gradient norm; NoConvergence
    marks a residual above max(tol, 1e-8), and InfimumNotAttained a run
    whose steps kept a length above _UNATTAINED_STEP to the end while the
    gradient fell under _STALL_GRAD, an infimum approached but not attained.
    The iterations count Newton steps. SingularEvaluation is raised when
    T(I) reads singular past the gate, its condition beyond about 1e16.
    """
    return _cap_direct(t, tol)[0]


def _cap_direct(
    t: CPOperator, tol: float, start: np.ndarray | None = None
) -> tuple[CapacityReport, np.ndarray | None]:
    """cap_direct_pd started from X = R R*, R = start (I by default), and the
    final R (None when Degenerate). A start near the minimizer saves steps
    and, the objective being geodesically convex, reaches the same value."""
    a = t._kraus_stack
    if _zero_capacity(a):
        return CapacityReport(0.0, Method.DIRECT_PD, 0.0, 0, None, ("Degenerate",)), None
    try:
        f, r, grad_norm, steps, last = _newton_descent(a, _herm_basis(t.n), tol, start)
    except _Degenerate:
        raise SingularEvaluation("T(X) at the start reads singular past the rank gate") from None
    flags = ("NoConvergence",) if grad_norm > max(tol, 1e-8) else ()
    if last > _UNATTAINED_STEP and grad_norm <= _STALL_GRAD:
        flags = ("InfimumNotAttained",) + flags
    x = hermitian_part(r @ r.conj().T)
    report = CapacityReport(float(np.exp(f)), Method.DIRECT_PD, grad_norm, steps, {"x": x}, flags)
    return report, r


class _Point(NamedTuple):
    """The unitary search's record of one evaluation: U, the Psi solve of
    T_U, and _whitened's w and G at X = U diag(e^y*) U*, y* the inner
    minimizer, where the oracle has a gradient (None elsewhere)."""

    u: np.ndarray
    psi: PsiResult
    w: np.ndarray | None = None
    g: np.ndarray | None = None


class _NoGradient(Exception):
    """Internal signal: g has no gradient at this U; args are the value,
    the point's _Point and whether a start that stops here converged."""


def _unitary_oracle(a: np.ndarray, h: np.ndarray, tol: float) -> tuple[float, np.ndarray, _Point]:
    """Value g = (1/m) log Psi(T_U) at U = exp(iH), Psi solved to tol, its
    exact gradient, and the point's _Point.

    a is the raw (K, m, n) Kraus stack of T. The gradient is the Hermitian
    matrix Z with d/ds g(exp(i(H + sE))) = Re tr(Z E). By the envelope
    theorem the inner minimizer y* stays fixed, so with D = diag(exp y*) and
    G = T*(T(X)^-1) at X = U D U*, dg = (2/m) Re tr(D U* G dU), and dU is
    V (L o V* i dH V) V* with L the divided differences of exp(i.) at the
    eigenvalues of H = V diag(w) V*. _whitened on A U D^(1/2) gives
    D^(1/2) U* G U D^(1/2). Raises _NoGradient where the infimum is not
    attained, and where T(X) reads as singular: past the rank gates that is
    a numerical breakdown, and a start that stops on it is not converged.
    """
    m = a.shape[1]
    w, vec = eigh(h)
    u = (vec * np.exp(1j * w)) @ vec.conj().T  # exp(iH)
    b = a @ u
    res = _diag_psi(b, tol)
    value, point = math.log(res.value) / m, _Point(u, res)
    if res.classification.tag is not HullTag.INTERIOR_ZERO:
        raise _NoGradient(value, point, True)
    root = np.exp(0.5 * res.minimizer)  # D^(1/2)
    try:
        wt, _, g = _whitened(b * root)
    except _Degenerate:
        raise _NoGradient(value, point, False) from None
    dgu = g * (root[:, None] / root)  # D U* G U
    gamma = 1j * _exp_divided_differences(1j * w)  # divided differences of exp(i.)
    inner = (vec.conj().T @ dgu @ u.conj().T @ vec) * gamma.T
    return value, (2.0 / m) * (vec @ inner @ vec.conj().T), point._replace(w=wt, g=g)


_PSI_TOL = 1e-10  # Psi tolerance of every unitary-search evaluation

# The weight margin gamma(n, m) of _diag_exponents(n, m): the least distance
# from 0 to conv(S) over the exponent subsets S with 0 outside conv(S),
# rounded down so that the certificate stays valid. The tests re-derive each
# entry; other shapes get no certificate, as the enumeration is not run at
# run time ((5, 5) takes 72 s).
_MARGINS = {
    (2, 2): 1.414213562373,  # sqrt(2)
    (2, 3): 0.707106781186,  # 1/sqrt(2)
    (3, 2): 0.408248290463,  # 1/sqrt(6)
    (3, 3): 0.462910049886,  # sqrt(3/14)
    (4, 4): 0.143222974807,  # 2/sqrt(195)
}


def _certified_lower(w: np.ndarray, g: np.ndarray, y: np.ndarray) -> float:
    """A certified lower bound on log cap(T) from the eigenvalues w of T(X)
    and G = T*(T(X)^-1) at X = U diag(e^y) U*, as _whitened gives them on
    A U diag(e^(y/2)): it holds at every X, and is tight near the minimizer.

    Commutative duality (Buergisser, Franks, Garg, Oliveira, Walter and
    Wigderson, "Towards a theory of non-commutative optimization", FOCS
    2019): an exponential sum Phi with weight margin gamma has
    inf Phi >= Phi(0) (1 - |grad log Phi(0)| / gamma). On the stack
    b = A U diag(e^((y - mean y)/2)), with |det| = 1 so that cap(T_b) =
    cap(T), every diagonal problem of T_b V, V unitary, has
    log Phi(0) / m = f = (1/m) sum(log w) - mean y and a gradient of norm
    at most |G - (m/n) I|_F (G does not change with the shift); cap^m is
    the infimum of those Psi over V. So log cap >= f - err +
    (1/m) log(1 - |G - (m/n) I|_F / gamma), with err the rounding of
    _geodesic_terms plus eps sum|y| for the shift; -inf when the shape has
    no margin or the log is undefined. At n = 1 no exponent subset leaves 0
    outside its hull, so the margin is infinite and the bound is f - err.
    """
    m, n = len(w), len(y)
    margin = math.inf if n == 1 else _MARGINS.get((n, m))
    if margin is None:
        return -math.inf
    logs = np.log(w)
    f = float(np.sum(logs)) / m - float(np.mean(y))
    err = float(np.finfo(float).eps * (np.sum(w[-1] / w + np.abs(logs)) / m + np.sum(np.abs(y))))
    slack = 1.0 - float(np.linalg.norm(g - (m / n) * np.eye(n))) / margin
    return f + math.log(slack) / m - err if slack > 0 else -math.inf


def cap_unitary_search(
    t: CPOperator, tol: float = 1e-9, restarts: int = 8, seed: int = 0
) -> CapacityReport:
    """cap(T) as inf over unitaries U of the diagonal capacity of T_U.

    cap(T) = 0, which the search would only approach through unattained
    infima, is decided up front by _zero_capacity. Otherwise BFGS runs over
    U = exp(iH), H traceless Hermitian (the global phase of U does not
    change cap0), on g(U) = (1/m) log Psi(T_U) with the exact envelope
    gradient of _unitary_oracle; identity start plus seeded random
    restarts. Each evaluation solves Psi once, to _PSI_TOL, into a _Point,
    and the report is the winning start's last _Point. With n = 1, U is a
    phase and the one point, the identity, is evaluated without BFGS.

    restarts is the most starts run, at least 1 (ConfigError otherwise).
    After each start the search keeps L, the largest certified lower bound
    on log cap so far (_certified_lower at the _Point where a start
    stopped, none where its infimum is not attained), and stops once the
    best value is within sqrt(tol) of L, the scale of the gradient test
    below, or once a start's value is within tol of the best before it. The
    certificate rejects near-stationary points above the infimum, as the
    identity of criterion-06 draw 7199. The report's lower is exp(L), 0.0
    when no start is certified.

    A restart that reaches a U whose diagonal infimum is not attained stops
    there (g has no gradient at such a U); when it wins, the report flags
    InfimumNotAttained. tol is the accuracy asked of g, so the gradient
    test is |grad g| <= sqrt(tol); NoConvergence marks a winning restart
    that stopped short of it, or on a numerical breakdown of the oracle.
    The report's iterations count objective evaluations.
    """
    if restarts < 1:
        raise ConfigError(f"restarts must be at least 1, got {restarts}")
    a = t._kraus_stack
    if _zero_capacity(a):
        return CapacityReport(0.0, Method.PSI_UNITARY, 0.0, 0, None, ("Degenerate",))
    n, dim = t.n, t.n * t.n - 1
    basis = _herm_basis(n)
    flat_basis = basis.reshape(dim, n * n).conj()
    evals, points = 0, {}  # the _Point of each evaluated v, by v.tobytes()

    def objective(v: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evals
        evals += 1
        h = np.tensordot(v, basis, axes=1)
        val, grad, points[v.tobytes()] = _unitary_oracle(a, h, _PSI_TOL)
        return val, (flat_basis @ grad.reshape(n * n)).real

    # Near a minimum the value error is about |grad|^2, so tol on the value
    # asks for sqrt(tol) on the gradient; below 1e-7 the line search can no
    # longer resolve the decrease in double precision.
    options = {"gtol": math.sqrt(max(tol, 1e-14)), "maxiter": 200}
    rng = np.random.default_rng(seed)
    starts = [np.zeros(dim)] + [0.8 * rng.standard_normal(dim) for _ in range(restarts - 1)]
    best, lower = (math.inf, None, True), -math.inf  # value, _Point, converged of the winner
    try:
        for v0 in starts if dim else starts[:1]:
            try:
                if dim:  # res.x is a point BFGS evaluated
                    res = minimize(objective, v0, jac=True, method="BFGS", options=options)
                    found = (float(res.fun), points[res.x.tobytes()], bool(res.success))
                else:  # n = 1: U is a phase, so the identity is the one point
                    found = (objective(v0)[0], points[v0.tobytes()], True)
            except _NoGradient as stop:
                found = stop.args
            point = found[1]
            if point.w is not None:
                lower = max(lower, _certified_lower(point.w, point.g, point.psi.minimizer))
            agreed = abs(found[0] - best[0]) <= tol
            if found[0] < best[0]:
                best = found
            if agreed or best[0] - lower <= options["gtol"]:
                break
    except _Degenerate:  # Psi of some T_U underflows: past the rank gate, not cap = 0
        raise SingularEvaluation("Psi of T_U underflowed past the rank gate") from None
    _, point, converged = best
    report = replace(_psi_report(point.psi, t.m, evals, point.u), lower=math.exp(lower))
    return report if converged else replace(report, flags=report.flags + ("NoConvergence",))


def _distance_from_scalar(h: np.ndarray, c: float) -> float:
    """Frobenius distance of h from c I over sqrt(dimension)."""
    diff = h.copy()
    diff.flat[:: len(h) + 1] -= c
    return float(np.linalg.norm(diff)) / math.sqrt(len(h))


def _whiten_marginal(gram: np.ndarray, side: str) -> tuple[np.ndarray, np.ndarray]:
    """_whiten under the scaling route's gate: SingularMarginal when the
    smallest eigenvalue is at most 1e-12 of the largest. The gate is
    relative, so it does not depend on the scale of the data."""
    try:
        w, f = _whiten(gram)
        if w[0] > 1e-12 * w[-1]:
            return w, f
    except _Degenerate:
        pass
    raise SingularMarginal(f"{side} marginal is numerically singular")


def cap_via_scaling(
    t: CPOperator, max_steps: int = 2000, residual_tol: float = 1e-8
) -> CapacityReport:
    """Capacity through alternating marginal normalization, for every shape.

    cap(T) = 0, which the loop would only approach, is decided up front by
    _zero_capacity. Otherwise the loop alternately normalizes T(I) to I_m
    and T*(I) to (m/n) I_n, the doubly stochastic form of an m x n operator
    (Garg, Gurvits, Oliveira and Wigderson 2016), on the raw Kraus stack.
    The row step whitens T(I) with
    _whiten, A_k -> F* A_k, and gains (1/m) sum(log w) in log cap; the
    column step is the same step on the adjoint stack, whitening
    (n/m) T*(I), A_k -> A_k F, with a gain of (1/n) sum(log w), since
    cap(S A R) = |det S|^(2/m) |det R|^(2/n) cap(A). The gains accumulated
    along the way recover the capacity of the original operator once both
    marginals are balanced; the witness X = R R*, R the product of the
    column steps' F, is exact for the reported value by construction.
    SingularMarginal is raised when a marginal to be whitened spans more
    than 1e12 (_whiten_marginal), which does not by itself make cap(T) = 0.
    """
    a = t._kraus_stack
    if _zero_capacity(a):
        return CapacityReport(0.0, Method.SCALING, 0.0, 0, None, ("Degenerate",))
    log_corr, r, steps = 0.0, np.eye(t.n, dtype=complex), 0
    while True:
        # Only the marginal the next step whitens is formed, as the last step
        # left the other at I; both decide the stop once it passes residual_tol.
        q = _gram(a) if steps % 2 == 0 else None  # T(I)
        p = None if steps % 2 == 0 else _gram(a.conj().transpose(0, 2, 1))  # T*(I)
        near = _distance_from_scalar(q, 1.0) if p is None else _distance_from_scalar(p, t.m / t.n)
        if near <= residual_tol or steps == max_steps:
            q = _gram(a) if q is None else q
            p = _gram(a.conj().transpose(0, 2, 1)) if p is None else p
            residual = max(_distance_from_scalar(q, 1.0), _distance_from_scalar(p, t.m / t.n))
            if residual <= residual_tol or steps == max_steps:
                break
        if steps % 2 == 0:
            w, f = _whiten_marginal(q, "row")
            a, dim = f.conj().T @ a, t.m
        else:  # the row step on the adjoint stack: A_k* -> F* A_k*
            w, f = _whiten_marginal((t.n / t.m) * p, "column")
            a, r, dim = a @ f, r @ f, t.n
        log_corr += float(np.sum(np.log(w))) / dim
        steps += 1
    flags = ("NoConvergence",) if residual > residual_tol else ()
    try:
        w, _ = _whiten(q)
    except _Degenerate:
        raise SingularMarginal("final row marginal lost positivity") from None
    value = float(np.exp(log_corr + np.sum(np.log(w)) / t.m))
    x = hermitian_part(r @ r.conj().T)
    return CapacityReport(value, Method.SCALING, residual, steps, {"x": x}, flags)


# Relative rounding allowed between a certified lower bound and a value; the
# certificate has its own rounding subtracted already, so this covers the
# value's.
_LOWER_SLACK = 1e-12


def cap(t: CPOperator, config: CapacityConfig | None = None) -> CapacityReport:
    """Best-effort capacity with optional independent cross-checks.

    The primary route is the direct positive definite descent; enabling
    check_psi or check_scaling records agreement data from the other
    routes in cross_checks without changing the reported value. A scaling
    check stopped by SingularMarginal leaves its entries out and adds the
    flag ScalingSingularMarginal instead. When the unitary check's certified
    lower bound exceeds the reported value by more than rounding
    (_LOWER_SLACK), the value is wrong, and the flag CertifiedLowerAboveValue
    says so; the value stays as it is.
    """
    cfg = config or CapacityConfig()
    report = cap_direct_pd(t, tol=cfg.tol)
    cross, flags = {}, report.flags
    if cfg.check_psi:
        other = cap_unitary_search(t, tol=cfg.tol, restarts=cfg.restarts_unitary, seed=cfg.seed)
        cross["psi_unitary"] = other.value
        cross["psi_unitary_delta"] = abs(other.value - report.value)
        if other.lower is not None and other.lower > report.value * (1.0 + _LOWER_SLACK):
            flags += ("CertifiedLowerAboveValue",)
    if cfg.check_scaling:
        try:
            other = cap_via_scaling(t)
        except SingularMarginal:
            flags += ("ScalingSingularMarginal",)
        else:
            cross["scaling"] = other.value
            cross["scaling_delta"] = abs(other.value - report.value)
    return replace(report, flags=flags, cross_checks=cross)


def report_to_dict(report: CapacityReport) -> dict:
    witness = None if report.witness is None else {
        key: _matrix_json(val) if np.ndim(val) == 2 else [float(v) for v in np.asarray(val, float)]
        for key, val in report.witness.items()
    }
    return {
        "value": report.value,
        "method": report.method.value,
        "residual": report.residual,
        "iterations": report.iterations,
        "witness": witness,
        "flags": list(report.flags),
        "cross_checks": {k: float(v) for k, v in report.cross_checks.items()},
        "lower": report.lower,
    }


def report_to_json(report: CapacityReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)
