"""Capacity of a completely positive operator.

cap(T) is the infimum of det(T(X))^(1/m) / det(X)^(1/n) over positive
definite X. Three routes are implemented:

* ``cap_direct_pd``: quasi-Newton descent over unit-determinant positive
  matrices X = exp(H) with H traceless Hermitian;
* ``cap_unitary_search``: cap(T) = inf_U cap0(T_U) where cap0 restricts X
  to diagonal matrices and reduces to a weighted exponential sum, so the
  outer search runs over unitaries only;
* ``cap_via_scaling``: alternate row and column marginal normalization
  (square case only), accumulating determinant corrections.

All routes return a CapacityReport carrying the value, a witness when one
exists, solver residuals, and flags for degenerate or non-converged runs.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from .coeffs import d_leibniz
from .cpop import CPOperator, apply, dual_apply
from .errors import (
    CapaxError,
    NotSupported,
    SingularEvaluation,
    SingularMarginal,
    SingularMatrix,
)
from .expsum import ExpSumProblem, HullTag, PsiResult, psi_minimize
from .linalg import eigh, expm_hermitian, hermitian_part, psd_inv_sqrt

__all__ = [
    "Method",
    "CapacityConfig",
    "CapacityReport",
    "ScalingState",
    "diag_problem",
    "cap0",
    "cap_direct_pd",
    "cap_unitary_search",
    "scaling_step",
    "cap_via_scaling",
    "cap",
    "capacity_ratio",
    "report_to_dict",
    "report_to_json",
]


class Method(str, enum.Enum):
    PSI_UNITARY = "psi_unitary"
    DIRECT_PD = "direct_pd"
    SCALING = "scaling"


@dataclass(frozen=True)
class CapacityConfig:
    tol: float = 1e-9
    psi_tol: float = 1e-10
    restarts_direct: int = 4
    restarts_unitary: int = 8
    seed: int = 0
    check_psi: bool = False
    check_scaling: bool = False
    scaling_max_steps: int = 2000
    scaling_residual_tol: float = 1e-8
    degenerate_drop: float = 40.0


@dataclass(frozen=True)
class CapacityReport:
    value: float
    method: Method
    residual: float
    iterations: int
    witness: dict | None = None
    flags: tuple[str, ...] = ()
    cross_checks: dict = field(default_factory=dict)


def diag_problem(t: CPOperator | np.ndarray) -> ExpSumProblem:
    """Exponential-sum form of the diagonal restriction of T (a CPOperator
    or a raw (K, m, n) Kraus stack).

    det(T(diag(lam))) is a polynomial with coefficient vector d over the
    degree-m multi-indices j; substituting lam_i = exp(y_i) and dividing by
    the homogeneous normalization gives Phi_d over exponents u_j = j - (m/n) 1.
    """
    cv = d_leibniz(t)
    jarr = np.array(cv.indices, dtype=float)
    u = jarr - (cv.m / cv.n) * np.ones(cv.n)
    return ExpSumProblem(u, cv.values)


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
    """Internal signal: det(T(X)) or Psi collapses to zero, so cap(T) = 0."""


def _diag_psi(t: CPOperator | np.ndarray, tol: float, max_iter: int = 200) -> PsiResult:
    """Psi of the diagonal restriction; raises _Degenerate when it vanishes."""
    prob = diag_problem(t)
    if float(prob.d.max(initial=0.0)) <= 1e-300:
        raise _Degenerate
    res = psi_minimize(prob, tol=tol, max_iter=max_iter)
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


def _logdet_oracle(t: CPOperator, h: np.ndarray) -> tuple[float, np.ndarray]:
    """Value f(H) = (1/m) log det T(exp H) and its exact gradient.

    The gradient is the Hermitian matrix M with d/ds f(H + sE) = Re tr(M E)
    for every Hermitian E. With G = T*(T(X)^-1) at X = exp(H) and
    H = U diag(w) U*, the Daleckii-Krein formula gives
    M = (1/m) U (L o U* G U) U*, where L holds the divided differences of
    exp at w and o is the entrywise product. Raises _Degenerate when T(X)
    is singular.
    """
    # expm_hermitian inlined: the same eigh supplies the divided differences.
    w, u = eigh(h)
    x = hermitian_part((u * np.exp(w)) @ u.conj().T)
    wt, vt = eigh(apply(t, x))
    if wt.min(initial=1.0) <= 0:
        raise _Degenerate
    value = float(np.sum(np.log(wt)) / t.m)
    g = dual_apply(t, (vt / wt) @ vt.conj().T)
    inner = _exp_divided_differences(w) * (u.conj().T @ g @ u)
    return value, (u @ inner @ u.conj().T) / t.m


def cap_direct_pd(
    t: CPOperator,
    tol: float = 1e-9,
    restarts: int = 4,
    seed: int = 0,
    degenerate_drop: float = 40.0,
) -> CapacityReport:
    """Minimize the capacity ratio over X = exp(H), H traceless Hermitian.

    det(X) = 1 on this chart, so the objective is (1/m) log det(T(exp H)),
    descended by BFGS with the exact gradient from _logdet_oracle.
    Degeneracy (capacity zero) is declared when the objective falls more
    than degenerate_drop below its value at X = I, or T(X) loses rank. The
    flag NoConvergence marks a result whose best restart did not meet the
    optimizer's stopping test.
    """
    n, m = t.n, t.m
    w0, _ = eigh(apply(t, np.eye(n, dtype=complex)))
    if w0.min(initial=1.0) <= 0:
        return CapacityReport(0.0, Method.DIRECT_PD, 0.0, 0, None, ("Degenerate",))
    f_ref = float(np.sum(np.log(w0)) / m)
    floor = f_ref - degenerate_drop

    dim = n * n - 1
    if dim == 0:
        return CapacityReport(
            float(np.exp(f_ref)),
            Method.DIRECT_PD,
            0.0,
            0,
            {"x": np.eye(1, dtype=complex)},
            (),
        )

    basis = _herm_basis(n)
    flat_basis = basis.reshape(dim, n * n).conj()

    def objective(v: np.ndarray) -> tuple[float, np.ndarray]:
        val, grad = _logdet_oracle(t, np.tensordot(v, basis, axes=1))
        if val < floor:
            raise _Degenerate
        return val, (flat_basis @ grad.reshape(n * n)).real

    rng = np.random.default_rng(seed)
    starts = [np.zeros(dim)] + [
        0.3 * rng.standard_normal(dim) for _ in range(max(restarts - 1, 0))
    ]
    best = None
    iterations = 0
    try:
        for v0 in starts:
            res = minimize(
                objective,
                v0,
                jac=True,
                method="BFGS",
                options={"gtol": max(tol, 1e-8), "maxiter": 300},
            )
            iterations += int(res.nit)
            if best is None or res.fun < best.fun:
                best = res
    except _Degenerate:
        return CapacityReport(0.0, Method.DIRECT_PD, 0.0, iterations, None, ("Degenerate",))

    x_best = expm_hermitian(np.tensordot(best.x, basis, axes=1))
    return CapacityReport(
        float(np.exp(best.fun)),
        Method.DIRECT_PD,
        float(np.linalg.norm(best.jac)),
        iterations,
        {"x": x_best},
        () if best.success else ("NoConvergence",),
    )


class _NotInterior(Exception):
    """Internal signal: the diagonal infimum of T_U is not attained, so the
    envelope gradient does not exist at U."""


def _unitary_expand(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U = exp(iH) for Hermitian H, with the eigenpairs (w, V) of H."""
    w, vec = eigh(h)
    return (vec * np.exp(1j * w)) @ vec.conj().T, w, vec


def _unitary_oracle(
    a: np.ndarray, h: np.ndarray, search_tol: float
) -> tuple[float, np.ndarray | None]:
    """Value g = (1/m) log Psi(T_U) at U = exp(iH) and its exact gradient.

    a is the raw (K, m, n) Kraus stack of T. The gradient is the Hermitian
    matrix Z with d/ds g(exp(i(H + sE))) = Re tr(Z E). By the envelope
    theorem the inner minimizer y* stays fixed, so with D = diag(exp y*) and
    G = T*(T(X)^-1) at X = U D U*, dg = (2/m) Re tr(D U* G dU), and dU is
    V (L o V* i dH V) V* with L the divided differences of exp(i.) at the
    eigenvalues of H = V diag(w) V*. Z is None when the infimum is not
    attained, where g has no gradient.
    """
    m = a.shape[1]
    u, w, vec = _unitary_expand(h)
    b = a @ u
    res = _diag_psi(b, search_tol, max_iter=80)
    value = math.log(res.value) / m
    if res.classification.tag is not HullTag.INTERIOR_ZERO:
        return value, None
    e = np.exp(res.minimizer)
    bh = b.conj().transpose(0, 2, 1)
    wt, vt = eigh(((b * e) @ bh).sum(axis=0))
    gu = (bh @ ((vt / wt) @ vt.conj().T) @ b).sum(axis=0)  # U* G U
    gamma = 1j * _exp_divided_differences(1j * w)  # divided differences of exp(i.)
    inner = (vec.conj().T @ (e[:, None] * gu) @ u.conj().T @ vec) * gamma.T
    return value, (2.0 / m) * (vec @ inner @ vec.conj().T)


def cap_unitary_search(
    t: CPOperator,
    tol: float = 1e-9,
    restarts: int = 8,
    seed: int = 0,
    psi_tol: float = 1e-10,
    search_tol: float = 1e-8,
) -> CapacityReport:
    """cap(T) as inf over unitaries U of the diagonal capacity of T_U.

    BFGS over U = exp(iH), H traceless Hermitian (the global phase of U does
    not change cap0), on g(U) = (1/m) log Psi(T_U) with the exact envelope
    gradient of _unitary_oracle; identity start plus seeded random
    restarts, a cheap exponential-sum solve per evaluation and one tight
    solve at the winner. A restart that reaches a U whose diagonal infimum
    is not attained stops there (g has no gradient at such a U); when it
    wins, the tight solve flags InfimumNotAttained. tol is the accuracy
    asked of g, so the gradient test is |grad g| <= sqrt(tol); NoConvergence
    marks a winning restart that stopped short of it. The report's
    iterations count objective evaluations.
    """
    n, m = t.n, t.m
    a = t._kraus_stack
    dim = n * n - 1
    basis = _herm_basis(n)
    flat_basis = basis.reshape(dim, n * n).conj()
    # Near a minimum the value error is about |grad|^2, so tol on the value
    # asks for sqrt(tol) on the gradient; below 1e-7 the line search can no
    # longer resolve the decrease in double precision.
    options = {"gtol": math.sqrt(max(tol, 1e-14)), "maxiter": 200}
    stop = {"evals": 0}

    def objective(v: np.ndarray) -> tuple[float, np.ndarray]:
        stop["evals"] += 1
        val, grad = _unitary_oracle(a, np.tensordot(v, basis, axes=1), search_tol)
        if grad is None:
            stop.update(f=val, v=v.copy())
            raise _NotInterior
        return val, (flat_basis @ grad.reshape(n * n)).real

    rng = np.random.default_rng(seed)
    starts = [np.zeros(dim)] + [0.8 * rng.standard_normal(dim) for _ in range(restarts - 1)]
    best_f, best_v, best_ok = math.inf, np.zeros(dim), True
    try:
        for v0 in starts if dim else ():  # n = 1: nothing to search
            try:
                res = minimize(objective, v0, jac=True, method="BFGS", options=options)
                f, v, ok = float(res.fun), res.x, bool(res.success)
            except _NotInterior:
                f, v, ok = stop["f"], stop["v"], True
            if f < best_f:
                best_f, best_v, best_ok = f, v, ok
        u_best = _unitary_expand(np.tensordot(best_v, basis, axes=1))[0]
        final = _diag_psi(a @ u_best, psi_tol)
    except _Degenerate:
        return CapacityReport(
            0.0, Method.PSI_UNITARY, 0.0, stop["evals"], None, ("Degenerate",)
        )
    report = _psi_report(final, m, stop["evals"], u_best)
    return report if best_ok else replace(report, flags=report.flags + ("NoConvergence",))


@dataclass(frozen=True)
class ScalingState:
    """One snapshot of the alternating marginal normalization.

    col_transform accumulates the right factors applied to the input side,
    so X = R R* converts a balanced state back into a witness for the
    original operator.
    """

    op: CPOperator
    log_correction: float
    step: int
    row_residual: float
    col_residual: float
    col_transform: np.ndarray


def _marginal_residuals(op: CPOperator) -> tuple[float, float]:
    n, m = op.n, op.m
    q = apply(op, np.eye(n, dtype=complex))
    p = dual_apply(op, np.eye(m, dtype=complex))
    r_row = float(np.linalg.norm(q - np.eye(m)) / math.sqrt(m))
    r_col = float(np.linalg.norm(p - np.eye(n)) / math.sqrt(n))
    return r_row, r_col


def _log_det_pd(h: np.ndarray, context: str) -> float:
    w, _ = eigh(h)
    if float(w.min()) <= 1e-12 * max(float(w.max()), 1e-300):
        raise SingularMarginal(f"{context} marginal is numerically singular")
    return float(np.sum(np.log(w)))


def scaling_step(state: ScalingState, side: str) -> ScalingState:
    """Normalize one marginal (side "row" or "col") and track corrections."""
    op = state.op
    if side == "row":
        q = apply(op, np.eye(op.n, dtype=complex))
        log_det = _log_det_pd(q, "row")
        s = psd_inv_sqrt(q)
        kraus = tuple(s @ a for a in op.kraus)
        new_op = CPOperator(kraus)
        log_corr = state.log_correction + log_det / op.m
        col_t = state.col_transform
    elif side == "col":
        p = dual_apply(op, np.eye(op.m, dtype=complex))
        log_det = _log_det_pd(p, "column")
        s = psd_inv_sqrt(p)
        kraus = tuple(a @ s for a in op.kraus)
        new_op = CPOperator(kraus)
        log_corr = state.log_correction + log_det / op.n
        col_t = state.col_transform @ s
    else:
        raise CapaxError(f"unknown scaling side {side!r}")
    r_row, r_col = _marginal_residuals(new_op)
    return ScalingState(new_op, log_corr, state.step + 1, r_row, r_col, col_t)


def cap_via_scaling(
    t: CPOperator, max_steps: int = 2000, residual_tol: float = 1e-8
) -> CapacityReport:
    """Capacity through alternating marginal normalization (square case).

    The determinant corrections accumulated along the way recover the
    capacity of the original operator once both marginals are balanced;
    the witness is exact for the reported value by construction.
    """
    if t.n != t.m:
        raise NotSupported("marginal scaling needs square operators (n == m)")
    r_row, r_col = _marginal_residuals(t)
    state = ScalingState(t, 0.0, 0, r_row, r_col, np.eye(t.n, dtype=complex))
    sides = ("row", "col")
    steps = 0
    while max(state.row_residual, state.col_residual) > residual_tol and steps < max_steps:
        state = scaling_step(state, sides[steps % 2])
        steps += 1
    flags: list[str] = []
    if max(state.row_residual, state.col_residual) > residual_tol:
        flags.append("NoConvergence")
    w, _ = eigh(apply(state.op, np.eye(t.n, dtype=complex)))
    if w.min(initial=1.0) <= 0:
        raise SingularMarginal("final row marginal lost positivity")
    value = float(np.exp(state.log_correction + np.sum(np.log(w)) / t.m))
    x = hermitian_part(state.col_transform @ state.col_transform.conj().T)
    residual = float(max(state.row_residual, state.col_residual))
    return CapacityReport(
        value, Method.SCALING, residual, steps, {"x": x}, tuple(flags)
    )


def cap(t: CPOperator, config: CapacityConfig | None = None) -> CapacityReport:
    """Best-effort capacity with optional independent cross-checks.

    The primary route is the direct positive definite descent; enabling
    check_psi or check_scaling records agreement data from the other
    routes in cross_checks without changing the reported value.
    """
    cfg = config or CapacityConfig()
    report = cap_direct_pd(
        t,
        tol=cfg.tol,
        restarts=cfg.restarts_direct,
        seed=cfg.seed,
        degenerate_drop=cfg.degenerate_drop,
    )
    cross: dict = {}
    if cfg.check_psi:
        other = cap_unitary_search(
            t,
            tol=cfg.tol,
            restarts=cfg.restarts_unitary,
            seed=cfg.seed,
            psi_tol=cfg.psi_tol,
        )
        cross["psi_unitary"] = other.value
        cross["psi_unitary_delta"] = abs(other.value - report.value)
    if cfg.check_scaling and t.n == t.m:
        other = cap_via_scaling(
            t, max_steps=cfg.scaling_max_steps, residual_tol=cfg.scaling_residual_tol
        )
        cross["scaling"] = other.value
        cross["scaling_delta"] = abs(other.value - report.value)
    if cross:
        report = replace(report, cross_checks=cross)
    return report


def report_to_dict(report: CapacityReport) -> dict:
    witness = None
    if report.witness is not None:
        witness = {}
        for key, val in report.witness.items():
            arr = np.asarray(val)
            if arr.ndim == 2:
                witness[key] = _matrix_json(arr)
            else:
                witness[key] = [float(v) for v in np.asarray(arr, dtype=float)]
    return {
        "value": report.value,
        "method": report.method.value,
        "residual": report.residual,
        "iterations": report.iterations,
        "witness": witness,
        "flags": list(report.flags),
        "cross_checks": {k: float(v) for k, v in report.cross_checks.items()},
    }


def report_to_json(report: CapacityReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)
