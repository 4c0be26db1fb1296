"""Weighted exponential sums Phi_d(y) = sum_j d_j exp(<y, u_j>) and their infima.

The infimum Psi(d) = inf_y Phi_d(y) is controlled by where the origin sits
relative to the convex hull of the exponent vectors carrying positive weight:

* strictly inside: the infimum is attained, found by damped Newton on
  log Phi restricted to the span of the active exponents;
* on the boundary: the infimum equals the infimum over the minimal face
  containing the origin and is approached but not attained;
* outside: the infimum is zero along a separating direction.

A hull question first tries a certificate that needs no linear program:
the Gibbs weights at the minimizer of the uniform log-sum-exp are a strictly
positive barycentric representation of the origin whenever it is interior.
Only the supports that certificate declines (boundary, exterior, or interior
too close to the boundary) go to small linear programs, the one classifier
of faces and separation. Classification results are cached by support
geometry because capacity searches evaluate thousands of problems sharing
one exponent family; each cache entry also holds the orthonormal span basis
of the active exponents, so a Psi solve on a known geometry needs neither an
LP nor an SVD. scipy.optimize is imported on the first LP, not with the
module.
"""
from __future__ import annotations

import enum
import hashlib
import json
import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapaxError,
    DeltaTooLarge,
    DimensionMismatch,
    EmptySupport,
    InfeasibleMoment,
    NotSupported,
    ParseError,
    SupportViolation,
)

__all__ = [
    "ExpSumProblem",
    "HullTag",
    "HullClassification",
    "PsiResult",
    "phi_eval",
    "grad_hess",
    "classify_hull",
    "psi_minimize",
    "near_minimizer",
    "semicontinuity_bound",
    "entropy_dual",
    "kl_divergence",
    "problem_to_json",
    "problem_from_json",
    "psi_result_to_dict",
]

# Classification uses two separated scales: the membership LP relaxes the
# hull equality by _MEMBER_ETA_REL (absorbing float rounding of the exponent
# data), while a barycentric weight only counts as interior when it clears
# the much larger _WEIGHT_TOL. Boundary cases produce weights of order eta,
# interior cases produce macroscopic weights, so the gap keeps them apart.
_WEIGHT_TOL = 1e-7
_MEMBER_ETA_REL = 1e-11
_DEFAULT_SUPPORT_REL = 1e-14
# Newton budget of the interior certificate: coefficient-grid interiors converge
# in at most 7 steps, origins 1e-5 inside a face in about 15, and a decline
# delays the LP by at most this many.
_CERTIFICATE_MAX_ITER = 20

_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


@dataclass(frozen=True)
class ExpSumProblem:
    """Exponent vectors u (N x n) with aligned nonnegative weights d (N)."""

    u: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if u.ndim != 2 or u.shape[0] == 0:
            raise DimensionMismatch(f"u must be a nonempty (N, n) array, got shape {u.shape}")
        if d.shape != (u.shape[0],):
            raise DimensionMismatch(
                f"d must align with u: expected shape ({u.shape[0]},), got {d.shape}"
            )
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(d))):
            raise DimensionMismatch("u and d must be finite")
        floor = -1e-12 * max(1.0, float(np.abs(d).max(initial=0.0)))
        if d.min(initial=0.0) < floor:
            raise CapaxError(f"weights must be nonnegative, got minimum {d.min():.3e}")
        u = u.copy()
        d = np.maximum(d, 0.0)
        u.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d", d)

    @property
    def num_terms(self) -> int:
        return self.u.shape[0]

    @property
    def dim(self) -> int:
        return self.u.shape[1]


class HullTag(str, enum.Enum):
    INTERIOR_ZERO = "InteriorZero"
    BOUNDARY_ZERO = "BoundaryZero"
    EXTERIOR_ZERO = "ExteriorZero"


@dataclass(frozen=True)
class HullClassification:
    """Position of the origin relative to the hull of the supported exponents.

    _terms (the absolute indices of the active exponents: the support, or the
    face on the boundary) and _basis (an orthonormal basis of their span, as
    columns) come from the same cache lookup and feed the Psi solve; they
    are not part of the value, so they are neither compared nor shown.
    """

    tag: HullTag
    active_face: tuple[int, ...] | None = None
    _terms: np.ndarray | None = field(default=None, compare=False, repr=False)
    _basis: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PsiResult:
    value: float
    minimizer: np.ndarray | None
    classification: HullClassification
    grad_residual: float
    iterations: int
    converged: bool = True


def phi_eval(problem: ExpSumProblem, y) -> float:
    """Evaluate Phi_d(y) with a max-shift guard against overflow."""
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.dim,):
        raise DimensionMismatch(f"y must have shape ({problem.dim},), got {y.shape}")
    mask = problem.d > 0
    if not mask.any():
        return 0.0
    t = problem.u[mask] @ y
    shift = t.max()
    s = float(np.sum(problem.d[mask] * np.exp(t - shift)))
    with np.errstate(over="ignore"):
        return float(np.exp(shift + np.log(s)))


def grad_hess(problem: ExpSumProblem, y) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and Hessian of Phi_d at y."""
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.dim,):
        raise DimensionMismatch(f"y must have shape ({problem.dim},), got {y.shape}")
    weights = problem.d * np.exp(problem.u @ y)
    grad = problem.u.T @ weights
    hess = problem.u.T @ (problem.u * weights[:, None])
    return grad, 0.5 * (hess + hess.T)


def _default_support_eps(d: np.ndarray) -> float:
    top = float(d.max(initial=0.0))
    return _DEFAULT_SUPPORT_REL * top


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _feasible_alpha_lp(u_sup: np.ndarray, eta: float, objective: np.ndarray):
    """Maximize objective @ [alpha, s] over alpha >= s >= 0, sum(alpha) = 1,
    |sum_j alpha_j u_j|_inf <= eta. Returns (linprog status, [alpha, s] or None).

    The LP is solved in alpha = s + beta with beta >= 0, so the N rows
    alpha_j >= s become variable bounds and only the 2n hull rows and the
    normalization remain.
    """
    s_count = u_sup.shape[0]
    hull_rows = np.hstack([u_sup.T, u_sup.sum(axis=0)[:, None]])
    res = linprog(
        -np.append(objective[:s_count], objective.sum()),
        A_ub=np.vstack([hull_rows, -hull_rows]),
        b_ub=np.full(2 * u_sup.shape[1], eta),
        A_eq=np.append(np.ones(s_count), s_count)[None, :],
        b_eq=[1.0],
        bounds=(0.0, 1.0),
        method="highs",
    )
    if res.x is None:
        return res.status, None
    return res.status, np.append(res.x[:s_count] + res.x[s_count], res.x[s_count])


def _gibbs_certifies_interior(u_sup: np.ndarray, basis: np.ndarray, eta: float) -> bool:
    """True when the Gibbs weights p at the minimizer of log sum_j exp(<y, u_j>)
    prove the origin interior: min p >= 10 _WEIGHT_TOL, |u_sup^T p|_inf <= eta
    and sum p = 1 make [p, min p] a feasible point of _feasible_alpha_lp whose
    minimum weight clears _WEIGHT_TOL, so the LP would answer interior too.
    Newton aims at eta / 2 so that rounding between span and original
    coordinates cannot carry a converged p past eta."""
    _, p, _, _, _, _ = _newton_log_phi(
        u_sup @ basis, np.zeros(u_sup.shape[0]), 0.5 * eta, _CERTIFICATE_MAX_ITER
    )
    return bool(
        p.min() >= 10.0 * _WEIGHT_TOL
        and np.abs(u_sup.T @ p).max() <= eta
        and abs(p.sum() - 1.0) <= 1e-12
    )


def _analyze_hull(
    u_sup: np.ndarray, basis: np.ndarray | None = None
) -> tuple[HullTag, tuple[int, ...] | None]:
    """Classify the origin against conv(rows of u_sup); face indices are
    positions within u_sup.

    basis, the span basis of u_sup (computed here when not given), feeds the
    interior certificate; supports it declines go to _analyze_hull_lp.
    """
    scale = float(np.abs(u_sup).max(initial=0.0))
    if scale == 0.0:
        return HullTag.INTERIOR_ZERO, None
    eta = _MEMBER_ETA_REL * max(1.0, scale)
    if basis is None:
        basis = _span_basis(u_sup)
    if _gibbs_certifies_interior(u_sup, basis, eta):
        return HullTag.INTERIOR_ZERO, None
    return _analyze_hull_lp(u_sup, eta)


def _analyze_hull_lp(u_sup: np.ndarray, eta: float) -> tuple[HullTag, tuple[int, ...] | None]:
    """The LP classifier: membership within eta and the maximal minimum
    weight in one LP, then one LP per term to find the minimal face."""
    s_count = u_sup.shape[0]
    obj = np.zeros(s_count + 1)
    obj[s_count] = 1.0
    status, x = _feasible_alpha_lp(u_sup, eta, obj)
    if status == 2:
        return HullTag.EXTERIOR_ZERO, None
    if status != 0:
        raise CapaxError(f"hull membership LP failed with status {status}")
    min_weight = float(x[s_count])
    if min_weight >= _WEIGHT_TOL:
        return HullTag.INTERIOR_ZERO, None

    # boundary: the minimal face holds exactly the indices that can carry weight
    in_face = x[:s_count] > _WEIGHT_TOL
    for j in range(s_count):
        if in_face[j]:
            continue
        obj_j = np.zeros(s_count + 1)
        obj_j[j] = 1.0
        status_j, x_j = _feasible_alpha_lp(u_sup, eta, obj_j)
        if status_j == 0 and float(x_j[j]) > _WEIGHT_TOL:
            in_face[j] = True
    face = tuple(int(i) for i in np.flatnonzero(in_face))
    if len(face) == 0:
        raise CapaxError("boundary face detection returned an empty face")
    return HullTag.BOUNDARY_ZERO, face


def _span_basis(u_act: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) for the row span of u_act."""
    if u_act.size == 0:
        return np.zeros((u_act.shape[1], 0))
    _, svals, vt = np.linalg.svd(u_act, full_matrices=False)
    if svals.size == 0 or svals[0] == 0.0:
        return np.zeros((u_act.shape[1], 0))
    rank = int(np.sum(svals > 1e-12 * svals[0]))
    return vt[:rank].T


_HullEntry = tuple[HullTag, tuple[int, ...] | None, np.ndarray | None]


def _hull_entry(u_sup: np.ndarray) -> _HullEntry:
    """_analyze_hull's answer plus the read-only span basis of the active
    rows (all of u_sup inside, the face on the boundary, none outside); the
    basis of u_sup serves both the interior certificate and the entry."""
    basis = _span_basis(u_sup)
    tag, face = _analyze_hull(u_sup, basis)
    if tag is HullTag.EXTERIOR_ZERO:
        return tag, face, None
    if face is not None:
        basis = _span_basis(u_sup[list(face)])
    basis.setflags(write=False)
    return tag, face, basis


class _HullCache:
    """Bounded LRU map from the support geometry to _hull_entry's answer.

    The key is a 16-byte BLAKE2b digest of the exponent bytes plus the shape,
    so an entry costs the same however many terms the support has, plus its
    basis of at most n * n floats. cache_info() reports hits, misses,
    maxsize and currsize.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._hits = self._misses = 0

    def __call__(self, u_sup: np.ndarray) -> _HullEntry:
        key = (hashlib.blake2b(u_sup, digest_size=16).digest(), u_sup.shape)
        if key in self._entries:
            self._hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self._misses += 1
        value = self._entries[key] = _hull_entry(u_sup)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return value

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self.maxsize, len(self._entries))


_cached_hull = _HullCache(maxsize=4096)


def classify_hull(problem: ExpSumProblem) -> HullClassification:
    """Classify the origin against the hull of the exponents whose weight
    exceeds 1e-14 times the largest weight.

    The active face, reported for boundary cases, lists absolute term indices
    of the minimal face containing the origin.
    """
    support_eps = _default_support_eps(problem.d)
    support = np.flatnonzero(problem.d > support_eps)
    if support.size == 0:
        raise EmptySupport(f"no weight exceeds the support threshold {support_eps:.3e}")
    tag, face_rel, basis = _cached_hull(np.ascontiguousarray(problem.u[support]))
    if tag is HullTag.BOUNDARY_ZERO:
        terms = support[list(face_rel)]
        return HullClassification(tag, tuple(int(j) for j in terms), terms, basis)
    return HullClassification(tag, None, support, basis)


def _newton_log_phi(
    w: np.ndarray, logd: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, float, float, int, bool]:
    """Damped Newton for f(z) = log sum exp(w @ z + logd); returns
    (z, gibbs weights, f, |grad|, iterations, converged)."""
    rank = w.shape[1]
    eye = np.eye(rank)

    def evaluate(z):
        t = w @ z + logd
        shift = float(t.max())
        q = np.exp(t - shift)
        s = q.sum()
        return shift + math.log(s), q / s

    z = np.zeros(rank)
    f, p = evaluate(z)
    grad = w.T @ p
    grad_norm = math.sqrt(grad @ grad)
    it = 0
    converged = grad_norm <= tol
    # Backtracking halves the step until the sufficient-decrease test holds
    # or the trial point equals z in rounding, which ends the solve. There is
    # no fixed floor on alpha: where the Gibbs weights are nearly degenerate
    # the Hessian rounds to the ridge and a Newton step can be ~1e41 long,
    # far more halvings than such a floor allows. The test gets a few ulps of
    # slack so that once f reaches its floating point floor the full Newton
    # step is still accepted and keeps polishing the gradient.
    slack = 4.0 * np.finfo(float).eps
    while not converged and it < max_iter:
        hess = w.T @ (w * p[:, None]) - grad[:, None] * grad
        ridge = 1e-13 * max(hess.trace() / max(rank, 1), 1e-30)
        hess += ridge * eye
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        descent = float(grad @ step)
        if descent >= 0:
            step = -grad
            descent = -float(grad @ grad)
        floor = slack * max(1.0, abs(f))
        alpha = 1.0
        z_next = z + step
        while (z_next != z).any():
            f_new, p_new = evaluate(z_next)
            if f_new <= f + 1e-4 * alpha * descent + floor:
                break
            alpha *= 0.5
            z_next = z + alpha * step
        else:
            break
        z = z_next
        f, p = f_new, p_new
        grad = w.T @ p
        grad_norm = math.sqrt(grad @ grad)
        it += 1
        converged = grad_norm <= tol
    return z, p, f, grad_norm, it, converged


def psi_minimize(problem: ExpSumProblem, tol: float = 1e-10, max_iter: int = 200) -> PsiResult:
    """Compute Psi(d) = inf_y Phi_d(y) together with hull diagnostics.

    Exterior origin gives value 0 with no minimizer. Boundary origin reports
    the infimum over the minimal face; the returned point minimizes the face
    restriction (the full infimum is approached along a recession direction).
    Interior origin gives the attained minimum with gradient residual of
    log Phi below tol. A solve that stops short of tol returns
    converged=False and its value is an upper bound.
    """
    cls = classify_hull(problem)
    if cls.tag is HullTag.EXTERIOR_ZERO:
        return PsiResult(0.0, None, cls, 0.0, 0, True)
    active, basis = cls._terms, cls._basis
    z, _, f, grad_norm, iterations, converged = _newton_log_phi(
        problem.u[active] @ basis, np.log(problem.d[active]), tol, max_iter
    )
    return PsiResult(float(np.exp(f)), basis @ z, cls, grad_norm, iterations, converged)


def _separating_direction(
    u_face: np.ndarray, u_off: np.ndarray
) -> tuple[np.ndarray, float]:
    """Direction w with <w, u> = 0 on the face and <w, u> <= -c < 0 off it."""
    n = u_face.shape[1]
    num_off = u_off.shape[0]
    # variables [w (n), c]; maximize c
    a_ub = np.hstack([u_off, np.ones((num_off, 1))])
    b_ub = np.zeros(num_off)
    a_eq = np.hstack([u_face, np.zeros((u_face.shape[0], 1))])
    b_eq = np.zeros(u_face.shape[0])
    obj = np.zeros(n + 1)
    obj[n] = 1.0
    bounds = [(-1.0, 1.0)] * n + [(0.0, None)]
    res = linprog(-obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0 or res.x[n] <= 1e-12:
        raise CapaxError("failed to find a strictly separating face direction")
    return res.x[:n], float(res.x[n])


def near_minimizer(problem: ExpSumProblem, delta: float) -> tuple[np.ndarray, float]:
    """A point y with Phi_d(y) <= Psi(d) + delta, plus its sup norm.

    For interior problems the exact minimizer qualifies for every delta. For
    boundary problems the face minimizer is pushed along a recession
    direction just far enough, so the norm grows like log(1/delta).
    """
    if not (delta > 0):
        raise DeltaTooLarge(f"delta must be positive, got {delta}")
    result = psi_minimize(problem)
    if result.classification.tag is HullTag.EXTERIOR_ZERO:
        raise NotSupported("near-minimizer construction needs the origin inside the hull")
    y = result.minimizer
    if result.classification.tag is HullTag.INTERIOR_ZERO:
        return y, float(np.abs(y).max(initial=0.0))

    face = np.array(result.classification.active_face, dtype=int)
    support_eps = _default_support_eps(problem.d)
    support = np.flatnonzero(problem.d > support_eps)
    off = np.setdiff1d(support, face)
    if off.size == 0:
        return y, float(np.abs(y).max(initial=0.0))
    tail = float(np.sum(problem.d[off] * np.exp(problem.u[off] @ y)))
    if tail <= delta:
        return y, float(np.abs(y).max(initial=0.0))
    direction, gap = _separating_direction(problem.u[face], problem.u[off])
    # aim for 0.9 delta so roundoff cannot push Phi past the target
    t = math.log(tail / (0.9 * delta)) / gap
    candidate = y + t * direction
    for _ in range(60):
        if phi_eval(problem, candidate) <= result.value + delta:
            break
        t *= 1.3
        candidate = y + t * direction
    else:
        raise CapaxError("recession push failed to reach the near-minimizer target")
    return candidate, float(np.abs(candidate).max(initial=0.0))


def semicontinuity_bound(
    problem: ExpSumProblem, d_new, delta: float
) -> tuple[bool, float]:
    """Check Psi(d_new) >= (1 - delta/delta0) * Psi(d) for a perturbed weight vector.

    delta0 is the smallest strictly positive weight of the reference problem;
    the perturbation must satisfy max|d_new - d| < delta < delta0, otherwise
    DeltaTooLarge is raised. Returns (holds, slack) where slack is the margin
    by which the inequality is satisfied (tiny solver slack is tolerated).
    """
    d_ref = problem.d
    positive = d_ref[d_ref > 0]
    if positive.size == 0:
        raise EmptySupport("reference weights are all zero")
    delta0 = float(positive.min())
    d_new = np.asarray(d_new, dtype=float)
    if d_new.shape != d_ref.shape:
        raise DimensionMismatch(f"d must have shape {d_ref.shape}, got {d_new.shape}")
    dist = float(np.abs(d_new - d_ref).max(initial=0.0))
    if not (dist < delta < delta0):
        raise DeltaTooLarge(
            f"need max|d_new - d| < delta < delta0, got dist={dist:.3e}, "
            f"delta={delta:.3e}, delta0={delta0:.3e}"
        )
    psi_ref = psi_minimize(problem).value
    psi_new = psi_minimize(ExpSumProblem(problem.u, d_new)).value
    bound = (1.0 - delta / delta0) * psi_ref
    slack = psi_new - bound
    return bool(slack >= -1e-9 * max(psi_ref, 1.0)), float(slack)


def entropy_dual(problem: ExpSumProblem, theta, tol: float = 1e-8) -> tuple[np.ndarray, float]:
    """Solve the maximum-entropy program with moment target theta.

    Maximizes sum_j p_j log(d_j / p_j) over probability vectors supported on
    supp(d) with sum_j p_j u_j = theta. The optimum is computed through the
    dual inf_y log sum_j d_j exp(<y, u_j - theta>) and the optimal p is the
    Gibbs vector at the dual minimizer. Raises InfeasibleMoment when theta
    falls outside the hull of the supported exponents.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (problem.dim,):
        raise DimensionMismatch(f"theta must have shape ({problem.dim},), got {theta.shape}")
    shifted = ExpSumProblem(problem.u - theta[None, :], problem.d)
    cls = classify_hull(shifted)
    if cls.tag is HullTag.EXTERIOR_ZERO:
        raise InfeasibleMoment("theta lies outside the hull of the supported exponents")
    active = cls._terms
    _, p_act, f_dual, grad_norm, _, converged = _newton_log_phi(
        shifted.u[active] @ cls._basis, np.log(problem.d[active]), min(1e-12, tol * 1e-4), 400
    )
    p_full = np.zeros(problem.num_terms)
    p_full[active] = p_act
    mask = p_full > 0
    value = float(np.sum(p_full[mask] * (np.log(problem.d[mask]) - np.log(p_full[mask]))))
    gap = abs(value - f_dual)
    if not converged and gap > tol:
        raise CapaxError(
            f"entropy dual failed to close the duality gap: gap={gap:.3e}, "
            f"gradient residual {grad_norm:.3e}"
        )
    return p_full, value


def kl_divergence(p, d) -> float:
    """Generalized Kullback-Leibler divergence sum_j p_j log(p_j / d_j).

    p must be a probability vector; d is any nonnegative weight vector.
    Mass on a zero weight raises SupportViolation; 0 log 0 counts as 0.
    """
    p = np.asarray(p, dtype=float)
    d = np.asarray(d, dtype=float)
    if p.shape != d.shape or p.ndim != 1:
        raise DimensionMismatch(f"p and d must be aligned vectors, got {p.shape} vs {d.shape}")
    if p.min(initial=0.0) < -1e-12 or abs(p.sum() - 1.0) > 1e-8:
        raise SupportViolation("p must be a probability vector")
    mask = p > 0
    if np.any(d[mask] <= 0):
        raise SupportViolation("p puts mass where d vanishes")
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(d[mask]))))


def problem_to_json(problem: ExpSumProblem) -> str:
    return json.dumps(
        {"u": [[float(v) for v in row] for row in problem.u], "d": [float(v) for v in problem.d]}
    )


def problem_from_json(text: str) -> ExpSumProblem:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "u" not in payload or "d" not in payload:
        raise ParseError("top level: expected an object with keys 'u' and 'd'")
    u_obj, d_obj = payload["u"], payload["d"]
    if not isinstance(u_obj, list) or len(u_obj) == 0:
        raise ParseError("u: expected a nonempty list of vectors")
    width = None
    rows = []
    for i, row in enumerate(u_obj):
        if not isinstance(row, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in row
        ):
            raise ParseError(f"u[{i}]: expected a list of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"u[{i}]: expected {width} entries, got {len(row)}")
        rows.append([float(v) for v in row])
    if not isinstance(d_obj, list) or len(d_obj) != len(rows):
        raise ParseError(f"d: expected {len(rows)} weights")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in d_obj):
        raise ParseError("d: expected a list of numbers")
    try:
        return ExpSumProblem(np.array(rows, dtype=float), np.array(d_obj, dtype=float))
    except CapaxError as exc:
        raise ParseError(str(exc)) from exc


def psi_result_to_dict(result: PsiResult) -> dict:
    return {
        "value": result.value,
        "classification": result.classification.tag.value,
        "active_face": (
            list(result.classification.active_face)
            if result.classification.active_face is not None
            else None
        ),
        "minimizer": (
            [float(v) for v in result.minimizer] if result.minimizer is not None else None
        ),
        "grad_residual": result.grad_residual,
        "iterations": result.iterations,
        "converged": result.converged,
    }
