"""Empirical continuity probes for the capacity map.

Capacity is continuous but not Lipschitz; near degeneracy it behaves like a
root of the distance. This module measures that behavior: perturb a base
operator along a fixed direction at dyadic scales, record operator distance
against capacity change, and fit a power law |dcap| ~ C * dist^alpha on the
samples that rise above solver noise. A family sampler aggregates the same
measurement over random nearby pairs.

Every probe solves with the direct route at the given tol (default 1e-10),
the accuracy asked of each log cap. Solves are warm-started: a sweep runs
its scales in ascending order, each from the witness of the solve before,
the first from the base's, and a pair solves its second operator from the
witness of its first. The objective is geodesically convex, so a start
changes the steps, not the value. All exponents reported here are empirical
fits, not certified bounds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import _cap_direct
from .cpop import CPOperator, distance, op_norm, random_cp
from .errors import DimensionMismatch, ParseError

__all__ = [
    "ProbeRun",
    "FamilySummary",
    "CompactFamily",
    "perturb",
    "random_direction",
    "scaling_direction",
    "probe_pair",
    "run_probe",
    "estimate_family_modulus",
    "export_csv",
    "load_probe_csv",
]

_DEFAULT_NOISE_FLOOR = 1e-9
_MIN_FIT_SAMPLES = 4


@dataclass(frozen=True)
class ProbeRun:
    """One perturbation sweep: samples rows are (scale, dist, dcap)."""

    base: CPOperator
    direction: tuple[np.ndarray, ...]
    samples: np.ndarray
    fitted_alpha: float | None = None
    fitted_logc: float | None = None
    r_squared: float | None = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class FamilySummary:
    """Pooled pair measurements: samples rows are (dist, dcap)."""

    count: int
    samples: np.ndarray
    min_alpha: float | None = None
    max_ratio: float | None = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class CompactFamily:
    """Sampler for operators with spectral norm capped at radius."""

    n: int
    m: int
    num_kraus: int
    radius: float = 2.0
    seed: int = 0

    def sample(self, rng=None) -> CPOperator:
        rng = np.random.default_rng(self.seed if rng is None else rng)
        scale = 1.0 / np.sqrt(self.n * self.num_kraus)
        t = random_cp(self.n, self.m, self.num_kraus, scale=scale, rng=rng)
        norm = op_norm(t)
        if norm > self.radius:
            shrink = np.sqrt(self.radius / norm)
            t = CPOperator(tuple(shrink * a for a in t.kraus))
        return t


def _check_direction(base: CPOperator, direction) -> tuple[np.ndarray, ...]:
    direction = tuple(np.asarray(d, dtype=complex) for d in direction)
    if len(direction) != len(base.kraus) or any(
        d.shape != a.shape for d, a in zip(direction, base.kraus)
    ):
        raise DimensionMismatch("direction must match the base Kraus list shape for shape")
    return direction


def _normalize_direction(parts: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    total = np.sqrt(sum(float(np.linalg.norm(p) ** 2) for p in parts))
    if total == 0.0:
        raise DimensionMismatch("direction must be nonzero")
    return tuple(p / total for p in parts)


def perturb(base: CPOperator, direction, scale: float) -> CPOperator:
    """Base operator shifted by scale times the Kraus-space direction."""
    direction = _check_direction(base, direction)
    return CPOperator(tuple(a + scale * d for a, d in zip(base.kraus, direction)))


def random_direction(base: CPOperator, rng=None) -> tuple[np.ndarray, ...]:
    """Unit Frobenius-norm Gaussian direction in Kraus space."""
    rng = np.random.default_rng(rng)
    parts = tuple(
        (rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)) / np.sqrt(2.0)
        for a in base.kraus
    )
    return _normalize_direction(parts)


def scaling_direction(base: CPOperator) -> tuple[np.ndarray, ...]:
    """Direction along the base itself; capacity responds with exponent one."""
    return _normalize_direction(base.kraus)


def probe_pair(t1: CPOperator, t2: CPOperator, tol: float = 1e-10) -> tuple[float, float]:
    """Operator distance and absolute capacity difference for one pair; t2 is
    solved from the witness of t1."""
    r1, start = _cap_direct(t1, tol)
    r2, _ = _cap_direct(t2, tol, start)
    return distance(t1, t2), abs(r1.value - r2.value)


def _fit_loglog(
    dists: np.ndarray, dcaps: np.ndarray, noise_floor: float
) -> tuple[tuple[float, float, float] | None, np.ndarray, tuple[str, ...]]:
    """Least-squares fit log dcap = slope log dist + intercept, as (slope,
    intercept, r2), over the usable samples, those with dcap above
    noise_floor and dist > 0; also the usable mask and the flags. With
    fewer than _MIN_FIT_SAMPLES usable the fit is None and a flag says why:
    AllFlat when none is usable, InsufficientSamples otherwise."""
    usable = (dcaps > noise_floor) & (dists > 0)
    if int(usable.sum()) < _MIN_FIT_SAMPLES:
        return None, usable, ("InsufficientSamples",) if usable.any() else ("AllFlat",)
    x = np.log(dists[usable])
    y = np.log(dcaps[usable])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return (float(slope), float(intercept), r2), usable, ()


def run_probe(
    base: CPOperator,
    direction,
    scales=None,
    tol: float = 1e-10,
    noise_floor: float = _DEFAULT_NOISE_FLOOR,
) -> ProbeRun:
    """Sweep dyadic perturbation scales and fit the local power law.

    The default scales 2^-7 ... 2^-17 keep the fit in the local regime: at
    larger scales second-order terms of cap can change the sign of the
    difference. The rows follow the order of scales, though the solves run
    in ascending scale. The fit uses only samples whose capacity change
    exceeds noise_floor and needs at least four of them; otherwise the
    fitted fields stay None and a flag records why.
    """
    direction = _check_direction(base, direction)
    if scales is None:
        scales = 2.0 ** -np.arange(7, 18)
    scales = np.asarray(scales, dtype=float)

    base_report, start = _cap_direct(base, tol)
    if "Degenerate" in base_report.flags:
        return ProbeRun(base, direction, np.zeros((0, 3)), flags=("DegenerateBase",))

    samples = np.zeros((len(scales), 3))
    for i in np.argsort(scales, kind="stable"):
        shifted = perturb(base, direction, float(scales[i]))
        other, witness = _cap_direct(shifted, tol, start)
        start = start if witness is None else witness
        samples[i] = scales[i], distance(base, shifted), abs(other.value - base_report.value)

    fit, _, flags = _fit_loglog(samples[:, 1], samples[:, 2], noise_floor)
    alpha, logc, r2 = fit or (None, None, None)
    return ProbeRun(base, direction, samples, alpha, logc, r2, flags)


def estimate_family_modulus(
    family: CompactFamily,
    pairs: int = 20,
    tol: float = 1e-10,
    noise_floor: float = _DEFAULT_NOISE_FLOOR,
    seed=None,
) -> FamilySummary:
    """Pool random nearby pairs from the family and fit one power law.

    min_alpha is the pooled log-log slope, max_ratio the worst observed
    dcap / dist^min_alpha. Deterministic for a fixed seed.
    """
    root = np.random.SeedSequence(family.seed if seed is None else seed)
    results = []
    for child in root.spawn(pairs):
        rng = np.random.default_rng(child)
        base = family.sample(rng)
        direction = random_direction(base, rng)
        scale = 10.0 ** rng.uniform(-6.0, -1.0)
        results.append(probe_pair(base, perturb(base, direction, scale), tol))
    samples = np.array(results) if results else np.zeros((0, 2))
    fit, usable, flags = _fit_loglog(samples[:, 0], samples[:, 1], noise_floor)
    if fit is None:
        return FamilySummary(pairs, samples, flags=flags)
    dists, dcaps = samples[usable, 0], samples[usable, 1]
    max_ratio = float(np.max(dcaps / dists ** fit[0]))
    return FamilySummary(pairs, samples, fit[0], max_ratio, flags)


def export_csv(result, path) -> None:
    """Write a ProbeRun or FamilySummary as CSV with a comment footer."""
    lines = []
    if isinstance(result, ProbeRun):
        lines.append("scale,dist,dcap")
        for scale, dist, dcap in result.samples:
            lines.append(f"{float(scale)!r},{float(dist)!r},{float(dcap)!r}")
        if result.fitted_alpha is not None:
            lines.append(
                f"# alpha={result.fitted_alpha!r}, logC={result.fitted_logc!r}, "
                f"r2={result.r_squared!r}"
            )
    elif isinstance(result, FamilySummary):
        lines.append("dist,dcap")
        for dist, dcap in result.samples:
            lines.append(f"{float(dist)!r},{float(dcap)!r}")
        if result.min_alpha is not None:
            lines.append(f"# min_alpha={result.min_alpha!r}, max_ratio={result.max_ratio!r}")
    else:
        raise DimensionMismatch(f"cannot export {type(result).__name__} as CSV")
    if result.flags:
        lines.append("# flags=" + ";".join(result.flags))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def load_probe_csv(path) -> dict:
    """Read back an exported probe CSV: samples plus any fitted footer values."""
    with open(path) as handle:
        raw = [line.strip() for line in handle if line.strip()]
    if not raw:
        raise ParseError("empty probe CSV")
    header = raw[0].split(",")
    rows = []
    meta: dict = {}
    for line in raw[1:]:
        if line.startswith("#"):
            body = line.lstrip("# ")
            for piece in body.split(","):
                if "=" not in piece:
                    continue
                key, val = piece.split("=", 1)
                key = key.strip()
                val = val.strip()
                if key == "flags":
                    meta[key] = val
                else:
                    try:
                        meta[key] = float(val)
                    except ValueError as exc:
                        raise ParseError(f"bad footer value for {key}: {val!r}") from exc
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ParseError(f"row width {len(parts)} does not match header {len(header)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"bad numeric row: {line!r}") from exc
    samples = np.array(rows) if rows else np.zeros((0, len(header)))
    return {"columns": header, "samples": samples, **meta}
