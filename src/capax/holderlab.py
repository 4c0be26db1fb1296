"""Empirical continuity probes for the capacity map.

Capacity is continuous but not Lipschitz; near degeneracy it behaves like a
root of the distance. This module measures that behavior: perturb a base
operator along a fixed direction at dyadic scales, record operator distance
against capacity change, and fit a power law |dcap| ~ C * dist^alpha on the
samples that rise above solver noise. A family sampler aggregates the same
measurement over random nearby pairs.

Every probe solves with cap_direct_pd at the given tol (default 1e-10).
All exponents reported here are empirical fits, not certified bounds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import cap_direct_pd
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
    """Operator distance and absolute capacity difference for one pair."""
    r1 = cap_direct_pd(t1, tol=tol)
    r2 = cap_direct_pd(t2, tol=tol)
    return distance(t1, t2), abs(r1.value - r2.value)


def _fit_loglog(dists: np.ndarray, dcaps: np.ndarray) -> tuple[float, float, float]:
    x = np.log(dists)
    y = np.log(dcaps)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def run_probe(
    base: CPOperator,
    direction,
    scales=None,
    tol: float = 1e-10,
    noise_floor: float = _DEFAULT_NOISE_FLOOR,
) -> ProbeRun:
    """Sweep dyadic perturbation scales and fit the local power law.

    The fit uses only samples whose capacity change exceeds noise_floor and
    needs at least four of them; otherwise the fitted fields stay None and
    a flag records why.
    """
    direction = _check_direction(base, direction)
    if scales is None:
        scales = 2.0 ** -np.arange(2, 13)
    scales = np.asarray(scales, dtype=float)
    flags: list[str] = []

    base_report = cap_direct_pd(base, tol=tol)
    if "Degenerate" in base_report.flags:
        return ProbeRun(base, direction, np.zeros((0, 3)), flags=("DegenerateBase",))

    rows = []
    for s in scales:
        shifted = perturb(base, direction, float(s))
        dist = distance(base, shifted)
        other = cap_direct_pd(shifted, tol=tol)
        rows.append((float(s), dist, abs(other.value - base_report.value)))
    samples = np.array(rows)

    usable = (samples[:, 2] > noise_floor) & (samples[:, 1] > 0)
    alpha = logc = r2 = None
    if int(usable.sum()) >= _MIN_FIT_SAMPLES:
        alpha, logc, r2 = _fit_loglog(samples[usable, 1], samples[usable, 2])
    elif not usable.any():
        flags.append("AllFlat")
    else:
        flags.append("InsufficientSamples")
    return ProbeRun(base, direction, samples, alpha, logc, r2, tuple(flags))


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

    flags: list[str] = []
    min_alpha = max_ratio = None
    usable = (
        (samples[:, 1] > noise_floor) & (samples[:, 0] > 0) if samples.size else np.zeros(0, bool)
    )
    if int(usable.sum()) >= _MIN_FIT_SAMPLES:
        min_alpha, _, _ = _fit_loglog(samples[usable, 0], samples[usable, 1])
        max_ratio = float(
            np.max(samples[usable, 1] / samples[usable, 0] ** min_alpha)
        )
    elif not usable.any():
        flags.append("AllFlat")
    else:
        flags.append("InsufficientSamples")
    return FamilySummary(pairs, samples, min_alpha, max_ratio, tuple(flags))


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
