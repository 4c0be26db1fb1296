"""The benchmark's four workloads.

Each workload draws item i's input from (seed, i) alone, runs one item as a
single client would (the next starts when the previous returns), and checks
the item's output against the gate of the acceptance criterion it comes
from. ``run`` returns None when the item passes and a reason when it fails.

Library calls go through the ``capax`` module attributes, never through
names imported here, so the tracer's wrappers see them.
"""
from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys

import numpy as np

import capax

# Warm-up inputs come from a seed no run uses, so a warm-up never fills a
# cache entry that a timed item of any run then hits.
WARMUP_SEED = 1 << 40


class Workload:
    name: str
    min_items: int  # a run never stops before this many items
    default_seed: int
    heldout_seed: int  # kept out of tuning, to confirm claims on unseen inputs
    contention_sensitivity: float  # see speed.py; fitted per workload in NOTES.md
    cycle = 1  # items per whole cycle of input kinds
    max_fail_frac = 0.0  # the run is correct while failed/attempted stays within this

    def sensitivity(self, i: int) -> float:
        """Contention sensitivity of item i (speed.py)."""
        return self.contention_sensitivity

    def prepare(self, seed: int) -> None:
        """Set-up that every item shares (files on disk, for instance)."""

    def make_input(self, seed: int, i: int):
        raise NotImplementedError

    def warmup_input(self, seed: int):
        return self.make_input(WARMUP_SEED, 0)

    def run(self, inp) -> str | None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what prepare made."""


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-30)


class RouteAgreement(Workload):
    """Criterion 06: cap with the unitary-search and scaling cross-checks.

    Operators follow the criterion-06 draw (Kraus seed = seed + i, K from
    {2, 3}, scale 1/sqrt(nK)) with n = 2 for every item; base 7000 gives
    criterion 06's even-indexed operators.
    """

    name = "route-agreement"
    min_items = 24
    default_seed = 7000
    heldout_seed = 17000
    contention_sensitivity = 0.9
    config = capax.CapacityConfig(restarts_unitary=4, check_psi=True, check_scaling=True)

    def make_input(self, seed, i):
        rng = np.random.default_rng(seed + i)
        n = 2
        k = int(rng.integers(2, 4))
        return capax.random_cp(n, n, k, scale=1.0 / np.sqrt(n * k), rng=rng)

    def run(self, t):
        report = capax.cap(t, self.config)
        direct = report.value
        if not (math.isfinite(direct) and direct > 0):
            return f"direct value {direct!r} is not positive"
        psi = _rel(report.cross_checks["psi_unitary"], direct)
        scaled = _rel(report.cross_checks["scaling"], direct)
        if psi > 1e-4:
            return f"unitary search off by {psi:.2e} relative (tol 1e-4)"
        if scaled > 1e-3:
            return f"scaling off by {scaled:.2e} relative (tol 1e-3)"
        return None


class CoeffGrid(Workload):
    """Criteria 01 and 08: three coefficient routes, cap0, and entropy duals.

    Shapes (n, m, K) repeat in a fixed cycle. Each item also draws 8 moment
    targets theta, random convex combinations of the exponents that can carry
    weight (those with every j_l <= K), so each is a fresh hull classification.
    The warm-up item has shape (5, 5, 5): the first d_interpolate call at that
    size pays about 1 s of one-time numpy/BLAS start-up, which belongs in
    set-up rather than in the first timed cycle.
    """

    name = "coeff-grid"
    shapes = ((2, 2, 2), (3, 3, 3), (4, 4, 4), (5, 5, 5), (6, 6, 3), (3, 4, 2), (4, 3, 3))
    cycle = len(shapes)
    min_items = 7 * len(shapes)
    default_seed = 9000
    heldout_seed = 19000
    # (6,6,3) items are bulk numpy inside d_leibniz and slow less under
    # contention than the interpreter- and LP-bound items of the other shapes
    contention_sensitivity = 0.6
    bulk_sensitivity = 0.35
    thetas = 8

    def make_input(self, seed, i):
        n, m, k = self.shapes[i % len(self.shapes)]
        rng = np.random.default_rng(seed + i)
        t = capax.random_cp(n, m, k, scale=1.0 / np.sqrt(n * k), rng=rng)
        index = np.array(capax.enumerate_multiindices(n, m), dtype=float)
        u = index - m / n
        support = index.max(axis=1) <= k
        weights = rng.dirichlet(np.ones(int(support.sum())), size=self.thetas)
        return t, u, weights @ u[support]

    def warmup_input(self, seed):
        return self.make_input(WARMUP_SEED, self.shapes.index((5, 5, 5)))

    def sensitivity(self, i):
        if self.shapes[i % len(self.shapes)] == (6, 6, 3):
            return self.bulk_sensitivity
        return self.contention_sensitivity

    def run(self, inp):
        t, u, thetas = inp
        ref = capax.d_leibniz(t)
        for label, other in (
            ("cauchy-binet", capax.d_cauchy_binet(t)),
            ("interpolate", capax.d_interpolate(t)),
        ):
            gaps = np.abs(ref.values - other.values)
            bounds = 1e-12 + 1e-9 * np.maximum(np.abs(ref.values), np.abs(other.values))
            worst = float((gaps / bounds).max())
            if worst > 1.0:
                return f"{label} coefficients off by {worst:.2f} of the tolerance"
        value = capax.cap0(t).value
        if not (math.isfinite(value) and value > 0):
            return f"cap0 value {value!r} is not positive"
        problem = capax.ExpSumProblem(u, ref.values)
        for theta in thetas:
            _, primal = capax.entropy_dual(problem, theta)
            shifted = capax.ExpSumProblem(u - theta[None, :], ref.values)
            dual = math.log(capax.psi_minimize(shifted, tol=1e-11).value)
            if abs(primal - dual) > 1e-6:
                return f"entropy duality gap {abs(primal - dual):.2e} (tol 1e-6)"
        return None


class ProbeFamily(Workload):
    """Criterion 10: continuity probes, with a family sweep every fifth item.

    Probe item i takes a base operator from a fixed panel, the i-th sample of
    CompactFamily(n, m, K, radius 2, seed 42) drawn from criterion 10's seed
    sequence (6200, child i), and a random direction drawn from the run seed
    (child i), then runs 11 dyadic scales. The panel is fixed because a
    probe's cost is set mostly by its base operator: drawing the bases from
    the run seed made run-to-run spread twice as wide. Family items draw
    their 12 pairs from the run seed.
    """

    name = "probe-family"
    shapes = ((2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3))
    cycle = len(shapes) + 1
    min_items = 7 * (len(shapes) + 1)
    default_seed = 6200
    heldout_seed = 16200
    contention_sensitivity = 0.85
    max_fail_frac = 0.2  # criterion 10 passes with 80% of probes fitting
    panel_seed = 6200

    def make_input(self, seed, i):
        position = i % self.cycle
        if position == len(self.shapes):
            return ("family", [seed, i])
        n, m, k = self.shapes[position]
        family = capax.CompactFamily(n, m, k, radius=2.0, seed=42)
        base = family.sample(np.random.default_rng(np.random.SeedSequence(self.panel_seed, spawn_key=(i,))))
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        return ("probe", base, capax.random_direction(base, rng))

    def run(self, inp):
        if inp[0] == "family":
            family = capax.CompactFamily(2, 2, 2, radius=2.0, seed=42)
            capax.estimate_family_modulus(family, pairs=12, seed=inp[1])
            return None
        _, base, direction = inp
        run = capax.run_probe(base, direction)
        if run.fitted_alpha is None:
            return "probe fit missing: " + ",".join(run.flags)
        if run.fitted_alpha < 0.05 or run.r_squared < 0.9:
            return f"probe fit alpha {run.fitted_alpha:.3f}, r2 {run.r_squared:.3f}"
        return None


class CliOneshot(Workload):
    """Fresh ``python -m capax.cli`` processes, one at a time.

    Set-up writes one operator (n = m = K = 2, drawn from the seed) and its
    diagonal exponential-sum problem; the verbs cycle over them. An item
    passes when it exits 0 and prints exactly what the first run of the same
    verb printed.
    """

    name = "cli-oneshot"
    verbs = (
        ("coeffs", "op"),
        ("cap0", "op"),
        ("psi", "problem"),
        ("entropy", "problem"),
        ("scale", "op"),
        ("cap", "op"),
    )
    cycle = len(verbs)
    min_items = 4 * len(verbs)
    default_seed = 4100
    heldout_seed = 14100
    contention_sensitivity = 0.6

    def __init__(self, workdir: str, src: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.reference: dict[str, bytes] = {}

    def prepare(self, seed):
        os.makedirs(self.workdir, exist_ok=True)
        t = capax.random_cp(2, 2, 2, scale=0.5, rng=np.random.default_rng(seed))
        files = {
            "op": capax.to_json(t),
            "problem": capax.problem_to_json(capax.diag_problem(t)),
        }
        self.paths = {}
        for kind, text in files.items():
            self.paths[kind] = os.path.join(self.workdir, f"{kind}.json")
            with open(self.paths[kind], "w") as handle:
                handle.write(text)

    def make_input(self, seed, i):
        verb, kind = self.verbs[i % len(self.verbs)]
        return verb, self.paths[kind]

    def warmup_input(self, seed):
        return self.make_input(seed, 0)

    def spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, capture_output=True, env=self.env, timeout=60)

    def run(self, inp):
        verb, path = inp
        proc = self.spawn([sys.executable, "-m", "capax.cli", verb, path])
        if proc.returncode != 0:
            return f"{verb} exited {proc.returncode}: {proc.stderr.decode()[-200:]}"
        expected = self.reference.setdefault(verb, proc.stdout)
        if proc.stdout != expected:
            return f"{verb} output differs from its first run"
        return None

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, workdir: str, src: str) -> Workload:
    if name == "cli-oneshot":
        return CliOneshot(workdir, src)
    return {"route-agreement": RouteAgreement, "coeff-grid": CoeffGrid, "probe-family": ProbeFamily}[
        name
    ]()
