"""Empirical smoothness of the capacity map.

Perturb a base operator along a fixed direction at dyadic scales, measure how
much the capacity moves, and fit |cap(T+sE) - cap(T)| ~ C * dist^alpha in
log-log coordinates. Along the scaling direction E = T the change is exactly
linear, which makes a good calibration check.
"""

import tempfile

import numpy as np

from capax import (
    CompactFamily,
    estimate_family_modulus,
    export_csv,
    random_cp,
    random_direction,
    run_probe,
    scaling_direction,
)

base = random_cp(2, 2, 2, scale=0.5, rng=np.random.default_rng(31))

run = run_probe(base, scaling_direction(base))
print("scaling direction: alpha =", run.fitted_alpha, "r^2 =", run.r_squared)

rng = np.random.default_rng(314)
run = run_probe(base, random_direction(base, rng))
print("random direction : alpha =", run.fitted_alpha, "r^2 =", run.r_squared)
print("  samples (scale, dist, |dcap|):")
for s, d, dc in run.samples:
    print(f"    {s:9.2e} {d:9.3e} {dc:9.3e}")

with tempfile.NamedTemporaryFile("r", suffix=".csv", delete=False) as fh:
    path = fh.name
export_csv(run, path)
print("probe table written to", path)

# A small family sweep: sample operator pairs from a norm ball and track the
# worst ratio |dcap| / dist and the smallest fitted exponent.
fam = CompactFamily(2, 2, 2, radius=2.0, seed=5)
summary = estimate_family_modulus(fam, pairs=8, tol=1e-10, seed=99)
print("family sweep over", summary.count, "pairs:")
print("  min fitted alpha:", summary.min_alpha)
print("  max |dcap|/dist :", summary.max_ratio)
print("  flags:", summary.flags)
