# Operator scaling: alternately normalize the row marginal T(I) to I_m and
# the column marginal T*(I) to (m/n) I_n. For maps with positive capacity
# the residuals decay geometrically and the accumulated scaling factors
# recover the capacity exactly, square or not.

import numpy as np

from capax import cap_direct_pd, cap_via_scaling, capacity_ratio, random_cp

t = random_cp(3, 3, 3, scale=0.45, rng=np.random.default_rng(23))

# Watch the residual step by step: the larger of the Frobenius distances of
# T(I) and T*(I) from their targets, over sqrt(dimension), after k steps.
for k in range(13):
    residual = cap_via_scaling(t, max_steps=k).residual
    print(f"step {k:2d}: residual={residual:.3e}")

# Run to convergence; the loop also assembles the witness.
rep = cap_via_scaling(t)
print("capacity via scaling:", rep.value, "after", rep.iterations, "steps")
print("flags:", rep.flags)

# The witness X is positive definite with capacity_ratio(T, X) equal to the
# reported value by construction, so the bound is certified, not estimated.
x = rep.witness["x"]
ratio = capacity_ratio(t, x)
print("witness ratio:", ratio, " |ratio - value| =", abs(ratio - rep.value))
print("witness eigenvalues:", np.linalg.eigvalsh(x))

# A 2 x 3 operator (n = 2 inputs, m = 3 outputs): the column target is
# (3/2) I_2, and the witness certifies the value just the same.
rect = random_cp(2, 3, 2, rng=np.random.default_rng(5))
rep = cap_via_scaling(rect)
ratio = capacity_ratio(rect, rep.witness["x"])
print("2 x 3 capacity via scaling:", rep.value, "after", rep.iterations, "steps")
print("2 x 3 witness ratio:", ratio, " |ratio - value| =", abs(ratio - rep.value))
print("2 x 3 direct route:", cap_direct_pd(rect).value)
