# Build a few completely positive maps from Kraus operators and compare the
# capacity solvers against each other and against closed forms.

import numpy as np

from capax import (
    CPOperator,
    CapacityConfig,
    cap,
    cap0,
    cap_unitary_search,
    capacity_ratio,
    random_cp,
)

rng = np.random.default_rng(7)

# The identity channel on C^3: capacity is exactly 1.
ident = CPOperator([np.eye(3)])
rep = cap(ident)
print("identity channel:", rep.value, "method:", rep.method)

# A single invertible Kraus operator A gives |det A|^(2/m) exactly.
a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
single = CPOperator([a])
expected = abs(np.linalg.det(a)) ** (2.0 / 3.0)
rep = cap(single, CapacityConfig(check_scaling=True))
print(f"single Kraus: computed {rep.value:.12f}, closed form {expected:.12f}")
print("  scaling cross check delta:", rep.cross_checks.get("scaling_delta"))

# Random 2-Kraus map on C^2, all three routes side by side.
t = random_cp(2, 2, 2, scale=0.5, rng=rng)
full = cap(t, CapacityConfig(check_psi=True, check_scaling=True, seed=3))
print("random 2x2 map:")
print("  direct    :", full.value)
# The unitary search brackets cap between a certified lower bound and its
# value; a lower bound of 0 (no certificate) would stop the demo here.
psi = cap_unitary_search(t, seed=3)
width = np.log(psi.value / psi.lower)
print(f"  psi search: [{psi.lower:.12f}, {psi.value:.12f}], log width {width:.1e}")
print("    as cap's cross check:", full.cross_checks["psi_unitary"], "flags:", full.flags)
print("  scaling   :", full.cross_checks["scaling"])

# The diagonal restriction cap0 is an upper bound for cap.
d0 = cap0(t)
print("  cap0      :", d0.value, "(upper bound, gap", d0.value - full.value, ")")

# Every positive definite X certifies an upper bound through the defining ratio.
x = np.eye(2) + 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])
print("ratio at a test point:", capacity_ratio(t, x), ">= cap =", full.value)
