"""Per-layer tracing for the benchmark, installed from outside the package.

Every public function named in LAYERS is replaced by a wrapper at each place
a capax module binds it (``capax.cpop.apply`` and ``capax.capacity.apply``
are the same object, so both are wrapped, as are the package re-exports).
Each wrapper records one span: its duration, minus the time covered by the
spans it encloses, is the function's self time. Spans are folded into
per-name totals as they close, so memory stays flat however long the run.

Counts read from results (Newton iterations, scaling steps, optimizer
evaluations) are taken where the work returns, so they repeat exactly for
a fixed seed.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

LAYERS = {
    "linalg": ("capax.linalg", ("eigh", "expm_hermitian", "psd_inv_sqrt", "max_singular_value")),
    "cpop": ("capax.cpop", ("apply", "dual_apply", "conjugate_unitary", "distance", "op_norm")),
    "coeffs": ("capax.coeffs", ("d_leibniz", "d_cauchy_binet", "d_interpolate")),
    "expsum": ("capax.expsum", ("classify_hull", "psi_minimize", "entropy_dual")),
    "capacity": (
        "capax.capacity",
        ("diag_problem", "cap0", "cap_direct_pd", "cap_unitary_search", "cap_via_scaling"),
    ),
    "holderlab": ("capax.holderlab", ("run_probe", "probe_pair", "estimate_family_modulus")),
}

# Span names whose calls and self time are reported; the CPOperator span
# wraps __post_init__ (construction plus validation), linprog and minimize
# are wrapped only where capax.expsum and capax.capacity bind them.
SPAN_NAMES = tuple(
    f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns
) + ("cpop.CPOperator", "expsum.linprog")

COUNTERS = (
    "expsum.hull.lp_solves",
    "expsum.hull.misses",
    "expsum.psi_minimize.newton_iters",
    "expsum.psi_minimize.not_converged",
    "capacity.scaling.steps",
    "capacity.minimize.nfev",
    "capacity.minimize.njev",
    "capacity.minimize.nit",
    "capacity.minimize.not_success",
)


class Tracer:
    def __init__(self):
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, on_exit=None):
        """Return fn wrapped in a span; on_exit(result, frame) runs on success.

        A frame is [time covered by child spans, number of linprog children].
        """
        stack = self._stack
        clock = time.perf_counter
        is_lp = name == "expsum.linprog"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += is_lp
            if on_exit is not None:
                on_exit(result, frame)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function at every binding inside the capax package."""
        for module_name in ("capax", "capax.cli", *(mod for mod, _ in LAYERS.values())):
            importlib.import_module(module_name)
        hooks = {
            "expsum.classify_hull": self._on_classify,
            "expsum.psi_minimize": self._on_psi,
            "capacity.cap_via_scaling": self._on_scaling,
        }
        for layer, (module_name, fns) in LAYERS.items():
            module = sys.modules[module_name]
            for fn in fns:
                name = f"{layer}.{fn}"
                self._rebind(getattr(module, fn), self.wrap(name, getattr(module, fn), hooks.get(name)))

        from capax import capacity, cpop, expsum

        post_init = cpop.CPOperator.__post_init__
        cpop.CPOperator.__post_init__ = self.wrap("cpop.CPOperator", post_init)
        expsum.linprog = self.wrap("expsum.linprog", expsum.linprog)
        capacity.minimize = self.wrap("capacity.minimize", capacity.minimize, self._on_minimize)

    @staticmethod
    def _rebind(original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "capax" and not name.startswith("capax."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    # result hooks -----------------------------------------------------------

    def _on_classify(self, result, frame) -> None:
        if frame[1]:
            self.counts["expsum.hull.misses"] += 1
            self.counts["expsum.hull.lp_solves"] += frame[1]

    def _on_psi(self, result, frame) -> None:
        self.counts["expsum.psi_minimize.newton_iters"] += int(result.iterations)
        if not result.converged:
            self.counts["expsum.psi_minimize.not_converged"] += 1

    def _on_scaling(self, result, frame) -> None:
        self.counts["capacity.scaling.steps"] += int(result.iterations)

    def _on_minimize(self, result, frame) -> None:
        self.counts["capacity.minimize.nfev"] += int(getattr(result, "nfev", 0))
        self.counts["capacity.minimize.njev"] += int(getattr(result, "njev", 0))
        self.counts["capacity.minimize.nit"] += int(getattr(result, "nit", 0))
        if not result.success:
            self.counts["capacity.minimize.not_success"] += 1
