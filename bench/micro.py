"""Single-call timings for the rows of the ROADMAP.md re-anchor table.

    python3 bench/micro.py

Run from the repository root. Prints one JSON object: median raw seconds per
call, and the median reference-unit duration measured alongside (speed.py),
so that a figure taken on a contended host can be read as such.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import capax  # noqa: E402
import speed  # noqa: E402


def per_call(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fresh(argv: list[str], repeats: int = 5) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    units = [speed.unit_s() for _ in range(5)]
    t2 = capax.random_cp(2, 2, 2, scale=0.5, rng=1)
    x = np.eye(2, dtype=complex)
    out = {
        "apply_2x2_s": per_call(lambda: capax.apply(t2, x), 2000),
        "op_norm_2x2_s": per_call(lambda: capax.op_norm(t2), 200),
    }
    for n, m, k in ((5, 5, 5), (6, 6, 3)):
        t = capax.random_cp(n, m, k, scale=1.0 / np.sqrt(n * k), rng=1)
        out[f"d_leibniz_{n}{m}{k}_s"] = per_call(lambda: capax.d_leibniz(t), 5)
    out["import_capax_fresh_s"] = fresh([sys.executable, "-c", "import capax"])
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = os.path.join(tmp, "op.json")
        with open(path, "w") as handle:
            handle.write(capax.to_json(t2))
        out["cli_coeffs_s"] = fresh([sys.executable, "-m", "capax.cli", "coeffs", path])
    units += [speed.unit_s() for _ in range(5)]
    out["reference_unit_s"] = statistics.median(units)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
