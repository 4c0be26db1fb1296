"""One benchmark process: set up a workload, then run it as a closed loop.

Started by run.py in a fresh interpreter so that set-up time covers
``import capax``, input generation and one untimed warm-up item. Prints one
JSON object on its last stdout line.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

import capax
import workloads
from speed import REFERENCE_S, SpeedLog
from tracer import COUNTERS, SPAN_NAMES, Tracer

TAIL_BEYOND = 10  # the tail percentile keeps this many items beyond it


def _git_commit(root: str) -> str | None:
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as handle:
            return handle.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def _blas() -> tuple[str | None, int | None]:
    """BLAS library name from numpy's build config and OpenBLAS's thread count."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return name, int(getter())
    return name, None


def environment(root: str, trace: bool) -> dict:
    blas_name, blas_threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "capax": capax.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(root),
        "trace": trace,
    }


def _cpu_s() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _guarded(wl: workloads.Workload, inp) -> str | None:
    try:
        return wl.run(inp)
    except Exception as exc:  # a raising item is a failed item; the run goes on
        traceback.print_exc(file=sys.stderr)
        return f"{type(exc).__name__}: {exc}"


def _import_times(src: str) -> dict[str, float]:
    """Cumulative import seconds of capax and scipy.optimize in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import capax"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {
        "cli.import_capax_s": found.get("capax", 0.0),
        "cli.import_scipy_optimize_s": found.get("scipy.optimize", 0.0),
    }


def _wrapper_cost(repeats: int = 3, calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on a wrapped no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        best = min(best, (time.perf_counter() - start - bare) / calls)
    return max(best, 0.0)


def _layer_metrics(tracer: Tracer, src: str) -> dict:
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in COUNTERS:
        out[name] = (counts[name], "count")
    classified = calls["expsum.classify_hull"]
    hits = classified - counts["expsum.hull.misses"]
    out["expsum.hull.hit_ratio"] = (hits / classified if classified else 0.0, "ratio")
    out["capacity.minimize.calls"] = (calls["capacity.minimize"], "count")
    out["capacity.minimize.self_s"] = (self_s["capacity.minimize"], "s")
    out["cli.process_s"] = (self_s["cli.process"], "s")
    out["bench.item.self_s"] = (self_s["bench.item"], "s")
    out["trace.self_sum_s"] = (sum(self_s.values()), "s")
    out["trace.wrapper_overhead_s"] = (
        _wrapper_cost() * (sum(calls.values()) - calls["bench.item"]),
        "s",
    )
    for name, value in _import_times(src).items():
        out[name] = (value, "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    src = os.path.join(args.root, "src")

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    wl = workloads.make(args.workload, args.workdir, src)
    try:
        wl.prepare(args.seed)
        inputs = [wl.make_input(args.seed, i) for i in range(wl.min_items)]
        _guarded(wl, wl.warmup_input(args.seed))
        run_item = functools.partial(_guarded, wl)
        if tracer is not None:
            if isinstance(wl, workloads.CliOneshot):
                wl.spawn = tracer.wrap("cli.process", wl.spawn)
            run_item = tracer.wrap("bench.item", run_item)
            tracer.reset()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        speed = SpeedLog()
        speed.sample(force=True)
        latencies: list[float] = []
        cpus: list[float] = []
        midpoints: list[float] = []
        reasons: dict[str, int] = {}
        start = time.perf_counter()
        while True:
            i = len(latencies)
            if i == len(inputs):
                inputs.extend(wl.make_input(args.seed, j) for j in range(i, i + wl.cycle))
            speed.sample()
            cpu_start = _cpu_s()
            item_start = time.perf_counter()
            reason = run_item(inputs[i])
            latencies.append(time.perf_counter() - item_start)
            cpus.append(_cpu_s() - cpu_start)
            midpoints.append(item_start + latencies[-1] / 2)
            if reason is not None:
                reasons[reason] = reasons.get(reason, 0) + 1
            done = len(latencies)
            if done % wl.cycle == 0 and done >= wl.min_items:
                # a traced run is exactly min_items long, so its counts repeat
                if tracer is not None or time.perf_counter() - start >= args.seconds:
                    break
        wall = time.perf_counter() - start
        speed.sample(force=True)
    finally:
        wl.close()

    attempted = len(latencies)
    failed = sum(reasons.values())
    scales = [speed.scale(wl.sensitivity(i), at) for i, at in enumerate(midpoints)]
    scaled = [t * f for t, f in zip(latencies, scales)]
    busy = sum(latencies)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "items_per_s": (attempted / sum(scaled), "1/s"),
        "item_p50_s": (statistics.median(scaled), "s"),
        "item_tail_s": (sorted(scaled)[attempted - TAIL_BEYOND - 1], "s"),
        "cpu_s_per_item": (sum(c * f for c, f in zip(cpus, scales)) / attempted, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    if tracer is not None:
        # the traced run's own end-to-end figures, to set against an untraced run
        traced = {f"trace.{name}": value for name, value in metrics.items()}
        metrics = _layer_metrics(tracer, src)
        metrics.update(traced)
        metrics["bench.items"] = (attempted, "count")
        metrics["bench.fail_frac"] = (failed / attempted, "ratio")
        metrics["trace.wall_s"] = (wall, "s")
    raw = {
        "items_per_s": attempted / busy,
        "item_p50_s": statistics.median(latencies),
        "item_tail_s": sorted(latencies)[attempted - TAIL_BEYOND - 1],
        "cpu_s_per_item": sum(cpus) / attempted,
    }
    notes = {
        "workload": wl.name,
        "seed": args.seed,
        "default_seed": wl.default_seed,
        "heldout_seed": wl.heldout_seed,
        "items": attempted,
        "timed_wall_s": wall,
        "busy_s": busy,
        "raw": raw,
        "reference_s": REFERENCE_S,
        "contention_sensitivity": sorted({wl.sensitivity(i) for i in range(wl.cycle)}),
        "reference_units_s": [min(speed.units), statistics.median(speed.units), max(speed.units)],
        "position_p50_s": [statistics.median(scaled[p :: wl.cycle]) for p in range(wl.cycle)],
        "tail_percentile": 100.0 * (attempted - TAIL_BEYOND) / attempted,
        "tail_items_beyond": TAIL_BEYOND,
        "fail_frac": failed / attempted,
        "max_fail_frac": wl.max_fail_frac,
        "failures": reasons,
    }
    print(
        json.dumps(
            {
                "ready": ready,
                "env": environment(args.root, bool(args.trace)),
                "notes": notes,
                "correct": failed <= wl.max_fail_frac * attempted,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
