"""Steadiness and determinism checks for the benchmark.

    python3 bench/check.py spread --workload NAME --seeds 1 2 3 [--out FILE]
    python3 bench/check.py counts --workload NAME --seed N [--out FILE]
    python3 bench/check.py sensitivity --workload NAME [--seconds 150]

``spread`` runs one untraced run per seed and reports, for each end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median next to the
metric's bound in BENCHMARK.json; it exits 1 when a spread other than
setup_s exceeds a third of its bound. ``counts`` runs the traced run twice
on one seed and exits 1 when any count metric differs between the two;
those counts are listed as nondeterministic. ``sensitivity`` repeats one
cycle of items (at least four) for --seconds, timing a reference unit after
every item, and prints the least-squares slope of relative cycle time
against relative unit time: the workload's contention sensitivity (speed.py).

Run from the repository root.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        timeout=600,
        check=True,
    )
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    result = lines[-1]
    result["notes"] = next((line["notes"] for line in lines if "notes" in line), {})
    return result


def spread(args) -> int:
    spec = _spec()
    runs = []
    for seed in args.seeds:
        started = time.monotonic()
        result = _run(args.workload, seed, spec["run_seconds"], 0)
        runs.append({"seed": seed, "run_wall_s": time.monotonic() - started, **result})
        print(f"seed {seed}: " + json.dumps({k: v["value"] for k, v in result["metrics"].items()}), flush=True)
    summary = {}
    steady = True
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": share, "bound": metric["bound"]}
        ok = name == "setup_s" or share < metric["bound"] / 3
        steady = steady and ok
        raw = [run["notes"].get("raw", {}).get(name) for run in runs]
        raw_note = ""
        if None not in raw:
            r1, r2, r3 = statistics.quantiles(raw, n=4)
            summary[name]["raw_spread"] = (r3 - r1) / r2
            raw_note = f"  (raw spread {(r3 - r1) / r2:.4f})"
        print(
            f"{name:16s} median {median:.6g}  spread {share:.4f}  bound {metric['bound']}"
            f"  {'ok' if ok else 'WIDE'}{raw_note}"
        )
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if steady else 1


def counts(args) -> int:
    spec = _spec()
    first, second = (_run(args.workload, args.seed, spec["run_seconds"], 1) for _ in range(2))
    names = sorted(k for k, v in first["metrics"].items() if v["unit"] == "count")
    differ = [k for k in names if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "counts": {k: first["metrics"][k]["value"] for k in names},
        "nondeterministic": {k: [first["metrics"][k]["value"], second["metrics"][k]["value"]] for k in differ},
        "traced_runs": [first, second],
    }
    print(json.dumps({k: v for k, v in report.items() if k != "traced_runs"}, indent=1))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if differ else 0


def sensitivity(args) -> int:
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    import numpy as np
    import speed
    import workloads

    wl = workloads.make(args.workload, str(ROOT / ".bench_run" / "sensitivity"), str(ROOT / "src"))
    try:
        wl.prepare(args.seed)
        wl.run(wl.warmup_input(args.seed))
        inputs = [wl.make_input(args.seed, i) for i in range(max(wl.cycle, 4))]
        cycles, units = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            busy, samples = 0.0, []
            for inp in inputs:
                item_start = time.perf_counter()
                wl.run(inp)
                busy += time.perf_counter() - item_start
                samples.append(speed.unit_s())
            cycles.append(busy)
            units.append(statistics.median(samples))
    finally:
        wl.close()
    cycles, units = np.array(cycles), np.array(units)
    slope = np.polyfit(units / units.mean() - 1.0, cycles / cycles.mean() - 1.0, 1)[0]
    print(json.dumps({"workload": args.workload, "cycles": len(cycles), "sensitivity": round(float(slope), 3)}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("--workload", required=True)
    p_spread.add_argument("--seeds", type=int, nargs="+", required=True)
    p_spread.add_argument("--out")
    p_counts = sub.add_parser("counts")
    p_counts.add_argument("--workload", required=True)
    p_counts.add_argument("--seed", type=int, required=True)
    p_counts.add_argument("--out")
    p_sens = sub.add_parser("sensitivity")
    p_sens.add_argument("--workload", required=True)
    p_sens.add_argument("--seed", type=int, default=1)
    p_sens.add_argument("--seconds", type=float, default=150.0)
    args = parser.parse_args()
    return {"spread": spread, "counts": counts, "sensitivity": sensitivity}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
