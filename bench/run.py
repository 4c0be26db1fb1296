"""capax benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each run starts fresh interpreters running
bench/worker.py against the package under src/, and refuses to run, without
a result, where that package is missing. With --trace 0 it prints the
end-to-end metrics; set-up time is the median over SETUP_REPEATS fresh
interpreters (two set-up-only ones and the measuring one). With --trace 1
it prints the per-layer metrics of a traced run of exactly the workload's
minimum item count. Times are normalized for host speed (see speed.py).
The last stdout line is the result object; the lines before it give the
environment and the run notes (tail percentile, sample count, raw times,
failures).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from speed import SpeedLog

WORKLOADS = ("route-agreement", "coeff-grid", "probe-family", "cli-oneshot")
SETUP_REPEATS = 3
# Set-up is interpreter start, imports and one item, the same mix as a CLI run,
# so it takes the contention sensitivity fitted for cli-oneshot (speed.py).
SETUP_SENSITIVITY = 0.6
RUN_TIMEOUT_S = 170.0


def _worker(args, root: str, workdir: str, setup_only: bool, deadline: float) -> tuple[dict, float]:
    """Run one worker; return its result and the seconds from spawn to its first timed item."""
    argv = [
        sys.executable,
        os.path.join(root, "bench", "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", root,
        "--workdir", workdir,
    ]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    spawned = time.monotonic()
    proc = subprocess.run(
        argv, stdout=subprocess.PIPE, env=env, text=True, timeout=max(deadline - spawned, 1.0)
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - spawned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "capax", "__init__.py")):
        print(f"no capax package under {os.path.join(root, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    run_dir = os.path.join(root, ".bench_run", str(os.getpid()))
    setups = []
    speed = SpeedLog(interval_s=0.0)
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        for k in range(repeats):
            workdir = os.path.join(run_dir, str(k))
            # reference units bracket every set-up, to normalize set-up time
            speed.sample()
            result, setup_s = _worker(args, root, workdir, k < repeats - 1, deadline)
            setups.append(setup_s)
            if k < repeats - 1:
                speed.sample()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": speed.scale(SETUP_SENSITIVITY) * statistics.median(setups), "unit": "s"}
    notes = dict(result["notes"], setup_samples_raw_s=setups, setup_reference_units_s=speed.units)
    notes["raw"]["setup_s"] = statistics.median(setups)
    print(json.dumps({"env": result["env"]}))
    print(json.dumps({"notes": notes}))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
