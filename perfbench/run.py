#!/usr/bin/env python3
"""kinescope benchmark: three closed-loop workloads, every metric by name.

    python3 perfbench/run.py --workload synth_smooth --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, untraced then traced

Each workload runs in fresh interpreters started from here (workloads.py):
a few that only set up, for the median of setup_s, then one that sets up,
measures for --seconds and checks every answer against the oracles.  The
last line of standard output is one JSON object (correct, attempted,
failed, metrics); the lines before it give each metric with its unit and
the machine it ran on.  The exit code is 0 only if every check passed.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("synth_smooth", "identify_polygon", "cli_roundtrip")
SETUP_RUNS = 5  # set-ups per run; setup_s is their median
RUN_BUDGET_S = 170.0  # every process of one run ends within this
# One caller and no threads: BLAS runs single-threaded too, so that its
# idle threads cannot spin against other load on the machine.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def spawn(workload: str, seed: int, seconds: float, trace: int, tiny: bool, setup_only: bool, deadline: float):
    """Run workloads.py in a fresh interpreter; return its RESULT object.

    The child gets its own process group, so that on a timeout the CLI
    processes it started are killed with it.
    """
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        workload,
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={trace}",
        f"--spawned-at={time.time()!r}",
    ]
    cmd += ["--setup-only"] * setup_only + ["--tiny"] * tiny
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=CHILD_ENV, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} did not finish within the run budget") from None
    results = [json.loads(line[7:]) for line in out.splitlines() if line.startswith("RESULT ")]
    if proc.returncode != 0 or len(results) != 1:
        raise RuntimeError(f"{workload} exited {proc.returncode} without a result")
    return results[0]


def run_one(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    runs = 1 if tiny else SETUP_RUNS
    setups = [spawn(workload, seed, seconds, trace, tiny, True, deadline)["setup_s"] for _ in range(runs - 1)]
    result = spawn(workload, seed, seconds, trace, tiny, False, deadline)
    setups.append(result["setup_s"])
    setup_s = statistics.median(setups)

    metrics = result["metrics"]
    if not trace:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    meta = result["meta"]
    print(f"workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  setup_s is the median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups))
    for note in result["notes"]:
        print(f"  {note}")
    for v in result["violations"]:
        print(f"  VIOLATION {v}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="1: per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the harness smoke test")
    args = parser.parse_args(argv)

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    all_correct = True
    for workload in workloads:
        for trace in traces:
            try:
                line = run_one(workload, args.seed, args.seconds, trace, args.tiny)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            all_correct &= line["correct"]
            print(json.dumps(line), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
