"""Keddah benchmark: three end-to-end workloads, plain or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload terasort-64n --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload pipeline-5x4 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with tracing
off; ``--trace 1`` reports the per-layer metrics from a traced run.
``--smoke`` swaps in tiny inputs (the benchmark's own tests use it).
``--workload all`` runs every workload in turn and prints one result
line per workload.

Operation and set-up times are reference seconds: wall seconds scaled
by the host's speed, sampled on the measuring vCPU while the program
runs (``perfbench/speed.py``).  Set-up time is sampled several times per
run: the benchmark starts ``SETUP_SAMPLES`` set-up-only processes and
then the measuring process, times each from process start to its
``READY`` line, scales it by the speed the process reports there, and
reports the median.  The last stdout line of a single-workload run is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
WORKLOADS = ("terasort-64n", "tpcx-hs-32n", "pipeline-5x4")
SETUP_SAMPLES = 3          # processes timed for setup_s, the worker included
SETUP_TIMEOUT_S = 150.0
EXIT_GRACE_S = 150.0       # allowance past --seconds for the last op + probe


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # One simulation thread: keep numpy's BLAS pools single-threaded.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(command: List[str], timeout: float) -> Tuple[float, List[str]]:
    """Start one worker; return (reference seconds to READY, stdout after).

    The worker's ``READY`` line carries the seconds its calibration
    slices took during set-up and the host speed they measured.
    """
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               env=child_env(), cwd=HERE.parent)
    timer = threading.Timer(timeout, process.kill)
    timer.start()
    try:
        ready_s: Optional[float] = None
        lines: List[str] = []
        for line in process.stdout:
            if ready_s is None and line.startswith("READY "):
                wall_s = time.perf_counter() - started
                probe_s, speed = map(float, line.split()[1:3])
                ready_s = (wall_s - probe_s) * speed
            elif ready_s is not None:
                lines.append(line.rstrip("\n"))
        code = process.wait()
    finally:
        timer.cancel()
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdout.close()
    if code != 0 or ready_s is None:
        raise BenchError(f"worker exited with code {code} "
                         f"({'ready' if ready_s else 'before READY'}): "
                         f"{' '.join(command[1:])}")
    return ready_s, lines


def bench_one(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool) -> dict:
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready_s, _ = run_child(command + ["--setup-only"],
                                   SETUP_TIMEOUT_S)
            setups.append(ready_s)
    ready_s, lines = run_child(command, seconds + EXIT_GRACE_S)
    setups.append(ready_s)
    if not lines:
        raise BenchError("worker printed no result")
    worker = json.loads(lines[-1])
    metrics = worker["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
              file=sys.stderr)
    correct = bool(metrics) and worker["failed"] == 0
    return {"correct": correct, "attempted": worker["attempted"],
            "failed": worker["failed"], "metrics": metrics}


def print_table(workload: str, result: dict) -> None:
    print(f"# {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{workload:14s} {name:24s} {metric['value']:16.6f} "
              f"{metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (for the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {workload: bench_one(workload, args.seed, args.seconds,
                                       args.trace, args.smoke)
                   for workload in workloads}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for workload, result in results.items():
        print_table(workload, result)
    for workload, result in results.items():
        if args.workload == "all":
            print(json.dumps({"workload": workload, **result}))
        else:
            print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
