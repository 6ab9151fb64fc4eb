"""One benchmark process: set up, run timed operations, report JSON.

Started by ``perfbench/run.py``; not meant to be run by hand.  It
prints ``READY <calibration seconds> <host speed>`` on stdout when
set-up (imports, input construction, warm-up) is done, then, unless
``--setup-only``, measures operations for ``--seconds`` and prints one
JSON object as its last stdout line.  Human-readable notes go to
stderr.  Untraced operations and set-up are timed in reference seconds
(``speed.py``); traced runs report wall seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT_DIR = HERE / "out"
DIGESTS = HERE / "digests.json"


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}/repro")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(CHECKOUT))
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def percentile(values: List[float], pct: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten operations beyond it.

    Below twenty operations no percentile above the median qualifies,
    and the median is reported as the tail.
    """
    return max(50.0, 100.0 * (1.0 - 10.0 / count))


class Checker:
    """The recorded output digest of every capture seed a run uses."""

    def __init__(self, references: Dict[int, str]):
        self.references = dict(references)

    def ok(self, seed: int, digest: str) -> bool:
        return digest == self.references[seed]

    def describe(self) -> str:
        return (f"digest references: recorded for all "
                f"{len(self.references)} capture seeds")


def run_op(workload, workdir: Path, checker: Checker,
           mutate: Optional[Callable[[Path], None]] = None,
           tracer=None, op_index: int = 0,
           probe: Optional[SpeedProbe] = None):
    """One operation: (seconds, OpResult, digest, layer totals) or raise.

    Only ``workload.run`` is timed; collecting and hashing the output
    happen after the timed region.  With a ``probe`` the seconds are
    reference seconds, otherwise wall seconds.
    """
    from perfbench.workloads import sha256_file

    workdir.mkdir(parents=True)
    layers = None
    if probe is not None:
        probe.start()
        try:
            produced = workload.run(workdir)
        finally:
            reading = probe.stop()
        seconds = reading.reference_s
    elif tracer is None:
        started = time.perf_counter()
        produced = workload.run(workdir)
        seconds = time.perf_counter() - started
    else:
        with tracer.traced(op_index):
            started = time.perf_counter()
            produced = workload.run(workdir)
            seconds = time.perf_counter() - started
            layers = (tracer.self_seconds(), dict(tracer.counts))
        leftovers = tracer.leftover_wrappers()
        if leftovers:
            raise RuntimeError(f"tracer left wrappers behind: {leftovers}")
    result = workload.collect(produced)
    if mutate is not None:
        mutate(result.output)
    digest = sha256_file(result.output)
    if not checker.ok(workload.seed, digest):
        raise ValueError(f"seed {workload.seed}: output digest {digest[:16]} "
                         f"!= reference "
                         f"{checker.references[workload.seed][:16]}")
    return seconds, result, digest, layers


def measure(inputs, seconds: float, checker: Checker, workdir: Path,
            mutate_op: Optional[Dict[int, Callable[[Path], None]]] = None,
            min_ops: int = 1) -> Dict:
    """Untraced closed loop: one operation after another for ``seconds``.

    Operations cycle through ``inputs`` (one Workload per capture seed)
    and are timed in reference seconds.
    ``mutate_op`` maps an operation number to a function that alters
    its output before the digest check (the tests corrupt a byte).
    """
    mutate_op = mutate_op or {}
    probe = SpeedProbe()
    times: List[float] = []
    flows = 0
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < min_ops or time.perf_counter() < deadline:
        attempted += 1
        try:
            op_s, result, _, _ = run_op(
                inputs[(attempted - 1) % len(inputs)],
                workdir / f"op{attempted}", checker,
                mutate_op.get(attempted), probe=probe)
        except Exception:
            failed += 1
            note(f"operation {attempted} failed:\n{traceback.format_exc()}")
            continue
        finally:
            shutil.rmtree(workdir / f"op{attempted}", ignore_errors=True)
        times.append(op_s)
        flows += result.flows
    return {"attempted": attempted, "failed": failed, "times": times,
            "flows": flows, "readings": probe.readings}


def measure_traced(inputs, seconds: float, checker: Checker,
                   workdir: Path, tracer) -> Dict:
    """Alternate untraced and traced operations for ``seconds``.

    Both operations of a pair run the same input, so the traced output
    is checked against the untraced one's digest.
    """
    untraced: List[float] = []
    traced: List[float] = []
    totals: List[Dict[str, float]] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    pair = 0
    while attempted == 0 or time.perf_counter() < deadline:
        workload = inputs[pair % len(inputs)]
        pair += 1
        for use_tracer in (None, tracer):
            attempted += 1
            opdir = workdir / f"op{attempted}"
            try:
                op_s, result, _, layers = run_op(
                    workload, opdir, checker, tracer=use_tracer,
                    op_index=len(traced))
            except Exception:
                failed += 1
                note(f"operation {attempted} failed:\n"
                     f"{traceback.format_exc()}")
                continue
            finally:
                shutil.rmtree(opdir, ignore_errors=True)
            if use_tracer is None:
                untraced.append(op_s)
                continue
            traced.append(op_s)
            self_s, counts = layers
            row = {f"{name}_s": value for name, value in self_s.items()}
            row.update(counts)
            row["other_s"] = op_s - sum(self_s.values())
            row["model_volume_error"] = result.volume_error
            totals.append(row)
    return {"attempted": attempted, "failed": failed, "untraced": untraced,
            "traced": traced, "totals": totals}


def end_to_end(run: Dict) -> Dict[str, Dict]:
    times = run["times"]
    pct = tail_percentile(len(times))
    note(f"op_s_tail is p{pct:.1f} over n={len(times)} operations")
    readings = run["readings"]
    wall_s = statistics.median(reading.wall_s for reading in readings)
    speed = statistics.median(reading.speed for reading in readings)
    probe_share = (sum(reading.probe_s for reading in readings)
                   / sum(reading.wall_s for reading in readings))
    note(f"host: median op {wall_s:.4f} wall s at speed {speed:.3f} of the "
         f"reference; calibration took {probe_share:.1%} of op wall time")
    note(f"fail_ratio {run['failed']}/{run['attempted']}"
         f" = {run['failed'] / run['attempted']:.4f}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {
        "op_s_p50": {"value": statistics.median(times), "unit": "s"},
        "op_s_tail": {"value": percentile(times, pct), "unit": "s"},
        "flows_per_s": {"value": run["flows"] / sum(times),
                        "unit": "flows/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


PER_LAYER_UNITS = {"simkit.events": "count", "net.allocator_calls": "count",
                   "net.flows": "count", "net.recomputes": "count",
                   "yarn.rm_calls": "count", "hdfs.blocks": "count",
                   "capture.encode_bytes": "bytes",
                   "store.bytes_written": "bytes",
                   "store.bytes_read": "bytes", "dag.nodes_run": "count",
                   "trace.overhead": "ratio", "model_volume_error": "ratio"}


def per_layer(run: Dict) -> Dict[str, Dict]:
    """Mean per traced operation of every layer total."""
    totals = run["totals"]
    metrics = {}
    for name in totals[0]:
        value = sum(row[name] for row in totals) / len(totals)
        metrics[name] = {"value": value,
                         "unit": PER_LAYER_UNITS.get(name, "s")}
    metrics["trace.overhead"] = {
        "value": statistics.median(run["traced"])
        / statistics.median(run["untraced"]), "unit": "ratio"}
    note(f"traced operations: {len(run['traced'])}, untraced: "
         f"{len(run['untraced'])}")
    return metrics


def known_defect_probe(workdir: Path) -> None:
    """Print whether ``run_capture`` repeats itself; gates nothing."""
    from repro.api import run_capture
    from perfbench.workloads import sha256_file

    seen = []
    for attempt in range(2):
        path = workdir / f"probe{attempt}.jsonl"
        trace = run_capture("terasort", input_gb=1.0, nodes=16, seed=1)
        trace.to_jsonl(path)
        seen.append((trace.flow_count(), sha256_file(path)))
    verdict = "match" if seen[0][1] == seen[1][1] else "DIFFER"
    note(f"known-defect probe: run_capture('terasort', input_gb=1.0, "
         f"nodes=16, seed=1) twice in one process -> {seen[0][0]} and "
         f"{seen[1][0]} flows, digests {verdict} (reported, not gated)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup_probe = SpeedProbe()
    setup_probe.start()
    use_checkout_src()
    from perfbench.workloads import (
        MissingDigests,
        Workload,
        capture_seeds,
        fresh_dir,
        recorded_digests,
    )

    seeds = capture_seeds(args.seed)
    try:
        checker = Checker(recorded_digests(DIGESTS, args.workload, seeds,
                                           args.smoke))
    except MissingDigests as exc:
        setup_probe.stop()
        note(f"perfbench: {exc}; refusing to run unchecked operations")
        return 2
    inputs = [Workload(args.workload, seed, smoke=args.smoke)
              for seed in seeds]
    workdir = fresh_dir(OUT_DIR, f"work-{args.workload}-{args.seed}-"
                        f"{time.time_ns()}")
    try:
        warmup = Workload(args.workload, seeds[0], smoke=True)
        warmup.collect(warmup.run(fresh_dir(workdir, "warmup")))
        tracer = None
        if args.trace:
            from perfbench.tracer import Tracer

            with Tracer().traced(-1):
                warmup.run(fresh_dir(workdir, "warmup-traced"))
            tracer = Tracer()
        setup = setup_probe.stop()
        print(f"READY {setup.probe_s!r} {setup.speed!r}", flush=True)
        if args.setup_only:
            return 0

        if args.trace:
            run = measure_traced(inputs, args.seconds, checker, workdir,
                                 tracer)
            metrics = (per_layer(run) if run["totals"] and run["untraced"]
                       else {})
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            run = measure(inputs, args.seconds, checker, workdir)
            metrics = end_to_end(run) if run["times"] else {}
            known_defect_probe(workdir)
        note(checker.describe())
        print(json.dumps({"attempted": run["attempted"],
                          "failed": run["failed"],
                          "metrics": metrics}), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
