"""The benchmark's own tests, on the smoke-sized workloads.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They check that every metric ``BENCHMARK.json`` names is printed with
its unit, that the traced run separates the layers, that a corrupted
output counts as a failed operation, that the tracer puts every
wrapped object back, and that the speed probe cleans up after itself.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
CHECKOUT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402

worker.use_checkout_src()

from perfbench import tracer as tracer_module  # noqa: E402
from perfbench.speed import SpeedProbe  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    SEEDS_PER_RUN,
    WORKLOADS,
    MissingDigests,
    Workload,
    capture_seeds,
    recorded_digests,
)

BENCHMARK = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
CAPTURE_WORKLOADS = ("terasort-64n", "tpcx-hs-32n")
SMOKE_SEED = capture_seeds(DEFAULT_SEED)[0]


def smoke_checker(name):
    return worker.Checker(recorded_digests(worker.DIGESTS, name,
                                           [SMOKE_SEED], smoke=True))


def bench(workload, trace, seed=DEFAULT_SEED):
    return subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=CHECKOUT)


def run_bench(workload, trace):
    completed = bench(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result, completed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_prints_every_end_to_end_metric_with_its_unit(workload):
    result, completed = run_bench(workload, trace=0)
    expected = {metric["name"]: metric["unit"]
                for metric in BENCHMARK["end_to_end"]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    for name in expected:
        assert result["metrics"][name]["value"] > 0
        assert f" {name} " in completed.stdout
    assert "op_s_tail is p" in completed.stderr
    assert (f"digest references: recorded for all {SEEDS_PER_RUN} "
            f"capture seeds" in completed.stderr)
    assert "known-defect probe" in completed.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_separates_layers(workload):
    result, _ = run_bench(workload, trace=1)
    metrics = {name: metric["value"]
               for name, metric in result["metrics"].items()}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    # Self times partition the traced wall time: nothing is negative.
    assert all(value >= 0 for name, value in metrics.items()
               if name.endswith("_s") and name != "other_s")
    assert metrics["other_s"] > -1e-9
    assert metrics["simkit.events"] > 0 and metrics["net.flows"] > 0
    assert metrics["trace.overhead"] > 0
    zero_prefixes = ("store.", "dag.", "modeling.", "generation.")
    for name, value in metrics.items():
        if name.startswith(zero_prefixes):
            assert (value == 0) == (workload in CAPTURE_WORKLOADS), name
    assert metrics["model_volume_error"] > 0 or workload in CAPTURE_WORKLOADS
    assert (metrics["net.flowstate_s"] > 0) == (workload == "tpcx-hs-32n")


def test_run_without_recorded_digests_is_refused():
    # Smoke digests are recorded for DEFAULT_SEED's capture seeds only.
    completed = bench("terasort-64n", trace=0, seed=DEFAULT_SEED + 1)
    assert completed.returncode != 0
    assert "no recorded smoke digest" in completed.stderr
    assert completed.stdout == ""


def test_missing_digest_file_is_refused(tmp_path):
    with pytest.raises(MissingDigests):
        recorded_digests(tmp_path / "absent.json", "terasort-64n",
                         [SMOKE_SEED], smoke=False)


def test_every_seed_maps_to_recorded_full_digests():
    for workload in WORKLOADS:
        for seed in (0, 7, 31, 32, 1000, 2**40):
            seeds = capture_seeds(seed)
            assert len(recorded_digests(worker.DIGESTS, workload, seeds,
                                        smoke=False)) == SEEDS_PER_RUN


def flip_one_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_flipped_output_byte_counts_as_failed_operation(workload, tmp_path):
    run = worker.measure([Workload(workload, SMOKE_SEED, smoke=True)], 0.0,
                         smoke_checker(workload), tmp_path,
                         mutate_op={2: flip_one_byte}, min_ops=3)
    assert run["attempted"] == 3
    assert run["failed"] == 1
    assert len(run["times"]) == 2


def tracer_code_left_in(namespace):
    """Attributes of ``namespace`` whose code lives in the tracer module."""
    found = []
    for attr, value in vars(namespace).items():
        for candidate in (value, getattr(value, "__func__", None),
                          getattr(value, "fget", None)):
            code = getattr(candidate, "__code__", None)
            if code is not None and code.co_filename == tracer_module.__file__:
                found.append(attr)
    return found


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracer_restores_originals_and_untraced_digest_still_matches(
        workload, tmp_path):
    tracer = Tracer()
    seconds, _, _, (self_s, counts) = worker.run_op(
        Workload(workload, SMOKE_SEED, smoke=True), tmp_path / "traced",
        smoke_checker(workload), tracer=tracer)
    assert tracer.patched and not tracer.installed
    assert tracer.leftover_wrappers() == []
    for namespace, attr, original, owned in tracer.patched:
        if isinstance(namespace, dict):
            assert namespace[attr] is original
        elif owned:
            assert vars(namespace)[attr] is original
        else:
            assert attr not in vars(namespace)
    modules = [module for name, module in sorted(sys.modules.items())
               if name.startswith("repro")]
    classes = [value for module in modules for value in vars(module).values()
               if isinstance(value, type)
               and value.__module__.startswith("repro")]
    assert not [(ns.__name__, attr) for ns in modules + classes
                for attr in tracer_code_left_in(ns)]

    # The spans kept in memory account for the layer self times.
    dump = tmp_path / "spans.npz"
    tracer.dump(dump)
    import numpy as np

    spans = np.load(dump)
    roots = spans["parent"] == -1
    covered = float(np.sum(spans["end"][roots] - spans["start"][roots]))
    assert covered == pytest.approx(sum(self_s.values()), rel=1e-6)
    assert covered <= seconds
    assert np.all(spans["parent"] < np.arange(len(spans["parent"])))
    assert counts["simkit.events"] > 0

    # An untraced operation in the same process still matches.
    worker.run_op(Workload(workload, SMOKE_SEED, smoke=True),
                  tmp_path / "untraced", smoke_checker(workload))


def busy(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(1000))


def test_speed_probe_interleaves_slices_and_cleans_up():
    previous = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    probe.start()
    busy(0.3)
    reading = probe.stop()
    # Slices ran inside the region, plus one bracket slice on each side.
    assert len(reading.slices) >= 2 + 5
    assert 0 < reading.probe_s < reading.wall_s
    assert reading.program_s == pytest.approx(
        reading.wall_s - reading.probe_s)
    assert reading.reference_s == pytest.approx(
        reading.program_s * reading.speed)
    assert probe.readings == [reading]
    # The timer is disarmed and the previous handler is back.
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
