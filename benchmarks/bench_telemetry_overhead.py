"""Telemetry overhead benchmark: the null path must stay (nearly) free.

The telemetry layer's contract is that an un-configured run pays
almost nothing: counters replaced same-cost integer attributes, span
sites guard on ``tracer.enabled`` or hit a no-op ``start``/``end``,
and no probe events are ever scheduled.  This bench pins that down two
ways on the canonical 0.5 GiB terasort:

* **per-site bound** — measure the cost of one disabled tracer no-op
  and multiply by the number of instrumentation touches the run would
  make (the span count of an enabled run, start+end per span); that
  total must stay under 3% of the disabled run's wall time;
* **end-to-end ratio** — a fully *enabled* run (memory sink, 1 s
  probes) must stay within 1.5x of the disabled run, so even observed
  runs remain usable for experiments.

Also asserts the null path emits exactly zero spans and probe samples.
Writes ``BENCH_telemetry.json`` at the repo root alongside the other
trajectory artefacts.

Run via ``scripts/run_benchmarks.sh`` or::

    pytest benchmarks/bench_telemetry_overhead.py -m benchmark_suite -q -s
"""

import json
import time
from pathlib import Path

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.jobs.base import make_job
from repro.mapreduce.cluster import HadoopCluster
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"
RUNS = 3
NULL_PATH_BUDGET = 0.03      # per-site no-op total vs disabled wall time
ENABLED_RATIO_BUDGET = 1.5   # enabled wall time vs disabled wall time


def _run_job(telemetry):
    cluster = HadoopCluster(
        ClusterSpec(num_nodes=8, hosts_per_rack=4),
        HadoopConfig(block_size=32 * MB, num_reducers=4), seed=1,
        telemetry=telemetry)
    _, traces = cluster.run(
        [make_job("terasort", input_gb=0.5, job_id="tel_perf")])
    return traces[0].flow_count()


def _min_of_k(make_telemetry, k=RUNS):
    best, flows = float("inf"), 0
    for _ in range(k):
        telemetry = make_telemetry()
        started = time.perf_counter()
        flows = _run_job(telemetry)
        best = min(best, time.perf_counter() - started)
    return best, flows, telemetry


def _noop_call_cost(calls=200_000):
    """Seconds per disabled ``start``+``end`` pair, measured directly."""
    tracer = Tracer(enabled=False)
    started = time.perf_counter()
    for _ in range(calls):
        span = tracer.start("task", "t", 0.0)
        tracer.end(span, 1.0)
    return (time.perf_counter() - started) / calls


@pytest.mark.benchmark_suite
def test_telemetry_overhead_budgets():
    disabled_s, disabled_flows, disabled_tel = _min_of_k(Telemetry.disabled)
    enabled_s, enabled_flows, enabled_tel = _min_of_k(
        lambda: Telemetry.enabled_in_memory(probe_interval=1.0))

    # Same simulation either way.
    assert disabled_flows == enabled_flows

    # The null path really is null: no spans, no probes, live counters.
    assert disabled_tel.tracer.spans_started == 0
    assert disabled_tel.tracer.spans_emitted == 0
    assert disabled_tel.probes.total_samples() == 0
    assert disabled_tel.registry.value("sim.events_fired") > 0

    # Per-site bound: every span an enabled run records corresponds to
    # at most one disabled start+end no-op pair in the null path.
    span_sites = len(enabled_tel.spans)
    pair_cost = _noop_call_cost()
    null_path_cost = span_sites * pair_cost
    null_fraction = null_path_cost / disabled_s

    ratio = enabled_s / disabled_s
    report = {
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(enabled_s, 4),
        "enabled_over_disabled": round(ratio, 4),
        "span_sites": span_sites,
        "noop_pair_cost_us": round(pair_cost * 1e6, 4),
        "null_path_fraction": round(null_fraction, 6),
        "spans_emitted_enabled": enabled_tel.tracer.spans_emitted,
        "probe_samples_enabled": enabled_tel.probes.total_samples(),
    }
    OUTPUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print("\ntelemetry overhead:")
    for key in sorted(report):
        print(f"  {key} = {report[key]}")

    assert null_fraction < NULL_PATH_BUDGET, report
    assert ratio < ENABLED_RATIO_BUDGET, report
