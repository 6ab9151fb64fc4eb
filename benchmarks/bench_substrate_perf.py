"""Substrate performance micro-benchmarks.

Unlike the E/A benches (which regenerate evaluation artefacts once),
these measure the simulator's own throughput with real repetition —
the cost a user pays per experiment: event-loop rate, max-min rate
recomputation (reference and incremental), and a full end-to-end job
simulation.  The full-job bench also prints the engine's perf counters
(rate recomputes, batched updates, allocator time) so the BENCH_*.json
trajectory tracks efficiency alongside wall time.
"""

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.topology import build_topology
from repro.cluster.units import MB
from repro.jobs.base import make_job
from repro.mapreduce.cluster import HadoopCluster
from repro.net.backend import ENGINE_NAMES
from repro.net.fairshare import FairShareAllocator, max_min_rates
from repro.simkit.core import Simulator


def _fabric(num_links=64, num_flows=200):
    links = [f"l{i}" for i in range(num_links)]
    capacities = {link: 1e9 for link in links}
    flow_links = {f"f{i}": [links[i % num_links], links[(i * 7 + 3) % num_links]]
                  for i in range(num_flows)}
    return links, capacities, flow_links


def test_perf_event_loop(benchmark):
    """Raw event throughput: 10k timer events through the heap."""

    def drive():
        sim = Simulator()
        count = [0]
        for i in range(10_000):
            sim.schedule(i * 0.001, lambda: count.__setitem__(0, count[0] + 1))
        sim.run()
        return count[0]

    assert benchmark(drive) == 10_000


def test_perf_event_cancellation_churn(benchmark):
    """Cancel/reschedule churn: the flow network's horizon pattern.

    Every firing event cancels a long-dated placeholder and schedules a
    replacement, exactly how ``FlowNetwork`` maintains its completion
    horizon.  Exercises the lazy heap compaction path.
    """

    def churn():
        sim = Simulator()
        placeholder = [sim.schedule(1e9, lambda: None)]

        def tick(i):
            placeholder[0].cancel()
            placeholder[0] = sim.schedule(1e9, lambda: None)

        for i in range(5_000):
            sim.schedule(i * 0.001, tick, i)
        sim.run(until=10.0)
        registry = sim.telemetry.registry
        return (registry.value("sim.events_fired"),
                registry.value("sim.heap_compactions"))

    fired, compactions = benchmark(churn)
    assert fired == 5_000
    assert compactions > 0


def test_perf_max_min_allocation(benchmark):
    """One reference water-filling pass over 200 flows on a 64-link fabric."""
    _, capacities, flow_links = _fabric()

    rates = benchmark(max_min_rates, flow_links, capacities)
    assert len(rates) == 200


def test_perf_incremental_allocator_churn(benchmark):
    """Arrival/departure churn through the stateful allocator.

    200 resident flows; each iteration removes and re-adds one flow and
    recomputes — the fluid network's steady-state workload, where the
    reference would rebuild every membership dict from scratch.
    """
    _, capacities, flow_links = _fabric()

    def churn():
        allocator = FairShareAllocator(capacities)
        for flow, links in flow_links.items():
            allocator.add_flow(flow, links)
        for i in range(100):
            flow = f"f{i}"
            allocator.remove_flow(flow)
            allocator.add_flow(flow, flow_links[flow])
            rates = allocator.rates()
        return rates

    rates = benchmark(churn)
    assert len(rates) == 200


def test_perf_full_job_simulation(benchmark):
    """A complete 0.5 GiB terasort capture on 8 nodes, end to end."""

    clusters = []

    def run_job():
        cluster = HadoopCluster(
            ClusterSpec(num_nodes=8, hosts_per_rack=4),
            HadoopConfig(block_size=32 * MB, num_reducers=4), seed=1)
        results, traces = cluster.run(
            [make_job("terasort", input_gb=0.5, job_id="perf")])
        clusters[:] = [cluster]
        return traces[0].flow_count()

    flows = benchmark(run_job)
    registry = clusters[0].telemetry.registry
    print("\nsubstrate counters (one run):")
    for metric in registry.metrics():
        if metric.name.startswith(("sim.", "net.")):
            labels = dict(metric.labels)
            suffix = "".join(f"{{{key}={value}}}"
                             for key, value in labels.items())
            value = registry.value(metric.name, **labels)
            print(f"  {metric.name}{suffix} = {value:g}")
    assert flows > 100
    # Batching must actually coalesce: at most one recompute per flush,
    # and a visible number of same-instant updates folded together.
    assert registry.value("net.recomputes") <= registry.value("net.flushes")
    assert registry.value("net.flows_batched") > 0


def test_perf_engine_sweep_full_job(benchmark):
    """The full-job capture swept across both fluid engines.

    An 8-node job is scalar's home turf (below a few hundred
    concurrent flows the numpy per-call overhead exceeds the dict
    work it replaces — the scale rungs live in bench_vectorized.py),
    so this asserts equivalence rather than speed: both engines must
    do identical allocator work — same recomputes, same bottleneck
    rounds, same flow population — and the per-engine counters are
    printed so the BENCH trajectory tracks both engines' efficiency.
    """
    reports = {}
    flow_counts = {}

    def sweep():
        for engine in ENGINE_NAMES:
            cluster = HadoopCluster(
                ClusterSpec(num_nodes=8, hosts_per_rack=4, engine=engine),
                HadoopConfig(block_size=32 * MB, num_reducers=4), seed=1)
            _, traces = cluster.run(
                [make_job("terasort", input_gb=0.5, job_id="perf")])
            reports[engine] = cluster.telemetry.registry
            flow_counts[engine] = traces[0].flow_count()
        return flow_counts

    benchmark(sweep)
    print("\nfluid engine counters (one run each):")
    for engine in ENGINE_NAMES:
        value = reports[engine].value
        print(f"  {engine}: recomputes={value('net.recomputes'):g} "
              f"waterfill_rounds={value('net.waterfill_rounds'):g} "
              f"flushes={value('net.flushes'):g} "
              f"batch_admitted={value('net.flows_admitted_batched'):g} "
              f"bulk_harvests={value('net.bulk_harvests'):g} "
              f"done_skipped={value('net.done_signals_skipped'):g} "
              f"allocator_seconds={value('net.allocator_seconds'):.4f}")
    assert flow_counts["scalar"] == flow_counts["vectorized"]
    for key in ("net.recomputes", "net.waterfill_rounds", "net.flushes",
                "net.flows_batched", "net.flows_admitted_batched",
                "net.bulk_harvests", "net.done_signals_skipped"):
        assert (reports["scalar"].value(key)
                == reports["vectorized"].value(key)), key
    # The producers actually use the batched seam: write pipelines and
    # shuffle slow-start waves go through start_flows.
    assert reports["scalar"].value("net.flows_admitted_batched") > 0


def test_perf_topology_routing(benchmark):
    """Path resolution over a 32-host leaf-spine with cold caches."""

    def route():
        topo = build_topology("leafspine", num_hosts=32, hosts_per_rack=8)
        hops = 0
        for src in topo.hosts[:8]:
            for dst in topo.hosts[24:]:
                hops += len(topo.path(src, dst))
        return hops

    assert benchmark(route) > 0
