"""Tests for shuffle fetch-failure recovery (map output re-creation)."""

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.faults import NODE, FaultEvent, FaultInjector
from repro.jobs.base import make_job
from repro.mapreduce.cluster import HadoopCluster


def crash_run(seed, fail_at, slowstart=1.0):
    """Kill a non-AM node after the map phase but before fetches finish.

    slowstart=1.0 means reducers only start after ALL maps commit, so a
    node crash at the right moment guarantees committed-but-unfetched
    map outputs on the dead node.
    """
    dry = HadoopCluster(ClusterSpec(num_nodes=8, hosts_per_rack=4),
                        HadoopConfig(block_size=32 * MB, num_reducers=4,
                                     slowstart=slowstart), seed=seed)
    results, _ = dry.run([make_job("terasort", input_gb=0.5, job_id="dry")])
    am_host = results[0].rounds[0].am_host
    maps_done = results[0].rounds[0].maps_done_time
    # Pick a victim that actually served map outputs (and isn't the AM).
    fetch_sources = [r.src for r in dry.collector.records
                     if r.service == "shuffle-fetch" and r.src != am_host]
    assert fetch_sources, "dry run produced no remote fetches"
    victim_name = fetch_sources[0]

    cluster = HadoopCluster(ClusterSpec(num_nodes=8, hosts_per_rack=4),
                            HadoopConfig(block_size=32 * MB, num_reducers=4,
                                         slowstart=slowstart), seed=seed)
    victim = next(h for h in cluster.workers if h.name == victim_name)
    when = fail_at if fail_at is not None else maps_done + 0.1
    injector = FaultInjector(cluster, [FaultEvent(when, NODE, victim.name)])
    results, traces = cluster.run(
        [make_job("terasort", input_gb=0.5, job_id="dry")])
    return cluster, results[0], traces[0], victim


def test_fetch_failure_triggers_recovery_and_job_completes():
    cluster, result, trace, victim = crash_run(seed=101, fail_at=None)
    round0 = result.rounds[0]
    assert not result.failed
    # The dead node ran maps whose outputs had to be re-created.
    assert round0.fetch_recoveries > 0
    # Every reducer still assembled its full input.
    assert round0.shuffle_bytes == pytest.approx(round0.map_output_bytes)
    assert cluster.sim.pending() == 0


def test_no_fetches_sourced_from_dead_node_after_recovery():
    cluster, result, trace, victim = crash_run(seed=102, fail_at=None)
    injected = [r for r in cluster.collector.records
                if r.service == "shuffle-fetch" and r.src == victim.name]
    # Any fetch flow sourced at the victim must have started before the
    # crash (in-flight transfers finish; no NEW fetches from the dead node).
    crash_time = result.rounds[0].maps_done_time + 0.1
    assert all(r.start <= crash_time + 1e-6 for r in injected)


def test_recovery_is_memoised_across_reducers():
    cluster, result, trace, victim = crash_run(seed=103, fail_at=None)
    round0 = result.rounds[0]
    # 4 reducers each fetch from the dead node's maps, but each dead map
    # output is recovered at most a few times (racing fetchers), far
    # fewer than reducers x dead maps.
    dead_maps = max(round0.fetch_recoveries, 1)
    assert round0.fetch_recoveries <= 4 * dead_maps  # sanity bound
    assert round0.fetch_recoveries < round0.num_maps * round0.num_reduces


def test_healthy_run_performs_no_recoveries():
    cluster = HadoopCluster(ClusterSpec(num_nodes=8, hosts_per_rack=4),
                            HadoopConfig(block_size=32 * MB, num_reducers=4),
                            seed=104)
    results, _ = cluster.run([make_job("terasort", input_gb=0.5)])
    assert results[0].rounds[0].fetch_recoveries == 0
