"""Failure-injection tests: recovery traffic and task re-execution."""

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.faults import (DATANODE, DECOMMISSION, NODE, NODEMANAGER,
                          FaultEvent, FaultInjector)
from repro.hdfs.namenode import BlockLostError
from repro.jobs.base import make_job
from repro.mapreduce.cluster import HadoopCluster


def make_cluster(nodes=8, seed=1, **config_overrides):
    defaults = dict(block_size=32 * MB, num_reducers=2)
    defaults.update(config_overrides)
    return HadoopCluster(ClusterSpec(num_nodes=nodes, hosts_per_rack=4),
                         HadoopConfig(**defaults), seed=seed)


def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(-1.0, DATANODE, "h000")
    with pytest.raises(ValueError):
        FaultEvent(1.0, "gremlin", "h000")


def test_injector_rejects_unknown_host_and_bad_streams():
    cluster = make_cluster()
    with pytest.raises(ValueError):
        FaultInjector(cluster, [FaultEvent(1.0, DATANODE, "h999")])
    with pytest.raises(ValueError):
        FaultInjector(cluster, [], max_replication_streams=0)


def test_datanode_death_triggers_rereplication_traffic():
    cluster = make_cluster()
    # Preload a file so blocks exist, then kill a DN mid-air.
    cluster.dfs.preload_file("/data", 256 * MB)  # 8 blocks x 3 replicas
    victim = cluster.workers[2]
    injector = FaultInjector(cluster, [FaultEvent(1.0, DATANODE, victim.name)])
    cluster.start()
    cluster.sim.schedule(60.0, cluster.stop)
    cluster.sim.run()

    lost_replicas = sum(1 for location in cluster.namenode.locate_file("/data")
                        if victim in location.replicas)
    assert lost_replicas == 0  # victim pruned everywhere
    # Every under-replicated block restored, with real traffic.
    assert injector.report.blocks_rereplicated > 0
    assert injector.report.rereplication_bytes == pytest.approx(
        injector.report.blocks_rereplicated * 32 * MB)
    rerep_flows = [r for r in cluster.collector.records
                   if r.service == "re-replication"]
    assert len(rerep_flows) == injector.report.blocks_rereplicated
    assert all(r.component == "hdfs_write" for r in rerep_flows)
    # Replication factor restored to 3 for affected blocks.
    for location in cluster.namenode.locate_file("/data"):
        assert len(location.replicas) == 3


def test_rereplication_respects_stream_limit():
    cluster = make_cluster()
    cluster.dfs.preload_file("/data", 512 * MB)
    victim = cluster.workers[0]
    injector = FaultInjector(cluster, [FaultEvent(0.5, DATANODE, victim.name)],
                             max_replication_streams=1)
    cluster.sim.run()
    flows = sorted((r.start, r.end) for r in cluster.collector.records
                   if r.service == "re-replication")
    # With one stream, transfers never overlap.
    for (s1, e1), (s2, e2) in zip(flows, flows[1:]):
        assert s2 >= e1 - 1e-9


def test_reads_avoid_dead_replicas():
    cluster = make_cluster()
    locations = cluster.dfs.preload_file("/data", 32 * MB)
    replicas = list(locations[0].replicas)
    cluster.namenode.mark_dead(replicas[0])
    reader = replicas[0]  # the dead node itself would be node-local
    chosen = cluster.namenode.choose_replica_for_read(locations[0].block, reader)
    assert chosen != replicas[0]


def test_block_lost_when_all_replicas_die():
    cluster = make_cluster()
    locations = cluster.dfs.preload_file("/data", 32 * MB)
    for replica in list(locations[0].replicas):
        cluster.namenode.mark_dead(replica)
    outsider = next(h for h in cluster.workers
                    if not cluster.namenode.is_dead(h))
    with pytest.raises(BlockLostError):
        cluster.namenode.choose_replica_for_read(locations[0].block, outsider)


def _am_host_of(kind, input_gb, seed):
    """Dry-run the job to learn where the AM lands (deterministic)."""
    dry = make_cluster(nodes=8, seed=seed)
    results, _ = dry.run([make_job(kind, input_gb=input_gb, job_id="dry")])
    return results[0].rounds[0].am_host


def test_nodemanager_death_reexecutes_tasks_and_job_completes():
    am_host = _am_host_of("terasort", 0.5, seed=3)
    cluster = make_cluster(nodes=8, seed=3)
    victim = next(h for h in cluster.workers if h.name != am_host)
    injector = FaultInjector(cluster, [FaultEvent(3.0, NODEMANAGER, victim.name)])
    spec = make_job("terasort", input_gb=0.5, job_id="dry")
    results, traces = cluster.run([spec])
    result = results[0]
    assert not result.failed
    assert result.finish_time > 0
    assert result.rounds[0].num_maps == 16
    # The job still produced its full output despite lost containers.
    assert result.rounds[0].shuffle_bytes > 0
    assert injector.report.containers_lost >= 0


def test_whole_node_crash_mid_job_recovers():
    am_host = _am_host_of("wordcount", 0.5, seed=5)
    cluster = make_cluster(nodes=8, seed=5)
    victim = next(h for h in cluster.workers if h.name != am_host)
    injector = FaultInjector(cluster, [FaultEvent(4.0, NODE, victim.name)])
    spec = make_job("wordcount", input_gb=0.5, job_id="dry")
    results, traces = cluster.run([spec])
    assert not results[0].failed
    # The dead node serves no *new* reads after the failure: any read
    # flow sourced there must have started before the fault fired
    # (in-flight transfers are allowed to finish).
    late_reads = [r for r in cluster.collector.records
                  if r.component == "hdfs_read" and r.src == victim.name
                  and r.start > 4.0 and r.service == "dfs-read"]
    assert late_reads == []


def test_am_container_loss_fails_the_job():
    # Find which node hosts the AM (first heartbeating node), then kill it.
    cluster = make_cluster(nodes=4, seed=2)
    spec = make_job("grep", input_gb=0.25)
    # The AM lands on the first node to heartbeat (phase 0) -> workers[0].
    victim = cluster.workers[0]
    FaultInjector(cluster, [FaultEvent(2.0, NODEMANAGER, victim.name)])
    results, traces = cluster.run([spec])
    result = results[0]
    # Either the AM was on the victim (job fails) or it wasn't (job
    # completes after re-execution); both must terminate cleanly.
    assert result.finish_time > 0
    assert cluster.sim.pending() == 0
    if result.failed:
        assert result.rounds[0].failed


def _blocks_held_by(cluster, path, host):
    return sum(1 for location in cluster.namenode.locate_file(path)
               if host in location.replicas)


def test_duplicate_datanode_events_inject_once():
    cluster = make_cluster()
    cluster.dfs.preload_file("/data", 96 * MB)
    victim = cluster.workers[2]
    held = _blocks_held_by(cluster, "/data", victim)
    injector = FaultInjector(cluster, [FaultEvent(1.0, DATANODE, victim.name),
                                       FaultEvent(2.0, DATANODE, victim.name)])
    cluster.sim.run()
    report = injector.report
    assert len(report.injected) == 1
    assert report.duplicates_ignored == 1
    # One round of re-replication, not two: each lost replica restored
    # exactly once, replication factor back to 3 (never 4).
    assert report.blocks_rereplicated == held
    for location in cluster.namenode.locate_file("/data"):
        assert len(location.replicas) == 3


def test_crash_during_decommission_does_not_double_copy():
    cluster = make_cluster()
    cluster.dfs.preload_file("/data", 96 * MB)
    victim = cluster.workers[1]
    held = _blocks_held_by(cluster, "/data", victim)
    assert held > 0
    # The crash lands while the drain is still copying replicas away;
    # the draining DataNode is already claimed, so the kill must not
    # re-prune its (still-registered) replicas and copy them again.
    injector = FaultInjector(cluster, [FaultEvent(1.0, DECOMMISSION, victim.name),
                                       FaultEvent(1.5, DATANODE, victim.name)])
    cluster.sim.run()
    report = injector.report
    assert len(report.injected) == 1
    assert report.duplicates_ignored == 1
    assert report.blocks_rereplicated == held
    assert report.unrecoverable_blocks == 0
    for location in cluster.namenode.locate_file("/data"):
        assert len(location.replicas) == 3
        assert victim not in location.replicas


def test_node_event_after_datanode_kill_still_takes_nodemanager():
    cluster = make_cluster()
    cluster.dfs.preload_file("/data", 96 * MB)
    victim = cluster.workers[4]
    injector = FaultInjector(cluster, [FaultEvent(1.0, DATANODE, victim.name),
                                       FaultEvent(2.0, NODE, victim.name)])
    cluster.sim.run()
    report = injector.report
    # The NODE event finds the DataNode already down but the
    # NodeManager still up: it partially applies, so it counts as
    # injected, not as a duplicate.
    assert len(report.injected) == 2
    assert report.duplicates_ignored == 0
    for location in cluster.namenode.locate_file("/data"):
        assert len(location.replicas) == 3


def test_fault_report_counts_consistent():
    cluster = make_cluster()
    cluster.dfs.preload_file("/data", 96 * MB)
    victim = cluster.workers[3]
    injector = FaultInjector(cluster, [FaultEvent(1.0, NODE, victim.name)])
    cluster.sim.run()
    report = injector.report
    assert len(report.injected) == 1
    assert report.blocks_rereplicated + report.unrecoverable_blocks >= 0
    assert report.rereplication_bytes >= 0
