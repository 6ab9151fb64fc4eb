"""Integration tests: full MapReduce jobs on the simulated cluster."""

import pytest

from repro.capture.records import TrafficComponent
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.jobs.base import make_job
from repro.mapreduce.cluster import HadoopCluster


def run_one(kind="terasort", input_gb=0.5, nodes=8, seed=1, config=None,
            cluster_kwargs=None, **job_kwargs):
    config = config or HadoopConfig(block_size=64 * MB, num_reducers=4)
    cluster = HadoopCluster(
        ClusterSpec(num_nodes=nodes, hosts_per_rack=4), config, seed=seed,
        **(cluster_kwargs or {}))
    spec = make_job(kind, input_gb=input_gb, **job_kwargs)
    results, traces = cluster.run([spec])
    return cluster, results[0], traces[0]


def test_terasort_task_counts():
    cluster, result, trace = run_one("terasort", input_gb=0.5)
    # 512 MiB / 64 MiB blocks = 8 maps; 4 configured reducers.
    assert result.num_maps == 8
    assert result.num_reduces == 4
    assert result.completion_time > 0


def test_shuffle_flow_count_is_maps_times_reduces():
    cluster, result, trace = run_one("terasort", input_gb=0.5)
    shuffle = trace.component(TrafficComponent.SHUFFLE)
    # Host-local fetches never reach the wire, so captured <= maps x reduces.
    assert 0 < len(shuffle) <= result.num_maps * result.num_reduces
    # Shuffle volume ~ input for a 1:1 map (jitter is mean-1).
    assert result.rounds[0].shuffle_bytes == pytest.approx(0.5 * 1024 * MB, rel=0.25)


def test_terasort_unreplicated_output_writes_little():
    cluster, result, trace = run_one("terasort", input_gb=0.5)
    write_bytes = trace.total_bytes(TrafficComponent.HDFS_WRITE)
    # replication=1 output stays local; only jar staging + history cross.
    assert write_bytes < 30 * MB


def test_sort_replicated_output_writes_much_more():
    config = HadoopConfig(block_size=64 * MB, num_reducers=4, replication=3)
    cluster, result, trace = run_one("sort", input_gb=0.5, config=config)
    write_bytes = trace.total_bytes(TrafficComponent.HDFS_WRITE)
    # (3-1) network copies of ~512 MiB of output.
    assert write_bytes == pytest.approx(2 * 0.5 * 1024 * MB, rel=0.3)


def test_wordcount_shuffle_much_smaller_than_input():
    cluster, result, trace = run_one("wordcount", input_gb=0.5)
    shuffle = result.rounds[0].shuffle_bytes
    assert shuffle < 0.3 * 0.5 * 1024 * MB  # selectivity 0.15 + jitter


def test_grep_is_read_dominated():
    cluster, result, trace = run_one("grep", input_gb=0.5)
    read_bytes = trace.total_bytes(TrafficComponent.HDFS_READ)
    shuffle_bytes = trace.total_bytes(TrafficComponent.SHUFFLE)
    assert result.rounds[0].shuffle_bytes < 0.05 * 0.5 * 1024 * MB
    # Unless every split was node-local, reads dominate shuffle.
    if read_bytes > 0:
        assert read_bytes > shuffle_bytes


def test_teragen_is_pure_write():
    config = HadoopConfig(block_size=64 * MB, replication=3)
    cluster, result, trace = run_one("teragen", input_gb=0.5, config=config)
    assert result.num_reduces == 0
    assert trace.total_bytes(TrafficComponent.SHUFFLE) == 0
    assert trace.total_bytes(TrafficComponent.HDFS_READ) < 20 * MB  # jar localisation
    # 512 MiB written at replication 3: 2 copies cross the network.
    assert trace.total_bytes(TrafficComponent.HDFS_WRITE) == pytest.approx(
        2 * 0.5 * 1024 * MB, rel=0.2)
    assert result.output_bytes == pytest.approx(0.5 * 1024 * MB, rel=0.2)


def test_dfsio_read_is_pure_read():
    cluster, result, trace = run_one("dfsio-read", input_gb=0.5)
    assert trace.total_bytes(TrafficComponent.SHUFFLE) == 0
    assert result.rounds[0].shuffle_bytes == 0
    assert result.output_bytes == 0


def test_pagerank_runs_multiple_chained_rounds():
    cluster, result, trace = run_one("pagerank", input_gb=0.25, iterations=2)
    assert len(result.rounds) == 2
    # Round 1 reads round 0's output (carryover ~0.9 of input).
    assert result.rounds[1].input_bytes == pytest.approx(
        result.rounds[0].output_bytes, rel=0.01)
    assert result.rounds[1].submit_time >= result.rounds[0].finish_time


def test_kmeans_rereads_input_every_round():
    cluster, result, trace = run_one("kmeans", input_gb=0.25, iterations=3)
    assert len(result.rounds) == 3
    size = 0.25 * 1024 * MB
    for round_result in result.rounds:
        assert round_result.input_bytes == pytest.approx(size, rel=0.01)
        assert round_result.shuffle_bytes < 0.01 * size


def test_flows_carry_job_id_and_components():
    cluster, result, trace = run_one("terasort", input_gb=0.25)
    components = trace.components_present()
    for expected in ("shuffle", "control", "hdfs_write"):
        assert expected in components
    data_flows = [f for f in trace.flows
                  if f.component in ("hdfs_read", "shuffle", "hdfs_write")]
    assert all(f.job_id == result.job_id for f in data_flows)


def test_port_classifier_reconstructs_data_components():
    from repro.capture.classifier import classify_flow
    cluster, result, trace = run_one("terasort", input_gb=0.25)
    for flow in trace.flows:
        if flow.component in ("hdfs_read", "shuffle", "hdfs_write"):
            assert classify_flow(flow).value == flow.component
        elif flow.component == "control":
            # Umbilical notifications ride ephemeral ports -> OTHER.
            assert classify_flow(flow).value in ("control", "other")


def test_determinism_same_seed_same_trace():
    # Two independent clusters, same seed: byte-identical flow streams.
    def capture(seed):
        config = HadoopConfig(block_size=64 * MB, num_reducers=4)
        cluster = HadoopCluster(ClusterSpec(num_nodes=8, hosts_per_rack=4),
                                config, seed=seed)
        spec = make_job("wordcount", input_gb=0.25, job_id="job_fixed")
        results, traces = cluster.run([spec])
        return [(f.src, f.dst, f.size, round(f.start, 9), f.component)
                for f in traces[0].flows]

    assert capture(7) == capture(7)
    assert capture(7) != capture(8)


def test_speculative_execution_duplicates_stragglers():
    config = HadoopConfig(block_size=64 * MB, num_reducers=2, speculative=True)
    cluster, result, trace = run_one("terasort", input_gb=0.5, config=config)
    # Speculation may or may not trigger, but the run must complete and
    # never duplicate shuffle deliveries.
    assert result.rounds[0].shuffle_bytes == pytest.approx(
        result.rounds[0].map_output_bytes, rel=1e-6)


def test_concurrent_jobs_complete_under_fifo_and_fair():
    for scheduler in ("fifo", "fair"):
        config = HadoopConfig(block_size=64 * MB, num_reducers=2,
                              scheduler=scheduler)
        cluster = HadoopCluster(ClusterSpec(num_nodes=8, hosts_per_rack=4),
                                config, seed=3)
        specs = [make_job("wordcount", input_gb=0.25),
                 make_job("grep", input_gb=0.25)]
        results, traces = cluster.run(specs, arrival_times=[0.0, 5.0])
        assert all(r.finish_time > 0 for r in results)
        assert {t.meta.job_kind for t in traces} == {"wordcount", "grep"}


def test_control_traffic_present_but_small():
    cluster, result, trace = run_one("terasort", input_gb=0.5)
    control_bytes = trace.total_bytes(TrafficComponent.CONTROL)
    total = trace.total_bytes()
    assert 0 < control_bytes < 0.01 * total


def test_master_hosts_no_tasks():
    cluster, result, trace = run_one("terasort", input_gb=0.5)
    master = cluster.master.name
    shuffle = trace.component(TrafficComponent.SHUFFLE)
    assert all(master not in (f.src, f.dst) for f in shuffle)


def test_event_queue_drains_after_run():
    cluster, result, trace = run_one("terasort", input_gb=0.25)
    assert cluster.sim.pending() == 0
    assert not cluster.net.active
