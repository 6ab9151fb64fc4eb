"""Tests for Hadoop-style job counters and their accounting identities."""

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.jobs.base import make_job
from repro.mapreduce import counters as ctr
from repro.mapreduce.cluster import HadoopCluster
from repro.mapreduce.counters import JobCounters


def run(kind="terasort", input_gb=0.5, seed=1, **config_overrides):
    defaults = dict(block_size=32 * MB, num_reducers=4)
    defaults.update(config_overrides)
    cluster = HadoopCluster(ClusterSpec(num_nodes=8, hosts_per_rack=4),
                            HadoopConfig(**defaults), seed=seed)
    results, traces = cluster.run([make_job(kind, input_gb=input_gb)])
    return results[0]


def test_counter_bag_basics():
    counters = JobCounters()
    counters.increment(ctr.MAP_INPUT_BYTES, 100.0)
    counters.increment(ctr.MAP_INPUT_BYTES, 50.0)
    assert counters[ctr.MAP_INPUT_BYTES] == 150.0
    assert counters.get(ctr.REDUCE_OUTPUT_BYTES) == 0.0
    with pytest.raises(KeyError):
        counters.increment("MADE_UP")
    with pytest.raises(KeyError):
        counters.get("MADE_UP")


def test_counter_merge_and_roundtrip():
    a = JobCounters({ctr.MAP_INPUT_BYTES: 10.0})
    b = JobCounters({ctr.MAP_INPUT_BYTES: 5.0, ctr.DATA_LOCAL_MAPS: 2.0})
    merged = a.merge(b)
    assert merged[ctr.MAP_INPUT_BYTES] == 15.0
    assert merged[ctr.DATA_LOCAL_MAPS] == 2.0
    clone = JobCounters.from_dict(merged.to_dict())
    assert clone.values == merged.values


def test_counter_render():
    counters = JobCounters({ctr.TOTAL_LAUNCHED_MAPS: 16.0})
    text = counters.render()
    assert "TOTAL_LAUNCHED_MAPS=16" in text


def test_terasort_counter_identities():
    result = run("terasort", input_gb=0.5)
    counters = result.counters()

    # Input accounting: every split byte counted once.
    assert counters[ctr.MAP_INPUT_BYTES] == pytest.approx(0.5 * 1024 * MB)
    # Shuffle conservation: map output == reduce shuffle == reduce input.
    assert counters[ctr.REDUCE_SHUFFLE_BYTES] == pytest.approx(
        counters[ctr.MAP_OUTPUT_BYTES], rel=1e-9)
    assert counters[ctr.REDUCE_INPUT_BYTES] == pytest.approx(
        counters[ctr.REDUCE_SHUFFLE_BYTES])
    # Spills: the full map output hits local disk before the shuffle.
    assert counters[ctr.FILE_BYTES_WRITTEN] == pytest.approx(
        counters[ctr.MAP_OUTPUT_BYTES])
    # Task launches match the round's task counts (no failures here).
    assert counters[ctr.TOTAL_LAUNCHED_MAPS] == result.rounds[0].num_maps
    assert counters[ctr.TOTAL_LAUNCHED_REDUCES] == result.rounds[0].num_reduces
    assert counters[ctr.NUM_KILLED_MAPS] == 0


def test_locality_counters_sum_to_split_reads():
    result = run("terasort", input_gb=0.5, seed=2)
    counters = result.counters()
    round0 = result.rounds[0]
    locality_total = (counters[ctr.DATA_LOCAL_MAPS]
                      + counters[ctr.RACK_LOCAL_MAPS]
                      + counters[ctr.OTHER_LOCAL_MAPS])
    assert locality_total == round0.num_maps


def test_hdfs_written_includes_output_and_history():
    result = run("teragen", input_gb=0.25, seed=3)
    counters = result.counters()
    # Generated output + the job-history file.
    assert counters[ctr.HDFS_BYTES_WRITTEN] == pytest.approx(
        result.output_bytes + 128 * 1024, rel=0.01)


def test_iterative_job_counters_aggregate_rounds():
    result = run("kmeans", input_gb=0.25, seed=4, num_reducers=2)
    counters = result.counters()
    # Three rounds each re-read the full input.
    assert counters[ctr.MAP_INPUT_BYTES] == pytest.approx(
        3 * 0.25 * 1024 * MB, rel=0.01)
    assert counters[ctr.TOTAL_LAUNCHED_MAPS] == result.num_maps


def test_killed_task_counters_on_node_failure():
    from repro.faults import NODEMANAGER, FaultEvent, FaultInjector

    cluster = HadoopCluster(ClusterSpec(num_nodes=8, hosts_per_rack=4),
                            HadoopConfig(block_size=32 * MB, num_reducers=4),
                            seed=6)
    # Victim chosen away from the AM (which lands on the first
    # heartbeat after submission; h007 is last in phase order).
    FaultInjector(cluster, [FaultEvent(3.5, NODEMANAGER, "h007")])
    results, _ = cluster.run([make_job("terasort", input_gb=0.5)])
    counters = results[0].counters()
    killed = counters[ctr.NUM_KILLED_MAPS] + counters[ctr.NUM_KILLED_REDUCES]
    assert killed == results[0].rounds[0].lost_containers
    # Every killed task was relaunched: launches exceed task counts.
    assert (counters[ctr.TOTAL_LAUNCHED_MAPS]
            + counters[ctr.TOTAL_LAUNCHED_REDUCES]) == pytest.approx(
        results[0].rounds[0].num_maps + results[0].rounds[0].num_reduces + killed)
