"""Tests for delay scheduling (locality-wait map binding)."""

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.jobs.base import make_job
from repro.mapreduce.cluster import HadoopCluster


def run_with_delay(delay, seed=9, replication=1, input_gb=0.25):
    """Unreplicated input concentrates blocks; delay should pay off."""
    config = HadoopConfig(block_size=32 * MB, num_reducers=2,
                          replication=replication,
                          delay_scheduling_s=delay)
    cluster = HadoopCluster(ClusterSpec(num_nodes=8, hosts_per_rack=4),
                            config, seed=seed)
    spec = make_job("terasort", input_gb=input_gb, job_id="delaytest")
    results, traces = cluster.run([spec])
    return results[0], traces[0]


def test_delay_scheduling_improves_locality_on_sparse_replicas():
    eager_result, eager_trace = run_with_delay(0.0)
    patient_result, patient_trace = run_with_delay(6.0)
    eager_round = eager_result.rounds[0]
    patient_round = patient_result.rounds[0]
    # With replication 1 each split lives on exactly one node: waiting
    # for that node's heartbeats converts remote reads into local ones.
    assert patient_round.node_local_reads > eager_round.node_local_reads
    assert (patient_trace.total_bytes("hdfs_read")
            < eager_trace.total_bytes("hdfs_read"))


def test_delay_scheduling_costs_time():
    eager_result, _ = run_with_delay(0.0)
    patient_result, _ = run_with_delay(6.0)
    # Declined containers mean later task starts: the patient run can't
    # be dramatically faster, and typically is slower or equal.
    assert (patient_result.completion_time
            >= eager_result.completion_time * 0.7)


def test_job_completes_with_delay_and_reducers():
    # Regression: declined containers must never let reducers consume
    # the whole cluster and deadlock the map phase.
    result, trace = run_with_delay(10.0, replication=1)
    assert not result.failed
    assert result.rounds[0].num_maps == 8
    assert result.rounds[0].shuffle_bytes > 0


def test_zero_delay_preserves_default_behaviour():
    result, _ = run_with_delay(0.0, replication=3)
    assert not result.failed


def test_config_validates_delay():
    with pytest.raises(ValueError):
        HadoopConfig(delay_scheduling_s=-1.0)
