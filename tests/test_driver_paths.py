"""Tests for driver error paths and iterative chaining details."""

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.jobs.base import make_job
from repro.mapreduce.cluster import HadoopCluster


def make_cluster(seed=111, **overrides):
    defaults = dict(block_size=32 * MB, num_reducers=2)
    defaults.update(overrides)
    return HadoopCluster(ClusterSpec(num_nodes=4, hosts_per_rack=4),
                         HadoopConfig(**defaults), seed=seed)


def test_iterative_round_outputs_feed_next_round():
    cluster = make_cluster()
    spec = make_job("pagerank", input_gb=0.125, iterations=2)
    results, traces = cluster.run([spec])
    result = results[0]
    assert len(result.rounds) == 2
    # Round 1's input files are round 0's part files in HDFS.
    round0_output = f"/data/{spec.job_id}/output/iter00"
    part_files = [path for path in cluster.namenode.list_files()
                  if path.startswith(round0_output + "/")]
    assert part_files
    assert result.rounds[1].input_bytes == pytest.approx(
        sum(cluster.namenode.file_size(path) for path in part_files))


def test_jar_staged_once_per_job():
    cluster = make_cluster(seed=112)
    spec = make_job("kmeans", input_gb=0.125, iterations=3)
    results, traces = cluster.run([spec])
    jar_paths = [path for path in cluster.namenode.list_files()
                 if path.startswith("/staging/")]
    assert len(jar_paths) == 1  # one jar despite three rounds


def test_history_file_written_per_round():
    cluster = make_cluster(seed=113)
    spec = make_job("pagerank", input_gb=0.125, iterations=2)
    cluster.run([spec])
    histories = [path for path in cluster.namenode.list_files()
                 if path.startswith("/history/")]
    assert len(histories) == 2


def test_submit_job_requires_started_cluster_for_progress():
    cluster = make_cluster(seed=114)
    driver = cluster.submit_job(make_job("grep", input_gb=0.125))
    # Without heartbeats nothing can be granted; the driver stalls at
    # the AM request (jar staging completes — it needs no containers).
    cluster.sim.run(until=30.0)
    assert not driver.done.fired
    cluster.start()
    cluster.sim.run(until=60.0)
    assert driver.done.fired
    cluster.stop()
    cluster.sim.run()


def test_arrival_times_length_mismatch_rejected():
    cluster = make_cluster(seed=115)
    with pytest.raises(ValueError):
        cluster.run([make_job("grep", input_gb=0.125)], arrival_times=[0.0, 1.0])
