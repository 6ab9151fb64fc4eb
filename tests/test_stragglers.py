"""Tests for stragglers, heterogeneous nodes and speculation's payoff."""

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.jobs.base import make_job
from repro.mapreduce.cluster import HadoopCluster


def run(seed=31, straggler_prob=0.0, speculative=False, node_speed_sigma=0.0,
        kind="terasort", input_gb=0.5):
    spec = ClusterSpec(num_nodes=8, hosts_per_rack=4,
                       node_speed_sigma=node_speed_sigma)
    config = HadoopConfig(block_size=32 * MB, num_reducers=4,
                          straggler_prob=straggler_prob,
                          straggler_slowdown=8.0,
                          speculative=speculative)
    cluster = HadoopCluster(spec, config, seed=seed)
    results, traces = cluster.run(
        [make_job(kind, input_gb=input_gb, job_id="straggle")])
    return cluster, results[0]


def test_config_validation():
    with pytest.raises(ValueError):
        HadoopConfig(straggler_prob=1.5)
    with pytest.raises(ValueError):
        HadoopConfig(straggler_slowdown=0.5)
    with pytest.raises(ValueError):
        ClusterSpec(node_speed_sigma=-1.0)


def test_stragglers_stretch_the_map_tail():
    _, smooth = run(straggler_prob=0.0)
    _, straggly = run(straggler_prob=0.25)
    smooth_max = max(smooth.rounds[0].map_durations)
    straggly_max = max(straggly.rounds[0].map_durations)
    assert straggly_max > 2.0 * smooth_max
    assert straggly.completion_time > smooth.completion_time


def test_heterogeneous_nodes_have_distinct_speeds():
    cluster, result = run(node_speed_sigma=0.4)
    speeds = list(cluster.node_speed.values())
    assert len(set(round(s, 6) for s in speeds)) > 1
    assert all(speed > 0 for speed in speeds)
    assert not result.failed


def test_homogeneous_cluster_speed_factors_are_one():
    cluster, _ = run(node_speed_sigma=0.0)
    assert all(speed == 1.0 for speed in cluster.node_speed.values())


def test_speculation_cuts_the_straggler_tail():
    # Map-dominated workload with violent stragglers: the regime
    # speculation exists for.  Aggregate over seeds: it must win.
    def tail_run(seed, speculative):
        spec = ClusterSpec(num_nodes=8, hosts_per_rack=4)
        config = HadoopConfig(block_size=64 * MB, num_reducers=2,
                              straggler_prob=0.25,
                              straggler_slowdown=20.0,
                              speculative=speculative)
        cluster = HadoopCluster(spec, config, seed=seed)
        results, _ = cluster.run(
            [make_job("wordcount", input_gb=1.0, job_id="tail")])
        return results[0]

    plain_jcts = []
    speculative_jcts = []
    attempts = 0
    for seed in (41, 42, 43):
        plain = tail_run(seed, speculative=False)
        spec = tail_run(seed, speculative=True)
        plain_jcts.append(plain.completion_time)
        speculative_jcts.append(spec.completion_time)
        attempts += spec.rounds[0].speculative_attempts
        assert not spec.failed
    assert attempts > 0  # speculation actually triggered somewhere
    assert sum(speculative_jcts) < sum(plain_jcts)


def test_speculation_never_corrupts_shuffle_accounting():
    _, result = run(seed=47, straggler_prob=0.3, speculative=True)
    round0 = result.rounds[0]
    # Duplicate completions must not double-feed reducers.
    assert round0.shuffle_bytes == pytest.approx(round0.map_output_bytes)
