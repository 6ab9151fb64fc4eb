"""Tests for map-output compression's effect on traffic."""

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.jobs.base import make_job
from repro.mapreduce.cluster import HadoopCluster


def run(compress, ratio=0.45, seed=13):
    config = HadoopConfig(block_size=32 * MB, num_reducers=4,
                          compress_map_output=compress,
                          compression_ratio=ratio)
    cluster = HadoopCluster(ClusterSpec(num_nodes=8, hosts_per_rack=4),
                            config, seed=seed)
    results, traces = cluster.run(
        [make_job("terasort", input_gb=0.5, job_id="comp")])
    return results[0], traces[0]


def test_compression_shrinks_shuffle_traffic():
    plain_result, plain_trace = run(compress=False)
    compressed_result, compressed_trace = run(compress=True, ratio=0.45)
    plain_shuffle = plain_result.rounds[0].shuffle_bytes
    compressed_shuffle = compressed_result.rounds[0].shuffle_bytes
    assert compressed_shuffle == pytest.approx(plain_shuffle * 0.45, rel=1e-6)
    assert (compressed_trace.total_bytes("shuffle")
            < plain_trace.total_bytes("shuffle"))


def test_compression_preserves_logical_output():
    plain_result, _ = run(compress=False)
    compressed_result, _ = run(compress=True)
    # The reducer's logical input (and hence output) is unchanged.
    assert compressed_result.output_bytes == pytest.approx(
        plain_result.output_bytes, rel=1e-6)


def test_compression_speeds_up_shuffle_bound_jobs():
    plain_result, _ = run(compress=False)
    compressed_result, _ = run(compress=True)
    # Less data on the wire can't make the job slower (same seed).
    assert (compressed_result.completion_time
            <= plain_result.completion_time * 1.05)


def test_compression_ratio_validation():
    with pytest.raises(ValueError):
        HadoopConfig(compression_ratio=0.0)
    with pytest.raises(ValueError):
        HadoopConfig(compression_ratio=1.5)
    HadoopConfig(compression_ratio=1.0)  # identity codec is legal
