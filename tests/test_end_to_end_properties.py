"""Property-based end-to-end invariants of the whole substrate.

Hypothesis drives random (job, input, cluster, config) combinations
through a full capture and checks the invariants that must hold for
*any* configuration — the strongest regression net in the suite.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.jobs.base import make_job
from repro.mapreduce import counters as ctr
from repro.mapreduce.cluster import HadoopCluster

JOB_KINDS = ["terasort", "wordcount", "grep", "teragen", "dfsio-read"]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(JOB_KINDS),
    input_mb=st.sampled_from([64, 160, 288]),
    nodes=st.sampled_from([4, 6, 8]),
    reducers=st.integers(min_value=1, max_value=6),
    replication=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=50),
)
def test_capture_invariants(kind, input_mb, nodes, reducers, replication, seed):
    cluster = HadoopCluster(
        ClusterSpec(num_nodes=nodes, hosts_per_rack=4),
        HadoopConfig(block_size=32 * MB, num_reducers=reducers,
                     replication=replication),
        seed=seed)
    spec = make_job(kind, input_gb=input_mb / 1024.0, job_id="prop")
    results, traces = cluster.run([spec])
    result, trace = results[0], traces[0]
    round0 = result.rounds[0]
    counters = result.counters()

    # -- termination and cleanliness ------------------------------------------
    assert not result.failed
    assert result.finish_time > result.submit_time
    assert cluster.sim.pending() == 0
    assert not cluster.net.active

    # -- task accounting ---------------------------------------------------------
    expected_maps = max(1, -(-int(input_mb * MB) // (32 * MB))) \
        if kind != "teragen" else round0.num_maps
    if kind != "teragen":
        assert round0.num_maps == expected_maps
    assert counters[ctr.TOTAL_LAUNCHED_MAPS] == round0.num_maps
    assert counters[ctr.NUM_KILLED_MAPS] == 0

    # -- flow sanity ----------------------------------------------------------------
    for flow in trace.flows:
        assert flow.size >= 0
        assert flow.end >= flow.start
        assert flow.src != flow.dst  # local transfers never captured

    # -- conservation -----------------------------------------------------------------
    # Captured shuffle (network) bytes never exceed the map output, and
    # together with host-local fetches they equal it exactly.
    if round0.num_reduces > 0:
        assert trace.total_bytes("shuffle") <= round0.map_output_bytes + 1.0
        assert round0.shuffle_bytes == pytest.approx(round0.map_output_bytes)
    # HDFS write traffic is bounded by the replication pipeline:
    # logical bytes written are counted; each crosses the wire at most
    # `replication` times and at least `replication - 1` times.
    logical = counters[ctr.HDFS_BYTES_WRITTEN] + 2 * MB  # + jar staging
    network_writes = trace.total_bytes("hdfs_write")
    max_replication = max(replication, min(10, nodes))  # jar uses up to 10
    assert network_writes <= logical * max_replication
    # Reads on the wire are at most the bytes read from HDFS.
    assert trace.total_bytes("hdfs_read") <= counters[ctr.HDFS_BYTES_READ] + 1.0

    # -- capture window ---------------------------------------------------------------
    data_flows = [f for f in trace.flows
                  if f.component in ("hdfs_read", "shuffle", "hdfs_write")]
    for flow in data_flows:
        assert flow.start >= result.submit_time - 1e-9
        assert flow.end <= result.finish_time + 1e-6


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["wordcount", "grep"]),
    seed=st.integers(min_value=0, max_value=30),
)
def test_same_seed_reproduces_exactly(kind, seed):
    def fingerprint():
        cluster = HadoopCluster(
            ClusterSpec(num_nodes=4, hosts_per_rack=4),
            HadoopConfig(block_size=32 * MB, num_reducers=2), seed=seed)
        _, traces = cluster.run([make_job(kind, input_gb=0.125, job_id="det")])
        return [(f.src, f.dst, f.size, round(f.start, 9), round(f.end, 9),
                 f.component) for f in traces[0].flows]

    assert fingerprint() == fingerprint()
