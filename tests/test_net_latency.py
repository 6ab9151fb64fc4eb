"""Tests for the per-hop latency (connection setup) model."""

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.topology import build_topology
from repro.cluster.units import GBPS, MB
from repro.jobs.base import make_job
from repro.mapreduce.cluster import HadoopCluster
from repro.net.network import FlowNetwork
from repro.simkit.core import Simulator


def make_net(hop_latency, kind="tree", num_hosts=8, hosts_per_rack=4):
    sim = Simulator()
    topo = build_topology(kind, num_hosts=num_hosts, hosts_per_rack=hosts_per_rack)
    return sim, topo, FlowNetwork(sim, topo, hop_latency=hop_latency)


def test_setup_delay_dominates_small_flows():
    sim, topo, net = make_net(hop_latency=0.001)
    a, b = topo.hosts_in_rack(0)[0], topo.hosts_in_rack(0)[1]
    flow = net.start_flow(a, b, 512.0)  # heartbeat-sized
    sim.run()
    # 2 hops -> RTT 4 ms -> setup 6 ms; transfer time ~4 us.
    assert flow.duration == pytest.approx(0.006, rel=0.01)


def test_setup_delay_negligible_for_bulk_flows():
    sim, topo, net = make_net(hop_latency=0.001)
    a, b = topo.hosts_in_rack(0)[0], topo.hosts_in_rack(0)[1]
    size = 1.0 * GBPS  # 1 second at line rate
    flow = net.start_flow(a, b, size)
    sim.run()
    assert flow.duration == pytest.approx(1.006, rel=0.01)


def test_cross_rack_pays_more_setup_than_same_rack():
    sim, topo, net = make_net(hop_latency=0.001)
    same_rack = net.start_flow(topo.hosts_in_rack(0)[0],
                               topo.hosts_in_rack(0)[1], 100.0)
    cross_rack = net.start_flow(topo.hosts_in_rack(0)[2],
                                topo.hosts_in_rack(1)[0], 100.0)
    sim.run()
    assert cross_rack.duration > same_rack.duration


def test_zero_latency_preserves_immediate_activation():
    sim, topo, net = make_net(hop_latency=0.0)
    flow = net.start_flow(topo.hosts[0], topo.hosts[1], 1000.0)
    assert net.active  # joined the active set synchronously
    sim.run()
    assert flow.finished


def test_negative_latency_rejected():
    with pytest.raises(ValueError):
        make_net(hop_latency=-1.0)


def test_cluster_spec_wires_latency_through():
    spec = ClusterSpec(num_nodes=4, hop_latency_s=0.0005)
    cluster = HadoopCluster(spec, HadoopConfig(block_size=32 * MB,
                                               num_reducers=2), seed=1)
    assert cluster.net.hop_latency == 0.0005
    results, traces = cluster.run([make_job("grep", input_gb=0.125)])
    assert not results[0].failed
    # Control flows now have visible durations (setup-dominated).
    control = [f for f in traces[0].flows if f.component == "control"]
    assert control
    assert all(f.duration > 0 for f in control)


def test_cluster_spec_rejects_negative_latency():
    with pytest.raises(ValueError):
        ClusterSpec(hop_latency_s=-0.1)
