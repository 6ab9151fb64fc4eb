"""Tests for the jellyfish topology and cross-topology properties."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.topology import Switch, build_topology
from repro.cluster.units import MB
from repro.jobs.base import make_job
from repro.mapreduce.cluster import HadoopCluster


def test_jellyfish_basic_structure():
    topo = build_topology("jellyfish", num_hosts=16, hosts_per_rack=4)
    assert topo.kind == "jellyfish"
    assert len(topo.hosts) == 16
    switches = [n for n in topo.graph.nodes if isinstance(n, Switch)]
    assert len(switches) == 4
    assert nx.is_connected(topo.graph)


def test_jellyfish_switch_graph_is_regular():
    topo = build_topology("jellyfish", num_hosts=24, hosts_per_rack=4)
    switches = [n for n in topo.graph.nodes if isinstance(n, Switch)]
    degrees = {sum(1 for neighbor in topo.graph.neighbors(s)
                   if isinstance(neighbor, Switch)) for s in switches}
    assert len(degrees) == 1  # random *regular* graph


def test_jellyfish_single_rack_degenerates_to_star():
    topo = build_topology("jellyfish", num_hosts=4, hosts_per_rack=8)
    assert topo.kind == "star"


def test_jellyfish_is_deterministic():
    a = build_topology("jellyfish", num_hosts=16, hosts_per_rack=4)
    b = build_topology("jellyfish", num_hosts=16, hosts_per_rack=4)
    edges_a = {(str(u), str(v)) for u, v in a.graph.edges}
    edges_b = {(str(u), str(v)) for u, v in b.graph.edges}
    assert edges_a == edges_b


def test_full_job_runs_on_jellyfish():
    spec = ClusterSpec(num_nodes=8, hosts_per_rack=4, topology="jellyfish")
    cluster = HadoopCluster(spec, HadoopConfig(block_size=32 * MB,
                                               num_reducers=2), seed=71)
    results, traces = cluster.run([make_job("terasort", input_gb=0.25)])
    assert not results[0].failed
    assert traces[0].flow_count() > 0


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["star", "tree", "leafspine", "jellyfish"]),
    num_hosts=st.integers(min_value=2, max_value=40),
    per_rack=st.integers(min_value=2, max_value=8),
)
def test_topology_universal_properties(kind, num_hosts, per_rack):
    """Any topology: connected, positive capacities, all pairs routable."""
    topo = build_topology(kind, num_hosts=num_hosts, hosts_per_rack=per_rack)
    assert len(topo.hosts) == num_hosts
    assert nx.is_connected(topo.graph)
    for u, v, data in topo.graph.edges(data=True):
        assert data["capacity"] > 0
    # Spot-check routing between the extremes.
    a, b = topo.hosts[0], topo.hosts[-1]
    path = topo.path(a, b)
    assert path[0] == a and path[-1] == b
    for u, v in topo.edges_on_path(path):
        assert topo.graph.has_edge(u, v)
