"""Tests for the HDFS balancer."""

import numpy as np
import pytest

from repro.cluster.topology import build_topology
from repro.cluster.units import MB
from repro.hdfs.balancer import Balancer
from repro.hdfs.namenode import NameNode
from repro.hdfs.placement import PlacementPolicy
from repro.net.network import FlowNetwork
from repro.simkit.core import Simulator


class PinnedPlacement(PlacementPolicy):
    """Places every replica on the first hosts: maximal skew."""

    def choose_targets(self, hosts, replication, writer, rng):
        return list(hosts)[:min(replication, len(hosts))]


def make_skewed_cluster(num_hosts=6, blocks=8, block_size=32 * MB,
                        replication=1):
    sim = Simulator()
    topo = build_topology("tree", num_hosts=num_hosts, hosts_per_rack=3)
    net = FlowNetwork(sim, topo)
    nn = NameNode(topo.hosts[0], topo.hosts, policy=PinnedPlacement(),
                  rng=np.random.default_rng(0))
    nn.create_file("/skewed")
    for _ in range(blocks):
        nn.allocate_block("/skewed", block_size, replication, writer=None)
    return sim, net, nn


def test_bytes_per_node_and_blocks_on():
    sim, net, nn = make_skewed_cluster(blocks=4, replication=2)
    usage = nn.bytes_per_node()
    # Pinned placement: replicas on hosts[0] and hosts[1] only.
    hosts = sorted(usage, key=lambda h: h.name)
    assert usage[hosts[0]] == 4 * 32 * MB
    assert usage[hosts[1]] == 4 * 32 * MB
    assert usage[hosts[2]] == 0
    assert len(nn.blocks_on(hosts[0])) == 4


def test_plan_moves_from_full_to_empty():
    sim, net, nn = make_skewed_cluster()
    balancer = Balancer(sim, net, nn, threshold=0.1)
    moves = balancer.plan()
    assert moves
    sources = {source.name for _, source, _ in moves}
    assert sources == {"h000"}  # only the loaded node sheds blocks
    # Planning never moves a block onto a node already holding it.
    for location, _, target in moves:
        assert target not in location.replicas


def test_run_once_reduces_spread_and_generates_traffic():
    sim, net, nn = make_skewed_cluster()
    balancer = Balancer(sim, net, nn, bandwidth=50.0 * MB, threshold=0.1)
    report, process = balancer.run_once()
    initial = report.initial_spread
    sim.run()
    assert report.moves > 0
    assert report.bytes_moved == report.moves * 32 * MB
    assert report.final_spread < initial
    assert net.completed_count == report.moves
    assert net.total_bytes == pytest.approx(report.bytes_moved)


def test_moves_commit_in_block_map():
    sim, net, nn = make_skewed_cluster(blocks=4)
    balancer = Balancer(sim, net, nn)
    report, _ = balancer.run_once()
    sim.run()
    usage = nn.bytes_per_node()
    # Replication preserved: total physical bytes unchanged.
    assert sum(usage.values()) == 4 * 32 * MB
    for location in nn.locate_file("/skewed"):
        assert len(location.replicas) == 1
        assert len(set(location.replicas)) == 1


def test_bandwidth_throttle_paces_moves():
    sim, net, nn = make_skewed_cluster(blocks=2)
    slow = Balancer(sim, net, nn, bandwidth=8.0 * MB,
                    max_concurrent_moves=1)
    report, _ = slow.run_once()
    sim.run()
    if report.moves:
        # Each 32 MiB block at 8 MiB/s takes 4 s, sequentially.
        assert sim.now >= report.moves * 4.0 * 0.999


def test_balanced_cluster_plans_nothing():
    sim = Simulator()
    topo = build_topology("star", num_hosts=4)
    net = FlowNetwork(sim, topo)
    nn = NameNode(topo.hosts[0], topo.hosts, rng=np.random.default_rng(1))
    nn.create_file("/even")
    for _ in range(8):  # default placement spreads these out
        nn.allocate_block("/even", 32 * MB, 1, writer=None)
    balancer = Balancer(sim, net, nn, threshold=2.0)
    assert balancer.plan() == []
    report, _ = balancer.run_once()
    sim.run()
    assert report.moves == 0


def test_balancer_validation():
    sim, net, nn = make_skewed_cluster()
    with pytest.raises(ValueError):
        Balancer(sim, net, nn, bandwidth=0)
    with pytest.raises(ValueError):
        Balancer(sim, net, nn, threshold=0)
