"""Integration tests: DFS client over the flow network."""

import numpy as np
import pytest

from repro.capture.collector import FlowCollector
from repro.capture.records import TrafficComponent
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.topology import build_topology
from repro.cluster.units import MB
from repro.hdfs.client import DfsClient, split_into_blocks
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.net.network import FlowNetwork
from repro.simkit.core import Simulator


def make_dfs(num_hosts=8, block_size=32 * MB, replication=3):
    sim = Simulator()
    topo = build_topology("tree", num_hosts=num_hosts, hosts_per_rack=4)
    net = FlowNetwork(sim, topo)
    config = HadoopConfig(block_size=block_size, replication=replication)
    spec = ClusterSpec(num_nodes=num_hosts)
    nn = NameNode(host=topo.hosts[0], datanodes=topo.hosts,
                  rng=np.random.default_rng(0))
    datanodes = {
        host: DataNode(sim, net, host, nn.host,
                       spec.disk_read_rate, spec.disk_write_rate)
        for host in topo.hosts
    }
    client = DfsClient(sim, net, nn, datanodes, config)
    collector = FlowCollector(net)
    return sim, topo, net, nn, client, collector


def test_split_into_blocks():
    assert split_into_blocks(0, 10) == [0]
    assert split_into_blocks(10, 10) == [10]
    assert split_into_blocks(25, 10) == [10, 10, 5]
    assert split_into_blocks(30, 10) == [10, 10, 10]
    with pytest.raises(ValueError):
        split_into_blocks(-1, 10)
    with pytest.raises(ValueError):
        split_into_blocks(10, 0)


def test_write_file_places_all_blocks():
    sim, topo, net, nn, client, _ = make_dfs()

    def writer(sim):
        locations = yield from client.write_file(
            "/out", 70 * MB, topo.hosts[1], job_id="j1")
        return locations

    process = sim.process(writer(sim))
    sim.run()
    locations = process.result
    assert len(locations) == 3  # 32 + 32 + 6
    assert nn.file_size("/out") == 70 * MB
    for location in locations:
        assert location.primary == topo.hosts[1]  # replica 1 local to writer
        assert len(location.replicas) == 3


def test_write_traffic_is_replication_minus_one_copies():
    sim, topo, net, nn, client, collector = make_dfs(replication=3)
    size = 64 * MB

    def writer(sim):
        yield from client.write_file("/out", size, topo.hosts[1], job_id="j1")

    sim.process(writer(sim))
    sim.run()
    write_bytes = sum(r.size for r in collector.records
                      if r.component == TrafficComponent.HDFS_WRITE.value)
    # First replica is local: (3-1) copies of every byte cross the network.
    assert write_bytes == pytest.approx(2 * size)


@pytest.mark.parametrize("replication,expected_copies", [(1, 0), (2, 1), (3, 2)])
def test_write_traffic_scales_with_replication(replication, expected_copies):
    sim, topo, net, nn, client, collector = make_dfs(replication=replication)
    size = 32 * MB

    def writer(sim):
        yield from client.write_file("/out", size, topo.hosts[1], job_id="j1")

    sim.process(writer(sim))
    sim.run()
    assert collector.total_bytes() == pytest.approx(expected_copies * size)


def test_pipeline_hop_ports_classify_as_write():
    sim, topo, net, nn, client, collector = make_dfs()

    def writer(sim):
        yield from client.write_file("/out", 32 * MB, topo.hosts[1], job_id="j1")

    sim.process(writer(sim))
    sim.run()
    from repro.capture.classifier import classification_accuracy
    assert collector.records
    assert classification_accuracy(collector.records) == 1.0


def test_read_local_block_generates_no_network_traffic():
    sim, topo, net, nn, client, collector = make_dfs()
    locations = client.preload_file("/in", 32 * MB)
    reader = locations[0].primary

    def read(sim):
        served = yield from client.read_block(locations[0].block, reader, job_id="j1")
        return served

    process = sim.process(read(sim))
    sim.run()
    assert process.result == reader
    assert collector.records == []


def test_read_remote_block_generates_one_read_flow():
    sim, topo, net, nn, client, collector = make_dfs()
    locations = client.preload_file("/in", 32 * MB)
    outsiders = [h for h in topo.hosts if h not in locations[0].replicas]
    reader = outsiders[0]

    def read(sim):
        yield from client.read_block(locations[0].block, reader, job_id="j1")

    sim.process(read(sim))
    sim.run()
    assert len(collector.records) == 1
    record = collector.records[0]
    assert record.component == TrafficComponent.HDFS_READ.value
    assert record.size == pytest.approx(32 * MB)
    assert record.dst == reader.name


def test_read_file_reads_every_block():
    sim, topo, net, nn, client, collector = make_dfs()
    client.preload_file("/in", 70 * MB)
    reader = topo.hosts[5]

    def read(sim):
        served = yield from client.read_file("/in", reader, job_id="j1")
        return served

    process = sim.process(read(sim))
    sim.run()
    assert len(process.result) == 3


def test_preload_creates_no_flows():
    sim, topo, net, nn, client, collector = make_dfs()
    locations = client.preload_file("/in", 96 * MB)
    sim.run()
    assert len(locations) == 3
    assert collector.records == []
    assert nn.file_size("/in") == 96 * MB


def test_write_duration_bounded_by_disk_rate():
    sim, topo, net, nn, client, _ = make_dfs(num_hosts=8, block_size=32 * MB)
    spec = ClusterSpec()
    size = 32 * MB

    def writer(sim):
        yield from client.write_file("/out", size, topo.hosts[1], job_id="j1")

    sim.process(writer(sim))
    sim.run()
    # Block write can't beat the slowest stage: local disk write at
    # disk_write_rate (120 MB/s < 1 Gbit/s link).
    expected_min = size / spec.disk_write_rate
    assert sim.now >= expected_min * 0.999


def test_datanode_heartbeats_flow_to_namenode():
    sim, topo, net, nn, client, collector = make_dfs()
    datanode = client.datanodes[topo.hosts[3]]
    datanode.start_heartbeats()
    sim.schedule(10.0, datanode.stop_heartbeats)
    sim.run()
    control = [r for r in collector.records
               if r.component == TrafficComponent.CONTROL.value]
    assert len(control) >= 3
    assert all(r.dst == nn.host.name for r in control)
    assert all(r.dst_port == 8020 for r in control)


def test_namenode_host_heartbeat_is_local_and_invisible():
    sim, topo, net, nn, client, collector = make_dfs()
    datanode = client.datanodes[nn.host]
    datanode.start_heartbeats()
    sim.schedule(10.0, datanode.stop_heartbeats)
    sim.run()
    assert collector.records == []
    assert datanode.heartbeats_sent >= 3
