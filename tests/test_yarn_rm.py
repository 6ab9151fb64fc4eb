"""Integration tests: ResourceManager + NodeManagers over the network."""

import pytest

from repro.capture.collector import FlowCollector
from repro.capture.records import TrafficComponent
from repro.cluster.topology import build_topology
from repro.net.network import FlowNetwork
from repro.simkit.core import Simulator
from repro.yarn.containers import Resources
from repro.yarn.nodemanager import NodeManager
from repro.yarn.resourcemanager import Application, ResourceManager
from repro.yarn.schedulers import make_scheduler


class CountingApp(Application):
    """Test double: wants a fixed number of containers."""

    def __init__(self, app_id, wanted, queue="default", accept=True):
        self.app_id = app_id
        self.queue = queue
        self.wanted = wanted
        self.accept = accept
        self.granted = []

    def pending_count(self):
        return self.wanted - len(self.granted) if self.accept else self.wanted

    def on_container_granted(self, container):
        if not self.accept:
            return False
        self.granted.append(container)
        return True


def make_yarn(num_hosts=4, scheduler="fifo", capacity=Resources(4, 4096)):
    sim = Simulator()
    topo = build_topology("star", num_hosts=num_hosts + 1)
    net = FlowNetwork(sim, topo)
    collector = FlowCollector(net)
    master, workers = topo.hosts[0], topo.hosts[1:]
    rm = ResourceManager(sim, net, master, make_scheduler(scheduler))
    nodes = [NodeManager(sim, net, host, rm, capacity,
                         heartbeat_interval=1.0, phase=0.1 * (index + 1))
             for index, host in enumerate(workers)]
    return sim, rm, nodes, collector, master, workers


def test_allocation_happens_at_heartbeats():
    sim, rm, nodes, collector, master, workers = make_yarn(num_hosts=2)
    app = CountingApp("app1", wanted=3)
    rm.submit_application(app)
    for node in nodes:
        node.start_heartbeats()
    sim.run(until=0.05)
    assert app.granted == []  # first heartbeat fires at t=0.1
    sim.run(until=2.0)
    assert len(app.granted) == 3
    for node in nodes:
        node.stop_heartbeats()
    sim.run()


def test_grants_respect_node_capacity():
    sim, rm, nodes, collector, *_ = make_yarn(
        num_hosts=2, capacity=Resources(2, 2048))
    app = CountingApp("app1", wanted=10)
    rm.submit_application(app)
    for node in nodes:
        node.start_heartbeats()
    sim.run(until=3.0)
    for node in nodes:
        node.stop_heartbeats()
    sim.run()
    # 2 nodes x 2 slots = 4 containers max.
    assert len(app.granted) == 4
    per_node = {}
    for container in app.granted:
        per_node[container.host.name] = per_node.get(container.host.name, 0) + 1
    assert all(count <= 2 for count in per_node.values())


def test_release_makes_room_for_more_grants():
    sim, rm, nodes, collector, *_ = make_yarn(num_hosts=1, capacity=Resources(1, 1024))
    app = CountingApp("app1", wanted=2)
    rm.submit_application(app)
    nodes[0].start_heartbeats()
    sim.run(until=0.5)
    assert len(app.granted) == 1
    rm.release_container(app.granted[0])
    sim.run(until=2.0)
    assert len(app.granted) == 2
    nodes[0].stop_heartbeats()
    sim.run()


def test_declining_app_does_not_livelock_heartbeat():
    sim, rm, nodes, collector, *_ = make_yarn(num_hosts=1)
    decliner = CountingApp("nope", wanted=5, accept=False)
    taker = CountingApp("yes", wanted=1)
    rm.submit_application(decliner)
    rm.submit_application(taker)
    nodes[0].start_heartbeats()
    sim.run(until=1.5)
    nodes[0].stop_heartbeats()
    sim.run()
    # FIFO would serve the decliner first; after it declines the taker
    # must still be served within the same heartbeat.
    assert len(taker.granted) == 1


def test_fifo_starves_second_app_until_release():
    sim, rm, nodes, collector, *_ = make_yarn(num_hosts=1, scheduler="fifo",
                                              capacity=Resources(2, 2048))
    first = CountingApp("first", wanted=2)
    second = CountingApp("second", wanted=2)
    rm.submit_application(first)
    rm.submit_application(second)
    nodes[0].start_heartbeats()
    sim.run(until=2.0)
    assert len(first.granted) == 2
    assert len(second.granted) == 0
    for container in first.granted:
        rm.release_container(container)
    first.wanted = 2  # no more demand (granted == wanted)
    sim.run(until=4.0)
    assert len(second.granted) == 2
    nodes[0].stop_heartbeats()
    sim.run()


def test_fair_interleaves_two_apps():
    sim, rm, nodes, collector, *_ = make_yarn(num_hosts=1, scheduler="fair",
                                              capacity=Resources(4, 4096))
    a = CountingApp("a", wanted=4)
    b = CountingApp("b", wanted=4)
    rm.submit_application(a)
    rm.submit_application(b)
    nodes[0].start_heartbeats()
    sim.run(until=2.0)
    nodes[0].stop_heartbeats()
    sim.run()
    assert len(a.granted) == 2
    assert len(b.granted) == 2


def test_nm_heartbeats_create_control_flows():
    sim, rm, nodes, collector, master, workers = make_yarn(num_hosts=2)
    for node in nodes:
        node.start_heartbeats()
    sim.run(until=5.0)
    for node in nodes:
        node.stop_heartbeats()
    sim.run()
    control = [r for r in collector.records
               if r.service == "nm-heartbeat"]
    assert len(control) >= 8
    assert all(r.dst == master.name and r.dst_port == 8031 for r in control)


def test_submission_rpc_flow():
    sim, rm, nodes, collector, master, workers = make_yarn()
    app = CountingApp("app1", wanted=0)
    rm.submit_application(app, client_host=workers[0])
    sim.run()
    submissions = [r for r in collector.records if r.service == "job-submission"]
    assert len(submissions) == 1
    assert submissions[0].dst_port == 8032
    assert submissions[0].component == TrafficComponent.CONTROL.value


def test_duplicate_submission_rejected():
    sim, rm, nodes, *_ = make_yarn()
    app = CountingApp("app1", wanted=1)
    rm.submit_application(app)
    with pytest.raises(ValueError):
        rm.submit_application(app)


def test_release_unknown_container_raises():
    sim, rm, nodes, *_ = make_yarn()
    from repro.yarn.containers import Container
    ghost = Container(host=nodes[0].host, app_id="x", resources=Resources())
    with pytest.raises(KeyError):
        rm.release_container(ghost)


def test_cluster_total_sums_node_capacities():
    sim, rm, nodes, *_ = make_yarn(num_hosts=3, capacity=Resources(4, 4096))
    assert rm.cluster_total == Resources(12, 12288)
