"""Unit tests for the simulated network and fault injection."""

import pytest

from repro.errors import NetworkError
from repro.sim import Network, RngRegistry, Scheduler, SimNode


class Recorder(SimNode):
    """Node that records every handled message."""

    def __init__(self, node_id, scheduler, network, **kwargs):
        super().__init__(node_id, scheduler, network, **kwargs)
        self.received = []

    def handle_message(self, message):
        self.received.append(message)


def make_net(n=3, seed=7, **net_kwargs):
    sched = Scheduler()
    net = Network(sched, RngRegistry(seed), **net_kwargs)
    nodes = [Recorder(f"n{i}", sched, net) for i in range(n)]
    return sched, net, nodes


def test_point_to_point_delivery():
    sched, net, nodes = make_net()
    net.send("n0", "n1", "ping", {"x": 1})
    sched.run()
    assert len(nodes[1].received) == 1
    assert nodes[1].received[0].payload == {"x": 1}
    assert nodes[0].received == []


def test_delivery_has_positive_latency():
    sched, net, nodes = make_net()
    net.send("n0", "n1", "ping", None)
    assert nodes[1].received == []  # not yet delivered
    sched.run()
    assert sched.now > 0.0


def test_larger_messages_take_longer():
    sched, net, _ = make_net(jitter=0.0)
    small = net._delivery_delay("n0", "n1", 100)
    large = net._delivery_delay("n0", "n1", 1_000_000)
    assert large > small


def test_broadcast_sends_to_the_recipients_in_order():
    sched, net, nodes = make_net(n=4)
    sent = []
    send = net.send

    def logged(sender, recipient, kind, payload, size_bytes):
        sent.append(recipient)
        return send(sender, recipient, kind, payload, size_bytes)

    net.send = logged
    net.broadcast("n0", ["n3", "n1", "n2"], "gossip", "hello", 100)
    sched.run()
    assert sent == ["n3", "n1", "n2"]
    assert net.stats.messages_sent == 3
    assert net.stats.bytes_sent == {"n0": 300}
    assert nodes[0].received == []
    assert all(len(n.received) == 1 for n in nodes[1:])


def test_unknown_recipient_raises():
    sched, net, _ = make_net()
    with pytest.raises(NetworkError):
        net.send("n0", "ghost", "ping", None)


def test_duplicate_node_id_rejected():
    sched, net, _ = make_net()
    with pytest.raises(NetworkError):
        Recorder("n0", sched, net)


def test_partition_drops_cross_group_traffic():
    sched, net, nodes = make_net(n=4)
    net.partition([["n0", "n1"], ["n2", "n3"]])
    net.send("n0", "n2", "x", None)
    net.send("n0", "n1", "y", None)
    sched.run()
    assert nodes[2].received == []
    assert len(nodes[1].received) == 1
    assert net.stats.dropped_partition == 1


def test_partition_heal_restores_traffic():
    sched, net, nodes = make_net(n=2)
    net.partition([["n0"], ["n1"]])
    net.send("n0", "n1", "x", None)
    sched.run()
    assert nodes[1].received == []
    net.heal()
    net.send("n0", "n1", "x", None)
    sched.run()
    assert len(nodes[1].received) == 1


def test_partition_drops_in_flight_messages():
    sched, net, nodes = make_net(n=2)
    net.send("n0", "n1", "x", None)  # in flight
    net.partition([["n0"], ["n1"]])
    sched.run()
    assert nodes[1].received == []


def test_partition_unknown_node_rejected():
    sched, net, _ = make_net(n=2)
    with pytest.raises(NetworkError):
        net.partition([["n0", "bogus"]])


def test_crashed_node_drops_messages():
    sched, net, nodes = make_net(n=2)
    nodes[1].crash()
    net.send("n0", "n1", "x", None)
    sched.run()
    assert nodes[1].received == []
    assert net.stats.dropped_crash == 1


def test_corruption_marks_messages():
    sched, net, nodes = make_net(n=2)
    net.add_corruption(1.0)
    net.send("n0", "n1", "x", None)
    sched.run()
    assert nodes[1].received[0].corrupted


def test_corruption_rate_validation():
    _, net, _ = make_net()
    with pytest.raises(NetworkError):
        net.add_corruption(1.5)


def test_injected_delay_slows_delivery():
    sched1, net1, _ = make_net(seed=3)
    base = net1._delivery_delay("n0", "n1", 100)
    sched2, net2, _ = make_net(seed=3)
    net2.add_delay(0.5)
    slowed = net2._delivery_delay("n0", "n1", 100)
    assert slowed > base + 0.2


def test_delay_targets_specific_nodes():
    _, net, _ = make_net(n=3, jitter=0.0)
    net.add_delay(1.0, nodes=["n2"])
    unaffected = net._delivery_delay("n0", "n1", 100)
    affected = net._delivery_delay("n0", "n2", 100)
    assert affected > unaffected + 0.4


def test_traffic_stats_accumulate():
    sched, net, _ = make_net(n=2)
    net.send("n0", "n1", "x", None, size_bytes=1000)
    sched.run()
    assert net.stats.bytes_sent["n0"] == 1000
    assert net.stats.bytes_received["n1"] == 1000
    assert net.stats.messages_delivered == 1


def test_deterministic_given_seed():
    def run():
        sched, net, nodes = make_net(n=3, seed=11)
        for i in range(20):
            net.send("n0", f"n{1 + i % 2}", "m", i)
        sched.run()
        return sched.now

    assert run() == run()
