"""Unit tests: wireless medium, frames, nodes, battery."""

import pytest

from repro.errors import UnknownNode
from repro.sim.medium import BROADCAST, Frame, WirelessMedium
from repro.sim.node import BatteryModel, SimNode
from repro.utils.scheduler import Scheduler


@pytest.fixture
def medium():
    sched = Scheduler()
    return WirelessMedium(sched, seed=1), sched


def attach(medium, node_id):
    inbox = []
    medium.register_node(node_id, inbox.append)
    return inbox


class TestMedium:
    def test_broadcast_reaches_neighbours_only(self, medium):
        med, sched = medium
        boxes = {i: attach(med, i) for i in (1, 2, 3, 4)}
        med.set_link(1, 2)
        med.set_link(1, 3)
        med.broadcast(Frame("control", b"x", sender=1))
        sched.run_until_idle()
        assert len(boxes[2]) == 1 and len(boxes[3]) == 1
        assert boxes[4] == [] and boxes[1] == []

    def test_unicast_success_and_failure(self, medium):
        med, sched = medium
        boxes = {i: attach(med, i) for i in (1, 2, 3)}
        med.set_link(1, 2)
        assert med.unicast(Frame("control", b"x", sender=1, link_dst=2)) is True
        assert med.unicast(Frame("control", b"x", sender=1, link_dst=3)) is False
        sched.run_until_idle()
        assert len(boxes[2]) == 1 and boxes[3] == []

    def test_latency_applied(self, medium):
        med, sched = medium
        attach(med, 1)
        arrivals = []
        med.register_node(2, lambda f: arrivals.append(sched.now))
        med.set_link(1, 2, latency=0.25)
        med.broadcast(Frame("control", b"x", sender=1))
        sched.run_until_idle()
        assert arrivals == [0.25]

    def test_loss_is_deterministic_per_seed(self):
        def run(seed):
            sched = Scheduler()
            med = WirelessMedium(sched, seed=seed)
            attach(med, 1)
            box = attach(med, 2)
            med.set_link(1, 2, loss=0.5)
            for _ in range(50):
                med.broadcast(Frame("control", b"x", sender=1))
            sched.run_until_idle()
            return len(box)

        assert run(7) == run(7)
        assert 5 < run(7) < 45  # loss actually drops some frames

    def test_asymmetric_link(self, medium):
        med, sched = medium
        box1, box2 = attach(med, 1), attach(med, 2)
        med.set_link(1, 2, symmetric=False)
        med.broadcast(Frame("control", b"x", sender=1))
        med.broadcast(Frame("control", b"x", sender=2))
        sched.run_until_idle()
        assert len(box2) == 1 and box1 == []

    def test_set_connectivity_replaces_topology(self, medium):
        med, _ = medium
        for node_id in (1, 2, 3):
            attach(med, node_id)
        med.set_link(1, 3)
        med.set_connectivity([(1, 2)])
        assert med.has_link(1, 2) and med.has_link(2, 1)
        assert not med.has_link(1, 3)

    def test_unknown_sender_rejected(self, medium):
        med, _ = medium
        with pytest.raises(UnknownNode):
            med.broadcast(Frame("control", b"x", sender=99))

    def test_unregister_drops_in_flight_to_node(self, medium):
        med, sched = medium
        attach(med, 1)
        box = attach(med, 2)
        med.set_link(1, 2, latency=1.0)
        med.broadcast(Frame("control", b"x", sender=1))
        med.unregister_node(2)
        sched.run_until_idle()
        assert box == []
        assert med.frames_lost == 1


class TestBattery:
    def test_levels_drain(self):
        state = {"now": 0.0}
        battery = BatteryModel(
            lambda: state["now"], idle_rate=0.01, tx_cost=0.1, rx_cost=0.05
        )
        assert battery.level() == 1.0
        battery.note_tx()
        battery.note_rx()
        assert battery.level() == pytest.approx(0.85)
        state["now"] = 10.0
        assert battery.level() == pytest.approx(0.75)

    def test_level_floors_at_zero(self):
        battery = BatteryModel(lambda: 0.0, tx_cost=0.6)
        battery.note_tx()
        battery.note_tx()
        assert battery.level() == 0.0


class TestNodeDataPlane:
    def make_pair(self):
        sched = Scheduler()
        medium = WirelessMedium(sched, seed=1)
        a = SimNode(1, medium, sched)
        b = SimNode(2, medium, sched)
        medium.set_link(1, 2)
        return sched, a, b

    def test_direct_delivery(self):
        sched, a, b = self.make_pair()
        got = []
        b.add_app_receiver(got.append)
        a.kernel_table.add_route(2, next_hop=2)
        assert a.send_data(2, b"hi")
        sched.run_until_idle()
        assert len(got) == 1 and got[0].payload == b"hi"

    def test_no_route_drops_without_hooks(self):
        sched, a, b = self.make_pair()
        assert a.send_data(2, b"hi") is False

    def test_forwarding_requires_ip_forward(self):
        sched = Scheduler()
        medium = WirelessMedium(sched, seed=1)
        nodes = [SimNode(i, medium, sched) for i in (1, 2, 3)]
        medium.set_connectivity([(1, 2), (2, 3)])
        nodes[0].kernel_table.add_route(3, next_hop=2)
        nodes[1].kernel_table.add_route(3, next_hop=3)
        got = []
        nodes[2].add_app_receiver(got.append)
        nodes[0].send_data(3, b"x")
        sched.run_until_idle()
        assert got == []  # node 2 does not forward by default
        nodes[1].ip_forward = True
        nodes[0].send_data(3, b"x")
        sched.run_until_idle()
        assert len(got) == 1

    def test_ttl_exhaustion(self):
        sched = Scheduler()
        medium = WirelessMedium(sched, seed=1)
        nodes = [SimNode(i, medium, sched) for i in (1, 2, 3)]
        medium.set_connectivity([(1, 2), (2, 3)])
        for node in nodes:
            node.ip_forward = True
        nodes[0].kernel_table.add_route(3, next_hop=2)
        nodes[1].kernel_table.add_route(3, next_hop=3)
        got = []
        nodes[2].add_app_receiver(got.append)
        nodes[0].send_data(3, b"x", ttl=1)
        sched.run_until_idle()
        assert got == []

    def test_local_delivery_shortcut(self):
        sched, a, _ = self.make_pair()
        got = []
        a.add_app_receiver(got.append)
        a.send_data(1, b"self")
        assert len(got) == 1

    def test_link_failure_observer(self):
        sched, a, b = self.make_pair()
        lost = []
        a.add_link_failure_observer(lost.append)
        a.kernel_table.add_route(2, next_hop=2)
        a.medium.set_link(1, 2, up=False)
        a.send_data(2, b"x")
        assert lost == [2]

    def test_devices_and_context(self):
        sched, a, _ = self.make_pair()
        assert a.devices() == [("wlan0", 1)]
        assert 0.0 <= a.cpu_load() <= 1.0
        assert a.memory_use() >= 4096
