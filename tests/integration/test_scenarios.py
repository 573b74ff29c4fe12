"""Integration scenarios exercising the whole stack together.

These are the paper's headline capabilities: simultaneous deployment of a
proactive and a reactive protocol, runtime switching between them as
conditions change, variant hot-swaps under live traffic, and resilience to
mobility and loss.
"""

import pytest

from repro.core import ManetKit
from repro.protocols.dymo.flooding import apply_optimised_flooding
from repro.protocols.olsr.fisheye import apply_fisheye
from repro.sim import Simulation, topology
from repro.sim.mobility import RandomWaypoint

import repro.protocols  # noqa: F401

FAST_OLSR = {"mpr": {"hello_interval": 0.5}, "olsr": {"tc_interval": 1.0}}


def make_network(node_count, seed=101, edges=None):
    sim = Simulation(seed=seed)
    sim.add_nodes(node_count)
    ids = sim.node_ids()
    sim.topology.apply(
        edges if edges is not None else topology.linear_chain(ids)
    )
    kits = {nid: ManetKit(sim.node(nid)) for nid in ids}
    return sim, ids, kits


class TestSimultaneousDeployment:
    def test_olsr_and_dymo_coexist_and_share_mpr(self):
        sim, ids, kits = make_network(4)
        for kit in kits.values():
            kit.load_protocol("mpr", **FAST_OLSR["mpr"])
            kit.load_protocol("olsr", **FAST_OLSR["olsr"])
            kit.load_protocol("dymo")
            apply_optimised_flooding(kit)
        sim.run(15.0)
        # OLSR has proactively populated the kernel table
        kit0 = kits[ids[0]]
        assert len(kit0.node.kernel_table) == 3
        # one shared MPR CF, no neighbour-detection CF
        names = {u.name for u in kit0.units()}
        assert "mpr" in names and "neighbour-detection" not in names
        # data flows over OLSR's routes; DYMO never needs to discover
        got = []
        sim.node(ids[-1]).add_app_receiver(got.append)
        sim.start_cbr(ids[0], ids[-1], interval=0.2, count=5)
        sim.run(3.0)
        assert len(got) == 5
        assert kit0.protocol("dymo").dymo_state.discoveries_initiated == 0

    def test_dymo_covers_olsr_gaps(self):
        """Reactive discovery kicks in for routes OLSR hasn't learned yet."""
        sim, ids, kits = make_network(4)
        for kit in kits.values():
            kit.load_protocol("olsr", **FAST_OLSR["olsr"])
            kit.load_protocol("dymo")
            apply_optimised_flooding(kit)
        # no settling time: OLSR hasn't converged; send immediately
        got = []
        sim.node(ids[-1]).add_app_receiver(got.append)
        sim.run(4.5)  # enough for MPR links, maybe not full OLSR topology
        sim.node(ids[0]).send_data(ids[-1], b"early")
        sim.run(3.0)
        assert got  # delivered via whichever plane had the route first


class TestProtocolSwitching:
    def test_switch_olsr_to_dymo_under_traffic(self):
        """The motivating scenario: the network grows, so nodes switch
        from proactive to reactive routing at runtime."""
        sim, ids, kits = make_network(5)
        for kit in kits.values():
            kit.load_protocol("mpr", **FAST_OLSR["mpr"])
            kit.load_protocol("olsr", **FAST_OLSR["olsr"])
        sim.run(15.0)
        got = []
        sim.node(ids[-1]).add_app_receiver(got.append)
        flow = sim.start_cbr(ids[0], ids[-1], interval=0.25)
        sim.run(2.0)
        delivered_before_switch = len(got)
        assert delivered_before_switch >= 7

        # switch every node: undeploy OLSR+MPR, deploy DYMO
        for kit in kits.values():
            kit.undeploy("olsr")
            kit.undeploy("mpr")
            kit.load_protocol("dymo")
        # OLSR's proactive routes remain in the kernel table until they are
        # superseded or the links break, so traffic keeps flowing while
        # DYMO takes over reactively.
        sim.run(4.0)
        flow.stop()
        assert len(got) > delivered_before_switch
        assert sim.stats.delivery_ratio() > 0.9

    def test_switch_dymo_to_olsr(self):
        sim, ids, kits = make_network(4)
        for kit in kits.values():
            kit.load_protocol("dymo")
        sim.run(5.0)
        got = []
        sim.node(ids[-1]).add_app_receiver(got.append)
        sim.node(ids[0]).send_data(ids[-1], b"dymo-era")
        sim.run(1.0)
        assert len(got) == 1
        for kit in kits.values():
            kit.undeploy("dymo")
            kit.undeploy("neighbour-detection")
            kit.load_protocol("mpr", **FAST_OLSR["mpr"])
            kit.load_protocol("olsr", **FAST_OLSR["olsr"])
        sim.run(15.0)
        sim.node(ids[0]).send_data(ids[-1], b"olsr-era")
        sim.run(1.0)
        assert len(got) == 2


class TestVariantHotSwap:
    def test_fisheye_insertion_under_traffic(self):
        sim, ids, kits = make_network(4)
        for kit in kits.values():
            kit.load_protocol("mpr", **FAST_OLSR["mpr"])
            kit.load_protocol("olsr", **FAST_OLSR["olsr"])
        sim.run(12.0)
        got = []
        sim.node(ids[-1]).add_app_receiver(got.append)
        flow = sim.start_cbr(ids[0], ids[-1], interval=0.25)
        sim.run(1.0)
        for kit in kits.values():
            apply_fisheye(kit)
        sim.run(3.0)
        flow.stop()
        sim.run(0.5)  # let in-flight packets land
        assert sim.stats.delivery_ratio() == 1.0  # no disruption

    def test_multipath_swap_under_traffic(self):
        from repro.protocols.dymo.multipath import apply_multipath

        edges = [(1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 4)]
        sim = Simulation(seed=103)
        for node_id in range(1, 7):
            sim.add_node(node_id=node_id)
        sim.topology.apply(edges)
        kits = {nid: ManetKit(sim.node(nid)) for nid in sim.node_ids()}
        for kit in kits.values():
            kit.load_protocol("dymo", route_timeout=30.0)
        sim.run(5.0)
        got = []
        sim.node(4).add_app_receiver(got.append)
        flow = sim.start_cbr(1, 4, interval=0.25)
        sim.run(2.0)
        before = len(got)
        for kit in kits.values():
            apply_multipath(kit)  # hot swap with live traffic
        sim.run(2.0)
        flow.stop()
        assert len(got) > before
        # routes survived the S-component carry-over: no rediscovery burst
        assert kits[1].protocol("dymo").dymo_state.discoveries_initiated <= 2


class TestMobilityAndScale:
    def test_dymo_under_random_waypoint(self):
        sim = Simulation(seed=104)
        sim.add_nodes(8)
        ids = sim.node_ids()
        mobility = RandomWaypoint(
            sim.medium, sim.scheduler, ids, area=8.0, radio_range=4.0,
            speed_min=0.2, speed_max=0.8, tick=1.0, seed=104,
        )
        mobility.start()
        kits = {nid: ManetKit(sim.node(nid)) for nid in ids}
        for kit in kits.values():
            kit.load_protocol("dymo")
        sim.run(10.0)
        sim.start_cbr(ids[0], ids[-1], interval=0.5)
        sim.run(30.0)
        # mobility breaks routes; DYMO re-discovers; most traffic arrives
        assert sim.stats.data_delivered_count > 0
        mobility.stop()

    def test_olsr_grid_with_node_failure(self):
        edges = topology.grid(3, 3, first_id=1)
        sim, ids, kits = make_network(9, seed=105, edges=edges)
        for kit in kits.values():
            kit.load_protocol("mpr", **FAST_OLSR["mpr"])
            kit.load_protocol("olsr", **FAST_OLSR["olsr"])
        sim.run(20.0)
        # kill the centre node (id 5 in a 3x3 row-major grid)
        centre = 5
        kits[centre].shutdown()
        sim.remove_node(centre)
        sim.run(25.0)
        table = kits[1].protocol("olsr").routing_table()
        assert centre not in table
        assert set(table) == set(ids) - {1, centre}
        # corner-to-corner still routable around the hole
        got = []
        sim.node(9).add_app_receiver(got.append)
        sim.node(1).send_data(9, b"x")
        sim.run(1.0)
        assert got


class TestConcurrencyModelsInSimulation:
    @pytest.mark.parametrize(
        "model", ["thread-per-message", "thread-per-n-messages",
                  "thread-per-protocol"]
    )
    def test_dymo_correct_under_threaded_models(self, model):
        sim, ids, kits = make_network(4, seed=106)
        for kit in kits.values():
            kit.load_protocol("dymo")
            kit.set_concurrency(model)
            sim.add_drain_hook(kit.drain)
        sim.run(5.0)
        got = []
        sim.node(ids[-1]).add_app_receiver(got.append)
        sim.node(ids[0]).send_data(ids[-1], b"threaded")
        sim.run(2.0)
        assert len(got) == 1
        for kit in kits.values():
            kit.manager.shutdown()

    def test_thread_per_n_messages_drains_without_timeouts(self):
        """Every per-step drain of a 4-node DYMO run completes at once.

        Handlers dispatch follow-up events while a drain flushes the
        buffered batches; those must be flushed too, not left behind
        until the drain times out.  A short timeout makes any stranded
        batch raise here instead of stalling the run.
        """
        sim, ids, kits = make_network(4, seed=106)
        drains = []
        for kit in kits.values():
            kit.load_protocol("dymo")
            kit.set_concurrency("thread-per-n-messages")
            sim.add_drain_hook(
                lambda kit=kit: drains.append(kit.drain(timeout=2.0))
            )
        got = []
        sim.node(ids[-1]).add_app_receiver(got.append)
        sim.run(3.0)
        sim.node(ids[0]).send_data(ids[-1], b"batched")
        sim.run(2.0)
        assert [packet.payload for packet in got] == [b"batched"]
        assert drains and all(drains)
        for kit in kits.values():
            assert kit.manager.model.in_flight == 0
            kit.manager.shutdown()

    def test_dedicated_thread_protocol(self):
        sim, ids, kits = make_network(3, seed=107)
        for kit in kits.values():
            kit.load_protocol("dymo")
            kit.use_dedicated_thread("dymo")
            sim.add_drain_hook(kit.drain)
        sim.run(5.0)
        got = []
        sim.node(ids[-1]).add_app_receiver(got.append)
        sim.node(ids[0]).send_data(ids[-1], b"dedicated")
        sim.run(2.0)
        assert len(got) == 1
        for kit in kits.values():
            kit.manager.shutdown()
