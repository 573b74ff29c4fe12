"""The four benchmark scenarios, built only from ``repro``'s public API.

Every scenario is a cold network at sim-time 0 (every user run pays
convergence) and is advanced by the harness in fixed slices; harness
actions — fleet-wide protocol switches, state-dependent link breaks —
fire at slice boundaries, so the simulation's event count stays purely
the system's.  All randomness derives from ``--seed``: it feeds
``Simulation(seed=...)`` (medium and PHY RNGs),
the per-seed link latency (2 ms +/- 1 %, so simulated latencies differ
across seeds even on the ideal grid) and the fault plan.  Kits keep their
default per-node timer-jitter streams and the mobility trace is fixed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro.protocols  # noqa: F401  (populates the protocol registry)
from repro.core import ManetKit
from repro.core.manetkit import PROTOCOL_REGISTRY
from repro.sim import Simulation
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.mobility import RandomWaypoint
from repro.sim.reconfig_battery import SWITCH_CYCLE
from repro.tools.scenario import parse_topology

Pair = Tuple[int, int]

#: Width of one timed slice of the window, in simulated seconds.
SLICE = 0.125

#: DYMO/AODV RREQ hop budget: the default NET_DIAMETER (10) cannot span
#: the 20x10 grid's 28-hop diagonal.
NET_DIAMETER = 32

ROUTING = ("olsr", "dymo", "aodv")

#: The --smoke window, in simulated seconds.
SMOKE_SIM_S = 5.0

#: The waypoint trace is part of the scenario, not of the seeded noise:
#: seeding it moved reconfig_live's host times and delivery by 7-24 %
#: between seeds, which no regression bound under 0.25 could sit above.
MOBILITY_SEED = 7


@dataclass(frozen=True)
class Workload:
    """Static description of one scenario (sizes, timers, traffic)."""

    name: str
    nodes: int
    smoke_nodes: int
    #: window length: simulated seconds per requested ``--seconds`` of host
    #: time, sized on the 2-core sandbox so the window lasts about that long
    sim_s_per_host_s: float
    initial: str
    #: partner of the closing A->B->A fleet-wide round trip
    partner: str
    flows: int
    cbr_interval: float
    phy: Optional[str] = None
    hello_interval: Optional[float] = None
    tc_interval: Optional[float] = None
    with_mpr: bool = True
    mobility: bool = False
    #: link-break faults per window and seconds until each is restored
    faults: int = 0
    fault_restore: float = 0.0
    #: output checks that need the full-size scenario (skipped by --smoke)
    full_routes: bool = False
    min_delivery: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="olsr_grid",
            nodes=200, smoke_nodes=25, sim_s_per_host_s=0.72,
            initial="olsr", partner="dymo", flows=8, cbr_interval=0.5,
            full_routes=True,
        ),
        Workload(
            name="dymo_cbr",
            nodes=200, smoke_nodes=25, sim_s_per_host_s=3.7,
            initial="dymo", partner="aodv", flows=64, cbr_interval=0.05,
            with_mpr=False, faults=4, fault_restore=5.0, min_delivery=0.99,
        ),
        Workload(
            name="olsr_phy",
            nodes=60, smoke_nodes=16, sim_s_per_host_s=2.05,
            initial="olsr", partner="dymo", flows=8, cbr_interval=0.25,
            phy="802.11b", hello_interval=0.5, tc_interval=1.0,
            faults=5, fault_restore=4.0,
        ),
        Workload(
            name="reconfig_live",
            nodes=100, smoke_nodes=16, sim_s_per_host_s=1.6,
            initial="dymo", partner="aodv", flows=8, cbr_interval=0.25,
            hello_interval=1.0, tc_interval=2.0, mobility=True,
        ),
    )
}


@dataclass
class Scenario:
    """One built, not yet started, instance of a workload."""

    workload: Workload
    sim: Simulation
    ids: List[int]
    kits: Dict[int, ManetKit]
    flows: List[Pair]
    duration: float
    #: routing protocol currently deployed fleet-wide
    protocol: str
    #: harness actions ``(sim time, fn(scenario))`` fired at slice starts
    actions: List[Tuple[float, Callable[["Scenario"], None]]] = field(default_factory=list)
    #: sim times of every delivery, per flow (app receivers fill this)
    deliveries: Dict[Pair, List[float]] = field(default_factory=dict)
    first_send: Dict[Pair, float] = field(default_factory=dict)
    injector: Optional[FaultInjector] = None
    #: link breaks applied by the harness itself (state-dependent ones)
    harness_faults: int = 0
    #: host milliseconds of the per-node switch_protocol calls that count
    #: towards ``switch_ms_p50/p90`` (see ``measure.run_pass``)
    switch_ms: List[float] = field(default_factory=list)
    switch_calls: int = 0
    switch_failures: int = 0


def grid_shape(count: int) -> Tuple[int, int]:
    """The most square W x H factoring, as the scenario CLI lays grids out."""
    height = max(int(count ** 0.5), 1)
    while count % height:
        height -= 1
    return count // height, height


def mirrored_flows(ids: List[int], count: int) -> List[Pair]:
    """Cross-grid pairs: every ``stride``-th node paired with its mirror."""
    stride = max(1, len(ids) // count)
    pairs = []
    for k in range(count):
        src = (k * stride) % len(ids)
        dst = len(ids) - 1 - src
        if src == dst:
            dst = (dst + 1) % len(ids)
        pairs.append((ids[src], ids[dst]))
    return pairs


def build_protocol(kit: ManetKit, name: str, workload: Workload):
    """A fresh, configured, undeployed routing-protocol instance."""
    builder = PROTOCOL_REGISTRY[name]
    if name == "olsr":
        if workload.tc_interval is None:
            return builder(kit.ontology)
        return builder(kit.ontology, tc_interval=workload.tc_interval)
    protocol = builder(kit.ontology)
    protocol.configurator.update({"net_diameter": NET_DIAMETER})
    return protocol


def switch_fleet(scenario: Scenario, new: str) -> List[float]:
    """Switch every node to ``new``; returns each per-node enactment's host ms."""
    old = scenario.protocol
    samples = []
    for nid in scenario.ids:
        kit = scenario.kits[nid]
        replacement = build_protocol(kit, new, scenario.workload)
        started = time.perf_counter()
        kit.reconfig.switch_protocol(old, replacement)
        samples.append((time.perf_counter() - started) * 1e3)
        scenario.switch_calls += 1
        deployed = [p.name for p in kit.protocols() if p.name in ROUTING]
        if deployed != [new] or kit.manager.unit(new) is not replacement:
            scenario.switch_failures += 1
    scenario.protocol = new
    return samples


def _break_active_hop(flow_index: int, restore_after: float):
    """Break the link under a flow's first hop now; restore it later."""

    def action(scenario: Scenario) -> None:
        src, dst = scenario.flows[flow_index]
        route = scenario.sim.node(src).kernel_table.lookup(dst)
        if route is None:
            return
        hop = route.next_hop
        scenario.sim.topology.break_edge(src, hop)
        scenario.harness_faults += 1
        scenario.actions.append((
            scenario.sim.now + restore_after,
            lambda s: s.sim.topology.add_edge(src, hop),
        ))
        scenario.actions.sort(key=lambda item: item[0])

    return action


def _on_slice(t: float) -> float:
    return round(t / SLICE) * SLICE


def _switch_times(duration: float, smoke: bool) -> List[Tuple[float, str]]:
    """``(time, new protocol)`` walking SWITCH_CYCLE until the window ends.

    First switch at t=4; each protocol dwells 2 sim-s, 6 when it is OLSR
    (which cold-starts its topology set after a switch).  ``--smoke``
    compresses the timeline so its 5 sim-s still see every protocol.
    """
    first, dwell, dwell_olsr = (1.0, 0.75, 1.0) if smoke else (4.0, 2.0, 6.0)
    out = []
    t, index = first, 0
    while True:
        new = SWITCH_CYCLE[index % len(SWITCH_CYCLE)][1]
        stay = dwell_olsr if new == "olsr" else dwell
        if t + stay > duration:
            return out
        out.append((t, new))
        t += stay
        index += 1


def build(workload: Workload, seed: int, duration: float, smoke: bool) -> Scenario:
    """Cold-build one scenario: simulation, topology, kits, flows, faults."""
    rng = random.Random(seed)
    latency = 0.002 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0))
    nodes = workload.smoke_nodes if smoke else workload.nodes
    sim = Simulation(seed=seed, latency=latency, phy=workload.phy)
    if workload.mobility:
        sim.add_nodes(nodes)
        ids = sim.node_ids()
        width, _height = grid_shape(nodes)
        positions = {
            nid: (float(i % width), float(i // width)) for i, nid in enumerate(ids)
        }
        for nid, position in positions.items():
            sim.node(nid).position = position
        mobility = RandomWaypoint(
            sim.medium, sim.scheduler, ids, area=float(width), radio_range=1.6,
            speed_min=0.01, speed_max=0.05, tick=2.0, seed=MOBILITY_SEED,
            positions=positions,
        )
        mobility.latency = latency
        mobility.start()
    else:
        ids = parse_topology("grid", sim, nodes=nodes)

    kits: Dict[int, ManetKit] = {}
    for nid in ids:
        kit = ManetKit(sim.node(nid))
        if workload.with_mpr:
            if workload.hello_interval is None:
                kit.load_protocol("mpr")
            else:
                kit.load_protocol("mpr", hello_interval=workload.hello_interval)
        kit.deploy(build_protocol(kit, workload.initial, workload))
        kits[nid] = kit

    # --smoke grids are too small for 64 distinct mirrored pairs.
    flows = mirrored_flows(ids, min(workload.flows, nodes // 2))
    scenario = Scenario(
        workload=workload, sim=sim, ids=ids, kits=kits, flows=flows,
        duration=duration, protocol=workload.initial,
    )
    stagger = min(0.05, workload.cbr_interval / 4.0)
    for index, (src, dst) in enumerate(flows):
        start = 1.0 + stagger * index
        scenario.deliveries[(src, dst)] = []
        scenario.first_send[(src, dst)] = start
        sim.node(dst).add_app_receiver(_delivery_recorder(scenario, dst))
        sim.start_cbr(src, dst, interval=workload.cbr_interval, start_delay=start)

    restore = min(workload.fault_restore, duration / 10.0)
    if workload.faults and workload.phy is None:
        # State-dependent breaks (the link a flow is using right now) can
        # only be chosen at run time, so the harness applies them itself.
        for k in range(workload.faults):
            at = _on_slice(duration * (k + 1) / (workload.faults + 1))
            flow_index = (k * len(flows)) // workload.faults
            scenario.actions.append((at, _break_active_hop(flow_index, _on_slice(restore))))
    elif workload.faults:
        edges = sim.topology.edges()
        plan = FaultPlan(seed=seed)
        for k in range(workload.faults):
            at = duration * (0.2 + 0.15 * k)
            src = flows[k % len(flows)][0]
            a, b = rng.choice(sorted(e for e in edges if src in e))
            plan.break_link(at, a, b)
            plan.restore_link(at + restore, a, b)
        scenario.injector = sim.install_faults(plan)

    if workload.mobility:
        for at, new in _switch_times(duration, smoke):
            scenario.actions.append(
                (at, lambda s, new=new: s.switch_ms.extend(switch_fleet(s, new)))
            )
    scenario.actions.sort(key=lambda item: item[0])
    return scenario


def _delivery_recorder(scenario: Scenario, dst: int):
    deliveries = scenario.deliveries
    sim = scenario.sim

    def on_delivery(packet) -> None:
        times = deliveries.get((packet.src, dst))
        if times is not None:
            times.append(sim.now)

    return on_delivery
