"""Live-reconfiguration stress battery: fleet-wide protocol switches.

The paper's core claim is that MANETKit deployments can be *reconfigured
while running* — swapping the routing protocol underneath live traffic
without restarting nodes ("dynamic deployment and reconfiguration of
ad-hoc routing protocols").  This module turns that claim into a
measurable, declaratively-specified experiment: a **battery** drives a
sequence of fleet-wide switches (OLSR <-> DYMO <-> AODV, plus
concurrency-model flips) on a running grid with constant-bit-rate
traffic, mobility and Gilbert-Elliott loss bursts, and publishes four
metric families per switch:

* ``reconfig.quiesce_s`` — time from enactment until every CBR flow
  has resumed delivering *and* every monitored pair has validated a
  working, loop-free next-hop walk.  Pairs are judged independently
  and stickily: once a pair's walk succeeds at some poll it counts as
  recovered, even if a *fresh* mobility event breaks its path a moment
  later — under continuous mobility that re-breakage is background
  churn (the protocol repairs it on its next refresh, switch or no
  switch), not switch recovery;
* ``reconfig.blackout_s`` — worst per-flow gap between the switch and
  the first subsequent delivery;
* ``reconfig.loss_pct`` — data loss over the switch window (enactment
  through cooldown), from the network-wide send/deliver counters;
* ``reconfig.state_transfer_bytes`` — total S-element payload carried
  across the handover, summed over the fleet.

Protocol switches are enacted node-by-node through each kit's
:class:`~repro.core.reconfig.ReconfigurationManager` (drain, quiesce
both CFs, ``get_state``/``set_state`` handoff, undeploy/deploy), so the
battery exercises exactly the reconfiguration path the paper describes.
The MPR CF stays deployed throughout — OLSR requires it and it is
harmless (neighbour sensing only) under the reactive protocols — so
switches swap just the routing protocol unit.

Concurrency flips ride at the *end* of the timeline: threaded models
drain through real OS threads, which keeps results correct but not
bit-deterministic, so their windows are reported info-grade while every
protocol switch before them stays seeded and reproducible.

Run the standard 200-node battery (also driven by
``benchmarks/test_reconfig.py``)::

    PYTHONPATH=src python -m repro.sim.reconfig_battery --preset standard

or the CI smoke tier with a trace export for ``traceview --reconfig``::

    PYTHONPATH=src python -m repro.sim.reconfig_battery --preset smoke \\
        --trace-jsonl /tmp/reconfig.jsonl --json /tmp/reconfig.json

Exit status is 0 when every gated switch quiesced inside its window,
1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.oracle import ConvergenceOracle
from repro.core import ManetKit
from repro.core.manetkit import PROTOCOL_REGISTRY
from repro.obs.trace import TraceRecorder
from repro.sim.faults import FaultPlan
from repro.sim.mobility import RandomWaypoint
from repro.sim.network import Simulation

import repro.protocols  # noqa: F401  (populates the protocol registry)

Pair = Tuple[int, int]

#: Concurrency models accepted by ``SwitchSpec(kind="concurrency")``.
CONCURRENCY_MODELS = (
    "single-threaded",
    "thread-per-message",
    "thread-per-n-messages",
    "thread-per-protocol",
)


def _near_square(count: int) -> Tuple[int, int]:
    """Factor ``count`` into the most square W x H grid possible."""
    height = max(int(count ** 0.5), 1)
    while count % height:
        height -= 1
    return count // height, height


@dataclass(frozen=True)
class SwitchSpec:
    """One fleet-wide reconfiguration in the battery timeline.

    ``kind`` is ``"protocol"`` (swap the routing protocol on every node,
    carrying state) or ``"concurrency"`` (select a deployment-wide
    concurrency model on every kit).  Switches are scheduled
    *dynamically*: each one enacts ``gap`` sim-seconds after the
    previous window closes (quiescence or timeout, plus cooldown), so a
    fast-converging switch does not stretch the run — at 200 nodes with
    OLSR in the mix this is the difference between minutes and tens of
    minutes of wall clock.  Enactment times stay deterministic for a
    fixed seed because the whole gated prefix is single-threaded.

    ``gated`` switches contribute to the deterministic,
    baseline-compared metrics; ungated ones are reported info-grade
    (the concurrency flips, whose threaded drains are not
    bit-deterministic).
    """

    new: str
    old: Optional[str] = None
    gap: float = 2.0
    kind: str = "protocol"
    gated: bool = True

    def label(self) -> str:
        if self.kind == "concurrency":
            return f"concurrency->{self.new}"
        return f"{self.old or '?'}->{self.new}"


@dataclass
class BatteryConfig:
    """Declarative description of one battery run."""

    nodes: int = 200
    seed: int = 7
    initial_protocol: str = "olsr"
    switches: List[SwitchSpec] = field(default_factory=list)
    #: cross-grid CBR flows kept running across every switch
    flow_count: int = 8
    cbr_interval: float = 0.5
    #: sim-seconds before the first switch (routes must form first)
    warmup: float = 15.0
    #: per-switch budget for reaching quiescence
    quiesce_timeout: float = 25.0
    poll: float = 1.0
    #: settle time after quiescence before the loss window closes
    cooldown: float = 5.0
    #: accelerated OLSR timers (testbed configuration, section 5)
    hello_interval: float = 1.0
    tc_interval: float = 2.0
    #: RREQ hop budget for the reactive protocols; must exceed the grid
    #: diagonal (28 hops on 20x10)
    net_diameter: int = 32
    mobility: bool = True
    radio_range: float = 1.6
    speed_min: float = 0.01
    speed_max: float = 0.05
    mobility_tick: float = 2.0
    #: Gilbert-Elliott bursts on interior links around each gated switch
    loss_bursts: bool = True
    burst_duration: float = 6.0
    burst_loss: float = 0.8
    trace: bool = False
    trace_capacity: int = 400_000


@dataclass
class SwitchResult:
    """Measured outcome of one enacted switch."""

    label: str
    kind: str
    gated: bool
    t_enacted: float
    converged: bool
    quiesce_s: float
    blackout_s: float
    loss_pct: float
    state_transfer_bytes: int
    sent_window: int
    delivered_window: int

    def to_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


@dataclass
class BatteryReport:
    """All switch results plus fleet-level aggregates."""

    nodes: int
    seed: int
    results: List[SwitchResult] = field(default_factory=list)

    def gated(self) -> List[SwitchResult]:
        return [r for r in self.results if r.gated]

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.gated())

    def aggregates(self) -> Dict[str, float]:
        """Fleet-level summary over the *gated* switches only."""
        gated = self.gated()
        if not gated:
            return {}
        return {
            "switches": float(len(gated)),
            "converged": float(sum(r.converged for r in gated)),
            "quiesce_s_max": max(r.quiesce_s for r in gated),
            "quiesce_s_mean": sum(r.quiesce_s for r in gated) / len(gated),
            "blackout_s_max": max(r.blackout_s for r in gated),
            "loss_pct_max": max(r.loss_pct for r in gated),
            "state_transfer_bytes_total": float(
                sum(r.state_transfer_bytes for r in gated)
            ),
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "nodes": self.nodes,
            "seed": self.seed,
            "results": [r.to_dict() for r in self.results],
            "aggregates": self.aggregates(),
        }


class _FlowMonitor:
    """Per-flow delivery bookkeeping via app receivers.

    Tracks, for the current switch window, the first delivery each flow
    saw after the window opened — the raw material for ``blackout_s``
    and the flow-resumption half of the quiescence condition.
    """

    def __init__(self, sim: Simulation, flows: List[Pair]) -> None:
        self.sim = sim
        self.flows = list(flows)
        self.window_open: Optional[float] = None
        self.first_post: Dict[Pair, Optional[float]] = {}
        for pair in self.flows:
            sim.node(pair[1]).add_app_receiver(self._receiver(pair))

    def _receiver(self, pair: Pair):
        def on_rx(packet) -> None:
            if packet.src != pair[0]:
                return
            if self.window_open is None:
                return
            if self.first_post.get(pair) is None and self.sim.now > self.window_open:
                self.first_post[pair] = self.sim.now
        return on_rx

    def open_window(self, at: float) -> None:
        self.window_open = at
        self.first_post = {pair: None for pair in self.flows}

    def all_resumed(self) -> bool:
        return all(t is not None for t in self.first_post.values())

    def blackout(self) -> float:
        """Worst per-flow resumption gap; the timeout caller bounds it."""
        if self.window_open is None or not self.flows:
            return 0.0
        gaps = []
        for pair in self.flows:
            first = self.first_post.get(pair)
            reference = first if first is not None else self.sim.now
            gaps.append(reference - self.window_open)
        return max(gaps)


class ReconfigBattery:
    """Builds the fleet, runs the switch timeline, measures every window."""

    def __init__(self, config: BatteryConfig) -> None:
        self.config = config
        self.sim: Optional[Simulation] = None
        #: The trace recorder, when ``config.trace`` asked for one.
        self.recorder: Optional[TraceRecorder] = None
        self.kits: Dict[int, ManetKit] = {}
        self.flows: List[Pair] = []
        self.monitor: Optional[_FlowMonitor] = None
        self._pairs_pending: set = set()
        self.current_protocol = config.initial_protocol
        self._drain_hooked = False
        self._validate()

    # -- configuration ------------------------------------------------------

    def _validate(self) -> None:
        config = self.config
        for spec in config.switches:
            if spec.gap < 0:
                raise ValueError(
                    f"switch {spec.label()!r} has negative gap {spec.gap}"
                )
            if spec.kind == "protocol":
                if spec.new not in PROTOCOL_REGISTRY:
                    raise ValueError(f"unknown protocol {spec.new!r}")
            elif spec.kind == "concurrency":
                if spec.new not in CONCURRENCY_MODELS:
                    raise ValueError(f"unknown concurrency model {spec.new!r}")
            else:
                raise ValueError(f"unknown switch kind {spec.kind!r}")

    # -- fleet construction --------------------------------------------------

    def _grid_positions(self, ids: List[int]) -> Dict[int, Tuple[float, float]]:
        width, _height = _near_square(len(ids))
        return {
            nid: (float(index % width), float(index // width))
            for index, nid in enumerate(ids)
        }

    def _flow_pairs(self, ids: List[int]) -> List[Pair]:
        """Deterministic cross-grid pairs: index k paired with its mirror."""
        count = len(ids)
        stride = max(1, count // max(self.config.flow_count, 1))
        pairs: List[Pair] = []
        for k in range(self.config.flow_count):
            src_index = (k * stride) % count
            dst_index = count - 1 - src_index
            if src_index == dst_index:
                dst_index = (dst_index + 1) % count
            pair = (ids[src_index], ids[dst_index])
            if pair not in pairs:
                pairs.append(pair)
        return pairs

    def _build_protocol(self, kit: ManetKit, name: str):
        builder = PROTOCOL_REGISTRY[name]
        if name == "olsr":
            return builder(kit.ontology, tc_interval=self.config.tc_interval)
        protocol = builder(kit.ontology)
        protocol.configurator.update({"net_diameter": self.config.net_diameter})
        return protocol

    def _burst_links(self, ids: List[int]) -> List[Pair]:
        """Interior grid links degraded around each gated switch."""
        width, _height = _near_square(len(ids))
        count = len(ids)
        links = []
        for index in (count // 2, count // 4):
            if index % width != width - 1 and index + 1 < count:
                links.append((ids[index], ids[index + 1]))
        return links

    def build(self) -> Simulation:
        if self.sim is not None:
            return self.sim
        config = self.config
        sim = Simulation(seed=config.seed)
        sim.add_nodes(config.nodes)
        ids = sim.node_ids()
        positions = self._grid_positions(ids)
        for nid, position in positions.items():
            sim.node(nid).position = position
        if config.trace:
            self.recorder = sim.enable_tracing(capacity=config.trace_capacity)
        if config.mobility:
            self.mobility = RandomWaypoint(
                sim.medium,
                sim.scheduler,
                ids,
                area=float(max(_near_square(config.nodes))),
                radio_range=config.radio_range,
                speed_min=config.speed_min,
                speed_max=config.speed_max,
                tick=config.mobility_tick,
                seed=config.seed,
                positions=positions,
            )
            self.mobility.start()
        else:
            self.mobility = None
            from repro.sim import topology

            width, height = _near_square(config.nodes)
            sim.topology.apply(topology.grid(width, height, first_id=ids[0]))
        for nid in ids:
            kit = ManetKit(sim.node(nid))
            kit.load_protocol("mpr", hello_interval=config.hello_interval)
            if config.initial_protocol == "olsr":
                kit.load_protocol("olsr", tc_interval=config.tc_interval)
            else:
                protocol = self._build_protocol(kit, config.initial_protocol)
                kit.deploy(protocol)
            self.kits[nid] = kit
        self.flows = self._flow_pairs(ids)
        self.monitor = _FlowMonitor(sim, self.flows)
        for index, (src, dst) in enumerate(self.flows):
            sim.start_cbr(
                src, dst,
                interval=config.cbr_interval,
                start_delay=1.0 + 0.05 * index,
            )
        self._bursts = self._burst_links(ids) if config.loss_bursts else []
        self.oracle = ConvergenceOracle(sim, mode="sound")
        self.sim = sim
        return sim

    # -- enactment -----------------------------------------------------------

    def _enact_protocol(self, spec: SwitchSpec) -> int:
        old = spec.old or self.current_protocol
        if old == spec.new:
            raise ValueError(f"switch {spec.label()!r} is a no-op")
        transferred = 0
        for nid in sorted(self.kits):
            kit = self.kits[nid]
            replacement = self._build_protocol(kit, spec.new)
            kit.reconfig.switch_protocol(old, replacement)
            transferred += kit.reconfig.last_state_transfer_bytes
        self.current_protocol = spec.new
        return transferred

    def _enact_concurrency(self, spec: SwitchSpec) -> None:
        # Threaded models need the simulation's drain hooks so simulated
        # time never advances past undrained handler work.  Hook lazily:
        # per-event drains across the whole fleet are pure overhead while
        # every kit is still single-threaded.
        if spec.new != "single-threaded" and not self._drain_hooked:
            for nid in sorted(self.kits):
                self.sim.add_drain_hook(self.kits[nid].drain)
            self._drain_hooked = True
        for nid in sorted(self.kits):
            self.kits[nid].set_concurrency(spec.new)

    def _quiesced(self) -> bool:
        """Per-pair sticky recovery: every flow resumed, every pair sound.

        A pair leaves ``_pairs_pending`` the first time its next-hop
        walk succeeds; quiescence is reached when every still-pending
        pair is merely partitioned (the topology's fault, not the
        routing layer's).  Requiring all monitored paths to be
        *simultaneously* sound instead would race against mobility:
        at 200 nodes the 8 cross-grid paths cover ~150 link-hops and
        some link on one of them is mid-repair at almost every poll,
        switch or no switch.
        """
        report = self.oracle.check_pairs(sorted(self._pairs_pending))
        failed = set(report.missing)
        failed.update((src, dst) for src, dst, _reason in report.wrong)
        skipped = set(report.skipped)
        self._pairs_pending = failed | (skipped & self._pairs_pending)
        if not self.monitor.all_resumed():
            return False
        return not failed

    def _install_bursts(self, index: int) -> None:
        """Gilbert-Elliott adversity on interior links, starting now."""
        if not self._bursts:
            return
        plan = FaultPlan(seed=self.config.seed + index)
        for a, b in self._bursts:
            plan.loss_burst(
                0.0, a, b,
                duration=self.config.burst_duration,
                loss_bad=self.config.burst_loss,
                loss_good=0.0,
            )
        self.sim.install_faults(plan)

    # -- the run loop --------------------------------------------------------

    def run(self) -> BatteryReport:
        config = self.config
        sim = self.build()
        report = BatteryReport(nodes=config.nodes, seed=config.seed)
        sim.run(config.warmup)
        registry = sim.obs.registry
        for index, spec in enumerate(config.switches):
            if spec.gap > 0:
                sim.run(spec.gap)
            t_enacted = sim.now
            sent_before = sim.stats.total_data_sent
            delivered_before = sim.stats.data_delivered_count
            self.monitor.open_window(t_enacted)
            self._pairs_pending = set(self.flows)
            if spec.kind == "protocol":
                spec = SwitchSpec(
                    new=spec.new, old=spec.old or self.current_protocol,
                    gap=spec.gap, kind=spec.kind, gated=spec.gated,
                )
                if spec.gated:
                    self._install_bursts(index)
                transferred = self._enact_protocol(spec)
            else:
                self._enact_concurrency(spec)
                transferred = 0
            deadline = t_enacted + config.quiesce_timeout
            quiesced_at: Optional[float] = None
            while sim.now < deadline:
                sim.run(min(config.poll, deadline - sim.now))
                if self._quiesced():
                    quiesced_at = sim.now
                    break
            converged = quiesced_at is not None
            quiesce_s = (
                quiesced_at - t_enacted if converged else config.quiesce_timeout
            )
            sim.run(config.cooldown)
            sent_window = sim.stats.total_data_sent - sent_before
            delivered_window = sim.stats.data_delivered_count - delivered_before
            loss_pct = (
                max(0.0, 100.0 * (1.0 - delivered_window / sent_window))
                if sent_window else 0.0
            )
            result = SwitchResult(
                label=spec.label(),
                kind=spec.kind,
                gated=spec.gated,
                t_enacted=t_enacted,
                converged=converged,
                quiesce_s=quiesce_s,
                blackout_s=min(self.monitor.blackout(), config.quiesce_timeout),
                loss_pct=loss_pct,
                state_transfer_bytes=transferred,
                sent_window=sent_window,
                delivered_window=delivered_window,
            )
            report.results.append(result)
            grade = "gated" if spec.gated else "info"
            registry.histogram("reconfig.quiesce_s", grade=grade).observe(
                result.quiesce_s
            )
            registry.histogram("reconfig.blackout_s", grade=grade).observe(
                result.blackout_s
            )
            registry.histogram("reconfig.loss_pct", grade=grade).observe(
                result.loss_pct
            )
        return report


# -- presets ------------------------------------------------------------------

#: The six ordered protocol hops covering every (old, new) pair — an
#: Eulerian circuit over the complete digraph on {dymo, aodv, olsr},
#: starting and ending on DYMO so the expensive proactive protocol is
#: live for exactly two short windows of the 200-node run.
SWITCH_CYCLE = (
    ("dymo", "aodv"),
    ("aodv", "olsr"),
    ("olsr", "dymo"),
    ("dymo", "olsr"),
    ("olsr", "aodv"),
    ("aodv", "dymo"),
)


def standard_battery(nodes: int = 200, seed: int = 7) -> BatteryConfig:
    """The acceptance configuration: 6 switch pairs at 200 nodes, then
    two info-grade concurrency flips."""
    config = BatteryConfig(
        nodes=nodes,
        seed=seed,
        initial_protocol="dymo",
        warmup=8.0,
        cooldown=4.0,
        # OLSR cold-starts its topology set after a switch (reactive-state
        # payloads are schema-guarded out), so a switch *to* OLSR needs
        # full TC propagation over the diameter-28 grid: 13-30s at
        # tc_interval=2.  Budget past the worst observed window.
        quiesce_timeout=45.0,
    )
    switches: List[SwitchSpec] = [
        SwitchSpec(old=old, new=new) for old, new in SWITCH_CYCLE
    ]
    switches.append(
        SwitchSpec(new="thread-per-message", kind="concurrency", gated=False)
    )
    switches.append(
        SwitchSpec(new="single-threaded", kind="concurrency", gated=False)
    )
    config.switches = switches
    return config


def smoke_battery(nodes: int = 12, seed: int = 3) -> BatteryConfig:
    """CI smoke tier: a small grid, three protocol hops, short windows."""
    config = BatteryConfig(
        nodes=nodes,
        seed=seed,
        flow_count=2,
        warmup=10.0,
        quiesce_timeout=15.0,
        cooldown=3.0,
        hello_interval=0.5,
        tc_interval=1.0,
        net_diameter=16,
        speed_min=0.005,
        speed_max=0.02,
        burst_duration=3.0,
    )
    config.switches = [
        SwitchSpec(old=old, new=new)
        for old, new in (("olsr", "dymo"), ("dymo", "aodv"), ("aodv", "olsr"))
    ]
    return config


PRESETS = {"standard": standard_battery, "smoke": smoke_battery}


# -- CLI ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.sim.reconfig_battery",
        description="Run a live-reconfiguration stress battery.",
    )
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), default="smoke",
        help="battery configuration (default: smoke)",
    )
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="override the preset's fleet size",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the preset's seed",
    )
    parser.add_argument(
        "--json", metavar="OUT", default=None,
        help="write the full report as JSON to OUT",
    )
    parser.add_argument(
        "--trace-jsonl", metavar="OUT", default=None,
        help="enable tracing and export the trace as JSONL to OUT "
             "(analyse with repro.tools.traceview --reconfig)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    kwargs = {}
    if args.nodes is not None:
        kwargs["nodes"] = args.nodes
    if args.seed is not None:
        kwargs["seed"] = args.seed
    config = PRESETS[args.preset](**kwargs)
    if args.trace_jsonl:
        config.trace = True
    battery = ReconfigBattery(config)
    report = battery.run()
    print(f"battery: {config.nodes} nodes, seed {config.seed}, "
          f"{len(report.results)} switches")
    for result in report.results:
        status = "converged" if result.converged else "TIMED OUT"
        grade = "" if result.gated else "  [info]"
        print(f"  t={result.t_enacted:7.1f}s  {result.label:<28s} {status}  "
              f"quiesce={result.quiesce_s:6.2f}s  "
              f"blackout={result.blackout_s:6.2f}s  "
              f"loss={result.loss_pct:5.2f}%  "
              f"carry={result.state_transfer_bytes}B{grade}")
    aggregates = report.aggregates()
    if aggregates:
        print("gated aggregates: " + ", ".join(
            f"{key}={value:.3f}" for key, value in sorted(aggregates.items())
        ))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    if args.trace_jsonl:
        from repro.obs.export import dump_trace_jsonl

        dump_trace_jsonl(battery.recorder, args.trace_jsonl, deterministic=True)
        print(f"trace written to {args.trace_jsonl} "
              f"({len(battery.recorder.events)} records)")
    return 0 if report.all_converged else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
