"""One pass of one workload: build, timed window, checks, closing switch.

Runs inside a fresh subprocess (see ``run.py``), traced or untraced.
Host-time (``H``) metrics are only meaningful from the untraced pass;
simulated (``S``) metrics and counts must be identical in both.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from typing import Any, Dict, List, Optional

import shims
import workloads
from repro.packetbb.packet import decode_cache_stats, reset_decode_cache
from repro.sim.stats import percentile
from workloads import SLICE, Scenario, Workload

#: Cold builds timed per untraced pass; ``setup_s`` is their median.
SETUP_REPEATS = 5

clock = time.perf_counter


def window_sim_s(workload: Workload, seconds: float) -> float:
    """Simulated length of the timed window for ``--seconds`` of host time."""
    return max(SLICE, int(workload.sim_s_per_host_s * seconds / SLICE) * SLICE)


def run_window(scenario: Scenario) -> Dict[str, Any]:
    """Advance the cold network to ``duration`` in timed slices."""
    sim = scenario.sim
    actions = scenario.actions
    slices_ms: List[float] = []
    count = round(scenario.duration / SLICE)
    gc.collect()
    started = clock()
    for index in range(count):
        slice_started = clock()
        while actions and actions[0][0] <= index * SLICE + 1e-9:
            actions.pop(0)[1](scenario)
        sim.run_until((index + 1) * SLICE, max_events=None)
        slices_ms.append((clock() - slice_started) * 1e3)
    return {"wall_s": clock() - started, "slices_ms": slices_ms}


def simulated_metrics(scenario: Scenario) -> Dict[str, float]:
    """The ``S`` metrics; capture before the closing switch flushes routes."""
    sim, duration = scenario.sim, scenario.duration
    setups, outages = [], []
    for pair, times in scenario.deliveries.items():
        first_send = scenario.first_send[pair]
        if not times:
            # Censored: a flow that never delivers counts the whole window.
            setups.append(duration - first_send)
            outages.append(duration)
            continue
        setups.append(times[0] - first_send)
        gaps = [b - a for a, b in zip(times, times[1:])]
        gaps.append(duration - times[-1])
        outages.append(max(gaps))
    stats = sim.stats
    return {
        "delivery_ratio": stats.data_delivered_count / stats.total_data_sent,
        "data_latency_p50_ms": stats.latency_percentile(0.50) * 1e3,
        "data_latency_p95_ms": stats.latency_percentile(0.95) * 1e3,
        "route_setup_sim_s": statistics.median(setups),
        "max_outage_sim_s": max(outages),
        "control_bytes_per_node_s": stats.total_control_bytes / len(scenario.ids) / duration,
    }


def counts(scenario: Scenario) -> Dict[str, int]:
    """Exactly repeatable tallies; both passes and both sides of --agree must match."""
    sim = scenario.sim
    injected = len(scenario.injector.applied) if scenario.injector is not None else 0
    return {
        "events": sim.scheduler.executed_count,
        "control_frames": sim.stats.total_control_frames,
        "control_bytes": sim.stats.total_control_bytes,
        "data_sent": sim.stats.total_data_sent,
        "data_delivered": sim.stats.data_delivered_count,
        "flows_delivering": sum(1 for times in scenario.deliveries.values() if times),
        "window_switches": scenario.switch_calls,
        "faults_applied": injected + scenario.harness_faults,
    }


def fingerprint(scenario: Scenario, tallies: Dict[str, int]) -> str:
    routes = [len(scenario.sim.node(nid).kernel_table) for nid in scenario.ids]
    blob = json.dumps([sorted(tallies.items()), routes])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def output_checks(scenario: Scenario, simulated: Dict[str, float],
                  tallies: Dict[str, int], smoke: bool) -> List[str]:
    """Failed checks, as messages (empty when the outputs are correct)."""
    workload = scenario.workload
    failed = []
    if scenario.sim.truncated:
        failed.append("sim.truncated is set")
    if smoke:
        return failed
    # A planned PHY-workload fault is a break plus its restore.
    expected_faults = workload.faults * (1 if workload.phy is None else 2)
    if tallies["faults_applied"] != expected_faults:
        failed.append(
            f"{tallies['faults_applied']} faults applied, plan has {expected_faults}"
        )
    if workload.full_routes:
        short = [
            nid for nid in scenario.ids
            if len(scenario.sim.node(nid).kernel_table) != len(scenario.ids) - 1
        ]
        if short:
            failed.append(f"{len(short)} nodes lack a full routing table, e.g. node {short[0]}")
    if simulated["delivery_ratio"] < workload.min_delivery:
        failed.append(
            f"delivery_ratio {simulated['delivery_ratio']:.4f} < {workload.min_delivery}"
        )
    return failed


def layer_metrics(scenario: Scenario, tracer: shims.Tracer, traced_wall_s: float,
                  simulated: Dict[str, float], tallies: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics: traced self times plus the layers' own counters."""
    sim, kits = scenario.sim, scenario.kits.values()
    layers = tracer.layer_self_ms("window")
    registry = sim.obs.registry

    def layer_ms(layer: str) -> float:
        return layers.get(layer, 0.0)

    def calls(name: str) -> int:
        return tracer.record("window", name)[0]

    def self_ms(name: str) -> float:
        return tracer.record("window", name)[1]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def counter_sum(name: str) -> int:
        return sum(registry.counters(name).values())

    scheduler, medium, phy = sim.scheduler, sim.medium, sim.phy_model
    decode = decode_cache_stats()
    decode_calls = decode["hits"] + decode["misses"]
    lookups = calls("sim.kernel_table:KernelRoutingTable.lookup")
    index_hits = sum(kit.manager.index_hits for kit in kits)
    index_misses = sum(kit.manager.index_misses for kit in kits)
    modes = {m: counter_sum(f"route_calc.{m}") for m in ("incremental", "full", "fallback", "noop")}
    installs = sum(modes.values())
    considered = calls("protocols.mpr:MprForward.consider")
    phy_rolls = medium.frames_delivered + phy.collisions + phy.sinr_losses
    unit = "CFSUnit.process_event"
    self_total = sum(layers.values())
    largest_self_s = max(record[1] for record in tracer.phases["window"].values())
    return {
        "utils.scheduler.events": scheduler.executed_count,
        "utils.scheduler.self_ms": layer_ms("utils.scheduler"),
        "utils.scheduler.wheel_share": share(
            scheduler.wheel_scheduled, scheduler.wheel_scheduled + scheduler.heap_scheduled),
        "utils.timers.self_ms": layer_ms("utils.timers"),
        "sim.medium.tx_frames": medium.frames_sent,
        "sim.medium.rx_deliveries": medium.frames_delivered,
        "sim.medium.fanout": share(medium.frames_delivered, medium.frames_sent),
        "sim.medium.batches": medium.batches_scheduled,
        "sim.medium.frames_lost": medium.frames_lost,
        "sim.medium.self_ms": layer_ms("sim.medium"),
        "sim.phy.transmissions": phy.transmissions,
        "sim.phy.collisions": phy.collisions,
        "sim.phy.deferrals": phy.deferrals,
        "sim.phy.sinr_loss": phy.sinr_losses,
        "sim.phy.backoff_giveups": phy.backoff_giveups,
        "sim.phy.delivered_share": (
            share(medium.frames_delivered, phy_rolls) if phy.transmissions else 0.0),
        "sim.phy.self_ms": layer_ms("sim.phy"),
        "sim.node.rx_frames": calls("sim.node:SimNode.receive_frame"),
        "sim.node.data_forwards": sum(sim.node(nid).data_forwarded for nid in scenario.ids),
        "sim.node.data_drops": sim.stats.total_data_dropped,
        "sim.node.self_ms": layer_ms("sim.node"),
        "sim.network.self_ms": layer_ms("sim.network"),
        # Simulated, but an extreme and a race: too seed-sensitive to
        # carry a cross-seed regression bound, so reported here, unbounded.
        "sim.network.route_setup_sim_s": simulated["route_setup_sim_s"],
        "sim.network.max_outage_sim_s": simulated["max_outage_sim_s"],
        "sim.kernel_table.lookups": lookups,
        "sim.kernel_table.lookup_hit_share": share(
            tracer.counts["kernel_table.lookup_hits"], lookups),
        "sim.kernel_table.writes": sum(
            calls(f"sim.kernel_table:KernelRoutingTable.{op}")
            for op in ("add_route", "del_route", "replace_all", "refresh_route")),
        "sim.kernel_table.self_ms": layer_ms("sim.kernel_table"),
        "packetbb.decode_calls": decode_calls,
        "packetbb.decode_hit_share": share(decode["hits"], decode_calls),
        "packetbb.decode_self_ms": self_ms("packetbb:system_cf.decode_interned")
        + self_ms("packetbb:Packet.parse"),
        "packetbb.encode_calls": calls("packetbb:system_cf.encode"),
        "packetbb.encode_self_ms": self_ms("packetbb:system_cf.encode")
        + self_ms("packetbb:Packet.serialize"),
        "core.system_cf.msgs_in": sum(k.system.sys_forward.messages_received for k in kits),
        "core.system_cf.msgs_out": sum(k.system.sys_forward.messages_sent for k in kits),
        "core.system_cf.malformed": sum(k.system.sys_forward.malformed_packets for k in kits),
        "core.system_cf.self_ms": layer_ms("core.system_cf"),
        "core.framework_manager.events_routed": sum(k.manager.events_routed for k in kits),
        "core.framework_manager.index_hit_share": share(index_hits, index_hits + index_misses),
        "core.framework_manager.self_ms": layer_ms("core.framework_manager"),
        "concurrency.self_ms": layer_ms("concurrency"),
        "protocols.mpr.events": calls(f"protocols.mpr:{unit}"),
        "protocols.mpr.self_ms": layer_ms("protocols.mpr"),
        "protocols.mpr.forward_share": share(tracer.counts["mpr.relayed"], considered),
        "protocols.mpr.mpr_computes": calls("protocols.mpr:MprCalculator.select")
        + calls("protocols.mpr:MprCalculator.compute"),
        "protocols.olsr.events": calls(f"protocols.olsr:{unit}"),
        "protocols.olsr.self_ms": layer_ms("protocols.olsr"),
        "protocols.olsr.route_calc_ms": tracer.record(
            "window", "protocols.olsr:RouteCalculator.install")[2],
        "protocols.olsr.incremental_share": share(modes["incremental"], installs),
        "protocols.olsr.noop_share": share(modes["noop"], installs),
        "protocols.olsr.full_recomputes": modes["full"] + modes["fallback"],
        "protocols.dymo.events": calls(f"protocols.dymo:{unit}"),
        "protocols.dymo.self_ms": layer_ms("protocols.dymo"),
        "protocols.aodv.events": calls(f"protocols.aodv:{unit}"),
        "protocols.aodv.self_ms": layer_ms("protocols.aodv"),
        "core.manetkit.deploy_ms_per_node": share(
            tracer.record("setup", "core.manetkit:ManetKit.deploy")[2], len(scenario.ids)),
        "sim.mobility.steps": calls("sim.mobility:RandomWaypoint.step"),
        "sim.mobility.link_changes": tracer.counts["mobility.link_changes"],
        "sim.mobility.self_ms": layer_ms("sim.mobility"),
        "sim.faults.applied": tallies["faults_applied"],
        "trace.attributed_share": share(self_total, traced_wall_s * 1e3),
        "trace.largest_self_share": share(largest_self_s, traced_wall_s),
    }


def switch_layer_metrics(scenario: Scenario, tracer: shims.Tracer) -> Dict[str, float]:
    """Reconfiguration costs, from wherever this workload switches: inside
    the window (reconfig_live) or the closing round trip (the rest)."""
    phase = "window" if scenario.workload.mobility else "closing"
    kits = scenario.kits.values()
    registry = scenario.sim.obs.registry

    def total_ms(name: str) -> float:
        return tracer.record(phase, name)[2]

    return {
        "core.reconfig.switches": tracer.record(
            phase, "core.reconfig:ReconfigurationManager.switch_protocol")[0],
        "core.reconfig.state_transfer_bytes": sum(
            registry.counters("reconfig.state_transfer_bytes").values()),
        "core.reconfig.undeploy_ms": total_ms("core.manetkit:ManetKit.undeploy"),
        "core.reconfig.deploy_ms": total_ms("core.manetkit:ManetKit.deploy"),
        "core.reconfig.quiesce_ms": total_ms("core.reconfig:QuiescenceManager.acquire"),
        "core.framework_manager.rewires": sum(kit.manager.rewires for kit in kits),
        "core.framework_manager.rewire_ms": total_ms(
            "core.framework_manager:FrameworkManager.rewire"),
    }


def run_pass(name: str, seed: int, seconds: float, smoke: bool,
             trace_path: Optional[str] = None) -> Dict[str, Any]:
    """Build, run and check one workload; returns the pass's full record.

    With ``trace_path`` the pass runs traced and writes its spans there.
    """
    workload = workloads.WORKLOADS[name]
    duration = workloads.SMOKE_SIM_S if smoke else window_sim_s(workload, seconds)
    tracer = None
    if trace_path is not None:
        tracer = shims.Tracer()
        shims.install(tracer)

    setups = []
    for _ in range(1 if tracer is not None else SETUP_REPEATS):
        scenario = None  # free the previous build before timing the next
        gc.collect()
        started = clock()
        scenario = workloads.build(workload, seed, duration, smoke)
        setups.append(clock() - started)

    # The decode cache is process-global; start it cold so its hit share
    # is this window's alone.
    reset_decode_cache()
    if tracer is not None:
        tracer.begin_phase("window")
    window = run_window(scenario)
    if tracer is not None:
        tracer.begin_phase("closing")

    simulated = simulated_metrics(scenario)
    tallies = counts(scenario)
    mark = fingerprint(scenario, tallies)
    failed = output_checks(scenario, simulated, tallies, smoke)
    layers = None
    if tracer is not None:
        layers = layer_metrics(scenario, tracer, window["wall_s"], simulated, tallies)

    if not workload.mobility:
        # Closing A->B->A round trip, after every S metric is captured.
        # Only the outbound leg is sampled: it hands over the state the
        # window built up.  The return leg starts from an empty protocol
        # and is ten times cheaper, so pooling both would put p50 on the
        # gap between two modes; it still runs, and is still checked.
        scenario.switch_ms = workloads.switch_fleet(scenario, workload.partner)
        workloads.switch_fleet(scenario, workload.initial)
    if scenario.switch_failures:
        failed.append(f"{scenario.switch_failures} switches left the wrong protocol deployed")
    if tracer is not None:
        layers.update(switch_layer_metrics(scenario, tracer))

    slices = window["slices_ms"]
    host = {
        "setup_s": statistics.median(setups),
        "wall_per_sim_s": window["wall_s"] / duration,
        "slice_wall_p50_ms": percentile(slices, 0.50),
        "slice_wall_p90_ms": percentile(slices, 0.90),
        "switch_ms_p50": percentile(scenario.switch_ms, 0.50),
        "switch_ms_p90": percentile(scenario.switch_ms, 0.90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "workload": name, "seed": seed, "traced": tracer is not None, "sim_s": duration,
        "window_wall_s": window["wall_s"], "host": host, "simulated": simulated,
        "counts": tallies, "sim_fingerprint": mark, "failed_checks": failed,
        "samples": {"slices": len(slices), "switches": len(scenario.switch_ms),
                    "deliveries": tallies["data_delivered"]},
        # One op per flow (fails if it never delivers) and per switch call.
        "ops_attempted": len(scenario.flows) + scenario.switch_calls,
        "ops_failed": len(scenario.flows) - tallies["flows_delivering"]
        + scenario.switch_failures,
        "layers": layers,
    }
    if tracer is not None:
        payload = {"workload": name, "seed": seed, "sim_s": duration,
                   "window_wall_s": window["wall_s"], **tracer.to_json()}
        with open(trace_path, "w") as handle:
            json.dump(payload, handle)
    return record
