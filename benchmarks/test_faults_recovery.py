"""Fault-recovery benchmark — gated recovery latency per protocol.

Selected with ``pytest benchmarks -k faults``; emits
``results/BENCH_faults.json`` through the ``repro.obs`` bench emitter.

Each protocol runs the same scripted adversity on the paper's 5-node
chain: crash the middle relay at t=1 s, restart it at t=8 s, partition
the network at t=25 s and heal it at t=35 s, with CBR traffic flowing
end to end throughout.  The convergence oracle (full mode for proactive
OLSR, sound mode with the traffic pair for reactive DYMO/AODV) measures
how long each disruption takes to recover from, in **simulated seconds**
— deterministic for a fixed seed, so the metrics are gated at the normal
25% band by ``repro.tools.bench_check`` against ``benchmarks/baseline/``.
"""

from __future__ import annotations

from conftest import HELLO_INTERVAL, TC_INTERVAL, record_bench
from repro.analysis.oracle import ConvergenceOracle, RecoveryTracker
from repro.core import ManetKit
from repro.obs.bench import BenchMetric
from repro.sim import FaultPlan, Simulation, topology

import repro.protocols  # noqa: F401

PROTOCOLS = {
    "olsr": {"warmup": 15.0, "mode": "full"},
    "dymo": {"warmup": 6.0, "mode": "sound"},
    "aodv": {"warmup": 6.0, "mode": "sound"},
}

CRASH_AT, RESTART_AT = 1.0, 8.0
PARTITION_AT, HEAL_AT = 25.0, 35.0
RUN_FOR = 50.0


def _build(protocol: str, seed: int = 1):
    sim = Simulation(seed=seed)
    sim.add_nodes(5)
    ids = sim.node_ids()
    sim.topology.apply(topology.linear_chain(ids))
    kits = {}
    for node_id in ids:
        kit = ManetKit(sim.node(node_id))
        if protocol == "olsr":
            kit.load_protocol("mpr", hello_interval=HELLO_INTERVAL)
            kit.load_protocol("olsr", tc_interval=TC_INTERVAL)
        else:
            kit.load_protocol(protocol)
        kits[node_id] = kit
    return sim, ids, kits


def _run_battery(protocol: str):
    config = PROTOCOLS[protocol]
    sim, ids, kits = _build(protocol)
    relay = ids[2]
    sim.run(config["warmup"])

    plan = (
        FaultPlan(seed=99)
        .crash(CRASH_AT, relay)
        .restart(RESTART_AT, relay)
        .partition(PARTITION_AT, ids[:2], ids[2:])
        .heal(HEAL_AT)
    )
    injector = sim.install_faults(plan, kits=kits)
    pair = (ids[0], ids[-1])
    oracle = ConvergenceOracle(sim, mode=config["mode"])
    tracker = RecoveryTracker(
        sim, oracle, protocol=protocol, poll=0.25, timeout=15.0,
        pairs=None if config["mode"] == "full" else [pair],
    ).attach(injector)

    delivered = []
    sim.node(pair[1]).add_app_receiver(delivered.append)
    flow = sim.start_cbr(pair[0], pair[1], interval=0.5)
    sim.run(RUN_FOR)
    flow.stop()
    sim.run(1.0)

    assert not tracker.timeouts, f"{protocol}: no recovery from {tracker.timeouts}"
    recovered = dict(tracker.recoveries)
    assert "crash" in recovered and "partition" in recovered, (
        f"{protocol}: measured {tracker.recoveries}"
    )
    final = oracle.check(
        pairs=None if config["mode"] == "full" else [pair]
    )
    assert final.converged, f"{protocol}: {final.summary()}"
    return {
        "crash_recovery_s": recovered["crash"],
        "partition_recovery_s": recovered["partition"],
        "delivery_ratio": len(delivered) / max(flow.sent, 1),
    }


def test_faults_bench_emit():
    metrics = {}
    for protocol in sorted(PROTOCOLS):
        result = _run_battery(protocol)
        metrics[f"{protocol}.crash.recovery_sim_s"] = BenchMetric(
            value=result["crash_recovery_s"], unit="s", direction="lower"
        )
        metrics[f"{protocol}.partition.recovery_sim_s"] = BenchMetric(
            value=result["partition_recovery_s"], unit="s", direction="lower"
        )
        metrics[f"{protocol}.delivery_ratio"] = BenchMetric(
            value=result["delivery_ratio"], unit="", direction="higher"
        )
        metrics[f"{protocol}.reconverged"] = BenchMetric(
            value=1.0, unit="", direction="higher"
        )
    record_bench(
        "faults",
        metrics,
        meta={
            "plan": {
                "crash_at": CRASH_AT, "restart_at": RESTART_AT,
                "partition_at": PARTITION_AT, "heal_at": HEAL_AT,
            },
            "topology": "chain:5",
            "seed": 1,
        },
    )
