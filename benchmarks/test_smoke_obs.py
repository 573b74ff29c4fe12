"""Smoke benchmark — the fast subset CI runs on every push.

Selected with ``pytest benchmarks -k smoke``; finishes in well under a
minute and emits ``results/BENCH_smoke.json`` through the ``repro.obs``
bench emitter.  The gated metrics are **deterministic** quantities
(simulated-time delays, frame/byte/event counts — identical on every
machine for a given seed), so ``repro.tools.bench_check`` can hold them to a
25% band against ``benchmarks/baseline/`` without flaking on runner
speed.  Raw wall-clock timings are emitted as ``info`` metrics: recorded
and uploaded, never gated.

The last test doubles as the instrumentation-overhead guard: with tracing
disabled (the default) the observability layer must not slow the Table 1
message-processing path by more than a few percent; we assert the wire
path still handles a message in comfortably under a millisecond and that
a traced run records the expected structure.
"""

from __future__ import annotations

import statistics
import time

from conftest import (
    build_mkit_dymo_chain,
    build_mkit_olsr_chain,
    record_bench,
)
from repro.obs.bench import BenchMetric, metric_from_samples
from repro.core import ManetKit
from repro.sim import Simulation


SEEDS = (1, 2, 3)


def _dymo_discovery_sim_seconds(seed: int):
    """One DYMO route discovery over the 5-node chain, all in sim time."""
    sim, ids, _kits = build_mkit_dymo_chain(seed=seed)
    sim.run(5.0)
    delivered = []
    sim.node(ids[-1]).add_app_receiver(delivered.append)
    start = sim.now
    sim.node(ids[0]).send_data(ids[-1], b"probe")
    while sim.now - start < 10.0 and not delivered:
        sim.run(0.0005)
    assert delivered, f"discovery failed (seed {seed})"
    return sim.now - start, sim


def test_smoke_bench_emit():
    """Emit the gated smoke metrics: DYMO discovery + control overhead."""
    delays = []
    last_sim = None
    for seed in SEEDS:
        delay, last_sim = _dymo_discovery_sim_seconds(seed)
        delays.append(delay * 1000.0)

    # Control overhead of the last run (fixed seed => deterministic).
    stats = last_sim.stats
    snapshot = last_sim.obs.registry.snapshot()["collected"]

    # Wall-clock micro: message processing through the full MANETKit
    # receive path (info-grade; machine-dependent).
    wall = _message_processing_wall_seconds()

    metrics = {
        "dymo.route_establishment.sim_ms": metric_from_samples(
            delays, unit="ms", direction="lower"
        ),
        "dymo.control_frames": BenchMetric(
            value=stats.total_control_frames, unit="frames", direction="lower"
        ),
        "dymo.control_bytes": BenchMetric(
            value=stats.total_control_bytes, unit="B", direction="lower"
        ),
        "dymo.sched_events": BenchMetric(
            value=snapshot["sched.events_executed"], unit="events",
            direction="lower",
        ),
        "dymo.delivery_ratio": BenchMetric(
            value=stats.delivery_ratio(), unit="", direction="higher"
        ),
        "table1.mkit_dymo.msg_wall_ms": metric_from_samples(
            [w * 1000.0 for w in wall], unit="ms", direction="info"
        ),
    }
    record_bench("smoke", metrics, meta={"seeds": list(SEEDS)})

    # Deterministic sanity: DYMO crosses the chain in tens of sim-ms.
    assert 5 < statistics.mean(delays) < 100


def _message_processing_wall_seconds(rounds: int = 200):
    """Wall time per RREQ through the componentised receive path."""
    from repro.packetbb.packet import Packet, encode
    from repro.protocols.dymo.messages import RREQ, build_re

    sim = Simulation(seed=0)
    a = sim.add_node()
    b = sim.add_node()
    kit = ManetKit(b)
    kit.load_protocol("dymo")
    payloads = [
        encode(Packet([
            build_re(RREQ, target=b.node_id,
                     path=[(a.node_id, (seq % 0xFFFF) or 1)], hop_limit=10)
        ], seqnum=seq & 0xFFFF))
        for seq in range(1, rounds + 1)
    ]
    samples = []
    for payload in payloads:
        t0 = time.perf_counter()
        kit.system.sys_forward._on_wire(payload, a.node_id)
        samples.append(time.perf_counter() - t0)
    return samples


def test_smoke_tracing_disabled_overhead():
    """Tracing off (default): the wire path stays fast and untraced.

    This is the CI guard for the "<=5% overhead when tracing is disabled"
    acceptance bar: with the default configuration no trace recorder
    exists, so the per-message cost of the observability layer is a
    couple of attribute checks.  We bound the absolute median cost
    loosely (an order of magnitude above a healthy run) purely to catch
    accidental always-on instrumentation.
    """
    samples = _message_processing_wall_seconds(rounds=300)
    median = statistics.median(samples)
    assert median < 0.005, f"message path suspiciously slow: {median * 1e3:.3f} ms"


def test_smoke_tracing_disabled_allocates_nothing():
    """Pin the disabled-path cost: ZERO allocations in the tracing layer.

    The "disabled tracing costs one attribute check" contract means the
    instrumented hot paths (medium, node, kernel table, unit dispatch)
    must not build attrs dicts, provenance ids or trace records when no
    recorder is installed.  tracemalloc filtered to the tracing modules
    makes that a hard assertion rather than a timing heuristic.
    """
    import tracemalloc

    import repro.obs.causal as causal_mod
    import repro.obs.profile as profile_mod
    import repro.obs.trace as trace_mod

    sim, ids, _kits = build_mkit_dymo_chain(seed=2)
    sim.run(5.0)  # warm up: caches, lazy imports, steady-state timers
    sim.node(ids[0]).send_data(ids[-1], b"probe")

    trace_filter = [
        tracemalloc.Filter(True, trace_mod.__file__),
        tracemalloc.Filter(True, causal_mod.__file__),
        # The profiler has the same contract: seams guard with one
        # attribute load + None check and never enter profile.py when
        # profiling is off.
        tracemalloc.Filter(True, profile_mod.__file__),
    ]
    tracemalloc.start(1)
    try:
        sim.run(10.0)  # discovery + steady state, tracing disabled
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    stats = snapshot.filter_traces(trace_filter).statistics("filename")
    allocated = sum(stat.size for stat in stats)
    assert allocated == 0, (
        f"tracing layer allocated {allocated} B while disabled: {stats}"
    )


def test_smoke_tracing_enabled_records_structure():
    """Tracing on: one OLSR run yields spans for scheduler + protocol."""
    sim, ids, _kits = build_mkit_olsr_chain(node_count=3, seed=1)
    tracer = sim.enable_tracing()
    sim.run(3.0)
    counts = tracer.counts_by_name()
    assert counts.get("sched.dispatch", 0) > 0
    assert counts.get("unit.process", 0) > 0
    assert counts.get("medium.broadcast", 0) > 0
    # Two records (begin/end) per span, so both counters are even.
    assert counts["sched.dispatch"] % 2 == 0
