"""Sharded-run benchmark: the 200-node grid across 4 worker processes.

Selected with ``pytest benchmarks -k shard``.  Runs the scale gate's
200-node OLSR grid once single-process and once sharded across 4
workers (:mod:`repro.sim.sharded`), asserts the two runs are
result-equivalent (routes and delivery accounting — the conservative
synchronisation must be invisible), and emits ``BENCH_shard.json``.

Gated metrics are **deterministic** (frame/epoch/boundary counts and the
equivalence bit for a fixed seed) so CI holds them to a tight band —
``python -m repro.tools.bench_check --tolerance 0.10 --only shard`` — without flaking
on runner speed.  Wall-clock and speedup are emitted ``info``-grade; the
≥2x speedup claim is asserted only when the runner actually has ≥4 cores
(single-core CI containers time-slice the workers and would measure pure
IPC overhead, not parallelism).
"""

from __future__ import annotations

import argparse
import os
import time

from conftest import record_bench
from repro.obs.bench import BenchMetric
from repro.sim.sharded import run_sharded_scenario
from repro.tools.scenario import execute_scenario, resolve_options

NODES = 200
SEED = 7
WARMUP = 5.0
DURATION = 5.0
SHARDS = 4

#: Result keys that must match the single-process run exactly.
#: ``events_executed`` is excluded by design (cross-shard deliveries
#: occupy their own scheduler slot in the peer shard), and so are the
#: control-overhead counts: at this scale, simultaneous TC-flood arrivals
#: from *different* shards can process in a different tie order than
#: single-process, flipping a fraction of duplicate-forwarding decisions
#: (docs/sharding.md).  Routes and delivery accounting must still match
#: exactly — asserted below — and the overhead delta is bounded to 1%.
EQUIV_KEYS = (
    "nodes", "sim_time_s", "flows", "delivery_ratio",
    "latency_mean_s", "latency_p95_s", "truncated",
)


def test_shard_bench_emit():
    opts = dict(
        protocol="olsr", topology="grid", nodes=NODES, seed=SEED,
        warmup=WARMUP, duration=DURATION, traffic=[f"1:{NODES}"],
    )

    args = argparse.Namespace(**resolve_options(dict(opts), include_output=True))
    t0 = time.perf_counter()
    artifacts = execute_scenario(args)
    wall_single = time.perf_counter() - t0
    single = artifacts.result
    single_routes = {
        nid: {
            route.destination: route.next_hop
            for route in artifacts.sim.node(nid).kernel_table.routes()
        }
        for nid in artifacts.sim.node_ids()
    }

    t0 = time.perf_counter()
    sharded = run_sharded_scenario(dict(opts), shards=SHARDS)
    wall_sharded = time.perf_counter() - t0

    mismatches = [k for k in EQUIV_KEYS if sharded[k] != single[k]]
    assert not mismatches, f"sharded run diverged on {mismatches}"
    assert sharded["routes"] == single_routes, (
        "sharded run converged to different kernel routes"
    )
    frames_delta = abs(sharded["control_frames"] - single["control_frames"])
    assert frames_delta <= 0.01 * single["control_frames"], (
        f"control overhead diverged by {frames_delta} frames "
        f"(single {single['control_frames']})"
    )
    assert not sharded["truncated"]

    cores = os.cpu_count() or 1
    speedup = wall_single / wall_sharded if wall_sharded else 0.0
    if cores >= 4:
        # The actual parallelism claim — only meaningful with real cores.
        assert speedup >= 2.0, (
            f"4-shard run only {speedup:.2f}x faster on {cores} cores"
        )
    else:
        # Single/dual-core runner: just require the sharded path to be
        # functional, not competitive.
        assert speedup > 0.05

    sharding = sharded["sharding"]
    record_bench(
        "shard",
        {
            "shard.control_frames": BenchMetric(
                value=sharded["control_frames"], unit="frames",
                direction="lower",
            ),
            "shard.boundary_frames": BenchMetric(
                value=sharding["boundary_frames"], unit="frames",
                direction="lower",
            ),
            "shard.epochs": BenchMetric(
                value=sharding["epochs"], unit="barriers", direction="lower"
            ),
            "shard.delivered": BenchMetric(
                value=sharded["flows"][0]["delivered"], unit="packets",
                direction="higher",
            ),
            # Regression tripwire: 1.0 iff every EQUIV_KEY matched the
            # single-process run (the assert above fails first, but the
            # baseline gate catches it even under ``pytest -x`` skips).
            "shard.equivalent": BenchMetric(
                value=0.0 if mismatches else 1.0, unit="", direction="higher"
            ),
            "shard.wall_single_s": BenchMetric(
                value=wall_single, unit="s", direction="info"
            ),
            "shard.wall_sharded_s": BenchMetric(
                value=wall_sharded, unit="s", direction="info"
            ),
            "shard.speedup": BenchMetric(
                value=speedup, unit="x", direction="info"
            ),
        },
        meta={
            "nodes": NODES, "seed": SEED, "shards": SHARDS,
            "warmup_s": WARMUP, "duration_s": DURATION, "cores": cores,
        },
    )
