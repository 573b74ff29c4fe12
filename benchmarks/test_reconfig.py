"""Live-reconfiguration benchmarks — the cost of switching while running.

Two tiers, mirroring the scale ladder:

* **smoke** (per-PR CI): the 12-node smoke battery; emits
  ``BENCH_reconfig.json``, gated at 10% by ``python -m repro.tools.bench_check
  --only reconfig``.
* **200-node standard battery** (nightly / local): the acceptance
  configuration — every ordered protocol pair once on the 20x10 grid
  under mobility and Gilbert-Elliott bursts, then two info-grade
  concurrency flips.  Too slow for per-PR CI (~8 min); select with
  ``RECONFIG_SCALE=200``.  Emits ``BENCH_reconfig200.json``.

Every gated metric is a *simulated-time* quantity (quiesce seconds,
blackout seconds, loss percentage, handover payload bytes) from a
seeded single-threaded run, so the values are bit-deterministic under
``PYTHONHASHSEED=0`` and CI can hold them to a tight band without
flaking on runner speed.  Wall-clock is emitted info-grade.
"""

from __future__ import annotations

import os
import time
from typing import Dict

import pytest

from conftest import record_bench
from repro.obs.bench import BenchMetric
from repro.sim.reconfig_battery import (
    BatteryReport,
    ReconfigBattery,
    smoke_battery,
    standard_battery,
)


def _metric_key(label: str) -> str:
    return label.replace("->", "_to_").replace("-", "_")


def _battery_metrics(
    prefix: str, report: BatteryReport, wall: float
) -> Dict[str, BenchMetric]:
    metrics: Dict[str, BenchMetric] = {}
    for result in report.gated():
        key = f"{prefix}.{_metric_key(result.label)}"
        metrics[f"{key}.quiesce_s"] = BenchMetric(
            value=result.quiesce_s, unit="s", direction="lower"
        )
        metrics[f"{key}.blackout_s"] = BenchMetric(
            value=result.blackout_s, unit="s", direction="lower"
        )
        metrics[f"{key}.loss_pct"] = BenchMetric(
            value=result.loss_pct, unit="%", direction="lower"
        )
        metrics[f"{key}.state_transfer_bytes"] = BenchMetric(
            value=result.state_transfer_bytes, unit="B", direction="info"
        )
    aggregates = report.aggregates()
    metrics[f"{prefix}.quiesce_s_max"] = BenchMetric(
        value=aggregates["quiesce_s_max"], unit="s", direction="lower"
    )
    metrics[f"{prefix}.quiesce_s_mean"] = BenchMetric(
        value=aggregates["quiesce_s_mean"], unit="s", direction="lower"
    )
    metrics[f"{prefix}.blackout_s_max"] = BenchMetric(
        value=aggregates["blackout_s_max"], unit="s", direction="lower"
    )
    metrics[f"{prefix}.loss_pct_max"] = BenchMetric(
        value=aggregates["loss_pct_max"], unit="%", direction="lower"
    )
    metrics[f"{prefix}.converged"] = BenchMetric(
        value=aggregates["converged"], unit="switches", direction="higher"
    )
    metrics[f"{prefix}.state_transfer_bytes_total"] = BenchMetric(
        value=aggregates["state_transfer_bytes_total"], unit="B",
        direction="info",
    )
    metrics[f"{prefix}.wall_s"] = BenchMetric(
        value=wall, unit="s", direction="info"
    )
    return metrics


def test_reconfig_bench_emit():
    """The CI smoke tier: three switches on the 12-node grid, gated."""
    config = smoke_battery()
    battery = ReconfigBattery(config)
    t0 = time.perf_counter()
    report = battery.run()
    wall = time.perf_counter() - t0

    assert report.all_converged, [r.label for r in report.results
                                  if not r.converged]
    for result in report.gated():
        assert result.loss_pct <= 60.0, f"{result.label}: {result.loss_pct}%"
        assert result.state_transfer_bytes > 0

    record_bench(
        "reconfig",
        _battery_metrics("reconfig", report, wall),
        meta={
            "nodes": config.nodes, "seed": config.seed,
            "switches": len(config.switches), "tier": "smoke",
        },
    )


def test_reconfig_battery_200():
    """The acceptance battery: >=6 distinct switch pairs at 200 nodes."""
    if os.environ.get("RECONFIG_SCALE") != "200":
        pytest.skip(
            "200-node battery not selected; set RECONFIG_SCALE=200 "
            "(nightly CI / baseline refresh does)"
        )
    config = standard_battery()
    battery = ReconfigBattery(config)
    t0 = time.perf_counter()
    report = battery.run()
    wall = time.perf_counter() - t0

    gated = report.gated()
    assert len(gated) == 6
    assert len({r.label for r in gated}) == 6
    assert len(report.results) == len(config.switches)
    assert report.all_converged, [r.label for r in report.results
                                  if not r.converged]
    for result in gated:
        assert result.sent_window > 0
        assert result.state_transfer_bytes > 0

    record_bench(
        "reconfig200",
        _battery_metrics("reconfig200", report, wall),
        meta={
            "nodes": config.nodes, "seed": config.seed,
            "switches": len(config.switches), "tier": "standard",
        },
    )
