"""PHY-model smoke tier — the `802.11b/g/p` gate plus the ideal fast path.

Two obligations, per the medium-model contract (docs/phy.md):

* **Profiles are real and deterministic.**  The 60-node grid under the
  fault battery (loss burst, link break/restore, corruption window,
  crash/restart) must produce *distinct* delivery ratios per link
  profile — the whole point of the PHY axis is that results depend on
  the parameter set — and the same seed + profile must reproduce the
  full result dict exactly.  The ratios are gated against
  ``benchmarks/baseline/BENCH_phy.json`` (``python -m repro.tools.bench_check
  --tolerance 0.10 --only phy``); being deterministic, they cannot
  drift on runner speed.

* **The ideal fast path stayed fast and exact.**  The scale workload
  (200-node grid, RFC-default OLSR, 60 sim-seconds — the exact cell
  pinned by ``BENCH_scale.json``) re-run under the default medium must
  land within 5% of the committed baseline's deterministic metrics
  (event/frame/byte counts; byte-identical behaviour makes them exactly
  equal).  Wall-clock is emitted info-grade only, never gated.
"""

from __future__ import annotations

import json
import pathlib
import time

from conftest import record_bench
from repro.obs.bench import BenchMetric
from repro.tools.scenario import run_scenario

from test_scale import DURATION as SCALE_DURATION
from test_scale import NODES as SCALE_NODES
from test_scale import _run_olsr_grid

import repro.protocols  # noqa: F401

BASELINE_SCALE = (
    pathlib.Path(__file__).parent / "baseline" / "BENCH_scale.json"
)

NODES = 60
SEED = 7
DURATION = 30.0
WARMUP = 10.0
PROFILES = ("802.11b", "802.11g", "802.11p")

#: The fault battery: a Gilbert-Elliott-style loss burst on a central
#: link (mutates LinkProperties.loss, which the PHY folds into its
#: noise floor), a break/restore, a corruption window (composes AFTER
#: the PHY verdict) and a crash/restart — all relative to warm-up.
FAULT_BATTERY = [
    "burst:5:25-26:4",
    "break:8:35-36",
    "restore:14:35-36",
    "corrupt:10:5:0.3",
    "crash:12:30",
    "restart:18:30",
]


def _phy_spec(phy):
    return {
        "protocol": "olsr",
        "topology": "grid:10x6",
        "duration": DURATION,
        "warmup": WARMUP,
        "seed": SEED,
        "phy": phy,
        "traffic": ["1:60", "6:55", "31:30"],
        "fault": list(FAULT_BATTERY),
    }


def _delivery_ratio(result):
    sent = sum(f["sent"] for f in result["flows"])
    delivered = sum(f["delivered"] for f in result["flows"])
    return delivered / sent if sent else 0.0


def test_phy_bench_emit():
    metrics = {}
    ratios = {}

    # -- the profile matrix under the fault battery -------------------------
    for phy in PROFILES:
        key = phy.replace("802.11", "dot11")
        t0 = time.perf_counter()
        result = run_scenario(_phy_spec(phy))
        wall = time.perf_counter() - t0
        ratio = _delivery_ratio(result)
        ratios[phy] = ratio
        collected = result["metrics"]["collected"]
        metrics.update({
            f"phy.{key}.delivery_ratio": BenchMetric(
                value=ratio, unit="", direction="higher"
            ),
            f"phy.{key}.transmissions": BenchMetric(
                value=collected["phy.transmissions"], unit="frames",
                direction="lower",
            ),
            f"phy.{key}.collisions": BenchMetric(
                value=collected["phy.collisions"], unit="frames",
                direction="info",
            ),
            f"phy.{key}.sinr_loss": BenchMetric(
                value=collected["phy.sinr_loss"], unit="frames",
                direction="info",
            ),
            f"phy.{key}.deferrals": BenchMetric(
                value=collected["phy.deferrals"], unit="", direction="info"
            ),
            f"phy.{key}.wall_s": BenchMetric(
                value=wall, unit="s", direction="info"
            ),
        })

    # Seed-determinism: one profile re-run must reproduce everything.
    assert run_scenario(_phy_spec("802.11g")) == run_scenario(
        _phy_spec("802.11g")
    ), "802.11g run is not seed-deterministic"

    # Profiles must be measurably distinct — pairwise, not just jitter.
    values = sorted(ratios.items())
    for (phy_a, a), (phy_b, b) in zip(values, values[1:]):
        assert abs(a - b) > 0.005, (
            f"profiles {phy_a} and {phy_b} are indistinguishable "
            f"({a:.4f} vs {b:.4f})"
        )
    # The calibrated ordering the link-availability literature reports:
    # robust half-clocked 802.11p on top, high-rate OFDM 802.11g at the
    # bottom.
    assert ratios["802.11p"] > ratios["802.11b"] > ratios["802.11g"]

    # -- the ideal fast path vs the committed scale baseline ----------------
    sim, ids, executed, wall = _run_olsr_grid(SCALE_NODES, SCALE_DURATION)
    baseline = json.loads(BASELINE_SCALE.read_text())["metrics"]
    observed = {
        "scale.olsr.sched_events": float(executed),
        "scale.olsr.control_frames": float(sim.stats.total_control_frames),
        "scale.olsr.control_bytes": float(sim.stats.total_control_bytes),
    }
    for name, got in observed.items():
        want = baseline[name]["value"]
        drift = abs(got - want) / want
        assert drift < 0.05, (
            f"ideal fast path regressed: {name} drifted {drift:.2%} "
            f"(baseline {want}, got {got})"
        )
    metrics.update({
        "phy.ideal.sched_events": BenchMetric(
            value=executed, unit="events", direction="lower"
        ),
        "phy.ideal.wall_s": BenchMetric(value=wall, unit="s", direction="info"),
    })

    record_bench(
        "phy",
        metrics,
        meta={
            "nodes": NODES, "seed": SEED, "duration_s": DURATION,
            "warmup_s": WARMUP, "profiles": list(PROFILES),
            "faults": list(FAULT_BATTERY),
            "scale_nodes": SCALE_NODES, "scale_duration_s": SCALE_DURATION,
        },
    )
