"""Shared machinery for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artefacts
(Tables 1-3, Fig 7) or an ablation of a design choice the paper calls out.
Results are printed in paper-style tables AND written to
``benchmarks/results/*.txt`` so they survive pytest's output capture.

Experimental configuration mirrors section 6: a 5-node 802.11-style chain,
single-threaded concurrency, identical protocol parameters for the
MANETKit and monolithic implementations.  The route-establishment
experiments use HELLO=0.5 s / TC=1 s — with RFC-default intervals the
paper's ~1 s OLSR result is unreachable on any implementation, so its
testbed evidently ran accelerated timers (EXPERIMENTS.md discusses this).
"""

from __future__ import annotations

import pathlib
from typing import Dict, Optional, Union

import pytest

from repro.core import ManetKit
from repro.monolithic import DymoumDaemon, OlsrdDaemon
from repro.obs.bench import BenchMetric, metric_from_samples, write_bench
from repro.sim import Simulation, topology

import repro.protocols  # noqa: F401

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Accelerated timers used for the route-establishment experiments.
HELLO_INTERVAL = 0.5
TC_INTERVAL = 1.0


def record(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def record_bench(
    name: str,
    metrics: Dict[str, Union[BenchMetric, float, int]],
    meta: Optional[Dict[str, object]] = None,
) -> pathlib.Path:
    """Persist machine-readable results as ``results/BENCH_<name>.json``.

    The emitted file is what CI uploads as an artifact and what
    ``repro.tools.bench_check`` gates against ``benchmarks/baseline/``.
    """
    path = write_bench(name, metrics, RESULTS_DIR, meta=meta)
    print(f"\n[bench] wrote {path}")
    return path


# ---------------------------------------------------------------------------
# pytest-benchmark bridge: every micro benchmark in the session is exported
# as an info-grade (machine-dependent, never gated) BENCH metric.
# ---------------------------------------------------------------------------

def pytest_sessionfinish(session, exitstatus):
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not getattr(bench_session, "benchmarks", None):
        return
    metrics: Dict[str, BenchMetric] = {}
    for bench in bench_session.benchmarks:
        stats = getattr(bench, "stats", None)
        data = list(getattr(stats, "data", []) or [])
        if not data:
            continue
        key = bench.name.replace("test_", "", 1)
        metrics[f"micro.{key}.wall_s"] = metric_from_samples(
            data, unit="s", direction="info"
        )
    if metrics:
        write_bench("micro", metrics, RESULTS_DIR)


# ---------------------------------------------------------------------------
# Deployment builders (one topology convention: the paper's 5-node chain)
# ---------------------------------------------------------------------------

def build_mkit_olsr_chain(node_count=5, seed=0, fast=True):
    sim = Simulation(seed=seed)
    sim.add_nodes(node_count)
    ids = sim.node_ids()
    sim.topology.apply(topology.linear_chain(ids))
    kits = {}
    for node_id in ids:
        kit = ManetKit(sim.node(node_id))
        if fast:
            kit.load_protocol("mpr", hello_interval=HELLO_INTERVAL)
            kit.load_protocol("olsr", tc_interval=TC_INTERVAL)
        else:
            kit.load_protocol("olsr")
        kits[node_id] = kit
    return sim, ids, kits


def build_mkit_dymo_chain(node_count=5, seed=0):
    sim = Simulation(seed=seed)
    sim.add_nodes(node_count)
    ids = sim.node_ids()
    sim.topology.apply(topology.linear_chain(ids))
    kits = {}
    for node_id in ids:
        kit = ManetKit(sim.node(node_id))
        kit.load_protocol("dymo")
        kits[node_id] = kit
    return sim, ids, kits


def build_olsrd_chain(node_count=5, seed=0):
    sim = Simulation(seed=seed)
    sim.add_nodes(node_count)
    ids = sim.node_ids()
    sim.topology.apply(topology.linear_chain(ids))
    daemons = {}
    for node_id in ids:
        daemon = OlsrdDaemon(
            sim.node(node_id),
            hello_interval=HELLO_INTERVAL,
            tc_interval=TC_INTERVAL,
        )
        daemon.start()
        daemons[node_id] = daemon
    return sim, ids, daemons


def build_dymoum_chain(node_count=5, seed=0):
    sim = Simulation(seed=seed)
    sim.add_nodes(node_count)
    ids = sim.node_ids()
    sim.topology.apply(topology.linear_chain(ids))
    daemons = {}
    for node_id in ids:
        daemon = DymoumDaemon(sim.node(node_id))
        daemon.start()
        daemons[node_id] = daemon
    return sim, ids, daemons
