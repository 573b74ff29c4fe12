"""``repro.obs`` — the cross-cutting observability subsystem.

The paper's entire evaluation (Tables 1-3: message-processing time,
route-establishment delay, footprint) is an observability exercise; this
package is the structured substrate for it:

* :mod:`repro.obs.metrics` — a metrics registry: counters, gauges and
  histograms with percentile summaries, labelled per node / per protocol /
  per message type;
* :mod:`repro.obs.trace` — a low-overhead structured trace recorder: a
  span/event API stamped with both simulated time and wall-clock time,
  hooked into the event scheduler, the wireless medium, the kernel-table
  hook points, protocol message dispatch and the reconfiguration machinery;
* :mod:`repro.obs.export` — exporters: JSONL trace dump and a human
  pretty-printer (wired into ``repro.tools.scenario --trace``);
* :mod:`repro.obs.causal` — offline causal analysis: rebuilds the
  provenance DAG from a recorded trace (every transmission carries a
  ``prov`` id, every reaction a ``cause`` link), extracts critical paths
  for route establishment, answers why/why-not route queries and exports
  Chrome trace-event JSON (see ``repro.tools.traceview``);
* :mod:`repro.obs.bench` — the ``BENCH_<name>.json`` emitter that turns
  benchmark runs into machine-readable results (median/p95/p99, bytes,
  frames) which ``repro.tools.bench_check`` gates in CI;
* :mod:`repro.obs.summary` — cross-run merging: reduces many scenario
  result dicts into one percentile summary (the campaign runner's merged
  report);
* :mod:`repro.obs.merge` — cross-shard merging: interleaves per-shard
  traces (disjoint span/prov id bands keep causal links intact) and sums
  per-shard metrics snapshots, so ``traceview``, ``CausalGraph`` and the
  BENCH exporters work unchanged on sharded runs
  (:mod:`repro.sim.sharded`);
* :mod:`repro.obs.probe` — the probe seam: the one handle
  (:attr:`Observability.probe`) through which every instrumented site
  reaches the recorder and the profiler.

Tracing and profiling are **off by default** and cost one ``probe is
None`` check per instrumented site when disabled; enable them per
simulation with :meth:`repro.sim.Simulation.enable_tracing` /
:meth:`~repro.sim.Simulation.enable_profiling`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.merge import merge_metrics_snapshots, merge_profiles, merge_trace_events
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.probe import Probe
from repro.obs.profile import Profiler
from repro.obs.summary import summarize_runs
from repro.obs.trace import TraceEvent, TraceRecorder


class Observability:
    """One deployment's observability context: registry, tracer, profiler.

    Instrumented sites read :attr:`probe` and nothing else: it is
    ``None`` until :meth:`enable_tracing` / :meth:`enable_profiling` is
    called, so hot paths pay only an attribute load and a ``None`` check
    when both are disabled.  ``tracer`` and ``profiler`` hold what was
    captured, for export and reporting.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self.registry = MetricsRegistry()
        self.tracer: Optional[TraceRecorder] = None
        self.profiler: Optional[Profiler] = None
        self.probe: Optional[Probe] = None

    def _refresh_probe(self) -> None:
        tracer = self.tracer if self.tracing else None
        if tracer is None and self.profiler is None:
            self.probe = None
        else:
            self.probe = Probe(tracer, self.profiler)

    # -- tracing lifecycle --------------------------------------------------

    def enable_tracing(self, capacity: int = 200_000) -> TraceRecorder:
        """Install (or re-enable) the trace recorder and return it."""
        if self.tracer is None:
            self.tracer = TraceRecorder(self.clock, capacity=capacity)
        self.tracer.enabled = True
        self._refresh_probe()
        return self.tracer

    def disable_tracing(self) -> None:
        """Stop recording; already-captured events are kept."""
        if self.tracer is not None:
            self.tracer.enabled = False
            self._refresh_probe()

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.enabled

    # -- profiling lifecycle ------------------------------------------------

    def enable_profiling(self) -> Profiler:
        """Install (or return) the cost-attribution profiler."""
        if self.profiler is None:
            self.profiler = Profiler()
            self._refresh_probe()
        return self.profiler

    def disable_profiling(self) -> None:
        """Detach the profiler; captured aggregates stay on the instance."""
        self.profiler = None
        self._refresh_probe()

    @property
    def profiling(self) -> bool:
        return self.profiler is not None

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Serializable view of every metric plus trace bookkeeping."""
        out = {"metrics": self.registry.snapshot()}
        if self.tracer is not None:
            out["trace"] = {
                "events": len(self.tracer.events),
                "dropped": self.tracer.dropped,
                "enabled": self.tracer.enabled,
            }
        if self.profiler is not None:
            out["profile"] = {
                "stacks": len(self.profiler.stats),
                "events": sum(stat[0] for stat in self.profiler.stats.values()),
            }
        return out


__all__ = [
    "Observability",
    "Probe",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Profiler",
    "TraceRecorder",
    "TraceEvent",
    "merge_metrics_snapshots",
    "merge_profiles",
    "merge_trace_events",
    "summarize_runs",
]
