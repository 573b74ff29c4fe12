"""Trace recorder: span nesting, gating, capacity, determinism."""

import pytest

import repro.protocols  # noqa: F401  (registers protocol builders)
from repro.core import ManetKit
from repro.obs.trace import TraceRecorder, callback_name
from repro.sim import Simulation, topology


def make_recorder(**kwargs):
    """Recorder on deterministic clocks: sim ticks 0,1,2..., wall 10x."""
    ticks = iter(range(10_000))
    walls = iter(range(0, 100_000, 10))
    return TraceRecorder(
        clock=lambda: float(next(ticks)),
        wall=lambda: float(next(walls)),
        **kwargs,
    )


class TestSpans:
    def test_plain_event_top_level(self):
        rec = make_recorder()
        rec.event("hello", x=1)
        (event,) = rec.events
        assert event.kind == "event"
        assert event.name == "hello"
        assert event.span == 0 and event.parent == 0
        assert event.attrs == {"x": 1}

    def test_span_produces_begin_end_pair(self):
        rec = make_recorder()
        with rec.span("outer"):
            pass
        begin, end = rec.events
        assert (begin.kind, end.kind) == ("begin", "end")
        assert begin.span == end.span == 1
        assert end.dt_sim > 0  # the fake sim clock advanced between edges
        assert end.dt_wall > 0

    def test_nesting_sets_parent_chain(self):
        rec = make_recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                rec.event("leaf")
        by_name = {e.name: e for e in rec.events if e.kind != "end"}
        outer, inner, leaf = by_name["outer"], by_name["inner"], by_name["leaf"]
        assert outer.parent == 0
        assert inner.parent == outer.span
        assert leaf.parent == inner.span
        # After unwinding, a new top-level event has no parent again.
        rec.event("after")
        assert rec.events[-1].parent == 0

    def test_disabled_recorder_is_silent(self):
        rec = make_recorder()
        rec.enabled = False
        rec.event("x")
        with rec.span("y"):
            rec.event("z")
        assert len(rec) == 0

    def test_capacity_drops_and_counts(self):
        rec = make_recorder(capacity=3)
        for _ in range(5):
            rec.event("e")
        assert len(rec) == 3
        assert rec.dropped == 2

    def test_filter_and_counts(self):
        rec = make_recorder()
        rec.event("a")
        rec.event("a")
        with rec.span("s"):
            pass
        assert rec.counts_by_name() == {"a": 2, "s": 2}
        assert len(rec.filter(name="a")) == 2
        assert len(rec.filter(kind="begin")) == 1
        assert len(rec.span_durations("s")) == 1


class TestCallbackName:
    def test_function(self):
        def probe():
            pass

        assert "probe" in callback_name(probe)

    def test_bound_method(self):
        assert "counts_by_name" in callback_name(make_recorder().counts_by_name)

    def test_callable_object_falls_back_to_type(self):
        class Widget:
            __qualname__ = ""  # force the fallback path

            def __call__(self):
                pass

        name = callback_name(Widget())
        assert name == "Widget"


def _dymo_chain(seed=4):
    sim = Simulation(seed=seed)
    sim.add_nodes(3)
    ids = sim.node_ids()
    sim.topology.apply(topology.linear_chain(ids))
    for node_id in ids:
        ManetKit(sim.node(node_id)).load_protocol("dymo")
    return sim, ids


def _traced_dymo_run(seed):
    """A small seeded DYMO run with tracing on; returns the recorder."""
    sim, ids = _dymo_chain(seed)
    tracer = sim.enable_tracing()
    sim.run(1.0)
    sim.node(ids[0]).send_data(ids[-1], b"probe")
    sim.run(2.0)
    return tracer


class TestDeterminism:
    def test_identical_seeds_identical_signatures(self):
        first = _traced_dymo_run(seed=7)
        second = _traced_dymo_run(seed=7)
        assert len(first) > 0
        assert first.signature() == second.signature()

    def test_signature_ignores_wall_clock(self):
        rec = make_recorder()
        with rec.span("s"):
            rec.event("e")
        before = rec.signature()
        for event in rec.events:
            event.t_wall += 123.0
            event.dt_wall += 9.0
        assert rec.signature() == before


#: One record per instrumented layer: scheduler, medium, node, CF unit.
TRACED_SITES = {"sched.dispatch", "medium.broadcast", "node.data_send", "unit.process"}
PROFILED_SITES = {"sched.dispatch", "medium.deliver", "unit.process"}


class TestProbeSeam:
    """Every instrumented site reads the one ``Observability.probe``."""

    def test_direct_disable_silences_every_site(self):
        # Regression: ``sim.obs.disable_profiling()`` (not the Simulation
        # wrapper) used to leave the scheduler's own profiler handle
        # armed, so ``sched.dispatch`` frames kept accumulating.
        sim, ids = _dymo_chain()
        profiler = sim.enable_profiling()
        tracer = sim.enable_tracing()
        sim.run(1.0)
        assert profiler.stats and len(tracer)
        sim.obs.disable_profiling()
        sim.obs.disable_tracing()
        frames = {key: list(stat) for key, stat in profiler.stats.items()}
        records = len(tracer)
        sim.node(ids[0]).send_data(ids[-1], b"probe")
        sim.run(2.0)
        assert profiler.stats == frames
        assert len(tracer) == records

    @pytest.mark.parametrize("order", [
        "T+ P+ T- P- P+ T+",
        "P+ P- T+ T- T+ P+ T-",
        "T+ T- P+ T+ P-",
    ])
    def test_sites_agree_whatever_the_toggle_order(self, order):
        sim, ids = _dymo_chain()
        obs = sim.obs
        toggles = {
            "T+": obs.enable_tracing, "T-": obs.disable_tracing,
            "P+": obs.enable_profiling, "P-": obs.disable_profiling,
        }
        for step in order.split():
            toggles[step]()
            assert (obs.probe is None) == (not obs.tracing and not obs.profiling)
            tracer, profiler = obs.tracer, obs.profiler
            records = len(tracer) if tracer is not None else 0
            if profiler is not None:
                profiler.clear()
            sim.node(ids[0]).send_data(ids[-1], b"probe")
            sim.run(1.0)
            traced = {event.name for event in tracer.events[records:]} if tracer else set()
            assert traced & TRACED_SITES == (TRACED_SITES if obs.tracing else set())
            if obs.profiling:
                framed = {
                    label.split(":", 1)[0]
                    for _phase, stack in profiler.stats for label in stack
                }
                assert PROFILED_SITES <= framed
