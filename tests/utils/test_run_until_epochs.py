"""Slicing and truncation semantics of ``run_until``.

The repo benchmark advances each workload in consecutive 0.125 sim-s
``Simulation.run_until`` slices and times every slice, so the slice
cuts must be invisible: an event stamped exactly on a slice deadline
runs in the slice that ends there (including deadlines on timer-wheel
slot edges), and a sliced run executes the same sequence, installs the
same routes and records the same trace as one unsliced call.

Also pins the ``max_events`` truncation contract: a tripped budget must
NOT advance the clock past the stranded events (the old behaviour
jumped to the deadline, and any later ``step`` raised ``cannot move
clock backwards``), and ``Simulation.truncated`` is sticky.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ManetKit
from repro.sim import topology
from repro.sim.network import Simulation
from repro.utils.scheduler import WHEEL_GRANULARITY, Scheduler

import repro.protocols  # noqa: F401

#: The benchmark harness's slice length (``benchmarks/e2e/workloads.py``).
SLICE = 0.125


def _schedule(scheduler, times, fired):
    for index, when in enumerate(times):
        scheduler.call_at(when, fired.append, (round(when, 9), index))


def _run_sliced(times, barriers, final):
    scheduler = Scheduler()
    fired = []
    _schedule(scheduler, times, fired)
    for end in barriers:
        scheduler.run_until(end)
        assert scheduler.now == end
    scheduler.run_until(final)
    return fired, scheduler.now


def _run_whole(times, final):
    return _run_sliced(times, [], final)


class TestEpochBoundaries:
    def test_event_exactly_at_inclusive_deadline_fires(self):
        scheduler = Scheduler()
        fired = []
        scheduler.call_at(1.0, fired.append, "edge")
        assert scheduler.run_until(1.0) == 1
        assert fired == ["edge"]
        assert scheduler.now == 1.0

    def test_simulation_event_exactly_at_deadline_fires(self):
        sim = Simulation()
        fired = []
        sim.scheduler.call_at(SLICE, fired.append, "edge")
        assert sim.run_until(SLICE) == 1
        assert fired == ["edge"]
        assert sim.now == SLICE

    def test_barrier_on_wheel_slot_edge(self):
        # Events on exact wheel-slot edges (multiples of the wheel
        # granularity) route through the timer wheel; the deadline must
        # treat them exactly like heap events.
        edge = WHEEL_GRANULARITY * 4
        times = [edge - 0.001, edge, edge + 0.001]
        assert _run_sliced(times, [edge], edge + 1.0) == _run_whole(times, edge + 1.0)

    def test_slicing_preserves_execution_order(self):
        times = [0.1, 0.25, 0.25, 0.3, 0.55, 0.7, 1.0, 1.0, 1.3]
        barriers = [0.25, 0.3, 1.0]
        assert _run_sliced(times, barriers, 1.5) == _run_whole(times, 1.5)

    @given(
        raw_times=st.lists(st.integers(0, 200), max_size=30),
        raw_barriers=st.lists(st.integers(1, 200), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_epoch_slicing_is_invisible(self, raw_times, raw_barriers):
        # The 0.013 quantum spreads events over both scheduler backends
        # (delays under one wheel bucket stay on the heap) and makes
        # exact time == deadline collisions common.
        times = [t * 0.013 for t in raw_times]
        barriers = sorted({b * 0.013 for b in raw_barriers})
        final = barriers[-1]
        assert _run_sliced(times, barriers[:-1], final) == _run_whole(times, final)

    @staticmethod
    def _olsr_grid(slice_s):
        """OLSR + CBR on a 3x3 grid to 6 sim-s, traced; what it produced."""
        sim = Simulation(seed=3)
        sim.add_nodes(9)
        ids = sim.node_ids()
        sim.topology.apply(topology.grid(3, 3, first_id=ids[0]))
        recorder = sim.enable_tracing()
        for nid in ids:
            kit = ManetKit(sim.node(nid))
            kit.load_protocol("mpr", hello_interval=0.5)
            kit.load_protocol("olsr", tc_interval=1.0)
        sim.start_cbr(ids[0], ids[-1], interval=0.1, start_delay=3.0)
        end = 6.0
        if slice_s is None:
            sim.run_until(end, max_events=None)
        else:
            for index in range(round(end / slice_s)):
                sim.run_until((index + 1) * slice_s, max_events=None)
        trace = [
            (e.kind, e.name, e.t_sim, e.span, e.parent, sorted(e.attrs.items()))
            for e in recorder.events
        ]
        routes = {
            nid: sorted(
                (r.destination, r.next_hop, r.metric)
                for r in sim.node(nid).kernel_table.routes()
            )
            for nid in ids
        }
        medium = sim.medium
        counts = (
            sim.scheduler.executed_count, medium.frames_sent,
            medium.frames_delivered, medium.frames_lost,
        )
        return sim.now, counts, routes, trace, sim.flows[0].sent

    def test_benchmark_slices_match_one_run(self):
        whole = self._olsr_grid(None)
        sliced = self._olsr_grid(SLICE)
        now, counts, routes, trace, sent = whole
        assert now == 6.0 and sent > 0 and all(routes.values())
        assert sliced == whole


class TestTruncation:
    def test_scheduler_truncation_leaves_clock_on_stranded_events(self):
        scheduler = Scheduler()
        fired = []
        _schedule(scheduler, [0.1, 0.2, 0.3, 0.4, 0.5], fired)
        executed = scheduler.run_until(1.0, max_events=3)
        assert executed == 3
        assert scheduler.now == pytest.approx(0.3)
        # The stranded events are still runnable: no clock-backwards error.
        assert scheduler.run_until(1.0) == 2
        assert scheduler.now == 1.0
        assert len(fired) == 5

    def test_simulation_truncation_leaves_clock_on_stranded_events(self):
        sim = Simulation()
        fired = []
        for when in (0.1, 0.2, 0.3):
            sim.scheduler.call_at(when, fired.append, when)
        assert sim.run_until(1.0, max_events=1) == 1
        assert sim.now == pytest.approx(0.1)
        assert sim.scheduler.next_event_time() == pytest.approx(0.2)
        assert fired == [0.1]

    def test_simulation_truncated_flag_is_sticky(self):
        sim = Simulation()
        fired = []
        for when in (0.1, 0.2, 0.3, 0.4):
            sim.scheduler.call_at(when, fired.append, when)
        executed = sim.run(1.0, max_events=2)
        assert executed == 2
        assert sim.truncated is True
        assert sim.now == pytest.approx(0.2)
        # Resuming works and completes, but the flag stays up.
        sim.run_until(1.0)
        assert len(fired) == 4
        assert sim.now == 1.0
        assert sim.truncated is True
        sim.run_until(2.0)
        assert sim.truncated is True

    def test_untruncated_run_keeps_flag_down(self):
        sim = Simulation()
        sim.scheduler.call_at(0.5, lambda: None)
        sim.run(1.0)
        assert sim.truncated is False
        assert sim.now == 1.0
