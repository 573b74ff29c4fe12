"""Tests: the cost-attribution profiler (:mod:`repro.obs.profile`).

The profiler's value rests on three claims, each pinned here:

* **self-time accounting is exact** — with an injected deterministic
  clock, a parent frame's self time is its total minus its children's
  totals, and the per-phase windows partition into attributed +
  unattributed with nothing lost;
* **counts are deterministic per seed** — two same-seed scenario runs
  produce byte-identical deterministic snapshots;
* **every offline view agrees with the aggregates** — collapsed stacks,
  the top-N table and the Chrome trace are pure functions of the
  snapshot and must conserve its totals.
"""

import pytest

from repro.obs.profile import (
    DEFAULT_PHASE,
    PROFILE_SCHEMA,
    UNATTRIBUTED,
    Profiler,
    attribution,
    chrome_trace,
    collapsed_stacks,
    deterministic_profile,
    frame_name,
    frame_subsystem,
    load_profile,
    pick_weight,
    render_top,
    summary_counts,
    top_frames,
    write_profile,
)


class FakeClock:
    """Deterministic wall clock: advances only when told to."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


@pytest.fixture
def clocked():
    clock = FakeClock()
    return Profiler(wall=clock), clock


class TestFrameAccounting:
    def test_label_helpers(self):
        assert frame_name("unit.process:olsr/TC") == "unit.process"
        assert frame_subsystem("unit.process:olsr/TC") == "unit"
        assert frame_subsystem("sched.dispatch") == "sched"

    def test_self_time_excludes_children(self, clocked):
        profiler, clock = clocked
        profiler.push2("sched.dispatch", "cb")
        clock.advance(1.0)            # parent-only work
        profiler.push2("unit.process", "olsr/TC")
        clock.advance(2.0)            # child work
        profiler.pop()
        clock.advance(0.5)            # parent-only work again
        profiler.pop()
        stats = {
            tuple(entry["stack"]): entry
            for entry in profiler.snapshot()["stacks"]
        }
        parent = stats[("sched.dispatch:cb",)]
        child = stats[("sched.dispatch:cb", "unit.process:olsr/TC")]
        assert child["wall_s"] == pytest.approx(2.0)
        assert parent["wall_s"] == pytest.approx(1.5)  # 3.5 total - 2.0 child
        assert parent["count"] == child["count"] == 1

    def test_repeat_visits_aggregate_online(self, clocked):
        profiler, clock = clocked
        for _ in range(5):
            profiler.push("f")
            clock.advance(0.1)
            profiler.pop()
        snapshot = profiler.snapshot()
        assert len(snapshot["stacks"]) == 1  # bounded by distinct stacks
        assert snapshot["stacks"][0]["count"] == 5
        assert snapshot["stacks"][0]["wall_s"] == pytest.approx(0.5)

    def test_count_lands_under_current_stack(self, clocked):
        profiler, clock = clocked
        profiler.push("unit.process:olsr/TC")
        profiler.count("route_calc.install", "incremental", n=3)
        profiler.pop()
        stats = {
            tuple(entry["stack"]): entry
            for entry in profiler.snapshot()["stacks"]
        }
        counted = stats[
            ("unit.process:olsr/TC", "route_calc.install:incremental")
        ]
        assert counted["count"] == 3
        assert counted["wall_s"] == 0.0

    def test_route_observer_counts_targets(self, clocked):
        profiler, _clock = clocked

        class Event:
            class etype:
                name = "TC_IN"

        profiler.route_observer("mpr", Event(), ["olsr", "system"])
        profiler.route_observer("mpr", Event(), [])
        entry = profiler.snapshot()["stacks"][0]
        assert entry["stack"] == ["fm.route:TC_IN"]
        assert entry["count"] == 3  # 2 targets + the floor of 1

    def test_frame_context_manager_pops_on_error(self, clocked):
        profiler, clock = clocked
        with pytest.raises(RuntimeError):
            with profiler.frame("fault.apply", "partition"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        assert profiler._stack == []
        assert profiler.snapshot()["stacks"][0]["wall_s"] == pytest.approx(1.0)


class TestPhases:
    def test_windows_partition_into_attributed_plus_unattributed(self, clocked):
        profiler, clock = clocked
        profiler.begin_phase("warmup")
        clock.advance(1.0)            # unattributed window time
        profiler.push("f")
        clock.advance(3.0)
        profiler.pop()
        profiler.begin_phase("traffic")   # implicitly closes warmup
        profiler.push("f")
        clock.advance(2.0)
        profiler.pop()
        profiler.end_phase()
        snapshot = profiler.snapshot()
        assert snapshot["phases"]["warmup"]["wall_s"] == pytest.approx(4.0)
        assert snapshot["phases"]["traffic"]["wall_s"] == pytest.approx(2.0)
        attrib = attribution(snapshot)
        assert attrib["total_wall_s"] == pytest.approx(6.0)
        assert attrib["attributed_wall_s"] == pytest.approx(5.0)
        assert attrib["unattributed_wall_s"] == pytest.approx(1.0)
        assert attrib["attributed_fraction"] == pytest.approx(5.0 / 6.0)

    def test_stats_key_on_phase(self, clocked):
        profiler, clock = clocked
        for phase in ("warmup", "traffic"):
            profiler.begin_phase(phase)
            profiler.push("f")
            clock.advance(1.0)
            profiler.pop()
        profiler.end_phase()
        phases = {e["phase"] for e in profiler.snapshot()["stacks"]}
        assert phases == {"warmup", "traffic"}

    def test_attribution_without_windows_falls_back(self, clocked):
        profiler, clock = clocked
        profiler.push("f")
        clock.advance(1.0)
        profiler.pop()
        attrib = attribution(profiler.snapshot())
        assert attrib["total_wall_s"] == pytest.approx(1.0)
        assert attrib["attributed_fraction"] == 1.0


class TestSnapshotAndMerge:
    def _sample(self, wall=1.0):
        clock = FakeClock()
        profiler = Profiler(wall=clock)
        profiler.begin_phase("traffic")
        profiler.push("a")
        clock.advance(wall)
        profiler.pop()
        profiler.end_phase()
        return profiler.snapshot()

    def test_deterministic_snapshot_zeroes_walls_keeps_counts(self, clocked):
        profiler, clock = clocked
        profiler.begin_phase("traffic")
        profiler.push("a")
        clock.advance(1.0)
        profiler.pop()
        profiler.end_phase()
        det = profiler.snapshot(deterministic=True)
        assert det["stacks"][0]["count"] == 1
        assert det["stacks"][0]["wall_s"] == 0.0
        assert det["phases"]["traffic"]["wall_s"] == 0.0
        assert det == deterministic_profile(profiler.snapshot())

    def test_write_load_roundtrip(self, tmp_path):
        snapshot = self._sample()
        path = write_profile(snapshot, tmp_path / "sub" / "prof.json")
        assert load_profile(path) == snapshot
        # Deterministic write zeroes walls on disk.
        det_path = write_profile(
            snapshot, tmp_path / "det.json", deterministic=True
        )
        assert load_profile(det_path) == deterministic_profile(snapshot)

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):
            load_profile(bad)
        bad.write_text('{"schema": 99, "stacks": []}')
        with pytest.raises(ValueError):
            load_profile(bad)

    def test_summary_counts_rolls_up_by_subsystem(self, clocked):
        profiler, clock = clocked
        profiler.push("sched.dispatch:cb")
        profiler.push("unit.process:olsr/TC")
        clock.advance(1.0)
        profiler.pop()
        profiler.pop()
        counts = summary_counts(profiler.snapshot())
        assert counts["events"] == 2
        assert counts["by_subsystem"] == {"sched": 1, "unit": 1}

    def test_clear_drops_aggregates(self, clocked):
        profiler, clock = clocked
        profiler.push("f")
        clock.advance(1.0)
        profiler.pop()
        profiler.clear()
        assert profiler.snapshot()["stacks"] == []


class TestOfflineViews:
    def _snapshot(self):
        clock = FakeClock()
        profiler = Profiler(wall=clock)
        profiler.begin_phase("traffic")
        clock.advance(0.25)  # will be the unattributed remainder
        for _ in range(2):
            profiler.push("sched.dispatch:cb")
            clock.advance(0.5)
            profiler.push("unit.process:olsr/TC")
            clock.advance(1.0)
            profiler.pop()
            profiler.pop()
        profiler.end_phase()
        return profiler.snapshot()

    def test_collapsed_stacks_conserve_wall(self):
        snapshot = self._snapshot()
        lines = collapsed_stacks(snapshot, weight="wall")
        total_us = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        window_us = round(snapshot["phases"]["traffic"]["wall_s"] * 1e6)
        assert total_us == window_us
        assert any(UNATTRIBUTED in line for line in lines)
        assert all(line.startswith("traffic;") for line in lines)

    def test_collapsed_stacks_count_weight(self):
        lines = collapsed_stacks(self._snapshot(), weight="count")
        assert "traffic;sched.dispatch:cb 2" in lines
        assert not any(UNATTRIBUTED in line for line in lines)

    def test_pick_weight_auto(self):
        snapshot = self._snapshot()
        assert pick_weight(snapshot, "auto") == "wall"
        assert pick_weight(deterministic_profile(snapshot), "auto") == "count"
        assert pick_weight(snapshot, "count") == "count"

    def test_top_frames_self_vs_total(self):
        rows = {row["frame"]: row for row in top_frames(self._snapshot())}
        sched = rows["sched.dispatch:cb"]
        unit = rows["unit.process:olsr/TC"]
        assert sched["self"] == pytest.approx(1.0)
        assert sched["total"] == pytest.approx(3.0)
        assert unit["self"] == unit["total"] == pytest.approx(2.0)
        assert sched["count"] == unit["count"] == 2

    def test_render_top_mentions_attribution(self):
        text = render_top(self._snapshot())
        assert "attributed" in text
        assert "sched.dispatch:cb" in text

    def test_chrome_trace_nests_frames(self):
        events = chrome_trace(self._snapshot(), weight="wall")
        names = [e["name"] for e in events if e["ph"] == "X"]
        assert "phase:traffic" in names
        assert "sched.dispatch:cb" in names
        assert "unit.process:olsr/TC" in names
        phase_row = next(e for e in events if e["name"] == "phase:traffic")
        child_row = next(e for e in events if e["name"] == "sched.dispatch:cb")
        assert child_row["dur"] <= phase_row["dur"]

    def test_unlabelled_phase_renders_as_default(self):
        clock = FakeClock()
        profiler = Profiler(wall=clock)
        profiler.push("f")
        clock.advance(1.0)
        profiler.pop()
        lines = collapsed_stacks(profiler.snapshot(), weight="count")
        assert lines == [f"{DEFAULT_PHASE};f 1"]


class TestScenarioDeterminism:
    OPTIONS = {"protocol": "olsr", "topology": "grid:3x3", "duration": 5.0}

    def _run(self, **extra):
        from repro.tools.scenario import run_scenario

        return run_scenario({**self.OPTIONS, **extra})

    def test_counts_identical_across_same_seed_runs(self):
        first = self._run(profile=True)
        second = self._run(profile=True)
        assert first["profile"] == second["profile"]
        assert first["profile"]["events"] > 0
        assert set(first["profile"]["by_subsystem"]) >= {
            "sched", "unit", "medium", "fm", "route_calc",
        }

    def test_profiling_off_result_unchanged(self):
        """``--profile`` only adds data: every shared key stays identical."""
        plain = self._run()
        profiled = self._run(profile=True)
        assert "profile" not in plain
        for key in plain:
            if key == "spec":
                continue  # profile=True is part of the resolved spec
            assert profiled[key] == plain[key], key
        assert {k: v for k, v in profiled["spec"].items() if k != "profile"} \
            == {k: v for k, v in plain["spec"].items() if k != "profile"}


class TestGoldenProfile:
    def test_committed_golden_reproduces_byte_for_byte(self, tmp_path):
        """The committed golden (CI's profview smoke input) regenerates.

        The library path writes deterministic snapshots, so the same
        seeded scenario must reproduce ``tests/golden/profile_seed7.json``
        exactly; a diff here means frame labels, stack shapes or event
        counts changed and the golden needs a deliberate refresh.
        """
        import pathlib

        from repro.tools.scenario import run_scenario

        golden = (
            pathlib.Path(__file__).resolve().parents[1]
            / "golden" / "profile_seed7.json"
        )
        out = tmp_path / "prof.json"
        run_scenario({
            "protocol": "olsr", "topology": "grid:3x3", "duration": 10.0,
            "seed": 7, "profile": True, "profile_out": str(out),
        })
        assert out.read_text() == golden.read_text()

