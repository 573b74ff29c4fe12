"""Tests: the profview CLI — exit codes and exports.

Like traceview, the exit codes are the interface CI consumes: 0 ok,
1 empty profile, 2 usage/unreadable file.
"""

import json

import pytest

from repro.obs.profile import Profiler, write_profile
from repro.tools.profview import main


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def sample_profile(wall: float = 1.0) -> dict:
    clock = FakeClock()
    profiler = Profiler(wall=clock)
    profiler.begin_phase("traffic")
    profiler.push("sched.dispatch:cb")
    clock.advance(wall / 2)
    profiler.push("unit.process:olsr/TC")
    clock.advance(wall / 2)
    profiler.pop()
    profiler.pop()
    profiler.end_phase()
    return profiler.snapshot()


@pytest.fixture
def profile_file(tmp_path):
    return write_profile(sample_profile(), tmp_path / "prof.json")


class TestExitCodes:
    def test_default_action_prints_top(self, profile_file, capsys):
        assert main([str(profile_file)]) == 0
        out = capsys.readouterr().out
        assert "unit.process:olsr/TC" in out
        assert "attributed" in out

    def test_unreadable_file_is_usage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main([str(bad)]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_missing_file_is_usage(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_empty_profile_is_exit_1(self, tmp_path, capsys):
        empty = write_profile(
            {"schema": 1, "phases": {}, "stacks": []}, tmp_path / "empty.json"
        )
        assert main([str(empty)]) == 1
        assert "no frames" in capsys.readouterr().err


class TestExports:
    def test_flame_export(self, profile_file, tmp_path, capsys):
        out = tmp_path / "prof.folded"
        assert main([str(profile_file), "--flame", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert all(" " in line for line in lines)
        assert any("traffic;sched.dispatch:cb" in line for line in lines)
        capsys.readouterr()

    def test_chrome_export(self, profile_file, tmp_path, capsys):
        out = tmp_path / "prof.chrome.json"
        assert main([str(profile_file), "--chrome", str(out)]) == 0
        data = json.loads(out.read_text())
        names = [e["name"] for e in data["traceEvents"]]
        assert "phase:traffic" in names
        capsys.readouterr()

    def test_json_export_roundtrips(self, profile_file, tmp_path, capsys):
        out = tmp_path / "copy.json"
        assert main([str(profile_file), "--json", str(out)]) == 0
        assert json.loads(out.read_text()) == json.loads(
            profile_file.read_text()
        )
        capsys.readouterr()

    def test_top_and_flame_compose(self, profile_file, tmp_path, capsys):
        out = tmp_path / "prof.folded"
        assert main(
            [str(profile_file), "--top", "5", "--flame", str(out)]
        ) == 0
        assert out.exists()
        assert "attributed" in capsys.readouterr().out


class TestWeights:
    def test_count_weight_on_deterministic_profile(self, tmp_path, capsys):
        """A zero-wall (golden) profile auto-falls back to count weight."""
        det = write_profile(
            sample_profile(), tmp_path / "det.json", deterministic=True
        )
        assert main([str(det)]) == 0
        out = capsys.readouterr().out
        assert "self ev" in out          # count-weighted header
        assert "deterministic snapshot" in out

    def test_explicit_wall_weight(self, profile_file, capsys):
        assert main([str(profile_file), "--weight", "wall"]) == 0
        assert "self ms" in capsys.readouterr().out

