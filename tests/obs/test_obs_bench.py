"""BENCH emitter and the regression comparator behind repro.tools.bench_check."""

import pytest

from repro.obs.bench import (
    BenchMetric,
    compare_dirs,
    compare_metric,
    failures,
    load_bench,
    metric_from_samples,
    write_bench,
)


class TestEmitter:
    def test_write_load_round_trip(self, tmp_path):
        path = write_bench(
            "unit",
            {
                "a.sim_ms": metric_from_samples([1.0, 2.0, 3.0], unit="ms"),
                "a.frames": BenchMetric(value=42, unit="frames"),
                "a.wall_ms": BenchMetric(value=0.1, unit="ms", direction="info"),
            },
            tmp_path,
            meta={"seeds": [1, 2, 3]},
        )
        assert path.name == "BENCH_unit.json"
        data = load_bench(path)
        assert data["name"] == "unit"
        assert data["meta"] == {"seeds": [1, 2, 3]}
        metric = data["metrics"]["a.sim_ms"]
        assert metric["value"] == 2.0  # gated value is the median
        assert metric["summary"]["count"] == 3
        assert data["metrics"]["a.wall_ms"]["direction"] == "info"

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            BenchMetric(value=1.0, direction="sideways")

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('{"schema": 99, "name": "x", "metrics": {}}')
        with pytest.raises(ValueError):
            load_bench(path)


def _metric(value, direction="lower"):
    return {"value": value, "direction": direction}


class TestCompareMetric:
    def test_within_tolerance_ok(self):
        cmp = compare_metric("b", "m", _metric(100.0), _metric(110.0), 0.25)
        assert cmp.status == "ok"
        assert cmp.change == pytest.approx(0.10)

    def test_lower_direction_regression(self):
        cmp = compare_metric("b", "m", _metric(100.0), _metric(130.0), 0.25)
        assert cmp.status == "regressed"

    def test_lower_direction_improvement(self):
        cmp = compare_metric("b", "m", _metric(100.0), _metric(60.0), 0.25)
        assert cmp.status == "improved"

    def test_higher_direction_flips_sign(self):
        worse = compare_metric(
            "b", "m", _metric(1.0, "higher"), _metric(0.5, "higher"), 0.25
        )
        better = compare_metric(
            "b", "m", _metric(0.5, "higher"), _metric(1.0, "higher"), 0.25
        )
        assert worse.status == "regressed"
        assert better.status == "improved"

    def test_info_never_gated(self):
        cmp = compare_metric(
            "b", "m", _metric(1.0, "info"), _metric(100.0, "info"), 0.25
        )
        assert cmp.status == "info"

    def test_missing_current(self):
        assert compare_metric("b", "m", _metric(1.0), None, 0.25).status == "missing"

    def test_zero_baseline(self):
        assert compare_metric("b", "m", _metric(0), _metric(0), 0.25).status == "ok"
        assert compare_metric("b", "m", _metric(0), _metric(3), 0.25).status == "regressed"


class TestCompareDirs:
    def _dirs(self, tmp_path, baseline, current):
        base_dir = tmp_path / "baseline"
        cur_dir = tmp_path / "results"
        write_bench("smoke", baseline, base_dir)
        if current is not None:
            write_bench("smoke", current, cur_dir)
        else:
            cur_dir.mkdir()
        return base_dir, cur_dir

    def test_pass_and_new_metric(self, tmp_path):
        base_dir, cur_dir = self._dirs(
            tmp_path,
            {"frames": BenchMetric(value=100)},
            {"frames": BenchMetric(value=101), "extra": BenchMetric(value=5)},
        )
        comparisons = compare_dirs(base_dir, cur_dir)
        assert failures(comparisons) == []
        assert {c.status for c in comparisons} == {"ok", "new"}

    def test_regression_fails(self, tmp_path):
        base_dir, cur_dir = self._dirs(
            tmp_path,
            {"frames": BenchMetric(value=100)},
            {"frames": BenchMetric(value=200)},
        )
        bad = failures(compare_dirs(base_dir, cur_dir))
        assert [c.status for c in bad] == ["regressed"]
        assert "frames" in bad[0].describe()

    def test_missing_bench_file_fails(self, tmp_path):
        base_dir, cur_dir = self._dirs(
            tmp_path, {"frames": BenchMetric(value=100)}, None
        )
        bad = failures(compare_dirs(base_dir, cur_dir))
        assert [c.status for c in bad] == ["missing"]

    def test_results_only_bench_file_reported_new(self, tmp_path):
        """A not-yet-baselined BENCH file must surface, not vanish."""
        base_dir, cur_dir = self._dirs(
            tmp_path,
            {"frames": BenchMetric(value=100)},
            {"frames": BenchMetric(value=100)},
        )
        write_bench(
            "ladder",
            {"nodes": BenchMetric(value=500), "wall": BenchMetric(value=1.0)},
            cur_dir,
        )
        comparisons = compare_dirs(base_dir, cur_dir)
        assert failures(comparisons) == []
        fresh = [c for c in comparisons if c.bench == "ladder"]
        assert len(fresh) == 2
        assert all(c.status == "new" and c.baseline is None for c in fresh)


class TestBenchCheckCli:
    def test_update_then_pass(self, tmp_path, capsys):
        from repro.tools.bench_check import main

        results = tmp_path / "results"
        baseline = tmp_path / "baseline"
        write_bench("smoke", {"frames": BenchMetric(value=10)}, results)
        argv = ["--results", str(results), "--baseline", str(baseline)]
        assert main(argv + ["--update"]) == 0
        assert (baseline / "BENCH_smoke.json").exists()
        assert main(argv) == 0
        write_bench("smoke", {"frames": BenchMetric(value=99)}, results)
        assert main(argv) == 1
        capsys.readouterr()

    def test_missing_baseline_is_distinct_error(self, tmp_path, capsys):
        from repro.tools.bench_check import EXIT_NO_BASELINE, main

        results = tmp_path / "results"
        write_bench("smoke", {"frames": BenchMetric(value=10)}, results)
        code = main(
            ["--results", str(results), "--baseline", str(tmp_path / "nope")]
        )
        # Distinct from EXIT_REGRESSION (1): a missing baseline is a setup
        # problem, not a metric regression.
        assert code == EXIT_NO_BASELINE == 3
        assert "BASELINE MISSING" in capsys.readouterr().err

    def _split_dirs(self, tmp_path):
        """Two benches: 'smoke' passes, 'scale' regresses."""
        results = tmp_path / "results"
        baseline = tmp_path / "baseline"
        write_bench("smoke", {"frames": BenchMetric(value=10)}, baseline)
        write_bench("smoke", {"frames": BenchMetric(value=10)}, results)
        write_bench("scale", {"events": BenchMetric(value=100)}, baseline)
        write_bench("scale", {"events": BenchMetric(value=500)}, results)
        return ["--results", str(results), "--baseline", str(baseline)]

    def test_skip_excludes_regressed_bench(self, tmp_path, capsys):
        from repro.tools.bench_check import main

        argv = self._split_dirs(tmp_path)
        assert main(argv) == 1
        assert main(argv + ["--skip", "scale"]) == 0
        capsys.readouterr()

    def test_only_gates_named_bench(self, tmp_path, capsys):
        from repro.tools.bench_check import main

        argv = self._split_dirs(tmp_path)
        assert main(argv + ["--only", "smoke"]) == 0
        assert main(argv + ["--only", "scale"]) == 1
        capsys.readouterr()

    def test_only_matching_nothing_is_an_error(self, tmp_path, capsys):
        from repro.tools.bench_check import main

        argv = self._split_dirs(tmp_path)
        assert main(argv + ["--only", "typo"]) == 2
        assert "matched no baseline bench" in capsys.readouterr().err
