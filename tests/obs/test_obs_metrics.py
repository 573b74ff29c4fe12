"""Metrics registry: percentile math, labelling, collectors, nan-safety."""

import math
import random
import statistics

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry


class TestHistogram:
    def test_percentiles_match_statistics_quantiles(self):
        rng = random.Random(99)
        samples = [rng.expovariate(1.0) for _ in range(257)]
        hist = Histogram()
        for sample in samples:
            hist.observe(sample)
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        for i, expected in enumerate(cuts, start=1):
            assert hist.percentile(i / 100) == pytest.approx(expected)

    def test_extremes_and_single_sample(self):
        hist = Histogram()
        hist.observe(5.0)
        assert hist.percentile(0.0) == 5.0
        assert hist.percentile(1.0) == 5.0
        hist.observe(1.0)
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(1.0) == 5.0
        assert hist.percentile(0.5) == 3.0

    def test_empty_summary_is_nan_not_raise(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        for key in ("mean", "min", "max", "median", "p95", "p99"):
            assert math.isnan(summary[key]), key

    def test_summary_basic(self):
        hist = Histogram()
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["sum"] == 6.0
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["median"] == 2.0

    def test_single_sample_summary_is_that_sample_everywhere(self):
        """One sample: every percentile IS the sample, bit-for-bit."""
        hist = Histogram()
        hist.observe(0.1)
        summary = hist.summary()
        for key in ("mean", "min", "max", "median", "p95", "p99"):
            assert summary[key] == 0.1, key
        for fraction in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert hist.percentile(fraction) == 0.1

    def test_all_equal_samples_have_no_fp_drift(self):
        """All-equal samples: percentiles return the value *exactly*.

        The naive ``a*(1-w) + b*w`` blend drifts in binary floating
        point even when ``a == b`` (``0.1*(1-0.3) + 0.1*0.3`` is
        ``0.10000000000000002``); the contract short-circuits that case.
        """
        hist = Histogram()
        for _ in range(7):
            hist.observe(0.1)
        for fraction in (0.05, 0.3, 0.5, 0.95, 0.99):
            assert hist.percentile(fraction) == 0.1, fraction
        summary = hist.summary()
        assert summary["median"] == summary["p95"] == summary["p99"] == 0.1

    def test_exact_rank_returns_sample_exactly(self):
        """Integer-position ranks return the sample, no interpolation."""
        hist = Histogram()
        for value in (0.1, 0.2, 0.3):
            hist.observe(value)
        assert hist.percentile(0.5) == 0.2  # rank 1.0, exactly on a sample
        assert hist.percentile(0.0) == 0.1
        assert hist.percentile(1.0) == 0.3

    def test_empty_percentile_is_nan(self):
        assert math.isnan(Histogram().percentile(0.5))

    def test_summary_and_percentile_agree(self):
        rng = random.Random(7)
        hist = Histogram()
        for _ in range(101):
            hist.observe(rng.uniform(0.0, 1.0))
        summary = hist.summary()
        assert summary["median"] == hist.percentile(0.5)
        assert summary["p95"] == hist.percentile(0.95)
        assert summary["p99"] == hist.percentile(0.99)


class TestRegistry:
    def test_memoised_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("wire.in", node=1, msg_type="TC")
        b = reg.counter("wire.in", msg_type="TC", node=1)  # order-insensitive
        c = reg.counter("wire.in", node=2, msg_type="TC")
        assert a is b and a is not c
        a.inc(3)
        assert reg.counters("wire.in") == {
            "wire.in{msg_type=TC,node=1}": 3,
            "wire.in{msg_type=TC,node=2}": 0,
        }

    def test_counter_values_by_label(self):
        reg = MetricsRegistry()
        reg.counter("frames", node=1).inc(10)
        reg.counter("frames", node=2).inc(20)
        assert reg.counter_values("frames", "node") == {"1": 10, "2": 20}

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(4.0)
        reg.gauge("depth").add(1.0)
        reg.histogram("lat").observe(0.5)
        snap = reg.snapshot()
        assert snap["gauges"]["depth"] == 5.0
        assert snap["histograms"]["lat"]["count"] == 1

    def test_collectors_merge_into_snapshot(self):
        reg = MetricsRegistry()
        reg.register_collector(lambda: {"net.frames": 7.0})
        reg.register_collector(lambda: {"net.bytes": 900.0})
        assert reg.snapshot()["collected"] == {"net.bytes": 900.0, "net.frames": 7.0}

    def test_deterministic_snapshot_drops_wall_clock_histograms(self):
        """``deterministic=True`` filters every WALL_CLOCK_METRICS family.

        ``unit.process_seconds`` measures host wall time, so it must not
        appear in deterministic snapshots (golden replays) — while
        simulated-time histograms always survive.
        """
        from repro.obs.metrics import WALL_CLOCK_METRICS

        reg = MetricsRegistry()
        for name in WALL_CLOCK_METRICS:
            reg.histogram(name, unit="system").observe(0.001)
        reg.histogram("data.latency_seconds").observe(0.025)
        full = reg.snapshot()["histograms"]
        det = reg.snapshot(deterministic=True)["histograms"]
        assert any(name.startswith("unit.process_seconds") for name in full)
        assert not any(
            name.split("{", 1)[0] in WALL_CLOCK_METRICS for name in det
        )
        assert "data.latency_seconds" in det

    def test_deterministic_snapshot_keeps_other_sections(self):
        reg = MetricsRegistry()
        reg.counter("frames").inc(3)
        reg.gauge("depth").set(1.0)
        snap = reg.snapshot(deterministic=True)
        assert snap["counters"] == {"frames": 3}
        assert snap["gauges"] == {"depth": 1.0}


class TestNetworkStatsAbsorption:
    def test_stats_publish_through_registry(self):
        from repro.sim.kernel_table import DataPacket
        from repro.sim.stats import NetworkStats

        reg = MetricsRegistry()
        stats = NetworkStats(registry=reg)
        stats.note_data_sent(1)
        stats.note_data_sent(1)
        stats.note_data_delivered(DataPacket(1, 2), 0.025)
        collected = reg.snapshot()["collected"]
        assert collected["net.data_sent"] == 2
        assert collected["net.data_delivered"] == 1
        assert collected["net.delivery_ratio"] == pytest.approx(0.5)
        # Latencies live in a registry histogram behind the old attribute.
        assert stats.latencies == [0.025]
        assert reg.snapshot()["histograms"]["data.latency_seconds"]["count"] == 1
