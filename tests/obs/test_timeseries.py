"""Time-series recorder: ring buffers, compaction, probes, artifacts."""

import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    CounterRateProbe,
    DeltaRatioProbe,
    GaugeProbe,
    HistogramWindowProbe,
    SeriesBucket,
    TimeSeries,
    TimeSeriesConfig,
    TimeSeriesRecorder,
    load_timeline,
    render_sparkline,
    write_timeline_json,
)


class TestTimeSeries:
    def test_append_and_values(self):
        series = TimeSeries("lag", capacity=8)
        for i in range(4):
            series.append(float(i), float(i) * 2)
        assert series.total_samples == 4
        assert [v for _, v in series.values("mean")] == [0.0, 2.0, 4.0, 6.0]
        assert series.latest("last") == 6.0

    def test_capacity_is_never_exceeded(self):
        series = TimeSeries("lag", capacity=4)
        for i in range(1000):
            series.append(float(i), float(i))
        assert len(series) <= 4
        assert series.total_samples == 1000

    def test_compaction_preserves_aggregates(self):
        series = TimeSeries("lag", capacity=4, reservoir=64)
        values = [float(i % 17) for i in range(256)]
        for i, v in enumerate(values):
            series.append(float(i), v)
        whole = series.window(-math.inf, math.inf)
        assert whole.count == 256
        assert whole.min == min(values)
        assert whole.max == max(values)
        assert whole.sum == pytest.approx(sum(values))
        assert series.compactions > 0

    def test_compaction_covers_whole_run(self):
        # Buckets must span the full time range after many compactions —
        # the timeline loses resolution, never coverage.
        series = TimeSeries("lag", capacity=4)
        for i in range(100):
            series.append(float(i), 1.0)
        assert series.buckets[0].t_start == 0.0
        assert series.buckets[-1].t_end == 99.0

    def test_percentiles_from_reservoir(self):
        series = TimeSeries("lag", capacity=8, reservoir=128)
        for i in range(100):
            series.append(float(i), float(i))
        whole = series.window(-math.inf, math.inf)
        assert whole.stat("p50") == pytest.approx(49.5, abs=6.0)
        assert whole.stat("p95") == pytest.approx(94.0, abs=6.0)

    def test_window_selects_overlapping_buckets(self):
        series = TimeSeries("lag", capacity=16)
        for i in range(8):
            series.append(float(i), float(i))
        window = series.window(5.0, 7.0)
        assert window.count == 3
        assert window.min == 5.0 and window.max == 7.0

    def test_round_trip_dict(self):
        series = TimeSeries("lag", capacity=8, unit="s")
        for i in range(20):
            series.append(float(i), float(i))
        restored = TimeSeries.from_dict(series.to_dict())
        assert restored.name == "lag" and restored.unit == "s"
        assert restored.total_samples == 20
        assert restored.values("mean") == series.values("mean")

    def test_bucket_copy_equals_the_dict_round_trip(self):
        empty = SeriesBucket(1.0, 2.0)
        full = SeriesBucket(0.0, 0.0)
        for i, value in enumerate((3.0, -1.5, 7.25, 0.0)):
            full.add(float(i), value, reservoir=3)
        for bucket in (empty, full):
            clone = bucket.copy()
            oracle = SeriesBucket.from_dict(bucket.as_dict())
            for slot in SeriesBucket.__slots__:
                assert getattr(clone, slot) == getattr(oracle, slot), slot
                assert type(getattr(clone, slot)) is type(getattr(oracle, slot)), slot
            assert clone.samples is not bucket.samples
        # an empty bucket keeps the +/-inf sentinels, not as_dict's 0.0
        assert empty.copy().min == math.inf and empty.copy().max == -math.inf

    def test_merge_does_not_alias_the_other_series(self):
        mine = TimeSeries("lag", capacity=8, reservoir=4)
        other = TimeSeries("lag", capacity=8, reservoir=4)
        for i in range(6):
            mine.append(float(2 * i), 1.0)
            other.append(float(2 * i + 1), 2.0)
        before = other.to_dict()
        mine.merge(other)
        for i in range(40):  # compactions mutate mine's buckets in place
            mine.append(float(100 + i), 3.0)
        assert other.to_dict() == before

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries("x", capacity=1)
        with pytest.raises(ValueError):
            TimeSeries("x", reservoir=0)
        for cadence in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                TimeSeriesConfig(cadence=cadence)


class TestProbes:
    def test_gauge_probe_sums_families(self):
        registry = MetricsRegistry()
        registry.gauge("orthrus_log_store_depth").set(3)
        registry.gauge("orthrus_queue_depth", {"queue": "0"}).set(2)
        probe = GaugeProbe("orthrus_log_store_depth", "orthrus_queue_depth")
        assert probe.sample(registry, 1.0, 1.0) == 5.0

    def test_counter_rate_probe_differences(self):
        registry = MetricsRegistry()
        counter = registry.counter("orthrus_checksum_verifications_total")
        probe = CounterRateProbe("orthrus_checksum_verifications_total")
        assert probe.sample(registry, 0.0, 1.0) is None  # primes the delta
        counter.inc(10)
        assert probe.sample(registry, 1.0, 1.0) == pytest.approx(10.0)
        counter.inc(5)
        assert probe.sample(registry, 3.0, 2.0) == pytest.approx(2.5)

    def test_delta_ratio_probe_matches_label_subset(self):
        registry = MetricsRegistry()
        skip = registry.counter(
            "orthrus_sampler_decisions_total",
            {"decision": "skip", "closure": "kv.get"},
        )
        keep = registry.counter(
            "orthrus_sampler_decisions_total",
            {"decision": "validate", "closure": "kv.get"},
        )
        probe = DeltaRatioProbe(
            "orthrus_sampler_decisions_total", {"decision": "skip"}
        )
        assert probe.sample(registry, 0.0, 1.0) is None  # primes the deltas
        keep.inc(3)
        skip.inc(1)
        assert probe.sample(registry, 1.0, 1.0) == pytest.approx(0.25)
        # No new decisions in the interval → no point (None), not 0.
        assert probe.sample(registry, 2.0, 1.0) is None

    def test_histogram_window_probe_interval_percentile(self):
        registry = MetricsRegistry()
        hist = registry.histogram("orthrus_validation_latency_seconds")
        probe = HistogramWindowProbe("orthrus_validation_latency_seconds", "p95")
        for _ in range(10):
            hist.record(1e-6)
        first = probe.sample(registry, 1.0, 1.0)
        assert first is not None and first > 0
        # Only the *new* observations count in the next interval.
        for _ in range(10):
            hist.record(1e-3)
        second = probe.sample(registry, 2.0, 1.0)
        assert second > first
        assert probe.sample(registry, 3.0, 1.0) is None


class TestRecorder:
    def make(self, cadence=1.0):
        registry = MetricsRegistry()
        registry.gauge("depth").set_function(lambda: 7.0)
        recorder = TimeSeriesRecorder(
            registry, TimeSeriesConfig(cadence=cadence, capacity=8)
        )
        recorder.add_series("depth", GaugeProbe("depth"), unit="logs")
        return recorder

    def test_cadence_gates_samples(self):
        recorder = self.make(cadence=1.0)
        assert recorder.sample(0.0) is True
        assert recorder.sample(0.5) is False  # too soon
        assert recorder.sample(1.0) is True
        assert recorder.sample(1.2, force=True) is True
        assert recorder.samples_taken == 3

    def test_artifact_round_trip(self, tmp_path):
        recorder = self.make(cadence=1.0)
        for t in range(5):
            recorder.sample(float(t))
        path = str(tmp_path / "timeline.json")
        write_timeline_json(recorder, path)
        series = load_timeline(path)
        assert set(series) == {"depth"}
        assert series["depth"].total_samples == 5
        assert series["depth"].latest() == 7.0

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_timeline(str(path))

    def test_duplicate_series_rejected(self):
        recorder = self.make()
        with pytest.raises(ValueError):
            recorder.add_series("depth", GaugeProbe("depth"))


class TestSparkline:
    def test_fixed_width(self):
        assert len(render_sparkline([], width=10)) == 10
        assert len(render_sparkline([1.0] * 200, width=30)) == 30

    def test_spikes_survive_downsampling(self):
        values = [0.0] * 100
        values[37] = 9.0
        assert "█" in render_sparkline(values, width=10)

    def test_constant_short_series_still_fixed_width(self):
        # Regression: a constant series shorter than the width used to
        # return len(values) glyphs instead of padding to the fixed width,
        # breaking column alignment in the timeline renderer.
        assert len(render_sparkline([5.0] * 3, width=20)) == 20
        assert len(render_sparkline([0.0], width=12)) == 12

    def test_variable_short_series_still_fixed_width(self):
        assert len(render_sparkline([1.0, 2.0, 3.0], width=20)) == 20
