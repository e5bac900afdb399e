"""Exporter formats: JSON-lines traces, Prometheus text, console tables."""

import json
import math

import pytest

from repro.obs.exporters import (
    console_summary,
    format_rate,
    format_wall,
    load_metrics_json,
    read_trace_jsonl,
    to_prometheus,
    write_metrics_json,
    write_trace_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def make_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter(
        "orthrus_validations_total", {"closure": "kv.get", "caller": "handle"},
        help="validations",
    ).inc(12)
    registry.gauge("orthrus_queue_depth", {"queue": "0"}).set(3)
    hist = registry.histogram("orthrus_queue_delay_seconds", help="delay")
    for value in (1e-6, 2e-6, 5e-4):
        hist.record(value)
    return registry


class TestTraceJsonl:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.emit("closure.run", ts=0.5, closure="kv.get", seq=1)
        tracer.emit("queue.push", ts=0.6, queue=0, seq=1, depth=1)
        path = str(tmp_path / "trace.jsonl")
        assert write_trace_jsonl(tracer, path) == 2
        events = read_trace_jsonl(path)
        assert [e["kind"] for e in events] == ["closure.run", "queue.push"]
        assert events[0]["closure"] == "kv.get"

    def test_non_finite_fields_become_null(self, tmp_path):
        tracer = Tracer()
        tracer.emit("reclaim.batch", ts=0.0, watermark=math.inf, reclaimed=0)
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(tracer, path)
        events = read_trace_jsonl(path)
        assert events[0]["watermark"] is None

    def test_dropped_marker_appended(self, tmp_path):
        tracer = Tracer(max_events=1)
        tracer.emit("a", ts=0.0)
        tracer.emit("b", ts=0.0)
        path = str(tmp_path / "trace.jsonl")
        assert write_trace_jsonl(tracer, path) == 1
        events = read_trace_jsonl(path)
        assert events[-1] == {"kind": "trace.dropped", "count": 1}


class TestMetricsJson:
    def test_round_trip_file(self, tmp_path):
        registry = make_registry()
        path = str(tmp_path / "metrics.json")
        write_metrics_json(registry, path)
        snapshot = load_metrics_json(path)
        assert snapshot["format"] == "orthrus-metrics/1"
        restored = MetricsRegistry.from_snapshot(snapshot)
        assert restored.value(
            "orthrus_validations_total", {"closure": "kv.get", "caller": "handle"}
        ) == 12.0

    def test_output_is_valid_json(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        write_metrics_json(make_registry(), path)
        with open(path, encoding="utf-8") as fh:
            json.load(fh)  # must not raise


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        text = to_prometheus(make_registry())
        assert "# TYPE orthrus_validations_total counter" in text
        assert (
            'orthrus_validations_total{caller="handle",closure="kv.get"} 12.0'
            in text
        )
        assert 'orthrus_queue_depth{queue="0"} 3.0' in text

    def test_histogram_exposition(self):
        text = to_prometheus(make_registry())
        assert "# TYPE orthrus_queue_delay_seconds histogram" in text
        assert 'orthrus_queue_delay_seconds_bucket{le="+Inf"} 3' in text
        assert "orthrus_queue_delay_seconds_count 3" in text
        assert "orthrus_queue_delay_seconds_sum" in text

    def test_bucket_counts_cumulative(self):
        text = to_prometheus(make_registry())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("orthrus_queue_delay_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 3

    def test_accepts_saved_snapshot_dict(self):
        registry = make_registry()
        assert to_prometheus(registry.snapshot()) == to_prometheus(registry)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x_total", {"name": 'a"b\\c'}).inc()
        text = to_prometheus(registry)
        assert r'x_total{name="a\"b\\c"} 1.0' in text

    def test_label_newlines_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x_total", {"name": "line1\nline2"}).inc()
        text = to_prometheus(registry)
        assert r'x_total{name="line1\nline2"} 1.0' in text
        # The exposition must stay one-sample-per-line.
        assert "line1\nline2" not in text

    def test_help_text_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x_total", help="multi\nline \\help").inc()
        text = to_prometheus(registry)
        assert r"# HELP x_total multi\nline \\help" in text

    def test_type_emitted_once_per_family_across_children(self):
        registry = MetricsRegistry()
        for queue in ("0", "1", "2"):
            registry.gauge("orthrus_queue_depth", {"queue": queue}).set(1)
        text = to_prometheus(registry)
        assert text.count("# TYPE orthrus_queue_depth gauge") == 1

    def test_histogram_with_no_samples_still_announces_type(self):
        registry = MetricsRegistry()
        registry.histogram("orthrus_idle_seconds", help="never observed")
        text = to_prometheus(registry)
        assert "# TYPE orthrus_idle_seconds histogram" in text
        assert "orthrus_idle_seconds_count 0" in text
        assert 'orthrus_idle_seconds_bucket{le="+Inf"} 0' in text
        # And the snapshot round-trips the empty family intact.
        restored = to_prometheus(registry.snapshot())
        assert restored == text


class TestConsoleSummary:
    def test_table_contains_every_family(self):
        table = console_summary(make_registry())
        assert "orthrus_validations_total" in table
        assert "caller=handle, closure=kv.get" in table
        assert "count=3" in table  # histogram summarized inline

    def test_empty_registry(self):
        assert "empty" in console_summary(MetricsRegistry())

    def test_accepts_saved_snapshot_dict(self):
        registry = make_registry()
        assert console_summary(registry.snapshot()) == console_summary(registry)


class TestFormatting:
    @pytest.mark.parametrize(
        ("value", "expect"),
        [
            (12.0, "12 op/s"),
            (4_200.0, "4 kop/s"),
            (1_390_000.0, "1.39 Mop/s"),
            (2_500_000_000.0, "2.50 Gop/s"),
        ],
    )
    def test_format_rate(self, value, expect):
        assert format_rate(value) == expect

    @pytest.mark.parametrize(
        ("value", "expect"),
        [(2.5, "2.50s"), (0.0035, "3.50ms"), (4.2e-6, "4.2us")],
    )
    def test_format_wall(self, value, expect):
        assert format_wall(value) == expect
