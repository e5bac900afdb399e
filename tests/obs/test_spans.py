"""Causal span layer: lifecycle spans, parent links, Chrome export.

The tracer is pure recording — the invariants here are structural: spans
chain causally per log seq, the ring cap drops instead of growing, the
Chrome trace-event export round-trips every field, and the NULL tracer
records nothing while answering the same API.
"""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.spans import (
    NULL_SPANS,
    STAGE_ORDER,
    SpanTracer,
    load_spans_chrome,
    write_spans_chrome,
)


class TestSpanTracer:
    def test_records_in_order_with_durations(self):
        tracer = SpanTracer()
        a = tracer.record("closure.run", 1, 0.0, 2.0, closure="mc.set")
        b = tracer.record("queue.wait", 1, 2.0, 5.0, closure="mc.set")
        assert a.duration == 2.0
        assert b.duration == 3.0
        assert [s.stage for s in tracer] == ["closure.run", "queue.wait"]

    def test_parent_links_chain_per_seq(self):
        tracer = SpanTracer()
        a = tracer.record("closure.run", 1, 0.0, 1.0)
        other = tracer.record("closure.run", 2, 0.0, 1.0)
        b = tracer.record("queue.wait", 1, 1.0, 2.0)
        assert a.parent_id == -1
        assert other.parent_id == -1
        assert b.parent_id == a.span_id

    def test_for_seq_and_of_stage(self):
        tracer = SpanTracer()
        tracer.record("closure.run", 1, 0.0, 1.0)
        tracer.record("closure.run", 2, 0.0, 1.0)
        tracer.record("verdict", 1, 1.0, 1.0)
        assert [s.stage for s in tracer.for_seq(1)] == ["closure.run", "verdict"]
        assert len(tracer.of_stage("closure.run")) == 2

    def test_cap_drops_but_keeps_chain_ids_advancing(self):
        tracer = SpanTracer(max_spans=2)
        tracer.record("closure.run", 1, 0.0, 1.0)
        tracer.record("queue.wait", 1, 1.0, 2.0)
        dropped = tracer.record("validate", 1, 2.0, 3.0)
        assert dropped is None
        assert tracer.dropped == 1
        assert len(list(tracer)) == 2

    def test_extra_args_survive(self):
        tracer = SpanTracer()
        span = tracer.record("validate", 1, 0.0, 1.0, core=3, level="degraded")
        assert span.args == {"core": 3, "level": "degraded"}

    def test_registry_histogram_per_stage(self):
        registry = MetricsRegistry()
        tracer = SpanTracer(registry=registry)
        tracer.record("validate", 1, 0.0, 2.0)
        tracer.record("validate", 2, 0.0, 4.0)
        tracer.record("queue.wait", 1, 0.0, 1.0)
        series = dict(
            (labels["stage"], hist)
            for labels, hist in registry.series("orthrus_span_stage_seconds")
        )
        assert series["validate"].count == 2
        assert series["validate"].sum == pytest.approx(6.0)
        assert series["queue.wait"].count == 1

    def test_null_tracer_records_nothing(self):
        span = NULL_SPANS.record("closure.run", 1, 0.0, 1.0)
        assert span is None
        assert not NULL_SPANS.enabled
        assert list(NULL_SPANS) == []
        assert NULL_SPANS.for_seq(1) == []


class TestChromeExport:
    def test_round_trip(self, tmp_path):
        tracer = SpanTracer()
        tracer.record("closure.run", 1, 0.0, 2e-6, closure="mc.set", core=0)
        tracer.record("queue.wait", 1, 2e-6, 5e-6, closure="mc.set")
        tracer.record("verdict", 1, 5e-6, 5e-6, closure="mc.set", passed=True)
        path = tmp_path / "spans.json"
        written = write_spans_chrome(tracer, str(path))
        assert written == 3
        loaded = load_spans_chrome(str(path))
        assert [s.stage for s in loaded] == ["closure.run", "queue.wait", "verdict"]
        original = list(tracer)
        for orig, back in zip(original, loaded):
            assert back.seq == orig.seq
            assert back.closure == orig.closure
            assert back.span_id == orig.span_id
            assert back.parent_id == orig.parent_id
            assert back.duration == pytest.approx(orig.duration, abs=1e-15)
        # marker spans stay zero-duration through the round trip
        assert loaded[-1].duration == pytest.approx(0.0, abs=1e-12)
        assert loaded[-1].args.get("passed") is True

    def test_is_loadable_chrome_format(self, tmp_path):
        tracer = SpanTracer()
        tracer.record("closure.run", 1, 0.0, 1e-6)
        path = tmp_path / "spans.json"
        write_spans_chrome(tracer, str(path))
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert "traceEvents" in payload
        complete = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        assert complete and all("ts" in e and "dur" in e for e in complete)
        # one thread-name metadata row per stage keeps Perfetto rows ordered
        names = [
            e for e in payload["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        ]
        assert names

    def test_rejects_non_chrome_file(self, tmp_path):
        path = tmp_path / "not-a-trace.json"
        path.write_text(json.dumps({"format": "orthrus-metrics/1"}))
        with pytest.raises(ValueError, match="traceEvents"):
            load_spans_chrome(str(path))

    def test_stage_order_covers_all_recorded_stages(self):
        # Every stage the drivers record must be in the canonical order
        # list, or the Chrome export would give it a row after the others.
        for stage in (
            "closure.run", "queue.wait", "dispatch", "validate", "verdict",
            "stalled", "redispatch", "fallback", "skip", "drop",
        ):
            assert stage in STAGE_ORDER
