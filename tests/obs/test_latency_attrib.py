"""Detection-latency attribution: the reconciliation invariant.

A real pipeline run must decompose into at least the four canonical
causal stages, and for every verdict-terminated chain the per-stage
durations must tile closure-start → verdict exactly.  A residual means a
driver recorded overlapping or gapped spans.
"""

import pytest

from repro.harness.chaos import run_chaos_server
from repro.harness.pipeline import PipelineConfig, run_orthrus_server
from repro.harness.scenarios import memcached_scenario
from repro.obs import (
    Observability,
    attribute,
    render_waterfall,
    stage_stats_from_registry,
)
from repro.obs.latency import StageStats, _percentile, format_rate, format_wall


def run(runner=run_orthrus_server, **kwargs):
    obs = Observability()
    config = PipelineConfig(
        app_threads=2, validation_cores=2, seed=7, obs=obs, **kwargs
    )
    result = runner(memcached_scenario(), 300, config)
    assert not result.crashed, result.crash_reason
    return result, obs


class TestAttribution:
    def test_pipeline_decomposes_into_causal_stages(self):
        _, obs = run()
        attr = attribute(obs.spans)
        stages = attr.stages()
        for stage in ("closure.run", "queue.wait", "dispatch", "validate"):
            assert stage in stages, f"missing stage {stage}"
        assert len([s for s in stages if stages[s].count]) >= 4

    def test_stage_sums_reconcile_with_end_to_end(self):
        _, obs = run()
        attr = attribute(obs.spans)
        recon = attr.reconciliation()
        assert recon["chains"] > 0
        assert recon["reconciled"], recon
        assert recon["max_residual"] < 1e-9

    def test_chaos_driver_reconciles_too(self):
        _, obs = run(runner=run_chaos_server)
        attr = attribute(obs.spans)
        recon = attr.reconciliation()
        assert recon["chains"] > 0
        assert recon["reconciled"], recon

    def test_by_closure_and_by_level_grouping(self):
        _, obs = run()
        attr = attribute(obs.spans)
        by_closure = attr.by_closure()
        assert any(c.startswith("mc.") for c in by_closure)
        by_level = attr.by_level()
        assert "normal" in by_level

    def test_end_to_end_stats_positive(self):
        _, obs = run()
        attr = attribute(obs.spans)
        e2e = attr.end_to_end()
        assert e2e.count > 0
        assert e2e.p50 > 0
        assert e2e.max >= e2e.p99 >= e2e.p95 >= e2e.p50

    def test_registry_histogram_matches_span_buffer(self):
        # The per-stage histogram family is the survivable form of the
        # same data: counts and sums must agree with the raw spans.
        _, obs = run()
        attr = attribute(obs.spans)
        from_registry = stage_stats_from_registry(obs.registry)
        for stage, stats in attr.stages().items():
            assert from_registry[stage].count == stats.count
            assert from_registry[stage].total == pytest.approx(stats.total)


class TestRendering:
    def test_waterfall_renders_all_stages(self):
        _, obs = run()
        attr = attribute(obs.spans)
        text = render_waterfall(attr.stages())
        for stage in ("closure.run", "queue.wait", "dispatch", "validate"):
            assert stage in text
        assert "share" in text

    def test_waterfall_empty(self):
        assert "no spans" in render_waterfall({})

    def test_percentile_interpolation(self):
        assert _percentile([], 0.5) == 0.0
        assert _percentile([3.0], 0.99) == 3.0
        assert _percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_stage_stats_mean(self):
        stats = StageStats(count=4, total=8.0, p50=2.0, p95=2.0, p99=2.0, max=2.0)
        assert stats.mean == 2.0
        assert StageStats(0, 0.0, 0.0, 0.0, 0.0, 0.0).mean == 0.0


# ----------------------------------------------------------------------
# formatting helpers (the repo-wide rate/wall renderers)


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
