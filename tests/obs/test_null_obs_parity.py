"""NULL_OBS guard-path parity: instrumentation must never change results.

The disabled path is the production default, so two properties are
load-bearing: (1) a run with observability attached produces bit-identical
application state and validation verdicts to the same run without it, and
(2) the disabled path allocates no per-event objects — no trace events, no
metric families — so the `if obs.enabled:` guards actually short-circuit.
"""

from repro.harness.pipeline import PipelineConfig, run_orthrus_server
from repro.harness.scenarios import memcached_scenario
from repro.obs import Observability, TimeSeriesConfig
from repro.obs.observability import NULL_OBS
from repro.obs.trace import NULL_TRACER


def run(obs=None, timeseries=None):
    config = PipelineConfig(
        app_threads=2, validation_cores=2, seed=7,
        obs=obs, timeseries=timeseries,
    )
    return run_orthrus_server(memcached_scenario(), 300, config)


class TestParity:
    def test_same_digest_with_and_without_obs(self):
        bare = run()
        instrumented = run(obs=Observability())
        assert bare.digest is not None
        assert bare.digest == instrumented.digest
        assert bare.metrics.validated == instrumented.metrics.validated
        assert bare.metrics.skipped == instrumented.metrics.skipped
        assert bare.detections == instrumented.detections

    def test_same_digest_with_full_telemetry_stack(self):
        # The recorder samples the sim clock mid-run; it must still be
        # invisible to the application and the validators.
        bare = run()
        full = run(obs=Observability(), timeseries=TimeSeriesConfig())
        assert bare.digest == full.digest
        assert full.timeline is not None and full.timeline.samples_taken > 0

    def test_disabled_run_leaves_null_obs_untouched(self):
        baseline_families = len(NULL_OBS.registry.snapshot()["metrics"])
        result = run()
        assert result.timeline is None
        # The shared disabled singleton accumulated nothing: no trace
        # events and no new metric families from this run.
        assert len(NULL_TRACER) == 0
        assert len(NULL_OBS.registry.snapshot()["metrics"]) == baseline_families

    def test_timeseries_config_without_obs_stays_off(self):
        # A recorder needs a registry to sample; without obs the pipeline
        # must not half-attach one.
        result = run(timeseries=TimeSeriesConfig())
        assert result.timeline is None


class TestSpanParity:
    def test_spans_on_and_off_digest_identical(self):
        # The span layer is pure recording: turning it off inside an
        # otherwise-instrumented run must not move a single verdict.
        spans_on = run(obs=Observability(spans=True))
        spans_off = run(obs=Observability(spans=False))
        assert spans_on.digest == spans_off.digest
        assert spans_on.metrics.validated == spans_off.metrics.validated
        assert spans_on.detections == spans_off.detections

    def test_spans_off_records_nothing(self):
        obs = Observability(spans=False)
        run(obs=obs)
        assert not obs.spans.enabled
        assert list(obs.spans) == []

    def test_null_obs_span_tracer_is_shared_null(self):
        from repro.obs.spans import NULL_SPANS

        assert NULL_OBS.spans is NULL_SPANS
        assert list(NULL_SPANS) == []
