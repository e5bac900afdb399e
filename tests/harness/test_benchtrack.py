"""Benchmark tracking: artifact schema, direction-aware comparison."""

import copy
import os

import pytest

from repro.harness.benchtrack import (
    BENCH_FORMAT,
    BENCHES,
    artifact_filename,
    compare_artifacts,
    load_artifact,
    render_comparison,
    run_bench,
    write_artifact,
)

#: small but non-degenerate: every bench finishes in well under a minute
SCALE = 0.1

BASELINE_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "baselines"
)


@pytest.fixture(scope="module")
def fig8_artifact():
    return run_bench("fig8_validation_latency", scale=SCALE, seed=1)


class TestArtifacts:
    def test_schema(self, fig8_artifact):
        artifact = fig8_artifact
        assert artifact["format"] == BENCH_FORMAT
        assert artifact["name"] == "fig8_validation_latency"
        assert artifact["config"]["scale"] == SCALE
        assert len(artifact["config_digest"]) == 16
        assert artifact["wall_time_s"] > 0
        assert artifact["sim"]  # non-empty metric dict
        # The Orthrus arm runs with the recorder attached, so whole-run
        # series percentiles land in the artifact.
        lag = artifact["series_percentiles"]["memcached.validation_lag_p95"]
        assert lag["p95"] > 0

    def test_digest_depends_on_config(self):
        a = run_bench("table2_coverage", scale=SCALE, seed=1)
        b = run_bench("table2_coverage", scale=SCALE, seed=2)
        assert a["config_digest"] != b["config_digest"]

    def test_write_and_load_round_trip(self, fig8_artifact, tmp_path):
        path = write_artifact(fig8_artifact, str(tmp_path))
        assert path.endswith(artifact_filename("fig8_validation_latency"))
        assert load_artifact(path) == fig8_artifact

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('{"format": "not-a-bench"}')
        with pytest.raises(ValueError):
            load_artifact(str(path))

    @pytest.mark.parametrize(
        ("damage", "names"),
        [
            (lambda text: text.replace('"sim"', '"simulated"'), "'sim'"),
            (lambda text: text[: text.index('"sim"')] + '"sim": [1, 2]}', "'sim'"),
            (lambda text: text[: text.index('"sim"')] + '"sim": {}}', "'sim'"),
            (lambda text: text.replace('"sim": {', '"sim": {"x": NaN, '), "sim['x']"),
            (lambda text: text.replace('"sim": {', '"sim": {"x": -Infinity, '), "sim['x']"),
            (lambda text: text.replace('"sim": {', '"sim": {"x": "0.74", '), "sim['x']"),
            (lambda text: text.replace('"sim": {', '"sim": {"x": true, '), "sim['x']"),
            (lambda text: text.replace('"sim": {', '"sim": {"x": 1%s, ' % ("0" * 400)), "sim['x']"),
            (lambda text: text.replace('"name": "fig8_validation_latency"', '"name": 8'), "'name'"),
            (lambda text: text[: len(text) // 2], "not valid JSON"),
        ],
        ids=["sim-missing", "sim-list", "sim-empty", "nan", "inf", "string",
             "bool", "huge", "name", "truncated"],
    )
    def test_load_fails_closed_on_a_damaged_artifact(
        self, fig8_artifact, tmp_path, damage, names
    ):
        path = write_artifact(fig8_artifact, str(tmp_path))
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        damaged = damage(text)
        assert damaged != text
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(damaged)
        with pytest.raises(ValueError) as exc:
            load_artifact(path)
        message = str(exc.value)
        assert path in message and names in message and "\n" not in message

    @pytest.mark.parametrize("name", sorted(BENCHES))
    def test_committed_baseline_loads_and_is_reproduced_exactly(self, name):
        """The baselines hold virtual-time numbers: a fresh run of the
        recorded (scale, seed) reproduces every gated value exactly."""
        baseline = load_artifact(os.path.join(BASELINE_DIR, artifact_filename(name)))
        assert set(baseline) == {
            "format", "name", "config", "config_digest", "wall_time_s",
            "sim", "series_percentiles",
        }
        config = baseline["config"]
        fresh = run_bench(name, scale=config["scale"], seed=config["seed"])
        for key in ("sim", "series_percentiles", "config_digest"):
            assert fresh[key] == baseline[key], key

    def test_unknown_bench_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_bench("fig99")

    def test_every_bench_declares_directions(self):
        for spec in BENCHES.values():
            assert spec.directions, spec.name


class TestComparison:
    def test_identical_artifacts_compare_clean(self, fig8_artifact):
        rerun = run_bench("fig8_validation_latency", scale=SCALE, seed=1)
        # Determinism first: identical config ⇒ identical sim metrics.
        assert rerun["sim"] == fig8_artifact["sim"]
        comparison = compare_artifacts(fig8_artifact, rerun, tolerance=0.01)
        assert comparison.ok
        assert comparison.config_match
        assert all(d.status == "ok" for d in comparison.deltas)

    def test_direction_aware_verdicts(self, fig8_artifact):
        worse = copy.deepcopy(fig8_artifact)
        worse["sim"]["memcached_orthrus_val_p95_us"] *= 2.0   # lower_better ↑
        worse["sim"]["memcached_rbv_over_orthrus_ratio"] *= 2.0  # higher_better ↑
        comparison = compare_artifacts(fig8_artifact, worse, tolerance=0.25)
        by_metric = {d.metric: d.status for d in comparison.deltas}
        assert by_metric["memcached_orthrus_val_p95_us"] == "regression"
        assert by_metric["memcached_rbv_over_orthrus_ratio"] == "improvement"
        assert not comparison.ok
        assert len(comparison.regressions) == 1

    def test_stable_metrics_regress_in_both_directions(self):
        artifact = run_bench("table2_coverage", scale=SCALE, seed=1)
        drifted = copy.deepcopy(artifact)
        drifted["sim"]["profiled_sites"] *= 0.5  # STABLE: any drift is bad
        comparison = compare_artifacts(artifact, drifted, tolerance=0.25)
        by_metric = {d.metric: d.status for d in comparison.deltas}
        assert by_metric["profiled_sites"] == "regression"

    def test_within_tolerance_is_ok(self, fig8_artifact):
        nudged = copy.deepcopy(fig8_artifact)
        nudged["sim"]["memcached_orthrus_val_p95_us"] *= 1.05
        assert compare_artifacts(fig8_artifact, nudged, tolerance=0.25).ok

    def test_new_and_missing_metrics_reported_not_regressed(self, fig8_artifact):
        changed = copy.deepcopy(fig8_artifact)
        changed["sim"]["brand_new_metric"] = 1.0
        del changed["sim"]["lsmtree_orthrus_val_mean_us"]
        comparison = compare_artifacts(fig8_artifact, changed, tolerance=0.25)
        by_metric = {d.metric: d.status for d in comparison.deltas}
        assert by_metric["brand_new_metric"] == "new"
        assert by_metric["lsmtree_orthrus_val_mean_us"] == "missing"
        assert comparison.ok  # presence changes inform, they don't gate

    def test_config_mismatch_is_called_out(self, fig8_artifact):
        other = run_bench("fig8_validation_latency", scale=SCALE, seed=2)
        comparison = compare_artifacts(fig8_artifact, other, tolerance=0.25)
        assert not comparison.config_match
        assert any("config digests differ" in note for note in comparison.notes)

    def test_render_includes_verdict(self, fig8_artifact):
        comparison = compare_artifacts(fig8_artifact, fig8_artifact, tolerance=0.1)
        text = render_comparison(comparison)
        assert "verdict: no regressions" in text
        assert "fig8_validation_latency" in text
