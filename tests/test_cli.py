"""Command-line interface tests."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["perf"])
        assert args.app == "memcached"
        assert args.threads == 2
        assert args.cores == 2

    def test_coverage_flags(self):
        args = build_parser().parse_args(
            ["coverage", "--app", "lsmtree", "--faults", "8", "--rbv",
             "--trigger-rate", "0.5"]
        )
        assert args.app == "lsmtree"
        assert args.faults == 8
        assert args.rbv is True
        assert args.trigger_rate == 0.5


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for app in ("memcached", "masstree", "lsmtree", "phoenix"):
            assert app in out

    def test_perf_small(self, capsys):
        assert main(["perf", "--app", "memcached", "--ops", "200"]) == 0
        out = capsys.readouterr().out
        assert "vanilla throughput" in out
        assert "orthrus overhead" in out

    def test_latency_small(self, capsys):
        assert main(["latency", "--app", "memcached", "--ops", "200"]) == 0
        out = capsys.readouterr().out
        assert "orthrus validation latency" in out
        assert "rbv validation latency" in out

    def test_coverage_small(self, capsys):
        assert main(
            ["coverage", "--app", "memcached", "--ops", "200", "--faults", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "detection rate" in out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["perf", "--app", "redis"])


class TestObservabilityFlags:
    def test_metrics_and_trace_export(self, tmp_path, capsys):
        metrics = tmp_path / "run.json"
        trace = tmp_path / "run.jsonl"
        assert main([
            "perf", "--app", "memcached", "--ops", "200",
            "--metrics-out", str(metrics), "--trace-out", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot" in out
        assert "trace events" in out

        from repro.obs import MetricsRegistry, load_metrics_json, read_trace_jsonl

        registry = MetricsRegistry.from_snapshot(load_metrics_json(str(metrics)))
        assert registry.value("orthrus_requests_total") == 200.0
        assert registry.value("run_operations_total") == 200.0
        events = read_trace_jsonl(str(trace))
        assert any(e["kind"] == "closure.run" for e in events)
        assert any(e["kind"] == "validator.validate" for e in events)

    def test_prom_extension_writes_prometheus_text(self, tmp_path, capsys):
        metrics = tmp_path / "run.prom"
        assert main([
            "perf", "--app", "memcached", "--ops", "200",
            "--metrics-out", str(metrics),
        ]) == 0
        text = metrics.read_text()
        assert "# TYPE orthrus_validations_total counter" in text

    def test_obs_summary_renders_saved_snapshot(self, tmp_path, capsys):
        metrics = tmp_path / "run.json"
        main([
            "latency", "--app", "memcached", "--ops", "200",
            "--metrics-out", str(metrics),
        ])
        capsys.readouterr()
        assert main(["obs-summary", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "orthrus_validations_total" in out
        assert main(["obs-summary", str(metrics), "--format", "prom"]) == 0
        assert "# TYPE" in capsys.readouterr().out

    def test_coverage_accepts_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "campaign.json"
        assert main([
            "coverage", "--app", "memcached", "--ops", "150", "--faults", "4",
            "--metrics-out", str(metrics),
        ]) == 0
        assert metrics.exists()

    def test_no_flags_no_export(self, capsys):
        assert main(["perf", "--app", "memcached", "--ops", "200"]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot" not in out

    def test_bad_export_path_fails_before_the_run(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot write"):
            main([
                "perf", "--app", "memcached", "--ops", "200",
                "--metrics-out", str(tmp_path / "missing-dir" / "x.json"),
            ])

    def test_obs_summary_rejects_non_snapshot_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"hello": 1}')
        with pytest.raises(SystemExit, match="not an orthrus-metrics/1"):
            main(["obs-summary", str(bad)])

    def test_obs_summary_rejects_missing_and_invalid_files(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["obs-summary", str(tmp_path / "nope.json")])
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["obs-summary", str(garbage)])

    def test_obs_summary_renders_trace_in_event_seq_order(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main([
            "perf", "--app", "memcached", "--ops", "200",
            "--trace-out", str(trace),
        ])
        capsys.readouterr()
        assert main(["obs-summary", str(trace)]) == 0
        out = capsys.readouterr().out
        seqs = [
            int(line[1:].split()[0])
            for line in out.splitlines()
            if line.startswith("#")
        ]
        assert seqs and seqs == sorted(seqs)
        assert "closure.run" in out


class TestTimelineFlags:
    def test_perf_timeline_out_writes_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "timeline.json"
        assert main([
            "perf", "--app", "memcached", "--ops", "300",
            "--timeline-out", str(artifact),
        ]) == 0
        out = capsys.readouterr().out
        assert f"-> {artifact}" in out
        assert "slo" not in out

        from repro.obs import load_timeline

        series = load_timeline(str(artifact))
        lag = series["validation_lag_p95"]
        assert lag.total_samples > 0
        assert lag.summary()["p95"] > 0

    def test_timeline_subcommand_renders_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "timeline.json"
        main([
            "perf", "--app", "memcached", "--ops", "300",
            "--timeline-out", str(artifact),
        ])
        capsys.readouterr()
        assert main(["timeline", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "validation_lag_p95" in out and "queue_depth" in out
        assert main([
            "timeline", str(artifact), "--format", "table",
            "--series", "validation_lag_p95",
        ]) == 0
        table = capsys.readouterr().out
        assert "p95=" in table and "queue_depth" not in table

    def test_timeline_rejects_unknown_series_and_bad_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "wrong"}')
        with pytest.raises(SystemExit, match="not an orthrus-timeseries"):
            main(["timeline", str(bad)])

    _SERIES = {"name": "queue_depth", "capacity": 8, "reservoir": 4,
               "per_bucket": 1, "total_samples": 1}
    _BUCKET = {"t_start": 0.0, "t_end": 0.0, "count": 1, "sum": 2.0,
               "min": 2.0, "max": 2.0, "last": 2.0}

    @pytest.mark.parametrize("series,expected", [
        (None, "artifact: key 'series' is missing or not a list"),
        ([_SERIES], "series[0] 'queue_depth': missing key 'buckets'"),
        ([{**_SERIES, "buckets": [_BUCKET]}],
         "series[0] 'queue_depth': missing key 'samples'"),
        ([{**_SERIES, "buckets": 3}], "series[0] 'queue_depth': 'int' object"),
    ], ids=["no-series", "entry-without-buckets", "bucket-without-samples",
            "buckets-not-a-list"])
    def test_timeline_truncated_artifact_fails_in_one_line(
        self, tmp_path, series, expected
    ):
        payload = {"format": "orthrus-timeseries/1", "cadence": 1.0,
                   "samples_taken": 1}
        if series is not None:
            payload["series"] = series
        path = tmp_path / "truncated.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as exc:
            main(["timeline", str(path)])
        message = str(exc.value.code)
        assert message.startswith(f"{path}: {expected}"), message
        assert "\n" not in message


class TestFaultToleranceFlags:
    def test_parser_accepts_ft_flags(self):
        args = build_parser().parse_args([
            "perf", "--validator-faults", "crash=0.25",
            "--validator-faults", "hang=1", "--degradation",
            "--queue-capacity", "32", "--overflow-policy", "reject",
            "--watchdog-deadline", "80e-6",
        ])
        assert args.validator_faults == ["crash=0.25", "hang=1"]
        assert args.degradation is True
        assert args.queue_capacity == 32
        assert args.overflow_policy == "reject"
        assert args.watchdog_deadline == 80e-6

    def test_degradation_flag_reports_conservation(self, capsys):
        assert main([
            "perf", "--app", "memcached", "--ops", "200", "--degradation",
        ]) == 0
        out = capsys.readouterr().out
        assert "log conservation" in out
        assert "(conserved)" in out
        assert "terminal normal" in out

    def test_validator_faults_redispatch_and_ft_json(self, tmp_path, capsys):
        report = tmp_path / "ft.json"
        assert main([
            "latency", "--app", "memcached", "--ops", "300", "--cores", "4",
            "--validator-faults", "crash=0.25",
            "--validator-faults", "hang=0.25",
            "--watchdog-deadline", "80e-6",
            "--ft-json", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "re-dispatches" in out
        assert "armed faults" in out
        data = json.loads(report.read_text())
        assert data["conserved"] is True
        assert data["terminal_level"] == "normal"
        assert data["watchdog"]["redispatches"] > 0

    def test_bad_fault_spec_fails_before_the_run(self):
        with pytest.raises(SystemExit, match="unknown validator fault"):
            main(["perf", "--ops", "100", "--validator-faults", "explode=1"])

    def test_safe_hold_terminal_state_exits_nonzero(self, capsys):
        from argparse import Namespace

        from repro.cli import _finish_fault_tolerance
        from repro.harness.chaos import FaultToleranceReport

        ft = FaultToleranceReport(
            ledger={"enqueued": 1, "validated": 0, "skipped": 0,
                    "dropped": 0, "fallback": 1},
            terminal_level="safe-hold",
            peak_level="safe-hold",
        )
        rc = _finish_fault_tolerance(Namespace(ft=ft), Namespace(ft_json=None))
        assert rc == 2
        assert "SAFE_HOLD" in capsys.readouterr().out


class TestSpanAndCanaryFlags:
    def test_spans_out_writes_chrome_trace(self, tmp_path, capsys):
        spans = tmp_path / "spans.json"
        assert main([
            "latency", "--app", "memcached", "--ops", "200",
            "--spans-out", str(spans),
        ]) == 0
        assert "causal spans" in capsys.readouterr().out
        payload = json.loads(spans.read_text())
        assert "traceEvents" in payload

    def test_latency_attrib_decomposes_and_reconciles(self, tmp_path, capsys):
        spans = tmp_path / "spans.json"
        main([
            "latency", "--app", "memcached", "--ops", "200",
            "--spans-out", str(spans),
        ])
        capsys.readouterr()
        assert main(["latency-attrib", str(spans)]) == 0
        out = capsys.readouterr().out
        # at least four causal stages in the waterfall
        for stage in ("closure.run", "queue.wait", "dispatch", "validate"):
            assert stage in out
        assert "(reconciled)" in out

    def test_latency_attrib_accepts_metrics_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "m.json"
        main([
            "latency", "--app", "memcached", "--ops", "200",
            "--metrics-out", str(snap),
        ])
        capsys.readouterr()
        assert main(["latency-attrib", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "queue.wait" in out

    def test_latency_attrib_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["latency-attrib", str(bad)])
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"hello": 1}))
        with pytest.raises(SystemExit, match="traceEvents"):
            main(["latency-attrib", str(other)])
        with pytest.raises(SystemExit, match="cannot read"):
            main(["latency-attrib", str(tmp_path / "missing.json")])

    def test_canary_flags_healthy_run(self, capsys):
        assert main([
            "latency", "--app", "memcached", "--ops", "200",
            "--canary-period", "50e-6",
        ]) == 0
        out = capsys.readouterr().out
        assert "canary liveness    : ok" in out
        assert "organic detections : 0" in out

    def test_obs_summary_exits_3_on_canary_miss(self, tmp_path, capsys):
        snap = tmp_path / "m.json"
        assert main([
            "latency", "--app", "memcached", "--ops", "400",
            "--canary-period", "50e-6", "--validator-faults", "hang=2",
            "--queue-capacity", "256", "--metrics-out", str(snap),
        ]) == 3
        assert "ALARM" in capsys.readouterr().out
        assert main(["obs-summary", str(snap)]) == 3
        out = capsys.readouterr().out
        assert "canary liveness: ALARM" in out
        assert "per-stage latency waterfall" in out

    def test_timeline_exits_3_on_canary_miss(self, tmp_path, capsys):
        artifact = tmp_path / "t.json"
        main([
            "latency", "--app", "memcached", "--ops", "400",
            "--canary-period", "50e-6", "--validator-faults", "hang=2",
            "--queue-capacity", "256", "--timeline-out", str(artifact),
        ])
        capsys.readouterr()
        assert main(["timeline", str(artifact)]) == 3
        assert "canary liveness: ALARM" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["perf", "latency"])
    @pytest.mark.parametrize(
        "faults, expected", [(["hang=2"], 3), ([], 0)], ids=["hung", "healthy"]
    )
    def test_run_exits_3_on_canary_miss(self, command, faults, expected, capsys):
        argv = [command, "--app", "memcached", "--ops", "400",
                "--canary-period", "50e-6", "--queue-capacity", "256"]
        for spec in faults:
            argv += ["--validator-faults", spec]
        assert main(argv) == expected
        out = capsys.readouterr().out
        assert ("canary liveness    : ALARM" in out) == bool(expected)
        assert "log conservation" in out

    def test_canary_miss_still_prints_the_audit(self, capsys):
        # the exit status picks the first nonzero code, but every report
        # the flags asked for is still printed
        assert main([
            "latency", "--app", "memcached", "--ops", "400",
            "--canary-period", "50e-6", "--validator-faults", "hang=2",
            "--queue-capacity", "256", "--audit",
        ]) == 3
        out = capsys.readouterr().out
        assert "drift-validator-pool" in out
        assert "drift-canary-liveness" not in out

    def test_obs_summary_healthy_snapshot_exits_zero(self, tmp_path, capsys):
        snap = tmp_path / "m.json"
        main([
            "latency", "--app", "memcached", "--ops", "200",
            "--canary-period", "50e-6", "--metrics-out", str(snap),
        ])
        capsys.readouterr()
        assert main(["obs-summary", str(snap)]) == 0
        assert "canary liveness: ok" in capsys.readouterr().out


class TestRosterDrift:
    """The subcommand roster is generated, not hand-maintained."""

    def test_handlers_match_registered_subparsers(self):
        from repro.cli import _HANDLERS, subcommand_names

        assert set(subcommand_names()) == set(_HANDLERS)

    def test_list_output_names_every_subcommand(self, capsys):
        from repro.cli import subcommand_names

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in subcommand_names():
            if name != "list":
                assert name in out

    def test_epilog_names_every_subcommand(self):
        from repro.cli import subcommand_names

        parser = build_parser()
        for name in subcommand_names(parser):
            assert name in parser.epilog


class TestRemovedProfilerSurface:
    """Host time is measured from outside (benchmarks/perf); the old
    in-process surface fails closed instead of being accepted and ignored."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile"],
            ["perf", "--profile-out", "x"],
            ["latency", "--flame-out", "x"],
            ["coverage", "--sample"],
            ["fleet", "--profile-out", "x"],
        ],
    )
    def test_argparse_rejects_the_removed_surface(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    def test_obs_summary_rejects_a_left_over_profile_artifact(self, tmp_path):
        stale = tmp_path / "profile.json"
        stale.write_text(json.dumps(
            {"format": "orthrus-profile/1", "wall_s": 1.0, "subsystems": []}
        ))
        with pytest.raises(SystemExit, match="not an orthrus-metrics/1 snapshot"):
            main(["obs-summary", str(stale)])

    def test_list_does_not_name_it(self, capsys):
        assert main(["list"]) == 0
        assert "profile" not in capsys.readouterr().out


class TestDoctor:
    def test_default_configs_are_clean(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "no contradictions found" in out
        assert "0 error(s)" in out

    def test_bad_fleet_fixture_names_the_rules(self, capsys):
        rc = main(["doctor", "--config",
                   "tests/fixtures/doctor_bad_fleet.json"])
        assert rc == 1
        out = capsys.readouterr().out
        for rule in ("shards-exceed-cores", "validator-pool-quarantined",
                     "watchdog-exceeds-slo"):
            assert rule in out

    def test_bad_pipeline_fixture_names_the_rules(self, capsys):
        rc = main(["doctor", "--config",
                   "tests/fixtures/doctor_bad_pipeline.json"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "sampler-target-unknown" in out
        assert "canary-deadline-inverted" in out

    def test_flags_overlay_contradictions(self, capsys):
        rc = main([
            "doctor", "--sampler-target", "bogus.closure",
            "--canary-period", "1e-3", "--canary-deadline", "1e-4",
            "--overflow-policy", "drop-newest",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "sampler-target-unknown" in out
        assert "canary-deadline-inverted" in out
        assert "overflow-policy-unknown" in out

    def test_empty_validator_pool_flagged(self, capsys):
        assert main(["doctor", "--cores", "0"]) == 1
        assert "validator-pool-empty" in capsys.readouterr().out

    def test_unknown_overflow_policy_flagged(self, capsys):
        assert main([
            "doctor", "--overflow-policy", "drop-newest",
            "--queue-capacity", "16",
        ]) == 1
        assert "overflow-policy-unknown" in capsys.readouterr().out

    def test_json_emits_the_artifact(self, capsys):
        assert main(["doctor", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "orthrus-audit/1"
        assert payload["summary"]["ok"] is True
        assert set(payload["targets"]) == {"pipeline", "fleet"}

    def test_artifact_round_trips_through_obs_summary(self, tmp_path, capsys):
        artifact = tmp_path / "audit.json"
        rc = main(["doctor", "--config",
                   "tests/fixtures/doctor_bad_fleet.json",
                   "--out", str(artifact)])
        assert rc == 1
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
        assert payload["format"] == "orthrus-audit/1"
        assert main(["obs-summary", str(artifact)]) == 1
        out = capsys.readouterr().out
        assert "validation-plane audit" in out
        assert "shards-exceed-cores" in out

    def test_unknown_config_section_rejected(self, tmp_path):
        spec = tmp_path / "c.json"
        spec.write_text(json.dumps({"pipelines": {}}))
        with pytest.raises(SystemExit, match="unknown section"):
            main(["doctor", "--config", str(spec)])

    def test_unknown_config_key_rejected(self, tmp_path):
        spec = tmp_path / "c.json"
        spec.write_text(json.dumps({"pipeline": {"valdation_cores": 2}}))
        with pytest.raises(SystemExit, match="unknown pipeline key"):
            main(["doctor", "--config", str(spec)])


#: malformed doctor specs → the dotted key the one-line error must name
HOSTILE_SPECS = [
    ({"fleet": {"hosts": "a"}}, "fleet.hosts"),
    ({"fleet": {"hosts": 2.5}}, "fleet.hosts"),
    ({"fleet": {"hosts": True}}, "fleet.hosts"),
    ({"fleet": {"epochs": None}}, "fleet.epochs"),
    ({"pipeline": {"validation_cores": "x"}}, "pipeline.validation_cores"),
    ({"pipeline": {"fault_tolerance": {"bogus": 1}}},
     "pipeline.fault_tolerance.bogus"),
    ({"pipeline": {"canary": {"bogus": 1}}}, "pipeline.canary.bogus"),
    ({"pipeline": {"audit": {"bogus": 1}}}, "pipeline.audit.bogus"),
    ({"pipeline": {"fault_tolerance": {"watchdog": {"bogus": 1}}}},
     "pipeline.fault_tolerance.watchdog.bogus"),
    ({"pipeline": []}, "pipeline"),
    ({"pipeline": None}, "pipeline"),
    ({"fleet": None}, "fleet"),
    ({"fleet": {"quarantined": [[0, 1, 2]]}}, "fleet.quarantined[0]"),
    ({"fleet": {"quarantined": [3]}}, "fleet.quarantined[0]"),
    ({"fleet": {"quarantined": 3}}, "fleet.quarantined"),
    ({"pipeline": {"sampler_targets": "mc.get"}}, "pipeline.sampler_targets"),
    ({"fleet": {"faults": 3}}, "fleet.faults"),
    ({"fleet": {"faults": {"bogus": []}}}, "fleet.faults"),
    # out-of-range chaos specs fail in the spec types, however built
    ({"fleet": {"hosts": 4, "shards": 4, "epochs": 4,
                "faults": {"crashes": [[1, -2, None]]}}}, "fleet.faults"),
    ({"fleet": {"faults": {"crashes": [[1, 1, -1]]}}}, "fleet.faults"),
    ({"fleet": {"faults": {"crashes": [[-1, 1, None]]}}}, "fleet.faults"),
    ({"fleet": {"faults": {"partitions": [[0, 1, -1, 2]]}}}, "fleet.faults"),
    ({"fleet": {"faults": {"partitions": [[0, 1, 1, 0]]}}}, "fleet.faults"),
    ({"fleet": {"faults": {"degradations": [[0, 1, 1, 2, float("nan")]]}}},
     "fleet.faults"),
    ({"fleet": {"faults": {"degradations": [[0, 1, 1, 2, 0.0]]}}}, "fleet.faults"),
    ({"fleet": {"faults": {"stragglers": [[[0], 1, 2, float("inf")]]}}},
     "fleet.faults"),
    ({"fleet": {"faults": {"stragglers": [[[-1], 1, 2, 0.5]]}}}, "fleet.faults"),
    ({"pipeline": {"validator_faults": ["crash=nan"]}}, "pipeline.validator_faults"),
    ({"pipeline": {"validator_faults": ["hang=1e999"]}}, "pipeline.validator_faults"),
]

_FLEET = ["fleet", "--hosts", "4", "--shards", "4", "--epochs", "4"]
#: hostile run flags: each exits 1 with one line before the run prints anything
HOSTILE_FLAGS = [
    ["perf", "--app", "memcached", "--ops", "50", "--validator-faults", "crash=nan"],
    ["perf", "--app", "memcached", "--ops", "50", "--validator-faults", "crash=inf"],
    ["perf", "--app", "memcached", "--ops", "50", "--validator-faults", "crash=1e999"],
    # a config a run would reject, a workload of no ops: refused, not run
    ["perf", "--app", "memcached", "--ops", "50", "--threads", "0"],
    ["perf", "--app", "memcached", "--ops", "50", "--cores", "0"],
    ["latency", "--app", "memcached", "--ops", "50", "--cores", "-1"],
    ["perf", "--app", "memcached", "--ops", "-5"],
    ["perf", "--app", "memcached", "--ops", "0"],
    ["coverage", "--app", "memcached", "--ops", "50", "--faults", "-1"],
    ["coverage", "--app", "memcached", "--ops", "50", "--trigger-rate", "nan"],
    ["coverage", "--app", "memcached", "--ops", "50", "--cores", "0"],
    [*_FLEET, "--host-crash", "1@-2"],
    [*_FLEET, "--host-crash", "1@1+-1"],
    [*_FLEET, "--partition", "0-1@-1+2"],
    [*_FLEET, "--partition", "0-1@1+-2"],
    [*_FLEET, "--partition", "0-1@1+0"],
    [*_FLEET, "--degrade-link", "0-1@1+2:nan"],
    [*_FLEET, "--straggle", "0,1@1+2:-0.5"],
    [*_FLEET, "--json", "{tmp}/missing/x.json"],
    [*_FLEET, "--events-out", "{tmp}/missing/x.jsonl"],
    [*_FLEET, "--metrics-out", "{tmp}/missing/x.prom"],
    [*_FLEET, "--timeline-out", "{tmp}/missing/x.json"],
]


class TestDoctorDecoder:
    """Every doctor spec decodes through the dataclass-driven decoder a run
    uses: strict keys at every level, typed values, one-line errors."""

    @pytest.mark.parametrize(
        "spec, key", HOSTILE_SPECS,
        ids=[json.dumps(spec) for spec, _ in HOSTILE_SPECS],
    )
    def test_hostile_spec_fails_closed_in_one_line(self, spec, key, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SystemExit) as exc:
            main(["doctor", "--config", str(path)])
        code = exc.value.code
        assert isinstance(code, str) and "\n" not in code  # exit status 1
        assert key in code.replace(":", " ").split()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", HOSTILE_FLAGS, ids=" ".join)
    def test_hostile_flags_fail_closed_in_one_line(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(tmp=tmp_path) for arg in argv])
        code = exc.value.code
        assert isinstance(code, str) and "\n" not in code  # exit status 1
        assert capsys.readouterr().out == ""

    def test_bad_epoch_is_reachable(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"fleet": {"epoch_s": 0}}))
        assert main(["doctor", "--config", str(path)]) == 1
        assert "bad-epoch" in capsys.readouterr().out

    def test_every_fleet_field_with_a_json_form_decodes(self):
        import dataclasses

        from repro.cli import _decode_fleet
        from repro.fleet import FleetConfig

        spec = {
            f.name: getattr(FleetConfig(), f.name)
            for f in dataclasses.fields(FleetConfig) if f.name != "costs"
        }
        assert _decode_fleet(json.loads(json.dumps(spec))) == FleetConfig()

    def test_fleet_with_no_flags_decodes_the_stock_config(self):
        from repro.cli import _fleet_config
        from repro.fleet import FleetConfig

        assert _fleet_config(build_parser().parse_args(["fleet"])) == FleetConfig()

    def test_partitions_on_one_host_fail_before_any_config(self, capsys):
        with pytest.raises(SystemExit, match="partitions need hosts >= 2"):
            main(["fleet", "--hosts", "1", "--chaos-partitions", "1"])
        assert capsys.readouterr().out == ""


class TestRemovedSloSurface:
    """The SLO monitor is gone (DESIGN §14.3: one alarm per failure); its
    flag and doctor key fail closed instead of being accepted and ignored."""

    @pytest.mark.parametrize("command", ["perf", "latency", "doctor"])
    def test_argparse_rejects_the_slo_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--slo", "validation_lag_p95 p95 <= 200us"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --slo" in capsys.readouterr().err

    def test_doctor_rejects_the_slos_key(self, tmp_path):
        spec = tmp_path / "c.json"
        spec.write_text(json.dumps({"pipeline": {"slos": []}}))
        with pytest.raises(SystemExit, match="unknown pipeline key.*slos"):
            main(["doctor", "--config", str(spec)])


class TestRemovedResponseSurface:
    """Incident response is gone: Orthrus detects, it does not arbitrate or
    repair.  Its subcommand, run flag and doctor key fail closed instead of
    being accepted and ignored."""

    @pytest.mark.parametrize("command", ["perf", "latency", "coverage"])
    def test_argparse_rejects_the_quarantine_switch(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--quarantine"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quarantine" in capsys.readouterr().err

    def test_argparse_rejects_the_respond_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["respond", "--app", "memcached"])
        assert exc.value.code == 2
        assert "invalid choice: 'respond'" in capsys.readouterr().err

    def test_doctor_rejects_the_quarantine_key(self, tmp_path, capsys):
        spec = tmp_path / "c.json"
        spec.write_text(json.dumps({"pipeline": {"quarantine": True}}))
        with pytest.raises(SystemExit) as exc:
            main(["doctor", "--config", str(spec)])
        code = exc.value.code
        assert isinstance(code, str) and "\n" not in code  # exit status 1
        assert code.startswith("unknown pipeline key(s): pipeline.quarantine ")
        assert capsys.readouterr().out == ""


class TestNonFiniteDurations:
    """A duration flag that is zero, NaN or infinite fails before the run
    with a one-line message (exit 1), never a traceback or a run that
    silently cannot alarm."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["perf", "--canary-period", "nan"], "canary period"),
            (["perf", "--watchdog-deadline", "nan"], "watchdog deadline"),
            (["perf", "--audit", "--canary-period", "inf"], "canary period"),
            (["latency", "--canary-deadline", "inf"], "canary deadline"),
            (["perf", "--timeline-out", "{tmp}/t.json", "--timeline-cadence", "0"],
             "--timeline-cadence"),
            (["perf", "--timeline-out", "{tmp}/t.json", "--timeline-cadence", "nan"],
             "--timeline-cadence"),
            (["doctor", "--config", "{tmp}/nan.json"], "canary period"),
        ],
        ids=["canary-nan", "watchdog-nan", "audit-canary-inf",
             "canary-deadline-inf", "cadence-zero", "cadence-nan", "doctor-nan"],
    )
    def test_fails_closed(self, argv, message, tmp_path, capsys):
        (tmp_path / "nan.json").write_text('{"pipeline": {"canary": {"period": NaN}}}')
        with pytest.raises(SystemExit) as exc:
            main([arg.format(tmp=tmp_path) for arg in argv])
        code = exc.value.code
        assert isinstance(code, str) and "\n" not in code  # exit status 1
        assert message in code and "finite" in code
        assert capsys.readouterr().out == ""


class TestAuditFlags:
    def test_clean_run_audit_exits_zero(self, capsys):
        rc = main([
            "perf", "--app", "memcached", "--ops", "300", "--audit",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "validation-plane audit (runtime)" in out
        assert "drift probe(s)" in out

    def test_chaos_run_audit_exits_one_with_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "audit.json"
        rc = main([
            "perf", "--app", "memcached", "--ops", "300", "--cores", "4",
            "--validator-faults", "hang=2",
            "--watchdog-deadline", "80e-6", "--queue-capacity", "16",
            "--audit", "--audit-out", str(artifact),
        ])
        assert rc == 1
        assert "drift-validator-pool" in capsys.readouterr().out
        payload = json.loads(artifact.read_text())
        assert payload["format"] == "orthrus-audit/1"
        assert payload["summary"]["errors"] >= 1
        capsys.readouterr()
        assert main(["obs-summary", str(artifact)]) == 1

    def test_fleet_audit_exits_zero_when_clean(self, capsys):
        rc = main([
            "fleet", "--hosts", "2", "--shards", "2", "--scale", "0.05",
            "--epochs", "24", "--ground-shards", "0", "--audit",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "validation-plane audit (fleet-drift)" in out
