"""Command-line front end: run experiments without pytest.

Usage (also exposed as the ``repro-bench`` console script)::

    python -m repro.cli list
    python -m repro.cli perf --app memcached --ops 2000
    python -m repro.cli coverage --app masstree --faults 32 --cores 2
    python -m repro.cli latency --app lsmtree --ops 2000
    python -m repro.cli perf --metrics-out run.json --trace-out run.jsonl
    python -m repro.cli perf --timeline-out timeline.json
    python -m repro.cli timeline timeline.json --stat p95
    python -m repro.cli obs-summary run.json

Each subcommand drives the same harness the benchmark suite uses and
prints a compact report; seeds make every invocation reproducible.
``--metrics-out`` / ``--trace-out`` enable the observability layer on the
Orthrus arm and save a metrics snapshot (JSON, or Prometheus text when the
path ends in ``.prom``) and a JSON-lines trace; ``obs-summary`` re-renders
a saved JSON snapshot as a table (or a ``.jsonl`` trace in total
``event_seq`` order).

``--timeline-out`` additionally attaches the time-series recorder to the
Orthrus arm and saves an ``orthrus-timeseries/1`` artifact; ``timeline``
renders such an artifact as terminal sparklines.  The paper's tables and
figures are not a subcommand: ``benchmarks/bench_*.py`` render them from
one definition each (``benchmarks/figures.py``).

``--validator-faults`` / ``--degradation`` on perf and latency give the Orthrus arm's validator loop the fault-tolerant policies (bounded
queues, watchdog re-dispatch, degradation ladder) and print the
conservation ledger; ``--ft-json`` saves the report, and a run whose
terminal degradation state is ``SAFE_HOLD`` exits nonzero (status 2).

``--spans-out`` records the causal span layer (closure.run → queue.wait →
dispatch → validate → verdict, plus chaos detours) and saves a Chrome
trace-event file; ``latency-attrib`` folds such a trace (or a metrics
snapshot's span histograms) into a per-stage waterfall with
reconciliation.  ``--canary-period`` on perf/latency injects known-corrupt
canary closures and reports validation-plane liveness; perf/latency, and
``obs-summary`` / ``timeline`` on a saved run, exit with status 3 when a
canary missed its deadline.

``fleet`` simulates a sharded fleet (hundreds of hosts, millions of
users) with per-shard validator pools and degradation ladders, fanned out
across OS processes; the merged run digest is byte-identical regardless
of ``--workers``.  ``--json`` saves the orthrus-fleet/1 rollup,
``--metrics-out`` / ``--timeline-out`` save the merged registry/timeline
in the standard formats, and a fleet with any shard ending in SAFE_HOLD
exits with status 2.

``doctor`` statically audits validation-plane configs (a JSON file with
``pipeline``/``fleet`` sections, or the stock defaults) for
contradictions — a quarantined-out validator pool, a watchdog deadline
outliving the fleet's SLO window, a sampler targeting unregistered
closures — and exits 1 when any ERROR-severity finding survives;
``--out`` saves the ``orthrus-audit/1`` artifact (``obs-summary`` renders
it).  ``--audit`` on perf/latency/fleet additionally attaches the
*runtime* drift monitor, which compares declared config against observed
behavior (verdict-producing cores, ledger residuals) and folds every
unvalidated log into the per-closure ``orthrus_exposure_seconds``
exposure ledger; ``--audit-out`` saves the payload.  Auditing is
observational: run digests are byte-identical with it on or off.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import types
import typing

from repro.errors import (
    ConfigurationError,
    ExitCode,
    FaultInjectionError,
    FleetExecutionError,
)
from repro.faultinject.campaign import FaultInjectionCampaign
from repro.faultinject.fleet_faults import FleetFaultPlan
from repro.fleet import FleetConfig, FleetConfigError, run_fleet
from repro.faultinject.config import InjectionConfig
from repro.faultinject.validator_faults import ValidatorChaosConfig
from repro.harness.phoenix import run_phoenix
from repro.harness.pipeline import (
    PipelineConfig,
    run_orthrus_server,
    run_rbv_server,
    run_vanilla_server,
)
from repro.harness.scenarios import (
    lsmtree_scenario,
    masstree_scenario,
    memcached_scenario,
    phoenix_scenario,
)
from repro.machine.units import Unit
from repro.obs import (
    AUDIT_FORMAT,
    AuditConfig,
    CanaryConfig,
    MetricsRegistry,
    Observability,
    TimeSeriesConfig,
    attribute,
    audit_fleet,
    audit_pipeline,
    console_summary,
    format_rate,
    format_seconds,
    load_metrics_json,
    load_spans_chrome,
    load_timeline,
    render_audit,
    render_sparkline,
    render_waterfall,
    stage_stats_from_registry,
    to_prometheus,
    write_metrics_json,
    write_spans_chrome,
    write_timeline_json,
    write_trace_jsonl,
)
from repro.runtime.degradation import FaultToleranceConfig
from repro.sim.metrics import slowdown
from repro.validation.queues import OVERFLOW_POLICIES
from repro.validation.watchdog import WatchdogConfig

#: app name → (scenario factory, orthrus runner, vanilla runner, rbv runner,
#:             default workload size)
_APPS = {
    "memcached": (memcached_scenario, None, None, None, 2000),
    "masstree": (masstree_scenario, None, None, None, 1500),
    "lsmtree": (lsmtree_scenario, None, None, None, 1500),
    "phoenix": (
        phoenix_scenario,
        functools.partial(run_phoenix, variant="orthrus"),
        functools.partial(run_phoenix, variant="vanilla"),
        functools.partial(run_phoenix, variant="rbv"),
        30000,
    ),
}


def _resolve(app: str):
    if app not in _APPS:
        raise SystemExit(f"unknown app {app!r}; choose from {', '.join(_APPS)}")
    factory, orthrus, vanilla, rbv, default_size = _APPS[app]
    return (
        factory(),
        orthrus or run_orthrus_server,
        vanilla or run_vanilla_server,
        rbv or run_rbv_server,
        default_size,
    )


def _workload_size(args, default: int) -> int:
    """``--ops``, or the app's default when it is not given; a size below
    one would run nothing and report it as a result."""
    if args.ops is None:
        return default
    if args.ops < 1:
        raise SystemExit(f"--ops: the workload size must be at least 1, got {args.ops}")
    return args.ops


def subcommand_names(parser=None) -> list[str]:
    """Registered subcommand names, in registration order.

    Derived from the parser itself (not a hand-kept list), so the
    ``list`` output and the help epilog can never drift from what
    ``add_parser`` actually registered.
    """
    parser = parser if parser is not None else build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return list(action.choices)
    return []


def cmd_list(_args) -> int:
    print("applications:")
    for name, (_, _, _, _, size) in _APPS.items():
        print(f"  {name:<10} (default workload size {size})")
    others = [name for name in subcommand_names() if name != "list"]
    print("\nsubcommands: " + ", ".join(others))
    return int(ExitCode.OK)


def _write_or_exit(path: str, content):
    """Write ``content`` to ``path`` — text, or a ``writer(path)`` callable,
    whose result is returned — ending the command with one line, not a
    traceback, when the path is unwritable."""
    try:
        if callable(content):
            return content(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise SystemExit(f"cannot write {path}: {exc}")


def _check_writable(*paths) -> None:
    """Fail before a run, not at export time — a bad path after a long
    campaign would throw the whole run away."""
    for path in paths:
        if path is not None:
            _write_or_exit(path, lambda p: open(p, "a", encoding="utf-8").close())


def _write_metrics(registry, path: str) -> None:
    """A metrics snapshot: Prometheus text for ``*.prom``, else JSON."""
    if path.endswith(".prom"):
        _write_or_exit(path, to_prometheus(registry))
    else:
        _write_or_exit(path, functools.partial(write_metrics_json, registry))
    print(f"metrics snapshot   : {path}")


def _json_text(payload, **options) -> str:
    return json.dumps(payload, indent=2, **options) + "\n"


def _make_obs(args) -> Observability | None:
    """An Observability handle when export flags ask for one, else None
    (the pipeline then runs fully uninstrumented)."""
    paths = (args.metrics_out, args.trace_out, getattr(args, "timeline_out", None),
             getattr(args, "spans_out", None))
    if all(path is None for path in paths):
        return None
    _check_writable(*paths)
    return Observability(trace=args.trace_out is not None)


def _export_obs(obs: Observability | None, args, run_metrics=None) -> None:
    """Write the snapshot/trace the flags requested and report the paths."""
    if obs is None:
        return
    if run_metrics is not None:
        run_metrics.export_to(obs.registry)
    if args.metrics_out is not None:
        _write_metrics(obs.registry, args.metrics_out)
    if args.trace_out is not None:
        written = _write_or_exit(args.trace_out, functools.partial(write_trace_jsonl, obs.tracer))
        print(f"trace events       : {written} -> {args.trace_out}")
    spans_out = getattr(args, "spans_out", None)
    if spans_out is not None:
        written = _write_or_exit(spans_out, functools.partial(write_spans_chrome, obs.spans))
        print(f"causal spans       : {written} -> {spans_out} "
              "(chrome trace; open in Perfetto)")


def _timeseries_config(args) -> TimeSeriesConfig | None:
    """The --timeline-out flag's TimeSeriesConfig for the Orthrus arm."""
    if getattr(args, "timeline_out", None) is None:
        return None
    try:
        return TimeSeriesConfig(cadence=args.timeline_cadence)
    except ValueError as exc:
        raise SystemExit(f"--timeline-cadence: {exc}")


def _report_timeline(result, args) -> None:
    """Save the timeline artifact.

    Defensive getattr: the phoenix harness returns its own result type
    without a timeline attribute.
    """
    timeline_out = getattr(args, "timeline_out", None)
    timeline = getattr(result, "timeline", None)
    if timeline_out is not None and timeline is None:
        print(f"timeline           : (the {type(result).__name__} runner "
              "does not attach the recorder; no artifact written)")
    if timeline_out is not None and timeline is not None:
        _write_or_exit(timeline_out, functools.partial(write_timeline_json, timeline))
        print(
            f"timeline           : {timeline.samples_taken} samples, "
            f"{len(timeline.summary())} series -> {timeline_out}"
        )


def _finish_canary(result) -> int:
    """Canary liveness rollup for a RunResult produced with --canary-period.

    Returns this run's exit-status contribution: 3 when a canary missed
    its detection deadline, else 0.
    """
    summary = getattr(result, "canary", None)
    if summary is None:
        print("canary liveness    : (runner does not attach the canary plane)")
        return int(ExitCode.OK)
    status = "ALARM" if summary["missed"] else "ok"
    print(
        f"canary liveness    : {status} — {summary['issued']} issued, "
        f"{summary['detected']} detected, {summary['missed']} missed "
        f"(deadline {format_seconds(summary['deadline'])})"
    )
    if summary["missed"]:
        print(
            "first canary miss  : "
            f"t={format_seconds(summary['first_missed_at'])} sim"
        )
    organic = result.runtime.report.count_organic()
    print(f"organic detections : {organic}")
    return int(ExitCode.CANARY_MISSED) if summary["missed"] else int(ExitCode.OK)


def _finish_fault_tolerance(result, args) -> int:
    """Print the chaos-plane report and save ``--ft-json``.

    Returns this run's exit-status contribution: 2 when the terminal
    degradation state is SAFE_HOLD (the run ended still holding
    externalizing closures), else 0.
    """
    ft = getattr(result, "ft", None)
    if ft is None:
        print("fault tolerance    : (runner does not attach the chaos plane)")
        return int(ExitCode.OK)
    ledger = ft.ledger
    print(
        f"log conservation   : {ledger['enqueued']} in = "
        f"{ledger['validated']} validated + {ledger['skipped']} skipped + "
        f"{ledger['dropped']} dropped + {ledger['fallback']} fallback "
        + ("(conserved)" if ft.conserved else "(NOT CONSERVED)")
    )
    print(
        f"watchdog           : {ft.timeouts} timeouts, "
        f"{ft.redispatches} re-dispatches, "
        f"{ft.exhausted} retry budgets exhausted"
    )
    if ft.queue_drops:
        print("queue drops        : " + ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(ft.queue_drops.items())
        ))
    if ft.faulted_cores:
        print("armed faults       : " + ", ".join(
            f"{kind}={cores}"
            for kind, cores in sorted(ft.faulted_cores.items())
        ))
    if ft.quarantined_validators:
        print(f"quarantined cores  : {ft.quarantined_validators}")
    print(
        f"degradation        : peak {ft.peak_level}, "
        f"terminal {ft.terminal_level}"
    )
    if getattr(args, "ft_json", None) is not None:
        _write_or_exit(args.ft_json, _json_text(ft.summary()))
        print(f"fault-tolerance out: {args.ft_json}")
    if ft.terminal_level == "safe-hold":
        print("verdict            : run ended in SAFE_HOLD")
        return int(ExitCode.SAFE_HOLD)
    return int(ExitCode.OK)


def _finish_audit(result, args) -> int:
    """Print/save the run's ``orthrus-audit/1`` drift payload.

    Returns the exit-status contribution: FAILURE when the audit found
    ERROR-severity drift, else OK.  A no-op unless an audit flag was
    passed.
    """
    if not (getattr(args, "audit", False) or getattr(args, "audit_out", None)):
        return int(ExitCode.OK)
    payload = getattr(result, "audit", None)
    if payload is None:
        print("audit              : (runner does not attach the drift monitor)")
        return int(ExitCode.OK)
    print(render_audit(payload))
    out = getattr(args, "audit_out", None)
    if out is not None:
        _write_or_exit(out, _json_text(payload, sort_keys=True))
        print(f"audit artifact     : {out}")
    errors = payload.get("summary", {}).get("errors", 0)
    return int(ExitCode.FAILURE) if errors else int(ExitCode.OK)


# ----------------------------------------------------------------------
# config specs: run flags and doctor JSON decode through one path
# ----------------------------------------------------------------------

_JSON_TYPES = {dict: "object", list: "array", tuple: "array", str: "string",
               bool: "boolean", int: "integer", float: "number",
               type(None): "null"}


def _spec_error(path: str, expected: str, value) -> ConfigurationError:
    return ConfigurationError(
        f"{path}: expected {expected}, got {_JSON_TYPES[type(value)]}"
    )


@functools.cache
def _field_hints(cls) -> dict:
    """Field name → resolved type, for a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _decode_object(spec, path: str, hints: dict) -> dict:
    """Keyword arguments from the object ``spec``: each key must be in
    ``hints`` and its value of that type."""
    if type(spec) is not dict:
        raise _spec_error(path, "object", spec)
    unknown = ", ".join(f"{path}.{key}" for key in sorted(set(spec) - set(hints)))
    if unknown:
        raise ConfigurationError(
            f"unknown {path.split('.')[0]} key(s): {unknown} "
            f"(expected: {', '.join(sorted(hints))})"
        )
    return {k: _decode_value(v, hints[k], f"{path}.{k}") for k, v in spec.items()}


def _decode_value(value, hint, path: str):
    """``value`` (parsed JSON or flag) as type ``hint``: an int refuses
    bool, float, str and null; a float also takes an int; a tuple takes a
    list; a config dataclass takes an object of its fields (or of its
    ``from_dict`` form)."""
    if typing.get_origin(hint) is types.UnionType:  # X | None
        inner = next(h for h in typing.get_args(hint) if h is not type(None))
        return None if value is None else _decode_value(value, inner, path)
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        variadic = args[-1] is Ellipsis
        if type(value) not in (list, tuple) or (
            not variadic and len(value) != len(args)
        ):
            raise _spec_error(
                path, "array" if variadic else f"array of {len(args)}", value
            )
        items = args[:1] * len(value) if variadic else args
        return tuple(_decode_value(v, h, f"{path}[{i}]")
                     for i, (v, h) in enumerate(zip(value, items)))
    if dataclasses.is_dataclass(hint):
        from_dict = getattr(hint, "from_dict", None)
        if from_dict is None:
            value = _decode_object(value, path, _field_hints(hint))
        elif type(value) is not dict:
            raise _spec_error(path, "object", value)
        try:
            return hint(**value) if from_dict is None else from_dict(value)
        except (ConfigurationError, FaultInjectionError) as exc:
            raise ConfigurationError(f"{path}: {exc}") from None
    if hint is float and type(value) is int:
        value = float(value)
    if type(value) is not hint:
        raise _spec_error(path, _JSON_TYPES[hint], value)
    return value


#: the keys a pipeline spec may set: the doctor ``pipeline`` section and
#: what run flags lower to.  ``validator_faults`` holds KIND=N chaos specs,
#: seeded by ``seed``, and implies ``fault_tolerance``, whose fields
#: _decode_fault_tolerance reads
_PIPELINE_SPEC = {
    "app_threads": int, "validation_cores": int, "seed": int,
    "dynamic_scaling": bool, "drain_grace_fraction": float,
    "sampler_targets": tuple[str, ...], "canary": CanaryConfig,
    "audit": AuditConfig, "fault_tolerance": dict,
    "validator_faults": tuple[str, ...],
}

#: flag dest → the pipeline spec key it lowers to; a switch lowering to
#: a section turns that section on with its defaults
_PIPELINE_FLAGS = {
    "threads": "app_threads",
    "cores": "validation_cores",
    "seed": "seed",
    "grace": "drain_grace_fraction",
    "sampler_target": "sampler_targets",
    "canary_period": "canary.period",
    "canary_deadline": "canary.deadline",
    "queue_capacity": "fault_tolerance.queue_capacity",
    "overflow_policy": "fault_tolerance.overflow_policy",
    "watchdog_deadline": "fault_tolerance.watchdog_deadline",
    "validator_faults": "validator_faults",
    "degradation": "fault_tolerance",
    "audit": "audit",
    "audit_out": "audit",
}


def _lower_flags(args, spec: dict) -> dict:
    """Overlay the pipeline flags in ``args`` on ``spec`` (a doctor
    ``pipeline`` section, or ``{}`` for a run) as spec entries, so a flag
    and its JSON key build the same object."""
    for dest, key in _PIPELINE_FLAGS.items():
        value = getattr(args, dest, None)
        if value is None or value is False:
            continue
        if key in ("fault_tolerance", "audit"):
            spec.setdefault(key, {})
            continue
        section, _, leaf = key.rpartition(".")
        target = spec.setdefault(section, {}) if section else spec
        if type(target) is not dict:
            raise _spec_error(f"pipeline.{section}", "object", target)
        if type(value) is list and leaf in target:  # repeatable: append
            value = _decode_value(
                target[leaf], _PIPELINE_SPEC[leaf], f"pipeline.{leaf}"
            ) + tuple(value)
        target[leaf] = value
    return spec


def _decode_fault_tolerance(spec, path: str) -> FaultToleranceConfig:
    """FaultToleranceConfig's fields plus a ``watchdog_deadline``
    shorthand.  Unless the spec sets ``check_interval``, a watchdog it sets
    is swept at min(default, deadline / 8): a tight deadline needs a tick
    fast enough to notice it expire."""
    hints = {**_field_hints(FaultToleranceConfig), "watchdog_deadline": float}
    kwargs = _decode_object(spec, path, hints)
    if "watchdog_deadline" in kwargs:
        kwargs["watchdog"] = dataclasses.replace(
            kwargs.get("watchdog", WatchdogConfig()),
            deadline=kwargs.pop("watchdog_deadline"),
        )
    if "watchdog" in kwargs:
        kwargs.setdefault("check_interval", min(
            FaultToleranceConfig.check_interval, kwargs["watchdog"].deadline / 8
        ))
    return FaultToleranceConfig(**kwargs)


def _decode_pipeline(spec, **fixed) -> PipelineConfig:
    """The PipelineConfig a pipeline spec describes.  ``fixed`` holds a
    command's attachments with no JSON form (obs, timeseries) and its
    fixed choices; they override the spec."""
    kwargs = _decode_object(spec, "pipeline", _PIPELINE_SPEC)
    faults = kwargs.pop("validator_faults", ())
    if faults:
        kwargs.setdefault("fault_tolerance", {})
        try:
            kwargs["validator_faults"] = ValidatorChaosConfig.parse(
                list(faults), seed=kwargs.get("seed", PipelineConfig.seed)
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"pipeline.validator_faults: {exc}") from None
    if "fault_tolerance" in kwargs:
        kwargs["fault_tolerance"] = _decode_fault_tolerance(
            kwargs["fault_tolerance"], "pipeline.fault_tolerance"
        )
    return PipelineConfig(**{**kwargs, **fixed})


def _decode_fleet(spec, **fixed) -> FleetConfig:
    """The FleetConfig a fleet spec describes: any field but ``costs``,
    which has no JSON form.  ``fixed`` holds already-built fields."""
    hints = {k: v for k, v in _field_hints(FleetConfig).items() if k != "costs"}
    return FleetConfig(**{**_decode_object(spec, "fleet", hints), **fixed})


def _run_config(spec: dict, **fixed) -> PipelineConfig:
    """A run's PipelineConfig.  A run also refuses an empty application or
    validator pool and a watchdog that could never fire, which ``doctor``
    reports as findings instead."""
    try:
        config = _decode_pipeline(spec, **fixed)
        for field, needed in (("app_threads", "application"),
                              ("validation_cores", "validation")):
            if getattr(config, field) < 1:
                raise ConfigurationError(
                    f"pipeline.{field}: a run needs at least one {needed} "
                    f"core, got {getattr(config, field)}"
                )
        if config.fault_tolerance is not None:
            config.fault_tolerance.watchdog.validate()
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    return config


def _doctor_configs(args) -> tuple[PipelineConfig, FleetConfig | None]:
    """What ``doctor`` audits: the --config sections with its flags lowered
    on top, decoded as a run decodes its flags."""
    spec: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                spec = json.load(fh)
        except OSError as exc:
            raise SystemExit(f"cannot read {args.config}: {exc}")
        except ValueError as exc:
            raise SystemExit(f"{args.config} is not valid JSON: {exc}")
        if not isinstance(spec, dict):
            raise SystemExit(
                f"{args.config}: expected a JSON object with "
                "'pipeline' and/or 'fleet' sections"
            )
        unknown = sorted(set(spec) - {"pipeline", "fleet"})
        if unknown:
            raise SystemExit(
                f"{args.config}: unknown section(s) {', '.join(unknown)} "
                "(expected 'pipeline' and/or 'fleet')"
            )
    try:
        pipeline_spec = _decode_value(spec.get("pipeline", {}), dict, "pipeline")
        pipeline = _decode_pipeline(_lower_flags(args, pipeline_spec))
        fleet = _decode_fleet(spec["fleet"]) if "fleet" in spec else None
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    return pipeline, fleet


def cmd_doctor(args) -> int:
    """Static validation-plane audit: cross-check declared configs for
    contradictions *before* anything runs (ROADMAP item 5)."""
    pipeline, fleet_config = _doctor_configs(args)
    report = audit_pipeline(pipeline)
    if fleet_config is not None:
        report.merge(audit_fleet(fleet_config))
    elif args.config is None:
        # Bare `doctor`: vet the stock fleet defaults too, so one
        # invocation audits everything the CLI would run unflagged.
        report.merge(audit_fleet(FleetConfig()))
    payload = report.to_json()
    if args.out is not None:
        _write_or_exit(args.out, _json_text(payload, sort_keys=True))
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_audit(payload))
        if args.out is not None:
            print(f"audit artifact     : {args.out}")
    return int(ExitCode.OK) if report.ok else int(ExitCode.FAILURE)


def _arm_configs(args):
    """(baseline config factory, Orthrus-arm config) for perf/latency.

    The vanilla and RBV arms run bare; every observer, policy and fault
    flag applies to the Orthrus arm alone.
    """
    obs = _make_obs(args)  # opens the export paths first: fail before any run
    spec = _lower_flags(args, {})
    base = {key: spec[key] for key in ("app_threads", "validation_cores", "seed")}
    orthrus = _run_config(spec, obs=obs, timeseries=_timeseries_config(args))
    return lambda: _run_config(base), orthrus


def _finish_orthrus_arm(result, config: PipelineConfig, args) -> int:
    """Print the Orthrus arm's canary, fault-tolerance and audit reports,
    save its artifacts, and return the first nonzero exit status in that
    order (SAFE_HOLD, CANARY_MISSED, audit FAILURE)."""
    canary_rc = _finish_canary(result) if config.canary is not None else 0
    ft_rc = (
        _finish_fault_tolerance(result, args)
        if config.fault_tolerance is not None else 0
    )
    audit_rc = _finish_audit(result, args)
    _report_timeline(result, args)
    _export_obs(config.obs, args, result.metrics)
    return ft_rc or canary_rc or audit_rc


def cmd_perf(args) -> int:
    scenario, orthrus, vanilla, rbv, default_size = _resolve(args.app)
    size = _workload_size(args, default_size)
    plain, config = _arm_configs(args)
    v = vanilla(scenario, size, plain())
    o = orthrus(scenario, size, config)
    r = rbv(scenario, size, plain())
    if args.app == "phoenix":
        base = v.metrics.duration
        print(f"vanilla job time : {base * 1e3:.3f} ms")
        print(f"orthrus overhead : {100 * (o.metrics.duration / base - 1):.1f}%")
        print(f"rbv overhead     : {100 * (r.metrics.duration / base - 1):.1f}%")
    else:
        print(f"vanilla throughput : {format_rate(v.metrics.throughput)}")
        print(f"orthrus overhead   : {100 * slowdown(v.metrics.throughput, o.metrics.throughput):.1f}%")
        print(f"rbv overhead       : {100 * slowdown(v.metrics.throughput, r.metrics.throughput):.1f}%")
    print(f"orthrus memory ovh : {100 * o.metrics.memory_overhead:.1f}%")
    print(f"validated/skipped  : {o.metrics.validated}/{o.metrics.skipped}")
    return _finish_orthrus_arm(o, config, args)


def cmd_latency(args) -> int:
    scenario, orthrus, _vanilla, rbv, default_size = _resolve(args.app)
    size = _workload_size(args, default_size)
    plain, config = _arm_configs(args)
    o = orthrus(scenario, size, config)
    r = rbv(scenario, size, plain())
    ol, rl = o.metrics.validation_latency, r.metrics.validation_latency
    print(f"orthrus validation latency : mean {ol.mean * 1e6:.2f} us, p95 {ol.p95 * 1e6:.2f} us")
    print(f"rbv validation latency     : mean {rl.mean * 1e6:.2f} us, p95 {rl.p95 * 1e6:.2f} us")
    if ol.mean > 0:
        print(f"ratio                      : {rl.mean / ol.mean:.0f}x")
    return _finish_orthrus_arm(o, config, args)


def cmd_coverage(args) -> int:
    scenario, orthrus, _vanilla, rbv, default_size = _resolve(args.app)
    size = _workload_size(args, default_size)
    try:
        injection = InjectionConfig(
            n_faults=args.faults, seed=args.seed, trigger_rate=args.trigger_rate
        )
    except FaultInjectionError as exc:
        raise SystemExit(f"--faults/--trigger-rate: {exc}")
    spec = _lower_flags(args, {})
    _run_config(spec)  # refuse a bad pipeline before the campaign profiles
    obs = _make_obs(args)
    campaign = FaultInjectionCampaign(
        scenario,
        workload_size=size,
        injection=injection,
        # All trials share the handle, so the export aggregates the
        # whole campaign (per-trial traces interleave in trial order).
        make_pipeline=lambda: _run_config(spec, obs=obs),
        runner=orthrus,
        rbv_runner=rbv if args.rbv else None,
    )
    result = campaign.run()
    outcomes = result.outcome_counts()
    print(f"profiled sites : {len(result.profiled_sites)}")
    print(
        "outcomes       : "
        + ", ".join(f"{kind.value}={count}" for kind, count in outcomes.items())
    )
    for unit in Unit:
        row = result.coverage_table()[unit]
        if row.total_sdcs == 0:
            continue
        rbv_part = (
            f", rbv {row.rbv_detected}/{row.total_sdcs}"
            if row.rbv_detected is not None
            else ""
        )
        print(
            f"  {unit.value:<6}: {row.total_sdcs} SDCs, "
            f"orthrus {row.orthrus_detected}/{row.total_sdcs}{rbv_part}"
        )
    print(f"detection rate : {result.detection_rate:.1%}")
    accuracy = result.attribution_accuracy
    if accuracy is not None:
        print(
            f"attribution    : {accuracy:.1%} of detected trials "
            "implicated the armed core"
        )
    _export_obs(obs, args)
    return int(ExitCode.OK)


def _summarize_trace_jsonl(path: str) -> int:
    """Render a saved trace in total post-hoc order (sorted by event_seq;
    ties and legacy traces without the field fall back to timestamp)."""
    events = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except ValueError as exc:
                    raise SystemExit(f"{path}:{lineno} is not valid JSON: {exc}")
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    events.sort(key=lambda e: (e.get("event_seq", 0), e.get("ts", 0.0)))
    by_kind: dict[str, int] = {}
    for event in events:
        by_kind[event.get("kind", "?")] = by_kind.get(event.get("kind", "?"), 0) + 1
        seq = event.get("event_seq", "?")
        ts = event.get("ts", 0.0)
        rest = " ".join(
            f"{key}={value}"
            for key, value in event.items()
            if key not in ("event_seq", "ts", "kind")
        )
        print(f"#{seq:>6} t={ts:.9f} {event.get('kind', '?'):<24} {rest}")
    print(f"-- {len(events)} events, " +
          ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items())))
    missed = by_kind.get("canary.missed", 0)
    if missed:
        print(f"canary liveness    : ALARM — {missed} canary.missed event(s)")
        return int(ExitCode.CANARY_MISSED)
    return int(ExitCode.OK)


def _canary_status_from_registry(registry) -> int:
    """Print canary liveness from a reloaded registry; the exit-status
    contribution is 3 when the run recorded a missed canary."""
    issued = sum(
        child.value for _, child in registry.series("orthrus_canary_issued_total")
    )
    if not issued:
        return int(ExitCode.OK)
    detected = sum(
        child.value
        for _, child in registry.series("orthrus_canary_detected_total")
    )
    missed = sum(
        child.value for _, child in registry.series("orthrus_canary_missed_total")
    )
    status = "ALARM" if missed else "ok"
    print(
        f"canary liveness: {status} — {issued:.0f} issued, "
        f"{detected:.0f} detected, {missed:.0f} missed"
    )
    return int(ExitCode.CANARY_MISSED) if missed else int(ExitCode.OK)


def _fleet_config(args) -> FleetConfig:
    """The FleetConfig ``fleet`` runs: its field flags decoded as a doctor
    ``fleet`` section is, plus the quarantine and chaos flags, which keep
    their own parsers."""
    quarantined = []
    for spec in args.quarantine or ():
        try:
            host, core = spec.split(":", 1)
            quarantined.append((int(host), int(core)))
        except ValueError:
            raise SystemExit(
                f"bad --quarantine {spec!r}; expected HOST:CORE (two ints)"
            )
    try:
        faults = FleetFaultPlan.parse(
            crashes=args.host_crash or (),
            partitions=args.partition or (),
            degradations=args.degrade_link or (),
            stragglers=args.straggle or (),
        )
        if args.chaos_crashes or args.chaos_partitions:
            faults = faults.merge(FleetFaultPlan.generate(
                hosts=args.hosts,
                epochs=args.epochs,
                crashes=args.chaos_crashes,
                partitions=args.chaos_partitions,
                seed=args.chaos_seed,
            ))
    except FaultInjectionError as exc:
        raise SystemExit(str(exc))
    spec = {field: getattr(args, field) for _, field, _ in _FLEET_FLAGS if field}
    try:
        return _decode_fleet(
            {**spec, "quarantined": quarantined},
            faults=None if faults.empty else faults,
        )
    except ConfigurationError as exc:
        raise SystemExit(str(exc))


def cmd_fleet(args) -> int:
    config = _fleet_config(args)
    _check_writable(args.json, args.events_out, args.metrics_out, args.timeline_out)
    faults = config.faults
    if faults is not None:
        print(
            f"chaos plan         : {len(faults.crashes)} crash(es), "
            f"{len(faults.partitions)} partition(s), "
            f"{len(faults.degradations)} degradation(s), "
            f"{len(faults.stragglers)} straggler window(s) "
            f"[digest {faults.digest()[:16]}…]"
        )
    try:
        report = run_fleet(
            config,
            workers=args.workers,
            group_timeout_s=args.group_timeout,
        )
    except FleetConfigError as exc:
        print(str(exc), file=sys.stderr)
        return int(ExitCode.FAILURE)
    except FleetExecutionError as exc:
        print(f"fleet DEGRADED     : {exc}", file=sys.stderr)
        for record in exc.outcomes:
            print(
                f"  group {record['group']} ({record['status']}): "
                f"{record['failure']} — {record['error']}",
                file=sys.stderr,
            )
        return int(ExitCode.DEGRADED_FLEET)
    print(report.render())
    audit_rc = _finish_audit(report, args)
    if args.json is not None:
        _write_or_exit(args.json, _json_text(report.to_json(), sort_keys=True))
        print(f"fleet rollup       : {args.json}")
    if args.events_out is not None:
        _write_or_exit(args.events_out, "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in report.events
        ))
        print(f"fleet events       : {len(report.events)} -> {args.events_out}")
    if args.metrics_out is not None:
        _write_metrics(report.registry, args.metrics_out)
    if args.timeline_out is not None:
        _write_or_exit(args.timeline_out, functools.partial(write_timeline_json, report.timeline))
        print(f"timeline artifact  : {args.timeline_out}")
    if report.degraded:
        # partial results outrank SAFE_HOLD: the operator must know the
        # report itself is incomplete before trusting any gate on it
        lost = [r for r in report.fan_out if r["status"] == "lost"]
        missing = report.rollup["conservation"]["missing_shards"]
        print(
            f"fleet DEGRADED     : {len(lost)} host group(s) lost, "
            f"{len(missing)} shard(s) missing from the merge",
            file=sys.stderr,
        )
        return int(ExitCode.DEGRADED_FLEET)
    if report.safe_hold:
        held = report.rollup["degradation"]["safe_hold_shards"]
        print(
            f"fleet SAFE_HOLD    : {len(held)} shard(s) cannot vouch for "
            f"results ({', '.join(held[:8])}{'…' if len(held) > 8 else ''})",
            file=sys.stderr,
        )
        return int(ExitCode.SAFE_HOLD)
    return audit_rc


def cmd_obs_summary(args) -> int:
    if args.path.endswith(".jsonl"):
        return _summarize_trace_jsonl(args.path)
    try:
        snapshot = load_metrics_json(args.path)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.path}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"{args.path} is not valid JSON: {exc}")
    if isinstance(snapshot, dict) and snapshot.get("format") == AUDIT_FORMAT:
        print(render_audit(snapshot))
        errors = snapshot.get("summary", {}).get("errors", 0)
        return int(ExitCode.FAILURE) if errors else int(ExitCode.OK)
    if not isinstance(snapshot, dict) or snapshot.get("format") != "orthrus-metrics/1":
        raise SystemExit(
            f"{args.path} is not an orthrus-metrics/1 snapshot "
            "(expected the JSON written by --metrics-out)"
        )
    if args.format == "prom":
        print(to_prometheus(snapshot), end="")
        return int(ExitCode.OK)
    print(console_summary(snapshot), end="")
    registry = MetricsRegistry.from_snapshot(snapshot)
    stages = stage_stats_from_registry(registry)
    if stages:
        print("\nper-stage latency waterfall (orthrus_span_stage_seconds):")
        print(render_waterfall(stages), end="")
    return _canary_status_from_registry(registry)


_TIMELINE_STATS = ("count", "mean", "min", "max", "p50", "p95", "last")


def cmd_timeline(args) -> int:
    try:
        series_map = load_timeline(args.path)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.path}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"{args.path}: {exc}")
    canary_missed = series_map.get("canary_missed")
    if args.series:
        missing = [name for name in args.series if name not in series_map]
        if missing:
            raise SystemExit(
                f"series not in artifact: {', '.join(missing)} "
                f"(have: {', '.join(series_map)})"
            )
        series_map = {name: series_map[name] for name in args.series}
    if args.format == "jsonl":
        for series in series_map.values():
            for t, value in series.values(args.stat):
                print(json.dumps(
                    {"series": series.name, "t": t,
                     "stat": args.stat, "value": value}
                ))
        if canary_missed is not None and canary_missed.summary()["max"]:
            return int(ExitCode.CANARY_MISSED)
        return int(ExitCode.OK)
    width = max(len(name) for name in series_map) if series_map else 0
    for series in series_map.values():
        points = [value for _, value in series.values(args.stat)]
        if args.format == "table":
            stats = series.summary()
            print(f"{series.name.ljust(width)}  " + "  ".join(
                f"{stat}={stats[stat]:.4g}" for stat in _TIMELINE_STATS
            ))
            continue
        spark = render_sparkline(points, width=args.width)
        low = f"{min(points):.3g}" if points else "-"
        high = f"{max(points):.3g}" if points else "-"
        unit = f" {series.unit}" if series.unit else ""
        print(
            f"{series.name.ljust(width)}  {spark}  "
            f"[{low}, {high}]{unit} ({series.total_samples} samples)"
        )
    if canary_missed is not None:
        missed = canary_missed.summary()["max"]
        status = "ALARM" if missed else "ok"
        print(f"canary liveness: {status} — {missed:.0f} missed")
        if missed:
            return int(ExitCode.CANARY_MISSED)
    return int(ExitCode.OK)


def cmd_latency_attrib(args) -> int:
    """Decompose a saved run's detection latency into causal stages.

    Accepts either a Chrome trace from ``--spans-out`` (full per-chain
    attribution with reconciliation) or an ``orthrus-metrics/1`` snapshot
    from ``--metrics-out`` (per-stage waterfall only — the histogram
    family survives even after the span buffer is gone).
    """
    try:
        with open(args.path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.path}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"{args.path} is not valid JSON: {exc}")
    if isinstance(payload, dict) and payload.get("format") == "orthrus-metrics/1":
        registry = MetricsRegistry.from_snapshot(payload)
        stages = stage_stats_from_registry(registry)
        if not stages:
            raise SystemExit(
                f"{args.path} has no orthrus_span_stage_seconds family "
                "(was the run made with spans enabled?)"
            )
        print(f"per-stage latency waterfall ({args.path}):")
        print(render_waterfall(stages), end="")
        print("(snapshot input: no per-chain reconciliation; use a "
              "--spans-out trace for that)")
        return int(ExitCode.OK)
    try:
        spans = load_spans_chrome(args.path)
    except ValueError as exc:
        raise SystemExit(f"{args.path}: {exc}")
    attr = attribute(spans)
    e2e = attr.end_to_end()
    print(
        f"causal chains      : {attr.chain_count} "
        f"({e2e.count} verdict-terminated)"
    )
    print(
        f"end-to-end latency : p50 {format_seconds(e2e.p50)}, "
        f"p95 {format_seconds(e2e.p95)}, p99 {format_seconds(e2e.p99)}, "
        f"max {format_seconds(e2e.max)}"
    )
    recon = attr.reconciliation()
    print(
        "reconciliation     : stage sums vs end-to-end, max residual "
        f"{format_seconds(recon['max_residual'])} across "
        f"{recon['chains']} chains "
        + ("(reconciled)" if recon["reconciled"] else "(NOT RECONCILED)")
    )
    print()
    print(render_waterfall(attr.stages()), end="")
    if args.by_level:
        for level, stages in attr.by_level().items():
            print(f"\ndegradation level: {level}")
            print(render_waterfall(stages), end="")
    if args.by_closure:
        for closure, stages in attr.by_closure().items():
            print(f"\nclosure: {closure or '(unnamed)'}")
            print(render_waterfall(stages), end="")
    return (
        int(ExitCode.OK) if recon["reconciled"] else int(ExitCode.FAILURE)
    )


#: every ``fleet`` flag, in --help order.  A row naming a FleetConfig
#: field takes that field's type and default and lands on its name;
#: the others spell out their own.
_FLEET_FLAGS = (
    ("--hosts", "hosts", {}),
    ("--shards", "shards", {}),
    ("--cores-per-host", "cores_per_host",
     dict(metavar="N", help="cores per host (default: %(default)s)")),
    ("--validators", "validators_per_shard",
     dict(metavar="N", help="validator cores per shard (default: %(default)s)")),
    ("--app-cores", "app_cores_per_shard",
     dict(metavar="N", help="application cores per shard (default: %(default)s)")),
    ("--vnodes", "vnodes",
     dict(metavar="N", help="ring partitions per shard (default: %(default)s)")),
    ("--keys", "keys", dict(help="versioned keys placed on the ring")),
    ("--users", "users", dict(help="simulated users")),
    ("--ops-per-user", "ops_per_user", {}),
    ("--scale", "scale",
     dict(help="multiplier on keys/users (CI smoke passes 0.1)")),
    ("--epochs", "epochs", dict(help="validation epochs to simulate")),
    ("--workers", None, dict(
        type=int, default=1, metavar="N",
        help="OS processes to fan host groups across (digest is "
        "byte-identical for any value)")),
    ("--load-factor", "load_factor", dict(
        help="demand multiplier vs provisioned validator capacity "
        "(overload knob; high values walk shards to SAFE_HOLD)")),
    ("--min-coverage", "min_coverage", dict(
        metavar="FRAC",
        help="must-validate floor per shard: the fraction of offered logs "
        "the sampler may never shed (the rest queues under overload)")),
    ("--queue-capacity", "queue_capacity", dict(
        metavar="LOGS",
        help="per-shard validation queue depth before overflow drops")),
    ("--mercurial-rate", "mercurial_rate",
     dict(metavar="P", help="probability any core is silently defective")),
    ("--corruption-rate", "corruption_rate",
     dict(metavar="P", help="per-op corruption probability on a defective core")),
    ("--quarantine", None, dict(
        action="append", default=None, metavar="HOST:CORE",
        help="pre-quarantine a core (repeatable; topology checks reject "
        "a shard whose whole validator pool is quarantined)")),
    ("--watchdog-deadline", "watchdog_deadline", dict(metavar="SIM_S")),
    ("--slo-window", "slo_window", dict(
        metavar="SIM_S", help="SLO window the watchdog deadline must fit inside")),
    ("--ground-shards", "ground_shards", dict(
        metavar="N",
        help="shards that also run the real DES memcached/lsmtree server")),
    ("--host-crash", None, dict(
        action="append", default=None, metavar="HOST@EPOCH[+RESTART]",
        help="crash a host at an epoch, optionally restarting after "
        "RESTART epochs (repeatable; its shards re-home via the ring "
        "and re-admit through a probation window)")),
    ("--partition", None, dict(
        action="append", default=None, metavar="A-B@EPOCH+DURATION",
        help="sever the link between a host pair for a window "
        "(repeatable; RBV spill reroutes or falls back to checksum-only)")),
    ("--degrade-link", None, dict(
        action="append", default=None, metavar="A-B@EPOCH+DURATION[:FACTOR]",
        help="slow the link between a host pair by FACTOR "
        "(default 4.0) for a window (repeatable)")),
    ("--straggle", None, dict(
        action="append", default=None, metavar="H1,H2@EPOCH+DURATION[:FACTOR]",
        help="run a host group at FACTOR validator capacity "
        "(default 0.5) for a window (repeatable)")),
    ("--chaos-crashes", None, dict(
        type=int, default=0, metavar="N",
        help="additionally generate N seeded host crashes "
        "(deterministic in --chaos-seed)")),
    ("--chaos-partitions", None, dict(
        type=int, default=0, metavar="N",
        help="additionally generate N seeded spill-link partitions")),
    ("--chaos-seed", None, dict(
        type=int, default=0,
        help="seed for the generated chaos batch (default: %(default)s)")),
    ("--failover-retry-budget", "failover_retry_budget", dict(
        metavar="N",
        help="re-dispatch attempts for a dead host's re-homed backlog "
        "(capped-exponential backoff; default: %(default)s)")),
    ("--failover-backoff", "failover_backoff_epochs", dict(
        metavar="EPOCHS",
        help="base backoff before the first re-dispatch attempt "
        "(default: %(default)s)")),
    ("--probation-epochs", "probation_epochs", dict(
        metavar="EPOCHS",
        help="clean epochs a restarted host idles before re-admission "
        "(default: %(default)s)")),
    ("--group-timeout", None, dict(
        type=float, default=None, metavar="S",
        help="per-host-group wall-clock deadline for the supervised "
        "fan-out (default: none)")),
    ("--seed", "seed", {}),
    ("--json", None, dict(
        default=None, metavar="PATH",
        help="save the orthrus-fleet/1 rollup (digest, coverage, census)")),
    ("--events-out", None, dict(
        default=None, metavar="PATH",
        help="save the merged, totally-ordered event stream as JSON lines")),
    ("--metrics-out", None, dict(
        default=None, metavar="PATH",
        help="save the merged fleet registry (orthrus-metrics/1; "
        "Prometheus text when PATH ends in .prom)")),
    ("--timeline-out", None, dict(
        default=None, metavar="PATH",
        help="save the merged fleet timeline (orthrus-timeseries/1)")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run Orthrus-reproduction experiments from the command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list applications and subcommands")

    def audit_flags(p):
        p.add_argument(
            "--audit", action="store_true",
            help="attach the runtime drift monitor (declared config vs "
            "observed behavior) and print the orthrus-audit/1 report; "
            "exits 1 on ERROR-severity drift",
        )
        p.add_argument(
            "--audit-out", default=None, metavar="PATH",
            help="save the orthrus-audit/1 drift payload (implies --audit)",
        )

    def common(p):
        p.add_argument("--app", default="memcached", help="application to drive")
        p.add_argument("--ops", type=int, default=None, help="workload size")
        p.add_argument("--threads", type=int, default=2, help="application threads")
        p.add_argument("--cores", type=int, default=2, help="validation cores")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help="enable observability and save a metrics snapshot "
            "(JSON; Prometheus text when PATH ends in .prom)",
        )
        p.add_argument(
            "--trace-out", default=None, metavar="PATH",
            help="enable tracing and save a JSON-lines event trace",
        )
        p.add_argument(
            "--spans-out", default=None, metavar="PATH",
            help="enable causal span tracing and save a Chrome trace-event "
            "file (loadable in Perfetto / chrome://tracing, and by the "
            "latency-attrib subcommand)",
        )

    def canary_flags(p):
        p.add_argument(
            "--canary-period", type=float, default=None, metavar="SIM_S",
            help="inject a known-corrupt canary closure every SIM_S "
            "virtual seconds and track validation-plane liveness",
        )
        p.add_argument(
            "--canary-deadline", type=float, default=None, metavar="SIM_S",
            help="detection deadline per canary before a canary.missed "
            "incident is raised (default: 3x the period); implies "
            "--canary-period",
        )

    def timeline_flags(p):
        p.add_argument(
            "--timeline-out", default=None, metavar="PATH",
            help="attach the time-series recorder to the Orthrus arm and "
            "save an orthrus-timeseries/1 artifact",
        )
        p.add_argument(
            "--timeline-cadence", type=float, default=5e-6, metavar="SIM_S",
            help="sampling cadence in sim-seconds (default: %(default)g)",
        )

    def fault_tolerance_flags(p):
        p.add_argument(
            "--validator-faults", action="append", default=None,
            metavar="KIND=N",
            help="arm chaos faults against the validation plane itself "
            "(crash|hang|slowdown|verdict-loss; N < 1 is a fraction of "
            "the validation cores, N >= 1 a core count); repeatable, "
            "selects the fault-tolerant plane policies for the Orthrus arm",
        )
        p.add_argument(
            "--degradation", action="store_true",
            help="enable the fault-tolerant validation plane (bounded "
            "queues, watchdog re-dispatch, NORMAL->DEGRADED->"
            "CHECKSUM_ONLY->SAFE_HOLD ladder) even with no faults armed",
        )
        p.add_argument(
            "--queue-capacity", type=int, default=None, metavar="N",
            help="bounded per-validator queue capacity (default: 64); "
            "implies --degradation",
        )
        p.add_argument(
            "--overflow-policy", choices=sorted(OVERFLOW_POLICIES),
            default=None,
            help="bounded-queue overflow policy (default: drop-oldest); "
            "implies --degradation",
        )
        p.add_argument(
            "--watchdog-deadline", type=float, default=None, metavar="SIM_S",
            help="virtual-time deadline per dispatched log before the "
            "watchdog re-dispatches it (default: 500e-6); implies "
            "--degradation",
        )
        p.add_argument(
            "--ft-json", default=None, metavar="PATH",
            help="save the fault-tolerance report (conservation ledger, "
            "watchdog counters, terminal degradation state) as JSON",
        )

    doctor = sub.add_parser(
        "doctor",
        help="statically audit validation-plane configs for "
        "contradictions (exit 1 on ERROR findings)",
    )
    doctor.add_argument(
        "--config", default=None, metavar="PATH",
        help="JSON file with 'pipeline' and/or 'fleet' sections to audit "
        "(default: audit the stock pipeline + fleet defaults)",
    )
    doctor.add_argument(
        "--cores", type=int, default=None,
        help="validation cores to declare",
    )
    doctor.add_argument(
        "--sampler-target", action="append", default=None, metavar="CLOSURE",
        help="declare a sampler target closure (repeatable; unregistered "
        "names are exactly the nba-stats-scraper failure mode)",
    )
    canary_flags(doctor)
    doctor.add_argument(
        "--watchdog-deadline", type=float, default=None, metavar="SIM_S",
        help="watchdog deadline to declare",
    )
    doctor.add_argument(
        "--queue-capacity", type=int, default=None, metavar="N",
        help="bounded validation-queue capacity to declare",
    )
    doctor.add_argument(
        "--overflow-policy", default=None, metavar="POLICY",
        help="bounded-queue overflow policy to declare (free-form on "
        "purpose: the audit flags unknown policies)",
    )
    doctor.add_argument(
        "--json", action="store_true",
        help="print the orthrus-audit/1 payload as JSON instead of text",
    )
    doctor.add_argument(
        "--out", default=None, metavar="PATH",
        help="save the orthrus-audit/1 artifact",
    )

    perf = sub.add_parser("perf", help="Fig 6-style performance comparison")
    common(perf)
    timeline_flags(perf)
    fault_tolerance_flags(perf)
    canary_flags(perf)
    audit_flags(perf)

    latency = sub.add_parser("latency", help="Fig 8-style validation latency")
    common(latency)
    timeline_flags(latency)
    fault_tolerance_flags(latency)
    canary_flags(latency)
    audit_flags(latency)

    coverage = sub.add_parser("coverage", help="Table 2-style fault campaign")
    common(coverage)
    coverage.add_argument("--faults", type=int, default=24)
    coverage.add_argument("--trigger-rate", type=float, default=1.0)
    coverage.add_argument("--grace", type=float, default=4.0,
                          help="drain window as a fraction of run duration")
    coverage.add_argument("--rbv", action="store_true",
                          help="also run the RBV arm per SDC trial")

    fleet = sub.add_parser(
        "fleet",
        help="fleet-scale sharded simulation with deterministic "
        "cross-shard merge",
    )
    fields = {f.name: f for f in dataclasses.fields(FleetConfig)}
    for flag, field, kwargs in _FLEET_FLAGS:
        if field is not None:
            kwargs = dict(kwargs, dest=field, type=_field_hints(FleetConfig)[field],
                          default=fields[field].default)
        fleet.add_argument(flag, **kwargs)
    audit_flags(fleet)

    obs_summary = sub.add_parser(
        "obs-summary",
        help="render a saved metrics snapshot (or a .jsonl trace in "
        "event_seq order)",
    )
    obs_summary.add_argument(
        "path",
        help="JSON snapshot from --metrics-out, or a .jsonl trace "
        "from --trace-out",
    )
    obs_summary.add_argument(
        "--format", choices=("table", "prom"), default="table",
        help="output format (default: human-readable table)",
    )

    timeline = sub.add_parser(
        "timeline", help="render an orthrus-timeseries/1 artifact"
    )
    timeline.add_argument("path", help="artifact from --timeline-out")
    timeline.add_argument(
        "--series", action="append", default=None, metavar="NAME",
        help="only these series (repeatable; default: all)",
    )
    timeline.add_argument(
        "--stat", default="mean",
        choices=("count", "mean", "min", "max", "p50", "p95", "last"),
        help="bucket statistic to plot (default: mean)",
    )
    timeline.add_argument(
        "--format", choices=("spark", "table", "jsonl"), default="spark",
        help="sparklines, whole-run summary table, or JSON-lines points",
    )
    timeline.add_argument(
        "--width", type=int, default=60, help="sparkline width (columns)"
    )

    latency_attrib = sub.add_parser(
        "latency-attrib",
        help="decompose a saved run's latency into causal stages "
        "(queue wait, dispatch, validate, ...)",
    )
    latency_attrib.add_argument(
        "path",
        help="Chrome trace from --spans-out, or an orthrus-metrics/1 "
        "snapshot from --metrics-out",
    )
    latency_attrib.add_argument(
        "--by-level", action="store_true",
        help="also break the waterfall down per degradation level",
    )
    latency_attrib.add_argument(
        "--by-closure", action="store_true",
        help="also break the waterfall down per closure kind",
    )

    parser.epilog = "subcommands: " + ", ".join(subcommand_names(parser))
    return parser


#: subcommand name -> handler.  The roster drift test asserts this stays
#: in lockstep with the subparsers ``build_parser`` registers.
_HANDLERS = {
    "list": cmd_list,
    "doctor": cmd_doctor,
    "perf": cmd_perf,
    "latency": cmd_latency,
    "coverage": cmd_coverage,
    "fleet": cmd_fleet,
    "obs-summary": cmd_obs_summary,
    "timeline": cmd_timeline,
    "latency-attrib": cmd_latency_attrib,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
