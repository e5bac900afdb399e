"""Pluggable exporters: JSON-lines traces, Prometheus text, console tables.

Every exporter consumes either a live object (registry/tracer) or the
JSON-able snapshot dict, so saved runs can be re-rendered offline — the
``repro obs-summary`` CLI subcommand is just :func:`load_metrics_json` +
:func:`console_summary`.

Formats:

* **JSON metrics snapshot** (``write_metrics_json``) — the registry's
  ``snapshot()`` dict, one file per run; round-trips through
  ``MetricsRegistry.from_snapshot``.
* **JSON-lines trace** (``write_trace_jsonl``) — one event per line,
  ``{"ts": ..., "kind": ..., <fields>}``, in emission order; non-finite
  floats (e.g. an infinite reclamation watermark) become ``null``.
* **Prometheus text** (``to_prometheus``) — the standard exposition
  format: ``# HELP``/``# TYPE`` headers, cumulative ``_bucket`` series
  with ``le`` labels, ``_sum``/``_count`` per histogram.
* **Console summary** (``console_summary``) — a human-readable table of
  every family, with count/mean/p95 for histograms.

The human-scaled number formatters the console reports share
(``format_seconds``, ``format_rate``, ``format_wall``) live here too.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "write_trace_jsonl",
    "write_metrics_json",
    "load_metrics_json",
    "to_prometheus",
    "console_summary",
    "format_rate",
    "format_seconds",
    "format_wall",
]


def _finite(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# ----------------------------------------------------------------------
# JSON-lines trace sink
# ----------------------------------------------------------------------
def write_trace_jsonl(tracer, path: str) -> int:
    """Write every trace event as one JSON object per line; returns the
    number of events written (a trailing marker line records drops)."""
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event in tracer:
            record = {k: _finite(v) for k, v in event.as_dict().items()}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            written += 1
        if getattr(tracer, "dropped", 0):
            fh.write(
                json.dumps({"kind": "trace.dropped", "count": tracer.dropped}) + "\n"
            )
    return written


def read_trace_jsonl(path: str) -> list[dict]:
    """Load a JSON-lines trace back into a list of event dicts."""
    events = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# ----------------------------------------------------------------------
# JSON metrics snapshot
# ----------------------------------------------------------------------
def write_metrics_json(registry: MetricsRegistry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(registry.snapshot(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_metrics_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_labels(labels: dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value) -> str:
    return str(value).replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _escape_help(value) -> str:
    # HELP text escapes only backslash and newline (no quotes to close).
    return str(value).replace("\\", r"\\").replace("\n", r"\n")


def _prom_number(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def to_prometheus(source: MetricsRegistry | dict) -> str:
    """Render a registry (or a saved snapshot dict) as Prometheus text."""
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    lines: list[str] = []
    for family in snapshot["metrics"]:
        name, kind = family["name"], family["kind"]
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        # One TYPE line per family, always — even when the family has no
        # series yet (a registered histogram nothing has observed must
        # still announce its type, or scrapers reject the exposition).
        lines.append(f"# TYPE {name} {kind}")
        for series in family["series"]:
            labels = series["labels"]
            if kind in ("counter", "gauge"):
                lines.append(f"{name}{_prom_labels(labels)} {_prom_number(series['value'])}")
                continue
            bounds = family["buckets"]
            cumulative = 0
            for bound, count in zip(bounds, series["counts"]):
                cumulative += count
                le = 'le="%s"' % _prom_number(bound)
                lines.append(f"{name}_bucket{_prom_labels(labels, le)} {cumulative}")
            cumulative += series["counts"][len(bounds)]
            inf_le = 'le="+Inf"'
            lines.append(f"{name}_bucket{_prom_labels(labels, inf_le)} {cumulative}")
            lines.append(f"{name}_sum{_prom_labels(labels)} {_prom_number(series['sum'])}")
            lines.append(f"{name}_count{_prom_labels(labels)} {series['count']}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Console summary
# ----------------------------------------------------------------------
def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def console_summary(source: MetricsRegistry | dict) -> str:
    """A fixed-width table of every metric series, histograms summarized."""
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    rows: list[tuple[str, str, str]] = []
    for family in sorted(snapshot["metrics"], key=lambda f: f["name"]):
        name, kind = family["name"], family["kind"]
        for series in sorted(
            family["series"], key=lambda s: tuple(sorted(s["labels"].items()))
        ):
            labels = ", ".join(f"{k}={v}" for k, v in sorted(series["labels"].items()))
            if kind in ("counter", "gauge"):
                value = _format_value(series["value"])
            else:
                registry = MetricsRegistry.from_snapshot(
                    {"format": "orthrus-metrics/1", "metrics": [dict(family, series=[series])]}
                )
                hist = registry.series(name)[0][1]
                value = (
                    f"count={hist.count} mean={hist.mean:.3g} "
                    f"p95={hist.p95:.3g} max={hist.max:.3g}"
                )
            rows.append((name, labels, value))
    if not rows:
        return "(empty metrics snapshot)\n"
    name_w = max(len(r[0]) for r in rows + [("metric", "", "")])
    label_w = max(len(r[1]) for r in rows + [("", "labels", "")])
    out = [
        f"{'metric'.ljust(name_w)}  {'labels'.ljust(label_w)}  value",
        "-" * (name_w + label_w + 9),
    ]
    for name, labels, value in rows:
        out.append(f"{name.ljust(name_w)}  {labels.ljust(label_w)}  {value}")
    return "\n".join(out) + "\n"


def format_seconds(value: float) -> str:
    """Human-scaled seconds: 12.3µs / 4.56ms / 1.23s."""
    mag = abs(value)
    if mag >= 1.0:
        return f"{value:.3g}s"
    if mag >= 1e-3:
        return f"{value * 1e3:.3g}ms"
    if mag >= 1e-6:
        return f"{value * 1e6:.3g}µs"
    if mag == 0.0:
        return "0s"
    return f"{value * 1e9:.3g}ns"


def format_rate(value: float, unit: str = "op/s") -> str:
    """Human-scaled rate: ``843 op/s`` / ``97 kop/s`` / ``1.21 Mop/s``."""
    if value >= 1e9:
        return f"{value / 1e9:.2f} G{unit}"
    if value >= 1e6:
        return f"{value / 1e6:.2f} M{unit}"
    if value >= 1e3:
        return f"{value / 1e3:.0f} k{unit}"
    return f"{value:.0f} {unit}"


def format_wall(value: float) -> str:
    """Human-scaled wall seconds: ``1.95s`` / ``48.21ms`` / ``6.1us``."""
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}us"
