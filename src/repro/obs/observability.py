"""The per-run observability handle threaded through the pipeline.

One :class:`Observability` object bundles a :class:`MetricsRegistry`, a
:class:`Tracer`, a :class:`~repro.obs.spans.SpanTracer` and the
:class:`~repro.obs.lifecycle.Lifecycle` recorder, through which every
closure-log transition is written.  :data:`NULL_OBS` is the shared disabled
instance — the default everywhere — whose recorder does nothing, so an
uninstrumented run allocates nothing; ``enabled`` is read by set-up code.

Usage::

    from repro.obs import Observability

    obs = Observability()                # metrics + trace + spans
    runtime = OrthrusRuntime(obs=obs, ...)
    ... run the workload ...
    print(console_summary(obs.registry.snapshot()))
"""

from __future__ import annotations

from repro.obs.lifecycle import NULL_LIFECYCLE, Lifecycle
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_SPANS, SpanTracer
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = ["Observability", "NULL_OBS"]


class Observability:
    """Metrics registry + tracer + span tracer + lifecycle recorder for one run."""

    def __init__(
        self,
        trace: bool = True,
        max_trace_events: int = 1_000_000,
        spans: bool = True,
        max_spans: int = 1_000_000,
    ):
        self.enabled = True
        self.registry = MetricsRegistry()
        self.tracer = Tracer(max_trace_events) if trace else NULL_TRACER
        self.spans = (
            SpanTracer(max_spans, registry=self.registry) if spans else NULL_SPANS
        )
        self.lifecycle = Lifecycle(self.registry, self.tracer, self.spans)

    def snapshot(self) -> dict:
        return self.registry.snapshot()


class _NullObservability:
    """Disabled observability: real (inert) registry, no-op tracer, span
    tracer and lifecycle recorder.

    The registry exists for set-up code that reads it; every transition
    goes through the no-op recorder, so nothing is ever recorded here.
    """

    enabled = False

    def __init__(self):
        self.registry = MetricsRegistry()
        self.tracer = NULL_TRACER
        self.spans = NULL_SPANS
        self.lifecycle = NULL_LIFECYCLE

    def snapshot(self) -> dict:
        return self.registry.snapshot()


NULL_OBS = _NullObservability()
