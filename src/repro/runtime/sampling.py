"""Resource-adaptive sampling of validation work (§3.5).

When validation capacity cannot keep up with log production, Orthrus
samples.  The sampler's goal is *code coverage*, not volume: because CPU
errors are persistent and instruction-correlated, a (closure, caller) pair
that was validated recently and passed is very likely still clean, while a
pair that has not been validated recently is where an undetected mercurial
core could be hiding.  Three signals combine:

* **staleness** — a pair past the staleness threshold is always validated;
* **unit priority** — closures containing fp/vector instructions (where
  production SDC studies see most errors) get a boosted sampling score;
* **load feedback** — the base sampling rate adapts (AIMD) to the observed
  queueing delay, or to memory pressure when the trigger is switched for
  the Fig-10 experiment.

:class:`RandomSampler` is the unguided baseline of Fig 9: same rate
control, no staleness or unit guidance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from repro.closures.log import ClosureLog


class SampleDecision(NamedTuple):
    """One sampler verdict plus the reason, for telemetry (§3.5).

    Reasons: ``never-validated`` / ``stale`` (coverage rules), ``full-rate``
    (unconstrained), ``sampled`` (probabilistic accept), ``rate-limited``
    (probabilistic reject), ``always`` (AlwaysSampler).
    """

    validate: bool
    reason: str


# Decisions are drawn from a fixed set, so every verdict is a shared
# pre-built instance — per-log telemetry costs no allocation.
_NEVER_VALIDATED = SampleDecision(True, "never-validated")
_STALE = SampleDecision(True, "stale")
_FULL_RATE = SampleDecision(True, "full-rate")
_SAMPLED = SampleDecision(True, "sampled")
_RATE_LIMITED = SampleDecision(False, "rate-limited")
_ALWAYS = SampleDecision(True, "always")

#: Decision reasons that are *coverage-critical*: a DEGRADED validation
#: plane (see :mod:`repro.runtime.degradation`) keeps re-executing these —
#: persistent-core errors hide exactly where coverage has lapsed — and
#: sheds the steady-state resampling ("full-rate" / "sampled") first.
COVERAGE_REASONS = frozenset({"never-validated", "stale", "always"})


def sampler_decision(sampler, log: ClosureLog, now: float) -> SampleDecision:
    """Ask ``sampler`` for a reasoned decision, tolerating third-party
    samplers that only implement ``should_validate``."""
    decide = getattr(sampler, "decide", None)
    if decide is not None:
        return decide(log, now)
    return _SAMPLED if sampler.should_validate(log, now) else _RATE_LIMITED


def observe_and_decide(
    sampler, log: ClosureLog, now: float, delay: float, obs, memory=None
) -> SampleDecision:
    """The sampler stage of a validation plane, with its telemetry.

    The single definition the DES validator loop and
    :meth:`OrthrusRuntime.pump` share: feed the load signal (``delay``, or
    ``memory = (used_bytes, budget_bytes)`` when the trigger is switched to
    memory pressure for Fig 10), take the reasoned decision, and record the
    ``decided`` transition, which ends the log's ``queue.wait``.
    """
    if memory is not None:
        sampler.observe_memory(*memory)
    else:
        sampler.observe_delay(delay)
    decision = sampler_decision(sampler, log, now)
    obs.lifecycle.decided(log, decision, delay, now, sampler)
    return decision


@dataclass
class SamplerConfig:
    """Tuning knobs; defaults follow §3.5's qualitative description."""

    #: sampling rate floor — validation never stops entirely
    min_rate: float = 0.02
    #: multiplicative decrease applied while the load signal is high
    decrease: float = 0.75
    #: additive increase applied while the load signal is low
    increase: float = 0.05
    #: queueing delay (seconds of virtual time) above which the rate drops
    delay_threshold: float = 20e-6
    #: a (closure, caller) pair unvalidated for this long is always chosen
    staleness_threshold: float = 2e-3
    #: score multiplier for closures with fp/vector instructions
    error_prone_boost: float = 6.0
    #: memory headroom fraction under the budget before the rate recovers
    memory_low_water: float = 0.7


class _RateController:
    """Shared AIMD rate control driven by delay or memory pressure."""

    def __init__(self, config: SamplerConfig):
        self._config = config
        self.rate = 1.0  # start by validating everything (§3.5)

    def observe_delay(self, delay: float) -> None:
        config = self._config
        if delay > config.delay_threshold:
            self.rate = max(config.min_rate, self.rate * config.decrease)
        elif delay < config.delay_threshold / 2:
            self.rate = min(1.0, self.rate + config.increase)

    def observe_memory(self, used_bytes: float, budget_bytes: float) -> None:
        config = self._config
        if budget_bytes <= 0:
            return
        if used_bytes > budget_bytes:
            self.rate = max(config.min_rate, self.rate * config.decrease)
        elif used_bytes < config.memory_low_water * budget_bytes:
            self.rate = min(1.0, self.rate + config.increase)


class AdaptiveSampler:
    """The Orthrus sampler: staleness-first, unit-aware, load-adaptive."""

    def __init__(self, config: SamplerConfig | None = None, seed: int = 0):
        self.config = config or SamplerConfig()
        self._controller = _RateController(self.config)
        self._rng = random.Random(seed)
        self._last_validated: dict[tuple[str, str], float] = {}
        self.chosen = 0
        self.skipped = 0

    # -- load signals ---------------------------------------------------
    def observe_delay(self, delay: float) -> None:
        self._controller.observe_delay(delay)

    def observe_memory(self, used_bytes: float, budget_bytes: float) -> None:
        self._controller.observe_memory(used_bytes, budget_bytes)

    @property
    def rate(self) -> float:
        return self._controller.rate

    # -- selection -------------------------------------------------------
    @staticmethod
    def _key(log: ClosureLog):
        # Recency is tracked per (closure, caller, application core): the
        # fault model is core-local (§2.1 — errors are isolated to specific
        # cores), so "recently validated on core 3" says nothing about the
        # same closure's executions on core 5.  This is the execution-
        # context precision §3.5 argues for, extended by the core axis.
        return (log.closure_name, log.caller, log.core_id)

    def should_validate(self, log: ClosureLog, now: float) -> bool:
        return self.decide(log, now).validate

    def decide(self, log: ClosureLog, now: float) -> SampleDecision:
        key = self._key(log)
        last = self._last_validated.get(key)
        if last is None or now - last >= self.config.staleness_threshold:
            # Never-validated or stale pair: maximize code coverage.
            self.chosen += 1
            return _NEVER_VALIDATED if last is None else _STALE
        rate = self._controller.rate
        if rate >= 1.0:
            # Unconstrained: validate everything (§3.5 — Orthrus begins by
            # validating all closures; sampling only kicks in under load).
            self.chosen += 1
            return _FULL_RATE
        score = rate
        if log.error_prone:
            score = min(1.0, score * self.config.error_prone_boost)
        # Pairs validated very recently are mildly deprioritized (§3.5:
        # frequently-invoked recent pairs are less likely to be selected);
        # the discount is bounded so hot closures keep meaningful coverage.
        age_fraction = (now - last) / self.config.staleness_threshold
        score *= 0.4 + 0.6 * age_fraction
        if self._rng.random() < score:
            self.chosen += 1
            return _SAMPLED
        self.skipped += 1
        return _RATE_LIMITED

    def on_validated(self, log: ClosureLog, now: float) -> None:
        self._last_validated[self._key(log)] = now

    def reset(self) -> None:
        self._last_validated.clear()
        self._controller.rate = 1.0
        self.chosen = 0
        self.skipped = 0


class RandomSampler:
    """Unguided random sampling baseline (Fig 9): rate-only, no guidance."""

    def __init__(self, config: SamplerConfig | None = None, seed: int = 0):
        self.config = config or SamplerConfig()
        self._controller = _RateController(self.config)
        self._rng = random.Random(seed)
        self.chosen = 0
        self.skipped = 0

    def observe_delay(self, delay: float) -> None:
        self._controller.observe_delay(delay)

    def observe_memory(self, used_bytes: float, budget_bytes: float) -> None:
        self._controller.observe_memory(used_bytes, budget_bytes)

    @property
    def rate(self) -> float:
        return self._controller.rate

    def should_validate(self, log: ClosureLog, now: float) -> bool:
        return self.decide(log, now).validate

    def decide(self, log: ClosureLog, now: float) -> SampleDecision:
        if self._rng.random() < self._controller.rate:
            self.chosen += 1
            return _SAMPLED
        self.skipped += 1
        return _RATE_LIMITED

    def on_validated(self, log: ClosureLog, now: float) -> None:
        pass

    def reset(self) -> None:
        self._controller.rate = 1.0
        self.chosen = 0
        self.skipped = 0


class AlwaysSampler:
    """Validate everything — used when capacity matches demand (Table 2)."""

    rate = 1.0

    def observe_delay(self, delay: float) -> None:
        pass

    def observe_memory(self, used_bytes: float, budget_bytes: float) -> None:
        pass

    def should_validate(self, log: ClosureLog, now: float) -> bool:
        return True

    def decide(self, log: ClosureLog, now: float) -> SampleDecision:
        return _ALWAYS

    def on_validated(self, log: ClosureLog, now: float) -> None:
        pass

    def reset(self) -> None:
        pass
