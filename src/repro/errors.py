"""Exception hierarchy for the Orthrus reproduction.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated Python errors.
Detection outcomes (SDC flags) are *not* exceptions by default — the runtime
reports them through :class:`repro.runtime.orthrus.DetectionReport` — but the
strict safe mode raises :class:`SdcDetected` to abort the application before a
corrupted result is externalized, matching the paper's abort-on-detection
deployment model (§1).
"""

from __future__ import annotations

import enum


class ExitCode(enum.IntEnum):
    """The CLI's documented exit-code registry.

    Every subcommand returns one of these; tests assert the mapping so a
    new code cannot ship undocumented.

    ========  =====================================================
    code      meaning
    ========  =====================================================
    OK        run completed; every gate passed
    FAILURE   rejected config, missing/invalid artifact,
              bench regression, or
              ERROR-severity audit findings (``doctor``, ``--audit``)
    SAFE_HOLD the degradation ladder ended the run in SAFE_HOLD
              (``perf``/``latency`` fault-tolerance runs, ``fleet``)
    CANARY_MISSED  a canary probe missed its detection deadline
              (``perf``/``latency`` canary runs, ``obs-summary``,
              ``timeline``)
    DEGRADED_FLEET  the fleet run completed on partial results —
              a worker host group was lost and its bounded retry
              failed, or the failover engine dropped re-homed
              backlog past the retry budget (``fleet``)
    ========  =====================================================
    """

    OK = 0
    FAILURE = 1
    SAFE_HOLD = 2
    CANARY_MISSED = 3
    DEGRADED_FLEET = 4


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


class NoActiveContext(ReproError):
    """An Orthrus primitive was used outside a closure execution context."""


class HeapError(ReproError):
    """Versioned-heap misuse: bad pointer, double free, or stale access."""


class ReclaimedVersionError(HeapError):
    """A closure or validator touched a version that was already reclaimed."""


class SdcDetected(ReproError):
    """A silent data corruption was detected.

    Raised when the runtime operates in strict safe mode; otherwise the
    corruption is recorded in the runtime's detection report.
    """

    def __init__(self, message: str, *, closure: str | None = None, kind: str = "mismatch"):
        super().__init__(message)
        self.closure = closure
        #: ``"mismatch"`` (re-execution divergence) or ``"checksum"``
        #: (control-path payload corruption caught by the CRC).
        self.kind = kind


class ChecksumMismatch(SdcDetected):
    """User data was corrupted while traversing the control path."""

    def __init__(self, message: str, *, closure: str | None = None):
        super().__init__(message, closure=closure, kind="checksum")


class ValidationMismatch(SdcDetected):
    """Re-executing a closure on another core produced a different result."""

    def __init__(self, message: str, *, closure: str | None = None):
        super().__init__(message, closure=closure, kind="mismatch")


class FaultInjectionError(ReproError):
    """The fault-injection campaign was misconfigured."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class FleetExecutionError(ReproError):
    """The supervised fleet fan-out lost every host group.

    Raised only when *no* shard results survive classification and the
    bounded group retries — a partial fleet is salvaged into a degraded
    report (``ExitCode.DEGRADED_FLEET``) instead.  ``outcomes`` carries
    the per-group supervision records for the operator.
    """

    def __init__(self, message: str, outcomes: list[dict] | None = None):
        super().__init__(message)
        self.outcomes = list(outcomes or ())
