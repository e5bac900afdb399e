"""Chaos-injectable faults for the *validation plane* (not the data path).

:mod:`repro.machine.faults` corrupts application computation — the SDCs
Orthrus exists to catch.  This module instead breaks the catcher: the
validation cores themselves.  Four failure modes, mirroring what fleet
operators actually see from mercurial hosts running detection tooling:

* **crash** — the validator dies; whatever it had dequeued is stranded
  in flight until the watchdog expires it;
* **hang** — the validator blocks forever mid-validation (stuck
  interconnect, livelocked core) without freeing its slot;
* **slowdown** — every validation takes ``slowdown_factor`` times longer
  (thermal throttling, a failing DIMM retrying ECC);
* **verdict-loss** — the re-execution completes, burns its cycles, and
  the verdict evaporates (lost IPC, dropped completion interrupt).

Fault plans are derived deterministically from a config seed, so a chaos
run is byte-replayable from its :meth:`ValidatorChaosConfig.digest`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.determinism import derived_rng, stable_digest
from repro.errors import ConfigurationError
# The one validator loop reads these, so they live beside it in the core.
from repro.harness.pipeline import ValidatorFault, ValidatorFaultBox, ValidatorFaultKind

__all__ = [
    "ValidatorChaosConfig",
    "ValidatorFault",
    "ValidatorFaultBox",
    "ValidatorFaultKind",
]


_KINDS_BY_VALUE = {kind.value: kind for kind in ValidatorFaultKind}


@dataclass(frozen=True)
class ValidatorChaosConfig:
    """Which fraction (or count) of validation cores gets which fault.

    ``specs`` entries are ``(kind, amount)``: an amount below 1.0 is a
    fraction of the validation cores (rounded up, so 0.25 of 4 cores is
    one core), an amount >= 1 is an absolute core count.
    """

    specs: tuple[tuple[str, float], ...] = ()
    seed: int = 0
    #: virtual time the faults arm
    arm_at: float = 0.0
    #: fault lifetime; None = permanent
    duration: float | None = None
    slowdown_factor: float = 8.0

    @staticmethod
    def parse(
        specs: list[str],
        seed: int = 0,
        arm_at: float = 0.0,
        duration: float | None = None,
        slowdown_factor: float = 8.0,
    ) -> "ValidatorChaosConfig":
        """Parse CLI-style specs like ``crash=0.25`` or ``hang=2``."""
        parsed = []
        for spec in specs:
            kind, sep, amount_text = spec.partition("=")
            kind = kind.strip()
            if kind not in _KINDS_BY_VALUE:
                raise ConfigurationError(
                    f"unknown validator fault kind {kind!r}; expected one of "
                    f"{sorted(_KINDS_BY_VALUE)}"
                )
            if not sep:
                amount = 1.0
            else:
                try:
                    amount = float(amount_text)
                except ValueError:
                    raise ConfigurationError(
                        f"bad validator fault amount in {spec!r}"
                    ) from None
            if not 0 < amount < math.inf:
                raise ConfigurationError(
                    f"validator fault amount must be positive and finite in {spec!r}"
                )
            parsed.append((kind, amount))
        return ValidatorChaosConfig(
            specs=tuple(parsed),
            seed=seed,
            arm_at=arm_at,
            duration=duration,
            slowdown_factor=slowdown_factor,
        )

    def digest(self) -> str:
        """Stable digest: two configs with equal digests plan identically."""
        return stable_digest(self)

    def count_for(self, amount: float, n_cores: int) -> int:
        if amount < 1.0:
            return min(n_cores, max(1, math.ceil(amount * n_cores)))
        return min(n_cores, int(amount))

    def plan(self, core_ids: list[int]) -> tuple[ValidatorFault, ...]:
        """Assign faults to cores, deterministically from the seed.

        Each core receives at most one fault; specs claim cores in order
        from the shrinking healthy pool.
        """
        rng = derived_rng(self.seed, "validator-faults")
        available = sorted(core_ids)
        faults = []
        for kind_text, amount in self.specs:
            if not available:
                break
            count = min(self.count_for(amount, len(core_ids)), len(available))
            victims = rng.sample(available, count)
            for core_id in sorted(victims):
                available.remove(core_id)
                faults.append(
                    ValidatorFault(
                        kind=_KINDS_BY_VALUE[kind_text],
                        core_id=core_id,
                        at=self.arm_at,
                        duration=self.duration,
                        slowdown_factor=self.slowdown_factor,
                    )
                )
        return tuple(faults)
