"""Fleet-level infrastructure fault plans (hosts and links, not cores).

:mod:`repro.faultinject.validator_faults` breaks individual validation
cores *inside* a healthy host.  This module breaks the infrastructure the
validation plane runs on — the failure classes Dixit et al. report as a
continuous fleet phenomenon:

* **host crash** — a host dies at a planned epoch, taking every shard it
  serves (app cores, validator pools, queues) with it; optionally it
  restarts after a fixed outage and re-admits through a probation window;
* **link partition** — the network path between a host pair goes dark for
  a window, severing the cross-host RBV spill route;
* **link degradation** — the path stays up but transfers take
  ``factor``× longer (congested spine, flapping optics);
* **straggler window** — a host group runs at ``factor``× capacity
  (thermal throttling, noisy neighbours) without failing outright.

A :class:`FleetFaultPlan` is declarative and deterministic: times are
*epoch indices* on the fleet's virtual clock, and the seeded
:meth:`FleetFaultPlan.generate` constructor derives every draw from
:func:`repro.determinism.derived_rng`, so a chaos run is byte-replayable
from its :meth:`~FleetFaultPlan.digest` alone.  The failover semantics —
ring re-homing, backlog re-dispatch, probation — live in
:mod:`repro.fleet.chaos`; this module only *describes* the faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.determinism import derived_rng, stable_digest
from repro.errors import FaultInjectionError

__all__ = [
    "FleetFaultPlan",
    "HostCrash",
    "LinkDegradation",
    "LinkPartition",
    "StragglerWindow",
]


def _check(what, hosts=(), at_epoch=0, duration=1, factor=1.0, restart=None) -> None:
    """Every spec type's range checks, however it was built (flag, doctor
    JSON, generator): no negative host, epoch or restart, no empty window,
    only positive, finite factors."""
    if min(hosts, default=0) < 0 or at_epoch < 0 or (restart or 0) < 0:
        raise FaultInjectionError(
            f"{what}: hosts, epochs and restarts must be >= 0"
        )
    if duration < 1:
        raise FaultInjectionError(f"{what}: duration must be >= 1 epoch")
    if not 0 < factor < math.inf:
        raise FaultInjectionError(f"{what}: factor must be positive and finite")


@dataclass(frozen=True)
class HostCrash:
    """One host outage: dies at ``at_epoch``, optionally restarts."""

    host: int
    at_epoch: int
    #: epochs the host stays down; None = dead for the rest of the run
    restart_after: int | None = None

    def __post_init__(self):
        _check(self, (self.host,), self.at_epoch, restart=self.restart_after)

    @classmethod
    def parse(cls, spec: str) -> "HostCrash":
        """``HOST@EPOCH`` or ``HOST@EPOCH+RESTART`` (epochs down)."""
        try:
            host_text, _, when = spec.partition("@")
            at_text, sep, restart_text = when.partition("+")
            return cls(
                host=int(host_text),
                at_epoch=int(at_text),
                restart_after=int(restart_text) if sep else None,
            )
        except ValueError:
            raise FaultInjectionError(
                f"bad host-crash spec {spec!r}; expected HOST@EPOCH[+RESTART]"
            ) from None


def _parse_link(spec: str, what: str) -> tuple[int, int, int, int, str]:
    """``A-B@EPOCH+DURATION[:EXTRA]`` shared by partition/degradation."""
    try:
        pair_text, _, when = spec.partition("@")
        a_text, _, b_text = pair_text.partition("-")
        window, _, extra = when.partition(":")
        at_text, _, duration_text = window.partition("+")
        return int(a_text), int(b_text), int(at_text), int(duration_text), extra
    except ValueError:
        raise FaultInjectionError(
            f"bad {what} spec {spec!r}; expected A-B@EPOCH+DURATION"
        ) from None


@dataclass(frozen=True)
class LinkPartition:
    """The path between ``host_a`` and ``host_b`` is down (symmetric)."""

    host_a: int
    host_b: int
    at_epoch: int
    duration: int

    def __post_init__(self):
        _check(self, (self.host_a, self.host_b), self.at_epoch, self.duration)

    @classmethod
    def parse(cls, spec: str) -> "LinkPartition":
        a, b, at, duration, _ = _parse_link(spec, "partition")
        return cls(host_a=a, host_b=b, at_epoch=at, duration=duration)

    def active(self, epoch: int) -> bool:
        return self.at_epoch <= epoch < self.at_epoch + self.duration

    def covers(self, a: int, b: int) -> bool:
        return {a, b} == {self.host_a, self.host_b}


@dataclass(frozen=True)
class LinkDegradation:
    """The path stays up but transfers take ``factor``× longer."""

    host_a: int
    host_b: int
    at_epoch: int
    duration: int
    factor: float = 4.0

    def __post_init__(self):
        _check(self, (self.host_a, self.host_b), self.at_epoch, self.duration,
               self.factor)

    @classmethod
    def parse(cls, spec: str) -> "LinkDegradation":
        a, b, at, duration, extra = _parse_link(spec, "link-degradation")
        try:
            factor = float(extra) if extra else 4.0
        except ValueError:
            raise FaultInjectionError(
                f"bad link-degradation factor in {spec!r}"
            ) from None
        return cls(host_a=a, host_b=b, at_epoch=at, duration=duration,
                   factor=factor)

    def active(self, epoch: int) -> bool:
        return self.at_epoch <= epoch < self.at_epoch + self.duration

    def covers(self, a: int, b: int) -> bool:
        return {a, b} == {self.host_a, self.host_b}


@dataclass(frozen=True)
class StragglerWindow:
    """A host group runs at ``factor``× validator capacity for a window."""

    hosts: tuple[int, ...]
    at_epoch: int
    duration: int
    factor: float = 0.5

    def __post_init__(self):
        _check(self, self.hosts, self.at_epoch, self.duration, self.factor)

    @classmethod
    def parse(cls, spec: str) -> "StragglerWindow":
        """``H1,H2@EPOCH+DURATION[:FACTOR]``."""
        try:
            hosts_text, _, when = spec.partition("@")
            window, _, factor_text = when.partition(":")
            at_text, _, duration_text = window.partition("+")
            return cls(
                hosts=tuple(int(h) for h in hosts_text.split(",")),
                at_epoch=int(at_text),
                duration=int(duration_text),
                factor=float(factor_text) if factor_text else 0.5,
            )
        except ValueError:
            raise FaultInjectionError(
                f"bad straggler spec {spec!r}; "
                "expected H1,H2@EPOCH+DURATION[:FACTOR]"
            ) from None

    def active(self, epoch: int) -> bool:
        return self.at_epoch <= epoch < self.at_epoch + self.duration


@dataclass(frozen=True)
class FleetFaultPlan:
    """A deterministic infrastructure fault schedule for one fleet run.

    All times are epoch indices on the fleet's virtual clock; the plan is
    pure data, picklable, and :func:`~repro.determinism.stable_digest`-able
    — it rides on :class:`~repro.fleet.topology.FleetConfig` and therefore
    enters the fleet digest, so two runs with the same plan replay
    byte-identically at any worker count.
    """

    crashes: tuple[HostCrash, ...] = ()
    partitions: tuple[LinkPartition, ...] = ()
    degradations: tuple[LinkDegradation, ...] = ()
    stragglers: tuple[StragglerWindow, ...] = field(default=())

    @property
    def empty(self) -> bool:
        return not (
            self.crashes or self.partitions
            or self.degradations or self.stragglers
        )

    def digest(self) -> str:
        """Stable digest: equal digests ⇒ identical fault schedules."""
        return stable_digest(self)

    def merge(self, other: "FleetFaultPlan") -> "FleetFaultPlan":
        """Concatenate two plans (explicit specs + a generated batch)."""
        return FleetFaultPlan(
            crashes=self.crashes + other.crashes,
            partitions=self.partitions + other.partitions,
            degradations=self.degradations + other.degradations,
            stragglers=self.stragglers + other.stragglers,
        )

    # -- constructors ----------------------------------------------------
    @classmethod
    def parse(
        cls,
        crashes=(),
        partitions=(),
        degradations=(),
        stragglers=(),
    ) -> "FleetFaultPlan":
        """Build a plan from CLI-style spec strings."""
        return cls(
            crashes=tuple(HostCrash.parse(s) for s in crashes),
            partitions=tuple(LinkPartition.parse(s) for s in partitions),
            degradations=tuple(LinkDegradation.parse(s) for s in degradations),
            stragglers=tuple(StragglerWindow.parse(s) for s in stragglers),
        )

    @classmethod
    def generate(
        cls,
        hosts: int,
        epochs: int,
        crashes: int = 0,
        partitions: int = 0,
        seed: int | str = 0,
    ) -> "FleetFaultPlan":
        """A seeded random plan (the chaos-smoke entry point).

        Crash victims are distinct hosts (never the whole fleet), crash
        onsets land in the first half of the run so the failover and
        recovery paths actually execute before the horizon, and
        partitions cut ring-successor links — the exact links the
        cross-host RBV spill path uses — so a partition is guaranteed to
        exercise the reroute/fallback machinery rather than an idle pair.
        """
        if hosts < 1 or epochs < 4:
            raise FaultInjectionError(
                "generated chaos needs hosts >= 1 and epochs >= 4"
            )
        if partitions and hosts < 2:  # a lone host has no link to cut
            raise FaultInjectionError("partitions need hosts >= 2")
        rng = derived_rng(seed, "fleet-chaos")
        crash_list = []
        victims = rng.sample(range(hosts), min(crashes, max(0, hosts - 1)))
        for host in sorted(victims):
            at = rng.randrange(max(1, epochs // 8), max(2, epochs // 2))
            restart = max(2, epochs // 6) + rng.randrange(max(1, epochs // 8))
            crash_list.append(
                HostCrash(host=host, at_epoch=at, restart_after=restart)
            )
        partition_list = []
        for _ in range(partitions):
            a = rng.randrange(hosts)
            b = (a + 1) % hosts
            at = rng.randrange(max(1, epochs // 8), max(2, epochs // 2))
            duration = max(2, epochs // 4)
            partition_list.append(
                LinkPartition(host_a=a, host_b=b, at_epoch=at,
                              duration=duration)
            )
        return cls(crashes=tuple(crash_list), partitions=tuple(partition_list))

    # -- serialization (doctor JSON specs) -------------------------------
    def to_dict(self) -> dict:
        return {
            "crashes": [
                [c.host, c.at_epoch, c.restart_after] for c in self.crashes
            ],
            "partitions": [
                [p.host_a, p.host_b, p.at_epoch, p.duration]
                for p in self.partitions
            ],
            "degradations": [
                [d.host_a, d.host_b, d.at_epoch, d.duration, d.factor]
                for d in self.degradations
            ],
            "stragglers": [
                [list(s.hosts), s.at_epoch, s.duration, s.factor]
                for s in self.stragglers
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetFaultPlan":
        unknown = sorted(
            set(payload) - {"crashes", "partitions", "degradations", "stragglers"}
        )
        if unknown:
            raise FaultInjectionError(
                f"unknown fault-plan key(s): {', '.join(unknown)}"
            )
        try:
            return cls(
                crashes=tuple(
                    HostCrash(int(h), int(at),
                              None if restart is None else int(restart))
                    for h, at, restart in payload.get("crashes", ())
                ),
                partitions=tuple(
                    LinkPartition(int(a), int(b), int(at), int(duration))
                    for a, b, at, duration in payload.get("partitions", ())
                ),
                degradations=tuple(
                    LinkDegradation(int(a), int(b), int(at), int(duration),
                                    float(factor))
                    for a, b, at, duration, factor
                    in payload.get("degradations", ())
                ),
                stragglers=tuple(
                    StragglerWindow(tuple(int(h) for h in hosts), int(at),
                                    int(duration), float(factor))
                    for hosts, at, duration, factor
                    in payload.get("stragglers", ())
                ),
            )
        except (TypeError, ValueError) as exc:
            raise FaultInjectionError(f"bad fault-plan payload: {exc}") from None

    # -- schedule queries (used by audit rules and the compiler) ---------
    def down_hosts_at(self, epoch: int) -> set[int]:
        """Hosts dead at ``epoch`` (crash windows only, not probation)."""
        down = set()
        for crash in self.crashes:
            end = (
                None if crash.restart_after is None
                else crash.at_epoch + crash.restart_after
            )
            if crash.at_epoch <= epoch and (end is None or epoch < end):
                down.add(crash.host)
        return down

    def link_partitioned(self, a: int, b: int, epoch: int) -> bool:
        return any(
            p.covers(a, b) and p.active(epoch) for p in self.partitions
        )

    def link_factor(self, a: int, b: int, epoch: int) -> float:
        """Combined degradation factor on the (a, b) path at ``epoch``."""
        factor = 1.0
        for d in self.degradations:
            if d.covers(a, b) and d.active(epoch):
                factor *= d.factor
        return factor

    def straggle_factor(self, host: int, epoch: int) -> float:
        """Combined capacity factor for ``host`` at ``epoch`` (<= 1.0)."""
        factor = 1.0
        for s in self.stragglers:
            if host in s.hosts and s.active(epoch):
                factor *= s.factor
        return min(1.0, factor)
