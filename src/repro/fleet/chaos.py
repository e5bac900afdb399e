"""Infrastructure chaos compiler + failover engine (DESIGN.md §15).

A :class:`~repro.faultinject.fleet_faults.FleetFaultPlan` describes *what*
breaks — host crash windows, link partitions/degradations, straggling
host groups.  This module decides *what happens next*, entirely at plan
time in the parent process, so every shard stays a pure function of
``(ShardPlan, FleetConfig)`` and the merge-determinism argument of
DESIGN §12 survives chaos untouched:

* **re-homing** — when a host dies, each of its shards' ring partitions
  re-home to survivors via the existing rendezvous remap
  (``ring.without(*dead)`` on the fixed partition grid: the <2/N
  single-node-removal bound).  The dead shard's *arrivals* are
  apportioned per-epoch to the recipients with exact largest-remainder
  integer splits, so fleet-wide conservation (every offered log lands in
  exactly one shard's ledger) holds to the log;
* **backlog re-dispatch** — the coverage-critical logs queued on the
  dead host at crash time are re-dispatched against the recipients'
  validator pools with capped-exponential backoff under
  ``failover_retry_budget`` attempts; whatever the budget cannot drain
  is dropped *with reason*, never silently lost;
* **spill rerouting** — each shard's per-epoch RBV spill route is
  precompiled: the ring-successor peer while healthy, the next live,
  reachable host (with a per-hop latency penalty) around a partition or
  a dead peer, and ``-1`` (fall back to local checksum-only coverage)
  when no route survives;
* **probation** — a restarted host idles through ``probation_epochs``
  before its shards re-admit and arrivals flow home.

Everything the compiler emits is plain picklable data (tuples of ints
and floats), attached to each :class:`~repro.fleet.shardsim.ShardPlan`
as a :class:`ShardChaos` manifest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CrashWindow",
    "ShardChaos",
    "compile_fleet_chaos",
    "failover_drain_schedule",
    "remap_fractions",
]


@dataclass(frozen=True)
class CrashWindow:
    """One outage of this shard's host, with its precompiled failover."""

    crash_epoch: int
    #: first epoch the host is back up (probation begins); None = stays dead
    restart_epoch: int | None
    #: first epoch arrivals flow home again; None = never within the run
    readmit_epoch: int | None
    #: (recipient shard name, fraction of this shard's partitions) pairs
    recipients: tuple[tuple[str, float], ...]
    #: validator cores across the recipient shards (drain capacity model)
    recovery_pool: int
    #: re-dispatch attempt epochs (capped-exponential backoff, clipped to
    #: the horizon; at most ``failover_retry_budget`` entries)
    drain_epochs: tuple[int, ...]


@dataclass(frozen=True)
class ShardChaos:
    """Per-shard chaos manifest (pure data; picklable)."""

    #: this shard announces host-level transitions (lowest shard id on host)
    primary: bool = False
    crashes: tuple[CrashWindow, ...] = ()
    #: epochs the host is dead (union of crash windows)
    down_epochs: tuple[int, ...] = ()
    #: epochs the host is up but not yet re-admitted
    probation_epochs: tuple[int, ...] = ()
    #: per-epoch demand inherited from dead shards (empty = none ever)
    inherited_ops: tuple[int, ...] = ()
    #: (donor shard id, start epoch, end epoch exclusive, total ops)
    inherited_sources: tuple[tuple[int, int, int, int], ...] = ()
    #: per-epoch spill route host (-1 = no route); empty = static peer
    spill_route: tuple[int, ...] = ()
    #: per-epoch spill lag multiplier (reroute hops × link degradation)
    spill_penalty: tuple[float, ...] = ()
    #: per-epoch local validator capacity factor (straggler windows)
    straggle: tuple[float, ...] = ()

    @property
    def diverted_epochs(self) -> frozenset:
        """Epochs this shard's arrivals flow to recipients instead."""
        return frozenset(self.down_epochs) | frozenset(self.probation_epochs)


def failover_drain_schedule(
    crash_epoch: int, epochs: int, budget: int, base_backoff: int
) -> tuple[int, ...]:
    """Re-dispatch attempt epochs: capped-exponential backoff under a
    retry budget, clipped to the horizon.  With the defaults (budget 4,
    base 1) a crash at e schedules attempts at e+1, e+3, e+7, e+15."""
    base = max(1, base_backoff)
    delay = base
    at = crash_epoch
    schedule = []
    for _ in range(max(0, budget)):
        at += delay
        if at >= epochs:
            break
        schedule.append(at)
        delay = min(delay * 2, 8 * base)
    return tuple(schedule)


def remap_fractions(base_ring, diverted_names) -> dict:
    """For each diverted shard: where its partitions re-home, as
    ``{donor_name: ((recipient_name, fraction), ...)}``.

    Uses the single/multi-node-removal remap on the fixed partition grid
    — survivors keep their own partitions (the <2/N bound), so a donor's
    keyspace spreads across the ring instead of doubling one victim.
    """
    sub = base_ring.without(*diverted_names)
    owner_base = base_ring.owner_of_partition
    owner_sub = sub.owner_of_partition
    fractions: dict[str, tuple] = {}
    for donor in sorted(diverted_names):
        donor_idx = base_ring.nodes.index(donor)
        parts = np.nonzero(owner_base == donor_idx)[0]
        if len(parts) == 0:
            # a capacity-bounded ring never leaves a shard empty, but the
            # conservation contract must survive even if one is
            fractions[donor] = ((sub.nodes[0], 1.0),)
            continue
        counts = np.bincount(owner_sub[parts], minlength=len(sub.nodes))
        fractions[donor] = tuple(
            (sub.nodes[int(i)], float(counts[i]) / float(len(parts)))
            for i in np.nonzero(counts)[0]
        )
    return fractions


def _apportion(total: int, fractions) -> list[tuple[str, int]]:
    """Split ``total`` over ``(name, fraction)`` pairs with deterministic
    largest-remainder rounding: shares sum to exactly ``total``."""
    if total <= 0 or not fractions:
        return [(name, 0) for name, _ in fractions]
    exact = [(name, total * frac) for name, frac in fractions]
    shares = {name: int(value) for name, value in exact}
    shortfall = total - sum(shares.values())
    order = sorted(exact, key=lambda item: (-(item[1] - int(item[1])), item[0]))
    for name, _ in order[:shortfall]:
        shares[name] += 1
    return [(name, shares[name]) for name, _ in fractions]


def compile_fleet_chaos(config, topology, plans) -> dict:
    """Compile the config's fault plan into per-shard manifests.

    Returns ``{shard_id: ShardChaos}`` for every shard the plan touches
    (crash victims, load recipients, rerouted spillers, stragglers);
    untouched shards are absent and simulate exactly as a healthy fleet.
    Pure in ``(config, topology, plans)`` — workers never see the plan,
    only its compiled consequences.
    """
    from repro.fleet.shardsim import _arrivals

    plan = config.faults
    epochs = config.epochs
    hosts = config.hosts
    if plan is None or plan.empty:
        return {}

    # -- per-host outage schedule (union of crash windows) ---------------
    down = [[False] * epochs for _ in range(hosts)]
    probation = [[False] * epochs for _ in range(hosts)]
    crash_specs_by_host: dict[int, list] = {}
    for crash in plan.crashes:
        if not (0 <= crash.host < hosts) or crash.at_epoch >= epochs:
            continue
        restart = (
            None if crash.restart_after is None
            else crash.at_epoch + crash.restart_after
        )
        if restart is not None and restart >= epochs:
            restart = None
        readmit = (
            None if restart is None
            else restart + config.probation_epochs
        )
        if readmit is not None and readmit >= epochs:
            readmit = None
        for epoch in range(crash.at_epoch, restart if restart is not None else epochs):
            down[crash.host][epoch] = True
        if restart is not None:
            for epoch in range(restart, readmit if readmit is not None else epochs):
                probation[crash.host][epoch] = True
        crash_specs_by_host.setdefault(crash.host, []).append(
            (crash.at_epoch, restart, readmit)
        )
    # a later crash overrides an earlier window's probation tail
    for host in range(hosts):
        for epoch in range(epochs):
            if down[host][epoch]:
                probation[host][epoch] = False

    def diverted(host: int, epoch: int) -> bool:
        return down[host][epoch] or probation[host][epoch]

    shard_names = [s.name for s in topology.shards]
    host_of_shard = {s.shard_id: s.host_id for s in topology.shards}
    name_to_id = {name: shard_id for shard_id, name in enumerate(shard_names)}
    base_ring = topology.ring()

    # -- per-epoch re-homing: remap fractions per distinct diverted set --
    fractions_cache: dict[frozenset, dict] = {}

    def fractions_for(dead_names: frozenset) -> dict:
        if dead_names not in fractions_cache:
            fractions_cache[dead_names] = remap_fractions(base_ring, dead_names)
        return fractions_cache[dead_names]

    plans_by_id = {p.shard_id: p for p in plans}
    arrivals_cache: dict[int, list[int]] = {}

    def arrivals_of(shard_id: int) -> list[int]:
        if shard_id not in arrivals_cache:
            arrivals_cache[shard_id] = _arrivals(plans_by_id[shard_id], config)
        return arrivals_cache[shard_id]

    inherited: dict[int, list[int]] = {}
    inherited_by_donor: dict[tuple[int, int], list] = {}
    for epoch in range(epochs):
        dead = frozenset(
            shard_names[s.shard_id]
            for s in topology.shards
            if diverted(s.host_id, epoch)
        )
        if not dead or len(dead) >= len(shard_names):
            continue
        fractions = fractions_for(dead)
        for donor_name in sorted(dead):
            donor_id = name_to_id[donor_name]
            offered = arrivals_of(donor_id)[epoch]
            for recipient_name, share in _apportion(
                offered, fractions[donor_name]
            ):
                if share <= 0:
                    continue
                recipient_id = name_to_id[recipient_name]
                cells = inherited.setdefault(recipient_id, [0] * epochs)
                cells[epoch] += share
                window = inherited_by_donor.setdefault(
                    (recipient_id, donor_id), [epoch, epoch + 1, 0]
                )
                window[1] = epoch + 1
                window[2] += share

    # -- per-shard crash windows (failover + drain schedule) -------------
    crashes_by_shard: dict[int, list[CrashWindow]] = {}
    for host, specs in crash_specs_by_host.items():
        for shard in topology.shards:
            if shard.host_id != host:
                continue
            for crash_epoch, restart, readmit in sorted(specs):
                dead = frozenset(
                    shard_names[s.shard_id]
                    for s in topology.shards
                    if diverted(s.host_id, crash_epoch)
                )
                if len(dead) >= len(shard_names):
                    recipients = ()
                else:
                    recipients = fractions_for(dead).get(shard.name, ())
                crashes_by_shard.setdefault(shard.shard_id, []).append(
                    CrashWindow(
                        crash_epoch=crash_epoch,
                        restart_epoch=restart,
                        readmit_epoch=readmit,
                        recipients=recipients,
                        recovery_pool=(
                            len(recipients) * config.validators_per_shard
                        ),
                        drain_epochs=failover_drain_schedule(
                            crash_epoch, epochs,
                            config.failover_retry_budget,
                            config.failover_backoff_epochs,
                        ),
                    )
                )

    # -- per-shard spill routes around partitions / dead peers -----------
    spill_routes: dict[int, tuple] = {}
    spill_penalties: dict[int, tuple] = {}
    if hosts > 1:
        for shard in topology.shards:
            h = shard.host_id
            route = []
            penalty = []
            for epoch in range(epochs):
                chosen, mult = -1, 1.0
                for hop in range(1, hosts):
                    candidate = (h + hop) % hosts
                    if diverted(candidate, epoch):
                        continue
                    if plan.link_partitioned(h, candidate, epoch):
                        continue
                    chosen = candidate
                    mult = (1.0 + 0.5 * (hop - 1)) * plan.link_factor(
                        h, candidate, epoch
                    )
                    break
                route.append(chosen)
                penalty.append(mult)
            default_peer = topology.peer_host(h)
            if any(r != default_peer for r in route) or any(
                p != 1.0 for p in penalty
            ):
                spill_routes[shard.shard_id] = tuple(route)
                spill_penalties[shard.shard_id] = tuple(penalty)

    # -- per-shard straggler factors -------------------------------------
    straggles: dict[int, tuple] = {}
    if plan.stragglers:
        for shard in topology.shards:
            factors = tuple(
                plan.straggle_factor(shard.host_id, epoch)
                for epoch in range(epochs)
            )
            if any(f != 1.0 for f in factors):
                straggles[shard.shard_id] = factors

    # -- compose ---------------------------------------------------------
    primary_of_host = {
        host.host_id: min(host.shard_ids) for host in topology.hosts
        if host.shard_ids
    }
    manifests: dict[int, ShardChaos] = {}
    touched = (
        set(crashes_by_shard) | set(inherited) | set(spill_routes)
        | set(straggles)
    )
    for shard_id in sorted(touched):
        host = host_of_shard[shard_id]
        sources = tuple(
            (donor_id, start, end, total)
            for (recipient_id, donor_id), (start, end, total)
            in sorted(inherited_by_donor.items())
            if recipient_id == shard_id
        )
        manifests[shard_id] = ShardChaos(
            primary=primary_of_host.get(host) == shard_id,
            crashes=tuple(crashes_by_shard.get(shard_id, ())),
            down_epochs=tuple(
                e for e in range(epochs) if down[host][e]
            ),
            probation_epochs=tuple(
                e for e in range(epochs) if probation[host][e]
            ),
            inherited_ops=tuple(inherited.get(shard_id, ())),
            inherited_sources=sources,
            spill_route=spill_routes.get(shard_id, ()),
            spill_penalty=spill_penalties.get(shard_id, ()),
            straggle=straggles.get(shard_id, ()),
        )
    return manifests
