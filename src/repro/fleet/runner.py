"""Fleet planner and process-parallel runner.

``plan_fleet`` does all cross-shard work *up front* in the parent: bulk
key/user placement over the consistent-hash ring (vectorized — 10M keys
is one modulo and one fancy-index), the per-host mercurial-core draw, and
the grounded-shard selection.  Each resulting :class:`ShardPlan` is
self-contained, so workers need no shared state and no communication —
the precondition for the merge-determinism argument in DESIGN.md §12.

``run_fleet`` fans host groups out across OS processes (``fork`` where
the platform has it, ``spawn`` otherwise; ``workers=1`` runs inline with
no pool at all, which is what the CI digest-equality check compares
against) and folds the shard results through :mod:`repro.fleet.merge`
into a :class:`~repro.fleet.report.FleetReport`.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.pool
import pickle
import time

import numpy as np

from repro.determinism import derive_seed
from repro.errors import FleetExecutionError
from repro.fleet.chaos import compile_fleet_chaos
from repro.fleet.merge import (
    fleet_digest,
    merge_audit,
    merge_events,
    merge_registries,
    merge_timelines,
)
from repro.fleet.report import FleetReport
from repro.fleet.ring import mix64
from repro.fleet.shardsim import ShardPlan, simulate_shard
from repro.fleet.streams import host_rng
from repro.fleet.topology import FleetConfig, FleetTopology

__all__ = ["plan_fleet", "run_fleet"]


def plan_fleet(topology: FleetTopology) -> list[ShardPlan]:
    """Place the keyspace/user population and draw the fault population;
    returns one self-contained plan per shard, in shard order."""
    config = topology.config
    ring = topology.ring()
    shard_count = len(topology.shards)
    # ring.nodes is sorted; shard names are zero-padded, so node index i
    # is exactly shard_id i — assert rather than assume.
    assert list(ring.nodes) == [s.name for s in topology.shards]

    key_offset = np.uint64(derive_seed(config.seed, "fleet", "keys"))
    user_offset = np.uint64(derive_seed(config.seed, "fleet", "users"))
    with np.errstate(over="ignore"):
        key_hashes = mix64(
            np.arange(config.effective_keys, dtype=np.uint64) + key_offset
        )
        user_hashes = mix64(
            np.arange(config.effective_users, dtype=np.uint64) + user_offset
        )
    keys_per_shard = np.bincount(ring.assign(key_hashes), minlength=shard_count)
    user_owner = ring.assign(user_hashes)
    users_per_shard = np.bincount(user_owner, minlength=shard_count)
    # A zipf-flavored demand skew: ~1% of users are heavy hitters with
    # 20x the op volume (hash-selected, so placement-independent).
    weights = np.where(user_hashes % np.uint64(100) == 0, 20.0, 1.0)
    weight_per_shard = np.bincount(
        user_owner, weights=weights, minlength=shard_count
    )
    total_weight = float(weight_per_shard.sum()) or 1.0
    ops_exact = config.total_ops * weight_per_shard / total_weight
    ops_per_shard = np.floor(ops_exact).astype(np.int64)
    # Deterministic largest-remainder top-up so shard ops sum exactly.
    shortfall = config.total_ops - int(ops_per_shard.sum())
    if shortfall > 0:
        order = np.argsort(-(ops_exact - ops_per_shard), kind="stable")
        ops_per_shard[order[:shortfall]] += 1

    defective_by_host: dict[int, list[int]] = {}
    for host in topology.hosts:
        rng = host_rng(config.seed, host.host_id, "defects")
        defective_by_host[host.host_id] = [
            core for core in range(host.cores)
            if rng.random() < config.mercurial_rate
        ]

    ground_count = max(0, min(config.ground_shards, shard_count))
    stride = max(1, shard_count // ground_count) if ground_count else 1
    ground_ids = {i * stride for i in range(ground_count)}

    plans = []
    for shard in topology.shards:
        host = topology.hosts[shard.host_id]
        cores = set(shard.app_cores) | set(shard.validator_cores)
        plans.append(
            ShardPlan(
                shard_id=shard.shard_id,
                host_id=shard.host_id,
                shard_name=shard.name,
                host_name=host.name,
                app_name=shard.app_name,
                keys=int(keys_per_shard[shard.shard_id]),
                users=int(users_per_shard[shard.shard_id]),
                ops=int(ops_per_shard[shard.shard_id]),
                app_cores=shard.app_cores,
                validator_cores=shard.validator_cores,
                quarantined_at_start=tuple(
                    c for c in host.quarantined if c in cores
                ),
                defective_cores=tuple(
                    c for c in sorted(cores)
                    if c in defective_by_host[shard.host_id]
                ),
                peer_host=topology.peer_host(shard.host_id),
                ground=shard.shard_id in ground_ids,
            )
        )
    # Infrastructure chaos is compiled here, in the parent, into per-shard
    # manifests (repro.fleet.chaos): workers never see the fault plan,
    # only its precomputed consequences, so shards stay pure in
    # (plan, config) and the w1==w4 digest contract survives chaos.
    if config.faults is not None and not config.faults.empty:
        manifests = compile_fleet_chaos(config, topology, plans)
        plans = [
            dataclasses.replace(plan, chaos=manifests[plan.shard_id])
            if plan.shard_id in manifests else plan
            for plan in plans
        ]
    return plans


def _simulate_group(payload):
    """Worker entry point: simulate one host group's shard plans.

    Module-level (picklable under ``spawn``); receives everything it
    needs in the payload, returns the shard results as plain picklable
    values.
    """
    config, plans = payload
    return [simulate_shard(plan, config) for plan in plans]


def _classify_failure(exc: BaseException) -> str:
    """Supervision taxonomy: what kind of worker failure was this?

    ``timeout`` — the group missed its deadline (includes a hard-killed
    worker process, which a raw ``Pool`` surfaces only as silence);
    ``pickle`` — the payload or result failed (de)serialization;
    ``crash`` — the simulation itself raised.
    """
    if isinstance(exc, multiprocessing.TimeoutError):
        return "timeout"
    if isinstance(
        exc,
        (
            pickle.PicklingError,
            pickle.UnpicklingError,
            multiprocessing.pool.MaybeEncodingError,
        ),
    ):
        return "pickle"
    return "crash"


def _supervised_fan_out(ctx, workers, payloads, group_timeout_s):
    """Fan host groups out under supervision: per-group deadlines,
    failure classification, one bounded in-parent retry per group, and
    partial-result salvage.

    Returns ``(results, outcomes)`` where ``outcomes`` is one supervision
    record per group.  Raises :class:`~repro.errors.FleetExecutionError`
    only when *every* group is lost — a partial fleet is salvaged into a
    degraded report instead.
    """
    results = []
    outcomes = []
    with ctx.Pool(processes=workers) as pool:
        handles = [
            pool.apply_async(_simulate_group, (payload,))
            for payload in payloads
        ]
        for index, (payload, handle) in enumerate(zip(payloads, handles)):
            _config, plans = payload
            record = {
                "group": index,
                "hosts": sorted({plan.host_id for plan in plans}),
                "shards": len(plans),
                "status": "ok",
                "failure": None,
                "error": None,
                "attempts": 1,
            }
            try:
                group_results = handle.get(timeout=group_timeout_s)
            except Exception as exc:  # noqa: BLE001 — classified below
                record["failure"] = _classify_failure(exc)
                record["error"] = f"{type(exc).__name__}: {exc}"[:200]
                record["attempts"] = 2
                try:
                    # The bounded retry runs inline in the parent: immune
                    # to pool breakage and to result-pickling failures
                    # (nothing crosses a process boundary).
                    group_results = _simulate_group(payload)
                    record["status"] = "retried"
                except Exception as retry_exc:  # noqa: BLE001
                    record["status"] = "lost"
                    record["error"] += (
                        f"; retry {type(retry_exc).__name__}: {retry_exc}"
                    )[:400]
                    group_results = []
            results.extend(group_results)
            outcomes.append(record)
    if not results:
        raise FleetExecutionError(
            f"all {len(payloads)} host group(s) failed supervision",
            outcomes,
        )
    return results, outcomes


def run_fleet(
    config: FleetConfig, workers: int = 1,
    group_timeout_s: float | None = None,
) -> FleetReport:
    """Simulate the fleet and merge the shards into one report.

    ``group_timeout_s``: per-host-group deadline for the supervised
    fan-out (None = no deadline); a group that misses it is classified,
    retried once inline, and salvaged or recorded as lost.
    """
    started = time.perf_counter()
    topology = FleetTopology(config)
    plans = plan_fleet(topology)
    workers = max(1, min(workers, config.hosts))
    fan_out: list[dict] = []
    if workers == 1:
        results = _simulate_group((config, plans))
    else:
        # One worker per host group: hosts are dealt round-robin so
        # every group gets a grounded shard's heavier DES work with the
        # same likelihood.  Which worker runs which group cannot matter
        # — the merge re-establishes the total order.
        groups: list[list[ShardPlan]] = [[] for _ in range(workers)]
        for plan in plans:
            groups[plan.host_id % workers].append(plan)
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        ctx = multiprocessing.get_context(method)
        results, fan_out = _supervised_fan_out(
            ctx, workers,
            [(config, group) for group in groups],
            group_timeout_s,
        )

    events = merge_events(results)
    digest = fleet_digest(config, events)
    registry = merge_registries(results)
    timeline = merge_timelines(results, cadence=config.epoch_s)
    audit = merge_audit(results)

    report = FleetReport(
        config=config,
        topology=topology.describe(),
        digest=digest,
        events=events,
        registry=registry,
        timeline=timeline,
        shards=[r.summary for r in sorted(results, key=lambda r: r.shard_id)],
        grounds=[r.ground for r in results if r.ground is not None],
        ground_metrics=[
            r.ground_metrics for r in sorted(results, key=lambda r: r.shard_id)
            if r.ground_metrics is not None
        ],
        workers=workers,
        wall_s=time.perf_counter() - started,
        audit=audit,
        fan_out=fan_out,
    )
    report.finalize()
    return report
