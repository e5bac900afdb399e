"""Fleet topology: hosts, cores, shards, and startup sanity checks.

A :class:`FleetConfig` is the declarative description of a simulated
fleet — host/shard counts, per-shard core allocations, workload volume,
fault rates, and the validation-plane knobs each shard's degradation
ladder inherits.  :class:`FleetTopology` materializes it: which host owns
each shard, which local cores form each shard's APP set and validator
pool, and the consistent-hash ring that places the versioned keyspace.

Topology construction *fails closed*: every structural violation found is
collected and raised as one structured :class:`FleetConfigError`.  The
checks themselves live in the shared rule engine
(:mod:`repro.obs.audit` — the fleet rule ids double as the violation
codes here), so the ``doctor`` CLI audits the same invariants the
constructor enforces.  The three checks the fleet issue calls out — a
validator pool entirely quarantined, more core demand than usable cores,
and a watchdog deadline that outlives the SLO window — are exactly the
misconfigurations that would make a fleet *silently* under-validate,
which is the failure mode Orthrus exists to prevent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.faultinject.fleet_faults import FleetFaultPlan
from repro.fleet.ring import DEFAULT_VNODES, ConsistentHashRing
from repro.obs.audit import (
    audit_fleet_config,
    audit_fleet_topology,
    findings_to_violations,
)
from repro.sim.costs import DEFAULT_COSTS, CostModel

__all__ = ["FleetConfig", "FleetConfigError", "FleetTopology", "HostView", "ShardView"]


class FleetConfigError(ConfigurationError):
    """A fleet topology failed its startup sanity checks.

    ``violations`` is a list of structured records — ``{"code", "subject",
    "message"}`` — one per independent problem, so an operator (or the
    config auditor of ROADMAP item 5) sees every defect in one pass
    instead of fixing them serially.
    """

    def __init__(self, violations: list[dict]):
        self.violations = list(violations)
        lines = [f"fleet config rejected ({len(violations)} violation(s)):"]
        lines += [
            f"  [{v['code']}] {v['subject']}: {v['message']}" for v in violations
        ]
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class FleetConfig:
    """Declarative description of a simulated fleet."""

    # --- shape ----------------------------------------------------------
    hosts: int = 8
    shards: int = 16
    cores_per_host: int = 32
    validators_per_shard: int = 4
    app_cores_per_shard: int = 4
    #: ring partitions per shard (the vnode count of the consistent ring)
    vnodes: int = DEFAULT_VNODES

    # --- workload -------------------------------------------------------
    keys: int = 200_000
    users: int = 20_000
    ops_per_user: float = 10.0
    #: multiplier on keys/users — CI smoke runs pass 0.1
    scale: float = 1.0
    #: run length in validation epochs and the epoch span (virtual time)
    epochs: int = 96
    epoch_s: float = 50e-6
    #: demand multiplier vs provisioned validator capacity (overload knob)
    load_factor: float = 1.0

    # --- fault population (Dixit et al.: defects are a fleet phenomenon) -
    #: probability any given core is mercurial (silently defective)
    mercurial_rate: float = 1e-3
    #: per-op probability a defective APP core corrupts a result
    corruption_rate: float = 1e-3
    #: confirmed detections attributed to a core before quarantine
    detection_threshold: int = 3
    #: (host_id, local_core_id) pairs quarantined before the run starts
    quarantined: tuple[tuple[int, int], ...] = ()

    # --- validation plane ----------------------------------------------
    #: fraction of each epoch's logs that is coverage-critical (must
    #: validate; the rest is steady-state resampling the sampler may shed)
    min_coverage: float = 0.05
    queue_capacity: int = 512
    canary_every: int = 8
    watchdog_deadline: float = 500e-6
    slo_window: float = 2e-3
    #: closure-log bytes shipped per remote (cross-host) validation
    spill_bytes: int = 256

    # --- grounding ------------------------------------------------------
    #: shards that additionally run a real DES memcached/lsmtree server
    ground_shards: int = 4
    ground_ops: int = 120

    # --- infrastructure chaos + failover policy -------------------------
    #: deterministic host-crash / link-partition / straggler schedule
    #: (None = healthy infrastructure; see repro.faultinject.fleet_faults)
    faults: FleetFaultPlan | None = None
    #: re-dispatch attempts for a dead host's re-homed backlog
    #: (capped-exponential backoff between attempts, in epochs)
    failover_retry_budget: int = 4
    #: base backoff before the first re-dispatch attempt, in epochs
    failover_backoff_epochs: int = 1
    #: clean epochs a restarted host must idle through before its shards
    #: re-admit (mirrors QuarantineManager probation)
    probation_epochs: int = 4

    seed: int = 1
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)

    # -- derived ---------------------------------------------------------
    @property
    def effective_keys(self) -> int:
        return max(1, int(self.keys * self.scale))

    @property
    def effective_users(self) -> int:
        return max(1, int(self.users * self.scale))

    @property
    def total_ops(self) -> int:
        return max(1, int(self.effective_users * self.ops_per_user))

    @property
    def horizon_s(self) -> float:
        return self.epochs * self.epoch_s


@dataclass(frozen=True)
class ShardView:
    """One shard's placement: owning host plus its local core sets."""

    shard_id: int
    host_id: int
    name: str
    #: local core ids on the owning host
    app_cores: tuple[int, ...]
    validator_cores: tuple[int, ...]
    #: "memcached" or "lsmtree" — shards alternate, mirroring a mixed fleet
    app_name: str


@dataclass(frozen=True)
class HostView:
    """One host: its shards and pre-quarantined local cores."""

    host_id: int
    name: str
    cores: int
    shard_ids: tuple[int, ...]
    quarantined: tuple[int, ...]


class FleetTopology:
    """Materialized fleet layout (hosts, shard→core maps, the ring)."""

    def __init__(self, config: FleetConfig):
        self.config = config
        violations = self._scalar_violations(config)
        if violations:
            raise FleetConfigError(violations)
        self._build_views()
        violations = self._structural_violations()
        if violations:
            raise FleetConfigError(violations)

    @classmethod
    def unchecked(cls, config: FleetConfig) -> "FleetTopology":
        """Materialize views without raising on structural violations.

        For the auditor: it reports *every* defect in one pass, so it
        needs a topology even when one would be rejected.  Only safe
        once the scalar rules pass (view building assumes positive
        counts), which :func:`repro.obs.audit.audit_fleet` guarantees.
        """
        topology = cls.__new__(cls)
        topology.config = config
        topology._build_views()
        return topology

    def _build_views(self) -> None:
        config = self.config
        self.hosts: list[HostView] = []
        self.shards: list[ShardView] = []
        self._ring: ConsistentHashRing | None = None
        quarantined_by_host: dict[int, list[int]] = {}
        for host_id, core in config.quarantined:
            quarantined_by_host.setdefault(int(host_id), []).append(int(core))
        for host_id in range(config.hosts):
            shard_ids = tuple(
                s for s in range(config.shards) if s % config.hosts == host_id
            )
            self.hosts.append(
                HostView(
                    host_id=host_id,
                    name=f"h{host_id:03d}",
                    cores=config.cores_per_host,
                    shard_ids=shard_ids,
                    quarantined=tuple(sorted(set(quarantined_by_host.get(host_id, ())))),
                )
            )
            next_core = 0
            for shard_id in shard_ids:
                app = tuple(
                    range(next_core, next_core + config.app_cores_per_shard)
                )
                next_core += config.app_cores_per_shard
                pool = tuple(
                    range(next_core, next_core + config.validators_per_shard)
                )
                next_core += config.validators_per_shard
                self.shards.append(
                    ShardView(
                        shard_id=shard_id,
                        host_id=host_id,
                        name=f"s{shard_id:04d}",
                        app_cores=app,
                        validator_cores=pool,
                        app_name="memcached" if shard_id % 2 == 0 else "lsmtree",
                    )
                )
        self.shards.sort(key=lambda s: s.shard_id)

    # -- sanity checks (delegated to the shared rule engine) -------------
    @staticmethod
    def _scalar_violations(config: FleetConfig) -> list[dict]:
        return findings_to_violations(audit_fleet_config(config))

    def _structural_violations(self) -> list[dict]:
        return findings_to_violations(audit_fleet_topology(self))

    # -- derived views ---------------------------------------------------
    def ring(self) -> ConsistentHashRing:
        """The keyspace ring over shard names (fixed partition grid, so
        quarantine-time membership changes compare remap-minimally).
        Cached: the assignment still hashes all ``partitions * shards``
        weights — a block of rows at a time, O(shards) memory — though it
        sorts a row only when that partition's best shard is full."""
        if self._ring is None:
            self._ring = ConsistentHashRing(
                [s.name for s in self.shards],
                vnodes=self.config.vnodes,
                salt=self.config.seed,
            )
        return self._ring

    @property
    def total_cores(self) -> int:
        return self.config.hosts * self.config.cores_per_host

    def peer_host(self, host_id: int) -> int:
        """The spill target for cross-host remote validation: the next
        host on the ring (wraps; a single-host fleet has no peer)."""
        if self.config.hosts == 1:
            return host_id
        return (host_id + 1) % self.config.hosts

    def describe(self) -> dict:
        """A JSON-able structural summary (the shard map of DESIGN §12)."""
        spread = self.ring().load_spread()
        return {
            "hosts": self.config.hosts,
            "shards": self.config.shards,
            "cores": self.total_cores,
            "validators": self.config.shards * self.config.validators_per_shard,
            "app_cores": self.config.shards * self.config.app_cores_per_shard,
            "ring_partitions": self.ring().partitions,
            "ring_spread": [round(spread[0], 4), round(spread[1], 4)],
            "pre_quarantined": len(self.config.quarantined),
        }
