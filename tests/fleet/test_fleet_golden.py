"""Golden fleet artifacts of the ``fleet_rollup`` benchmark configuration.

``tests/fixtures/fleet_golden.json`` holds, for seeds 1 and 2, the sha256
of the merged timeline (``report.timeline.to_dict()``), of the merged
registry snapshot and the fleet digest, plus the sha256 of the owner array
of the benchmark's 96-shard ring and of sub-rings with 1, 3, 10 and 94
shards removed — all recorded at the commit before the
failover sub-rings were derived from the base ring's first choices and the
timeline fold stopped copying shard buckets.  Both are pure rewrites of
the parent-side stages, so every hash must stay exactly as recorded.

Regenerate only for an intended behaviour change, and record it with the
parent commit's ``src`` so the fixture diff shows the change::

    PYTHONPATH=<parent>/src python tests/fleet/test_fleet_golden.py --write
"""

import functools
import hashlib
import json
import pathlib
import sys

import pytest

from repro.faultinject.fleet_faults import FleetFaultPlan
from repro.fleet import ConsistentHashRing, FleetConfig, run_fleet

FIXTURE = pathlib.Path(__file__).parent.parent / "fixtures" / "fleet_golden.json"
SEEDS = (1, 2)
#: sub-ring label → (offset, stride, count) of the names removed from the
#: 96-shard ring, so removals land all over the sorted node list
REMOVALS = {"1": (5, 1, 1), "3": (11, 31, 3), "10": (2, 9, 10), "94": (1, 1, 94)}


def rollup_config(seed: int) -> FleetConfig:
    """The ``fleet_rollup`` benchmark workload: 48 hosts, 96 shards, chaos."""
    return FleetConfig(
        hosts=48, shards=96, scale=0.02, epochs=32, ground_shards=0,
        load_factor=4.0, min_coverage=0.5, seed=seed,
        faults=FleetFaultPlan.generate(
            hosts=48, epochs=32, crashes=3, partitions=2, seed=seed),
    )


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def observe(seed: int) -> dict:
    report = run_fleet(rollup_config(seed), workers=1)
    return {
        "digest": report.digest,
        "timeline": _sha(report.timeline.to_dict()),
        "registry": _sha(report.registry.snapshot()),
    }


def ring_hashes() -> dict:
    names = [f"s{i:04d}" for i in range(96)]
    ring = ConsistentHashRing(names)
    hashes = {"base": hashlib.sha256(ring.owner_of_partition.tobytes()).hexdigest()}
    for label, (offset, stride, count) in REMOVALS.items():
        removed = [names[(offset + stride * k) % 96] for k in range(count)]
        sub = ring.without(*removed)
        hashes[label] = hashlib.sha256(sub.owner_of_partition.tobytes()).hexdigest()
    return hashes


def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_rollup_artifacts_match_the_golden(seed):
    assert observe(seed) == golden()[str(seed)]


def test_benchmark_ring_and_sub_rings_match_the_golden():
    assert ring_hashes() == golden()["rings"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_fleet_golden.py --write")
    FIXTURE.write_text(
        json.dumps({**{str(seed): observe(seed) for seed in SEEDS},
                    "rings": ring_hashes()}, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {FIXTURE}")
