"""The one-field fleet threshold rules, pinned finding for finding.

Each case below breaks one scalar of an otherwise stock
:class:`FleetConfig` (the last also empties a validator pool).
``tests/fixtures/fleet_scalar_findings.json`` holds, per case, the
``Finding.to_dict()`` list that ``audit_fleet_config`` returns, the
``FleetConfigError`` violation records the topology constructor raises,
and the rule ids ``audit_fleet`` reports; plus the scalar rule order.  Rule ids, severities, messages, remediations and
order must stay exactly as recorded whatever shape the rules take.

Regenerate only for an intended behaviour change, and record it with the
parent commit's ``src`` so the fixture diff shows the change::

    PYTHONPATH=<parent>/src python tests/obs/test_fleet_scalar_rules.py --write
"""

import json
import pathlib
import sys

import pytest

from repro.fleet import FleetConfig, FleetConfigError
from repro.fleet.topology import FleetTopology
from repro.obs.audit import FLEET_SCALAR_RULES, audit_fleet, audit_fleet_config

FIXTURE = (
    pathlib.Path(__file__).parent.parent / "fixtures" / "fleet_scalar_findings.json"
)

#: case → the fields it breaks
CASES = {
    "no-hosts": {"hosts": 0},
    "no-shards": {"shards": -1},
    "no-cores": {"cores_per_host": 0},
    "no-validators": {"validators_per_shard": 0},
    "no-app-cores": {"app_cores_per_shard": 0},
    "too-few-epochs": {"epochs": 1},
    "bad-epoch": {"epoch_s": 0.0},
    "bad-min-coverage-low": {"min_coverage": -0.1},
    "bad-min-coverage-high": {"min_coverage": 1.5},
    "watchdog-exceeds-slo": {"watchdog_deadline": 5e-3},
    "quarantine-out-of-range": {"quarantined": ((99, 0),)},
    # not a shape rule: the structural rules still run behind it
    "too-few-epochs-and-pool-quarantined": {
        "epochs": 1, "hosts": 1, "shards": 1,
        "quarantined": ((0, 4), (0, 5), (0, 6), (0, 7)),
    },
}


def observe(case: str) -> dict:
    config = FleetConfig(**CASES[case])
    try:
        FleetTopology(config)
        violations = []
    except FleetConfigError as exc:
        violations = exc.violations
    return {
        "findings": [f.to_dict() for f in audit_fleet_config(config)],
        "violations": violations,
        "doctor_rules": [f.rule for f in audit_fleet(config).findings],
    }


def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_threshold_row_trips_as_recorded(case):
    assert observe(case) == golden()["cases"][case]


def test_scalar_rule_order_is_unchanged():
    assert [r.rule_id for r in FLEET_SCALAR_RULES] == golden()["order"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_fleet_scalar_rules.py --write")
    FIXTURE.write_text(json.dumps({
        "cases": {case: observe(case) for case in sorted(CASES)},
        "order": [r.rule_id for r in FLEET_SCALAR_RULES],
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
