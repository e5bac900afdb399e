"""Golden results of the DES drivers over a grid of configurations.

``tests/fixtures/driver_golden.json`` was generated at the commit *before*
the drivers were folded into one session (``python -m
tests.harness.test_driver_golden --write`` from the repository root
regenerates it).  Each entry
pins everything a run publishes — digest, coverage counts, latency sample
counts, tracer length, span count, the full registry and the timeline
sample count — so a behaviour-preserving refactor of ``harness/`` shows an
empty diff here.  The benchmark pins (``benchmarks/perf/expected.json``)
cover four configurations; this grid covers the options they leave out.
The two ``lsmtree-compacting`` entries, and ``peak_live_bytes`` on every
lsmtree entry, were recorded at the commit before ``LsmTree`` began keeping
``disk_bytes`` as a running total (same ``_run``, that commit's ``src``).
``plain/validator-fault``, ``ft/deferred-fault``, ``ft/validator-fault``
and ``ft/chaos-canary-audit-tie`` were recorded at the commit before the
incident-response extension was deleted, so they prove the fault paths
did not move with it.

The grid and its one shared run per config live in
``tests/harness/golden_grid.py``.

``PERMITTED`` lists, by config key, the only fields allowed to differ from
the fixture and why: the canary-deadline bug fix, the two places where
the validator loops had drifted apart and now share one decide step, the
one ``anomaly.flag`` trace event the deleted EWMA hooks emitted, and the
``drop`` marker every queue drop now ends its span chain with.  The two
``timeseries-slo`` keys keep their names so the fixture stays as
recorded; they now run the time-series recorder alone.
"""

import json
import pathlib
import sys

import pytest

from tests.harness.golden_grid import GRID, grid_run

FIXTURE = pathlib.Path(__file__).parent.parent / "fixtures" / "driver_golden.json"

#: config key -> {field: why it may differ from the parent commit}.
#: Everything else is byte-identical.
_DECISION_EVENT = (
    "the fault-tolerant loop now emits the sampler.decision trace event the "
    "plain loop and pump() always emitted for the same transition"
)
_CANARY_SIGNAL = (
    "canaries bypass the sampler, so the shared decide step no longer adds "
    "their queueing delay to the sampler's load-signal histogram (only the "
    "fault-tolerant loop ever did)"
)
_CANARY_DEADLINE = (
    "canaries dequeued past the drain deadline no longer count as organic "
    "skips / validator drops (nor tick the reclaimer's batch counter)"
)
_ANOMALY_FLAG = (
    _DECISION_EVENT + "; and one trace event fewer: the single anomaly.flag "
    "the EWMA anomaly hooks emitted here is gone with them (DESIGN §14.3)"
)
_QUEUE_DROP_MARKER = (
    "a log dropped from a bounded queue now ends its span chain in a "
    "zero-length drop marker (reason=), as a deadline drop always did: one "
    "span per queue drop, and the orthrus_span_stage_seconds{stage=drop} "
    "series those spans feed"
)
_PAST_DEADLINE = dict.fromkeys(
    ("skipped", "registry", "registry_series", "trace_events"), _CANARY_DEADLINE
)
#: recorded after the decide step was shared, so no decision-event allowance
_RECORDED_AFTER_SHARED_DECIDE = {
    "ft/deferred-fault", "ft/validator-fault", "ft/chaos-canary-audit-tie",
}
PERMITTED = {
    **{
        key: {"trace_events": _DECISION_EVENT}
        for key, (_, _, _, overrides) in GRID.items()
        if key.startswith("ft/") and overrides.get("obs", True) is not None
        and key not in _RECORDED_AFTER_SHARED_DECIDE
    },
    "ft/canary": {"trace_events": _DECISION_EVENT, "registry": _CANARY_SIGNAL},
    "ft/chaos-all-observers": {
        "trace_events": _ANOMALY_FLAG, "registry": _CANARY_SIGNAL,
    },
    "ft/overload-ladder": {
        "trace_events": _ANOMALY_FLAG,
        "registry": _CANARY_SIGNAL + "; and " + _QUEUE_DROP_MARKER,
        "spans": _QUEUE_DROP_MARKER,
        "registry_series": _QUEUE_DROP_MARKER,
    },
    "plain/canary-past-deadline": _PAST_DEADLINE,
    "ft/canary-past-deadline": _PAST_DEADLINE,
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_grid_matches_fixture_keys(golden):
    assert sorted(golden) == sorted(GRID)


@pytest.mark.parametrize("key", sorted(GRID))
def test_driver_matches_parent_commit(golden, key):
    expected = golden[key]
    observed = json.loads(json.dumps(grid_run(key)["golden"]))
    moved = {f for f in expected if observed[f] != expected[f]}
    assert moved <= set(PERMITTED.get(key, ())), {
        f: (expected[f], observed[f]) for f in sorted(moved)
    }


def test_permitted_diffs_name_real_configs():
    assert set(PERMITTED) <= set(GRID)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.harness.test_driver_golden --write")
    FIXTURE.write_text(
        json.dumps({key: grid_run(key)["golden"] for key in sorted(GRID)}, indent=1,
                   sort_keys=True)
        + "\n"
    )
