"""The golden grid's telemetry stream, pinned in order.

``driver_golden.json`` counts trace events and spans and hashes the
registry with sorted keys, so a change that reorders emissions or metric
registrations passes it.  ``tests/fixtures/stream_golden.json`` holds, per
``GRID`` key, one sha256 over the trace events in order, the spans in
order, the registry snapshot as exported and the time series
(:func:`tests.harness.golden_grid.stream_sha`).  It reads the grid's
shared runs, so it adds no simulation of its own.

Record it only from the parent commit's ``src``, from the repository root,
so its diff shows a change: ``PYTHONPATH=<parent>/src python -m
tests.harness.test_stream_golden --write``.
"""

import json
import pathlib
import sys

import pytest

from tests.harness.golden_grid import GRID, grid_run

FIXTURE = pathlib.Path(__file__).parent.parent / "fixtures" / "stream_golden.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_grid(golden):
    assert sorted(golden) == sorted(GRID)


@pytest.mark.parametrize("key", sorted(GRID))
def test_stream_matches_parent_commit(golden, key):
    assert grid_run(key)["stream"] == golden[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.harness.test_stream_golden --write")
    FIXTURE.write_text(json.dumps(
        {key: grid_run(key)["stream"] for key in sorted(GRID)}, indent=1, sort_keys=True
    ) + "\n")
