"""``BENCH_perf.json``: the committed, append-only benchmark trajectory.

``BENCHMARK.json`` is a contract (names, bounds), not a record; this file
is the record — one row per PR, workload, seed and series of runs.  The
test holds its shape and its order, not its numbers.
"""

import json
import pathlib
from numbers import Real

import pytest

ROOT = pathlib.Path(__file__).parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in CONTRACT["end_to_end"]]
WORKLOADS = {workload["name"] for workload in CONTRACT["workloads"]}
LAYERS = {metric["name"] for metric in CONTRACT["per_layer"]}


@pytest.fixture(scope="module")
def trajectory():
    return json.loads((ROOT / "BENCH_perf.json").read_text())


def _check_side(side):
    assert set(side) in ({"median"}, {"median", "q1", "q3"}), side
    assert all(isinstance(value, Real) and value >= 0 for value in side.values()), side
    if "q1" in side:
        assert side["q1"] <= side["median"] <= side["q3"], side


def test_top_level_shape(trajectory):
    assert set(trajectory) == {"about", "metrics", "rows"}
    assert trajectory["metrics"] == END_TO_END
    assert trajectory["rows"]


def test_rows_are_ordered_by_pr(trajectory):
    prs = [row["pr"] for row in trajectory["rows"]]
    assert prs == sorted(prs)
    assert {11, 15, 17} <= set(prs), "the back-filled rows"


def test_every_row_has_the_row_shape(trajectory):
    for row in trajectory["rows"]:
        assert {"pr", "workload", "seed", "pairs", "protocol", "source", "metrics"} <= set(row), row
        assert set(row) <= {"pr", "workload", "seed", "pairs", "protocol", "source", "metrics", "layers"}
        assert isinstance(row["pr"], int) and row["seed"] in (1, 2)
        assert row["workload"] in WORKLOADS
        assert isinstance(row["pairs"], int) and row["pairs"] > 0
        assert row["protocol"] and row["source"]
        assert row["metrics"] and set(row["metrics"]) <= set(END_TO_END)
        for name, metric in row["metrics"].items():
            assert "change" in metric and set(metric) <= {"parent", "change", "wins"}, (row["pr"], name)
            _check_side(metric["change"])
            if "parent" in metric:
                _check_side(metric["parent"])
            if "wins" in metric:
                assert "parent" in metric and 0 <= metric["wins"] <= row["pairs"]
        for name, layer in row.get("layers", {}).items():
            assert name in LAYERS, name
            assert "change" in layer and set(layer) <= {"parent", "change", "runs"}, (row["pr"], name)


def test_one_row_per_pr_workload_seed_and_protocol(trajectory):
    keys = [(row["pr"], row["workload"], row["seed"], row["protocol"]) for row in trajectory["rows"]]
    assert len(keys) == len(set(keys))

