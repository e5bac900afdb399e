"""One roster: BENCHMARK.json == runner == expected.json == seams + probes."""

import json
import re
from pathlib import Path

from perf import probes, seams, workloads

ROOT = Path(__file__).resolve().parents[3]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((ROOT / "benchmarks/perf/expected.json").read_text())["pins"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_names_and_whys_fit_the_contract():
    names = [w["name"] for w in MANIFEST["workloads"]]
    names += [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in MANIFEST["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert len(MANIFEST["per_layer"]) <= 128
    for metric in MANIFEST["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_manifest_runner_and_pins_share_one_workload_roster():
    manifest = {w["name"]: w["why"] for w in MANIFEST["workloads"]}
    runner = {name: cls.why for name, cls in workloads.WORKLOADS.items()}
    assert manifest == runner
    assert set(PINS) == set(runner)
    for name, by_seed in PINS.items():
        assert set(by_seed) == {"1", "2"}, name


def test_every_seam_and_probe_metric_is_listed_per_layer():
    listed = {m["name"] for m in MANIFEST["per_layer"]}
    produced = {seam.metric for seam in seams.SEAMS}
    produced |= {probe.metric for probe in probes.PROBES}
    assert produced <= listed, produced - listed


def test_pins_hold_the_invariants_the_issue_names():
    for seed in ("1", "2"):
        chaos = PINS["chaos_plane"][seed]
        assert chaos["conserved"] is True and chaos["validation.redispatches"] > 0
        assert PINS["fleet_rollup"][seed]["balanced"] is True
        assert PINS["overload_obs"][seed]["validation.skipped"] > 0
        for name in ("kv_read", "lsm_write", "overload_obs", "baselines",
                     "chaos_plane", "inject_campaign"):
            assert PINS[name][seed]["sim.events"] > 0
            assert PINS[name][seed]["machine.instructions"] > 0
