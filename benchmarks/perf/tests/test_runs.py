"""The runner end to end, at --quick sizes."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from perf import compare, seams, workloads
from perf.trace import Tracer

ROOT = Path(__file__).resolve().parents[3]
RUN = [sys.executable, str(ROOT / "benchmarks/perf/run.py")]


def test_a_traced_pass_does_not_move_the_digest():
    workload = workloads.KvRead(seed=3, quick=True)
    before = workload.run()
    tracer = Tracer()
    with tracer.installed(seams.install_targets()):
        during = workload.run(tracer)
    after = workload.run()
    assert before == during == after
    layer = seams.layer_metrics(tracer)
    assert layer["sim.events"] > 0 and layer["machine.instructions"] > 0
    assert layer["runtime.closures"] == before["operations"]
    assert layer["workloads.make_ops_s"] > 0


def test_the_staged_fleet_is_run_fleet():
    workload = workloads.FleetRollup(seed=3, quick=True)
    fanned, inline = workload.run(), workload.reference_run()
    tracer = Tracer()
    with tracer.installed(seams.install_targets()):
        staged = workload.run(tracer)
    assert staged.pop("fleet.pickle_bytes") > 0
    assert staged == inline == fanned
    assert staged["balanced"] is True
    layer = seams.layer_metrics(tracer)
    stages = sum(layer[f"fleet.{s}_s"] for s in ("topology", "plan", "simulate", "merge"))
    assert stages > 0.9 * tracer.root.total_ns / 1e9


def test_quick_smoke_of_every_workload(tmp_path):
    out = tmp_path / "quick.json"
    start = time.perf_counter()
    proc = subprocess.run(
        RUN + ["--workload", "all", "--seed", "5", "--quick", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert time.perf_counter() - start < 20
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    document = json.loads(out.read_text())
    assert document["comparable"] is False
    assert set(document["workloads"]) == set(workloads.WORKLOADS)
    assert set(document["env"]) == {"nproc", "python", "commit", "load1_at_start"}
    for entry in document["workloads"].values():
        assert "run_wall_iqr_frac" in entry["untraced"]
        assert entry["untraced"]["end_to_end"]["failed_op_frac"]["value"] == 0


def test_the_runner_fails_without_the_program(tmp_path):
    """The contract's empty checkout: BENCHMARK.json and the benchmark only."""
    shutil.copytree(ROOT / "benchmarks/perf", tmp_path / "benchmarks/perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "kv_read", "--quick"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _metric(value, samples):
    return {"value": value, "unit": "x", "samples": samples}


def test_judge_separates_regression_unresolved_and_ok():
    steady = _metric(100.0, [99.0, 100.0, 101.0, 100.0])
    assert compare.judge(steady, _metric(104.0, [103, 104, 105, 104]), "lower", 0.1)[0] == "ok"
    assert compare.judge(steady, _metric(120.0, [119, 120, 121, 120]), "lower", 0.1)[0] == "REGRESSION"
    assert compare.judge(steady, _metric(80.0, [79, 80, 81, 80]), "higher", 0.1)[0] == "REGRESSION"
    noisy = _metric(100.0, [70.0, 100.0, 130.0, 100.0])
    assert compare.judge(steady, noisy, "lower", 0.1)[0] == "unresolved"
    # wider than the bound, yet every sample of B beats every sample of A
    assert compare.judge(noisy, _metric(50.0, [40.0, 50.0, 60.0, 50.0]), "lower", 0.1)[0] == "ok"


def test_compare_exits_nonzero_on_count_drift(tmp_path):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: _metric(1.0, [1.0, 1.0]) for m in manifest["end_to_end"]}
    end_to_end["failed_op_frac"] = _metric(0.0, [0.0])

    def document(events):
        return {"comparable": True, "seed": 1, "workloads": {"kv_read": {"untraced": {
            "end_to_end": end_to_end, "observed": {"sim.events": events}}}}}

    paths = []
    for name, events in (("a", 10), ("b", 10), ("c", 11)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(document(events)))
    assert compare.compare_files([str(paths[0]), str(paths[1])], manifest) == 0
    assert compare.compare_files([str(paths[0]), str(paths[2])], manifest) == 1
