#!/usr/bin/env python3
"""Host-time benchmark runner (see README.md in this directory).

    python3 benchmarks/perf/run.py --workload all --seed 1 [--trace both]
    python3 benchmarks/perf/run.py --workload kv_read --seed 1 --seconds 10 --trace 0
    python3 benchmarks/perf/run.py compare A.json B.json

Every workload runs in child processes of its own, one at a time: two
children that only set up (so ``setup_s`` is a median of three), then one
that sets up and measures.  ``--trace 1`` runs the traced pass instead,
which yields the per-layer metrics; end-to-end metrics always come from
the untraced pass.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE.parent))  # the benchmark's modules import as ``perf.*``

from perf.compare import compare_files, iqr_frac  # noqa: E402
from perf.trace import SeamError, Tracer  # noqa: E402

SCHEMA = "orthrus-hostbench/1"
#: set-ups per untraced run; setup_s is their median
SETUP_RUNS = 3
MIN_REPEATS = 5
#: a child must finish well inside the contract's 180 s per run
CHILD_TIMEOUT_S = 170
#: what every repeat of every workload must observe, pinned seed or not
INVARIANTS = {"crashed": False, "conserved": True, "balanced": True}


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list[str]:
    return [w["name"] for w in manifest()["workloads"]]


# ----------------------------------------------------------------------
# child: one workload, in its own process
# ----------------------------------------------------------------------
class Checker:
    """Holds every repeat to the pins of ``expected.json`` — or, on a seed
    that is not pinned, to what the earlier repeats observed."""

    def __init__(self, workload: str, seed: int, quick: bool):
        pins = {} if quick else json.loads((HERE / "expected.json").read_text())["pins"]
        pinned = pins.get(workload, {}).get(str(seed))
        self.pinned = pinned is not None
        self.reference = pinned if self.pinned else {}
        self.mismatches: list[str] = []

    def check(self, observed: dict, complete: bool = False) -> bool:
        """True when ``observed`` agrees with the reference.  ``complete``
        (traced passes) also requires every pinned key to be present."""
        observed = json.loads(json.dumps(observed))
        before = len(self.mismatches)
        for key, value in observed.items():
            if INVARIANTS.get(key, value) != value:
                self.mismatches.append(f"{key}: observed {value!r}")
            elif key not in self.reference and not self.pinned:
                self.reference[key] = value
            elif self.reference.get(key) != value:
                self.mismatches.append(
                    f"{key}: observed {value!r}, expected {self.reference.get(key)!r}"
                )
        if complete and self.pinned:
            for key in self.reference.keys() - observed.keys():
                self.mismatches.append(f"{key}: pinned but not observed")
        for line in self.mismatches[before:]:
            print(f"MISMATCH {line}", file=sys.stderr)
        return len(self.mismatches) == before


def _cpu_s() -> float:
    """User + system CPU seconds of this process and its waited-for workers."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage,
                         (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def _checked(checker: Checker, run, complete: bool = False):
    """One repeat: ``(wall_s, cpu_s, ok, observed)``; a crash is a failure."""
    gc.collect()
    cpu, start = _cpu_s(), perf_counter()
    try:
        observed = run()
    except SeamError:
        raise  # the roster is fail-closed: never score a pass with a dead seam
    except Exception:
        traceback.print_exc()
        observed = None
    wall, cpu = perf_counter() - start, _cpu_s() - cpu
    ok = observed is not None and checker.check(observed, complete)
    return wall, cpu, ok, observed


def child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"repro imported from {repro.__file__}, not this checkout", file=sys.stderr)
        return 1
    from perf import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    checker = Checker(args.workload, args.seed, args.quick)
    _checked(checker, workload.run)  # warm-up: untimed, but checked like any repeat
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        result = {"setup_s": setup_s}
    elif args.trace:
        result = _traced_passes(args, workload, checker)
    else:
        result = _timed_repeats(args, workload, checker)
        result["setup_s"] = setup_s
    result["mismatches"] = checker.mismatches
    print(json.dumps(result))
    return 0


def _timed_repeats(args, workload, checker) -> dict:
    walls, cpus, failed = [], [], 0
    min_repeats = 2 if args.quick else MIN_REPEATS
    deadline = perf_counter() + args.seconds
    while len(walls) < min_repeats or perf_counter() < deadline:
        wall, cpu, ok, _ = _checked(checker, workload.run)
        walls.append(wall)
        cpus.append(cpu)
        failed += not ok
    ops = workload.ops
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]

    def metric(unit, samples):
        return {"value": statistics.median(samples), "unit": unit, "samples": samples}

    return {
        "ops_per_repeat": ops,
        "repeats": len(walls),
        "attempted": ops * len(walls),
        "failed": ops * failed,
        "run_wall_s": walls,
        "run_wall_iqr_frac": iqr_frac(walls),
        "observed": checker.reference,
        "end_to_end": {
            "host_ops_per_s": metric("1/s", [ops / w for w in walls]),
            "cpu_us_per_op": metric("us", [c / ops * 1e6 for c in cpus]),
            # ru_maxrss is KiB on Linux: this process plus its largest worker
            "peak_rss_mb": metric("MB", [sum(usage) / 1024]),
            "failed_op_frac": metric("frac", [failed / len(walls)]),
        },
    }


def _traced_passes(args, workload, checker) -> dict:
    from perf import probes, seams

    targets = seams.install_targets() if workload.traced else {}
    exact = {s.metric for s in seams.SEAMS
             if s.kind == "calls" or s.kind.startswith("watch:")}
    issue_ns = 0.0
    if workload.traced:
        elapsed_ns, calls, _ = probes.machine_issue(20000, args.seed)
        issue_ns = elapsed_ns / calls
    layer_names = {m["name"] for m in manifest()["per_layer"]}
    passes, attempts, failed, tracer = [], 0, 0, None
    deadline = perf_counter() + args.seconds
    while not attempts or perf_counter() < deadline:
        attempts += 1
        untraced_s, _, ok_ref, _ = _checked(checker, workload.reference_run)
        tracer = Tracer()
        layer: dict[str, float] = {}

        def traced_run():
            with tracer.installed(targets):
                observed = workload.run(tracer if workload.traced else None)
            if workload.traced:
                layer.update(seams.layer_metrics(tracer))
                # exact counts from the seams are outputs too: pin them
                observed.update({m: layer[m] for m in exact if layer[m]})
            return observed

        wall_s, _, ok, observed = _checked(checker, traced_run, complete=True)
        failed += not (ok and ok_ref)
        if observed is None:
            continue
        traced_s = tracer.root.total_ns / 1e9
        layer.update({k: v for k, v in observed.items() if k in layer_names})
        layer.update(workload.layer_values)
        layer.update(workload.extras(untraced_s))
        if workload.traced:
            # wall time in no named layer: driver glue, the DES loop between
            # seams, and the benchmark's own code between stages
            layer["harness.unattributed_frac"] = (
                layer["harness.driver_self_s"] + layer["sim.step_self_s"]
                + tracer.root.self_ns / 1e9) / traced_s
            layer["trace_overhead_frac"] = traced_s / untraced_s - 1
        if layer.get("machine.instructions"):
            layer["machine.issue_ns"] = issue_ns
            layer["machine.est_share"] = (
                layer["machine.instructions"] * issue_ns / 1e9 / traced_s)
        layer["trace.wall_s"] = traced_s
        # install/uninstall and the seam fold sit between the two clocks
        layer["trace.residual_frac"] = (wall_s - traced_s) / wall_s
        passes.append(layer)
    if not passes:
        raise SystemExit("every traced pass crashed")
    per_layer = {
        name: statistics.median(p.get(name, 0.0) for p in passes)
        for name in sorted(set().union(*passes))
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace_{args.workload}.json").write_text(json.dumps({
        "schema": SCHEMA, "workload": args.workload, "seed": args.seed,
        "passes": len(passes), "per_layer": per_layer,
        "paths_of_last_pass": tracer.paths(),
    }, indent=1))
    return {
        "ops_per_repeat": workload.ops,
        "passes": len(passes),
        "attempted": workload.ops * attempts,
        "failed": workload.ops * failed,
        "observed": checker.reference,
        "per_layer": per_layer,
    }


# ----------------------------------------------------------------------
# parent: spawn children, gather, print, write
# ----------------------------------------------------------------------
def spawn(workload: str, args, trace: bool, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(trace)),
        "--spawned-at", repr(time.time()),
    ]
    cmd += ["--setup-only"] * setup_only + ["--quick"] * args.quick
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_untraced(workload: str, args) -> dict:
    setup_runs = 1 if args.quick else SETUP_RUNS
    setups = [spawn(workload, args, trace=False, setup_only=True)
              for _ in range(setup_runs - 1)]
    result = spawn(workload, args, trace=False)
    samples = [s["setup_s"] for s in setups] + [result.pop("setup_s")]
    result["end_to_end"]["setup_s"] = {
        "value": statistics.median(samples), "unit": "s", "samples": samples}
    return result


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # git would search the directories above the checkout
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "load1_at_start": os.getloadavg()[0],
    }


def parent(args) -> int:
    spec = manifest()
    names = workload_names() if args.workload == "all" else [args.workload]
    document = {
        "schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
        "comparable": not args.quick, "env": environment(), "workloads": {},
    }
    attempted = failed = 0
    line_metrics: dict[str, dict] = {}
    for name in names:
        entry = document["workloads"][name] = {}
        roster: list[tuple[dict, float]] = []
        if args.trace in ("0", "both"):
            entry["untraced"] = run_untraced(name, args)
            measured = entry["untraced"]["end_to_end"]
            roster += [(m, measured[m["name"]]["value"]) for m in spec["end_to_end"]]
            roster.append(({"name": "failed_op_frac", "unit": "frac"},
                           measured["failed_op_frac"]["value"]))
        if args.trace in ("1", "both"):
            entry["traced"] = spawn(name, args, trace=True)
            roster += [(m, entry["traced"]["per_layer"].get(m["name"], 0.0))
                       for m in spec["per_layer"]]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in roster:
            print(f"{name:16s} {metric['name']:28s} {value:16.6g} {metric['unit']}")
            if metric["name"] != "failed_op_frac":
                line_metrics[prefix + metric["name"]] = {
                    "value": value, "unit": metric["unit"]}
        for part in entry.values():
            attempted += part["attempted"]
            failed += part["failed"]
            for line in part["mismatches"]:
                print(f"{name:16s} MISMATCH {line}")
    out = Path(args.out) if args.out else OUT / (
        f"bench_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1))
    print(f"wrote {out}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": line_metrics}))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare_files(argv[1:], manifest())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workload_names() + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each workload measures (default: "
                             "BENCHMARK.json run_seconds; 0 with --quick)")
    parser.add_argument("--trace", choices=["0", "1", "both"], default="0",
                        help="0 = untraced pass (end-to-end metrics), 1 = traced "
                             "pass (per-layer metrics), both = one after the other")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one set-up; output is not comparable")
    parser.add_argument("--out", help="where to write the result JSON")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0 if args.quick else manifest()["run_seconds"]
    if args.child:
        args.trace = args.trace == "1"
        return child(args)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
