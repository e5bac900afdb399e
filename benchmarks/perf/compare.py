"""``run.py compare A.json B.json``: is B worse than A?

Per workload and end-to-end metric, B's median is held to A's by the
bound ``BENCHMARK.json`` fixes.  A pairing whose run-to-run spread (the
distance between the quartiles of its samples, as a share of their
median) exceeds the bound on either side is *unresolved*, not unchanged —
unless every sample of B reads better than every sample of A.  Digests
and exact counts must be equal.  Every ratio is printed with its base.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def iqr_frac(samples: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def judge(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)`` for one metric; worsening is B's median
    over A's as a signed share of A's, positive meaning worse."""
    base, new = a["value"], b["value"]
    sign = 1 if better == "lower" else -1
    worsening = sign * (new - base) / base if base else float(new != base)
    b_wins_all = all(
        sign * (y - x) < 0 for x in a["samples"] for y in b["samples"]
    )
    if max(iqr_frac(a["samples"]), iqr_frac(b["samples"])) > bound and not b_wins_all:
        return "unresolved", worsening
    if worsening > bound:
        return "REGRESSION", worsening
    return "ok", worsening


def compare_files(paths: list[str], manifest: dict) -> int:
    if len(paths) != 2:
        print("usage: run.py compare A.json B.json")
        return 2
    a_doc, b_doc = (json.loads(Path(path).read_text()) for path in paths)
    if not (a_doc["comparable"] and b_doc["comparable"]):
        print("not comparable: at least one side is a --quick run")
        return 2
    if a_doc["seed"] != b_doc["seed"]:
        print(f"note: seeds differ ({a_doc['seed']} vs {b_doc['seed']}); "
              "digests and counts are not compared")
    metrics = manifest["end_to_end"] + [
        # not in BENCHMARK.json (it is 0 on every good run): any rise fails
        {"name": "failed_op_frac", "unit": "frac", "better": "lower", "bound": 0.0}
    ]
    bad = 0
    for name in sorted(a_doc["workloads"].keys() | b_doc["workloads"].keys()):
        a, b = a_doc["workloads"].get(name), b_doc["workloads"].get(name)
        if a is None or b is None:
            print(f"{name}: only in {'B' if a is None else 'A'}")
            bad += 1
            continue
        if "untraced" in a and "untraced" in b:
            for metric in metrics:
                key = metric["name"]
                base, new = (side["untraced"]["end_to_end"][key] for side in (a, b))
                verdict, worsening = judge(base, new, metric["better"], metric["bound"])
                print(f"{name:16s} {key:16s} {verdict:10s} {new['value']:.6g} vs base "
                      f"{base['value']:.6g} {metric['unit']} ({worsening + 0:+.1%} worse, "
                      f"bound {metric['bound']:.0%})")
                bad += verdict == "REGRESSION"
        if a_doc["seed"] != b_doc["seed"]:
            continue
        for part in a.keys() & b.keys():
            seen_a, seen_b = a[part]["observed"], b[part]["observed"]
            for key in sorted(seen_a.keys() | seen_b.keys()):
                if seen_a.get(key) != seen_b.get(key):
                    print(f"{name:16s} {key:16s} DRIFT      "
                          f"{seen_b.get(key)!r} vs base {seen_a.get(key)!r}")
                    bad += 1
    print("FAIL" if bad else "PASS", f"({bad} regression(s) or drift(s))")
    return 1 if bad else 0
