#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A/result.json B/result.json

Prints one row per (workload, metric) with both values and the ratio B/A
(base A), applies the bound ``BENCHMARK.json`` fixes for each end-to-end
metric in both directions ("the two sets agree"), and — when both sets used
the same seed — requires the simulated-clock metrics and every count-type
layer metric to be exactly equal.  Exits non-zero on a violation.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: End-to-end metrics that carry no wall-clock noise: equal seeds, equal values.
EXACT = ("sim_mops_per_s", "bytes_per_live_key")


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as a_file, open(argv[2]) as b_file:
        a, b = json.load(a_file), json.load(b_file)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    same_seed = a["seed"] == b["seed"] and a["smoke"] == b["smoke"]
    if not same_seed:
        print("note: seeds or sizes differ, so no metric is required to be exactly equal")

    violations = 0
    print(f"{'workload':<20} {'metric':<40} {'A':>14} {'B':>14} {'B/A':>8}  verdict")
    rows = [(m, "end_to_end", m["bound"], same_seed and m["name"] in EXACT)
            for m in contract["end_to_end"]]
    rows += [(m, "per_layer", None,
              same_seed and m["unit"] == "count" and not m["name"].startswith("bench."))
             for m in contract["per_layer"]]
    for spec in contract["workloads"]:
        name = spec["name"]
        for metric, section, bound, exact in rows:
            side_a = a["workloads"][name].get(section)
            side_b = b["workloads"][name].get(section)
            if not side_a or not side_b:
                continue
            va, vb = side_a[metric["name"]], side_b[metric["name"]]
            ratio = vb / va if va else (1.0 if vb == va else float("inf"))
            if exact:
                ok, rule = va == vb, "exact"
            elif bound is not None:
                ok, rule = abs(ratio - 1.0) <= bound, f"within {bound:.0%}"
            else:
                ok, rule = True, "no bound"
            violations += not ok
            print(f"{name:<20} {metric['name']:<40} {va:>14.6g} {vb:>14.6g} {ratio:>8.4f}  "
                  f"{'ok' if ok else 'VIOLATION'} ({rule})")
    print(f"\n{violations} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
