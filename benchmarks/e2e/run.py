#!/usr/bin/env python3
"""The repository's end-to-end benchmark (see README.md in this directory).

One workload, as the benchmark driver runs it::

    python3 benchmarks/e2e/run.py --workload mixed_gpulsm --seed 7 --seconds 10 --trace 0

prints every end-to-end metric by name and unit (``--trace 1``: every
per-layer metric, from a separate traced run) and ends with one JSON line.
Without ``--workload`` all six workloads run, each in its own child process,
and ``--out DIR`` collects ``DIR/result.json`` with provenance.

The inputs are a pure function of ``--seed``; every answer of every replay
is compared with an independent oracle; a wrong answer makes the exit code
non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SCRATCH_PREFIX = ".scratch-"  # WAL and snapshot directories live here; ignored by git
MAX_REPLAYS = 8


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(contract: dict) -> argparse.Namespace:
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all, one child process each")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="measurement time of one run: replays repeat until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the separate traced run that yields the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="16 ticks, 7 prefill batches, one replay: a functional check only")
    parser.add_argument("--out", help="directory for result files (nothing is written without it)")
    return parser.parse_args()


def print_metrics(title: str, metrics: dict, declared: list) -> None:
    print(f"\n{title}")
    for spec in declared:
        value = metrics[spec["name"]]
        print(f"  {spec['name']:<42} {value:>16.6g} {spec['unit']:<12} ({spec['better']} is better)")


def check_metrics(metrics: dict, declared: list) -> None:
    """Exactly the declared names, every value finite and non-negative."""
    undeclared = set(metrics) ^ {spec["name"] for spec in declared}
    bad = [name for name, value in metrics.items() if not math.isfinite(value) or value < 0]
    if undeclared or bad:
        sys.exit(f"error: undeclared metrics {sorted(undeclared)}, non-finite or negative {bad}")


def run_workload(args: argparse.Namespace, contract: dict) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"error: the program under test is missing ({src}/repro)")
    sys.path.insert(0, src)
    import layers
    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    started = time.time()
    load_before = os.getloadavg()[0]
    floor, cap = (1, 1) if args.smoke else (2, MAX_REPLAYS)
    budget = args.seconds / 2 if args.trace else args.seconds
    scratch = tempfile.mkdtemp(prefix=SCRATCH_PREFIX, dir=HERE)
    try:
        stream = measure.Stream(workload, args.seed, args.smoke)
        untraced = measure.replay_until(stream, scratch, budget, floor, cap)
        end_to_end = measure.end_to_end(stream, untraced)
        check_metrics(end_to_end, contract["end_to_end"])
        traced, per_layer = [], None
        attempted = stream.total_ops * len(untraced)
        failed = sum(r.failed_ops + r.final_state_errors for r in untraced)
        if args.trace:
            traced = measure.replay_until(stream, scratch, budget, 1, cap, traced=True)
            if traced[0].counts != untraced[0].counts:
                sys.exit(f"error: tracing changed a count: {traced[0].counts} "
                         f"vs {untraced[0].counts}")
            api = measure.run_api_pass(stream)
            per_layer = layers.per_layer(
                stream, untraced, traced, api, layers.primitives_pass(args.seed)
            )
            check_metrics(per_layer, contract["per_layer"])
            attempted += stream.total_ops * (len(traced) + 1)
            failed += api["failed_ops"] + sum(
                r.failed_ops + r.final_state_errors for r in traced
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {workload.name}: seed {args.seed}, {len(stream.batches)} ticks x "
          f"{workload.tick} ops, {len(untraced)} untraced replays, {len(traced)} traced")
    print_metrics(f"end-to-end metrics (batch percentiles over {len(stream.batches)} samples)",
                  end_to_end, contract["end_to_end"])
    if per_layer is not None:
        print_metrics("per-layer metrics (traced run)", per_layer, contract["per_layer"])
    print(f"\nanswers_sha256 {untraced[0].digest}  "
          f"oracle: {attempted - failed}/{attempted} ops correct")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        record = {
            "workload": workload.name, "seed": args.seed, "smoke": args.smoke,
            "seconds": args.seconds, "ticks": len(stream.batches),
            "tick_size": workload.tick, "prefill_batches": stream.sizes.prefill_batches,
            "replays": len(untraced), "traced_replays": len(traced),
            "end_to_end": end_to_end, "per_layer": per_layer,
            "answers_sha256": untraced[0].digest,
            "attempted": attempted, "failed": failed,
            "replay_totals_s": [float(r.intervals.sum()) for r in untraced],
            "setup_s_per_replay": [r.setup_s for r in untraced],
            "recovery_s": min(r.recovery_s for r in untraced),
            "counts": untraced[0].counts,
            "spans": len(traced[0].tracer) if traced else 0,
            "load_avg_1min": [load_before, os.getloadavg()[0]],
            "wall_s": time.time() - started,
        }
        with open(os.path.join(args.out, f"{workload.name}.json"), "w") as out:
            json.dump(record, out, indent=1)
        if traced:
            layers.write_trace(traced, os.path.join(args.out, f"{workload.name}.trace.jsonl"))

    metrics, declared = ((per_layer, contract["per_layer"]) if args.trace
                         else (end_to_end, contract["end_to_end"]))
    units = {spec["name"]: spec["unit"] for spec in declared}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(args: argparse.Namespace, contract: dict) -> int:
    """Every workload in its own child process; collects ``result.json``."""
    started = time.time()
    out = args.out or tempfile.mkdtemp(prefix=SCRATCH_PREFIX, dir=HERE)
    records, status = {}, 0
    try:
        for spec in contract["workloads"]:
            command = [sys.executable, os.path.abspath(__file__), "--workload", spec["name"],
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", out]
            if args.smoke:
                command.append("--smoke")
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            print(child.stdout.rstrip("\n").rpartition("\n")[0])  # all but the JSON line
            status = status or child.returncode
            if child.returncode == 0:
                with open(os.path.join(out, f"{spec['name']}.json")) as handle:
                    records[spec["name"]] = json.load(handle)
        if status == 0:
            status = check_same_answers(records)
            derived = derive(records)
            print("\nderived from pairs of workloads (each ratio names its base):")
            for name, value in derived.items():
                print(f"  {name:<60} {value:>10.4f}")
        if args.out and status == 0:
            import numpy

            with open(os.path.join(out, "result.json"), "w") as handle:
                json.dump({
                    "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
                    "trace": args.trace, "commit": git_commit(), "nproc": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__,
                    "wall_s": time.time() - started,
                    "workloads": records, "derived": derived,
                }, handle, indent=1)
            print(f"\nwrote {os.path.join(out, 'result.json')}")
    finally:
        if not args.out:
            shutil.rmtree(out, ignore_errors=True)
    return status


#: Workloads that replay the same stream on the same prefill: equal answers.
SAME_ANSWERS = (
    ("mixed_gpulsm", "mixed_sharded4", "threaded_gpulsm"),
    ("fullstack_sharded4", "barestack_sharded4"),
)


def check_same_answers(records: dict) -> int:
    for group in SAME_ANSWERS:
        if len({records[name]["answers_sha256"] for name in group}) > 1:
            print(f"error: answers differ within {group}", file=sys.stderr)
            return 4
    return 0


def derive(records: dict) -> dict:
    """Cross-workload numbers no single run can measure."""
    def rate(workload: str) -> float:
        return records[workload]["end_to_end"]["ops_per_s"]

    def ms_per_tick(workload: str) -> float:
        return records[workload]["tick_size"] / rate(workload) * 1e3

    return {
        "scale.rate_ratio (mixed_sharded4 / mixed_gpulsm)":
            rate("mixed_sharded4") / rate("mixed_gpulsm"),
        "serve.threaded.rate_ratio (threaded_gpulsm / mixed_gpulsm)":
            rate("threaded_gpulsm") / rate("mixed_gpulsm"),
        "serve.threaded.overhead_ms_per_tick (threaded - mixed)":
            ms_per_tick("threaded_gpulsm") - ms_per_tick("mixed_gpulsm"),
        "serve.stack_price (fullstack_sharded4 / barestack_sharded4)":
            rate("fullstack_sharded4") / rate("barestack_sharded4"),
    }


def main() -> int:
    contract = load_contract()
    args = parse_args(contract)
    if args.workload:
        return run_workload(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
