"""Shard-rebalancing benchmark: scaling under skew, static vs load-aware.

The sharded scaling experiment (:mod:`repro.bench.sharded`) measures the
uniform-key regime the paper's throughput model assumes; this one measures
the regime that breaks a fixed partition.  Two skewed serving workloads —
a Zipf(1.0) stream over an evenly spread support (rank skew becomes one
hot *range*) and a hot-tenant stream (a handful of tenants own nearly all
traffic) — are replayed tick by tick through
:meth:`Engine.apply <repro.serve.engine.Engine.apply>` against two
identically seeded sharded backends per shard count:

* **static** — the fixed uniform partition (``rebalance_policy=None``);
* **rebalance** — the same backend with a
  :class:`~repro.scale.rebalance.LoadImbalancePolicy`, which the engine's
  between-tick maintenance poll drives to split hot ranges (merging cold
  neighbours to stay within ``max_shards``).

Every tick's :class:`~repro.api.ops.ResultBatch` is asserted
**bit-identical** between the two modes before any rate is reported —
rebalancing is a performance transformation, never a semantic one.  Rates
are *steady-state*: the first half of the ticks warm the store and let the
policy converge, then every device clock is reset and only the second half
is measured, identically in both modes.  The effective (parallel) rate
divides the measured operations by ``profile()["parallel_seconds"]`` —
router plus slowest shard — so a partition that pins one shard shows up
as the rate collapse it really is.

Results land in ``benchmarks/results/rebalance_rates.csv`` plus the
cumulative ``BENCH_rebalance.json`` trajectory (one entry per PR, keyed by
label, so future PRs cannot regress the speedup silently).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.ops import OpCode, ResultBatch
from repro.bench.runner import PAPER_INSERTION_ELEMENTS, scaled_spec
from repro.bench.workloads import MixedOpConfig, make_mixed_batches
from repro.gpu.spec import GPUSpec
from repro.scale.rebalance import LoadImbalancePolicy
from repro.scale.sharded import ShardedLSM
from repro.serve.engine import Engine

#: Seed of the replay workload (fixed so every PR's trajectory point
#: measures the same op stream).
REBALANCE_SEED = 11

#: Read-mostly serving mix: the regime rebalancing targets (a query's
#: cost tracks the traffic the router counts, so balancing traffic
#: balances work; the update-heavy default mix spends most of its time in
#: insertion cascades whose cost scales with resident state, not traffic).
REBALANCE_MIX = {
    OpCode.INSERT: 0.20,
    OpCode.DELETE: 0.05,
    OpCode.LOOKUP: 0.60,
    OpCode.COUNT: 0.075,
    OpCode.RANGE: 0.075,
}

#: The two skew shapes: ``zipf`` is the classic Zipf(1.0) popularity curve
#: over a 1024-key support spread evenly across the keyspace (the popular
#: head concentrates ~73% of point traffic into the lowest eighth of the
#: domain at 8 uniform shards); ``hot_tenant`` models a few tenants owning
#: nearly all traffic (a steeper curve over a 16-key support).
WORKLOADS: Dict[str, dict] = {
    "zipf": dict(zipf_theta=1.0, zipf_key_count=1024),
    "hot_tenant": dict(zipf_theta=1.8, zipf_key_count=16),
}


def assert_results_bit_identical(
    a: ResultBatch, b: ResultBatch, context: str = ""
) -> None:
    """Raise ``AssertionError`` unless two result batches agree bit for bit."""
    where = f" ({context})" if context else ""
    if not np.array_equal(a.statuses, b.statuses):
        raise AssertionError(f"statuses diverged{where}")
    if not np.array_equal(a.found, b.found):
        raise AssertionError(f"found flags diverged{where}")
    if (a.values is None) != (b.values is None) or (
        a.values is not None and not np.array_equal(a.values, b.values)
    ):
        raise AssertionError(f"values diverged{where}")
    if not np.array_equal(a.counts, b.counts):
        raise AssertionError(f"counts diverged{where}")
    if not np.array_equal(a.range_offsets, b.range_offsets):
        raise AssertionError(f"range offsets diverged{where}")
    if not np.array_equal(a.range_keys, b.range_keys):
        raise AssertionError(f"range keys diverged{where}")
    if (a.range_values is None) != (b.range_values is None) or (
        a.range_values is not None
        and not np.array_equal(a.range_values, b.range_values)
    ):
        raise AssertionError(f"range values diverged{where}")
    if sorted(a.errors) != sorted(b.errors):
        raise AssertionError(f"error sets diverged{where}")


def _traffic_ratio(backend: ShardedLSM) -> float:
    """max/min per-shard EWMA traffic (inf when a shard saw nothing)."""
    ewma = backend.traffic_stats()["per_shard_ewma"]
    hottest = max(ewma)
    coldest = min(ewma)
    if hottest <= 0.0:
        return 1.0
    return float("inf") if coldest <= 0.0 else hottest / coldest


def rebalance_scaling(
    num_ops: int,
    tick_size: int,
    shard_counts: Sequence[int] = (8,),
    workloads: Sequence[str] = ("zipf", "hot_tenant"),
    seed: int = REBALANCE_SEED,
    spec: Optional[GPUSpec] = None,
) -> List[dict]:
    """Run the static-vs-rebalancing comparison; returns one row per
    (workload, shard count, mode) with the steady-state effective rate,
    the per-shard traffic balance, and the rebalance counters."""
    if spec is None:
        spec = scaled_spec(num_ops, PAPER_INSERTION_ELEMENTS)
    rows: List[dict] = []
    for workload in workloads:
        config = MixedOpConfig(
            num_ops=num_ops,
            tick_size=tick_size,
            seed=seed,
            mix=REBALANCE_MIX,
            **WORKLOADS[workload],
        )
        batches = make_mixed_batches(config)
        warmup = len(batches) // 2
        measured_ops = sum(b.size for b in batches[warmup:])
        per_mode: Dict[str, dict] = {}
        for num_shards in shard_counts:
            for mode in ("static", "rebalance"):
                policy = (
                    LoadImbalancePolicy(
                        imbalance_threshold=1.5,
                        min_traffic=max(1, tick_size // 2),
                        cooldown_ticks=0,
                    )
                    if mode == "rebalance"
                    else None
                )
                backend = ShardedLSM(
                    num_shards,
                    batch_size=tick_size,
                    spec=spec,
                    seed=1,
                    rebalance_policy=policy,
                    max_shards=num_shards,
                )
                engine = Engine(backend)
                results = []
                for i, batch in enumerate(batches):
                    if i == warmup:
                        # Steady state: the store is warm and the policy
                        # has converged; measure only from here, with the
                        # identical clock reset in both modes.
                        backend.reset_counters()
                    results.append(engine.apply(batch))
                profile = backend.profile()
                reb = backend.rebalance_stats()
                per_mode[mode] = {"results": results}
                rows.append(
                    {
                        "workload": workload,
                        "num_shards": num_shards,
                        "mode": mode,
                        "ticks": len(batches),
                        "measured_ops": measured_ops,
                        "parallel_seconds": profile["parallel_seconds"],
                        "serial_seconds": profile["serial_seconds"],
                        "effective_rate_mops": measured_ops
                        / profile["parallel_seconds"]
                        / 1e6,
                        "traffic_max_min_ratio": _traffic_ratio(backend),
                        "rebalance_runs": reb["rebalance_runs"],
                        "splits": reb["splits"],
                        "merges": reb["merges"],
                        "rows_migrated": reb["rows_migrated"],
                        "boundary_version": reb["boundary_version"],
                        "final_shards": reb["num_shards"],
                    }
                )
            # Rebalancing must be answer-invisible: every tick of the
            # measured stream agrees bit for bit between the two modes.
            for t, (a, b) in enumerate(
                zip(per_mode["static"]["results"], per_mode["rebalance"]["results"])
            ):
                assert_results_bit_identical(
                    a, b, f"{workload} shards={num_shards} tick {t}"
                )
            static_rate = next(
                r["effective_rate_mops"]
                for r in rows
                if r["workload"] == workload
                and r["num_shards"] == num_shards
                and r["mode"] == "static"
            )
            for r in rows:
                if (
                    r["workload"] == workload
                    and r["num_shards"] == num_shards
                    and r["mode"] == "rebalance"
                ):
                    r["speedup_vs_static"] = r["effective_rate_mops"] / static_rate
    return rows


def update_rebalance_trajectory(path: str, rows: Sequence[dict], label: str) -> dict:
    """Record this run's speedups in the cumulative ``BENCH_rebalance.json``.

    One entry per recorded point, keyed by ``label`` (an existing entry
    with the same label is replaced, so re-running a PR's benchmark does
    not duplicate its point).  Returns the full trajectory document.
    """
    doc = {
        "metric": "effective (parallel) Mops/s under skew, static vs rebalancing",
        "entries": [],
    }
    if os.path.exists(path):
        with open(path) as handle:
            doc = json.load(handle)
    points: Dict[str, dict] = {}
    for row in rows:
        key = f"{row['workload']}@{row['num_shards']}"
        point = points.setdefault(key, {})
        point[row["mode"]] = round(row["effective_rate_mops"], 6)
        if "speedup_vs_static" in row:
            point["speedup"] = round(row["speedup_vs_static"], 3)
            point["traffic_max_min_ratio"] = round(
                min(row["traffic_max_min_ratio"], 1e9), 3
            )
    entry = {"label": label, "rates": points}
    doc["entries"] = [e for e in doc["entries"] if e.get("label") != label] + [entry]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc
