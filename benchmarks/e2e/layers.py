"""Per-layer metrics of a traced run.

Wall-clock layer numbers come from the min-envelope of the traced replays'
spans; counts and simulated times from the first traced replay.  A metric
that does not apply to a workload (``durability.*`` without durability,
``scale.*`` on a single GPULSM, ``core.<op>.*`` behind a ``ShardedLSM``,
whose store spans are named ``scale.<op>`` and include the per-shard core
work) is reported as 0 so that every run prints every declared name.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.gpu.device import Device
from repro.primitives import (
    lower_bound,
    merge_pairs,
    multisplit_pairs,
    radix_sort_pairs,
    segmented_sort_pairs,
)

from measure import Replay, Stream
from spans import min_envelope, per_name, self_times
from workloads import SPEC

OPS = {"update": "update", "lookup": "lookup", "count": "count", "range": "range_query"}
PRIMITIVE_CALLS = 21


def primitives_pass(seed: int) -> Dict[str, float]:
    """Median wall time of 21 calls, and the simulated time of one call, of
    the five primitives the store spends its time in, at fixed input sizes."""
    rng = np.random.default_rng(seed)
    n = 4096
    keys = rng.integers(0, 1 << 31, n, dtype=np.uint64).astype(np.uint32)
    values = np.arange(n, dtype=np.uint32)
    run_a = np.sort(rng.integers(0, 1 << 31, 1 << 16, dtype=np.uint64).astype(np.uint32))
    run_b = np.sort(rng.integers(0, 1 << 31, 1 << 16, dtype=np.uint64).astype(np.uint32))
    run_values = np.arange(1 << 16, dtype=np.uint32)
    seg_keys = rng.integers(0, 1 << 31, n * 8, dtype=np.uint64).astype(np.uint32)
    seg_values = np.arange(n * 8, dtype=np.uint32)
    seg_offsets = np.arange(0, n * 8 + 1, 8, dtype=np.int64)
    haystack = np.sort(rng.integers(0, 1 << 31, 1 << 17, dtype=np.uint64).astype(np.uint32))
    calls = {
        "radix_sort": lambda d: radix_sort_pairs(keys, values, device=d),
        "merge": lambda d: merge_pairs(run_a, run_values, run_b, run_values, device=d),
        "segmented_sort": lambda d: segmented_sort_pairs(
            seg_keys, seg_values, seg_offsets, device=d
        ),
        "multisplit": lambda d: multisplit_pairs(
            keys, values, lambda k: k >> np.uint32(29), num_buckets=4, device=d
        ),
        "lower_bound": lambda d: lower_bound(haystack, keys, device=d),
    }
    out: Dict[str, float] = {}
    for name, call in calls.items():
        device = Device(SPEC, seed=1)
        walls = []
        for _ in range(PRIMITIVE_CALLS):
            t0 = time.perf_counter()
            call(device)
            walls.append(time.perf_counter() - t0)
        out[f"primitives.{name}.wall_us"] = float(np.median(walls)) * 1e6
        out[f"primitives.{name}.sim_us"] = device.simulated_seconds / PRIMITIVE_CALLS * 1e6
    return out


def write_trace(traced: List[Replay], path: str) -> None:
    """The first traced replay's spans, each with its minimum over the replays."""
    traced[0].tracer.write_jsonl(path, min_envelope([r.tracer for r in traced]))


def per_layer(stream: Stream, untraced: List[Replay], traced: List[Replay],
              api: Dict[str, np.ndarray], primitives: Dict[str, float]) -> Dict[str, float]:
    first = traced[0]
    tracer = first.tracer
    ticks = len(stream.batches)
    durations = min_envelope([r.tracer for r in traced])
    wall = per_name(tracer, durations)
    own = per_name(tracer, self_times(tracer, durations))
    sim = per_name(tracer, np.asarray(tracer.sims))
    zeros = np.zeros(ticks)
    store = "scale" if any(name.startswith("scale.") for name in wall) else "core"

    def total_ms(series: Dict[str, np.ndarray], name: str) -> float:
        return float(series.get(name, zeros).sum()) * 1e3

    def ms_per_tick(series: Dict[str, np.ndarray], name: str) -> float:
        return total_ms(series, name) / ticks

    m: Dict[str, float] = dict(primitives)
    store_wall = sum(wall.get(f"{store}.{call}", zeros).sum() for call in OPS.values())
    launches = first.layer["gpu_launches"]
    m["gpu.launches_per_tick"] = launches / ticks
    m["gpu.dram_bytes_per_op"] = first.layer["gpu_bytes"] / stream.total_ops
    m["gpu.random_bytes_share"] = first.layer["gpu_random_bytes"] / max(1, first.layer["gpu_bytes"])
    m["gpu.host_us_per_launch"] = store_wall / max(1, launches) * 1e6

    for layer in ("core", "scale"):
        for op, call in OPS.items():
            name = f"{layer}.{call}"
            m[f"{layer}.{op}.wall_ms_per_tick"] = ms_per_tick(wall, name)
            m[f"{layer}.{op}.sim_us_per_tick"] = float(sim.get(name, zeros).sum()) / ticks * 1e6
    m["core.update.wall_ms_p95"] = float(np.percentile(wall.get("core.update", zeros), 95)) * 1e3
    m["core.occupied_levels_end"] = first.layer["occupied_levels_end"]
    m["core.filters.lookup_prune_rate"] = first.layer["lookup_prune_rate"]
    m["core.filters.searched_per_lookup"] = first.layer["searched_per_lookup"]
    m["core.filters.bloom_fp_rate"] = first.layer["bloom_fp_rate"]
    m["core.maintenance.runs"] = first.counts["maintenance_runs"]
    m["core.maintenance.wall_ms_total"] = total_ms(wall, f"{store}.run_due_maintenance")
    m["core.maintenance.reclaimed"] = first.counts["maintenance_reclaimed"]
    m["core.stale_fraction_end"] = first.layer["stale_fraction_end"]

    for key in ("sim_parallel_over_serial", "shard_sim_imbalance", "traffic_max_min_ratio_end"):
        m[f"scale.{key}"] = first.layer.get(key, 0.0)
    for key in ("splits", "merges", "rows_migrated"):
        m[f"scale.rebalance.{key}"] = first.counts.get(f"rebalance_{key}", 0)

    m["api.plan.wall_ms_per_tick"] = float(api["plan_wall"].mean()) * 1e3
    m["api.plan.sim_us_per_tick"] = float(api["plan_sim"].mean()) * 1e6
    m["api.execute.self_ms_per_tick"] = float(api["execute_self"].mean()) * 1e3

    traced_interval = np.min([r.intervals for r in traced], axis=0)
    top_level = np.asarray(tracer.parents) < 0
    spans_per_tick = float(durations[top_level].sum()) / ticks
    api_per_tick = float((api["plan_wall"] + api["execute_self"]).mean())
    m["serve.engine.self_ms_per_tick"] = max(
        0.0, float(traced_interval.mean()) - spans_per_tick - api_per_tick
    ) * 1e3
    hits = first.counts.get("cache_hits", 0)
    m["serve.cache.hit_rate"] = hits / max(1, hits + first.counts.get("cache_misses", 0))
    m["serve.cache.invalidations"] = first.counts.get("cache_invalidations", 0)
    m["serve.cache.evictions"] = first.counts.get("cache_evictions", 0)
    m["serve.cache.self_ms_per_tick"] = ms_per_tick(own, "serve.cache.lookup")
    m["serve.resilience.capture_ms_per_tick"] = ms_per_tick(wall, f"{store}.snapshot_state")
    m["serve.failed_ticks"] = first.counts["failed_ticks"]
    m["serve.rolled_back_ticks"] = first.counts["rolled_back_ticks"]
    m["serve.shed_ops"] = first.counts["shed_ops"]

    m["durability.log_tick.wall_ms_per_tick"] = ms_per_tick(wall, "durability.log_tick")
    m["durability.wal_bytes_per_update_op"] = first.counts.get("wal_bytes", 0) / max(
        1, stream.update_ops
    )
    m["durability.fsyncs"] = first.counts.get("wal_fsyncs", 0)
    m["durability.snapshot.runs"] = first.counts.get("snapshot_runs", 0)
    m["durability.snapshot.wall_ms_total"] = total_ms(wall, "durability.maybe_snapshot")
    m["durability.recovery.replayed_ticks"] = first.counts.get("recovery_replayed_ticks", 0)
    m["durability.recovery.wall_s"] = min(r.recovery_s for r in untraced)
    m["durability.disk_bytes_per_live_key"] = (
        first.layer.get("disk_bytes", 0) / stream.oracle.live_keys
    )

    # Like with like: both envelopes over the same number of replays.
    k = min(len(untraced), len(traced))
    envelope = float(np.min([r.intervals for r in untraced[:k]], axis=0).sum())
    traced_envelope = float(np.min([r.intervals for r in traced[:k]], axis=0).sum())
    # Clamped at 0: a negative reading means the overhead is below the noise.
    m["bench.trace_overhead_frac"] = max(0.0, traced_envelope / envelope - 1.0)
    totals = [float(r.intervals.sum()) for r in untraced]
    m["bench.noise_ratio"] = float(np.median(totals)) / float(
        np.min([r.intervals for r in untraced], axis=0).sum()
    )
    m["bench.replays"] = len(untraced)
    return m
