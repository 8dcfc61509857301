"""Replaying a workload and estimating its metrics.

One *run* replays the bit-identical tick stream several times, each time on
freshly built state.  The work of a tick is deterministic, so measurement
noise (a neighbour on the box, a page fault) only ever adds time: the
latency reported for batch *i* is the **minimum over the replays**, and
rates and percentiles are computed from that min-envelope.  Counts and the
simulated clock are read from the first replay and must be identical in
every other.
"""

from __future__ import annotations

import collections
import gc
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.api.planner import Consistency
from repro.scale.protocol import simulated_seconds
from repro.serve.cache import ReadCachedBackend
from repro.serve.engine import Engine
from repro.serve.scheduler import TickConfig

import oracle as oracle_mod
from spans import SpanProxy, TimedDurability, Tracer
from workloads import CACHE_CAPACITY, Workload

#: ``threaded_gpulsm`` keeps this many batches outstanding.
WINDOW = 2
TICKET_TIMEOUT_S = 120.0


@dataclass
class Replay:
    """Everything one replay measured."""

    setup_s: float
    latencies: np.ndarray  # hand-off of batch i -> its answers in hand
    intervals: np.ndarray  # completion of batch i-1 -> completion of batch i
    failed_ops: int
    counts: Dict[str, float]
    digest: str = ""
    recovery_s: float = 0.0
    final_state_errors: int = 0
    tracer: Optional[Tracer] = None
    #: End-of-run readings that feed per-layer metrics only (device counters,
    #: filter rates, shard profile of a traced replay; WAL directory size).
    layer: Dict[str, float] = field(default_factory=dict)


class Stream:
    """A workload's generated inputs and their expected answers."""

    def __init__(self, workload: Workload, seed: int, smoke: bool) -> None:
        self.workload = workload
        self.sizes = workload.sizes(smoke)
        self.prefill, self.batches = workload.stream(seed, workload.tick, self.sizes)
        self.expected, self.oracle = oracle_mod.build_expected(self.prefill, self.batches)
        self.total_ops = sum(b.size for b in self.batches)
        self.update_ops = sum(b.num_updates for b in self.batches)


def _store_device(backend):
    """The device the planner's kernels are charged to (as ``Engine.apply``)."""
    return getattr(backend, "router_device", None) or backend.device


def _devices(backend) -> list:
    shards = getattr(backend, "shards", None)
    if shards is None:
        return [backend.device]
    return [backend.router_device] + [s.device for s in shards]


def _gpu_totals(devices) -> Dict[str, int]:
    return {
        "launches": sum(d.counter.total_launches for d in devices),
        "bytes": sum(d.counter.total_bytes for d in devices),
        "random_bytes": sum(d.counter.total_random_bytes for d in devices),
    }


def _dir_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory)
        for name in names
    )


def _build_engine(workload: Workload, backend, directory: str, ticks: int,
                  tracer: Optional[Tracer]):
    """The workload's engine; traced, the store (and the cache, built by hand
    so that it can sit between two proxies) is wrapped in span proxies."""
    durability = workload.durability(directory, ticks)
    cache_capacity = CACHE_CAPACITY if workload.cache else None
    cache = None
    if tracer is not None:
        layer = "scale" if hasattr(backend, "shards") else "core"
        backend = SpanProxy(backend, tracer, layer, counts_ticks=True)
        if durability is not None:
            durability = TimedDurability(durability, tracer)
        if workload.cache:
            cache = ReadCachedBackend(backend, capacity=CACHE_CAPACITY)
            backend = SpanProxy(cache, tracer, "serve.cache", timed=("lookup",))
            cache_capacity = None
    config = TickConfig(target_tick_size=workload.tick, linger=0.05)
    engine = Engine(
        backend, config, consistency=Consistency.SNAPSHOT,
        cache_capacity=cache_capacity, durability=durability,
        resilience=workload.resilience(),
    )
    # Not ``cache or ...``: an empty cache has length 0 and is falsy.
    return engine, (engine.read_cache if cache is None else cache)


def _drive_inline(engine: Engine, batches) -> tuple:
    latencies = np.empty(len(batches))
    results = []
    for i, batch in enumerate(batches):
        t0 = time.perf_counter()
        try:
            result = engine.apply(batch)
        except Exception:  # a batch that raises counts as failed, not fatal
            result = None
        latencies[i] = time.perf_counter() - t0
        results.append(result)
    return latencies, latencies, results


def _drive_threaded(engine: Engine, batches) -> tuple:
    """One client, closed loop, ``WINDOW`` batches outstanding."""
    n = len(batches)
    submitted = np.empty(n)
    done = np.empty(n)
    tickets: collections.deque = collections.deque()
    results = []
    engine.start()
    start = time.perf_counter()
    nxt = 0
    for i in range(n):
        while nxt < min(n, i + WINDOW):
            submitted[nxt] = time.perf_counter()
            tickets.append(engine.submit_batch(batches[nxt]))
            nxt += 1
        try:
            result = tickets.popleft().result(timeout=TICKET_TIMEOUT_S)
        except Exception:
            result = None
        done[i] = time.perf_counter()
        results.append(result)
    return done - submitted, np.diff(done, prepend=start), results


def _verify(results, stream: Stream) -> int:
    failed = 0
    for result, expected, batch in zip(results, stream.expected, stream.batches):
        if result is None:
            failed += batch.size
        else:
            failed += oracle_mod.count_failed_ops(result, expected)
    return failed


def run_replay(stream: Stream, scratch: str, traced: bool = False,
               check_final_state: bool = False) -> Replay:
    """Build fresh state, replay the stream, verify every answer."""
    workload = stream.workload
    ticks = len(stream.batches)
    directory = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    tracer = Tracer() if traced else None
    try:
        gc.collect()
        t0 = time.perf_counter()
        backend = workload.backend(workload.tick)
        for keys, values in stream.prefill:
            backend.insert(keys, values)
        engine, cache = _build_engine(workload, backend, directory, ticks, tracer)
        setup_s = time.perf_counter() - t0

        devices = {id(d): d for d in _devices(backend)}
        gpu_before = _gpu_totals(devices.values())
        sim_before = simulated_seconds(backend)
        gc.disable()
        try:
            drive = _drive_threaded if workload.threaded else _drive_inline
            latencies, intervals, results = drive(engine, stream.batches)
        finally:
            gc.enable()
        sim_s = simulated_seconds(backend) - sim_before
        # Devices a rebalance created are live at the end of the run.
        devices.update({id(d): d for d in _devices(backend)})

        stats = engine.stats()
        counts: Dict[str, float] = {
            "sim_seconds": sim_s,
            "memory_bytes": int(backend.memory_usage_bytes),
            "ticks": stats.ticks,
            "failed_ticks": stats.failed_ticks,
            "rolled_back_ticks": stats.rolled_back_ticks,
            "shed_ops": stats.deadline_shed_ops + stats.admission_shed_ops,
            "maintenance_runs": stats.maintenance_runs,
            "maintenance_reclaimed": stats.maintenance_reclaimed,
        }
        if workload.threaded and stats.triggers != {"size": ticks}:
            raise AssertionError(f"threaded ticks were not all size-cut: {stats.triggers}")
        if cache is not None:
            counts.update({f"cache_{k}": v for k, v in cache.cache_stats().items()})
        rebalance = stats.backend_rebalance
        if rebalance is not None:
            for key in ("splits", "merges", "rows_migrated"):
                counts[f"rebalance_{key}"] = rebalance[key]
        if engine.durability is not None:
            durability = engine.durability.stats()
            for key in ("wal_bytes", "wal_fsyncs", "snapshot_runs"):
                counts[key] = durability[key]

        layer = _layer_readings(backend, devices, gpu_before, stream) if traced else {}
        engine.close()

        replay = Replay(
            setup_s=setup_s, latencies=latencies, intervals=intervals,
            failed_ops=_verify(results, stream), counts=counts,
            digest=oracle_mod.answers_digest([r for r in results if r is not None]),
            tracer=tracer, layer=layer,
        )
        if check_final_state:
            replay.final_state_errors = oracle_mod.check_final_state(backend, stream.oracle)
        if workload.durable:
            replay.layer["disk_bytes"] = _dir_bytes(directory)
            _recover(stream, directory, replay)
        return replay
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _recover(stream: Stream, directory: str, replay: Replay) -> None:
    """Reopen the closed store's directory on a fresh identically configured
    backend: snapshot restore plus WAL-tail replay, then compare with the
    oracle's final state."""
    workload = stream.workload
    t0 = time.perf_counter()
    backend = workload.backend(workload.tick)
    engine, _ = _build_engine(workload, backend, directory, len(stream.batches), None)
    replay.recovery_s = time.perf_counter() - t0
    replay.counts["recovery_replayed_ticks"] = engine.durability.stats()[
        "recovery_replayed_ticks"
    ]
    replay.final_state_errors += oracle_mod.check_final_state(backend, stream.oracle)
    engine.close()


def _layer_readings(backend, devices, gpu_before, stream: Stream) -> Dict[str, float]:
    """End-of-run counters of the store, read through its public surface."""
    gpu = _gpu_totals(devices.values())
    out: Dict[str, float] = {
        f"gpu_{key}": gpu[key] - gpu_before[key] for key in gpu
    }
    filters = backend.filter_stats()
    lookups = sum(int(np.count_nonzero(b.opcodes == oracle_mod.LOOKUP)) for b in stream.batches)
    out["lookup_prune_rate"] = filters["lookup_prune_rate"]
    out["searched_per_lookup"] = filters["searched"] / max(1, lookups)
    out["bloom_fp_rate"] = filters["bloom_false_positive_rate"]
    shards = getattr(backend, "shards", None) or [backend]
    elements = [s.num_elements for s in shards]
    out["occupied_levels_end"] = float(np.mean([s.num_occupied_levels for s in shards]))
    out["stale_fraction_end"] = float(
        np.average([s.stale_fraction_estimate() for s in shards], weights=elements)
    ) if sum(elements) else 0.0
    if hasattr(backend, "profile"):
        profile = backend.profile()
        shard_seconds = profile["shard_seconds"]
        out["sim_parallel_over_serial"] = profile["parallel_seconds"] / profile["serial_seconds"]
        out["shard_sim_imbalance"] = max(shard_seconds) / float(np.mean(shard_seconds))
        traffic = backend.traffic_stats()["per_shard_ops"]
        out["traffic_max_min_ratio_end"] = max(traffic) / max(1, min(traffic))
    return out


def run_api_pass(stream: Stream) -> Dict[str, np.ndarray]:
    """Per-tick wall time of ``plan_batch`` and of ``execute_plan`` minus the
    store calls inside it, on a fresh store with no engine around it."""
    from repro.api.planner import execute_plan, plan_batch

    workload = stream.workload
    backend = workload.backend(workload.tick)
    for keys, values in stream.prefill:
        backend.insert(keys, values)
    tracer = Tracer()
    proxy = SpanProxy(backend, tracer, "store")
    device = _store_device(backend)
    n = len(stream.batches)
    plan_wall, plan_sim, execute_wall = np.empty(n), np.empty(n), np.empty(n)
    results = []
    gc.collect()
    gc.disable()
    try:
        for i, batch in enumerate(stream.batches):
            tracer.tick = i
            sim0 = device.simulated_seconds
            t0 = time.perf_counter()
            plan = plan_batch(batch, consistency=Consistency.SNAPSHOT, device=device)
            t1 = time.perf_counter()
            plan_sim[i] = device.simulated_seconds - sim0
            results.append(execute_plan(batch, plan, proxy, device=device))
            execute_wall[i] = time.perf_counter() - t1
            plan_wall[i] = t1 - t0
    finally:
        gc.enable()
    store_wall = np.bincount(tracer.ticks, weights=tracer.durations(), minlength=n)
    return {
        "plan_wall": plan_wall,
        "plan_sim": plan_sim,
        "execute_self": execute_wall - store_wall,
        "failed_ops": _verify(results, stream),
    }


def replay_until(stream: Stream, scratch: str, seconds: float, min_replays: int,
                 max_replays: int, traced: bool = False) -> List[Replay]:
    """Replay until ``seconds`` of measurement are spent (at least
    ``min_replays``, at most ``max_replays``)."""
    replays: List[Replay] = []
    begin = time.perf_counter()
    while len(replays) < min_replays or (
        len(replays) < max_replays and time.perf_counter() - begin < seconds
    ):
        replays.append(run_replay(
            stream, scratch, traced=traced,
            check_final_state=not replays and not traced,
        ))
    first = replays[0]
    for other in replays[1:]:
        if other.counts != first.counts or other.digest != first.digest:
            raise AssertionError(
                f"replays of {stream.workload.name} disagree on a count or an answer: "
                f"{first.counts} vs {other.counts}"
            )
    return replays


def end_to_end(stream: Stream, replays: List[Replay]) -> Dict[str, float]:
    """The end-to-end metrics of one run, from the min-envelope."""
    latency = np.min([r.latencies for r in replays], axis=0)
    interval = np.min([r.intervals for r in replays], axis=0)
    counts = replays[0].counts
    return {
        "setup_s": float(np.median([r.setup_s for r in replays])),
        "ops_per_s": stream.total_ops / float(interval.sum()),
        "batch_ms_p50": float(np.percentile(latency, 50)) * 1e3,
        "batch_ms_p95": float(np.percentile(latency, 95)) * 1e3,
        "sim_mops_per_s": stream.total_ops / counts["sim_seconds"] / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_per_live_key": counts["memory_bytes"] / stream.oracle.live_keys,
    }
