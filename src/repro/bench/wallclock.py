"""Wall-clock serving replay: real ops/s of the reproduction itself.

Every other experiment in :mod:`repro.bench` reports *simulated* time —
the cost model's estimate of the paper's GPU.  This one reports the other
axis: how fast the reproduction actually executes on the host
(``time.perf_counter``), the number ROADMAP item 5 wants tracked so a
future PR cannot quietly regress real speed behind healthy simulated
rates.

The replay has two phases, both derived from the serving workload
generator (:func:`repro.bench.workloads.make_mixed_batches`):

* ``mixed`` — the update-heavy default mix of the open-loop serving
  experiment (:mod:`repro.bench.serve`), replayed tick by tick through
  :meth:`Engine.apply <repro.serve.engine.Engine.apply>`.
* ``hot`` — a read-mostly phase over the state the mixed phase built:
  lookup-dominated traffic with a deterministic hot-key set
  (``hot_key_count`` / ``hot_fraction``), the regime the engine's
  epoch-guarded read cache (:mod:`repro.serve.cache`) exists for.

Each backend is replayed twice on identical fresh state — once uncached,
once with the read cache — and every tick's :class:`ResultBatch` is
asserted **bit-identical** between the two runs before any rate is
reported; a divergence raises (and fails the CI job) instead of producing
a tainted rate.

The rows are wall-clock numbers of one short run — the benchmark asserts
its floors on ratios taken inside that run and does not record them;
``benchmarks/e2e`` is the repository's reproducible wall-clock record.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.ops import OpBatch, OpCode, ResultBatch
from repro.bench.mixed import _make_backend
from repro.bench.runner import PAPER_INSERTION_ELEMENTS, scaled_spec
from repro.bench.workloads import MixedOpConfig, hot_key_set, make_mixed_batches
from repro.gpu.spec import GPUSpec
from repro.serve.cache import DEFAULT_CACHE_CAPACITY
from repro.serve.engine import Engine

#: Seed of the replay workload (kept fixed so every run measures the same
#: op stream).
REPLAY_SEED = 7

#: The hot phase is pure point lookups: the regime the hot-key read
#: cache targets.  (COUNT / RANGE correctness under caching is still
#: exercised — the mixed phase carries them through the same
#: bit-identity assertion.)
HOT_MIX = {OpCode.LOOKUP: 1.0}

#: Batches of prefill inserted before the timed phases.  127 = 0b1111111
#: batches leaves every one of the bottom seven levels populated — the
#: deep multi-level shape a long-lived store settles into, where an
#: uncached lookup pays a probe per level.  (A power-of-two batch count
#: would merge into a single level and flatter the uncached path.)
DEFAULT_PREFILL_BATCHES = 127


def make_prefill(
    tick_size: int,
    prefill_batches: int = DEFAULT_PREFILL_BATCHES,
    hot_keys: Optional[np.ndarray] = None,
    key_space: int = MixedOpConfig.key_space,
) -> List[tuple]:
    """Deterministic ``(keys, values)`` insert batches that seed the store.

    Keys stride the key space evenly, with the replay's hot-key set
    merged in so every hot lookup is a *present* key — an uncached probe
    must walk levels to answer it (a missing key would short-circuit
    through the Bloom filters and hide the cache's effect).
    """
    total = prefill_batches * tick_size
    if total == 0:
        return []
    stride = max(1, key_space // (total + 1))
    keys = (np.arange(1, total + 1, dtype=np.uint64)) * np.uint64(stride)
    if hot_keys is not None and hot_keys.size:
        # Keep every hot key; make room by shedding strided filler keys
        # (a plain truncation of the merged set could drop hot keys that
        # land near the top of the key space).
        hot = np.unique(hot_keys)
        if hot.size >= total:
            keys = hot[:total]
        else:
            strided = keys[~np.isin(keys, hot)][: total - hot.size]
            keys = np.unique(np.concatenate([strided, hot]))
    batches = []
    for lo in range(0, keys.size - keys.size % tick_size, tick_size):
        chunk = keys[lo : lo + tick_size]
        batches.append((chunk, chunk * np.uint64(5)))
    return batches


def make_replay_phases(
    num_ops: int,
    tick_size: int,
    seed: int = REPLAY_SEED,
    hot_key_count: int = 256,
    hot_fraction: float = 1.0,
    prefill_batches: int = DEFAULT_PREFILL_BATCHES,
) -> Dict[str, List]:
    """The replay stream: untimed prefill, then serving mix, then hot reads.

    The ``prefill`` entry holds ``(keys, values)`` insert batches (built
    by :func:`make_prefill`, fed through the backend's ``insert`` before
    the clock starts); ``mixed`` and ``hot`` hold the timed
    :class:`OpBatch` ticks, each phase getting half the operations.
    Everything is a pure function of ``(num_ops, tick_size, seed)`` — the
    hot phase derives its stream from ``seed + 1`` so the two phases are
    independent draws.
    """
    half = max(tick_size, (num_ops // 2 // tick_size) * tick_size)
    hot_config = MixedOpConfig(
        num_ops=half,
        tick_size=tick_size,
        seed=seed + 1,
        mix=dict(HOT_MIX),
        hot_key_count=hot_key_count,
        hot_fraction=hot_fraction,
    )
    mixed = make_mixed_batches(
        MixedOpConfig(num_ops=half, tick_size=tick_size, seed=seed)
    )
    return {
        "prefill": make_prefill(
            tick_size, prefill_batches, hot_keys=hot_key_set(hot_config)
        ),
        "mixed": mixed,
        "hot": make_mixed_batches(hot_config),
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


def _replay_phases(
    phases: Dict[str, List[OpBatch]],
    kind: str,
    tick_size: int,
    spec: GPUSpec,
    cache_capacity: Optional[int],
) -> Dict[str, object]:
    """Run the whole two-phase stream on one fresh backend.

    Returns per-phase wall seconds, the per-tick results (for the
    bit-identity check), and — when caching — per-phase cache counters
    (counters reset at each phase boundary so phases attribute cleanly).
    """
    backend = _make_backend(kind, tick_size, spec, seed=1)
    for keys, values in phases.get("prefill", []):
        backend.insert(keys, values)  # untimed: builds the store, not the replay
    engine = Engine(backend, cache_capacity=cache_capacity)
    results: Dict[str, List[ResultBatch]] = {}
    wall: Dict[str, float] = {}
    cache: Dict[str, Dict[str, int]] = {}
    for phase, batches in phases.items():
        if phase == "prefill":
            continue
        if engine.read_cache is not None:
            engine.read_cache.reset_cache_counters()
        t0 = time.perf_counter()
        results[phase] = [engine.apply(batch) for batch in batches]
        wall[phase] = time.perf_counter() - t0
        if engine.read_cache is not None:
            cache[phase] = engine.read_cache.cache_stats()
    return {"results": results, "wall": wall, "cache": cache}


def wallclock_replay(
    num_ops: int,
    tick_size: int,
    backends: Sequence[str] = ("gpulsm", "sharded4"),
    seed: int = REPLAY_SEED,
    spec: Optional[GPUSpec] = None,
    cache_capacity: int = DEFAULT_CACHE_CAPACITY,
    prefill_batches: int = DEFAULT_PREFILL_BATCHES,
    repeats: int = 3,
) -> List[dict]:
    """Measure wall-clock ops/s of the serve replay, cached vs uncached.

    For every backend the identical tick stream runs on identical fresh
    state once per mode per repeat; every tick's answers are asserted
    bit-identical between the cached and uncached runs before any rate is
    recorded.  Rates are best-of-``repeats`` (minimum wall time per
    phase) — the replay is deterministic, so repeats only shed scheduler
    noise.  Returns one row per (backend, mode, phase) with ``phase`` ∈
    {mixed, hot, overall}, and on cached rows the cache counters and the
    speedup over the uncached sibling run.
    """
    if spec is None:
        spec = scaled_spec(num_ops, PAPER_INSERTION_ELEMENTS)
    phases = make_replay_phases(
        num_ops, tick_size, seed=seed, prefill_batches=prefill_batches
    )
    timed = [name for name in phases if name != "prefill"]
    phase_ops = {name: sum(b.size for b in phases[name]) for name in timed}
    phase_ops["overall"] = sum(phase_ops.values())

    rows: List[dict] = []
    for kind in backends:
        uncached = _replay_phases(phases, kind, tick_size, spec, None)
        cached = _replay_phases(phases, kind, tick_size, spec, cache_capacity)
        for _ in range(max(0, repeats - 1)):
            for run, cap in ((uncached, None), (cached, cache_capacity)):
                again = _replay_phases(phases, kind, tick_size, spec, cap)
                for phase in timed:
                    run["wall"][phase] = min(
                        run["wall"][phase], again["wall"][phase]
                    )
        for phase in timed:
            for i, (a, b) in enumerate(
                zip(uncached["results"][phase], cached["results"][phase])
            ):
                assert_results_bit_identical(
                    a, b, context=f"{kind} {phase} tick {i}"
                )
        for run, mode in ((uncached, "uncached"), (cached, "cached")):
            wall = dict(run["wall"])
            wall["overall"] = sum(wall.values())
            for phase in ("mixed", "hot", "overall"):
                ops = phase_ops[phase]
                rate = ops / wall[phase]
                row = {
                    "backend": kind,
                    "mode": mode,
                    "phase": phase,
                    "num_ops": ops,
                    "ticks": (
                        len(phases[phase])
                        if phase in phases
                        else sum(len(phases[p]) for p in timed)
                    ),
                    "wall_seconds": wall[phase],
                    "ops_per_s": rate,
                    "cache_capacity": cache_capacity if mode == "cached" else 0,
                }
                if mode == "cached":
                    uw = dict(uncached["wall"])
                    uw["overall"] = sum(uw.values())
                    row["speedup_vs_uncached"] = uw[phase] / wall[phase]
                    per_phase = cached["cache"]
                    if phase == "overall":
                        stats_src = [per_phase[p] for p in timed]
                    else:
                        stats_src = [per_phase[phase]]
                    for col, key in (
                        ("cache_hits", "hits"),
                        ("cache_misses", "misses"),
                        ("cache_invalidations", "invalidations"),
                    ):
                        row[col] = sum(s.get(key, 0) for s in stats_src)
                rows.append(row)
    return rows
