"""Durability cost benchmark: what the WAL charges the serving path.

Replays the identical deterministic mixed tick stream through
:meth:`repro.serve.engine.Engine.apply` three times per backend:

``wal_off``
    ``durability=None`` — the pre-existing serving path, the 1.0x
    reference.
``fsync_batched``
    ``DurabilityConfig(fsync_every_n_ticks=N)`` — group commit: every
    tick's record is written and flushed to the OS, but ``fsync`` runs
    once per ``N`` ticks.
``fsync_every_tick``
    ``fsync_every_n_ticks=1`` — the durability lower bound: one ``fsync``
    per committed tick.

Three guarantees are checked inside the replay, so a passing benchmark is
also a correctness proof at this scale:

* every tick's :class:`~repro.api.ops.ResultBatch` is **bit-identical**
  across all three modes (the WAL is invisible to answers);
* after each durable run, a **fresh backend recovered** from the
  directory is structurally identical (same levels, same bytes) to the
  store the run left behind;
* the recorded rates feed the ``relative_rate`` column the benchmark
  asserts its floor on (group commit must retain >= 0.5x of WAL-off).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.mixed import _make_backend
from repro.bench.runner import PAPER_INSERTION_ELEMENTS, scaled_spec
from repro.bench.wallclock import REPLAY_SEED, assert_results_bit_identical
from repro.bench.workloads import MixedOpConfig, make_mixed_batches
from repro.durability.manager import DurabilityConfig
from repro.durability.recovery import recover
from repro.durability.snapshot import _backend_states
from repro.gpu.spec import GPUSpec
from repro.serve.engine import Engine

#: The three measured modes, in reporting order.
MODES = ("wal_off", "fsync_batched", "fsync_every_tick")

#: Default group-commit width of the ``fsync_batched`` mode.
DEFAULT_FSYNC_BATCH = 8


def _mode_config(
    mode: str, directory: str, fsync_batch: int
) -> Optional[DurabilityConfig]:
    if mode == "wal_off":
        return None
    return DurabilityConfig(
        directory=directory,
        fsync_every_n_ticks=fsync_batch if mode == "fsync_batched" else 1,
    )


def _structures_equal(a, b) -> bool:
    """Structural bit-identity of two backends' snapshot states."""
    (kind_a, _, states_a) = a
    (kind_b, _, states_b) = b
    if kind_a != kind_b or len(states_a) != len(states_b):
        return False
    for sa, sb in zip(states_a, states_b):
        if sa["num_batches"] != sb["num_batches"]:
            return False
        if sa["trailing_placebos"] != sb["trailing_placebos"]:
            return False
        if sa["placebo_level"] != sb["placebo_level"]:
            return False
        la, lb = sa["levels"], sb["levels"]
        if len(la) != len(lb):
            return False
        for va, vb in zip(la, lb):
            if va["index"] != vb["index"]:
                return False
            if not np.array_equal(va["keys"], vb["keys"]):
                return False
            if not np.array_equal(va["values"], vb["values"]):
                return False
    return True


def _run_once(
    kind: str,
    batches,
    tick_size: int,
    spec: GPUSpec,
    mode: str,
    fsync_batch: int,
    directory: Optional[str],
    collect_results: bool,
):
    """One timed replay; returns (wall_s, results-or-None, stats, backend)."""
    backend = _make_backend(kind, tick_size, spec, seed=1)
    config = None
    if mode != "wal_off":
        config = _mode_config(mode, directory, fsync_batch)
    engine = Engine(backend, durability=config)
    results = [] if collect_results else None
    t0 = time.perf_counter()
    for batch in batches:
        result = engine.apply(batch)
        if collect_results:
            results.append(result)
    engine.close()  # inside the timed region: the final group commit counts
    wall = time.perf_counter() - t0
    stats = engine.stats().durability or {}
    return wall, results, stats, backend


def durability_replay(
    num_ops: int,
    tick_size: int,
    backends: Sequence[str] = ("gpulsm", "sharded4"),
    seed: int = REPLAY_SEED,
    spec: Optional[GPUSpec] = None,
    fsync_batch: int = DEFAULT_FSYNC_BATCH,
    repeats: int = 2,
    workdir: Optional[str] = None,
) -> List[dict]:
    """Measure wall-clock ops/s of the serving replay per durability mode.

    Every mode replays the **same** generated tick stream on a fresh
    backend; ``wall_s`` is the best (minimum) of ``repeats`` runs, each in
    a fresh durability directory.  Inside the replay the per-tick answers
    of both durable modes are asserted bit-identical to WAL-off, and after
    each durable run a fresh backend is recovered from the directory and
    asserted structurally identical to the one the run built.

    Returns one row per ``(backend, mode)`` with ``ops_per_s``,
    ``relative_rate`` (vs that backend's WAL-off run), and the WAL
    counters of the measured run.
    """
    if spec is None:
        spec = scaled_spec(num_ops, PAPER_INSERTION_ELEMENTS)
    batches = make_mixed_batches(
        MixedOpConfig(num_ops=num_ops, tick_size=tick_size, seed=seed)
    )
    total_ops = sum(b.size for b in batches)

    own_workdir = workdir is None
    if own_workdir:
        workdir = tempfile.mkdtemp(prefix="repro-durability-bench-")
    rows: List[dict] = []
    try:
        for kind in backends:
            reference_results = None
            base_rate = None
            for mode in MODES:
                best_wall = None
                stats: Dict[str, int] = {}
                for rep in range(repeats):
                    directory = None
                    if mode != "wal_off":
                        directory = os.path.join(
                            workdir, f"{kind}-{mode}-r{rep}"
                        )
                    collect = rep == 0
                    wall, results, run_stats, backend = _run_once(
                        kind,
                        batches,
                        tick_size,
                        spec,
                        mode,
                        fsync_batch,
                        directory,
                        collect_results=collect,
                    )
                    if best_wall is None or wall < best_wall:
                        best_wall = wall
                        stats = run_stats
                    if collect:
                        if mode == "wal_off":
                            reference_results = results
                        else:
                            for t, (ref, got) in enumerate(
                                zip(reference_results, results)
                            ):
                                assert_results_bit_identical(
                                    ref,
                                    got,
                                    context=f"{kind}/{mode} tick {t}",
                                )
                    if mode != "wal_off" and rep == repeats - 1:
                        # Recover a fresh backend from the run's directory
                        # and demand structural bit-identity with the
                        # store the run left behind.
                        recovered = _make_backend(kind, tick_size, spec, seed=1)
                        report = recover(directory, recovered)
                        if report.ticks != len(batches):
                            raise AssertionError(
                                f"{kind}/{mode}: recovery saw {report.ticks} "
                                f"ticks, the run committed {len(batches)}"
                            )
                        if not _structures_equal(
                            _backend_states(backend),
                            _backend_states(recovered),
                        ):
                            raise AssertionError(
                                f"{kind}/{mode}: recovered structure differs "
                                "from the live store"
                            )
                ops_per_s = total_ops / best_wall if best_wall > 0 else float("inf")
                if mode == "wal_off":
                    base_rate = ops_per_s
                rows.append(
                    {
                        "backend": kind,
                        "mode": mode,
                        "num_ops": total_ops,
                        "ticks": len(batches),
                        "fsync_every_n_ticks": (
                            None
                            if mode == "wal_off"
                            else (fsync_batch if mode == "fsync_batched" else 1)
                        ),
                        "wall_s": best_wall,
                        "ops_per_s": ops_per_s,
                        "relative_rate": ops_per_s / base_rate,
                        "wal_appends": stats.get("wal_appends", 0),
                        "wal_fsyncs": stats.get("wal_fsyncs", 0),
                        "wal_bytes": stats.get("wal_bytes", 0),
                        "recovered_ok": mode != "wal_off",
                    }
                )
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return rows
