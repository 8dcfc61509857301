"""Resilience cost/benefit benchmark: serving under injected faults.

Replays the identical deterministic mixed tick stream through the
*threaded* serving engine (submit → flush per tick, so each pre-formed
batch becomes exactly one tick) three times per backend:

``baseline``
    No faults, no resilience knobs — the 1.0x reference for both the
    rate and the per-tick answers.
``unprotected``
    A recurring :class:`~repro.durability.faults.FaultInjector` crashes
    ``engine.mid_execute`` every ``fault_every``-th update segment, with
    every resilience knob off.  Faulted ticks fail wholesale: every
    co-batched submission loses its answer (goodput drops) and the
    backend keeps whatever the partial tick already applied.
``protected``
    The same fault stream with ``transactional_ticks`` + ``quarantine``
    + ``supervised`` on.  Each faulted tick rolls back, quarantine finds
    no poison (the fault is transient), and the whole tick retries from
    the pre-tick state — so **every** operation still gets an answer.

Two guarantees are checked inside the replay, so a passing benchmark is
also a correctness proof at this scale:

* ``protected`` goodput is 100%: every submitted operation resolves with
  a result despite the injected fault stream;
* every ``protected`` tick's :class:`~repro.api.ops.ResultBatch` is
  **bit-identical** to the fault-free ``baseline`` run (rollback +
  whole-tick retry re-executes the same canonical fold from the same
  pre-tick state).

The rows are wall-clock numbers of one short run; the benchmark asserts
its floors on them and does not record them.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.bench.mixed import _make_backend
from repro.bench.runner import PAPER_INSERTION_ELEMENTS, scaled_spec
from repro.bench.wallclock import REPLAY_SEED, assert_results_bit_identical
from repro.bench.workloads import MixedOpConfig, make_mixed_batches
from repro.durability.faults import FaultInjector
from repro.gpu.spec import GPUSpec
from repro.serve.engine import Engine
from repro.serve.resilience import ResilienceConfig
from repro.serve.scheduler import TickConfig

#: The three measured modes, in reporting order.
MODES = ("baseline", "unprotected", "protected")

#: Default recurrence of the injected fault: every N-th
#: ``engine.mid_execute`` crash-point hit raises.
DEFAULT_FAULT_EVERY = 5

#: The injected crash point (fires once per update segment of a tick).
FAULT_POINT = "engine.mid_execute"


def _mode_resilience(mode: str, fault_every: int) -> Optional[ResilienceConfig]:
    if mode == "baseline":
        return None
    injector = FaultInjector(every={FAULT_POINT: fault_every})
    if mode == "unprotected":
        return ResilienceConfig(fault_injector=injector)
    return ResilienceConfig(
        transactional_ticks=True,
        quarantine=True,
        supervised=True,
        fault_injector=injector,
    )


def _run_once(
    kind: str,
    batches,
    tick_size: int,
    spec: GPUSpec,
    mode: str,
    fault_every: int,
    collect_results: bool,
):
    """One timed threaded replay.

    Returns ``(wall_s, results, ok_ops, failed_ops, stats)`` where
    ``results[t]`` is tick *t*'s :class:`ResultBatch` or ``None`` when
    the tick's submission failed.
    """
    backend = _make_backend(kind, tick_size, spec, seed=1)
    engine = Engine(
        backend,
        config=TickConfig(target_tick_size=tick_size, linger=10.0),
        resilience=_mode_resilience(mode, fault_every),
    )
    results = [] if collect_results else None
    ok_ops = 0
    failed_ops = 0
    t0 = time.perf_counter()
    with engine:
        for batch in batches:
            ticket = engine.submit_batch(batch)
            engine.flush(timeout=60.0)
            try:
                result = ticket.result(timeout=60.0)
            except Exception:
                # Unprotected tickets fail with the raw injected fault;
                # protected ones would fail typed (and are asserted not
                # to fail at all by the caller).
                failed_ops += batch.size
                if collect_results:
                    results.append(None)
                continue
            ok_ops += batch.size
            if collect_results:
                results.append(result)
    wall = time.perf_counter() - t0
    stats = engine.stats()
    return wall, results, ok_ops, failed_ops, stats


def resilience_replay(
    num_ops: int,
    tick_size: int,
    backends: Sequence[str] = ("gpulsm", "sharded4"),
    seed: int = REPLAY_SEED,
    spec: Optional[GPUSpec] = None,
    fault_every: int = DEFAULT_FAULT_EVERY,
    repeats: int = 2,
) -> List[dict]:
    """Measure serving rate and goodput per resilience mode.

    Every mode replays the **same** generated tick stream on a fresh
    backend; ``wall_s`` is the best (minimum) of ``repeats`` runs.
    Inside the replay the ``protected`` run's per-tick answers are
    asserted bit-identical to ``baseline`` and its goodput is asserted
    to be 100% — every submitted op resolves despite the fault stream.

    Returns one row per ``(backend, mode)`` with ``ops_per_s`` (goodput
    rate: successfully answered ops per wall second), ``goodput`` (the
    answered fraction), ``relative_rate`` (vs that backend's baseline)
    and the engine's resilience counters from the measured run.
    """
    if spec is None:
        spec = scaled_spec(num_ops, PAPER_INSERTION_ELEMENTS)
    batches = make_mixed_batches(
        MixedOpConfig(num_ops=num_ops, tick_size=tick_size, seed=seed)
    )
    total_ops = sum(b.size for b in batches)

    rows: List[dict] = []
    for kind in backends:
        reference_results = None
        base_rate = None
        for mode in MODES:
            best_wall = None
            measured = None
            for rep in range(repeats):
                collect = rep == 0
                wall, results, ok_ops, failed_ops, stats = _run_once(
                    kind,
                    batches,
                    tick_size,
                    spec,
                    mode,
                    fault_every,
                    collect_results=collect,
                )
                if best_wall is None or wall < best_wall:
                    best_wall = wall
                    measured = (ok_ops, failed_ops, stats)
                if collect:
                    if mode == "baseline":
                        reference_results = results
                    elif mode == "protected":
                        if failed_ops:
                            raise AssertionError(
                                f"{kind}/protected: {failed_ops} ops lost "
                                "their answers despite quarantine"
                            )
                        for t, (ref, got) in enumerate(
                            zip(reference_results, results)
                        ):
                            assert_results_bit_identical(
                                ref,
                                got,
                                context=f"{kind}/protected tick {t}",
                            )
            ok_ops, failed_ops, stats = measured
            goodput_rate = ok_ops / best_wall if best_wall > 0 else float("inf")
            if mode == "baseline":
                base_rate = goodput_rate
            rows.append(
                {
                    "backend": kind,
                    "mode": mode,
                    "num_ops": total_ops,
                    "ticks": len(batches),
                    "fault_every": None if mode == "baseline" else fault_every,
                    "wall_s": best_wall,
                    "ops_per_s": goodput_rate,
                    "goodput": ok_ops / total_ops if total_ops else 1.0,
                    "relative_rate": goodput_rate / base_rate,
                    "failed_ticks": stats.failed_ticks,
                    "rolled_back_ticks": stats.rolled_back_ticks,
                    "quarantined_ticks": stats.quarantined_ticks,
                    "health": stats.health,
                }
            )
    return rows
