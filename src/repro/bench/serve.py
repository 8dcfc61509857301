"""Open-loop serving experiment: latency vs offered load under the engine.

A serving engine is characterised the way queueing systems are: operations
arrive on their own clock (an **open-loop** Poisson process at an offered
load λ) and the engine's adaptive tick scheduler decides when to cut a
tick — at the target size under heavy load, at the linger deadline when
traffic is light.  This experiment replays the exact dual-trigger policy
(:class:`repro.serve.scheduler.TickConfig`) and the engine's one worker —
cut, plan, execute, then the next cut — as a discrete-event simulation on
the *simulated* clock, which makes the p50/p95/p99 latency-vs-load curves
deterministic and CI-stable (the threaded engine measures wall-clock
latency; its correctness is covered by the test suite).

Per offered load the simulator reports:

* per-op latency percentiles (arrival → tick completion, simulated µs),
* achieved throughput vs the **direct baseline** — the same total op
  stream applied through :meth:`repro.api.kvstore.KVStore.apply` as
  caller-formed full ticks (the segregated-batch upper bound the issue's
  acceptance criterion measures against),
* tick-formation telemetry (mean tick size, size- vs deadline-triggered).

Planning is charged on the critical path, on a dedicated planning device,
as the engine's worker runs it (the rows' ``mode`` is ``serial``).
Backpressure is not modelled — the open loop observes unbounded queueing,
which is what makes overload visible as latency growth.

Everything random derives from the workload's single top-level seed
(:func:`repro.bench.workloads.derived_rng`), so a run is reproducible end
to end.  Results land in ``benchmarks/results/serve_latency.csv``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.api.kvstore import KVStore
from repro.api.ops import OpBatch
from repro.api.planner import Consistency, execute_plan, plan_batch
from repro.bench.mixed import _make_backend
from repro.bench.runner import PAPER_INSERTION_ELEMENTS, scaled_spec
from repro.bench.workloads import MixedOpConfig, derived_rng, make_mixed_batches
from repro.gpu.device import Device
from repro.gpu.profiler import percentile_summary
from repro.gpu.spec import GPUSpec
from repro.scale.protocol import simulated_seconds
from repro.serve.scheduler import TickConfig

#: Stream tag for the arrival-time process (see ``derived_rng``).
_ARRIVAL_STREAM = 0xA221


def _flatten(batches: Sequence[OpBatch]) -> OpBatch:
    return OpBatch.concat(list(batches))


def direct_baseline_rate(
    batches: Sequence[OpBatch], kind: str, tick_size: int, spec: GPUSpec
) -> float:
    """Ops per simulated second of ``KVStore.apply`` on caller-formed ticks."""
    backend = _make_backend(kind, tick_size, spec, seed=1)
    store = KVStore(backend=backend)
    for batch in batches:
        store.apply(batch)
    seconds = simulated_seconds(backend)
    total = sum(b.size for b in batches)
    return total / seconds


def simulate_open_loop(
    flat: OpBatch,
    arrivals: np.ndarray,
    config: TickConfig,
    backend,
    spec: GPUSpec,
    consistency: Consistency = Consistency.SNAPSHOT,
) -> dict:
    """Drive one arrival timeline through the dual-trigger tick scheduler.

    Returns latency and tick-formation statistics; all times are
    *simulated* seconds.  The semantics mirror the threaded engine's one
    worker: once the previous tick is done, a tick is cut the instant the
    queue holds the target size, or at the oldest op's linger deadline
    with whatever has arrived, then planned and executed.
    """
    n = flat.size
    if arrivals.shape != (n,):
        raise ValueError("arrivals must give one timestamp per operation")
    plan_device = Device(spec)
    latencies = np.zeros(n, dtype=np.float64)
    tick_sizes: List[int] = []
    triggers = {"size": 0, "deadline": 0}
    plan_seconds = 0.0
    exec_seconds = 0.0
    i = 0
    done_prev = 0.0
    while i < n:
        size_idx = i + config.target_tick_size - 1
        size_time = float(arrivals[size_idx]) if size_idx < n else np.inf
        deadline = float(arrivals[i]) + config.linger
        # Earliest instant the worker is free AND a trigger holds: under
        # overload it re-evaluates a backlogged queue and cuts full ticks.
        t_cut = max(done_prev, min(size_time, deadline))
        arrived = int(np.searchsorted(arrivals, t_cut, side="right"))
        if arrived - i >= config.target_tick_size:
            j = i + config.target_tick_size
            triggers["size"] += 1
        else:
            j = arrived
            triggers["deadline"] += 1
        sub = flat.slice(i, j)

        p0 = plan_device.simulated_seconds
        plan = plan_batch(sub, consistency=consistency, device=plan_device)
        t_plan = plan_device.simulated_seconds - p0
        e0 = simulated_seconds(backend)
        execute_plan(sub, plan, backend)
        t_exec = simulated_seconds(backend) - e0

        done_prev = t_cut + t_plan + t_exec
        latencies[i:j] = done_prev - arrivals[i:j]
        plan_seconds += t_plan
        exec_seconds += t_exec
        tick_sizes.append(j - i)
        i = j

    makespan = done_prev
    stats = percentile_summary(latencies)
    stats["mean"] = float(np.mean(latencies))
    return {
        "latency": stats,
        "makespan_seconds": makespan,
        "achieved_ops_per_s": n / makespan,
        "ticks": len(tick_sizes),
        "mean_tick_size": float(np.mean(tick_sizes)),
        "size_ticks": triggers["size"],
        "deadline_ticks": triggers["deadline"],
        "plan_seconds": plan_seconds,
        "exec_seconds": exec_seconds,
    }


def open_loop_serving(
    num_ops: int,
    target_tick_size: int,
    utilisations: Sequence[float] = (0.5, 0.9, 2.0),
    backends: Sequence[str] = ("gpulsm", "sharded4"),
    linger_ticks: float = 1.0,
    spec: Optional[GPUSpec] = None,
    seed: int = 0xC0FFEE,
) -> List[dict]:
    """The full latency/throughput sweep: offered load × backend.

    ``utilisations`` are offered loads as fractions of the backend's
    *direct-apply* capacity (measured first, reported in the ``direct``
    rows); ``linger_ticks`` sets the deadline as a multiple of one full
    tick's ideal service time, so the latency bound scales with the
    problem size.  One ``serial`` row per (backend, utilisation) plus one
    ``direct`` row per backend.
    """
    if spec is None:
        spec = scaled_spec(num_ops, PAPER_INSERTION_ELEMENTS)
    batches = make_mixed_batches(
        MixedOpConfig(num_ops=num_ops, tick_size=target_tick_size, seed=seed)
    )
    flat = _flatten(batches)
    n = flat.size

    rows: List[dict] = []
    for kind in backends:
        capacity = direct_baseline_rate(
            batches, kind, target_tick_size, spec
        )
        rows.append(
            {
                "backend": kind,
                "mode": "direct",
                "utilisation": float("nan"),
                "offered_mops": float("nan"),
                "achieved_mops": capacity / 1e6,
                "rate_vs_direct": 1.0,
                "p50_us": float("nan"),
                "p95_us": float("nan"),
                "p99_us": float("nan"),
                "mean_us": float("nan"),
                "ticks": len(batches),
                "mean_tick_size": float(target_tick_size),
                "size_ticks": len(batches),
                "deadline_ticks": 0,
                "num_ops": n,
            }
        )
        tick_service = target_tick_size / capacity
        config = TickConfig(
            target_tick_size=target_tick_size, linger=linger_ticks * tick_service
        )
        for rho_index, rho in enumerate(utilisations):
            rate = rho * capacity
            rng = derived_rng(seed, _ARRIVAL_STREAM, rho_index)
            arrivals = np.cumsum(rng.exponential(1.0 / rate, n))
            backend = _make_backend(kind, target_tick_size, spec, seed=1)
            sim = simulate_open_loop(flat, arrivals, config, backend, spec)
            rows.append(
                {
                    "backend": kind,
                    "mode": "serial",
                    "utilisation": rho,
                    "offered_mops": rate / 1e6,
                    "achieved_mops": sim["achieved_ops_per_s"] / 1e6,
                    "rate_vs_direct": sim["achieved_ops_per_s"] / capacity,
                    "p50_us": sim["latency"]["p50"] * 1e6,
                    "p95_us": sim["latency"]["p95"] * 1e6,
                    "p99_us": sim["latency"]["p99"] * 1e6,
                    "mean_us": sim["latency"]["mean"] * 1e6,
                    "ticks": sim["ticks"],
                    "mean_tick_size": sim["mean_tick_size"],
                    "size_ticks": sim["size_ticks"],
                    "deadline_ticks": sim["deadline_ticks"],
                    "num_ops": n,
                }
            )
    return rows
