"""Benchmark E11 — open-loop serving: latency vs offered load under the
adaptive tick scheduler.

Beyond the paper: the serving engine of :mod:`repro.serve` admits many
small client streams and forms ticks by dual trigger (target size or
linger deadline).  The open-loop experiment of :mod:`repro.bench.serve`
replays that exact policy over Poisson arrivals on the simulated clock and
reports p50/p95/p99 latency and achieved throughput per offered load,
against the **direct** baseline (the same op stream applied through
``KVStore.apply`` as caller-formed full ticks).  Shapes asserted:

* adaptive formation: partial deadline-triggered ticks at low load, full
  size-triggered ticks at saturation;
* the issue's acceptance bar — at saturation the engine reaches ≥ 90 % of
  the direct-apply throughput on every backend;
* queueing reality: latency percentiles are ordered and grow from light
  load to overload.

The simulated engine is the threaded one: a single worker cuts, plans and
executes each tick, so planning is on the critical path (``serial`` rows).

The rows land in ``benchmarks/results/serve_latency.csv`` (the CI smoke
job uploads the CSV as an artifact).
"""

import os

from repro.bench import report
from repro.bench.serve import open_loop_serving


def test_open_loop_latency_vs_offered_load(benchmark, bench_scale, results_dir):
    params = bench_scale["serve"]

    rows = benchmark.pedantic(
        lambda: open_loop_serving(**params), rounds=1, iterations=1
    )

    backends = sorted({r["backend"] for r in rows})
    assert backends == ["gpulsm", "sharded4"]
    by_key = {(r["backend"], r["mode"], r["utilisation"]): r for r in rows}
    target = params["target_tick_size"]
    low, high = min(params["utilisations"]), max(params["utilisations"])

    for backend in backends:
        direct = next(
            r for r in rows if r["backend"] == backend and r["mode"] == "direct"
        )
        assert direct["achieved_mops"] > 0

        for rho in params["utilisations"]:
            row = by_key[(backend, "serial", rho)]
            # Percentiles must be ordered and every op accounted for.
            assert row["p50_us"] <= row["p95_us"] <= row["p99_us"]
            assert row["num_ops"] == direct["num_ops"]

        light = by_key[(backend, "serial", low)]
        saturated = by_key[(backend, "serial", high)]
        # Adaptive formation: the deadline cuts partial ticks when
        # traffic is light; saturation fills every tick to the target.
        assert light["deadline_ticks"] > 0
        assert light["mean_tick_size"] < target
        assert saturated["size_ticks"] >= saturated["deadline_ticks"]
        assert saturated["mean_tick_size"] >= 0.95 * target
        # Queueing: overload latency exceeds light-load latency.
        assert saturated["p99_us"] > light["p99_us"]
        # Acceptance bar: adaptive tick formation reaches >= 90% of the
        # segregated direct-apply throughput at equal total op count.
        assert saturated["rate_vs_direct"] >= 0.9, (backend, saturated)

    report.write_csv(rows, os.path.join(results_dir, "serve_latency.csv"))
    print()
    print(report.format_table(
        rows,
        title="Open-loop serving — latency vs offered load "
        "(adaptive tick scheduler)",
    ))
