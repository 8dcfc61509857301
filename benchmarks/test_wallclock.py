"""Wall-clock serving replay: the reproduction's own ops/s trajectory.

Replays the two-phase serving workload (mixed tick stream, then hot-key
reads) through the engine twice per backend — cached and uncached — under
``time.perf_counter``.  :func:`repro.bench.wallclock.wallclock_replay`
raises if any tick's answers diverge bit-for-bit between the two runs, so
a passing benchmark *is* the bit-identity proof.

Asserted bounds:

* cached and uncached answers are bit-identical (inside the replay);
* the epoch-guarded read cache serves the hot phase (more hits than
  misses) and is faster on it than the uncached engine measured in the
  same run.  There is no ratio floor: the uncached path probes in key
  order, which on a duplicate-heavy hot batch more than doubled *its*
  rate and took the ratio below 3x without the cache getting slower;
* at the recorded-baseline workload shape, the cached hot phase clears
  the >= 5x floor over the pre-PR wall-clock baseline (GPULSM; the
  sharded backend is held to >= 3x — its uncached path was already
  faster before the PR).

The rows are wall-clock noise from one short run, so they go to the
test's ``tmp_path`` and the terminal, not into the tree;
``benchmarks/e2e`` is the reproducible wall-clock record.
"""

from repro.bench import report
from repro.bench.wallclock import PRE_PR_BASELINE_OPS_PER_S, wallclock_replay

#: The workload shape the recorded pre-PR baseline was measured on; the
#: absolute >= 5x floor is only meaningful on this exact replay.
_BASELINE_SHAPE = dict(num_ops=1 << 16, tick_size=1 << 12)


def _row(rows, backend, mode, phase):
    (match,) = [
        r
        for r in rows
        if r["backend"] == backend and r["mode"] == mode and r["phase"] == phase
    ]
    return match


def test_wallclock_replay_rates(benchmark, bench_scale, tmp_path):
    cfg = bench_scale["wallclock"]

    rows = benchmark.pedantic(
        lambda: wallclock_replay(**cfg), rounds=1, iterations=1
    )

    # The replay itself asserted bit-identical cached/uncached answers for
    # every tick; reaching this line is that proof.
    for backend in ("gpulsm", "sharded4"):
        cached_hot = _row(rows, backend, "cached", "hot")
        # The cache must actually serve the hot phase, not forward it.
        assert cached_hot["cache_hits"] > cached_hot["cache_misses"]
        # Machine-independent: cached vs uncached in the same run.
        uncached_hot = _row(rows, backend, "uncached", "hot")
        assert cached_hot["ops_per_s"] > uncached_hot["ops_per_s"], (
            f"{backend}: read cache at {cached_hot['ops_per_s']:,.0f} ops/s does "
            f"not beat the uncached engine's {uncached_hot['ops_per_s']:,.0f} "
            "on the hot phase"
        )

    if cfg == _BASELINE_SHAPE:
        # Absolute floor vs the recorded pre-PR baseline.  The
        # sharded backend's uncached path was already comparatively fast
        # pre-PR, so its floor is lower than the headline GPULSM one.
        for backend, floor in (("gpulsm", 5.0), ("sharded4", 3.0)):
            cached_hot = _row(rows, backend, "cached", "hot")
            base = PRE_PR_BASELINE_OPS_PER_S[backend]["hot"]
            speedup = cached_hot["ops_per_s"] / base
            assert speedup >= floor, (
                f"{backend}: cached hot phase {cached_hot['ops_per_s']:,.0f} ops/s "
                f"is only {speedup:.2f}x the pre-PR {base:,.0f} ops/s"
            )

    report.write_csv(rows, str(tmp_path / "wallclock_rates.csv"))
    print()
    print(report.format_table(rows))
