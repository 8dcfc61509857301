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
  rate and took the ratio below 3x without the cache getting slower.

Every bound is a comparison inside one run; nothing is held against a
rate measured on another machine or another day.  The rows are wall-clock
noise from one short run, so they go to the test's ``tmp_path`` and the
terminal, not into the tree; ``benchmarks/e2e`` is the reproducible
wall-clock record.
"""

from repro.bench import report
from repro.bench.wallclock import wallclock_replay


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

    report.write_csv(rows, str(tmp_path / "wallclock_rates.csv"))
    print()
    print(report.format_table(rows))
