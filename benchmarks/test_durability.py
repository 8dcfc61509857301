"""Durability cost: WAL-off vs group-commit vs fsync-per-tick.

Replays the identical mixed tick stream through the engine under the
three durability modes (:func:`repro.bench.durability.durability_replay`).
The replay itself asserts that every tick's answers are bit-identical
across modes and that a fresh backend recovered from each durable run's
directory is structurally identical to the store the run built — so a
passing benchmark is also the invisibility-and-recoverability proof at
this scale.

Asserted bounds:

* group commit (``fsync_every_n_ticks=N``) retains >= 0.5x of the
  WAL-off serving rate — durability at the batched level must not halve
  the store;
* fsync-every-tick is recorded as the durability lower bound (no floor
  asserted: its cost is the disk's fsync latency, not the code's).

The rows are wall-clock noise from one short run, so they go to the
test's ``tmp_path`` and the terminal, not into the tree.
"""

from repro.bench import report
from repro.bench.durability import MODES, durability_replay

#: Machine-independent floor: group commit must retain at least this
#: fraction of the WAL-off rate measured in the same run.
_BATCHED_FLOOR = 0.5


def _row(rows, backend, mode):
    (match,) = [
        r for r in rows if r["backend"] == backend and r["mode"] == mode
    ]
    return match


def test_durability_rates(benchmark, bench_scale, tmp_path):
    cfg = bench_scale["durability"]

    rows = benchmark.pedantic(
        lambda: durability_replay(
            num_ops=cfg["num_ops"],
            tick_size=cfg["tick_size"],
            fsync_batch=cfg["fsync_batch"],
            workdir=str(tmp_path),
        ),
        rounds=1,
        iterations=1,
    )

    for backend in ("gpulsm", "sharded4"):
        for mode in MODES:
            row = _row(rows, backend, mode)
            assert row["ticks"] > 0 and row["ops_per_s"] > 0
        off = _row(rows, backend, "wal_off")
        batched = _row(rows, backend, "fsync_batched")
        every = _row(rows, backend, "fsync_every_tick")
        # The WAL actually ran: one append per committed tick, and group
        # commit really batched its fsyncs below the per-tick count.
        assert batched["wal_appends"] == off["ticks"]
        assert every["wal_appends"] == off["ticks"]
        assert batched["wal_fsyncs"] < every["wal_fsyncs"]
        assert batched["recovered_ok"] and every["recovered_ok"]
        # The acceptance floor: group commit keeps >= 0.5x of WAL-off.
        assert batched["relative_rate"] >= _BATCHED_FLOOR, (
            f"{backend}: fsync-batched retains only "
            f"{batched['relative_rate']:.2f}x of the WAL-off rate"
        )
        # fsync-every-tick is the recorded lower bound; it must still be
        # a positive, sane rate (no floor — it measures the disk).
        assert 0 < every["relative_rate"] <= 1.5

    report.write_csv(rows, str(tmp_path / "durability_rates.csv"))
    print()
    print(report.format_table(rows))
