"""Resilience cost/benefit: serving goodput under injected faults.

Replays the identical mixed tick stream through the threaded engine
under the three resilience modes
(:func:`repro.bench.resilience.resilience_replay`).  The replay itself
asserts that the protected run answers **every** submitted operation and
that its per-tick answers are bit-identical to the fault-free baseline —
so a passing benchmark is also the isolation-correctness proof at this
scale.

Asserted bounds:

* ``unprotected`` goodput is strictly below 100% — the injected fault
  stream really cost answers without protection;
* ``protected`` goodput is exactly 100% under the same fault stream, and
  it retains >= 0.3x of the baseline rate (rollback + whole-tick retry
  re-executes work, but must not collapse the store);
* no mode wedges: every flush and every ticket resolves (enforced by the
  replay's timeouts) and every engine reports a non-``failed`` health.

The rows are wall-clock noise from one short run, so they go to the
test's ``tmp_path`` and the terminal, not into the tree.
"""

from repro.bench import report
from repro.bench.resilience import MODES, resilience_replay

#: Machine-independent floor: protection must retain at least this
#: fraction of the fault-free baseline rate measured in the same run.
_PROTECTED_FLOOR = 0.3


def _row(rows, backend, mode):
    (match,) = [
        r for r in rows if r["backend"] == backend and r["mode"] == mode
    ]
    return match


def test_resilience_rates(benchmark, bench_scale, tmp_path):
    cfg = bench_scale["resilience"]

    rows = benchmark.pedantic(
        lambda: resilience_replay(
            num_ops=cfg["num_ops"],
            tick_size=cfg["tick_size"],
            fault_every=cfg["fault_every"],
        ),
        rounds=1,
        iterations=1,
    )

    for backend in ("gpulsm", "sharded4"):
        for mode in MODES:
            row = _row(rows, backend, mode)
            assert row["ticks"] > 0 and row["ops_per_s"] > 0
            assert row["health"] != "failed"
        base = _row(rows, backend, "baseline")
        unprotected = _row(rows, backend, "unprotected")
        protected = _row(rows, backend, "protected")
        # The fault stream really fired and really cost answers.
        assert base["goodput"] == 1.0 and base["failed_ticks"] == 0
        assert unprotected["failed_ticks"] > 0
        assert unprotected["goodput"] < 1.0
        # Protection turns the same fault stream into 100% goodput via
        # rollback + quarantine retry (bit-identity asserted in-replay).
        assert protected["goodput"] == 1.0
        assert protected["rolled_back_ticks"] > 0
        assert protected["quarantined_ticks"] > 0
        assert protected["relative_rate"] >= _PROTECTED_FLOOR, (
            f"{backend}: protection retains only "
            f"{protected['relative_rate']:.2f}x of the baseline rate"
        )

    report.write_csv(rows, str(tmp_path / "resilience_rates.csv"))
    print()
    print(report.format_table(rows))
