"""The end-to-end smoke set's simulated clock and answers, pinned.

``benchmarks/e2e/run.py --smoke --seed 7 --trace 0`` replays 16 ticks of
each of the six workloads through ``Engine`` (a few seconds).  Its
``counts`` — the simulated clock ``sim_seconds``, resident bytes, ticks,
maintenance, cache, rebalancing and durability counters — and the SHA-256
of every answer are deterministic for a seed, so a change that only makes
the host faster must leave them exactly as they are; floats are compared
with ``==``, not to a tolerance.

``GOLDEN`` was captured on the commit before the mixed tick's sort, layout
and COUNT/RANGE passes were rewritten.  Re-capture it (run this file as a
script; it prints the literal) only in a change that is meant to move the
cost model or the answers.
"""

import json
import os
import pprint
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(os.path.dirname(HERE), "benchmarks", "e2e", "run.py")

GOLDEN = {
    "mixed_gpulsm": {
        "answers_sha256": "6897065d7934131712218bb8044d0800df6c89a80a99ac05803e8be5d4872a8a",
        "counts": {
            "sim_seconds": 0.0013273243998297702,
            "memory_bytes": 753664,
            "ticks": 16,
            "failed_ticks": 0,
            "rolled_back_ticks": 0,
            "shed_ops": 0,
            "maintenance_runs": 0,
            "maintenance_reclaimed": 0,
        },
    },
    "mixed_sharded4": {
        "answers_sha256": "6897065d7934131712218bb8044d0800df6c89a80a99ac05803e8be5d4872a8a",
        "counts": {
            "sim_seconds": 0.0003880125586219334,
            "memory_bytes": 778240,
            "ticks": 16,
            "failed_ticks": 0,
            "rolled_back_ticks": 0,
            "shed_ops": 0,
            "maintenance_runs": 0,
            "maintenance_reclaimed": 0,
            "rebalance_splits": 0,
            "rebalance_merges": 0,
            "rebalance_rows_migrated": 0,
        },
    },
    "threaded_gpulsm": {
        "answers_sha256": "6897065d7934131712218bb8044d0800df6c89a80a99ac05803e8be5d4872a8a",
        "counts": {
            "sim_seconds": 0.001319121353743911,
            "memory_bytes": 753664,
            "ticks": 16,
            "failed_ticks": 0,
            "rolled_back_ticks": 0,
            "shed_ops": 0,
            "maintenance_runs": 0,
            "maintenance_reclaimed": 0,
        },
    },
    "read_hot_cached": {
        "answers_sha256": "7bece8c8a5d074ab20e6b94165ad5b83d09d333ef9ebe96f6bb0402cce7aefa3",
        "counts": {
            "sim_seconds": 7.073990885416658e-05,
            "memory_bytes": 303120,
            "ticks": 16,
            "failed_ticks": 0,
            "rolled_back_ticks": 0,
            "shed_ops": 0,
            "maintenance_runs": 0,
            "maintenance_reclaimed": 0,
            "cache_capacity": 4096,
            "cache_entries": 4096,
            "cache_hits": 50862,
            "cache_misses": 10578,
            "cache_fills": 8196,
            "cache_evictions": 4100,
            "cache_invalidations": 0,
        },
    },
    "fullstack_sharded4": {
        "answers_sha256": "02094bdad1ed4d67417fe5602bad37c5d112284e8050d45cbb92743d278d189a",
        "counts": {
            "sim_seconds": 7.509767817059481e-05,
            "memory_bytes": 106184,
            "ticks": 16,
            "failed_ticks": 0,
            "rolled_back_ticks": 0,
            "shed_ops": 0,
            "maintenance_runs": 9,
            "maintenance_reclaimed": 18002,
            "cache_capacity": 4096,
            "cache_entries": 244,
            "cache_hits": 0,
            "cache_misses": 9832,
            "cache_fills": 3920,
            "cache_evictions": 0,
            "cache_invalidations": 15,
            "rebalance_splits": 1,
            "rebalance_merges": 0,
            "rebalance_rows_migrated": 1798,
            "wal_bytes": 102398,
            "wal_fsyncs": 2,
            "snapshot_runs": 2,
            "recovery_replayed_ticks": 4,
        },
    },
    "barestack_sharded4": {
        "answers_sha256": "02094bdad1ed4d67417fe5602bad37c5d112284e8050d45cbb92743d278d189a",
        "counts": {
            "sim_seconds": 0.00013282207045341832,
            "memory_bytes": 194560,
            "ticks": 16,
            "failed_ticks": 0,
            "rolled_back_ticks": 0,
            "shed_ops": 0,
            "maintenance_runs": 0,
            "maintenance_reclaimed": 0,
            "rebalance_splits": 0,
            "rebalance_merges": 0,
            "rebalance_rows_migrated": 0,
        },
    },
}


def smoke_set(out_dir):
    """``{workload: {"answers_sha256", "counts"}}`` of one smoke set."""
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--seed", "7", "--trace", "0", "--out", str(out_dir)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(os.path.join(out_dir, "result.json")) as handle:
        workloads = json.load(handle)["workloads"]
    return {
        name: {"answers_sha256": record["answers_sha256"], "counts": record["counts"]}
        for name, record in workloads.items()
    }


def test_smoke_set_keeps_its_clock_and_answers(tmp_path):
    got = smoke_set(tmp_path / "set")
    assert set(got) == set(GOLDEN)
    for name, want in GOLDEN.items():
        assert got[name]["answers_sha256"] == want["answers_sha256"], name
        assert got[name]["counts"] == want["counts"], name


if __name__ == "__main__":  # pragma: no cover - prints the literal above
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        pprint.pprint(smoke_set(os.path.join(scratch, "set")), sort_dicts=False)
