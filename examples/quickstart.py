#!/usr/bin/env python3
"""Quickstart: the mixed-operation KVStore API in one small script.

Builds a store over the GPU LSM, serves mixed-operation ticks (inserts,
deletes, lookups, counts and range queries interleaved in single
``OpBatch`` requests), shows the two consistency knobs and the ticketing
session, lets the policy-driven maintenance subsystem clean up stale
elements on its own, and prints the simulated-GPU performance profile
(the per-operation throughput the cost model assigns on a Tesla K40c).

The per-method batch surface (``store.insert`` / ``lookup`` / ... and the
backends' own methods) remains fully supported; ``KVStore.apply`` is the
front door for mixed traffic.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    Consistency,
    Device,
    GPULSM,
    K40C_SPEC,
    KVStore,
    LSMConfig,
    Op,
    OpBatch,
    StaleFractionPolicy,
)
from repro.bench.report import format_table


def main() -> None:
    # A dedicated simulated device so the profiler output covers only this
    # script's operations.  The backend carries a maintenance policy: the
    # engine under KVStore evaluates it after every tick and runs the
    # cleanup for us — no hand-rolled threshold loop.
    device = Device(K40C_SPEC, seed=7)
    batch_size = 4096
    backend = GPULSM(
        config=LSMConfig(
            batch_size=batch_size,
            maintenance_policy=StaleFractionPolicy(threshold=0.002),
        ),
        device=device,
    )
    store = KVStore(backend=backend)

    rng = np.random.default_rng(42)

    # ------------------------------------------------------------------ #
    # 1. Homogeneous ticks still exist: three insert batches.
    # ------------------------------------------------------------------ #
    all_keys = rng.choice(1 << 24, size=3 * batch_size, replace=False).astype(np.uint32)
    all_values = rng.integers(0, 1 << 30, size=3 * batch_size, dtype=np.uint32)
    for i in range(3):
        sl = slice(i * batch_size, (i + 1) * batch_size)
        store.apply(OpBatch.inserts(all_keys[sl], all_values[sl]))
    lsm = store.backend
    print(f"after 3 insert ticks: {lsm.num_elements} resident elements, "
          f"{lsm.num_occupied_levels} occupied level(s), epoch {store.epoch}")

    # ------------------------------------------------------------------ #
    # 2. One mixed tick: deletions, lookups, a count and a range query in
    #    a single request batch, answered in request order.
    # ------------------------------------------------------------------ #
    tick = OpBatch.concat([
        OpBatch.deletes(all_keys[:16]),                      # drop 16 keys ...
        OpBatch.lookups(all_keys[:16]),                      # ... and read them
        OpBatch.counts(np.array([0]), np.array([(1 << 24) - 1])),
        OpBatch.ranges(np.array([1 << 22]), np.array([1 << 23])),
    ])
    res = store.apply(tick)                                  # snapshot consistency
    found = sum(bool(res.result(16 + i).found) for i in range(16))
    print(f"mixed tick (snapshot): lookups still see all {found}/16 deleted keys "
          f"(reads observe the pre-tick state)")
    print(f"  count over the full domain: {res.result(32).count} live keys")
    print(f"  range [2^22, 2^23]: {res.result(33).count} pairs")
    still_there = store.lookup(all_keys[:16])
    print(f"  after the tick the deletions are visible: "
          f"{int(still_there.found.sum())}/16 found")

    # ------------------------------------------------------------------ #
    # 3. Strict arrival order: each op observes everything before it.
    # ------------------------------------------------------------------ #
    k = int(all_keys[100])
    res = store.apply(
        OpBatch.from_ops([
            Op.delete(k),
            Op.lookup(k),        # observes the delete
            Op.insert(k, 123456),
            Op.lookup(k),        # observes the re-insert
        ]),
        consistency=Consistency.STRICT,
    )
    print(f"strict tick: after delete found={bool(res.result(1).found)}, "
          f"after re-insert value={res.result(3).value}")

    # ------------------------------------------------------------------ #
    # 4. Sessions: enqueue single ops, commit one tick, resolve tickets.
    # ------------------------------------------------------------------ #
    session = store.session()
    t_insert = session.insert(999, 42)
    t_read = session.lookup(999)
    t_count = session.count(0, 2000)
    session.commit()
    print(f"session commit: insert ok={t_insert.result().ok}, "
          f"snapshot read found={t_read.result().found}, "
          f"count(0, 2000)={t_count.result().count}")

    # ------------------------------------------------------------------ #
    # 5. Policy-driven maintenance: the deletions of tick 2 pushed the
    #    stale fraction over the policy threshold, so the engine already
    #    ran a cleanup right after that tick — no explicit cleanup() call
    #    anywhere in this script.
    # ------------------------------------------------------------------ #
    maint = store.maintenance_stats()
    engine_stats = store.stats()
    print(f"policy-driven maintenance: {maint['runs']} run(s), triggers "
          f"{maint['triggers']}, {maint['reclaimed_elements']} elements "
          f"reclaimed, {maint['padding_added']} placebo padding")
    print(f"  engine-scheduled between ticks: {engine_stats.maintenance_runs} "
          f"run(s), {engine_stats.maintenance_seconds * 1e3:.3f} simulated ms")
    assert maint["runs"] >= 1, "the StaleFractionPolicy should have fired"

    # ------------------------------------------------------------------ #
    # 6. Simulated performance profile.
    # ------------------------------------------------------------------ #
    print()
    print(format_table(device.profiler.summary_rows(),
                       columns=["region", "calls", "items", "simulated_ms",
                                "rate_m_per_s"],
                       title="Simulated K40c profile (per operation)"))


if __name__ == "__main__":
    main()
