#!/usr/bin/env python3
"""Streaming geo-analytics: real-time tweet-style ingest with region queries.

The paper's introduction cites "real-time tweet visualization from a
user-defined geographical region" as a motivating application.  This example
models that pipeline end to end on the GPU LSM:

* events (tweets) arrive in a continuous stream; each carries a location
  that is quantised to a geohash-style cell id (the dictionary key) and a
  payload id (the value);
* ingest happens in fixed-size batches — one GPU LSM update per arriving
  batch — while old events expire in deletion batches (a sliding window);
* dashboards repeatedly issue COUNT queries for map tiles (how many events
  per visible tile) and RANGE queries for the user-selected region (fetch
  the event ids to render);
* expired events accumulate as stale elements.  Instead of a hand-rolled
  threshold loop, the pipeline configures a
  :class:`~repro.core.maintenance.StaleFractionPolicy` on ``LSMConfig`` and
  polls ``run_due_maintenance()`` once per step — the maintenance
  subsystem decides when CLEANUP pays off (the Section V-D effect), and
  the per-policy trigger counters report what it did.

Every dashboard refresh is checked against a Python oracle of the sliding
window, so the output provably reports the same event-window answers
whether or not maintenance ran that step.

Run with:  python examples/streaming_geo_analytics.py
"""

import numpy as np

from repro import Device, GPULSM, K40C_SPEC, LSMConfig, StaleFractionPolicy
from repro.bench.report import format_table

CELL_BITS = 24              # 2^24 geo cells (about city-block resolution)
BATCH = 1 << 12             # events per ingest batch
WINDOW_BATCHES = 8          # sliding window length, in batches
NUM_INGEST_STEPS = 24
TILES_PER_DASHBOARD = 512   # COUNT queries per refresh
REGION_QUERIES = 64         # RANGE queries per refresh
CLEANUP_THRESHOLD = 0.35    # stale-fraction threshold of the policy


def make_event_batch(rng, step):
    """Synthesise one batch of events with a few geographic hot spots."""
    hot_spots = np.array([0x3A0000, 0x5B0000, 0x91C000], dtype=np.uint32)
    centre = hot_spots[rng.integers(0, hot_spots.size, BATCH)]
    jitter = rng.integers(0, 1 << 14, BATCH, dtype=np.uint32)
    cells = (centre + jitter) % (1 << CELL_BITS)
    event_ids = (step * BATCH + np.arange(BATCH)).astype(np.uint32) % (1 << 31)
    return cells.astype(np.uint32), event_ids


class WindowOracle:
    """Python mirror of the live event window (the LSM's batch semantics:
    a newer batch wins over older ones, the first insertion wins within a
    batch, a deletion batch removes its cells)."""

    def __init__(self):
        self.live = {}

    def expire(self, cells):
        for c in cells.tolist():
            self.live.pop(c, None)

    def ingest(self, cells, event_ids):
        batch_first = {}
        for c, e in zip(cells.tolist(), event_ids.tolist()):
            batch_first.setdefault(c, e)
        self.live.update(batch_first)

    def counts(self, lo, hi):
        """Live cells per inclusive [lo, hi] interval (vectorised)."""
        keys = np.fromiter(self.live.keys(), dtype=np.uint32,
                           count=len(self.live))
        keys.sort()
        return (
            np.searchsorted(keys, hi, side="right")
            - np.searchsorted(keys, lo, side="left")
        )


def main() -> None:
    rng = np.random.default_rng(7)
    device = Device(K40C_SPEC, seed=7)
    lsm = GPULSM(
        config=LSMConfig(
            batch_size=BATCH,
            maintenance_policy=StaleFractionPolicy(
                threshold=CLEANUP_THRESHOLD
            ),
        ),
        device=device,
    )

    window = []          # batches currently inside the sliding window
    oracle = WindowOracle()
    rows = []

    for step in range(NUM_INGEST_STEPS):
        cells, event_ids = make_event_batch(rng, step)

        # Expire the oldest batch once the window is full: a mixed batch
        # that deletes the expired cells while inserting the new events
        # would also work; keeping them separate makes the output clearer.
        if len(window) >= WINDOW_BATCHES:
            expired_cells, _ = window.pop(0)
            lsm.delete(expired_cells)
            oracle.expire(expired_cells)
        lsm.insert(cells, event_ids)
        oracle.ingest(cells, event_ids)
        window.append((cells, event_ids))

        # Dashboard refresh: per-tile counts plus the user's region fetch.
        tile_base = rng.integers(0, (1 << CELL_BITS) - (1 << 10),
                                 TILES_PER_DASHBOARD, dtype=np.uint32)
        tile_counts = lsm.count(tile_base, tile_base + np.uint32((1 << 10) - 1))

        region_base = rng.integers(0, (1 << CELL_BITS) - (1 << 14),
                                   REGION_QUERIES, dtype=np.uint32)
        region = lsm.range_query(region_base,
                                 region_base + np.uint32((1 << 14) - 1))

        # The answers must match the window oracle exactly — maintenance
        # (whenever the policy decides to run it) never changes them.
        assert np.array_equal(
            tile_counts, oracle.counts(tile_base, tile_base + ((1 << 10) - 1))
        ), "tile counts diverged from the event-window oracle"
        assert np.array_equal(
            region.counts,
            oracle.counts(region_base, region_base + ((1 << 14) - 1)),
        ), "region results diverged from the event-window oracle"

        # Policy-driven maintenance: the StaleFractionPolicy configured on
        # the LSM decides; this replaces the old hand-rolled
        # `if stale_fraction_estimate() > threshold: cleanup()` loop.
        stale = lsm.stale_fraction_estimate()
        ran = lsm.run_due_maintenance()

        if step % 4 == 3:
            rows.append({
                "step": step + 1,
                "resident_elements": lsm.num_elements,
                "occupied_levels": lsm.num_occupied_levels,
                "stale_estimate": round(stale, 3),
                "cleanup": ran is not None,
                "events_in_tiles": int(tile_counts.sum()),
                "events_in_regions": int(region.counts.sum()),
            })

    print(format_table(
        rows,
        title=(f"Streaming geo-analytics: {NUM_INGEST_STEPS} ingest batches of "
               f"{BATCH} events, {WINDOW_BATCHES}-batch sliding window"),
    ))

    profile = [r for r in device.profiler.summary_rows()
               if r["region"].startswith("lsm.")]
    print(format_table(profile, columns=["region", "calls", "simulated_ms"],
                       title="Aggregate simulated time by operation"))

    maint = lsm.maintenance_stats()
    print(f"maintenance runs: {maint['runs']} "
          f"(triggers {maint['triggers']}), "
          f"reclaimed {maint['reclaimed_elements']} elements in "
          f"{maint['simulated_seconds'] * 1e3:.2f} simulated ms")
    print("all dashboard answers matched the event-window oracle")


if __name__ == "__main__":
    main()
