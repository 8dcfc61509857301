"""Unit tests for the maintenance subsystem (repro.core.maintenance).

Covers the extracted cleanup stage pipeline, incremental
``compact_levels(k)`` compaction, the pluggable maintenance policies
(ManualOnly / StaleFractionPolicy / LevelCountPolicy / AnyOf), the
per-shard evaluation and selective ``cleanup(shards=...)`` of the sharded
front-end, the engine-scheduled maintenance polls between ticks, and what
the policies buy a serving loop under churn on the simulated clock.
"""

import functools

import numpy as np
import pytest

from repro.api.ops import OpBatch
from repro.bench.runner import PAPER_INSERTION_ELEMENTS, scaled_spec
from repro.core.config import LSMConfig
from repro.core.invariants import check_lsm_invariants
from repro.core.lsm import GPULSM
from repro.core.maintenance import (
    AnyOf,
    LevelCountPolicy,
    MaintenanceAction,
    ManualOnly,
    StaleFractionPolicy,
)
from repro.gpu.device import Device
from repro.scale.sharded import ShardedLSM
from repro.serve.engine import Engine
from repro.serve.scheduler import TickConfig


def _lsm(device, b=8, policy=None, **kwargs):
    return GPULSM(
        config=LSMConfig(
            batch_size=b,
            validate_invariants=True,
            maintenance_policy=policy,
            **kwargs,
        ),
        device=device,
    )


def _snapshot_answers(lsm, queries, k1, k2):
    res = lsm.lookup(queries)
    counts = lsm.count(k1, k2)
    rr = lsm.range_query(k1, k2)
    return (
        res.found.copy(),
        res.values.copy() if res.values is not None else None,
        counts.copy(),
        rr.offsets.copy(),
        rr.keys.copy(),
        rr.values.copy() if rr.values is not None else None,
    )


def _assert_same_answers(before, after):
    found_b, vals_b, counts_b, off_b, keys_b, rvals_b = before
    found_a, vals_a, counts_a, off_a, keys_a, rvals_a = after
    assert np.array_equal(found_b, found_a)
    assert np.array_equal(vals_b[found_b], vals_a[found_a])
    assert np.array_equal(counts_b, counts_a)
    assert np.array_equal(off_b, off_a)
    assert np.array_equal(keys_b, keys_a)
    assert np.array_equal(rvals_b, rvals_a)


class TestCompactLevels:
    def test_drops_stale_copies_within_the_prefix(self, device):
        b = 8
        lsm = _lsm(device, b=b)
        keys = np.arange(b, dtype=np.uint32)
        # Level 1 gets the originals, then two more batches of the same
        # keys land in levels {0, 1} -> occupied {0, 1} after 3 batches is
        # r=3 = levels {0,1}; insert 3 replacing batches over one base.
        lsm.insert(keys, np.zeros(b, dtype=np.uint32))
        lsm.insert(keys, np.full(b, 1, dtype=np.uint32))      # r=2: level 1
        lsm.insert(keys, np.full(b, 2, dtype=np.uint32))      # r=3: levels 0,1
        assert lsm.num_occupied_levels == 2
        before = lsm.num_elements
        stats = lsm.compact_levels(2)
        # The whole structure was the prefix: tombstones would be dropped
        # too, and every replaced duplicate is reclaimed.
        assert stats["kind"] == "compact_levels"
        assert stats["elements_before"] == before
        assert lsm.num_elements == b  # 8 live keys exactly fill one batch
        assert int(lsm.lookup(keys).values[0]) == 2

    def test_partial_prefix_keeps_untouched_levels(self, device):
        b = 8
        lsm = _lsm(device, b=b)
        base = np.arange(4 * b, dtype=np.uint32)
        # Four batches of distinct keys -> r=4, occupied {2}.
        for i in range(4):
            lsm.insert(base[i * b:(i + 1) * b], base[i * b:(i + 1) * b])
        # Three replacing batches over the first keys -> r=7, occupied {0,1,2}.
        for v in (1, 2, 3):
            lsm.insert(base[:b], np.full(b, v, dtype=np.uint32))
        assert lsm.num_occupied_levels == 3
        old_level2_keys = lsm.levels[2].keys.copy()
        before = _snapshot_answers(
            lsm,
            np.arange(4 * b + 4, dtype=np.uint32),
            np.array([0], dtype=np.uint32),
            np.array([4 * b], dtype=np.uint32),
        )
        epoch_before = lsm.epoch
        stats = lsm.compact_levels(2)   # compact levels {0, 1} only
        assert stats["kind"] == "compact_levels"
        assert stats["levels_merged"] == 2
        assert stats["removed"] > 0     # replaced duplicates dropped
        assert lsm.epoch == epoch_before + 1
        # The untouched level's resident run is byte-identical.
        assert np.array_equal(lsm.levels[2].keys, old_level2_keys)
        after = _snapshot_answers(
            lsm,
            np.arange(4 * b + 4, dtype=np.uint32),
            np.array([0], dtype=np.uint32),
            np.array([4 * b], dtype=np.uint32),
        )
        _assert_same_answers(before, after)
        check_lsm_invariants(lsm)

    def test_prefix_tombstones_keep_shadowing_older_levels(self, device):
        b = 8
        lsm = _lsm(device, b=b)
        keys = np.arange(2 * b, dtype=np.uint32)
        lsm.insert(keys[:b], keys[:b])
        lsm.insert(keys[b:], keys[b:])          # r=2, occupied {1}
        lsm.delete(keys[:4].repeat(2))          # r=3, occupied {0,1}
        assert not lsm.lookup(keys[:4]).found.any()
        # Compact only the tombstone level: the tombstones must survive
        # (their shadowed victims live in the untouched level 1).
        stats = lsm.compact_levels(1)
        assert stats["kind"] == "compact_levels"
        assert not lsm.lookup(keys[:4]).found.any()
        assert lsm.lookup(keys[4:]).found.all()
        check_lsm_invariants(lsm)

    def test_padding_duplicates_are_invisible(self, device):
        b = 8
        lsm = _lsm(device, b=b)
        keys = np.arange(2 * b, dtype=np.uint32)
        lsm.insert(keys[:b], keys[:b])
        lsm.insert(keys[b:], keys[b:])          # r=2, occupied {1}
        # A batch that re-inserts keys 0..3 twice: 4 distinct keys, 4
        # in-batch stale duplicates.  Compacting just this level (k=1)
        # keeps 4 survivors and must pad 4 duplicate elements.
        lsm.insert(
            np.concatenate([keys[:4], keys[:4]]).astype(np.uint32),
            np.full(8, 9, dtype=np.uint32),
        )                                        # r=3, occupied {0, 1}
        stats = lsm.compact_levels(1)
        assert stats["kind"] == "compact_levels"
        assert stats["padding"] == 4
        assert stats["removed"] == 4             # the 4 in-batch duplicates
        # Padded duplicates: counts must still see each live key once.
        full = lsm.count(
            np.array([0], dtype=np.uint32),
            np.array([2 * b], dtype=np.uint32),
        )
        assert int(full[0]) == 2 * b
        assert lsm.lookup(keys).found.all()
        assert int(lsm.lookup(keys[:1]).values[0]) == 9
        check_lsm_invariants(lsm)

    def test_fold_padding_is_spread_over_trailing_survivors(self, device):
        # A zero-reclaim fold pads by whole batches; the padding must be
        # spread over distinct trailing keys — piling it onto one
        # mid-range key would make every covering COUNT/RANGE gather the
        # entire padding as candidates.
        b = 8
        lsm = _lsm(device, b=b)
        keys = np.arange(5 * b, dtype=np.uint32)
        for i in range(5):                      # r=5 -> occupied {0, 2}
            lsm.insert(keys[i * b:(i + 1) * b], keys[i * b:(i + 1) * b])
        stats = lsm.compact_levels(2)           # fold {0,2} -> level 3
        assert stats["kind"] == "compact_levels"
        assert stats["padding"] == 3 * b        # 5 batches padded to 8
        level = lsm.occupied_levels()[0]
        decoded = lsm.encoder.decode_key(level.keys)
        _, copies = np.unique(decoded, return_counts=True)
        # 24 extra copies over 40 distinct keys: at most 2 copies anywhere.
        assert int(copies.max()) <= 2
        counts = lsm.count(np.array([0], dtype=np.uint32),
                           np.array([5 * b], dtype=np.uint32))
        assert int(counts[0]) == 5 * b
        check_lsm_invariants(lsm)

    def test_fold_padding_single_survivor(self, device):
        # Degenerate spread: one surviving key must still pad a batch.
        b = 8
        lsm = _lsm(device, b=b)
        for i in range(3):
            lsm.insert(np.full(b, 5, dtype=np.uint32),
                       np.full(b, i, dtype=np.uint32))
        stats = lsm.compact_levels(2)           # whole structure, 1 survivor
        assert stats["padding"] == b - 1
        assert lsm.num_elements == b
        assert int(lsm.lookup(np.array([5], dtype=np.uint32)).values[0]) == 2
        assert int(lsm.count(np.array([0], dtype=np.uint32),
                             np.array([10], dtype=np.uint32))[0]) == 1
        check_lsm_invariants(lsm)

    def test_multiple_of_b_invariant_and_stats(self, device):
        b = 8
        lsm = _lsm(device, b=b)
        for i in range(7):
            lsm.insert(
                np.full(b, i % 3, dtype=np.uint32),
                np.full(b, i, dtype=np.uint32),
            )
        for k in (1, 2, 3):
            stats = lsm.compact_levels(min(k, lsm.num_occupied_levels))
            assert lsm.num_elements % b == 0
            assert stats["removed"] >= 0 and stats["padding"] >= 0
            check_lsm_invariants(lsm)

    def test_compact_zero_or_empty_is_a_noop(self, device):
        lsm = _lsm(device)
        assert lsm.compact_levels(0)["elements_before"] == 0
        assert lsm.compact_levels(3)["elements_before"] == 0
        with pytest.raises(ValueError):
            lsm.compact_levels(-1)

    def test_filters_rebuilt_on_compacted_levels(self, device):
        b = 8
        lsm = _lsm(device, b=b, enable_fences=True, bloom_bits_per_key=10)
        keys = np.arange(3 * b, dtype=np.uint32)
        for i in range(3):
            lsm.insert(keys[i * b:(i + 1) * b], keys[i * b:(i + 1) * b])
        lsm.compact_levels(2)
        for level in lsm.occupied_levels():
            assert level.filters is not None
        assert lsm.lookup(keys).found.all()

    def test_cleanup_stats_keep_legacy_keys(self, device):
        lsm = _lsm(device)
        stats = lsm.cleanup()
        assert {"elements_before", "elements_after", "removed", "padding"} \
            <= set(stats)


class TestPolicies:
    def test_manual_only_never_triggers(self, device):
        lsm = _lsm(device, policy=ManualOnly())
        for i in range(6):
            lsm.insert(
                np.full(8, 1, dtype=np.uint32), np.full(8, i, dtype=np.uint32)
            )
        assert lsm.maintenance_due() is None
        assert lsm.run_due_maintenance() is None
        assert lsm.maintenance_stats()["runs"] == 0

    def test_no_policy_behaves_like_manual(self, device):
        lsm = _lsm(device)
        lsm.insert(np.arange(8, dtype=np.uint32), np.arange(8, dtype=np.uint32))
        assert lsm.run_due_maintenance() is None

    def test_stale_fraction_policy_runs_full_cleanup(self, device):
        lsm = _lsm(device, policy=StaleFractionPolicy(threshold=0.5))
        for i in range(4):
            lsm.insert(
                np.full(8, 7, dtype=np.uint32), np.full(8, i, dtype=np.uint32)
            )
        action = lsm.maintenance_due()
        assert action is not None and action.kind == "cleanup"
        stats = lsm.run_due_maintenance()
        assert stats["kind"] == "cleanup"
        assert lsm.num_elements == 8
        assert lsm.maintenance_stats()["triggers"] == {"stale_fraction": 1}
        assert lsm.run_due_maintenance() is None   # nothing left to reclaim

    def test_stale_fraction_policy_min_elements_guard(self, device):
        lsm = _lsm(
            device,
            policy=StaleFractionPolicy(threshold=0.1, min_elements=1000),
        )
        keys = np.arange(8, dtype=np.uint32)
        lsm.insert(keys, keys)
        lsm.delete(keys)
        assert lsm.stale_fraction_estimate() == 1.0
        assert lsm.maintenance_due() is None   # below the size guard

    def test_level_count_policy_compacts_the_excess(self, device):
        lsm = _lsm(device, policy=LevelCountPolicy(max_occupied_levels=2))
        keys = np.arange(7 * 8, dtype=np.uint32)
        for i in range(7):                      # r=7 -> occupied {0,1,2}
            lsm.insert(keys[i * 8:(i + 1) * 8], keys[i * 8:(i + 1) * 8])
        assert lsm.num_occupied_levels == 3
        action = lsm.maintenance_due()
        # excess+1 = 2 levels, extended through the contiguous {0,1,2}
        # run so the fold target (level 3) is empty.
        assert action.kind == "compact_levels" and action.levels == 3
        stats = lsm.run_due_maintenance()
        assert stats is not None
        assert lsm.num_occupied_levels <= 2
        assert lsm.maintenance_stats()["triggers"] == {"level_count": 1}
        assert lsm.lookup(keys).found.all()

    def test_level_count_policy_makes_progress_without_reclaim(self, device):
        # Regression: with distinct keys there is nothing to reclaim, yet
        # the fold must still reduce the occupied-level count — otherwise
        # the policy re-triggers a useless O(prefix) compaction on every
        # single poll, forever.
        lsm = _lsm(device, policy=LevelCountPolicy(max_occupied_levels=2))
        keys = np.arange(7 * 8, dtype=np.uint32)
        for i in range(7):                      # occupied {0,1,2}, all live
            lsm.insert(keys[i * 8:(i + 1) * 8], keys[i * 8:(i + 1) * 8])
        assert lsm.run_due_maintenance() is not None
        assert lsm.num_occupied_levels <= 2
        # Quenched: nothing further is due until the structure changes.
        assert lsm.maintenance_due() is None
        assert lsm.run_due_maintenance() is None
        assert lsm.maintenance_stats()["runs"] == 1
        assert lsm.lookup(keys).found.all()

    def test_level_count_levels_floor_cannot_undersize_the_fold(self, device):
        # Regression: a small fixed `levels` floor must not shrink the
        # prefix below excess+1 — folding fewer levels cannot get back
        # under the bound (e.g. levels=1 refills level 0 in place), so
        # the policy would re-trigger a zero-progress compaction on every
        # poll with non-contiguous occupancy like {0, 2}.
        lsm = _lsm(
            device,
            policy=LevelCountPolicy(max_occupied_levels=1, levels=1),
        )
        keys = np.arange(5 * 8, dtype=np.uint32)
        for i in range(5):                      # r=5 -> occupied {0, 2}
            lsm.insert(keys[i * 8:(i + 1) * 8], keys[i * 8:(i + 1) * 8])
        assert lsm.num_occupied_levels == 2
        assert lsm.run_due_maintenance() is not None
        assert lsm.num_occupied_levels <= 1
        assert lsm.run_due_maintenance() is None   # quenched, no livelock
        assert lsm.maintenance_stats()["runs"] == 1
        assert lsm.lookup(keys).found.all()

    def test_level_count_policy_quenches_at_max_levels(self, device):
        # Regression: with the occupied run reaching the top of the level
        # space there is no fold target, so the policy must decline to
        # trip rather than re-run a zero-progress whole-structure
        # compaction on every poll.
        lsm = GPULSM(
            config=LSMConfig(
                batch_size=8,
                max_levels=4,
                validate_invariants=True,
                maintenance_policy=LevelCountPolicy(max_occupied_levels=2),
            ),
            device=device,
        )
        keys = np.arange(15 * 8, dtype=np.uint32)
        for i in range(15):                     # r=15 -> occupied {0,1,2,3}
            lsm.insert(keys[i * 8:(i + 1) * 8], keys[i * 8:(i + 1) * 8])
        assert lsm.num_occupied_levels == 4
        assert lsm.maintenance_due() is None
        assert lsm.run_due_maintenance() is None
        assert lsm.maintenance_stats()["runs"] == 0
        assert lsm.lookup(keys).found.all()

    def test_level_count_policy_full_rebuild_runs_cleanup(self, device):
        lsm = _lsm(
            device,
            policy=LevelCountPolicy(max_occupied_levels=2, full_rebuild=True),
        )
        for i in range(7):
            lsm.insert(
                np.full(8, i % 2, dtype=np.uint32),
                np.full(8, i, dtype=np.uint32),
            )
        stats = lsm.run_due_maintenance()
        assert stats is not None and stats["kind"] == "cleanup"
        assert lsm.maintenance_stats()["cleanups"] == 1

    def test_level_count_full_rebuild_quenches_after_futile_run(self, device):
        # Regression: when the live population alone needs more levels
        # than the bound, a full_rebuild trip reclaims nothing and the
        # level count cannot drop — consecutive polls used to re-run the
        # whole-structure rebuild forever.  One futile run marks its
        # epoch; further polls quench until the structure changes.
        lsm = _lsm(
            device,
            policy=LevelCountPolicy(max_occupied_levels=2, full_rebuild=True),
        )
        keys = np.arange(7 * 8, dtype=np.uint32)
        for i in range(7):                      # occupied {0,1,2}, all live
            lsm.insert(keys[i * 8:(i + 1) * 8], keys[i * 8:(i + 1) * 8])
        first = lsm.run_due_maintenance()
        assert first is not None and first["removed"] == 0
        for _ in range(3):
            assert lsm.run_due_maintenance() is None
        assert lsm.maintenance_stats()["runs"] == 1
        assert lsm.lookup(keys).found.all()
        # A structural change expires the futile mark (here the extra
        # batch's cascade also folds everything to one level, so nothing
        # is due for the legitimate reason).
        extra = np.arange(7 * 8, 8 * 8, dtype=np.uint32)
        lsm.insert(extra, extra)
        assert lsm._futile_rebuild_epoch != lsm.epoch
        assert lsm.num_occupied_levels == 1

    def test_any_of_first_tripping_policy_wins(self, device):
        policy = AnyOf(
            LevelCountPolicy(max_occupied_levels=2),
            StaleFractionPolicy(threshold=0.5),
        )
        lsm = _lsm(device, policy=policy)
        keys = np.arange(7 * 8, dtype=np.uint32)
        for i in range(7):
            lsm.insert(keys[i * 8:(i + 1) * 8], keys[i * 8:(i + 1) * 8])
        action = lsm.maintenance_due()
        assert action.policy == "level_count"

    def test_any_of_falls_through_to_later_members(self, device):
        policy = AnyOf(
            LevelCountPolicy(max_occupied_levels=30),   # never trips here
            StaleFractionPolicy(threshold=0.5),
        )
        lsm = _lsm(device, policy=policy)
        for i in range(4):
            lsm.insert(
                np.full(8, 7, dtype=np.uint32), np.full(8, i, dtype=np.uint32)
            )
        action = lsm.maintenance_due()
        assert action is not None and action.policy == "stale_fraction"

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            StaleFractionPolicy(threshold=0.0)
        with pytest.raises(ValueError):
            StaleFractionPolicy(threshold=1.5)
        with pytest.raises(ValueError):
            LevelCountPolicy(max_occupied_levels=0)
        with pytest.raises(ValueError):
            AnyOf()
        with pytest.raises(TypeError):
            AnyOf(object())
        with pytest.raises(TypeError):
            LSMConfig(batch_size=8, maintenance_policy=object())
        with pytest.raises(ValueError):
            MaintenanceAction(kind="defrag")
        with pytest.raises(ValueError):
            MaintenanceAction(kind="compact_levels", levels=0)

    def test_manual_calls_are_counted_under_manual(self, device):
        lsm = _lsm(device)
        for i in range(3):
            lsm.insert(
                np.full(8, 1, dtype=np.uint32), np.full(8, i, dtype=np.uint32)
            )
        lsm.compact_levels(1)
        lsm.cleanup()
        stats = lsm.maintenance_stats()
        assert stats["runs"] == 2
        assert stats["cleanups"] == 1 and stats["compactions"] == 1
        assert stats["triggers"] == {"manual": 2}
        assert stats["reclaimed_elements"] > 0
        assert stats["simulated_seconds"] > 0


class TestShardedMaintenance:
    def _sharded(self, policy=None):
        return ShardedLSM(
            num_shards=4,
            batch_size=32,
            key_domain=1 << 10,
            validate_invariants=True,
            maintenance_policy=policy,
        )

    def test_selective_cleanup_touches_only_named_shards(self):
        sharded = self._sharded()
        keys = np.arange(32, dtype=np.uint32) * 32  # 8 keys per shard
        sharded.insert(keys, keys)
        sharded.delete(keys[:8])                    # shard-0 keys only
        epochs_before = sharded.shard_epochs
        stats = sharded.cleanup(shards=[0, 2])
        assert stats["shards"] == [0, 2]
        epochs_after = sharded.shard_epochs
        for s in range(4):
            changed = epochs_after[s] != epochs_before[s]
            assert changed == (s in (0, 2))
        # Untouched shards still answer correctly.
        res = sharded.lookup(keys)
        assert not res.found[:8].any() and res.found[8:].all()

    def test_selective_cleanup_validates_ids(self):
        sharded = self._sharded()
        with pytest.raises(ValueError):
            sharded.cleanup(shards=[4])
        with pytest.raises(ValueError):
            sharded.compact_levels(1, shards=[-1])

    def test_per_shard_policy_compacts_only_tripped_shards(self):
        # Skew the update churn onto one shard-0 key: only shard 0 trips.
        sharded = self._sharded(policy=StaleFractionPolicy(threshold=0.5))
        lo, _ = sharded.shard_range(0)
        hot = np.arange(lo, lo + 8, dtype=np.uint32)
        cold = np.arange(
            sharded.shard_range(3)[0],
            sharded.shard_range(3)[0] + 8,
            dtype=np.uint32,
        )
        sharded.insert(np.concatenate([hot, cold]),
                       np.concatenate([hot, cold]))
        for i in range(6):
            # One re-inserted key per batch: shard 0 receives a 1-op chunk
            # that pads to a full shard batch, so stale copies accumulate
            # in shard 0 while shard 3 stays clean.
            sharded.insert(hot[:1], np.full(1, i, dtype=np.uint32))
        assert sharded.shards[0].stale_fraction_estimate() > 0.5
        assert sharded.shards[3].stale_fraction_estimate() == 0.0
        epochs_before = sharded.shard_epochs
        stats = sharded.run_due_maintenance()
        assert stats is not None and stats["shards"] == [0]
        assert sharded.shard_epochs[3] == epochs_before[3]
        merged = sharded.maintenance_stats()
        assert merged["triggers"] == {"stale_fraction": 1}
        res = sharded.lookup(np.concatenate([hot, cold]))
        assert res.found.all()

    def test_run_due_maintenance_none_when_nothing_due(self):
        sharded = self._sharded(policy=StaleFractionPolicy(threshold=0.9))
        keys = np.arange(32, dtype=np.uint32) * 32
        sharded.insert(keys, keys)
        assert sharded.run_due_maintenance() is None

    def test_sharded_compact_levels_answers_preserved(self):
        sharded = self._sharded()
        rng = np.random.default_rng(5)
        all_keys = rng.choice(1 << 10, 96, replace=False).astype(np.uint32)
        for i in range(3):
            sharded.insert(all_keys[i * 32:(i + 1) * 32],
                           all_keys[i * 32:(i + 1) * 32])
        sharded.delete(all_keys[:16])
        before = sharded.lookup(all_keys).found.copy()
        sharded.compact_levels(2)
        assert np.array_equal(sharded.lookup(all_keys).found, before)


class TestEngineScheduledMaintenance:
    def _backend(self, device, policy):
        return GPULSM(
            config=LSMConfig(
                batch_size=8,
                validate_invariants=True,
                maintenance_policy=policy,
            ),
            device=device,
        )

    def test_inline_apply_polls_maintenance_after_the_tick(self, device):
        backend = self._backend(device, StaleFractionPolicy(threshold=0.5))
        engine = Engine(backend)
        keys = np.full(8, 3, dtype=np.uint32)
        for i in range(4):     # re-insertions: staleness crosses 0.5
            engine.apply(OpBatch.inserts(keys, np.full(8, i, np.uint32)))
        stats = engine.stats()
        assert stats.maintenance_runs >= 1
        assert stats.maintenance_reclaimed > 0
        assert stats.maintenance_seconds > 0
        assert stats.backend_maintenance["triggers"]["stale_fraction"] >= 1
        # The tick's own simulated time excludes the maintenance pass.
        assert backend.num_elements == 8

    def test_snapshot_reads_never_see_a_mid_tick_maintenance(self, device):
        # Maintenance runs after the tick: a tick whose reads ride with
        # the staleness-crossing update must still resolve snapshot-
        # consistently (no SnapshotViolationError, pre-tick answers).
        backend = self._backend(device, StaleFractionPolicy(threshold=0.3))
        engine = Engine(backend)
        keys = np.full(8, 3, dtype=np.uint32)
        engine.apply(OpBatch.inserts(keys, np.zeros(8, np.uint32)))
        tick = OpBatch.concat([
            OpBatch.lookups(np.array([3], dtype=np.uint32)),
            OpBatch.inserts(keys, np.full(8, 1, np.uint32)),
            OpBatch.lookups(np.array([3], dtype=np.uint32)),
        ])
        res = engine.apply(tick)
        assert bool(res.found[0]) and bool(res.found[9])
        assert int(res.values[0]) == 0 and int(res.values[9]) == 0  # snapshot

    def test_threaded_engine_runs_maintenance_between_ticks(self, device):
        backend = self._backend(
            device, LevelCountPolicy(max_occupied_levels=1)
        )
        keys = np.arange(32, dtype=np.uint32)
        with Engine(backend, TickConfig(target_tick_size=8)) as engine:
            tickets = [
                engine.submit_batch(
                    OpBatch.inserts(keys[i * 8:(i + 1) * 8],
                                    keys[i * 8:(i + 1) * 8])
                )
                for i in range(4)
            ]
            for t in tickets:
                t.result(timeout=10)
            engine.flush()
            stats = engine.stats()
        assert stats.maintenance_runs >= 1
        assert stats.backend_maintenance["triggers"].get("level_count", 0) >= 1
        assert backend.num_occupied_levels <= 2
        assert backend.lookup(keys).found.all()

    def test_backends_without_maintenance_are_fine(self, device):
        from repro.baselines.sorted_array import GPUSortedArray

        backend = GPUSortedArray(device=device)
        engine = Engine(backend)
        engine.apply(OpBatch.lookups(np.array([1], dtype=np.uint32)))
        stats = engine.stats()
        assert stats.maintenance_runs == 0
        assert stats.backend_maintenance is None


#: The policies a serving loop under churn is run with.  ``full`` answers
#: both triggers with a whole-structure rebuild; ``incremental`` keeps the
#: level count down with prefix compactions and rebuilds only once
#: staleness piles up anyway (a prefix compaction cannot reclaim a
#: tombstone/victim pair that spans the prefix and an untouched level).
CHURN_POLICIES = {
    "none": lambda: None,
    "full": lambda: AnyOf(
        StaleFractionPolicy(threshold=0.35),
        LevelCountPolicy(max_occupied_levels=2, full_rebuild=True),
    ),
    "incremental": lambda: AnyOf(
        LevelCountPolicy(max_occupied_levels=2),
        StaleFractionPolicy(threshold=0.7),
    ),
}


@functools.lru_cache(maxsize=None)
def _churn(workload, policy):
    """40 steps of one 512-key update batch, a maintenance poll and 2048
    lookups, on a device scaled to the run.  Returns the lookup answers as
    bytes, the lookups' simulated seconds over the second half (the steady
    state) and the maintenance counters."""
    b, steps, window, num_queries = 1 << 9, 40, 4, 1 << 11
    device = Device(scaled_spec(b * steps, PAPER_INSERTION_ELEMENTS), seed=91)
    lsm = GPULSM(
        config=LSMConfig(batch_size=b, maintenance_policy=CHURN_POLICIES[policy]()),
        device=device,
    )
    rng = np.random.default_rng(91 + 13)
    answers, steady_seconds = [], 0.0
    for step in range(steps):
        if workload == "delete_heavy":
            # A sliding window: tombstone the block that left it, insert a
            # fresh one.
            if step >= window:
                gone = step - window
                lsm.delete(np.arange(gone * b, (gone + 1) * b, dtype=np.uint32))
            keys = np.arange(step * b, (step + 1) * b, dtype=np.uint32)
            lsm.insert(keys, keys)
            queries = rng.integers(0, steps * b, num_queries)
        else:
            # Re-insertions over a fixed population: replaced copies pile up.
            keys = rng.choice(window * b, size=b, replace=False).astype(np.uint32)
            lsm.insert(keys, np.full(b, step, dtype=np.uint32))
            queries = rng.integers(0, 2 * window * b, num_queries)
        lsm.run_due_maintenance()
        before = device.snapshot()
        result = lsm.lookup(queries.astype(np.uint32))
        if step >= steps // 2:
            steady_seconds += device.elapsed_since(before)
        answers.append((result.found.tobytes(), result.values.tobytes()))
    return answers, steady_seconds, lsm.maintenance_stats()


class TestMaintenanceUnderChurn:
    @pytest.mark.parametrize("workload", ["delete_heavy", "update_heavy"])
    def test_policies_run_and_change_no_answer(self, workload):
        answers, _, stats = _churn(workload, "none")
        assert stats["runs"] == 0
        for policy in ("full", "incremental"):
            maintained, _, stats = _churn(workload, policy)
            assert maintained == answers, policy
            assert stats["runs"] > 0, policy
        # Not only full rebuilds: the incremental policy compacted.
        assert _churn(workload, "incremental")[2]["compactions"] > 0

    def test_maintenance_pays_under_deletes(self):
        # Equal lookups measured, so the query-rate ratio is the inverse
        # ratio of the steady-state lookup seconds.
        unmaintained = _churn("delete_heavy", "none")[1]
        for policy in ("full", "incremental"):
            assert unmaintained > 1.2 * _churn("delete_heavy", policy)[1], policy
