"""Unit tests for the epoch-guarded hot-key read cache
(:mod:`repro.serve.cache`)."""

import numpy as np
import pytest

from repro import KVStore
from repro.api import Consistency, OpBatch, OpCode
from repro.baselines.cuckoo_hash import CuckooHashTable
from repro.bench.wallclock import make_prefill
from repro.bench.workloads import MixedOpConfig, hot_key_set, make_mixed_batches
from repro.core.lsm import GPULSM
from repro.scale.protocol import supports
from repro.scale.sharded import ShardedLSM
from repro.serve import Engine, ReadCachedBackend


def _lsm(batch_size=16):
    lsm = GPULSM(batch_size=batch_size)
    for lo in range(0, 64, batch_size):
        keys = np.arange(lo, lo + batch_size, dtype=np.uint64)
        lsm.insert(keys, keys * 7)
    return lsm


class TestReadCachedBackend:
    def test_answers_bit_identical_to_inner(self):
        lsm = _lsm()
        proxy = ReadCachedBackend(lsm, capacity=32)
        queries = np.array([1, 5, 1, 999, 5, 63, 1], dtype=np.uint64)
        reference = lsm.lookup(queries)
        for _ in range(3):  # cold, then fully cached
            got = proxy.lookup(queries)
            assert got.found.dtype == reference.found.dtype
            assert got.values.dtype == reference.values.dtype
            np.testing.assert_array_equal(got.found, reference.found)
            np.testing.assert_array_equal(got.values, reference.values)

    def test_counts_hits_and_misses_per_operation(self):
        proxy = ReadCachedBackend(_lsm(), capacity=32)
        queries = np.array([1, 5, 1, 5, 1], dtype=np.uint64)
        proxy.lookup(queries)
        stats = proxy.cache_stats()
        assert stats["misses"] == 5 and stats["hits"] == 0
        assert stats["fills"] == 2  # two unique keys
        proxy.lookup(queries)
        stats = proxy.cache_stats()
        assert stats["hits"] == 5 and stats["misses"] == 5

    def test_epoch_bump_invalidates_wholesale(self):
        lsm = _lsm()
        proxy = ReadCachedBackend(lsm, capacity=32)
        q = np.array([2, 3], dtype=np.uint64)
        proxy.lookup(q)
        assert len(proxy) == 2
        lsm.insert(np.array([2], dtype=np.uint64), np.array([1000], dtype=np.uint64))
        got = proxy.lookup(q)
        assert int(got.values[0]) == 1000  # no stale hit
        stats = proxy.cache_stats()
        assert stats["invalidations"] == 1

    def test_delete_is_seen_through_the_epoch(self):
        lsm = _lsm()
        proxy = ReadCachedBackend(lsm, capacity=32)
        q = np.array([4], dtype=np.uint64)
        assert proxy.lookup(q).found[0]
        lsm.delete(np.arange(16, dtype=np.uint64))
        assert not proxy.lookup(q).found[0]

    def test_lru_eviction_is_bounded_and_recency_ordered(self):
        proxy = ReadCachedBackend(_lsm(), capacity=2)
        proxy.lookup(np.array([1], dtype=np.uint64))
        proxy.lookup(np.array([2], dtype=np.uint64))
        proxy.lookup(np.array([1], dtype=np.uint64))  # touch 1
        proxy.lookup(np.array([3], dtype=np.uint64))  # evicts 2, not 1
        assert len(proxy) == 2
        proxy.lookup(np.array([1], dtype=np.uint64))
        stats = proxy.cache_stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 2  # the touch and the final lookup of 1

    def test_zero_capacity_is_a_counting_pass_through(self):
        lsm = _lsm()
        proxy = ReadCachedBackend(lsm, capacity=0)
        q = np.array([1, 1, 1], dtype=np.uint64)
        got = proxy.lookup(q)
        np.testing.assert_array_equal(got.values, lsm.lookup(q).values)
        assert len(proxy) == 0
        assert proxy.cache_stats()["misses"] == 3

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ReadCachedBackend(_lsm(), capacity=-1)

    def test_forwards_epoch_and_telemetry_surfaces(self):
        lsm = _lsm()
        proxy = ReadCachedBackend(lsm, capacity=4)
        assert proxy.epoch == lsm.epoch
        assert proxy.device is lsm.device
        assert proxy.filter_stats() == lsm.filter_stats()
        assert proxy.supported_operations() == lsm.supported_operations()

    def test_key_only_backend_caches_found_only(self):
        lsm = GPULSM(batch_size=16, key_only=True)
        keys = np.arange(16, dtype=np.uint64)
        lsm.insert(keys)
        proxy = ReadCachedBackend(lsm, capacity=8)
        q = np.array([3, 99], dtype=np.uint64)
        first = proxy.lookup(q)
        second = proxy.lookup(q)
        assert first.values is None and second.values is None
        np.testing.assert_array_equal(second.found, np.array([True, False]))

    def test_sharded_backend_invalidates_on_one_shards_mutation(self):
        sharded = ShardedLSM(num_shards=4, batch_size=16)
        keys = np.arange(64, dtype=np.uint64)
        sharded.bulk_build(keys, keys * 3)
        proxy = ReadCachedBackend(sharded, capacity=64)
        q = np.array([5, 5, 40], dtype=np.uint64)
        proxy.lookup(q)
        # Mutating ONE shard moves the front-end's epoch and invalidates.
        sharded.insert(np.array([5], dtype=np.uint64), np.array([77], dtype=np.uint64))
        got = proxy.lookup(q)
        assert int(got.values[0]) == 77
        assert proxy.cache_stats()["invalidations"] == 1

    def test_rebalance_invalidates_despite_shard_epoch_aliasing(self):
        """Regression: a rebalance rebuilds shards whose fresh per-shard
        epochs can reproduce an earlier tuple exactly (here (1, 1) both
        before and after a merge+split round trip).  The top-level epoch
        the cache keys on is rebased on every boundary change, so it stays
        strictly monotone and the aliased tuple still invalidates."""
        sharded = ShardedLSM(num_shards=2, batch_size=64, key_domain=1 << 10)
        keys = np.arange(0, 1 << 10, 4, dtype=np.uint64)
        sharded.bulk_build(keys, keys * 3)
        assert sharded.shard_epochs == (1, 1)
        epoch_before = sharded.epoch
        proxy = ReadCachedBackend(sharded, capacity=64)
        q = np.array([8, 512], dtype=np.uint64)
        proxy.lookup(q)
        proxy.lookup(q)
        assert proxy.cache_stats()["hits"] == len(q)
        # Merge the two shards, then split again: each replacement shard
        # was built with exactly one bulk_build, so the per-shard epoch
        # tuple aliases the pre-rebalance state...
        sharded.merge_shards(0)
        sharded.split_shard(0, 256)
        assert sharded.shard_epochs == (1, 1)
        # ...but the epoch moved, so the cache must invalidate rather than
        # serve entries pinned to the old partition.
        got = proxy.lookup(q)
        assert proxy.cache_stats()["invalidations"] == 1
        np.testing.assert_array_equal(got.found, np.array([True, True]))
        np.testing.assert_array_equal(got.values, q * 3)
        assert sharded.epoch > epoch_before


class TestSupportsThroughProxy:
    def test_declared_path_not_poisoned_by_wrapper_type(self):
        """Two ReadCachedBackend instances wrapping backends with
        different Table I rows must answer supports() independently —
        each forwards its own backend's declaration."""
        full = ReadCachedBackend(_lsm(), capacity=4)

        class KeyOnlyish:
            epoch = 0

            @classmethod
            def supported_operations(cls):
                return frozenset({"insert", "lookup"})

            def lookup(self, keys):  # pragma: no cover - never called
                raise AssertionError

        partial = ReadCachedBackend(KeyOnlyish(), capacity=4)
        assert supports(full, "range_query")
        assert not supports(partial, "range_query")
        assert supports(full, "range_query")  # unchanged after the other


class TestEngineIntegration:
    def test_engine_reports_cache_counters(self):
        engine = Engine(_lsm(), cache_capacity=32)
        batch = OpBatch.lookups(np.array([1, 1, 2], dtype=np.uint64))
        engine.apply(batch)
        engine.apply(batch)
        stats = engine.stats()
        assert stats.read_cache is not None
        assert stats.read_cache["hits"] == 3
        assert stats.read_cache["misses"] == 3

    def test_uncached_engine_reports_none(self):
        engine = Engine(_lsm())
        engine.apply(OpBatch.lookups(np.array([1], dtype=np.uint64)))
        assert engine.stats().read_cache is None
        assert engine.read_cache is None

    def test_cached_engine_answers_match_uncached(self):
        rng = np.random.default_rng(3)
        ticks = []
        for _ in range(6):
            keys = rng.integers(0, 64, 16, dtype=np.uint64)
            ticks.append(OpBatch.lookups(keys))
            ins = rng.integers(0, 64, 16, dtype=np.uint64)
            ticks.append(OpBatch.inserts(ins, ins * 5))
        results = {}
        for cap in (0, 64):
            engine = Engine(
                GPULSM(batch_size=16), cache_capacity=cap or None
            )
            results[cap] = [engine.apply(t) for t in ticks]
        for cached, plain in zip(results[64], results[0]):
            np.testing.assert_array_equal(cached.found, plain.found)
            np.testing.assert_array_equal(cached.statuses, plain.statuses)
            if plain.values is not None:
                np.testing.assert_array_equal(cached.values, plain.values)

    @pytest.mark.parametrize("kind", ["gpulsm", "sharded4"])
    def test_cached_replay_matches_uncached(self, assert_results_bit_identical, kind):
        """A prefilled multi-level store, a mixed stream (COUNT / RANGE
        included), then hot-key lookups: the cached engine answers every
        tick bit for bit as the uncached one, and serves the hot reads."""
        tick, key_space = 128, 512  # a small space: writes hit cached keys
        hot = MixedOpConfig(
            num_ops=8 * tick, tick_size=tick, seed=8, key_space=key_space,
            mix={OpCode.LOOKUP: 1.0}, hot_key_count=64, hot_fraction=1.0,
        )
        ticks = make_mixed_batches(
            MixedOpConfig(
                num_ops=8 * tick, tick_size=tick, seed=7, key_space=key_space
            )
        ) + make_mixed_batches(hot)
        results = {}
        for cap in (None, 256):
            if kind == "sharded4":
                backend = ShardedLSM(num_shards=4, batch_size=tick, seed=1)
            else:
                backend = GPULSM(batch_size=tick)
            for keys, values in make_prefill(
                tick, 3, hot_keys=hot_key_set(hot), key_space=key_space
            ):
                backend.insert(keys, values)
            engine = Engine(backend, cache_capacity=cap)
            results[cap] = [engine.apply(t) for t in ticks]
        for t, (plain, cached) in enumerate(zip(results[None], results[256])):
            assert_results_bit_identical(plain, cached, f"tick {t}")
        assert engine.stats().read_cache["hits"] > 0

    def test_strict_tick_sees_its_own_updates_through_the_cache(self):
        engine = Engine(_lsm(), cache_capacity=32, consistency=Consistency.STRICT)
        warm = OpBatch.lookups(np.array([9], dtype=np.uint64))
        engine.apply(warm)
        tick = OpBatch.concat(
            [
                OpBatch.inserts(
                    np.array([9], dtype=np.uint64), np.array([555], dtype=np.uint64)
                ),
                OpBatch.lookups(np.array([9], dtype=np.uint64)),
            ]
        )
        res = engine.apply(tick)
        assert int(res.values[1]) == 555  # update segment bumped the epoch

    def test_kvstore_forwards_cache_capacity(self):
        store = KVStore(batch_size=16, cache_capacity=16)
        store.apply(OpBatch.inserts(np.arange(8), np.arange(8) * 10))
        store.apply(OpBatch.lookups(np.array([3, 3], dtype=np.uint64)))
        store.apply(OpBatch.lookups(np.array([3, 3], dtype=np.uint64)))
        assert store.stats().read_cache["hits"] == 2

    @pytest.mark.parametrize(
        "queries",
        [
            np.array([1, 2, 5, 2], dtype=np.int64),
            np.array([1, 2, 5, 2], dtype=np.int32),
            np.array([1, 2, 5, 2], dtype=np.uint32),
            np.array([1, 2, 5, 2], dtype=np.uint64),
            np.array([1.0, 2.0, 5.0, 2.0]),
            np.array([1, -2, 5]),
            np.array([1, 1 << 31], dtype=np.uint64),
            np.array([1, 1 << 31], dtype=np.int64),
            np.array([[1, 2], [5, 6]], dtype=np.uint64),
            np.array([], dtype=np.int64),
            np.array([]),
        ],
        ids=lambda q: f"{q.dtype}-{q.shape}-{q.ravel()[:3].tolist()}",
    )
    def test_kvstore_lookup_front_door_matches_uncached(self, queries):
        """Any batch the uncached store answers, the cached one answers
        equally; any batch it rejects, the cached one rejects with the same
        exception type and without moving a counter or an entry."""
        stores = [KVStore(GPULSM(batch_size=4), cache_capacity=cap) for cap in (None, 16)]
        for store in stores:
            store.insert(np.arange(4, dtype=np.uint64), np.arange(4, dtype=np.uint64) * 10)
            store.lookup(np.array([1, 3], dtype=np.uint64))  # warm the cache
        before = stores[1].stats().read_cache
        outcomes = []
        for store in stores:
            try:
                result = store.lookup(queries)
            except Exception as exc:  # the exception type is what is compared
                outcomes.append(type(exc))
            else:
                outcomes.append((result.found.tolist(), result.values.tolist()))
        assert outcomes[1] == outcomes[0]
        if isinstance(outcomes[0], type):
            assert stores[1].stats().read_cache == before
        else:
            # The cached answers are served from the cache the second time.
            again = stores[1].lookup(queries)
            assert (again.found.tolist(), again.values.tolist()) == outcomes[0]

    def test_negative_key_never_hits_the_word_it_wraps_to(self):
        """A backend without a key domain can cache ``2**64 - 2``; the
        signed key ``-2`` wraps to that word, and must still be rejected
        by the backend rather than answered from the cache."""
        table = CuckooHashTable()
        table.bulk_build(
            np.array([5, (1 << 64) - 2], dtype=np.uint64), np.array([50, 70], dtype=np.uint64)
        )
        proxy = ReadCachedBackend(table, capacity=8)
        proxy.lookup(np.array([(1 << 64) - 2], dtype=np.uint64))
        with pytest.raises(ValueError, match="non-negative"):
            proxy.lookup(np.array([-2]))

    def test_kvstore_legacy_surface_shares_the_cache(self):
        # The per-method surface routes through the same wrapped backend
        # as the tick path: lookups populate/hit the cache, and a legacy
        # delete invalidates it via the epoch like any other mutation.
        store = KVStore(batch_size=16, cache_capacity=16)
        store.insert(np.arange(8, dtype=np.uint64), np.arange(8) * np.uint64(10))
        probe = np.array([3, 5], dtype=np.uint64)
        store.lookup(probe)
        res = store.lookup(probe)
        assert res.values.tolist() == [30, 50]
        assert store.stats().read_cache["hits"] == 2
        store.delete(np.array([3], dtype=np.uint64))
        assert store.lookup(probe).found.tolist() == [False, True]
        assert store.stats().read_cache["invalidations"] == 1
