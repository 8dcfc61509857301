"""Unit and integration tests of the query acceleration layer.

Covers the building blocks of :mod:`repro.core.filters` (Bloom filter
guarantees, fence pairs, the FILTER traffic class of the cost model), the
GPU LSM integration (pruned lookup / fence-skipped count and range /
sorted-probe mode, all answer-invariant), the filter statistics and the
memory accounting, the properties the hash-once host execution rests on
(a pre-hashed subset probes like a self-hashed one, no false negatives,
every lookup pair pruned or searched, a linear build transient, no
hashing without Bloom filters), and the stack above: ShardedLSM
propagation, the mixed-op planner under both consistency knobs, and the
serving engine's filter telemetry.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.kvstore import KVStore
from repro.api.ops import OpBatch
from repro.api.planner import Consistency
from repro.core.config import LSMConfig
from repro.core.filters import (
    BloomFilter,
    FilterStatsCounter,
    LevelFilters,
    derive_num_hashes,
)
from repro.core.lsm import GPULSM
from repro.gpu.cost_model import CostModel
from repro.gpu.counters import KernelStats
from repro.gpu.device import Device
from repro.gpu.spec import K40C_SPEC
from repro.scale.sharded import ShardedLSM
from repro.serve.engine import Engine


# --------------------------------------------------------------------- #
# Bloom filter building block
# --------------------------------------------------------------------- #
class TestBloomFilter:
    def test_no_false_negatives(self, rng):
        keys = rng.choice(1 << 31, size=2000, replace=False)
        bloom = BloomFilter(num_bits=keys.size * 10, num_hashes=7)
        bloom.add(keys)
        assert bool(np.all(bloom.maybe_contains(keys)))

    def test_false_positive_rate_is_small(self, rng):
        keys = rng.choice(1 << 30, size=4000, replace=False)
        bloom = BloomFilter(num_bits=keys.size * 10, num_hashes=7)
        bloom.add(keys)
        # Probe keys guaranteed absent (disjoint range).
        misses = (1 << 30) + rng.choice(1 << 20, size=4000, replace=False)
        fp_rate = float(np.mean(bloom.maybe_contains(misses)))
        assert fp_rate < 0.05  # theory: ~0.8 % at 10 bits/key, k = 7

    def test_derived_hash_count(self):
        assert derive_num_hashes(10) == 7  # round(10 * ln 2)
        assert derive_num_hashes(1) == 1
        with pytest.raises(ValueError):
            derive_num_hashes(0)

    def test_probe_traffic_recorded_as_filter_class(self, device):
        keys = np.arange(100, dtype=np.uint64)
        bloom = BloomFilter(num_bits=1000, num_hashes=3)
        bloom.add(keys)
        before = device.counter.total_filter_bytes
        bloom.maybe_contains(keys, device=device)
        assert device.counter.total_filter_bytes > before

    def test_filter_bytes_cheaper_than_random(self):
        model = CostModel(K40C_SPEC)
        nbytes = 1 << 20
        filter_cost = model.cost_of(
            KernelStats("f", filter_read_bytes=nbytes)
        )
        random_cost = model.cost_of(KernelStats("r", random_read_bytes=nbytes))
        assert 0 < filter_cost.filter_seconds < random_cost.random_seconds
        assert filter_cost.seconds < random_cost.seconds


def fence_mask(filters, keys):
    """Per-key mask of ``min_key <= key <= max_key`` (None = no fences)."""
    if not filters.has_fences:
        return None
    k = np.asarray(keys).astype(np.int64)
    return (k >= filters.min_key) & (k <= filters.max_key)


def fence_overlap(filters, k1, k2):
    """Per-range mask of ``[k1, k2] ∩ [min_key, max_key] ≠ ∅``."""
    if not filters.has_fences:
        return None
    lo = np.asarray(k1).astype(np.int64)
    hi = np.asarray(k2).astype(np.int64)
    return (hi >= filters.min_key) & (lo <= filters.max_key)


class TestLevelFilters:
    def test_fences_are_min_max_of_original_keys(self, device):
        keys = np.array([3, 17, 42, 99], dtype=np.uint32)
        filters = LevelFilters.build(
            keys, enable_fences=True, bloom_bits_per_key=0, device=device
        )
        assert filters.min_key == 3 and filters.max_key == 99
        assert filters.bloom is None
        mask = fence_mask(filters, np.array([2, 3, 50, 100]))
        assert mask.tolist() == [False, True, True, False]

    def test_fences_are_decoded_first_and_last_key(self, device):
        words = np.array([6, 35, 84, 199], dtype=np.uint32)  # encoded, sorted
        filters = LevelFilters.build(
            words, enable_fences=True, bloom_bits_per_key=10,
            decode=lambda w: w >> np.uint32(1), device=device,
        )
        assert (filters.min_key, filters.max_key) == (3, 99)
        assert not filters.bloom.built
        assert bool(np.all(filters.bloom.maybe_contains(np.array([3, 17, 42, 99]))))
        assert filters.bloom.built

    def test_fence_overlap_for_ranges(self):
        filters = LevelFilters(min_key=10, max_key=20)
        ov = fence_overlap(filters, np.array([0, 0, 21, 15]), np.array([5, 10, 30, 16]))
        assert ov.tolist() == [False, True, False, True]

    def test_nbytes_counts_bloom_bits(self, device):
        keys = np.arange(1000, dtype=np.uint32)
        with_bloom = LevelFilters.build(
            keys, enable_fences=True, bloom_bits_per_key=10, device=device
        )
        fences_only = LevelFilters.build(
            keys, enable_fences=True, bloom_bits_per_key=0, device=device
        )
        assert with_bloom.nbytes >= fences_only.nbytes + 10 * keys.size // 8

    def test_stats_counter_merge_and_rates(self):
        a = FilterStatsCounter(lookup_pairs=10, fence_pruned=2, bloom_pruned=3,
                               searched=5, bloom_false_positives=1)
        b = FilterStatsCounter(lookup_pairs=10, searched=10)
        a.merge(b)
        d = a.as_dict()
        assert d["lookup_pairs"] == 20 and d["searched"] == 15
        assert d["lookup_prune_rate"] == pytest.approx(0.25)
        assert d["bloom_false_positive_rate"] == pytest.approx(1 / 15)


# --------------------------------------------------------------------- #
# GPU LSM integration
# --------------------------------------------------------------------- #
def _make_pair(device_seed, b=32, **accel):
    """An unfiltered and an accelerated LSM fed identical updates."""
    plain = GPULSM(config=LSMConfig(batch_size=b), device=Device(K40C_SPEC, seed=device_seed))
    accel_lsm = GPULSM(
        config=LSMConfig(batch_size=b, **accel),
        device=Device(K40C_SPEC, seed=device_seed + 1),
    )
    return plain, accel_lsm


ACCEL_MODES = [
    dict(enable_fences=True),
    dict(bloom_bits_per_key=10),
    dict(enable_fences=True, bloom_bits_per_key=10),
    dict(enable_fences=True, bloom_bits_per_key=10, sort_queries=True),
]


class TestLSMFilterIntegration:
    @pytest.mark.parametrize("accel", ACCEL_MODES)
    def test_queries_answer_invariant_under_filters(self, rng, accel):
        plain, fast = _make_pair(7, **accel)
        b, key_space = 32, 400
        for step in range(6):
            ins = rng.integers(0, key_space, b - 8, dtype=np.uint32)
            vals = rng.integers(0, 1 << 20, b - 8, dtype=np.uint32)
            dels = rng.integers(0, key_space, 8, dtype=np.uint32)
            for lsm in (plain, fast):
                lsm.update(insert_keys=ins, insert_values=vals, delete_keys=dels)
            if step == 3:
                plain.cleanup()
                fast.cleanup()
            queries = rng.integers(0, key_space + 50, 300, dtype=np.uint32)
            r0, r1 = plain.lookup(queries), fast.lookup(queries)
            assert np.array_equal(r0.found, r1.found)
            assert np.array_equal(r0.values[r0.found], r1.values[r1.found])
            k1 = rng.integers(0, key_space, 40, dtype=np.uint32)
            k2 = np.minimum(k1 + rng.integers(0, 100, 40).astype(np.uint32),
                            key_space + 20).astype(np.uint32)
            assert np.array_equal(plain.count(k1, k2), fast.count(k1, k2))
            rr0, rr1 = plain.range_query(k1, k2), fast.range_query(k1, k2)
            assert np.array_equal(rr0.offsets, rr1.offsets)
            assert np.array_equal(rr0.keys, rr1.keys)
            assert np.array_equal(rr0.values, rr1.values)

    def test_bloom_prunes_misses(self, device):
        lsm = GPULSM(
            config=LSMConfig(batch_size=16, bloom_bits_per_key=10), device=device
        )
        lsm.insert(np.arange(0, 32, 2, dtype=np.uint32),
                   np.arange(16, dtype=np.uint32))  # even keys, one level
        res = lsm.lookup(np.arange(1, 32, 2, dtype=np.uint32))  # odd: misses
        assert not res.found.any()
        stats = lsm.filter_stats()
        assert stats["bloom_pruned"] > 0
        assert stats["bloom_prune_rate"] > 0.8
        assert stats["filter_memory_bytes"] > 0

    def test_fences_skip_disjoint_ranges(self, device):
        lsm = GPULSM(
            config=LSMConfig(batch_size=16, enable_fences=True),
            device=device,
            key_only=True,
        )
        # Bulk build distributes contiguous key slices across two levels,
        # so each level's fence covers a disjoint key range.
        lsm.bulk_build(np.arange(48, dtype=np.uint32))
        assert lsm.num_occupied_levels == 2
        counts = lsm.count(np.array([0, 40]), np.array([5, 47]))
        assert counts.tolist() == [6, 8]
        stats = lsm.filter_stats()
        assert stats["range_fence_pruned"] > 0
        # Fence-pruned lookups on keys outside every level's range.
        res = lsm.lookup(np.array([100, 200], dtype=np.uint32))
        assert not res.found.any()
        assert lsm.filter_stats()["fence_pruned"] >= 2

    def test_sorted_probe_restores_request_order(self, device):
        lsm = GPULSM(
            config=LSMConfig(batch_size=16, sort_queries=True), device=device
        )
        keys = np.arange(16, dtype=np.uint32)
        lsm.insert(keys, keys * 10)
        queries = np.array([9, 2, 200, 5, 2], dtype=np.uint32)  # unsorted, dupes
        res = lsm.lookup(queries)
        assert res.found.tolist() == [True, True, False, True, True]
        assert res.values[res.found].tolist() == [90, 20, 50, 20]

    def test_filter_memory_counted_and_rebuilt_on_cleanup(self, device):
        lsm = GPULSM(
            config=LSMConfig(
                batch_size=16, enable_fences=True, bloom_bits_per_key=10
            ),
            device=device,
        )
        plain = GPULSM(config=LSMConfig(batch_size=16), device=Device(K40C_SPEC))
        keys = np.arange(32, dtype=np.uint32)
        for s in (slice(0, 16), slice(16, 32)):
            lsm.insert(keys[s], keys[s])
            plain.insert(keys[s], keys[s])
        assert lsm.filter_memory_bytes > 0
        assert (
            lsm.memory_usage_bytes
            == plain.memory_usage_bytes + lsm.filter_memory_bytes
        )
        lsm.delete(keys[:16])
        lsm.cleanup()
        # Every occupied level carries fresh filters after the rebuild.
        for level in lsm.occupied_levels():
            assert level.filters is not None and level.filters.bloom is not None
        res = lsm.lookup(keys)
        assert res.found.tolist() == [False] * 16 + [True] * 16

    def test_cleanup_padding_excluded_from_fences(self, device):
        lsm = GPULSM(
            config=LSMConfig(
                batch_size=16, enable_fences=True, bloom_bits_per_key=10
            ),
            device=device,
            key_only=True,
        )
        lsm.insert(np.arange(16, dtype=np.uint32))
        lsm.delete(np.arange(8, dtype=np.uint32))  # 8 survivors + padding
        stats = lsm.cleanup()
        assert stats["padding"] > 0
        (level,) = lsm.occupied_levels()
        # The fence max is the largest *real* key, not the placebo max_key.
        assert level.filters.max_key == 15
        # Genuine answers unaffected: survivors found, deleted keys not.
        assert not lsm.lookup(np.arange(8, dtype=np.uint32)).found.any()
        assert lsm.lookup(np.arange(8, 16, dtype=np.uint32)).found.all()

    def test_genuine_max_key_tombstone_stays_covered(self, device):
        max_key = (1 << 31) - 1
        lsm = GPULSM(
            config=LSMConfig(batch_size=4, bloom_bits_per_key=10),
            device=device,
            key_only=True,
        )
        lsm.insert(np.array([max_key, 1, 2, 3], dtype=np.uint32))
        lsm.delete(np.array([max_key, max_key, max_key, max_key], dtype=np.uint32))
        # The tombstone level's Bloom must cover max_key (word-identical to
        # a placebo, but it shadows the older regular copy below it).
        assert not bool(lsm.lookup(np.array([max_key], dtype=np.uint32)).found[0])

    def test_filters_off_attach_nothing(self, device):
        lsm = GPULSM(config=LSMConfig(batch_size=16), device=device)
        lsm.insert(np.arange(16, dtype=np.uint32), np.arange(16, dtype=np.uint32))
        assert all(lvl.filters is None for lvl in lsm.occupied_levels())
        assert lsm.filter_memory_bytes == 0
        assert lsm.filter_stats()["lookup_prune_rate"] == 0.0


# --------------------------------------------------------------------- #
# Hash once, probe once: properties and bounds of the host execution
# --------------------------------------------------------------------- #
key_lists = st.lists(st.integers(min_value=0, max_value=(1 << 31) - 1), max_size=64)


def _sized_bloom(num_keys, bits_per_key):
    """An empty filter sized as ``LevelFilters.build`` sizes a level's."""
    return BloomFilter(
        num_bits=max(64, num_keys * bits_per_key),
        num_hashes=derive_num_hashes(bits_per_key),
    )


class TestHashOnce:
    """The batch is hashed once; every level probes a subset of it."""

    @settings(max_examples=50, deadline=None)
    @given(
        built=key_lists,
        batch=key_lists,
        subset=st.lists(st.integers(min_value=0, max_value=63), max_size=80),
        bits_per_key=st.sampled_from([1, 10, 64]),
    )
    def test_prehashed_subset_equals_self_hashed(
        self, built, batch, subset, bits_per_key
    ):
        bloom = _sized_bloom(len(built), bits_per_key)
        bloom.add(np.array(built, dtype=np.uint32))
        q = np.array(batch, dtype=np.uint64)
        h1, h2 = BloomFilter.hash_keys(q)
        # Any subset, in any order, with repeats — as a level's pending
        # set is of the batch.
        s = np.array([i for i in subset if i < q.size], dtype=np.int64)
        devices = Device(K40C_SPEC, seed=1), Device(K40C_SPEC, seed=1)
        self_hashed = bloom.maybe_contains(q[s], device=devices[0])
        prehashed = bloom.maybe_contains(
            q[s], device=devices[1], hashes=(h1[s], h2[s])
        )
        assert np.array_equal(prehashed, self_hashed)
        assert devices[1].counter.per_kernel == devices[0].counter.per_kernel

    @settings(max_examples=50, deadline=None)
    @given(
        keys=key_lists,
        bits_per_key=st.integers(min_value=1, max_value=64),  # k up to 44
        dtype=st.sampled_from([np.uint32, np.uint64, np.int64]),
    )
    def test_no_false_negatives_for_any_hash_count(self, keys, bits_per_key, dtype):
        keys = np.array(keys, dtype=dtype)
        bloom = _sized_bloom(keys.size, bits_per_key)
        bloom.add(keys)
        assert bool(np.all(bloom.maybe_contains(keys)))
        flipped = keys[::-1]
        assert bool(
            np.all(bloom.maybe_contains(flipped, hashes=bloom.hash_keys(flipped)))
        )

    @settings(max_examples=25, deadline=None)
    @given(
        trace=st.lists(
            st.tuples(key_lists, key_lists, st.booleans()), min_size=1, max_size=5
        ),
        accel=st.sampled_from(ACCEL_MODES),
    )
    def test_every_lookup_pair_is_pruned_or_searched(self, trace, accel):
        lsm = GPULSM(
            config=LSMConfig(batch_size=16, **accel), device=Device(K40C_SPEC, seed=2)
        )
        for inserts, queries, cleanup in trace:
            keys = np.array(inserts[:16], dtype=np.uint32)
            if keys.size:
                lsm.update(insert_keys=keys, insert_values=keys)
            if cleanup:
                lsm.cleanup()
            lsm.lookup(np.array(queries, dtype=np.uint32))
            stats = lsm.filter_stats()
            assert stats["lookup_pairs"] == (
                stats["fence_pruned"] + stats["bloom_pruned"] + stats["searched"]
            )

    def test_build_transient_is_linear_not_k_times_n(self):
        # Two hashes, one reduced position vector and the byte scratch:
        # 35 B/key at 10 bits/key (57 when every probe index re-hashed).
        # A k × n position matrix and its reduction alone would be 112.
        keys = np.arange(1 << 19, dtype=np.uint32) * np.uint32(2654435761)
        tracemalloc.start()
        try:
            LevelFilters.build(
                keys, enable_fences=True, bloom_bits_per_key=10
            ).bloom.build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / keys.size <= 48

    @pytest.mark.parametrize(
        "make",
        [
            lambda accel: GPULSM(config=LSMConfig(batch_size=16, **accel)),
            lambda accel: ShardedLSM(
                num_shards=4, batch_size=16, key_domain=1 << 10, **accel
            ),
        ],
        ids=["gpulsm", "sharded4"],
    )
    @pytest.mark.parametrize(
        "accel", [dict(), dict(enable_fences=True, sort_queries=True)],
        ids=["plain", "fences+sorted"],
    )
    def test_store_without_bloom_never_hashes(self, monkeypatch, rng, make, accel):
        def hash_keys(keys):
            raise AssertionError("a store without Bloom filters hashed its keys")

        monkeypatch.setattr(BloomFilter, "hash_keys", staticmethod(hash_keys))
        store = make(accel)
        for _ in range(5):
            keys = rng.integers(0, 1 << 10, 16, dtype=np.uint32)
            store.update(insert_keys=keys[:12], insert_values=keys[:12],
                         delete_keys=keys[12:])
            store.lookup(rng.integers(0, 1 << 10, 64, dtype=np.uint32))
        store.cleanup()
        store.rollback_to(store.snapshot_state())
        assert store.lookup(keys[:12]).found.any()


# --------------------------------------------------------------------- #
# The stack above: sharded, planner (both knobs), engine telemetry
# --------------------------------------------------------------------- #
class TestFilterPropagation:
    def test_sharded_propagates_config_and_aggregates_stats(self, rng):
        sharded = ShardedLSM(
            num_shards=4,
            batch_size=64,
            key_domain=1 << 10,
            enable_fences=True,
            bloom_bits_per_key=10,
        )
        assert sharded.shard_config.bloom_bits_per_key == 10
        tuned = ShardedLSM(
            num_shards=2, batch_size=64, sort_queries=True,
            sorted_probe_cached_probes=5,
        )
        assert tuned.shard_config.sorted_probe_cached_probes == 5
        assert tuned.shard_config.sort_queries
        keys = rng.choice(1 << 10, size=64, replace=False).astype(np.uint32)
        sharded.insert(keys, keys)
        plain = ShardedLSM(num_shards=4, batch_size=64, key_domain=1 << 10)
        plain.insert(keys, keys)
        queries = rng.integers(0, 1 << 10, 200, dtype=np.uint32)
        r0, r1 = plain.lookup(queries), sharded.lookup(queries)
        assert np.array_equal(r0.found, r1.found)
        stats = sharded.filter_stats()
        assert stats["lookup_pairs"] > 0
        assert stats["filter_memory_bytes"] == sharded.filter_memory_bytes > 0

    @pytest.mark.parametrize("consistency", [Consistency.SNAPSHOT, Consistency.STRICT])
    def test_planner_uses_accelerated_path_under_both_knobs(self, rng, consistency):
        accel = KVStore(
            backend=GPULSM(
                config=LSMConfig(
                    batch_size=64, enable_fences=True, bloom_bits_per_key=10
                ),
                device=Device(K40C_SPEC, seed=3),
            )
        )
        plain = KVStore(
            backend=GPULSM(
                config=LSMConfig(batch_size=64), device=Device(K40C_SPEC, seed=4)
            )
        )
        keys = rng.choice(500, size=48, replace=False).astype(np.uint64)
        seed_tick = OpBatch.inserts(keys, keys * 2)
        tick = OpBatch.concat(
            [
                OpBatch.lookups(np.concatenate([keys[:8], keys[:8] + 500])),
                OpBatch.deletes(keys[:4]),
                OpBatch.counts(np.array([0]), np.array([499])),
                OpBatch.inserts(keys[:2] + 501, keys[:2]),
            ]
        )
        accel.apply(seed_tick, consistency=consistency)
        plain.apply(seed_tick, consistency=consistency)
        r_accel = accel.apply(tick, consistency=consistency)
        r_plain = plain.apply(tick, consistency=consistency)
        assert np.array_equal(r_accel.found, r_plain.found)
        assert np.array_equal(r_accel.counts, r_plain.counts)
        # The accelerated backend consulted its filters during the tick.
        assert accel.engine.backend.filter_stats()["lookup_pairs"] > 0

    def test_engine_stats_report_filter_rates(self):
        backend = GPULSM(
            config=LSMConfig(batch_size=32, bloom_bits_per_key=10),
            device=Device(K40C_SPEC, seed=9),
        )
        engine = Engine(backend)
        keys = np.arange(0, 64, 2, dtype=np.uint64)
        engine.apply(OpBatch.inserts(keys, keys))
        engine.apply(OpBatch.lookups(keys + 1))  # all misses
        stats = engine.stats()
        assert stats.backend_filters is not None
        assert stats.backend_filters["bloom_prune_rate"] > 0.5
        assert stats.summary_rows()[0]["filter_prune_rate"] > 0.5

    def test_engine_stats_without_filter_backend(self):
        class Bare:
            pass

        engine = Engine(Bare())
        assert engine.stats().backend_filters is None
