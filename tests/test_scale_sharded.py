"""ShardedLSM correctness against the sequential semantics oracle.

The Hypothesis property test drives a :class:`ShardedLSM` and the
:class:`ReferenceDictionary` with identical mixed insert/delete traces —
interleaved with cleanups — across 1, 2 and 8 shards, checking
lookup/count/range agreement after every batch.  Because the front-end
canonicalises each batch before routing, the sharded dictionary must obey
exactly the batch semantics of Section III-A, shard boundaries included.
"""

import cProfile
import pstats
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.wallclock import make_prefill
from repro.bench.workloads import MixedOpConfig, make_mixed_batches
from repro.core.lsm import GPULSM
from repro.core.semantics import BatchOp, ReferenceDictionary
from repro.gpu.device import Device
from repro.gpu.spec import K40C_SPEC
from repro.scale import ShardedLSM
from repro.serve.engine import Engine

KEY_SPACE = 64
BATCH = 16

key_strategy = st.integers(min_value=0, max_value=KEY_SPACE - 1)
value_strategy = st.integers(min_value=0, max_value=1000)
pair_strategy = st.tuples(key_strategy, value_strategy)
batch_strategy = st.tuples(
    st.lists(pair_strategy, max_size=6),
    st.lists(key_strategy, max_size=6),
    st.booleans(),  # run cleanup after this batch?
).filter(lambda t: len(t[0]) + len(t[1]) >= 1)
trace_strategy = st.lists(batch_strategy, min_size=1, max_size=8)


def apply_and_compare(num_shards, trace):
    sharded = ShardedLSM(
        num_shards=num_shards,
        batch_size=BATCH,
        key_domain=KEY_SPACE,
        validate_invariants=True,
    )
    ref = ReferenceDictionary()
    all_keys = np.arange(KEY_SPACE, dtype=np.uint32)
    k1 = np.array([0, KEY_SPACE // 2, 10, 7], dtype=np.uint32)
    k2 = np.array([KEY_SPACE - 1, KEY_SPACE - 1, 20, 7], dtype=np.uint32)

    for inserts, deletes, do_cleanup in trace:
        ins_keys = np.array([k for k, _ in inserts], dtype=np.uint32)
        ins_vals = np.array([v for _, v in inserts], dtype=np.uint32)
        del_keys = np.array(deletes, dtype=np.uint32)
        sharded.update(
            insert_keys=ins_keys if ins_keys.size else None,
            insert_values=ins_vals if ins_keys.size else None,
            delete_keys=del_keys if del_keys.size else None,
        )
        ops = [BatchOp(False, int(k), int(v)) for k, v in inserts]
        ops += [BatchOp(True, int(k)) for k in deletes]
        ref.apply_batch(ops)
        if do_cleanup:
            sharded.cleanup()

        # Lookup agreement over the whole keyspace.
        res = sharded.lookup(all_keys)
        expected = ref.lookup(all_keys.tolist())
        for i, exp in enumerate(expected):
            if exp is None:
                assert not res.found[i]
            else:
                assert res.found[i] and int(res.values[i]) == exp

        # Count and range agreement, including a single-key range.
        counts = sharded.count(k1, k2)
        rr = sharded.range_query(k1, k2)
        for i in range(k1.size):
            expected_pairs = ref.range_query(int(k1[i]), int(k2[i]))
            assert counts[i] == len(expected_pairs)
            keys_i, vals_i = rr.query_slice(i)
            got = [(int(k), int(v)) for k, v in zip(keys_i, vals_i)]
            assert got == expected_pairs


@pytest.mark.parametrize("num_shards", [1, 2, 8])
class TestShardedAgainstOracle:
    @settings(max_examples=12, deadline=None)
    @given(trace=trace_strategy)
    def test_mixed_traces_match_oracle(self, num_shards, trace):
        apply_and_compare(num_shards, trace)


class TestShardedMechanics:
    def test_shard_ranges_cover_the_domain(self):
        sharded = ShardedLSM(num_shards=8, batch_size=16, key_domain=100)
        lo0, _ = sharded.shard_range(0)
        assert lo0 == 0
        previous_hi = -1
        for s in range(8):
            lo, hi = sharded.shard_range(s)
            assert lo == previous_hi + 1
            previous_hi = hi
        assert previous_hi == 99

    def test_boundary_keys_route_consistently(self):
        sharded = ShardedLSM(num_shards=4, batch_size=16, key_domain=64)
        boundary = np.array([0, 15, 16, 31, 32, 47, 48, 63], dtype=np.uint32)
        sharded.insert(boundary, boundary * 2)
        res = sharded.lookup(boundary)
        assert res.found.all()
        assert np.array_equal(res.values, boundary * 2)
        # Each consecutive pair landed in its own shard.
        assert all(s.num_elements > 0 for s in sharded.shards)

    def test_skewed_batch_chunks_through_small_shard_batches(self):
        # All keys hash to shard 0; its segment (12 ops) exceeds the
        # shard batch size (2) and must be applied in chunks.
        sharded = ShardedLSM(
            num_shards=8, batch_size=16, shard_batch_size=2, key_domain=1 << 20
        )
        keys = np.arange(12, dtype=np.uint32)
        sharded.insert(keys, keys + 100)
        res = sharded.lookup(keys)
        assert res.found.all()
        assert np.array_equal(res.values, keys + 100)
        assert sharded.shards[0].num_elements > 0
        assert all(s.num_elements == 0 for s in sharded.shards[1:])

    def test_bulk_build_routes_across_shards(self):
        sharded = ShardedLSM(num_shards=4, batch_size=16, key_domain=1000)
        keys = np.arange(0, 1000, 7, dtype=np.uint32)
        sharded.bulk_build(keys, keys * 3)
        assert int(sharded.count(np.array([0]), np.array([999]))[0]) == keys.size
        res = sharded.lookup(keys)
        assert res.found.all() and np.array_equal(res.values, keys * 3)

    def test_out_of_domain_insert_rejected(self):
        sharded = ShardedLSM(num_shards=2, batch_size=8, key_domain=100)
        with pytest.raises(ValueError, match="sharded key domain"):
            sharded.insert(np.array([100], dtype=np.uint32), np.array([1], dtype=np.uint32))

    def test_negative_lookup_key_rejected_with_clear_error(self):
        sharded = ShardedLSM(num_shards=2, batch_size=8, key_domain=100)
        # Negative keys get their own message now (they used to be lumped
        # into the upper-domain error, which was misleading).
        with pytest.raises(ValueError, match="non-negative"):
            sharded.lookup(np.array([-1], dtype=np.int64))

    def test_out_of_domain_lookup_is_not_found(self):
        sharded = ShardedLSM(num_shards=2, batch_size=8, key_domain=100)
        sharded.insert(np.array([5], dtype=np.uint32), np.array([50], dtype=np.uint32))
        assert not sharded.lookup(np.array([5000], dtype=np.uint32)).found[0]

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="num_shards"):
            ShardedLSM(num_shards=0)
        with pytest.raises(ValueError, match="num_shards"):
            ShardedLSM(num_shards=33)

    def test_oversized_batch_rejected(self):
        sharded = ShardedLSM(num_shards=2, batch_size=8, key_domain=100)
        with pytest.raises(ValueError, match="split the work"):
            sharded.insert(
                np.arange(9, dtype=np.uint32), np.arange(9, dtype=np.uint32)
            )

    def test_profile_aggregates_devices(self):
        sharded = ShardedLSM(num_shards=4, batch_size=16, key_domain=1 << 16)
        keys = np.random.default_rng(0).integers(0, 1 << 16, 16, dtype=np.uint32)
        sharded.insert(keys, keys)
        profile = sharded.profile()
        assert profile["router_seconds"] > 0
        assert len(profile["shard_seconds"]) == 4
        assert profile["serial_seconds"] >= profile["parallel_seconds"]
        assert profile["parallel_seconds"] >= profile["router_seconds"]
        stats = sharded.shard_stats()
        assert sum(s["total_insertions"] for s in stats) == sharded.total_insertions
        sharded.reset_counters()
        assert sharded.profile()["serial_seconds"] == 0.0

    def test_key_only_mode(self):
        sharded = ShardedLSM(num_shards=2, batch_size=8, key_only=True, key_domain=64)
        sharded.insert(np.array([1, 40, 63], dtype=np.uint32))
        res = sharded.lookup(np.array([1, 2, 63], dtype=np.uint32))
        assert res.values is None
        assert list(res.found) == [True, False, True]
        with pytest.raises(ValueError, match="no values"):
            sharded.insert(np.array([1], dtype=np.uint32), np.array([1], dtype=np.uint32))


class TestRoutingArithmetic:
    """Routing is one ``searchsorted`` on the boundary array.  On the
    initial fixed-width bounds it must agree with the closed-form division
    it replaced — ``min(key // shard_width, num_shards - 1)`` — for every
    in-domain key.  Out-of-domain *query* keys may land on another shard
    under the two arithmetics, so for them the property is on answers:
    never found, and counted by no range."""

    @settings(max_examples=150, deadline=None)
    @given(
        num_shards=st.integers(min_value=1, max_value=32),
        key_domain=st.integers(min_value=1, max_value=1 << 31),
        fractions=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=32
        ),
    )
    def test_searchsorted_matches_fixed_width_division(
        self, num_shards, key_domain, fractions
    ):
        sharded = ShardedLSM(
            num_shards=num_shards, batch_size=64, key_domain=key_domain
        )
        width = -(-key_domain // num_shards)
        # Drawn keys plus every shard boundary and its two neighbours.
        edges = np.arange(num_shards + 1, dtype=np.int64) * width
        keys = np.concatenate([
            (np.asarray(fractions) * (key_domain - 1)).astype(np.int64),
            edges - 1, edges, edges + 1,
        ])
        keys = np.unique(keys[(keys >= 0) & (keys < key_domain)])
        division = np.minimum(keys // width, num_shards - 1)
        assert np.array_equal(sharded._shard_ids(keys), division)
        for s in np.unique(division):
            lo, hi = sharded.shard_range(int(s))
            mine = keys[division == s]
            assert lo <= mine.min() and mine.max() <= hi

    @settings(max_examples=60, deadline=None)
    @given(
        num_shards=st.integers(min_value=1, max_value=8),
        key_domain=st.integers(min_value=1, max_value=200),
        stored=st.lists(st.integers(0, 199), max_size=24),
        beyond=st.lists(st.integers(0, 400), min_size=1, max_size=8),
    )
    def test_out_of_domain_queries_answer_the_same_on_any_shard(
        self, num_shards, key_domain, stored, beyond
    ):
        sharded = ShardedLSM(
            num_shards=num_shards, batch_size=64, key_domain=key_domain
        )
        stored = np.unique([k for k in stored if k < key_domain]).astype(np.uint32)
        if stored.size:
            sharded.insert(stored, stored)
        outside = np.asarray(beyond, dtype=np.uint32) + key_domain
        assert not sharded.lookup(outside).found.any()
        # A range reaching past the domain counts exactly the stored keys
        # at or above its lower end, wherever its upper end routes.
        k1 = np.minimum(np.asarray(beyond, dtype=np.uint32), key_domain - 1)
        expected = [(stored >= lo).sum() for lo in k1]
        assert sharded.count(k1, outside).tolist() == expected
        assert np.diff(sharded.range_query(k1, outside).offsets).tolist() == expected


class TestOnePassBudgets:
    """What routing through four shards may cost over one store, asserted
    without a stopwatch: Python-level calls (``cProfile``) and peak working
    memory (``tracemalloc``)."""

    @staticmethod
    def calls_per_run(backend, batches):
        for keys, values in make_prefill(4096, 7):
            backend.insert(keys, values)
        engine = Engine(backend)
        profile = cProfile.Profile()
        profile.enable()
        for batch in batches:
            engine.apply(batch)
        profile.disable()
        engine.close()
        return pstats.Stats(profile).total_calls

    def test_sharded_tick_stays_within_its_call_budget(self):
        """16 fixed mixed ticks through ``ShardedLSM(4, 4096)`` and through
        ``GPULSM(4096)``: the front-end orders a batch once and hands the
        shards slices of it, so a sharded tick makes at most 2.8x the calls
        of an unsharded one (measured 2.6; 3.9 when every shard's public
        ``count`` / ``range_query`` / ``lookup`` / ``update`` re-validated,
        re-ordered and re-encoded its sub-batch).  A per-shard public call
        coming back reads well above the bound, whatever the box."""
        batches = make_mixed_batches(
            MixedOpConfig(num_ops=16 * 4096, tick_size=4096, seed=7, expected_range_width=8)
        )
        sharded = self.calls_per_run(ShardedLSM(4, batch_size=4096, seed=1), batches)
        single = self.calls_per_run(
            GPULSM(batch_size=4096, device=Device(K40C_SPEC, seed=1)), batches
        )
        assert sharded / single <= 2.8, f"{sharded} / {single} = {sharded / single:.2f}"

    @pytest.mark.parametrize("operation", ["count", "range_query"])
    def test_whole_domain_query_peaks_at_one_shards_working_set(self, operation):
        """One query over the whole domain gathers every resident element.
        The pass post-processes its segments a block at a time, so over
        four shards it peaks no higher than the largest shard answering
        alone, plus the output rows and a fixed slack — not at the sum."""
        sharded = ShardedLSM(4, batch_size=1 << 15, seed=1, key_domain=1 << 20)
        keys = np.random.default_rng(5).permutation(1 << 20)[: 1 << 19].astype(np.uint32)
        sharded.bulk_build(keys, keys)
        whole = np.zeros(1, dtype=np.uint64), np.array([(1 << 20) - 1], dtype=np.uint64)

        def peak_of(call):
            tracemalloc.start()
            try:
                result = call()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone = 0
        for s, shard in enumerate(sharded.shards):
            lo, hi = sharded.shard_range(s)
            bounds = np.array([lo], dtype=np.uint64), np.array([hi], dtype=np.uint64)
            alone = max(alone, peak_of(lambda: getattr(shard, operation)(*bounds))[1])
        result, together = peak_of(lambda: getattr(sharded, operation)(*whole))
        rows = 0 if operation == "count" else result.keys.nbytes + result.values.nbytes
        assert (result[0] if operation == "count" else result.keys.size) == keys.size
        assert together <= alone + rows + (1 << 20), (together, alone, rows)
