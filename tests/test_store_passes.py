"""One pass per store: the lookup prune and COUNT/RANGE stage 1 against the
per-(store, level) loops they replaced, kept here as references.

* ``reference_prune_lookup_pending`` — the mask-based prune: a fence mask
  over the gathered pending keys, then every level's Bloom probe hashed
  from the gathered ``(h1, h2)``.  The prune now slices the sorted pending
  keys between two binary searches and hands the filter the pending
  columns of the batch's probe positions, computed once.
* ``reference_search_levels`` — stage 1 one (store, level) step at a time:
  a fence-overlap mask, ``flatnonzero`` and a gather for every fenced
  level.  It now tests a store's fences once as a ``level × pair`` matrix
  and searches the store's slice as it is wherever no pair was pruned.

A Hypothesis property runs the same script of updates, cleanups (with
their trailing padding placebos), lookups (keys equal to every level's
fences, duplicates, keys past the domain) and COUNT / RANGE queries (bounds
on the fences, stores with no level) twice — on ``GPULSM`` and
``ShardedLSM``, fences and Bloom filters each on or off, key-only and
key-value, with the probe block at its size or shrunk so batches span
several — and compares the answers, ``filter_stats()``, every device's
ordered launch log and clock.  A deterministic test does the same for a
lookup larger than the real probe block.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.filters as filters_mod
import repro.core.lsm as lsm_mod
import repro.scale.sharded as sharded_mod
from repro.core import ranges
from repro.core.config import LSMConfig
from repro.core.lsm import GPULSM
from repro.primitives.search import record_search
from repro.scale import ShardedLSM


# ---------------------------------------------------------------------- #
# References
# ---------------------------------------------------------------------- #
def fence_mask(filters, keys):
    """Per-key mask of ``min_key <= key <= max_key`` (None = no fences)."""
    if not filters.has_fences:
        return None
    k = np.asarray(keys).astype(np.int64)
    return (k >= filters.min_key) & (k <= filters.max_key)


def fence_overlap(filters, k1, k2):
    """Per-range mask of ``[k1, k2] ∩ [min_key, max_key] ≠ ∅``."""
    lo = np.asarray(k1).astype(np.int64)
    hi = np.asarray(k2).astype(np.int64)
    return (hi >= filters.min_key) & (lo <= filters.max_key)


def reference_prune_lookup_pending(self, level, query_keys, pending, hashes, positions):
    """The prune as a fence mask and a gather of the hashes: ``positions``
    is ignored, every Bloom probe hashes from ``h1[pending]`` and
    ``h2[pending]``."""
    stats = self._filter_stats
    stats.lookup_pairs += int(pending.size)
    filters = level.filters
    q = query_keys[pending]
    if filters is None:
        return pending

    in_fence = fence_mask(filters, q)
    if in_fence is not None:
        self.device.record_kernel(
            "lsm.lookup.fence",
            coalesced_read_bytes=q.nbytes,
            coalesced_write_bytes=int(pending.size),
            work_items=int(pending.size),
            launches=0,
        )
        stats.fence_pruned += int(pending.size - np.count_nonzero(in_fence))
        pending = pending[in_fence]
        q = q[in_fence]
    if filters.bloom is not None and pending.size:
        h1, h2 = hashes
        maybe = filters.bloom.maybe_contains(
            q,
            device=self.device,
            kernel_name="lsm.lookup.bloom",
            hashes=(h1[pending], h2[pending]),
        )
        stats.bloom_pruned += int(pending.size - np.count_nonzero(maybe))
        pending = pending[maybe]
    return pending


def reference_search_levels(config, groups, group_levels, depth, k1, k2):
    """Stage 1 one (store, level) step at a time: per fenced level an
    overlap mask, its ``flatnonzero`` and a gather of the probes."""
    key_bytes = config.key_dtype.itemsize
    lower_probes = config.encoder.lower_probe(k1)
    upper_probes = config.encoder.upper_probe(k2)
    bounds = np.zeros((2, depth, k1.size), dtype=np.int64)
    for (lsm, start, stop), levels in zip(groups, group_levels):
        device, stats, pairs = lsm.device, lsm._filter_stats, stop - start
        for j, level in enumerate(levels):
            stats.range_pairs += pairs
            idx, searched = slice(start, stop), pairs
            if level.filters is not None and level.filters.has_fences:
                device.record_kernel(
                    "lsm.query.fence",
                    coalesced_read_bytes=pairs * (k1.itemsize + k2.itemsize),
                    coalesced_write_bytes=pairs,
                    work_items=pairs,
                    launches=0,
                )
                idx = np.flatnonzero(
                    fence_overlap(level.filters, k1[start:stop], k2[start:stop])
                )
                idx += start
                searched = int(idx.size)
                stats.range_fence_pruned += pairs - searched
                if searched == 0:
                    continue
            level_keys = level.keys
            bounds[0, j, idx] = level_keys.searchsorted(lower_probes[idx], "left")
            bounds[1, j, idx] = level_keys.searchsorted(upper_probes[idx], "right")
            for name in ("lsm.query.lower_bound", "lsm.query.upper_bound"):
                record_search(device, name, searched, key_bytes, level_keys.size)
    return bounds


# ---------------------------------------------------------------------- #
# Running a script both ways
# ---------------------------------------------------------------------- #
def stores_of(store):
    return getattr(store, "shards", None) or [store]


def devices_of(store):
    shards = getattr(store, "shards", None)
    if shards is None:
        return [store.device]
    return [store.router_device] + [shard.device for shard in shards]


def fence_keys(store):
    """Every occupied level's smallest and largest original key (its fence
    pair, trailing padding placebos aside, when it has one)."""
    keys = []
    for shard in stores_of(store):
        for level in shard.occupied_levels():
            if level.filters is not None and level.filters.has_fences:
                keys += [level.filters.min_key, level.filters.max_key]
            else:
                original = shard.encoder.decode_key(level.keys)
                keys += [int(original[0]), int(original[-1])]
    return keys


def make_store(shape, recording_class):
    kind, key_only, fences, bloom_bits, sort_queries = shape
    accel = dict(enable_fences=fences, bloom_bits_per_key=bloom_bits, sort_queries=sort_queries)
    if kind == "gpulsm":
        return GPULSM(
            config=LSMConfig(batch_size=16, **accel),
            device=recording_class(seed=1), key_only=key_only,
        )
    return ShardedLSM(
        4, batch_size=16, key_only=key_only, key_domain=KEY_DOMAIN, seed=1, **accel
    )


KEY_DOMAIN = 256


def run_script(shape, steps, block, reference, recording_class):
    """Run ``steps`` on a fresh store through the references or the
    store's own passes; returns the answers and everything observable."""
    with pytest.MonkeyPatch.context() as patch:
        # Every device a sharded store makes notes its launches too.
        patch.setattr(sharded_mod, "Device", recording_class)
        if block is not None:
            patch.setattr(filters_mod, "_PROBE_BLOCK", block)
            patch.setattr(lsm_mod, "_PROBE_BLOCK", block)
        if reference:
            patch.setattr(GPULSM, "_prune_lookup_pending", reference_prune_lookup_pending)
            patch.setattr(ranges, "search_levels", reference_search_levels)
        store = make_store(shape, recording_class)
        key_only, answers = shape[1], []
        for kind, seed in steps:
            rng = np.random.default_rng(seed)
            if kind == "update":
                keys = rng.integers(0, KEY_DOMAIN, rng.integers(1, 17)).astype(np.uint32)
                cut = int(rng.integers(0, keys.size + 1))
                ins, dels = keys[:cut], keys[cut:]
                store.update(
                    insert_keys=ins if ins.size else None,
                    insert_values=None if key_only or not ins.size else ins * np.uint32(7),
                    delete_keys=dels if dels.size else None,
                )
            elif kind == "cleanup":
                store.cleanup()
            elif kind == "lookup":
                # Fence keys and their neighbours, twice each, plus misses.
                fences = np.array(fence_keys(store), dtype=np.int64)
                near = np.concatenate([fences - 1, fences, fences + 1, fences])
                queries = np.concatenate([
                    near[(near >= 0) & (near < KEY_DOMAIN)],
                    rng.integers(0, KEY_DOMAIN + 64, rng.integers(1, 24)),
                ]).astype(np.uint64 if seed % 2 else np.uint32)
                res = store.lookup(queries)
                answers.append((res.found, res.values))
            else:
                fences = fence_keys(store) or [0]
                n = int(rng.integers(1, 12))
                k1 = rng.integers(0, KEY_DOMAIN, n)
                k1[: len(fences)] = fences[:n]
                width = rng.integers(0, 4 if seed % 2 else KEY_DOMAIN, n)
                k2 = np.maximum(k1, np.minimum(k1 + width, KEY_DOMAIN - 1))
                if n > 1:
                    k2[-1] = fences[-1]
                    k1[-1] = min(k1[-1], k2[-1])
                k1, k2 = k1.astype(np.uint32), k2.astype(np.uint32)
                if kind == "count":
                    answers.append((store.count(k1, k2),))
                else:
                    rr = store.range_query(k1, k2)
                    answers.append((rr.offsets, rr.keys, rr.values))
        devices = devices_of(store)
        return answers, (
            store.filter_stats(),
            [device.launches for device in devices],
            [device.simulated_seconds.hex() for device in devices],
        )


def assert_same_answers(got, want):
    assert len(got) == len(want)
    for got_columns, want_columns in zip(got, want):
        for got_column, want_column in zip(got_columns, want_columns):
            if want_column is None:
                assert got_column is None
            else:
                assert np.array_equal(got_column, want_column)
                assert got_column.dtype == want_column.dtype


shapes = st.tuples(
    st.sampled_from(["gpulsm", "sharded"]),
    st.booleans(),                       # key_only
    st.booleans(),                       # fences
    st.sampled_from([0, 10]),            # Bloom bits per key
    st.booleans(),                       # sort_queries
)
steps = st.lists(
    st.tuples(
        st.sampled_from(["update", "update", "cleanup", "lookup", "count", "range"]),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1, max_size=10,
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=shapes, steps=steps, block=st.sampled_from([None, 1, 3]))
def test_one_pass_per_store_equals_the_per_level_loops(
    recording_device, shape, steps, block
):
    """Queries may come before any update (a store, or a shard, with no
    level) and after cleanups that pad their last level with placebos;
    ``block`` shrinks the probe block so lookups span several blocks and
    take the per-level hashing the large batches use."""
    recording_class = type(recording_device())
    want_answers, want = run_script(shape, steps, block, True, recording_class)
    got_answers, got = run_script(shape, steps, block, False, recording_class)
    assert_same_answers(got_answers, want_answers)
    assert got == want


@pytest.mark.parametrize("kind", ["gpulsm", "sharded"])
def test_a_lookup_larger_than_a_probe_block_equals_the_mask_based_prune(
    recording_device, kind
):
    """More queries than ``_PROBE_BLOCK``: the lookup hashes its batch
    once and every filter probes it block by block, as the mask-based
    prune did."""
    recording_class = type(recording_device())
    results = []
    for reference in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sharded_mod, "Device", recording_class)
            if reference:
                patch.setattr(GPULSM, "_prune_lookup_pending", reference_prune_lookup_pending)
            accel = dict(enable_fences=True, bloom_bits_per_key=10)
            if kind == "gpulsm":
                store = GPULSM(config=LSMConfig(batch_size=1024, **accel),
                               device=recording_class(seed=1))
            else:
                store = ShardedLSM(4, batch_size=1024, seed=1, **accel)
            rng = np.random.default_rng(5)
            for _ in range(5):
                keys = rng.integers(0, 1 << 20, 1024).astype(np.uint32)
                store.insert(keys, keys)
            queries = np.concatenate([
                rng.integers(0, 1 << 21, filters_mod._PROBE_BLOCK + 500), keys[:300]
            ]).astype(np.uint32)
            res = store.lookup(queries)
            devices = devices_of(store)
            results.append((
                res.found, res.values, store.filter_stats(),
                [device.launches for device in devices],
                [device.simulated_seconds.hex() for device in devices],
            ))
    want, got = results
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2:] == want[2:]
