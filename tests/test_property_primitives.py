"""Property-based tests (Hypothesis) for the GPU primitives.

These check the algebraic properties the data structures rely on —
permutation, stability, ordering, scan/reduce identities — over arbitrary
inputs rather than hand-picked cases.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpu.device import Device
from repro.gpu.spec import K40C_SPEC
from repro.primitives.compact import compact
from repro.primitives.merge import merge_keys, merge_pairs
from repro.primitives.multisplit import multisplit_keys
from repro.primitives.radix_sort import radix_sort_keys, radix_sort_pairs
from repro.primitives.scan import exclusive_scan
from repro.primitives.search import lower_bound, upper_bound
from repro.primitives.segmented_sort import segmented_sort_keys

SETTINGS = settings(max_examples=40, deadline=None)

uint32_arrays = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), min_size=0, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.uint32))

small_key_arrays = st.lists(
    st.integers(min_value=0, max_value=63), min_size=0, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.uint32))


def _dev():
    return Device(K40C_SPEC, seed=0)


class TestRadixSortProperties:
    @SETTINGS
    @given(keys=uint32_arrays)
    def test_output_is_sorted_permutation(self, keys):
        out = radix_sort_keys(keys, device=_dev())
        assert np.array_equal(np.sort(keys), out)

    @SETTINGS
    @given(keys=small_key_arrays)
    def test_pairs_stability(self, keys):
        values = np.arange(keys.size, dtype=np.uint32)
        out_k, out_v = radix_sort_pairs(keys, values, device=_dev())
        expected_order = np.argsort(keys, kind="stable")
        assert np.array_equal(out_v, values[expected_order])
        assert np.array_equal(out_k, keys[expected_order])

    @SETTINGS
    @given(keys=uint32_arrays)
    def test_idempotent(self, keys):
        dev = _dev()
        once = radix_sort_keys(keys, device=dev)
        twice = radix_sort_keys(once, device=dev)
        assert np.array_equal(once, twice)


class TestMergeProperties:
    @SETTINGS
    @given(a=uint32_arrays, b=uint32_arrays)
    def test_merge_is_sorted_union(self, a, b):
        a = np.sort(a)
        b = np.sort(b)
        out = merge_keys(a, b, device=_dev())
        assert np.array_equal(out, np.sort(np.concatenate([a, b])))

    @SETTINGS
    @given(a=small_key_arrays, b=small_key_arrays)
    def test_merge_ties_prefer_a(self, a, b):
        a = np.sort(a)
        b = np.sort(b)
        a_vals = np.zeros(a.size, dtype=np.uint32)        # tag A with 0
        b_vals = np.ones(b.size, dtype=np.uint32)         # tag B with 1
        out_k, out_v = merge_pairs(a, a_vals, b, b_vals, device=_dev())
        # For every run of equal keys, all A-tagged elements precede B-tagged.
        for key in np.unique(out_k):
            tags = out_v[out_k == key]
            assert np.all(np.diff(tags.astype(np.int64)) >= 0)

    @SETTINGS
    @given(a=uint32_arrays)
    def test_merge_with_empty_is_identity(self, a):
        a = np.sort(a)
        empty = np.zeros(0, dtype=np.uint32)
        assert np.array_equal(merge_keys(a, empty, device=_dev()), a)
        assert np.array_equal(merge_keys(empty, a, device=_dev()), a)


class TestScanProperties:
    @SETTINGS
    @given(vals=st.lists(st.integers(min_value=0, max_value=1000),
                         min_size=0, max_size=300))
    def test_exclusive_scan_defining_property(self, vals):
        vals = np.asarray(vals, dtype=np.int64)
        scanned, total = exclusive_scan(vals, device=_dev())
        assert total == vals.sum()
        for i in range(vals.size):
            assert scanned[i] == vals[:i].sum()


class TestSearchProperties:
    @SETTINGS
    @given(hay=uint32_arrays, queries=uint32_arrays)
    def test_bound_definitions(self, hay, queries):
        hay = np.sort(hay)
        dev = _dev()
        lo = lower_bound(hay, queries, device=dev)
        hi = upper_bound(hay, queries, device=dev)
        for q, l, h in zip(queries, lo, hi):
            assert np.all(hay[:l] < q)
            assert np.all(hay[l:] >= q)
            assert np.all(hay[:h] <= q)
            assert np.all(hay[h:] > q)
            assert h - l == np.count_nonzero(hay == q)


class TestCompactMultisplitProperties:
    @SETTINGS
    @given(vals=uint32_arrays, flag_seed=st.integers(min_value=0, max_value=10**6))
    def test_compact_preserves_selected_subsequence(self, vals, flag_seed):
        rng = np.random.default_rng(flag_seed)
        flags = rng.random(vals.size) < 0.5
        out = compact(vals, flags, device=_dev())
        assert np.array_equal(out, vals[flags])

    @SETTINGS
    @given(keys=small_key_arrays, buckets=st.integers(min_value=1, max_value=8))
    def test_multisplit_is_stable_partition(self, keys, buckets):
        reordered, offsets = multisplit_keys(
            keys, lambda k: (k % buckets).astype(np.int64), num_buckets=buckets,
            device=_dev(),
        )
        assert offsets[-1] == keys.size
        for bucket in range(buckets):
            segment = reordered[offsets[bucket]:offsets[bucket + 1]]
            expected = keys[keys % buckets == bucket]
            assert np.array_equal(segment, expected)

    @SETTINGS
    @given(keys=small_key_arrays, num_segments=st.integers(min_value=1, max_value=4))
    def test_segmented_sort_sorts_each_segment(self, keys, num_segments):
        bounds = np.linspace(0, keys.size, num_segments + 1).astype(np.int64)[:-1]
        out = segmented_sort_keys(keys, bounds, device=_dev())
        ends = np.concatenate([bounds[1:], [keys.size]])
        for s, e in zip(bounds, ends):
            assert np.array_equal(out[s:e], np.sort(keys[s:e]))
        # Globally, the output is a permutation of the input.
        assert np.array_equal(np.sort(out), np.sort(keys))
