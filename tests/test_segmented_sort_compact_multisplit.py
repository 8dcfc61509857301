"""Unit tests for segmented sort, compaction and multisplit primitives."""

import numpy as np
import pytest

from repro.primitives.compact import compact, segmented_compact
from repro.primitives.histogram import block_histograms, digit_histogram
from repro.primitives.multisplit import multisplit_keys, multisplit_pairs
from repro.primitives.segmented_sort import segmented_sort_keys, segmented_sort_pairs


class TestSegmentedSort:
    def test_each_segment_sorted_independently(self, device):
        keys = np.array([5, 1, 9, 8, 2, 7, 3], dtype=np.uint32)
        offsets = np.array([0, 3, 5])
        out = segmented_sort_keys(keys, offsets, device=device)
        assert list(out) == [1, 5, 9, 2, 8, 3, 7]

    def test_stability_within_segment(self, device):
        # Words 4 and 5 share the original key 2 (after >>1); stable sort
        # must keep 4 (earlier) before 5.
        keys = np.array([5, 4, 2], dtype=np.uint32)
        out = segmented_sort_keys(keys, np.array([0]), key=lambda k: k >> 1,
                                  device=device)
        assert list(out) == [2, 5, 4]

    def test_pairs_follow_keys(self, device, rng):
        keys = rng.integers(0, 100, 64, dtype=np.uint32)
        values = np.arange(64, dtype=np.uint32)
        offsets = np.array([0, 20, 40])
        out_k, out_v = segmented_sort_pairs(keys, values, offsets, device=device)
        for s, e in ((0, 20), (20, 40), (40, 64)):
            order = np.argsort(keys[s:e], kind="stable")
            assert np.array_equal(out_k[s:e], keys[s:e][order])
            assert np.array_equal(out_v[s:e], values[s:e][order])

    def test_empty_input(self, device):
        out = segmented_sort_keys(np.zeros(0, dtype=np.uint32), np.zeros(0),
                                  device=device)
        assert out.size == 0

    def test_empty_segments_allowed(self, device):
        keys = np.array([3, 1], dtype=np.uint32)
        offsets = np.array([0, 0, 2, 2])
        out = segmented_sort_keys(keys, offsets, device=device)
        assert list(out) == [1, 3]

    def test_rejects_bad_offsets(self, device):
        with pytest.raises(ValueError):
            segmented_sort_keys(np.array([1], dtype=np.uint32), np.array([1]),
                                device=device)


class TestCompact:
    def test_keeps_flagged_elements_in_order(self, device):
        vals = np.arange(10, dtype=np.uint32)
        flags = vals % 3 == 0
        out = compact(vals, flags, device=device)
        assert list(out) == [0, 3, 6, 9]

    def test_all_false(self, device):
        out = compact(np.arange(5, dtype=np.uint32), np.zeros(5, dtype=bool),
                      device=device)
        assert out.size == 0

    def test_all_true(self, device):
        vals = np.arange(5, dtype=np.uint32)
        assert np.array_equal(compact(vals, np.ones(5, dtype=bool), device=device), vals)

    def test_shape_mismatch_rejected(self, device):
        with pytest.raises(ValueError):
            compact(np.arange(4), np.ones(3, dtype=bool), device=device)

    def test_segmented_compact_offsets(self, device):
        vals = np.array([1, 2, 3, 4, 5, 6], dtype=np.uint32)
        flags = np.array([True, False, True, True, False, False])
        seg_offsets = np.array([0, 3])
        out, _, new_offsets = segmented_compact(
            vals, None, flags, seg_offsets, device=device
        )
        assert list(out) == [1, 3, 4]
        assert list(new_offsets) == [0, 2, 3]

    def test_segmented_compact_empty_result_segment(self, device):
        vals = np.array([1, 2, 3, 4], dtype=np.uint32)
        flags = np.array([False, False, True, True])
        seg_offsets = np.array([0, 2])
        out, _, new_offsets = segmented_compact(
            vals, None, flags, seg_offsets, device=device
        )
        assert list(out) == [3, 4]
        assert list(new_offsets) == [0, 0, 2]


class TestMultisplit:
    def test_two_bucket_partition_is_stable(self, device):
        keys = np.array([10, 3, 8, 5, 2, 7], dtype=np.uint32)
        reordered, offsets = multisplit_keys(
            keys, lambda k: (k % 2 == 0).astype(np.int64), num_buckets=2,
            device=device,
        )
        # bucket 0 = odd keys (functor returns 0 for odd), bucket 1 = even
        assert list(reordered[offsets[0]:offsets[1]]) == [3, 5, 7]
        assert list(reordered[offsets[1]:offsets[2]]) == [10, 8, 2]

    def test_offsets_cover_input(self, device, rng):
        keys = rng.integers(0, 1000, 500, dtype=np.uint32)
        _, offsets = multisplit_keys(
            keys, lambda k: (k % 4).astype(np.int64), num_buckets=4, device=device
        )
        assert offsets[0] == 0
        assert offsets[-1] == keys.size
        assert np.all(np.diff(offsets) >= 0)

    def test_pairs_follow_keys(self, device, rng):
        keys = rng.integers(0, 100, 200, dtype=np.uint32)
        values = np.arange(200, dtype=np.uint32)
        rk, rv, offsets = multisplit_pairs(
            keys, values, lambda k: (k % 3).astype(np.int64), num_buckets=3,
            device=device,
        )
        assert np.array_equal(keys[rv], rk)  # values are the original indices

    def test_rejects_out_of_range_bucket(self, device):
        with pytest.raises(ValueError):
            multisplit_keys(np.array([1], dtype=np.uint32),
                            lambda k: np.array([5]), num_buckets=2, device=device)

    def test_rejects_too_many_buckets(self, device):
        with pytest.raises(ValueError):
            multisplit_keys(np.array([1], dtype=np.uint32),
                            lambda k: np.array([0]), num_buckets=64, device=device)

    def test_single_bucket_is_identity(self, device, rng):
        keys = rng.integers(0, 50, 64, dtype=np.uint32)
        reordered, offsets = multisplit_keys(
            keys, lambda k: np.zeros(k.size, dtype=np.int64), num_buckets=1,
            device=device,
        )
        assert np.array_equal(reordered, keys)
        assert list(offsets) == [0, 64]


class TestHistogram:
    def test_digit_histogram_counts(self, device):
        keys = np.array([0x00, 0x01, 0x01, 0xFF, 0x100], dtype=np.uint32)
        hist = digit_histogram(keys, 8, 0, device=device)
        assert hist[0x00] == 2  # 0x00 and 0x100 share the low byte 0
        assert hist[0x01] == 2
        assert hist[0xFF] == 1
        assert hist.sum() == keys.size

    def test_digit_histogram_shifted(self, device):
        keys = np.array([0x100, 0x200, 0x2FF], dtype=np.uint32)
        hist = digit_histogram(keys, 8, 8, device=device)
        assert hist[1] == 1 and hist[2] == 2

    def test_rejects_signed(self, device):
        with pytest.raises(TypeError):
            digit_histogram(np.arange(4, dtype=np.int32), 8, 0, device=device)

    def test_block_histograms_sum_to_global(self, device, rng):
        keys = rng.integers(0, 2**16, 10000, dtype=np.uint32)
        per_block = block_histograms(keys, 8, 0, device=device)
        total = digit_histogram(keys, 8, 0, device=device)
        assert np.array_equal(per_block.sum(axis=0), total)
