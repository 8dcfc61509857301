"""Unit tests for the SortedRun column-set abstraction.

Every GPU LSM operation is expressed over :class:`SortedRun`; these tests
pin down the abstraction itself: single-dispatch to the keys/pairs
primitive variants, value-column alignment, immutability, and the
slice/pad/compact helpers the cascade and cleanup rely on.
"""

import numpy as np
import pytest

from repro.core.encoding import KeyEncoder
from repro.core.run import SortedRun

ENC = KeyEncoder(np.dtype(np.uint32))


def make_run(keys, values=None):
    keys = np.asarray(keys, dtype=np.uint32)
    if values is not None:
        values = np.asarray(values, dtype=np.uint32)
    return SortedRun(keys, values)


class TestConstruction:
    def test_basic_properties(self):
        run = make_run([3, 1, 2], [30, 10, 20])
        assert run.size == 3 and len(run) == 3
        assert run.has_values
        assert run.nbytes == 3 * 8
        assert run.itemsize == 8

    def test_key_only_properties(self):
        run = make_run([3, 1, 2])
        assert not run.has_values
        assert run.nbytes == 12
        assert run.itemsize == 4

    def test_misaligned_values_rejected(self):
        with pytest.raises(ValueError, match="match the key column"):
            make_run([1, 2, 3], [1, 2])

    def test_two_dimensional_keys_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            SortedRun(np.zeros((2, 2), dtype=np.uint32))

    def test_runs_are_immutable(self):
        run = make_run([1, 2])
        with pytest.raises(AttributeError):
            run.keys = np.zeros(2, dtype=np.uint32)


class TestBulkOperations:
    def test_sort_dispatches_pairs(self, device):
        run = make_run([5, 1, 9, 3], [50, 10, 90, 30]).sort(device=device)
        assert list(run.keys) == [1, 3, 5, 9]
        assert list(run.values) == [10, 30, 50, 90]

    def test_sort_dispatches_keys_only(self, device):
        run = make_run([5, 1, 9, 3]).sort(device=device)
        assert list(run.keys) == [1, 3, 5, 9]
        assert run.values is None

    def test_merge_is_stable_a_first(self, device):
        a = make_run([2, 4], [20, 40])
        b = make_run([2, 3], [200, 300])
        merged = a.merge(b, device=device)
        assert list(merged.keys) == [2, 2, 3, 4]
        # A's element precedes B's among equal keys.
        assert list(merged.values) == [20, 200, 300, 40]

    def test_merge_mixed_value_presence_rejected(self, device):
        with pytest.raises(ValueError, match="key-only"):
            make_run([1]).merge(make_run([2], [20]), device=device)

    def test_multisplit_partitions_stably(self, device):
        run = make_run([4, 1, 3, 2], [40, 10, 30, 20])
        split, offsets = run.multisplit(
            lambda k: (np.asarray(k) % 2 == 0).astype(np.int64),
            num_buckets=2,
            device=device,
        )
        assert list(offsets) == [0, 2, 4]
        assert list(split.keys) == [1, 3, 4, 2]
        assert list(split.values) == [10, 30, 40, 20]

    def test_compact_keeps_masked_elements(self, device):
        run = make_run([1, 2, 3, 4], [10, 20, 30, 40])
        kept = run.compact(np.array([True, False, True, False]), device=device)
        assert list(kept.keys) == [1, 3]
        assert list(kept.values) == [10, 30]

    def test_compact_rejects_misaligned_mask(self, device):
        with pytest.raises(ValueError, match="mask"):
            make_run([1, 2]).compact(np.array([True]), device=device)


class TestSliceAndPad:
    def test_slice_copies(self, device):
        run = make_run([1, 2, 3, 4], [10, 20, 30, 40])
        part = run.slice(1, 3)
        assert list(part.keys) == [2, 3]
        assert list(part.values) == [20, 30]
        part.keys[0] = 99  # the slice owns its storage
        assert run.keys[1] == 2

    def test_slice_bounds_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            make_run([1, 2]).slice(1, 3)

    def test_pad_fills_word_and_value(self, device):
        run = make_run([1, 2], [10, 20]).pad(
            4, fill_word=ENC.placebo_word, device=device
        )
        assert run.size == 4
        assert list(run.keys[2:]) == [ENC.placebo_word] * 2
        assert list(run.values[2:]) == [0, 0]

    def test_pad_noop_and_shrink_rejected(self, device):
        run = make_run([1, 2])
        assert run.pad(2, fill_word=0, device=device) is run
        with pytest.raises(ValueError, match="shrink"):
            run.pad(1, fill_word=0, device=device)

    def test_operations_record_device_traffic(self, device):
        before = device.simulated_seconds
        make_run([3, 1, 2], [1, 2, 3]).sort(device=device)
        assert device.simulated_seconds > before
