"""Unit tests for the exclusive scan (repro.primitives.scan)."""

import numpy as np
import pytest

from repro.primitives.scan import exclusive_scan


class TestExclusiveScan:
    def test_matches_cumsum(self, device, rng):
        vals = rng.integers(0, 100, 1000)
        scanned, total = exclusive_scan(vals, device=device)
        expected = np.concatenate(([0], np.cumsum(vals)[:-1]))
        assert np.array_equal(scanned, expected)
        assert total == vals.sum()

    def test_empty_input(self, device):
        scanned, total = exclusive_scan(np.zeros(0, dtype=np.int64), device=device)
        assert scanned.size == 0
        assert total == 0

    def test_single_element(self, device):
        scanned, total = exclusive_scan(np.array([7]), device=device)
        assert list(scanned) == [0]
        assert total == 7

    def test_initial_offset(self, device):
        scanned, total = exclusive_scan(np.array([1, 2, 3]), device=device, initial=10)
        assert list(scanned) == [10, 11, 13]
        assert total == 16

    def test_rejects_2d(self, device):
        with pytest.raises(ValueError):
            exclusive_scan(np.zeros((2, 2)), device=device)

    def test_records_traffic(self, device):
        vals = np.ones(1 << 12, dtype=np.int64)
        before = device.snapshot()
        exclusive_scan(vals, device=device)
        assert device.counter.since(before).total_bytes >= vals.nbytes
