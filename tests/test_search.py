"""Unit tests for lower/upper bound searches (repro.primitives.search)."""

import numpy as np
import pytest

from repro.primitives.search import lower_bound, upper_bound


class TestLowerBound:
    def test_matches_searchsorted(self, device, rng):
        hay = np.sort(rng.integers(0, 1000, 500, dtype=np.uint32))
        queries = rng.integers(0, 1100, 200, dtype=np.uint32)
        out = lower_bound(hay, queries, device=device)
        assert np.array_equal(out, np.searchsorted(hay, queries, side="left"))

    def test_query_below_all(self, device):
        hay = np.array([10, 20, 30], dtype=np.uint32)
        assert lower_bound(hay, np.array([5], dtype=np.uint32), device=device)[0] == 0

    def test_query_above_all(self, device):
        hay = np.array([10, 20, 30], dtype=np.uint32)
        assert lower_bound(hay, np.array([99], dtype=np.uint32), device=device)[0] == 3

    def test_exact_hit_returns_first_occurrence(self, device):
        hay = np.array([5, 7, 7, 7, 9], dtype=np.uint32)
        assert lower_bound(hay, np.array([7], dtype=np.uint32), device=device)[0] == 1

    def test_empty_haystack(self, device):
        out = lower_bound(np.zeros(0, dtype=np.uint32),
                          np.array([1], dtype=np.uint32), device=device)
        assert out[0] == 0

    def test_empty_queries(self, device):
        out = lower_bound(np.array([1], dtype=np.uint32),
                          np.zeros(0, dtype=np.uint32), device=device)
        assert out.size == 0

    def test_rejects_2d(self, device):
        with pytest.raises(ValueError):
            lower_bound(np.zeros((2, 2)), np.zeros(2), device=device)

    def test_random_traffic_grows_with_level_size(self, device):
        queries = np.arange(100, dtype=np.uint32)
        small = np.arange(1 << 8, dtype=np.uint32)
        large = np.arange(1 << 16, dtype=np.uint32)
        s0 = device.snapshot()
        lower_bound(small, queries, device=device)
        small_traffic = device.counter.since(s0).random_bytes
        s1 = device.snapshot()
        lower_bound(large, queries, device=device)
        large_traffic = device.counter.since(s1).random_bytes
        assert large_traffic > small_traffic


class TestUpperBound:
    def test_matches_searchsorted(self, device, rng):
        hay = np.sort(rng.integers(0, 1000, 500, dtype=np.uint32))
        queries = rng.integers(0, 1100, 200, dtype=np.uint32)
        out = upper_bound(hay, queries, device=device)
        assert np.array_equal(out, np.searchsorted(hay, queries, side="right"))

    def test_exact_hit_returns_past_last_occurrence(self, device):
        hay = np.array([5, 7, 7, 7, 9], dtype=np.uint32)
        assert upper_bound(hay, np.array([7], dtype=np.uint32), device=device)[0] == 4

    def test_count_via_bounds(self, device, rng):
        hay = np.sort(rng.integers(0, 100, 1000, dtype=np.uint32))
        k1 = np.array([20], dtype=np.uint32)
        k2 = np.array([40], dtype=np.uint32)
        lo = lower_bound(hay, k1, device=device)
        hi = upper_bound(hay, k2, device=device)
        expected = np.count_nonzero((hay >= 20) & (hay <= 40))
        assert (hi - lo)[0] == expected
