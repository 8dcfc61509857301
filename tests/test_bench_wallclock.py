"""Unit tests for the replay prefill (:mod:`repro.bench.wallclock`)."""

import numpy as np

from repro.bench.wallclock import make_prefill
from repro.bench.workloads import MixedOpConfig, hot_key_set
from repro.core.lsm import LookupResult


class TestReplayWorkload:
    def test_prefill_contains_the_hot_key_set(self):
        """Every hot lookup must be a *present* key, so the uncached
        baseline pays real per-level probes instead of Bloom rejections."""
        hot = hot_key_set(
            MixedOpConfig(
                num_ops=1 << 10,
                tick_size=1 << 8,
                seed=8,
                hot_key_count=256,
                hot_fraction=1.0,
            )
        )
        batches = make_prefill(1 << 8, prefill_batches=4, hot_keys=hot)
        prefilled = np.concatenate([k for k, _ in batches])
        assert np.isin(hot, prefilled).all()

    def test_prefill_batches_fit_the_tick_size(self):
        batches = make_prefill(1 << 8, prefill_batches=5)
        assert len(batches) == 5
        for keys, values in batches:
            assert keys.size == 1 << 8
            np.testing.assert_array_equal(values, keys * np.uint64(5))
        combined = np.concatenate([k for k, _ in batches])
        assert np.unique(combined).size == combined.size  # no duplicates
        assert make_prefill(1 << 8, prefill_batches=0) == []


class TestLookupResultHelper:
    def test_lookup_result_shape(self):
        r = LookupResult(found=np.array([True]), values=None)
        assert r.values is None
