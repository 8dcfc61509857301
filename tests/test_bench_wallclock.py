"""Unit tests for the wall-clock replay benchmark harness
(:mod:`repro.bench.wallclock`)."""

import numpy as np
import pytest

from repro.bench.wallclock import (
    assert_results_bit_identical,
    make_prefill,
    make_replay_phases,
    wallclock_replay,
)
from repro.bench.workloads import MixedOpConfig, hot_key_set
from repro.core.lsm import LookupResult


class TestReplayWorkload:
    def test_phases_are_deterministic(self):
        a = make_replay_phases(1 << 11, 1 << 8, prefill_batches=3)
        b = make_replay_phases(1 << 11, 1 << 8, prefill_batches=3)
        assert set(a) == {"prefill", "mixed", "hot"}
        for (ka, va), (kb, vb) in zip(a["prefill"], b["prefill"]):
            np.testing.assert_array_equal(ka, kb)
            np.testing.assert_array_equal(va, vb)
        for phase in ("mixed", "hot"):
            for x, y in zip(a[phase], b[phase]):
                np.testing.assert_array_equal(x.opcodes, y.opcodes)
                np.testing.assert_array_equal(x.keys, y.keys)
                np.testing.assert_array_equal(x.values, y.values)
                np.testing.assert_array_equal(x.range_ends, y.range_ends)

    def test_each_phase_gets_half_the_ops(self):
        phases = make_replay_phases(1 << 12, 1 << 8, prefill_batches=0)
        assert phases["prefill"] == []
        for phase in ("mixed", "hot"):
            assert sum(b.size for b in phases[phase]) == 1 << 11

    def test_prefill_contains_the_hot_key_set(self):
        """Every hot lookup must be a *present* key, so the uncached
        baseline pays real per-level probes instead of Bloom rejections."""
        phases = make_replay_phases(1 << 11, 1 << 8, prefill_batches=4)
        hot = hot_key_set(
            MixedOpConfig(
                num_ops=1 << 10,
                tick_size=1 << 8,
                seed=8,  # REPLAY_SEED + 1, the hot phase's stream
                hot_key_count=256,
                hot_fraction=1.0,
            )
        )
        prefilled = np.concatenate([k for k, _ in phases["prefill"]])
        assert np.isin(hot, prefilled).all()

    def test_prefill_batches_fit_the_tick_size(self):
        batches = make_prefill(1 << 8, prefill_batches=5)
        assert len(batches) == 5
        for keys, values in batches:
            assert keys.size == 1 << 8
            np.testing.assert_array_equal(values, keys * np.uint64(5))
        combined = np.concatenate([k for k, _ in batches])
        assert np.unique(combined).size == combined.size  # no duplicates


class TestBitIdentityAssertion:
    def _result(self, **overrides):
        from repro.api.ops import ResultBatch, ResultStatus

        base = dict(
            request=None,
            statuses=np.full(2, ResultStatus.OK, dtype=np.uint8),
            found=np.array([True, False]),
            values=np.array([7, 0], dtype=np.uint64),
            counts=np.zeros(2, dtype=np.int64),
            range_offsets=np.zeros(3, dtype=np.int64),
            range_keys=np.empty(0, dtype=np.uint64),
            range_values=None,
            errors={},
        )
        base.update(overrides)
        return ResultBatch(**base)

    def test_identical_results_pass(self):
        assert_results_bit_identical(self._result(), self._result())

    def test_value_divergence_raises(self):
        with pytest.raises(AssertionError, match="values"):
            assert_results_bit_identical(
                self._result(),
                self._result(values=np.array([8, 0], dtype=np.uint64)),
                context="tick 3",
            )

    def test_found_divergence_raises(self):
        with pytest.raises(AssertionError, match="found"):
            assert_results_bit_identical(
                self._result(), self._result(found=np.array([True, True]))
            )


class TestLookupResultHelper:
    def test_smoke_replay_is_bit_identical_and_reports_cache_rows(self):
        rows = wallclock_replay(
            num_ops=1 << 10,
            tick_size=1 << 8,
            backends=("gpulsm",),
            prefill_batches=3,
            repeats=1,
        )
        # Reaching here means every tick matched bit-for-bit.
        phases = {r["phase"] for r in rows}
        assert phases == {"mixed", "hot", "overall"}
        cached_hot = [
            r for r in rows if r["mode"] == "cached" and r["phase"] == "hot"
        ][0]
        assert cached_hot["cache_hits"] > 0
        assert cached_hot["ops_per_s"] > 0
        uncached = [r for r in rows if r["mode"] == "uncached"]
        assert all("cache_hits" not in r for r in uncached)

    def test_lookup_result_shape(self):
        r = LookupResult(found=np.array([True]), values=None)
        assert r.values is None
