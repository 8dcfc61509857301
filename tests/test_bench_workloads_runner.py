"""Unit tests for the benchmark workload generators and measurement runner."""

import numpy as np
import pytest

from repro.bench.runner import (
    ExperimentRunner,
    RateSummary,
    sample_resident_counts,
    scaled_spec,
)
from repro.bench.workloads import (
    MixedOpConfig,
    WorkloadConfig,
    derived_rng,
    make_mixed_batches,
    make_workload,
)
from repro.api.ops import OpCode
from repro.core.encoding import MAX_KEY
from repro.gpu.spec import K40C_SPEC


class TestWorkloadConfig:
    def test_rejects_zero_elements(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_elements=0)

    def test_rejects_impossible_unique_draw(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_elements=100, key_space=10, unique=True)

    def test_rejects_oversized_key_space(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_elements=10, key_space=MAX_KEY + 1)


class TestMakeWorkload:
    def test_unique_keys(self):
        wl = make_workload(WorkloadConfig(num_elements=5000, seed=1))
        assert wl.num_elements == 5000
        assert np.unique(wl.keys).size == 5000
        assert wl.keys.dtype == np.uint32

    def test_deterministic_for_seed(self):
        a = make_workload(WorkloadConfig(num_elements=1000, seed=3))
        b = make_workload(WorkloadConfig(num_elements=1000, seed=3))
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.values, b.values)

    def test_non_unique_mode(self):
        wl = make_workload(WorkloadConfig(num_elements=100, key_space=10, unique=False))
        assert wl.keys.size == 100
        assert wl.keys.max() < 10

    def test_existing_queries_are_members(self):
        wl = make_workload(WorkloadConfig(num_elements=2000, seed=2))
        queries = wl.existing_queries(500)
        assert np.isin(queries, wl.keys).all()

    def test_missing_queries_are_not_members(self):
        wl = make_workload(WorkloadConfig(num_elements=2000, seed=2))
        queries = wl.missing_queries(500)
        assert not np.isin(queries, wl.keys).any()
        assert queries.max() <= MAX_KEY

    def test_range_queries_have_expected_width(self):
        wl = make_workload(WorkloadConfig(num_elements=1 << 14, seed=4))
        k1, k2 = wl.range_queries(200, expected_width=32)
        assert np.all(k2 > k1)
        # Empirical mean hit count should be within a factor of ~2 of L.
        hits = [
            np.count_nonzero((wl.keys >= a) & (wl.keys <= b))
            for a, b in zip(k1[:50], k2[:50])
        ]
        assert 8 <= np.mean(hits) <= 128

    def test_range_queries_reject_bad_width(self):
        wl = make_workload(WorkloadConfig(num_elements=100, seed=5))
        with pytest.raises(ValueError):
            wl.range_queries(10, expected_width=0)

    def test_batches_iterator(self):
        wl = make_workload(WorkloadConfig(num_elements=100, seed=6))
        batches = list(wl.batches(32))
        assert len(batches) == 3  # trailing partial batch dropped
        for keys, values in batches:
            assert keys.size == 32 and values.size == 32


class TestMixedStreamSeeding:
    """The single top-level seed makes multi-batch workloads reproducible."""

    def test_same_config_yields_identical_streams(self):
        config = MixedOpConfig(num_ops=1 << 10, tick_size=1 << 7, seed=41)
        first = make_mixed_batches(config)
        second = make_mixed_batches(config)
        assert len(first) == len(second) == 8
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.opcodes, b.opcodes)
            np.testing.assert_array_equal(a.keys, b.keys)
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.range_ends, b.range_ends)

    def test_different_seeds_diverge(self):
        base = dict(num_ops=1 << 9, tick_size=1 << 7)
        a = make_mixed_batches(MixedOpConfig(seed=1, **base))
        b = make_mixed_batches(MixedOpConfig(seed=2, **base))
        assert any(
            not np.array_equal(x.keys, y.keys) for x, y in zip(a, b)
        )

    def test_per_tick_children_are_independent_of_consumers(self):
        """Drawing from a derived stream cannot perturb the op stream."""
        config = MixedOpConfig(num_ops=1 << 9, tick_size=1 << 7, seed=99)
        before = make_mixed_batches(config)
        # A consumer (e.g. an arrival-time process)
        # derives extra randomness from the same top-level seed…
        derived_rng(config.seed, 0xA221).exponential(1.0, 100)
        after = make_mixed_batches(config)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a.keys, b.keys)

    def test_derived_streams_are_distinct_and_deterministic(self):
        a = derived_rng(7, 1).integers(0, 1 << 30, 8)
        b = derived_rng(7, 1).integers(0, 1 << 30, 8)
        c = derived_rng(7, 2).integers(0, 1 << 30, 8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestZipfMixedStream:
    """The Zipf(theta) point-key skew of the rebalancing benchmark."""

    _ZIPF = dict(zipf_theta=1.0, zipf_key_count=64, key_space=1 << 16)

    def test_deterministic_for_seed(self):
        config = MixedOpConfig(
            num_ops=1 << 10, tick_size=1 << 7, seed=13, **self._ZIPF
        )
        for a, b in zip(make_mixed_batches(config), make_mixed_batches(config)):
            np.testing.assert_array_equal(a.opcodes, b.opcodes)
            np.testing.assert_array_equal(a.keys, b.keys)
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.range_ends, b.range_ends)

    def test_off_by_default_is_bit_exact(self):
        """``zipf_theta=0`` must leave the stream bit-identical to a
        config that never mentions the knobs (no stray RNG draws)."""
        base = dict(num_ops=1 << 9, tick_size=1 << 7, seed=41)
        legacy = make_mixed_batches(MixedOpConfig(**base))
        explicit_off = make_mixed_batches(
            MixedOpConfig(zipf_theta=0.0, zipf_key_count=0, **base)
        )
        for a, b in zip(legacy, explicit_off):
            np.testing.assert_array_equal(a.opcodes, b.opcodes)
            np.testing.assert_array_equal(a.keys, b.keys)
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.range_ends, b.range_ends)

    def test_skew_touches_point_keys_only(self):
        """Turning the skew on re-draws point-op keys but must not
        perturb the opcode sequence, the values, or the range windows."""
        base = dict(num_ops=1 << 9, tick_size=1 << 7, seed=41,
                    key_space=self._ZIPF["key_space"])
        off = make_mixed_batches(MixedOpConfig(**base))
        on = make_mixed_batches(
            MixedOpConfig(zipf_theta=1.0, zipf_key_count=64, **base)
        )
        diverged = False
        for a, b in zip(off, on):
            np.testing.assert_array_equal(a.opcodes, b.opcodes)
            np.testing.assert_array_equal(a.values, b.values)
            is_range = (a.opcodes == OpCode.RANGE) | (
                a.opcodes == OpCode.COUNT
            )
            np.testing.assert_array_equal(a.keys[is_range], b.keys[is_range])
            np.testing.assert_array_equal(
                a.range_ends[is_range], b.range_ends[is_range]
            )
            diverged |= not np.array_equal(a.keys, b.keys)
        assert diverged, "the skew never moved a point key"

    def test_support_and_popularity_shape(self):
        """Point keys land on the evenly spread support and follow the
        Zipf head: rank 0 is the most popular key and the lowest-ranked
        eighth of the support concentrates most of the point traffic."""
        config = MixedOpConfig(
            num_ops=1 << 13, tick_size=1 << 10, seed=3, **self._ZIPF
        )
        stride = config.key_space // config.zipf_key_count
        point_keys = np.concatenate(
            [
                b.keys[(b.opcodes != OpCode.RANGE) & (b.opcodes != OpCode.COUNT)]
                for b in make_mixed_batches(config)
            ]
        )
        assert np.all(point_keys % stride == 0)
        assert np.all(point_keys < config.zipf_key_count * stride)
        counts = np.bincount(
            (point_keys // stride).astype(np.int64),
            minlength=config.zipf_key_count,
        )
        assert counts.argmax() == 0
        head = counts[: config.zipf_key_count // 8].sum()
        assert head / counts.sum() > 0.5

    def test_theta_steepens_the_head(self):
        base = dict(num_ops=1 << 12, tick_size=1 << 10, seed=3,
                    zipf_key_count=64, key_space=1 << 16)

        def head_share(theta):
            config = MixedOpConfig(zipf_theta=theta, **base)
            stride = config.key_space // config.zipf_key_count
            keys = np.concatenate(
                [
                    b.keys[(b.opcodes != OpCode.RANGE) & (b.opcodes != OpCode.COUNT)]
                    for b in make_mixed_batches(config)
                ]
            )
            return np.mean(keys // stride == 0)

        assert head_share(1.8) > head_share(1.0) > head_share(0.5)

    def test_validation(self):
        base = dict(num_ops=1 << 9, tick_size=1 << 7)
        with pytest.raises(ValueError, match="zipf_theta"):
            MixedOpConfig(zipf_theta=-0.5, **base)
        with pytest.raises(ValueError, match="zipf_key_count"):
            MixedOpConfig(zipf_key_count=-1, **base)
        with pytest.raises(ValueError, match="zipf_key_count"):
            MixedOpConfig(zipf_theta=1.0, zipf_key_count=1, **base)
        with pytest.raises(ValueError, match="zipf_key_count"):
            MixedOpConfig(
                zipf_theta=1.0, zipf_key_count=1 << 20, key_space=1 << 10,
                **base,
            )


class TestRateSummary:
    def test_min_max_mean(self):
        s = RateSummary("x")
        for r in (10.0, 20.0, 40.0):
            s.add(r)
        assert s.min == 10.0
        assert s.max == 40.0
        # harmonic mean of 10, 20, 40 = 3 / (0.1 + 0.05 + 0.025)
        assert s.harmonic_mean == pytest.approx(3 / 0.175)

    def test_rejects_nonpositive_rate(self):
        s = RateSummary("x")
        with pytest.raises(ValueError):
            s.add(0.0)
        with pytest.raises(ValueError):
            s.add(float("inf"))

    def test_empty_summary_is_nan(self):
        s = RateSummary("x")
        assert np.isnan(s.harmonic_mean)
        assert np.isnan(s.min)

    def test_as_row(self):
        s = RateSummary("label")
        s.add(5.0)
        row = s.as_row()
        assert row["label"] == "label"
        assert row["samples"] == 1

    def test_combined_harmonic_mean(self):
        a = RateSummary("a"); a.add(10.0)
        b = RateSummary("b"); b.add(30.0)
        combined = RateSummary.combined_harmonic_mean([a, b])
        assert combined == pytest.approx(2 / (1 / 10 + 1 / 30))


class TestExperimentRunner:
    def test_measure_returns_rate(self):
        runner = ExperimentRunner()
        rate = runner.measure(
            1000, lambda: runner.device.record_kernel("k", coalesced_read_bytes=1 << 20)
        )
        assert rate > 0

    def test_measure_isolated_between_calls(self):
        runner = ExperimentRunner()
        runner.device.record_kernel("warmup", coalesced_read_bytes=1 << 30)
        seconds = runner.measure_seconds(
            lambda: runner.device.record_kernel("k", coalesced_read_bytes=1 << 10)
        )
        # Must reflect only the 1 KiB kernel, not the warmup gigabyte.
        assert seconds < 1e-3

    def test_measure_no_work_raises(self):
        runner = ExperimentRunner()
        with pytest.raises(RuntimeError):
            runner.measure(10, lambda: None)

    def test_fresh_device_replaces(self):
        runner = ExperimentRunner()
        old = runner.device
        new = runner.fresh_device()
        assert new is runner.device and new is not old


class TestScaling:
    def test_scaled_spec_reduces_launch_overhead(self):
        spec = scaled_spec(1 << 17, 1 << 27)
        assert spec.kernel_launch_overhead_us == pytest.approx(
            K40C_SPEC.kernel_launch_overhead_us / 1024
        )

    def test_scaled_spec_never_increases(self):
        spec = scaled_spec(1 << 28, 1 << 27)
        assert spec.kernel_launch_overhead_us == K40C_SPEC.kernel_launch_overhead_us

    def test_scaled_spec_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            scaled_spec(0, 1 << 27)

    def test_sample_resident_counts_small(self):
        assert sample_resident_counts(4, 10) == [1, 2, 3, 4]

    def test_sample_resident_counts_caps_and_keeps_endpoints(self):
        picks = sample_resident_counts(1000, 5)
        assert picks[0] == 1 and picks[-1] == 1000
        assert len(picks) <= 6

    def test_sample_resident_counts_validation(self):
        with pytest.raises(ValueError):
            sample_resident_counts(0, 5)
        with pytest.raises(ValueError):
            sample_resident_counts(5, 0)
