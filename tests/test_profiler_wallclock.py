"""Wall-clock profiler regions and the bounded latency histogram."""

from typing import Dict, Sequence

import numpy as np
import pytest

from repro.gpu.device import Device
from repro.gpu.profiler import LatencyHistogram


def percentile_summary(
    values: Sequence[float], percentiles: Sequence[int] = (50, 95, 99)
) -> Dict[str, float]:
    """Exact (linear-interpolation) percentiles under the column names of
    :meth:`LatencyHistogram.summary` — the reference the histogram's
    bucketed approximation is checked against.  Empty input yields NaN
    columns, as the histogram's summary does."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return {f"p{p}": float("nan") for p in percentiles}
    return {f"p{p}": float(np.percentile(arr, p)) for p in percentiles}


class TestWallClockRegions:
    def test_region_records_wall_seconds_separate_from_simulated(self):
        device = Device()
        with device.timed_region("op", items=10):
            device.record_kernel("k", coalesced_read_bytes=1 << 20, work_items=10)
        record = device.profiler.last
        assert record.wall_seconds > 0.0
        # Two independent axes: the simulated cost comes from the model,
        # the wall clock from perf_counter; neither feeds the other.
        assert record.wall_seconds != record.seconds
        assert record.wall_rate_per_s == pytest.approx(
            10 / record.wall_seconds
        )

    def test_total_wall_seconds_sums_by_prefix(self):
        device = Device()
        for name in ("a.x", "a.y", "b.z"):
            with device.timed_region(name):
                pass
        profiler = device.profiler
        total_a = profiler.total_wall_seconds("a.")
        assert total_a > 0.0
        assert profiler.total_wall_seconds() == pytest.approx(
            total_a + profiler.total_wall_seconds("b."), rel=1e-9
        )

    def test_summary_rows_include_wall_ms(self):
        device = Device()
        with device.timed_region("op"):
            pass
        row = device.profiler.summary_rows()[-1]
        assert "wall_ms" in row and row["wall_ms"] >= 0.0


class TestLatencyHistogram:
    def test_empty_summary_is_nan(self):
        hist = LatencyHistogram()
        summary = hist.summary()
        assert all(np.isnan(v) for v in summary.values())
        assert len(hist) == 0

    def test_mean_and_count_are_exact(self):
        hist = LatencyHistogram()
        samples = [0.001, 0.002, 0.004, 0.1]
        for s in samples:
            hist.record(s)
        assert hist.count == 4
        assert hist.mean == pytest.approx(np.mean(samples))

    def test_weighted_record_equals_repeated_records(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record_weighted(0.003, 100)
        for _ in range(100):
            b.record(0.003)
        assert a.count == b.count == 100
        assert a.percentile(50) == b.percentile(50)
        assert a.mean == pytest.approx(b.mean)

    def test_percentiles_within_bucket_tolerance(self):
        """Approximation contract: each percentile lands within one
        geometric bucket (rel. error 2**(1/16)-1 ≈ 4.5%) of numpy's."""
        rng = np.random.default_rng(11)
        samples = rng.lognormal(mean=-7.0, sigma=1.0, size=5000)
        hist = LatencyHistogram()
        for s in samples:
            hist.record(float(s))
        tolerance = 2 ** (1 / 16) - 1 + 1e-9
        reference = percentile_summary(samples)
        for p in (50, 95, 99):
            exact = reference[f"p{p}"]
            approx = hist.percentile(p)
            assert abs(approx - exact) / exact <= 2 * tolerance

    def test_single_sample_is_sharp(self):
        hist = LatencyHistogram()
        hist.record(0.0123)
        # Clamped to observed min/max: one sample answers exactly.
        assert hist.percentile(50) == pytest.approx(0.0123)
        assert hist.percentile(99) == pytest.approx(0.0123)

    def test_memory_is_bounded_and_recording_is_o1(self):
        hist = LatencyHistogram()
        bins_before = hist._counts.size
        for i in range(100_000):
            hist.record_weighted(1e-5 * (1 + (i % 7)), 3)
        assert hist._counts.size == bins_before
        assert hist.count == 300_000

    def test_out_of_range_values_clamp_to_edge_bins(self):
        hist = LatencyHistogram(min_latency=1e-6, max_latency=1.0)
        hist.record(1e-12)  # below range
        hist.record(50.0)  # above range
        assert hist.count == 2
        assert hist.percentile(1) == pytest.approx(1e-12)  # min clamp
        assert hist.percentile(99) == pytest.approx(50.0)  # max clamp

    def test_monotone_percentiles(self):
        rng = np.random.default_rng(5)
        hist = LatencyHistogram()
        for s in rng.exponential(0.01, size=1000):
            hist.record(float(s))
        values = [hist.percentile(p) for p in (10, 50, 90, 99)]
        assert values == sorted(values)

    def test_clear_resets_everything(self):
        hist = LatencyHistogram()
        hist.record(0.5)
        hist.clear()
        assert hist.count == 0
        assert np.isnan(hist.percentile(50))

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_latency=1.0, max_latency=0.5)
        with pytest.raises(ValueError):
            LatencyHistogram(bins_per_octave=0)


class TestEngineStatsStayBounded:
    def test_stats_cost_does_not_grow_with_samples(self):
        """The fix for per-call percentile recomputation: stats() walks a
        fixed-size histogram, so its cost is flat in the number of ops
        the engine has served."""
        import time

        from repro.core.lsm import GPULSM
        from repro.serve import Engine, TickTrigger

        engine = Engine(GPULSM(batch_size=16))
        # Record far more op latencies than the old deque bound would
        # have kept, through the tick-recording path.
        for latency_ms in range(5):
            engine._record_tick(
                size=1 << 20,
                trigger=TickTrigger.SIZE,
                op_latencies=[(0.001 * (latency_ms + 1), 1 << 20)],
                tick_latency=0.01,
                sim_seconds=0.0,
                plan_seconds=0.0,
                t_done=time.monotonic(),
            )
        stats = engine.stats()
        assert stats.ops_completed == 5 << 20
        assert stats.op_latency["p50"] <= stats.op_latency["p99"]
        assert stats.op_latency["mean"] == pytest.approx(0.003)
