"""Unit tests for traffic counters, the cost model, and the profiler."""

import pytest

from repro.gpu.cost_model import CostModel, KernelCost
from repro.gpu.counters import KernelStats, TrafficCounter
from repro.gpu.spec import GPUSpec, K40C_SPEC


class TestKernelStats:
    def test_totals(self):
        s = KernelStats(
            "k", coalesced_read_bytes=10, coalesced_write_bytes=20,
            random_read_bytes=5, random_write_bytes=1,
        )
        assert s.coalesced_bytes == 30
        assert s.random_bytes == 6
        assert s.total_bytes == 36


class TestTrafficCounter:
    def test_record_updates_totals(self):
        c = TrafficCounter()
        c.record("a", coalesced_read_bytes=100, launches=2)
        c.record("b", random_read_bytes=50)
        assert c.total_coalesced_bytes == 100
        assert c.total_random_bytes == 50
        assert c.total_launches == 3
        assert sorted(c.per_kernel) == ["a", "b"]

    def test_per_kernel_aggregation(self):
        c = TrafficCounter()
        c.record("a", coalesced_read_bytes=10)
        c.record("a", coalesced_read_bytes=15)
        assert c.per_kernel["a"] == KernelStats(
            "a", coalesced_read_bytes=25, launches=2
        )

    def test_snapshot_difference(self):
        c = TrafficCounter()
        c.record("a", coalesced_read_bytes=10)
        snap = c.snapshot()
        c.record("b", coalesced_read_bytes=30, launches=4)
        delta = c.since(snap)
        assert delta.coalesced_bytes == 30
        assert delta.launches == 4

    def test_reset(self):
        c = TrafficCounter()
        c.record("a", coalesced_read_bytes=10)
        c.reset()
        assert c.total_bytes == 0
        assert c.total_launches == 0
        assert not c.per_kernel


def streaming_seconds(model, nbytes, launches=1):
    """Simulated seconds to stream ``nbytes`` coalesced."""
    return model.cost_of(
        KernelStats("k", coalesced_read_bytes=nbytes, launches=launches)
    ).seconds


class TestCostModel:
    def test_coalesced_cheaper_than_random(self):
        model = CostModel(K40C_SPEC)
        coalesced = streaming_seconds(model, 1 << 20)
        random = model.cost_of(KernelStats("k", random_read_bytes=1 << 20)).seconds
        assert coalesced < random

    def test_cost_scales_linearly_with_bytes(self):
        model = CostModel(K40C_SPEC)
        small = streaming_seconds(model, 1 << 20, launches=0)
        big = streaming_seconds(model, 1 << 22, launches=0)
        assert big == pytest.approx(4 * small)

    def test_launch_overhead_additive(self):
        model = CostModel(K40C_SPEC)
        none = streaming_seconds(model, 1 << 20, launches=0)
        one = streaming_seconds(model, 1 << 20, launches=1)
        assert one - none == pytest.approx(K40C_SPEC.kernel_launch_overhead_s)

    def test_cost_breakdown_sums(self):
        model = CostModel(K40C_SPEC)
        stats = KernelStats(
            "k", coalesced_read_bytes=1 << 20, random_read_bytes=1 << 16, launches=3
        )
        cost = model.cost_of(stats)
        assert cost.seconds == pytest.approx(
            cost.launch_seconds + cost.coalesced_seconds + cost.random_seconds
        )

    def test_clock_seconds_are_the_cost_seconds(self):
        model = CostModel(K40C_SPEC)
        stats = KernelStats(
            "k", coalesced_write_bytes=1 << 18, random_write_bytes=1 << 15,
            filter_read_bytes=1 << 10, launches=2,
        )
        assert model.seconds(
            stats.launches, stats.coalesced_bytes, stats.random_bytes, stats.filter_bytes
        ).hex() == model.cost_of(stats).seconds.hex()

    def test_rate_helper(self):
        assert CostModel.rate_m_per_s(1_000_000, 1.0) == pytest.approx(1.0)
        assert CostModel.rate_m_per_s(10, 0.0) == float("inf")

    def test_kernel_cost_zero(self):
        z = KernelCost.zero()
        assert z.seconds == 0.0

    def test_faster_device_costs_less(self):
        fast = GPUSpec(dram_bandwidth_gbs=1000.0)
        slow = GPUSpec(dram_bandwidth_gbs=100.0)
        nbytes = 1 << 24
        assert streaming_seconds(CostModel(fast), nbytes, launches=0) < streaming_seconds(
            CostModel(slow), nbytes, launches=0
        )


class TestProfiler:
    def test_region_records_traffic_and_rate(self, device):
        with device.timed_region("op", items=1000):
            device.record_kernel("k", coalesced_read_bytes=1 << 20)
        rec = device.profiler.last
        assert rec is not None
        assert rec.name == "op"
        assert rec.items == 1000
        assert rec.coalesced_bytes == 1 << 20
        assert rec.seconds > 0
        assert rec.rate_m_per_s > 0

    def test_nested_operations_isolated(self, device):
        with device.timed_region("first", items=1):
            device.record_kernel("k", coalesced_read_bytes=100)
        with device.timed_region("second", items=1):
            device.record_kernel("k", coalesced_read_bytes=300)
        regions = device.profiler.by_name()
        assert regions["first"].coalesced_bytes == 100
        assert regions["second"].coalesced_bytes == 300

    def test_total_seconds_prefix_filter(self, device):
        with device.timed_region("lsm.insert", items=1):
            device.record_kernel("k", coalesced_read_bytes=100)
        with device.timed_region("lsm.lookup", items=1):
            device.record_kernel("k", coalesced_read_bytes=100)
        total = device.profiler.total_seconds("lsm.")
        insert_only = device.profiler.total_seconds("lsm.insert")
        assert total > insert_only > 0

    def test_summary_rows(self, device):
        with device.timed_region("op", items=10):
            device.record_kernel("k", coalesced_read_bytes=1 << 10)
        rows = device.profiler.summary_rows()
        assert rows[0]["region"] == "op"
        assert rows[0]["calls"] == 1
        assert rows[0]["items"] == 10

    def test_by_name_groups(self, device):
        for _ in range(3):
            with device.timed_region("op", items=2):
                device.record_kernel("k", coalesced_read_bytes=1)
        total = device.profiler.by_name()["op"]
        assert (total.calls, total.items, total.coalesced_bytes, total.launches) == (
            3, 6, 3, 3
        )
        assert device.profiler.last.calls == 1
        assert len(device.profiler.summary_rows()) == 1
