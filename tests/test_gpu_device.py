"""Unit tests for the simulated Device (repro.gpu.device)."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.bench.workloads import MixedOpConfig, make_mixed_batches
from repro.core.lsm import GPULSM
from repro.gpu.counters import KernelStats, TrafficCounter
from repro.gpu.device import Device, get_default_device, set_default_device
from repro.gpu.spec import K40C_SPEC
from repro.scale import ShardedLSM
from repro.serve.engine import Engine


class TestDeviceBasics:
    def test_record_kernel_advances_clock(self, device):
        before = device.simulated_seconds
        device.record_kernel("k", coalesced_read_bytes=1 << 20)
        assert device.simulated_seconds > before

    def test_record_kernel_updates_the_aggregate_in_place(self, device):
        device.record_kernel("k", coalesced_read_bytes=10, work_items=3)
        stats = device.counter.per_kernel["k"]
        device.record_kernel("k", coalesced_read_bytes=np.int64(5), launches=2)
        assert device.counter.per_kernel["k"] is stats
        assert stats == KernelStats(
            "k", coalesced_read_bytes=15, work_items=3, launches=3
        )
        assert type(stats.coalesced_read_bytes) is int

    def test_elapsed_since_snapshot(self, device):
        snap = device.snapshot()
        device.record_kernel("k", coalesced_read_bytes=1 << 20)
        elapsed = device.elapsed_since(snap)
        assert elapsed > 0
        # A later snapshot measures only what comes after it.
        snap2 = device.snapshot()
        assert device.elapsed_since(snap2) == 0

    def test_reset_counters_clears_clock_aggregates_and_profiler(self, device):
        with device.timed_region("op"):
            device.record_kernel("k", coalesced_read_bytes=1000)
        device.reset_counters()
        assert device.simulated_seconds == 0.0
        assert device.counter == TrafficCounter()
        assert not device.profiler.by_name()
        assert device.profiler.last is None

    def test_rng_reproducible(self):
        d1 = Device(K40C_SPEC, seed=7)
        d2 = Device(K40C_SPEC, seed=7)
        assert np.array_equal(d1.rng.integers(0, 100, 10), d2.rng.integers(0, 100, 10))


class TestDefaultDevice:
    def test_default_device_created_lazily(self):
        set_default_device(None)
        dev = get_default_device()
        assert isinstance(dev, Device)
        assert get_default_device() is dev

    def test_set_default_device(self):
        custom = Device(K40C_SPEC)
        set_default_device(custom)
        assert get_default_device() is custom
        set_default_device(None)


def _devices_of(backend):
    shards = getattr(backend, "shards", None)
    if shards is None:
        return [backend.device]
    return [backend.router_device] + [s.device for s in shards]


class TestBoundedAccounting:
    """What a device holds is O(kernel names + region names): a store can
    tick indefinitely without its accounting growing."""

    TICK = 1024
    WARM_UP_TICKS = 32
    MEASURED_TICKS = 128

    @pytest.mark.parametrize(
        "make",
        [
            lambda tick: GPULSM(batch_size=tick, device=Device(K40C_SPEC, seed=1)),
            lambda tick: ShardedLSM(4, batch_size=tick, seed=1),
        ],
        ids=["gpulsm", "sharded4"],
    )
    def test_ticks_do_not_grow_the_accounting(self, make):
        backend = make(self.TICK)
        devices = _devices_of(backend)
        batches = make_mixed_batches(
            MixedOpConfig(
                num_ops=(self.WARM_UP_TICKS + self.MEASURED_TICKS) * self.TICK,
                tick_size=self.TICK,
                seed=3,
            )
        )
        engine = Engine(backend)
        for batch in batches[: self.WARM_UP_TICKS]:
            engine.apply(batch)

        def tables():
            return [
                (sorted(d.counter.per_kernel), sorted(d.profiler.by_name()))
                for d in devices
            ]

        tables_before = tables()
        launches_before = sum(d.counter.total_launches for d in devices)
        in_gpu = [tracemalloc.Filter(True, "*/repro/gpu/*")]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(in_gpu)
            for batch in batches[self.WARM_UP_TICKS :]:
                engine.apply(batch)
            gc.collect()
            after = tracemalloc.take_snapshot().filter_traces(in_gpu)
        finally:
            tracemalloc.stop()
            engine.close()

        assert sum(d.counter.total_launches for d in devices) > launches_before
        assert tables() == tables_before
        growth = sum(s.size_diff for s in after.compare_to(before, "filename"))
        assert growth < 1024 * self.MEASURED_TICKS, (
            f"accounting under repro/gpu/ grew {growth / self.MEASURED_TICKS:.0f} "
            "bytes per tick"
        )
