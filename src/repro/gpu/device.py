"""The simulated GPU device.

A :class:`Device` bundles together everything a CUDA context would provide
to the original implementation: global memory allocation, kernel launch
accounting, and timing.  All primitives in :mod:`repro.primitives` take a
device argument (or use the process-wide default) and report their kernel
traffic through :meth:`Device.record_kernel`, which is how simulated time is
accumulated.

Typical usage::

    from repro.gpu import Device, K40C_SPEC

    dev = Device(K40C_SPEC)
    keys = dev.from_host(np.random.randint(0, 2**31, 1 << 20, dtype=np.uint32))
    ...

A process-wide default device is kept for convenience (mirroring CUDA's
implicit current device); libraries that care about isolation — the test
suite and the benchmark harness — construct their own devices explicitly.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.gpu.cost_model import CostModel
from repro.gpu.counters import CounterSnapshot, KernelStats, TrafficCounter
from repro.gpu.launch import GridGeometry, LaunchConfig, make_grid
from repro.gpu.memory import DeviceArray, DoubleBuffer, MemoryPool
from repro.gpu.profiler import Profiler
from repro.gpu.spec import GPUSpec, K40C_SPEC

DTypeLike = Union[np.dtype, type, str]


class Device:
    """A simulated GPU: memory pool + counters + cost model + profiler."""

    def __init__(self, spec: GPUSpec = K40C_SPEC, *, seed: Optional[int] = None) -> None:
        self.spec = spec
        self.pool = MemoryPool(spec.dram_bytes)
        self.counter = TrafficCounter()
        self.cost_model = CostModel(spec)
        self.profiler = Profiler(self.counter, self.cost_model)
        #: Simulated elapsed time, advanced by every recorded kernel.
        self.simulated_seconds = 0.0
        #: RNG used by primitives that need randomness (e.g. cuckoo rehash);
        #: seeding it makes every simulation reproducible.
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # Memory management
    # ------------------------------------------------------------------ #
    def alloc(
        self, shape: Union[int, Tuple[int, ...]], dtype: DTypeLike = np.uint32,
        label: str = "",
    ) -> DeviceArray:
        """Allocate an uninitialised device array (``cudaMalloc``)."""
        data = np.empty(shape, dtype=dtype)
        record = self.pool.allocate(data.nbytes, label=label)
        return DeviceArray(self, data, record, label=label)

    def zeros(
        self, shape: Union[int, Tuple[int, ...]], dtype: DTypeLike = np.uint32,
        label: str = "",
    ) -> DeviceArray:
        """Allocate a zero-initialised device array (``cudaMalloc`` + memset)."""
        array = self.alloc(shape, dtype=dtype, label=label)
        array.data[...] = 0
        return array

    def from_host(self, host: np.ndarray, label: str = "") -> DeviceArray:
        """Copy a host array to the device (``cudaMemcpyHostToDevice``)."""
        host = np.asarray(host)
        array = self.alloc(host.shape, dtype=host.dtype, label=label)
        array.data[...] = host
        return array

    def double_buffer(
        self, size: int, dtype: DTypeLike = np.uint32, label: str = ""
    ) -> DoubleBuffer:
        """Allocate a ping-pong buffer pair of ``size`` elements each."""
        current = self.alloc(size, dtype=dtype, label=f"{label}.ping")
        alternate = self.alloc(size, dtype=dtype, label=f"{label}.pong")
        return DoubleBuffer(current, alternate)

    # ------------------------------------------------------------------ #
    # Kernel accounting
    # ------------------------------------------------------------------ #
    def record_kernel(
        self,
        name: str,
        *,
        coalesced_read_bytes: int = 0,
        coalesced_write_bytes: int = 0,
        random_read_bytes: int = 0,
        random_write_bytes: int = 0,
        filter_read_bytes: int = 0,
        filter_write_bytes: int = 0,
        work_items: int = 0,
        launches: int = 1,
    ) -> KernelStats:
        """Record the traffic of one simulated kernel and advance the clock."""
        stats = KernelStats(
            name=name,
            coalesced_read_bytes=int(coalesced_read_bytes),
            coalesced_write_bytes=int(coalesced_write_bytes),
            random_read_bytes=int(random_read_bytes),
            random_write_bytes=int(random_write_bytes),
            filter_read_bytes=int(filter_read_bytes),
            filter_write_bytes=int(filter_write_bytes),
            work_items=int(work_items),
            launches=int(launches),
        )
        self.counter.record(stats)
        self.simulated_seconds += self.cost_model.seconds_of(stats)
        return stats

    def grid_for(
        self, num_items: int, config: LaunchConfig = LaunchConfig()
    ) -> GridGeometry:
        """Resolve launch geometry for ``num_items`` on this device."""
        return make_grid(num_items, config=config, spec=self.spec)

    # ------------------------------------------------------------------ #
    # Timing helpers
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def timed_region(self, name: str, items: int = 0) -> Iterator[None]:
        """Profile a logical operation; see :class:`~repro.gpu.profiler.Profiler`."""
        with self.profiler.region(name, items=items):
            yield

    def elapsed_since(self, snapshot: CounterSnapshot) -> float:
        """Simulated seconds attributable to work done since ``snapshot``."""
        return self.cost_model.cost_of_snapshot(self.counter.since(snapshot)).seconds

    def snapshot(self) -> CounterSnapshot:
        """Capture the current counter totals (like ``cudaEventRecord``)."""
        return self.counter.snapshot()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def memory_info(self) -> dict:
        """Allocator statistics (used, peak, free)."""
        return self.pool.describe()

    def reset_counters(self) -> None:
        """Clear counters, the profiler and the simulated clock (memory is kept)."""
        self.counter.reset()
        self.profiler.clear()
        self.simulated_seconds = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Device({self.spec.name!r}, used={self.pool.used_bytes} B, "
            f"simulated={self.simulated_seconds * 1e3:.3f} ms)"
        )


# ---------------------------------------------------------------------- #
# Process-wide default device (mirrors CUDA's implicit current device)
# ---------------------------------------------------------------------- #
_default_device: Optional[Device] = None


def get_default_device() -> Device:
    """Return the process-wide default device, creating it on first use."""
    global _default_device
    if _default_device is None:
        _default_device = Device(K40C_SPEC)
    return _default_device


def set_default_device(device: Optional[Device]) -> None:
    """Replace (or clear, with ``None``) the process-wide default device."""
    global _default_device
    _default_device = device
