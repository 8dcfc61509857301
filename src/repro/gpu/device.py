"""The simulated GPU device.

A :class:`Device` is a clock plus bounded aggregates: the simulated seconds
every recorded kernel advances, the per-kernel-name and total traffic sums
of its :class:`~repro.gpu.counters.TrafficCounter`, the per-region sums of
its :class:`~repro.gpu.profiler.Profiler`, and a seeded RNG.  All
primitives in :mod:`repro.primitives` take a device argument (or use the
process-wide default) and report their kernel traffic through
:meth:`Device.record_kernel`, which is how simulated time is accumulated.
Nothing a device holds grows with the number of launches, so it can sit
under a serving engine indefinitely.  Typical usage::

    dev = Device(K40C_SPEC)
    before = dev.snapshot()
    radix_sort_keys(keys, device=dev)
    print(dev.elapsed_since(before), dev.counter.per_kernel)

A process-wide default device is kept for convenience (mirroring CUDA's
implicit current device); libraries that care about isolation — the test
suite and the benchmark harness — construct their own devices explicitly.
"""

from __future__ import annotations

from typing import ContextManager, Optional

import numpy as np

from repro.gpu.cost_model import CostModel
from repro.gpu.counters import CounterSnapshot, TrafficCounter
from repro.gpu.profiler import Profiler
from repro.gpu.spec import GPUSpec, K40C_SPEC


class Device:
    """A simulated GPU: clock + counters + cost model + profiler."""

    def __init__(self, spec: GPUSpec = K40C_SPEC, *, seed: Optional[int] = None) -> None:
        self.spec = spec
        self.counter = TrafficCounter()
        self.cost_model = CostModel(spec)
        self.profiler = Profiler(self.counter, self.cost_model)
        #: Simulated elapsed time, advanced by every recorded kernel.
        self.simulated_seconds = 0.0
        #: RNG used by primitives that need randomness (e.g. cuckoo rehash);
        #: seeding it makes every simulation reproducible.
        self.rng = np.random.default_rng(seed)

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
    ) -> None:
        """Record the traffic of one simulated kernel and advance the clock."""
        coalesced_read_bytes = int(coalesced_read_bytes)
        coalesced_write_bytes = int(coalesced_write_bytes)
        random_read_bytes = int(random_read_bytes)
        random_write_bytes = int(random_write_bytes)
        filter_read_bytes = int(filter_read_bytes)
        filter_write_bytes = int(filter_write_bytes)
        work_items = int(work_items)
        launches = int(launches)
        self.counter.record(
            name,
            coalesced_read_bytes,
            coalesced_write_bytes,
            random_read_bytes,
            random_write_bytes,
            filter_read_bytes,
            filter_write_bytes,
            work_items,
            launches,
        )
        self.simulated_seconds += self.cost_model.seconds(
            launches,
            coalesced_read_bytes + coalesced_write_bytes,
            random_read_bytes + random_write_bytes,
            filter_read_bytes + filter_write_bytes,
        )

    # ------------------------------------------------------------------ #
    # Timing helpers
    # ------------------------------------------------------------------ #
    def timed_region(self, name: str, items: int = 0) -> ContextManager[None]:
        """Profile a logical operation; see :class:`~repro.gpu.profiler.Profiler`."""
        return self.profiler.region(name, items=items)

    def elapsed_since(self, snapshot: CounterSnapshot) -> float:
        """Simulated seconds attributable to work done since ``snapshot``."""
        return self.cost_model.cost_of_snapshot(self.counter.since(snapshot)).seconds

    def snapshot(self) -> CounterSnapshot:
        """Capture the current counter totals (like ``cudaEventRecord``)."""
        return self.counter.snapshot()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def reset_counters(self) -> None:
        """Clear counters, the profiler and the simulated clock."""
        self.counter.reset()
        self.profiler.clear()
        self.simulated_seconds = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Device({self.spec.name!r}, "
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
