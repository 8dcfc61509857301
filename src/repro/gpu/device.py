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

from operator import index as _index
from typing import ContextManager, Optional, Sequence

import numpy as np

from repro.gpu.cost_model import CostModel
from repro.gpu.counters import CounterSnapshot, KernelStats, Launch, TrafficCounter
from repro.gpu.profiler import Profiler
from repro.gpu.spec import GPUSpec, K40C_SPEC


class Device:
    """A simulated GPU: clock + counters + cost model + profiler."""

    def __init__(self, spec: GPUSpec = K40C_SPEC, *, seed: Optional[int] = None) -> None:
        self.spec = spec
        self.counter = TrafficCounter()
        self.cost_model = CostModel(spec)
        self.profiler = Profiler(self.counter, self.cost_model)
        self._seconds = self.cost_model.seconds
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
        """Record the traffic of one simulated kernel and advance the clock.

        :meth:`TrafficCounter.record <repro.gpu.counters.TrafficCounter.record>`
        written out in place — this runs once per modelled launch, so it is
        one frame plus the cost model's :meth:`~repro.gpu.cost_model.CostModel.seconds`.
        """
        # ``operator.index``: a NumPy integer becomes a Python int (the
        # aggregates stay plain ints) at a third of ``int``'s price; a zero
        # field — most of them, in most records — skips even that.
        cr = _index(coalesced_read_bytes) if coalesced_read_bytes else 0
        cw = _index(coalesced_write_bytes) if coalesced_write_bytes else 0
        rr = _index(random_read_bytes) if random_read_bytes else 0
        rw = _index(random_write_bytes) if random_write_bytes else 0
        fr = _index(filter_read_bytes) if filter_read_bytes else 0
        fw = _index(filter_write_bytes) if filter_write_bytes else 0
        work_items = _index(work_items) if work_items else 0
        launches = _index(launches)
        counter = self.counter
        stats = counter.per_kernel.get(name)
        if stats is None:
            stats = counter.per_kernel[name] = KernelStats(name, launches=0)
        stats.coalesced_read_bytes += cr
        stats.coalesced_write_bytes += cw
        stats.random_read_bytes += rr
        stats.random_write_bytes += rw
        stats.filter_read_bytes += fr
        stats.filter_write_bytes += fw
        stats.work_items += work_items
        stats.launches += launches
        coalesced, random, filtered = cr + cw, rr + rw, fr + fw
        counter.total_coalesced_bytes += coalesced
        counter.total_random_bytes += random
        counter.total_filter_bytes += filtered
        counter.total_launches += launches
        counter.total_work_items += work_items
        self.simulated_seconds += self._seconds(launches, coalesced, random, filtered)

    def record_kernels(self, kernels: Sequence[Launch], repeats: int = 1) -> None:
        """Record ``repeats`` back-to-back runs of a kernel sequence whose
        sizes do not change between runs (a radix sort's digit passes) —
        exactly what that many ``record_kernel`` calls in launch order
        would leave.

        Each launch is a tuple of :class:`~repro.gpu.counters.KernelStats`
        fields, name first.  The integer aggregates take ``repeats`` times
        each launch at once, but the clock still adds every launch's
        seconds one by one, in launch order: ``repeats × seconds`` would
        round differently.
        """
        if repeats <= 0:
            return
        seconds = []
        for name, cr, cw, rr, rw, fr, fw, work_items, launches in kernels:
            self.counter.record(
                name, cr * repeats, cw * repeats, rr * repeats, rw * repeats,
                fr * repeats, fw * repeats, work_items * repeats, launches * repeats,
            )
            seconds.append(self._seconds(launches, cr + cw, rr + rw, fr + fw))
        clock = self.simulated_seconds
        for _ in range(repeats):
            for launch_seconds in seconds:
                clock += launch_seconds
        self.simulated_seconds = clock

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
