"""Traffic and kernel statistics counters.

Every simulated kernel reports the global-memory traffic it generates
(bytes read / written, split into coalesced and random access) plus a count
of "work items" (threads that did useful work).  The :class:`TrafficCounter`
aggregates these per kernel and per logical operation; the cost model then
converts a :class:`KernelStats` record into simulated time.

The counters are plain Python ints updated once per kernel launch, not per
element — cheap, but measurable: one ``Device.record_kernel`` (the record for
the log, the in-place per-kernel aggregate, the clock) costs about 3 µs of
host time, so a mixed tick's ~60 launches spend ~0.2 ms recording.  That is
why a primitive records one kernel per modelled launch from sizes, and never
per element or per Python-level step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List


@dataclass
class KernelStats:
    """Memory traffic and work generated by one simulated kernel launch.

    Attributes
    ----------
    name:
        Kernel identifier, e.g. ``"radix_sort.digit_pass"``.
    coalesced_read_bytes / coalesced_write_bytes:
        Bytes moved through DRAM with fully coalesced (streaming) access.
    random_read_bytes / random_write_bytes:
        Bytes moved with effectively random access (binary-search probes,
        hash probes, scattered writes).
    filter_read_bytes / filter_write_bytes:
        Bytes moved by *filter probes* — scattered word accesses into a
        compact, mostly-L2-resident structure (the per-level Bloom
        filters).  Cheaper than full random transactions, dearer than
        streaming; the cost model charges them at the spec's filter
        bandwidth.
    work_items:
        Number of logical threads that performed work; used for occupancy
        based adjustments and sanity checks in tests.
    launches:
        Number of physical kernel launches this record represents (a
        multi-pass primitive such as radix sort reports one record with
        ``launches = number_of_passes``).
    """

    name: str
    coalesced_read_bytes: int = 0
    coalesced_write_bytes: int = 0
    random_read_bytes: int = 0
    random_write_bytes: int = 0
    filter_read_bytes: int = 0
    filter_write_bytes: int = 0
    work_items: int = 0
    launches: int = 1

    @property
    def coalesced_bytes(self) -> int:
        """Total coalesced traffic (read + write)."""
        return self.coalesced_read_bytes + self.coalesced_write_bytes

    @property
    def random_bytes(self) -> int:
        """Total random-access traffic (read + write)."""
        return self.random_read_bytes + self.random_write_bytes

    @property
    def filter_bytes(self) -> int:
        """Total filter-probe traffic (read + write)."""
        return self.filter_read_bytes + self.filter_write_bytes

    @property
    def total_bytes(self) -> int:
        """All DRAM traffic attributed to this kernel."""
        return self.coalesced_bytes + self.random_bytes + self.filter_bytes

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Return a new record combining this one with ``other``.

        The name of ``self`` is kept; used when accumulating repeated
        launches of the same kernel.
        """
        return KernelStats(
            name=self.name,
            coalesced_read_bytes=self.coalesced_read_bytes + other.coalesced_read_bytes,
            coalesced_write_bytes=self.coalesced_write_bytes
            + other.coalesced_write_bytes,
            random_read_bytes=self.random_read_bytes + other.random_read_bytes,
            random_write_bytes=self.random_write_bytes + other.random_write_bytes,
            filter_read_bytes=self.filter_read_bytes + other.filter_read_bytes,
            filter_write_bytes=self.filter_write_bytes + other.filter_write_bytes,
            work_items=self.work_items + other.work_items,
            launches=self.launches + other.launches,
        )

    def scaled(self, factor: float) -> "KernelStats":
        """Return a copy with all traffic scaled by ``factor`` (used by the
        workload extrapolation helpers in the benchmark harness)."""
        return KernelStats(
            name=self.name,
            coalesced_read_bytes=int(self.coalesced_read_bytes * factor),
            coalesced_write_bytes=int(self.coalesced_write_bytes * factor),
            random_read_bytes=int(self.random_read_bytes * factor),
            random_write_bytes=int(self.random_write_bytes * factor),
            filter_read_bytes=int(self.filter_read_bytes * factor),
            filter_write_bytes=int(self.filter_write_bytes * factor),
            work_items=int(self.work_items * factor),
            launches=self.launches,
        )


@dataclass
class TrafficCounter:
    """Aggregates :class:`KernelStats` over the lifetime of a device.

    The counter keeps both a per-kernel-name aggregate (for profiling
    reports) and a chronological log (for the profiler timeline).  It also
    tracks a simple epoch mechanism: :meth:`snapshot` captures the totals so
    callers can measure the traffic of a region of code by differencing two
    snapshots — the same pattern as ``cudaEventRecord`` bracketing.
    """

    per_kernel: Dict[str, KernelStats] = field(default_factory=dict)
    log: List[KernelStats] = field(default_factory=list)
    total_coalesced_bytes: int = 0
    total_random_bytes: int = 0
    total_filter_bytes: int = 0
    total_launches: int = 0
    total_work_items: int = 0

    def record(self, stats: KernelStats) -> None:
        """Add one kernel launch record to the aggregate."""
        self.log.append(stats)
        total = self.per_kernel.get(stats.name)
        if total is None:
            # A copy: the aggregate is updated in place, a log entry never.
            self.per_kernel[stats.name] = replace(stats)
        else:
            total.coalesced_read_bytes += stats.coalesced_read_bytes
            total.coalesced_write_bytes += stats.coalesced_write_bytes
            total.random_read_bytes += stats.random_read_bytes
            total.random_write_bytes += stats.random_write_bytes
            total.filter_read_bytes += stats.filter_read_bytes
            total.filter_write_bytes += stats.filter_write_bytes
            total.work_items += stats.work_items
            total.launches += stats.launches
        self.total_coalesced_bytes += stats.coalesced_bytes
        self.total_random_bytes += stats.random_bytes
        self.total_filter_bytes += stats.filter_bytes
        self.total_launches += stats.launches
        self.total_work_items += stats.work_items

    @property
    def total_bytes(self) -> int:
        """Total DRAM traffic recorded so far."""
        return (
            self.total_coalesced_bytes
            + self.total_random_bytes
            + self.total_filter_bytes
        )

    def snapshot(self) -> "CounterSnapshot":
        """Capture the current totals for later differencing."""
        return CounterSnapshot(
            coalesced_bytes=self.total_coalesced_bytes,
            random_bytes=self.total_random_bytes,
            filter_bytes=self.total_filter_bytes,
            launches=self.total_launches,
            work_items=self.total_work_items,
            log_length=len(self.log),
        )

    def since(self, snap: "CounterSnapshot") -> "CounterSnapshot":
        """Return the traffic recorded since ``snap`` was taken."""
        return CounterSnapshot(
            coalesced_bytes=self.total_coalesced_bytes - snap.coalesced_bytes,
            random_bytes=self.total_random_bytes - snap.random_bytes,
            filter_bytes=self.total_filter_bytes - snap.filter_bytes,
            launches=self.total_launches - snap.launches,
            work_items=self.total_work_items - snap.work_items,
            log_length=len(self.log) - snap.log_length,
        )

    def kernels_since(self, snap: "CounterSnapshot") -> List[KernelStats]:
        """Return the chronological kernel log recorded since ``snap``."""
        return list(self.log[snap.log_length :])

    def reset(self) -> None:
        """Clear all recorded statistics."""
        self.per_kernel.clear()
        self.log.clear()
        self.total_coalesced_bytes = 0
        self.total_random_bytes = 0
        self.total_filter_bytes = 0
        self.total_launches = 0
        self.total_work_items = 0

    def __iter__(self) -> Iterator[KernelStats]:
        return iter(self.log)

    def __len__(self) -> int:
        return len(self.log)


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable capture of a :class:`TrafficCounter`'s totals."""

    coalesced_bytes: int
    random_bytes: int
    launches: int
    work_items: int
    log_length: int
    filter_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.coalesced_bytes + self.random_bytes + self.filter_bytes
