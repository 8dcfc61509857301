"""Traffic and kernel statistics counters.

Every simulated kernel reports the global-memory traffic it generates
(bytes read / written, split into coalesced and random access) plus a count
of "work items" (threads that did useful work).  The :class:`TrafficCounter`
sums these per kernel name and in total; the cost model converts traffic
into simulated time.

What a device remembers of its launches is those sums and nothing else: a
record updates one :class:`KernelStats` per kernel *name* and five totals
in place, so the memory accounting holds is bounded by the number of
distinct kernel names however long the device lives.  (A test that needs
the ordered launches notes them itself — ``tests/conftest.py``'s
``recording_device``.)

The counters are plain Python ints updated once per kernel launch, not per
element — cheap, but measurable: one ``Device.record_kernel`` (the in-place
aggregate, the totals, the clock) costs about 0.6 µs of host time, and a
sharded read-mostly tick makes a few hundred of them.  That is why a
primitive records one kernel per modelled launch from sizes, and never per
element or per Python-level step, and why a sequence that repeats with
identical sizes (a radix sort's digit passes) is recorded in one
``Device.record_kernels`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: One kernel launch as :meth:`repro.gpu.device.Device.record_kernels` takes
#: it: the :class:`KernelStats` fields in declaration order, name first.
Launch = Tuple[str, int, int, int, int, int, int, int, int]


@dataclass
class KernelStats:
    """Memory traffic and work generated by the launches of one simulated
    kernel — summed over every record of its name in
    :attr:`TrafficCounter.per_kernel`.

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
        Number of physical kernel launches (one record may stand for
        several: the merge reports its partition and merge kernels as one
        record with ``launches=2``).
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


@dataclass
class TrafficCounter:
    """Sums kernel traffic over the lifetime of a device.

    The counter keeps a per-kernel-name aggregate (for profiling reports)
    and the totals.  It also offers a simple epoch mechanism:
    :meth:`snapshot` captures the totals so callers can measure the traffic
    of a region of code by differencing two snapshots — the same pattern as
    ``cudaEventRecord`` bracketing.
    """

    per_kernel: Dict[str, KernelStats] = field(default_factory=dict)
    total_coalesced_bytes: int = 0
    total_random_bytes: int = 0
    total_filter_bytes: int = 0
    total_launches: int = 0
    total_work_items: int = 0

    def record(
        self,
        name: str,
        coalesced_read_bytes: int = 0,
        coalesced_write_bytes: int = 0,
        random_read_bytes: int = 0,
        random_write_bytes: int = 0,
        filter_read_bytes: int = 0,
        filter_write_bytes: int = 0,
        work_items: int = 0,
        launches: int = 1,
    ) -> None:
        """Add one kernel record to its name's aggregate and the totals."""
        total = self.per_kernel.get(name)
        if total is None:
            total = self.per_kernel[name] = KernelStats(name, launches=0)
        total.coalesced_read_bytes += coalesced_read_bytes
        total.coalesced_write_bytes += coalesced_write_bytes
        total.random_read_bytes += random_read_bytes
        total.random_write_bytes += random_write_bytes
        total.filter_read_bytes += filter_read_bytes
        total.filter_write_bytes += filter_write_bytes
        total.work_items += work_items
        total.launches += launches
        self.total_coalesced_bytes += coalesced_read_bytes + coalesced_write_bytes
        self.total_random_bytes += random_read_bytes + random_write_bytes
        self.total_filter_bytes += filter_read_bytes + filter_write_bytes
        self.total_launches += launches
        self.total_work_items += work_items

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
        )

    def since(self, snap: "CounterSnapshot") -> "CounterSnapshot":
        """Return the traffic recorded since ``snap`` was taken."""
        return CounterSnapshot(
            coalesced_bytes=self.total_coalesced_bytes - snap.coalesced_bytes,
            random_bytes=self.total_random_bytes - snap.random_bytes,
            filter_bytes=self.total_filter_bytes - snap.filter_bytes,
            launches=self.total_launches - snap.launches,
            work_items=self.total_work_items - snap.work_items,
        )

    def reset(self) -> None:
        """Clear all recorded statistics."""
        self.per_kernel.clear()
        self.total_coalesced_bytes = 0
        self.total_random_bytes = 0
        self.total_filter_bytes = 0
        self.total_launches = 0
        self.total_work_items = 0


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable capture of a :class:`TrafficCounter`'s totals."""

    coalesced_bytes: int
    random_bytes: int
    launches: int
    work_items: int
    filter_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.coalesced_bytes + self.random_bytes + self.filter_bytes
