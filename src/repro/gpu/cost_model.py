"""Analytic performance model of the simulated GPU.

The paper reports throughput (M elements/s or M queries/s) measured on a
K40c.  We cannot measure those rates on a CPU; instead every simulated kernel
reports the DRAM traffic it would generate (see
:mod:`repro.gpu.counters`) and this module converts traffic into *simulated
time*:

``time = launches * launch_overhead
       + coalesced_bytes / effective_bandwidth
       + random_bytes   / random_bandwidth
       + filter_bytes   / filter_bandwidth``

This is the classic roofline/bandwidth-bound model.  It is a good fit here
because every primitive the GPU LSM is built from — radix sort, merge,
scan, segmented sort, compaction, binary search — is memory-bound on real
hardware, which is exactly why the paper reasons about its data structure in
terms of element movement (e.g. "our GPU sustains 770 M elements/s for
key-value radix sort", "in-memory transfers with 288 GB/s = 36 G elements/s").

The model reproduces the paper's headline *shapes*:

* insertion cost proportional to the number of elements merged, so the
  sawtooth of Figure 4a and the harmonic-mean gap of Table II follow from
  the LSM geometry itself;
* lookups dominated by random binary-search probes, so the GPU SA (one
  level) beats the GPU LSM (≈ log r levels) by the observed ~1.7×, and the
  cuckoo hash (O(1) probes) beats both;
* small batches dominated by launch overhead, reproducing the collapse of
  insertion rates for b = 2^15 … 2^17.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.gpu.counters import CounterSnapshot, KernelStats
from repro.gpu.spec import GPUSpec, K40C_SPEC


class AccessPattern(enum.Enum):
    """How a kernel touches global memory.

    ``COALESCED``
        Neighbouring threads touch neighbouring addresses; the kernel
        streams at (a large fraction of) peak bandwidth.  All the bulk
        primitives (sort, merge, scan, compact) are in this class.
    ``RANDOM``
        Each thread follows its own pointer chain (binary search probes,
        cuckoo probes).  Each 4-byte request costs a 32-byte transaction.
    ``FILTER``
        Scattered word probes into a compact, mostly-L2-resident structure
        (the per-level Bloom filters of the query acceleration layer).
        Cheaper than ``RANDOM`` — the bit array is a few bits per key, so
        it stays cached and a probe reads one word, not a 32-byte DRAM
        transaction — but still uncoalesced, so well short of streaming.
    """

    COALESCED = "coalesced"
    RANDOM = "random"
    FILTER = "filter"


@dataclass(frozen=True)
class KernelCost:
    """Simulated execution cost of one kernel (or group of kernels).

    Attributes
    ----------
    seconds:
        Simulated execution time.
    launch_seconds / coalesced_seconds / random_seconds / filter_seconds:
        Breakdown of the total into the four model terms, retained so the
        profiler can report which term dominates each operation.
    """

    seconds: float
    launch_seconds: float
    coalesced_seconds: float
    random_seconds: float
    filter_seconds: float = 0.0

    @staticmethod
    def zero() -> "KernelCost":
        return KernelCost(0.0, 0.0, 0.0, 0.0, 0.0)


class CostModel:
    """Converts kernel traffic into simulated time for a given device spec."""

    def __init__(self, spec: GPUSpec = K40C_SPEC) -> None:
        self.spec = spec
        # The spec is frozen; its four model rates are derived properties,
        # read once here instead of once per recorded kernel.
        self._launch_overhead_s = spec.kernel_launch_overhead_s
        self._coalesced_bytes_per_s = spec.effective_bandwidth_bytes_per_s
        self._random_bytes_per_s = spec.random_bandwidth_bytes_per_s
        self._filter_bytes_per_s = spec.filter_bandwidth_bytes_per_s

    # ------------------------------------------------------------------ #
    # Core conversion
    # ------------------------------------------------------------------ #
    def cost_of(self, stats: KernelStats) -> KernelCost:
        """Simulated cost of a single kernel record."""
        return self._cost(
            launches=stats.launches,
            coalesced_bytes=stats.coalesced_bytes,
            random_bytes=stats.random_bytes,
            filter_bytes=stats.filter_bytes,
        )

    def seconds(
        self, launches: int, coalesced_bytes: int, random_bytes: int, filter_bytes: int
    ) -> float:
        """Simulated seconds of that traffic: the model's four terms, added
        in this order.  This is the one place the formula is written; it
        advances a device's clock on every recorded kernel, and
        :meth:`cost_of` reads its breakdown off it term by term."""
        return (
            launches * self._launch_overhead_s
            + coalesced_bytes / self._coalesced_bytes_per_s
            + random_bytes / self._random_bytes_per_s
            + filter_bytes / self._filter_bytes_per_s
        )

    def cost_of_snapshot(self, snap: CounterSnapshot) -> KernelCost:
        """Simulated cost of everything captured in a counter snapshot
        difference (see :meth:`repro.gpu.counters.TrafficCounter.since`)."""
        return self._cost(
            launches=snap.launches,
            coalesced_bytes=snap.coalesced_bytes,
            random_bytes=snap.random_bytes,
            filter_bytes=snap.filter_bytes,
        )

    def _cost(
        self,
        *,
        launches: int,
        coalesced_bytes: int,
        random_bytes: int,
        filter_bytes: int = 0,
    ) -> KernelCost:
        # A term alone is the formula with the other three traffic classes
        # at zero (``x + 0.0 == x``), so the breakdown is exact.
        return KernelCost(
            seconds=self.seconds(launches, coalesced_bytes, random_bytes, filter_bytes),
            launch_seconds=self.seconds(launches, 0, 0, 0),
            coalesced_seconds=self.seconds(0, coalesced_bytes, 0, 0),
            random_seconds=self.seconds(0, 0, random_bytes, 0),
            filter_seconds=self.seconds(0, 0, 0, filter_bytes),
        )

    # ------------------------------------------------------------------ #
    # Convenience rate helper (used heavily by the benchmark harness)
    # ------------------------------------------------------------------ #
    @staticmethod
    def rate_m_per_s(items: int, seconds: float) -> float:
        """Items per second expressed in millions, the unit of every table
        in the paper.  Returns ``inf`` for a zero-time denominator."""
        if seconds <= 0.0:
            return float("inf")
        return items / seconds / 1e6
