"""Operation-level profiler for the simulated GPU.

The data structures bracket logical operations (one batch insertion, one
set of lookups, one cleanup, …) with :meth:`Profiler.region`; the profiler
sums, per region name, the kernel launches and traffic attributed to the
region and reports the simulated time the cost model assigns to them.  This
mirrors how the paper's measurements bracket operations with CUDA events.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ContextManager, Dict, List, Optional, Sequence

import numpy as np

from repro.gpu.cost_model import CostModel
from repro.gpu.counters import TrafficCounter


def percentile_summary(
    values: Sequence[float], percentiles: Sequence[int] = (50, 95, 99)
) -> Dict[str, float]:
    """Latency-style percentile columns (``p50`` / ``p95`` / ``p99`` …).

    The exact (linear-interpolation) percentiles that
    :class:`LatencyHistogram`, behind the serving telemetry of
    :meth:`repro.serve.engine.Engine.stats`, approximates under the same
    column names.  Empty input yields NaN columns, matching how the report
    writer renders missing cells.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return {f"p{p}": float("nan") for p in percentiles}
    return {f"p{p}": float(np.percentile(arr, p)) for p in percentiles}


@dataclass
class ProfileRecord:
    """One profiled region name: its calls, items, traffic and time, summed.

    :meth:`Profiler.by_name` holds one per region name, accumulated over
    every call; :attr:`Profiler.last` is the most recent call on its own
    (``calls == 1``).

    ``wall_seconds`` is the *host* wall-clock (``time.perf_counter``) the
    region took to simulate — a completely separate axis from the
    simulated ``seconds`` the cost model assigns to the summed traffic.
    Simulated time answers "how fast would the paper's GPU run this"; wall
    time answers "how fast does this reproduction actually run".
    """

    name: str
    cost_model: CostModel = field(repr=False, compare=False)
    calls: int = 0
    items: int = 0
    coalesced_bytes: int = 0
    random_bytes: int = 0
    filter_bytes: int = 0
    launches: int = 0
    wall_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        """Simulated seconds of the summed traffic."""
        return self.cost_model.seconds(
            self.launches, self.coalesced_bytes, self.random_bytes, self.filter_bytes
        )

    @property
    def rate_m_per_s(self) -> float:
        """Throughput in millions of items per simulated second."""
        return CostModel.rate_m_per_s(self.items, self.seconds)

    @property
    def wall_rate_per_s(self) -> float:
        """Throughput in items per *wall-clock* second (host speed)."""
        if self.wall_seconds <= 0:
            return float("nan")
        return self.items / self.wall_seconds


class _Region:
    """One :meth:`Profiler.region` bracket: the counter totals and the wall
    clock at entry, as plain ints and a float, and on a normal exit their
    deltas added in place to the name's record.  A body that raises
    records nothing."""

    __slots__ = (
        "_profiler", "_name", "_items",
        "_coalesced", "_random", "_filter", "_launches", "_wall",
    )

    def __init__(self, profiler: "Profiler", name: str, items: int) -> None:
        self._profiler = profiler
        self._name = name
        self._items = items

    def __enter__(self) -> None:
        counter = self._profiler._counter
        self._coalesced = counter.total_coalesced_bytes
        self._random = counter.total_random_bytes
        self._filter = counter.total_filter_bytes
        self._launches = counter.total_launches
        self._wall = time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._wall
        if exc_type is not None:
            return
        profiler, name = self._profiler, self._name
        counter = profiler._counter
        coalesced = counter.total_coalesced_bytes - self._coalesced
        random = counter.total_random_bytes - self._random
        filtered = counter.total_filter_bytes - self._filter
        launches = counter.total_launches - self._launches
        total = profiler._by_name.get(name)
        if total is None:
            total = profiler._by_name[name] = ProfileRecord(name, profiler._cost_model)
        total.calls += 1
        total.items += self._items
        total.coalesced_bytes += coalesced
        total.random_bytes += random
        total.filter_bytes += filtered
        total.launches += launches
        total.wall_seconds += wall
        profiler._last = (name, self._items, coalesced, random, filtered, launches, wall)


class Profiler:
    """Accumulates one :class:`ProfileRecord` per region name for a device's
    operations — memory bounded by the number of distinct names, however
    many regions run."""

    def __init__(self, counter: TrafficCounter, cost_model: CostModel) -> None:
        self._counter = counter
        self._cost_model = cost_model
        self._by_name: Dict[str, ProfileRecord] = {}
        self._last: Optional[tuple] = None

    def region(self, name: str, items: int = 0) -> ContextManager[None]:
        """Context manager bracketing one logical operation.

        ``items`` is the number of logical elements/queries processed by the
        region, used to convert simulated time into the M items/s rates the
        paper reports.  Regions nest (a sharded operation's region around its
        shards'); each sees the traffic recorded while it is open.
        """
        return _Region(self, name, items)

    @property
    def last(self) -> Optional[ProfileRecord]:
        """The most recent region on its own, ``None`` before the first."""
        if self._last is None:
            return None
        name, items, coalesced, random, filtered, launches, wall = self._last
        return ProfileRecord(
            name, self._cost_model, calls=1, items=items, coalesced_bytes=coalesced,
            random_bytes=random, filter_bytes=filtered, launches=launches,
            wall_seconds=wall,
        )

    def total_seconds(self, name_prefix: str = "") -> float:
        """Sum of simulated seconds for regions whose name starts with a prefix."""
        return sum(
            r.seconds for r in self._by_name.values() if r.name.startswith(name_prefix)
        )

    def total_wall_seconds(self, name_prefix: str = "") -> float:
        """Sum of host wall-clock seconds for regions matching a prefix."""
        return sum(
            r.wall_seconds
            for r in self._by_name.values()
            if r.name.startswith(name_prefix)
        )

    def by_name(self) -> Dict[str, ProfileRecord]:
        """The accumulated record of every region name, in first-seen order."""
        return self._by_name

    def clear(self) -> None:
        self._by_name.clear()
        self._last = None

    def summary_rows(self) -> List[Dict[str, object]]:
        """Flat dict rows for the report writer (one per region name)."""
        return [
            {
                "region": r.name,
                "calls": r.calls,
                "items": r.items,
                "simulated_ms": r.seconds * 1e3,
                "rate_m_per_s": r.rate_m_per_s,
                "coalesced_mib": r.coalesced_bytes / 1024**2,
                "random_mib": r.random_bytes / 1024**2,
                "kernel_launches": r.launches,
                "wall_ms": r.wall_seconds * 1e3,
            }
            for r in self._by_name.values()
        ]


class LatencyHistogram:
    """Bounded log-bucketed latency accumulator with O(1) recording.

    :func:`percentile_summary` recomputes ``np.percentile`` over the full
    sample list on every call — fine for a benchmark's one-shot report,
    quadratic for a long-running engine polling :meth:`Engine.stats
    <repro.serve.engine.Engine.stats>` between ticks.  This histogram
    keeps a fixed number of geometrically spaced buckets instead:
    ``record`` is a constant-time bucket increment, percentile queries
    walk the (constant-size) bucket array, and memory never grows with
    the number of samples.

    Buckets span ``[min_latency, max_latency)`` with ``bins_per_octave``
    buckets per factor of two, giving a bounded *relative* error of
    ``2 ** (1 / bins_per_octave) - 1`` (≈ 4.5 % at the default 16) —
    plenty for latency percentiles, whose inputs wobble far more than
    that run to run.  Exact mean, count, min, and max are tracked on the
    side.
    """

    __slots__ = ("_min", "_bins_per_octave", "_counts", "_count", "_sum",
                 "_min_seen", "_max_seen")

    def __init__(
        self,
        min_latency: float = 1e-7,
        max_latency: float = 128.0,
        bins_per_octave: int = 16,
    ) -> None:
        if not (0 < min_latency < max_latency):
            raise ValueError("need 0 < min_latency < max_latency")
        if bins_per_octave < 1:
            raise ValueError("bins_per_octave must be >= 1")
        self._min = float(min_latency)
        self._bins_per_octave = int(bins_per_octave)
        octaves = math.log2(max_latency / min_latency)
        num_bins = int(math.ceil(octaves * bins_per_octave)) + 1
        self._counts = np.zeros(num_bins, dtype=np.int64)
        self._count = 0
        self._sum = 0.0
        self._min_seen = math.inf
        self._max_seen = -math.inf

    def _bin_of(self, value: float) -> int:
        if value <= self._min:
            return 0
        bin_index = int(math.log2(value / self._min) * self._bins_per_octave)
        return min(bin_index, self._counts.size - 1)

    def record(self, value: float) -> None:
        """Add one sample (seconds) — O(1)."""
        self.record_weighted(value, 1)

    def record_weighted(self, value: float, weight: int) -> None:
        """Add ``weight`` identical samples in one O(1) update — the shape
        a tick's resolution produces (every op of one submission shares
        one submit→resolve latency)."""
        if weight <= 0:
            return
        value = float(value)
        self._counts[self._bin_of(value)] += weight
        self._count += weight
        self._sum += value * weight
        if value < self._min_seen:
            self._min_seen = value
        if value > self._max_seen:
            self._max_seen = value

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else float("nan")

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0–100), to within one bucket's width.

        Returns the geometric midpoint of the bucket holding the rank,
        clamped to the exact observed min/max so single-sample and
        extreme queries stay sharp.
        """
        if self._count == 0:
            return float("nan")
        rank = (p / 100.0) * self._count
        cumulative = np.cumsum(self._counts)
        bin_index = int(np.searchsorted(cumulative, max(rank, 1), side="left"))
        if bin_index == 0:
            # The underflow bin holds everything <= min_latency; its only
            # sharp representative is the exact observed minimum.
            mid = self._min_seen
        elif bin_index == self._counts.size - 1:
            mid = self._max_seen  # overflow bin: ditto for the maximum
        else:
            lo = self._min * 2.0 ** (bin_index / self._bins_per_octave)
            hi = self._min * 2.0 ** ((bin_index + 1) / self._bins_per_octave)
            mid = math.sqrt(lo * hi)
        return float(min(max(mid, self._min_seen), self._max_seen))

    def summary(
        self, percentiles: Sequence[int] = (50, 95, 99)
    ) -> Dict[str, float]:
        """The :func:`percentile_summary` columns plus ``mean`` — the
        drop-in dict the serving telemetry exposes."""
        out = {f"p{p}": self.percentile(p) for p in percentiles}
        out["mean"] = self.mean
        return out

    def clear(self) -> None:
        self._counts[:] = 0
        self._count = 0
        self._sum = 0.0
        self._min_seen = math.inf
        self._max_seen = -math.inf
