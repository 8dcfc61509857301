"""Keyspace-sharded dictionary front-end over per-shard GPU LSMs.

The GPU LSM of the paper is a single-device structure; the first genuine
scale-out step is to partition the 31-bit original-key domain into
``num_shards`` contiguous ranges and run one independent GPU LSM per range,
each on its own simulated device — the multi-GPU layout the paper's
conclusion points at ("scaling to multiple GPUs").  The front-end stays
batch-oriented end to end:

* **Updates** are canonicalised exactly like one LSM batch (full-word radix
  sort, then one surviving operation per key: the tombstone if the batch
  deletes the key, else the first insertion — rules 4 and 6 of Section
  III-A) and then routed with a single stable ``multisplit`` keyed on the
  shard id.  Each shard applies its contiguous segment through its own
  insertion cascade; segments larger than the shard batch size are applied
  in chunks, which is safe because canonicalisation left at most one
  operation per key.
* **Lookups** are routed with the same multisplit (the query's original
  position rides along as the multisplit value) and scattered back into the
  caller's order.
* **Count / range queries** clip each ``[k1, k2]`` interval against every
  shard's key range; per-shard results are merged back into the paper's
  flat output layout, ascending shard order keeping each query's results
  key-sorted.

That is what the devices are *charged* for.  The host makes **one
key-ordered pass per operation**: shards are contiguous key ranges, so a
batch ordered by key is already grouped by shard — one ``argsort`` and one
search of the boundaries replace the multisplit's host side, every shard
receives a sorted slice through an internal entry point that neither
re-validates nor re-orders it (``GPULSM._lookup_sorted`` / ``_push_run``),
and COUNT/RANGE run :func:`repro.core.ranges.query_ranges` once over all
(query, shard) pairs.  Every device still receives the records of its own
share, from the per-shard sizes (``docs/architecture.md``, "One pass over
the shards").

Every shard owns a private :class:`~repro.gpu.Device`, and the routing work
runs on a dedicated router device, so the profiler can report both the
*serial* cost (sum over devices — total work) and the *parallel* cost
(router plus the slowest shard — wall clock with all shards running
concurrently), which is what the sharded benchmark workload reports.

**Load-aware rebalancing.**  The shard ranges are no longer fixed: the
front-end keeps a sorted boundary array (shard ``s`` owns ``[bounds[s],
bounds[s+1])``), tracks per-shard routed traffic (lifetime totals, an EWMA
of per-call counts, and an in-range key histogram — all host-side, free of
simulated device cost), and exposes :meth:`split_shard` /
:meth:`merge_shards` primitives that migrate a range online: drain the
affected shards' live rows with one whole-range ``range_query``, bulk-build
the replacement shards, swap the boundaries, and bump the top-level
structural epoch so pinned SNAPSHOT/STRICT readers and the epoch-keyed
read cache can never observe a half-moved range.  A
:class:`~repro.scale.rebalance.LoadImbalancePolicy` drives the primitives
from :meth:`run_due_maintenance`, which the serving engine already polls
between ticks; with ``rebalance_policy=None`` (the default) nothing moves
and the front-end behaves bit-identically to the fixed-partition layout.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import sort_update_run
from repro.core.config import LSMConfig
from repro.core.encoding import STATUS_REGULAR, STATUS_TOMBSTONE
from repro.core.filters import FilterStatsCounter
from repro.core.lsm import (
    GPULSM,
    LookupResult,
    RangeResult,
    answer_ranges,
    lookup_in_key_order,
)
from repro.core.maintenance import MaintenancePolicy, MaintenanceStatsCounter
from repro.core.ranges import query_ranges
from repro.core.run import SortedRun
from repro.gpu.device import Device
from repro.gpu.spec import GPUSpec, K40C_SPEC
from repro.primitives.multisplit import MAX_WARP_BUCKETS, record_multisplit
from repro.primitives.scan import record_exclusive_scan

#: Smoothing factor of the per-shard traffic EWMA: each routed front-end
#: call contributes this fraction of the new signal, so the estimate
#: follows a moved hotspot within a handful of calls while staying stable
#: against single-batch noise.
TRAFFIC_EWMA_ALPHA = 0.25

#: Buckets of each shard's in-range traffic histogram — the split-point
#: signal.  32 buckets resolve a split key to ~3% of the shard's range,
#: plenty for a structure that re-splits every few ticks while staying a
#: few hundred bytes of host memory per shard.
TRAFFIC_HIST_BUCKETS = 32


def _floor_pow2(n: int) -> int:
    return 1 << (max(1, n).bit_length() - 1)


class ShardedLSM:
    """A dictionary sharded by contiguous key range over per-shard GPU LSMs.

    Parameters
    ----------
    num_shards:
        Number of key-range shards, ``1 <= num_shards <= 32`` (one
        warp-level multisplit pass routes a batch).
    batch_size:
        The front-end batch size ``b``: one update call carries at most
        this many operations, like :meth:`GPULSM.insert`.
    shard_batch_size:
        Batch size of each per-shard LSM.  Defaults to the largest power of
        two not exceeding ``batch_size / num_shards`` (so a uniformly
        routed front-end batch fills roughly one batch per shard); must be
        a power of two ≥ 2.
    key_only:
        When true no value columns are stored anywhere.
    key_domain:
        Size of the routed key domain; keys must lie in ``[0,
        key_domain)``.  Defaults to the full 31-bit original-key domain.
        Tests shrink it so small keyspaces still spread across shards.
    spec:
        Device spec used for the router device and every shard device.
    validate_invariants:
        Forwarded to every per-shard :class:`LSMConfig` (slow; for tests).
    enable_fences / bloom_bits_per_key / sort_queries /
    sorted_probe_cached_probes:
        Query-acceleration knobs, forwarded verbatim into every per-shard
        :class:`LSMConfig` — each shard builds its own per-level fence
        pairs and Bloom filters and prunes its probes independently;
        :meth:`filter_stats` aggregates the pruning statistics across
        shards.  ``sorted_probe_cached_probes`` defaults to the
        :class:`LSMConfig` default when ``None``.
    maintenance_policy:
        Optional :class:`~repro.core.maintenance.MaintenancePolicy`
        forwarded into every per-shard :class:`LSMConfig`.
        :meth:`run_due_maintenance` evaluates it **per shard** — each
        shard reads its own stale-fraction estimate and occupied-level
        count — and compacts only the shards that trip their threshold.
    rebalance_policy:
        Optional front-end-level policy (normally a
        :class:`~repro.scale.rebalance.LoadImbalancePolicy`) evaluated by
        :meth:`run_due_maintenance` **after** the per-shard pass; when it
        trips, the rebalance executor splits the hottest shard (merging
        the coldest adjacent pair first when the shard count is at
        ``max_shards``).  ``None`` — the default — keeps the partition
        static and the whole stack bit-identical to the pre-rebalancing
        front-end.
    max_shards:
        Upper bound the rebalancer may grow the shard count to (at most
        ``32``, the routing multisplit's bucket limit).  Defaults to the
        initial ``num_shards``, making rebalancing purely a boundary
        re-shaping at constant shard count.
    """

    def __init__(
        self,
        num_shards: int,
        batch_size: int = 1 << 16,
        shard_batch_size: Optional[int] = None,
        key_only: bool = False,
        key_domain: Optional[int] = None,
        spec: GPUSpec = K40C_SPEC,
        validate_invariants: bool = False,
        seed: int = 0,
        enable_fences: bool = False,
        bloom_bits_per_key: int = 0,
        sort_queries: bool = False,
        sorted_probe_cached_probes: Optional[int] = None,
        maintenance_policy: Optional[MaintenancePolicy] = None,
        rebalance_policy: Optional[MaintenancePolicy] = None,
        max_shards: Optional[int] = None,
    ) -> None:
        if not 1 <= num_shards <= MAX_WARP_BUCKETS:
            raise ValueError(
                f"num_shards must be in [1, {MAX_WARP_BUCKETS}] "
                "(one warp-level multisplit routes a batch)"
            )
        if batch_size < 2 or batch_size & (batch_size - 1):
            raise ValueError("batch_size must be a power of two and at least 2")
        if shard_batch_size is None:
            shard_batch_size = max(2, _floor_pow2(batch_size // num_shards))
        if max_shards is None:
            max_shards = num_shards
        if not 1 <= max_shards <= MAX_WARP_BUCKETS:
            raise ValueError(
                f"max_shards must be in [1, {MAX_WARP_BUCKETS}] "
                "(one warp-level multisplit routes a batch)"
            )
        self.num_shards = num_shards
        self.batch_size = batch_size
        self.shard_batch_size = shard_batch_size
        self.key_only = key_only
        self.spec = spec
        self.rebalance_policy = rebalance_policy
        self.max_shards = int(max_shards)
        self.router_device = Device(spec, seed=seed)
        accel_overrides = (
            {}
            if sorted_probe_cached_probes is None
            else {"sorted_probe_cached_probes": sorted_probe_cached_probes}
        )
        self.shard_config = LSMConfig(
            batch_size=shard_batch_size,
            validate_invariants=validate_invariants,
            enable_fences=enable_fences,
            bloom_bits_per_key=bloom_bits_per_key,
            sort_queries=sort_queries,
            maintenance_policy=maintenance_policy,
            **accel_overrides,
        )
        self.encoder = self.shard_config.encoder
        if key_domain is None:
            key_domain = self.encoder.max_key + 1
        if not 1 <= key_domain <= self.encoder.max_key + 1:
            raise ValueError("key_domain must be in [1, max_key + 1]")
        self.key_domain = int(key_domain)
        #: Width of the *initial* fixed partition (the last shard may cover
        #: a shorter tail of the domain).
        self.shard_width = -(-self.key_domain // num_shards)
        #: Sorted shard boundaries: shard ``s`` owns keys in
        #: ``[bounds[s], bounds[s+1])``; ``bounds[0] == 0`` and
        #: ``bounds[-1] == key_domain`` always.
        self._bounds = np.minimum(
            np.arange(num_shards + 1, dtype=np.int64) * self.shard_width,
            self.key_domain,
        )
        self._boundary_version = 0
        self._epoch_base = 0
        self.shards: List[GPULSM] = [
            GPULSM(
                config=self.shard_config,
                device=Device(spec, seed=seed + 1 + s),
                key_only=key_only,
            )
            for s in range(num_shards)
        ]
        # Traffic accounting (host-side bookkeeping only: no simulated
        # kernel is recorded, so the accounting itself is cost-free and
        # the default-off stack stays bit-identical).
        self._traffic_total = np.zeros(num_shards, dtype=np.int64)
        self._traffic_ewma = np.zeros(num_shards, dtype=np.float64)
        self._traffic_hist = np.zeros(
            (num_shards, TRAFFIC_HIST_BUCKETS), dtype=np.float64
        )
        self._traffic_since_rebalance = 0
        # Rebalance lifetime counters (surfaced via rebalance_stats()).
        self._rebalance_runs = 0
        self._rebalance_splits = 0
        self._rebalance_merges = 0
        self._rebalance_rows_migrated = 0
        # Lifetime counters of shards a rebalance replaced — the front-end
        # totals stay monotone across migrations.
        self._retired_insertions = 0
        self._retired_deletions = 0
        self._retired_maintenance = MaintenanceStatsCounter()
        self._retired_filters = FilterStatsCounter()
        # Devices freed by merges, reused by later splits; their clocks
        # keep counting toward the serial profile.
        self._spare_devices: List[Device] = []
        self._next_device_seed = seed + 1 + num_shards
        #: Optional :class:`~repro.durability.faults.FaultInjector` the
        #: rebalance executor checks at ``rebalance.mid_migrate`` (test-only
        #: crash point between the merge and split halves of a run).
        self.fault_injector = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @classmethod
    def supported_operations(cls) -> frozenset:
        """The dictionary operations the sharded front-end routes (the full
        GPU LSM surface — every shard is a GPU LSM)."""
        return GPULSM.supported_operations()

    @property
    def num_elements(self) -> int:
        """Physically resident elements across all shards (stale included)."""
        return sum(shard.num_elements for shard in self.shards)

    @property
    def shard_epochs(self) -> Tuple[int, ...]:
        """Per-shard structural epochs (each shard's own counter); their
        sum is the moving part of :attr:`epoch`."""
        return tuple(shard.epoch for shard in self.shards)

    @property
    def epoch(self) -> int:
        """Monotone top-level structural epoch — the one token the planner
        pins, the read cache keys on and a checkpoint records.

        The per-shard epoch sum plus a base rebased on every boundary
        change.  Every shard counter only grows, so any shard mutation
        raises the sum; a split/merge rebuilds shards whose fresh counters
        start near zero, so the raw sum could *alias* an earlier state —
        the base is set so the property still moves strictly forward.  It
        therefore changes exactly when ``(boundary_version,
        shard_epochs)`` does.
        """
        return self._epoch_base + sum(self.shard_epochs)

    @property
    def boundary_version(self) -> int:
        """Monotone counter of shard-boundary changes (splits, merges and
        recovery restores); each one also advances :attr:`epoch`."""
        return self._boundary_version

    @property
    def shard_bounds(self) -> Tuple[int, ...]:
        """The sorted boundary keys: shard ``s`` owns ``[bounds[s],
        bounds[s+1])``; durability manifests record this tuple."""
        return tuple(int(b) for b in self._bounds)

    @property
    def total_insertions(self) -> int:
        return self._retired_insertions + sum(
            shard.total_insertions for shard in self.shards
        )

    @property
    def total_deletions(self) -> int:
        return self._retired_deletions + sum(
            shard.total_deletions for shard in self.shards
        )

    @property
    def memory_usage_bytes(self) -> int:
        return sum(shard.memory_usage_bytes for shard in self.shards)

    @property
    def filter_memory_bytes(self) -> int:
        """Device bytes held by all shards' query filters."""
        return sum(shard.filter_memory_bytes for shard in self.shards)

    def filter_stats(self) -> dict:
        """Aggregated query-filter pruning statistics across every shard
        (same schema as :meth:`repro.core.lsm.GPULSM.filter_stats`),
        including the lifetime counters of shards a rebalance replaced."""
        combined = FilterStatsCounter()
        combined.merge(self._retired_filters)
        for shard in self.shards:
            shard._filter_stats.filter_memory_bytes = shard.filter_memory_bytes
            combined.merge(shard._filter_stats)
        return combined.as_dict()

    def build_pending_filters(self) -> None:
        """Every shard's :meth:`~repro.core.lsm.GPULSM.build_pending_filters`
        (a shard a later split creates starts pending again)."""
        for shard in self.shards:
            shard.build_pending_filters()

    def __len__(self) -> int:
        return self.num_elements

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedLSM(shards={self.num_shards}, b={self.batch_size}, "
            f"shard_b={self.shard_batch_size}, elements={self.num_elements})"
        )

    def shard_range(self, s: int) -> Tuple[int, int]:
        """Inclusive key range ``[lo, hi]`` owned by shard ``s``."""
        return int(self._bounds[s]), int(self._bounds[s + 1]) - 1

    def _shard_ids(self, keys: np.ndarray) -> np.ndarray:
        """Shard id per original key (out-of-domain keys clamp to a shard
        where they are correctly never found)."""
        keys = np.asarray(keys).astype(np.int64)
        # The number of interior boundaries at or below the key: already
        # in [0, num_shards - 1], whatever the key.
        return np.searchsorted(self._bounds[1:-1], keys, side="right")

    # ------------------------------------------------------------------ #
    # Traffic accounting (host-side only — no simulated cost)
    # ------------------------------------------------------------------ #
    def _note_traffic(self, counts: np.ndarray) -> None:
        """Fold one routed call's per-shard operation counts into the
        lifetime totals and the EWMA load signal."""
        n = int(counts.sum())
        if n == 0:
            return
        self._traffic_total += counts
        self._traffic_since_rebalance += n
        self._traffic_ewma *= 1.0 - TRAFFIC_EWMA_ALPHA
        self._traffic_ewma += TRAFFIC_EWMA_ALPHA * counts

    def _note_traffic_keys(self, counts: np.ndarray, keys: np.ndarray) -> None:
        """Key-addressed traffic of a batch grouped by shard (``counts[s]``
        consecutive keys each): totals/EWMA plus the per-shard in-range
        histogram the split planner samples its split key from."""
        if keys.size == 0:
            return
        self._note_traffic(counts)
        sids = np.arange(self.num_shards).repeat(counts)
        keys = np.asarray(keys).astype(np.int64)
        lo = self._bounds[sids]
        width = np.maximum(self._bounds[sids + 1] - lo, 1)
        bucket = np.clip(
            (keys - lo) * TRAFFIC_HIST_BUCKETS // width,
            0,
            TRAFFIC_HIST_BUCKETS - 1,
        )
        flat = np.bincount(
            sids * TRAFFIC_HIST_BUCKETS + bucket,
            minlength=self.num_shards * TRAFFIC_HIST_BUCKETS,
        )
        self._traffic_hist *= 1.0 - TRAFFIC_EWMA_ALPHA
        self._traffic_hist += TRAFFIC_EWMA_ALPHA * flat.reshape(
            self.num_shards, TRAFFIC_HIST_BUCKETS
        )

    def traffic_stats(self) -> dict:
        """Per-shard routed-traffic accounting: lifetime operation counts,
        the EWMA load signal, operations routed since the last rebalance,
        and each shard's simulated clock."""
        return {
            "per_shard_ops": [int(t) for t in self._traffic_total],
            "per_shard_ewma": [float(e) for e in self._traffic_ewma],
            "ops_since_rebalance": int(self._traffic_since_rebalance),
            "per_shard_seconds": [
                float(s.device.simulated_seconds) for s in self.shards
            ],
        }

    # ------------------------------------------------------------------ #
    # Input validation
    # ------------------------------------------------------------------ #
    def _check_update_keys(self, keys: np.ndarray, what: str) -> np.ndarray:
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ValueError(f"{what} must be one-dimensional")
        if keys.size and keys.dtype.kind not in "ui":
            raise ValueError(f"{what} must be an integer array, got {keys.dtype}")
        if keys.size and (
            int(keys.min()) < 0 or int(keys.max()) >= self.key_domain
        ):
            raise ValueError(
                f"{what} must lie in the sharded key domain [0, {self.key_domain})"
            )
        return keys

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def insert(self, keys: np.ndarray, values: Optional[np.ndarray] = None) -> None:
        """Insert one batch of key(/value) pairs (at most ``batch_size``)."""
        self.update(insert_keys=keys, insert_values=values)

    def delete(self, keys: np.ndarray) -> None:
        """Delete one batch of keys."""
        self.update(delete_keys=keys)

    def update(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_values: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> None:
        """Apply one mixed batch with the LSM's batch semantics.

        The batch is canonicalised (one surviving operation per key) and
        routed to the shards with one stable multisplit on the shard id.
        """
        ins = self._check_update_keys(
            insert_keys if insert_keys is not None else np.zeros(0, np.uint64),
            "insert keys",
        )
        dels = self._check_update_keys(
            delete_keys if delete_keys is not None else np.zeros(0, np.uint64),
            "delete keys",
        )
        real = int(ins.size + dels.size)
        if real == 0:
            raise ValueError("an update batch must contain at least one operation")
        if real > self.batch_size:
            raise ValueError(
                f"batch holds {real} operations but the front-end batch size is "
                f"{self.batch_size}; split the work into multiple batches"
            )
        if self.key_only:
            if insert_values is not None:
                raise ValueError("key-only dictionaries take no values")
            vals = None
        else:
            if ins.size and insert_values is None:
                raise ValueError("insert_values is required unless key_only=True")
            given = (
                np.asarray(insert_values, dtype=self.shard_config.value_dtype)
                if insert_values is not None
                else np.zeros(0, dtype=self.shard_config.value_dtype)
            )
            if given.size != ins.size:
                raise ValueError("insert_values must match insert_keys in length")
            vals = np.zeros(real, dtype=self.shard_config.value_dtype)
            vals[: ins.size] = given

        words = np.empty(real, dtype=self.shard_config.key_dtype)
        words[: ins.size] = self.encoder.encode(ins, STATUS_REGULAR)
        words[ins.size :] = self.encoder.encode(dels, STATUS_TOMBSTONE)

        with self.router_device.timed_region("sharded.route", items=real):
            # Canonicalise: full-word sort puts a key's tombstone ahead of
            # its insertions and keeps equal insertions in batch order, so
            # the first element of each equal-key run is the batch's one
            # surviving operation (rules 4 and 6 of Section III-A).  The
            # planner's canonical columns already ascend and are merged.
            batch = sort_update_run(SortedRun(words, vals), ins.size, self.router_device)
            first = batch.first_per_key(self.encoder.strip_status)
            batch = batch.compact(
                first, device=self.router_device, kernel_name="sharded.route.dedup"
            )

            # Route: the canonical run ascends in key, so it is already
            # grouped by shard and one search of the boundaries finds every
            # shard's slice.  The device's stable multisplit keyed on the
            # shard id is recorded from the sizes.
            keys = self.encoder.decode_key(batch.keys)
            offsets = keys.searchsorted(self._bounds).tolist()
            self._record_route(batch.nbytes, batch.size, "sharded.route.multisplit")

        self._note_traffic_keys(np.diff(offsets), keys)

        # Every shard's slice is pushed as the sorted batch its own update
        # path would have built: canonicalisation left one operation per
        # key, so a slice larger than the shard batch goes in as several
        # (distinct keys commute), and a partial batch is padded with
        # copies of its last deletion — else its last insertion — which sort
        # next to the original (Section IV-A).
        regular = self.encoder.is_regular(batch.keys)
        for shard, lo, hi in zip(self.shards, offsets, offsets[1:]):
            for start in range(lo, hi, self.shard_batch_size):
                stop = min(start + self.shard_batch_size, hi)
                tombstones = np.flatnonzero(~regular[start:stop])
                copies = np.ones(stop - start, dtype=np.int64)
                copies[tombstones[-1] if tombstones.size else -1] += (
                    self.shard_batch_size - copies.size
                )
                shard._push_run(
                    SortedRun(
                        batch.keys[start:stop].repeat(copies),
                        None
                        if batch.values is None
                        else batch.values[start:stop].repeat(copies),
                    ),
                    copies.size - tombstones.size,
                    tombstones.size,
                    is_sorted=True,
                )

    def _record_route(self, payload_bytes: int, n: int, kernel_name: str) -> None:
        """The router's stable multisplit of ``n`` elements by shard id, from
        the sizes: the scan of the bucket counts, then histogram and scatter."""
        record_exclusive_scan(
            self.router_device, self.num_shards, self.num_shards * 8,
            f"{kernel_name}.scan",
        )
        record_multisplit(
            self.router_device, payload_bytes, n, self.num_shards, kernel_name
        )

    def bulk_build(
        self, keys: np.ndarray, values: Optional[np.ndarray] = None
    ) -> None:
        """Build all shards from scratch: one routing multisplit, then one
        per-shard bulk build (Section V-B per shard)."""
        if self.num_elements:
            raise RuntimeError("bulk_build requires an empty sharded dictionary")
        keys = self._check_update_keys(keys, "bulk_build keys")
        if keys.size == 0:
            raise ValueError("bulk_build requires a non-empty key array")
        vals = None
        if not self.key_only:
            if values is None:
                raise ValueError("values are required unless key_only=True")
            vals = np.asarray(values, dtype=self.shard_config.value_dtype)
            if vals.shape != keys.shape:
                raise ValueError("values must match keys in shape")

        with self.router_device.timed_region("sharded.bulk_route", items=keys.size):
            routed, offsets = SortedRun(keys, vals).multisplit(
                self._shard_ids,
                num_buckets=self.num_shards,
                device=self.router_device,
                kernel_name="sharded.bulk_route.multisplit",
            )
        for s, shard in enumerate(self.shards):
            lo, hi = int(offsets[s]), int(offsets[s + 1])
            if hi == lo:
                continue
            segment = routed.slice(lo, hi)
            shard.bulk_build(segment.keys, segment.values)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def lookup(self, query_keys: np.ndarray) -> LookupResult:
        """Batch LOOKUP routed by shard and scattered back to query order."""
        return lookup_in_key_order(
            self.shard_config, self.key_only, query_keys, self._lookup_sorted
        )

    def _lookup_sorted(
        self, qk: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """LOOKUP of a validated, non-empty batch in ascending key order.
        One ordering serves the routing and every shard's probes: the
        sorted batch is grouped by shard, so each shard answers its slice."""
        nq = qk.size
        offsets = [0, *qk.astype(np.int64).searchsorted(self._bounds[1:-1]), nq]
        with self.router_device.timed_region("sharded.lookup_route", items=nq):
            # The device routes with a stable multisplit, the query's
            # position riding along as the (int64) value.
            self._record_route(qk.nbytes + nq * 8, nq, "sharded.lookup_route.multisplit")
        self._note_traffic_keys(np.diff(offsets), qk)

        found = np.zeros(nq, dtype=bool)
        values = None if self.key_only else np.zeros(nq, self.shard_config.value_dtype)
        for shard, lo, hi in zip(self.shards, offsets, offsets[1:]):
            if hi == lo:
                continue
            found[lo:hi], shard_values = shard._lookup_sorted(qk[lo:hi])
            if values is not None:
                values[lo:hi] = shard_values
        return found, values

    def _query_ranges(
        self, k1: np.ndarray, k2: np.ndarray, op: str
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """COUNT/RANGE of a validated, non-empty batch in one pass of
        :func:`repro.core.ranges.query_ranges` over all shards.

        The batch is expanded into (query, shard) pairs — a query meets the
        consecutive shards from the one owning ``k1`` to the one owning
        ``k2`` — each clipped to its shard's range.  Shards own disjoint
        keys, so the pair is the pipeline's segment: a query's count is the
        sum over its pairs and its rows are its pairs' rows in shard order,
        which is the order the pairs are expanded in.  Ordering the pairs
        by clipped ``k1`` groups them by shard with ascending probes.
        Returns the per-query ``offsets`` (``nq + 1``) and the rows
        (encoded words, values).
        """
        nq = k1.size
        lo, hi = k1.astype(np.int64), k2.astype(np.int64)
        # Shards with an empty range take no pair; the others tile the domain.
        live = np.flatnonzero(np.diff(self._bounds) > 0)
        inner = self._bounds[live[1:]]
        first = inner.searchsorted(lo, side="right")
        span = inner.searchsorted(hi, side="right") - first + 1
        span[lo >= self.key_domain] = 0
        pair_starts = np.zeros(nq + 1, dtype=np.int64)
        span.cumsum(out=pair_starts[1:])
        pair_query = np.arange(nq).repeat(span)
        pair_shard = live[
            first[pair_query] + np.arange(pair_query.size) - pair_starts[pair_query]
        ]
        c1 = np.maximum(lo[pair_query], self._bounds[pair_shard])
        c2 = np.minimum(hi[pair_query], self._bounds[pair_shard + 1] - 1)
        self.router_device.record_kernel(
            "sharded.query.clip",
            coalesced_read_bytes=k1.nbytes + k2.nbytes,
            coalesced_write_bytes=(k1.nbytes + k2.nbytes) * self.num_shards,
            work_items=nq * self.num_shards,
        )
        per_shard = np.bincount(pair_shard, minlength=self.num_shards)
        self._note_traffic(per_shard)

        order = c1.argsort()
        ends = per_shard.cumsum().tolist()
        groups = [
            (self.shards[s], ends[s] - int(per_shard[s]), ends[s])
            for s in np.flatnonzero(per_shard).tolist()
        ]
        offsets, words, values = query_ranges(
            self.shard_config, groups, c1[order], c2[order], order, op,
            with_values=op == "range" and not self.key_only,
        )
        if op == "range":
            # On the devices every shard answers into its own buffer;
            # gathering the rows (decoded to 8-byte keys) into the flat
            # layout is the router's one more pass.
            merged_bytes = words.size * 8 + (0 if values is None else values.nbytes)
            self.router_device.record_kernel(
                "sharded.range.merge",
                coalesced_read_bytes=merged_bytes,
                coalesced_write_bytes=merged_bytes,
                work_items=words.size,
                launches=max(1, len(groups)),
            )
        return offsets[pair_starts], words, values

    def count(self, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
        """Batch COUNT: per query, its clipped ranges' counts summed."""
        return answer_ranges(
            self.shard_config, self.key_only, k1, k2, "count", self._query_ranges
        )

    def range_query(self, k1: np.ndarray, k2: np.ndarray) -> RangeResult:
        """Batch RANGE in the paper's flat layout.

        Ascending shard order concatenates each query's per-shard rows in
        ascending key order, so the buffer keeps the paper's "sorted by key
        within each query" guarantee.
        """
        return answer_ranges(
            self.shard_config, self.key_only, k1, k2, "range", self._query_ranges
        )

    # ------------------------------------------------------------------ #
    # Online shard rebalancing (split / merge primitives)
    # ------------------------------------------------------------------ #
    def _drain(
        self, shard: GPULSM, lo: int, hi: int
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """All live rows of ``shard`` over ``[lo, hi]``: decoded keys
        ascending, one per distinct live key, tombstones and stale copies
        dropped.  The whole-range ``range_query`` is the migration's drain
        cost, recorded on the shard's own device."""
        empty_vals = (
            None
            if self.key_only
            else np.zeros(0, dtype=self.shard_config.value_dtype)
        )
        if hi < lo or shard.num_elements == 0:
            return np.zeros(0, dtype=np.uint64), empty_vals
        rr = shard.range_query(
            np.array([lo], dtype=np.uint64), np.array([hi], dtype=np.uint64)
        )
        return rr.keys, rr.values

    def _build_shard(
        self, device: Device, keys: np.ndarray, values: Optional[np.ndarray]
    ) -> GPULSM:
        """A fresh per-shard LSM on ``device``, bulk-built from drained
        live rows (left empty when the range held none)."""
        shard = GPULSM(
            config=self.shard_config, device=device, key_only=self.key_only
        )
        if keys.size:
            shard.bulk_build(keys, None if self.key_only else values)
        return shard

    def _note_migration(self, rows: int, nbytes: int) -> None:
        """The cross-device copy of a migration, costed on the router."""
        self.router_device.record_kernel(
            "sharded.rebalance.migrate",
            coalesced_read_bytes=nbytes,
            coalesced_write_bytes=nbytes,
            work_items=rows,
        )

    def _retire_counters(
        self, old_shards: List[GPULSM], new_shards: List[GPULSM]
    ) -> None:
        """Preserve replaced shards' lifetime counters.

        The insertion/deletion offsets subtract whatever the replacement
        builds already counted, so the front-end aggregates are exactly
        continuous across a migration."""
        self._retired_insertions += sum(
            o.total_insertions for o in old_shards
        ) - sum(n.total_insertions for n in new_shards)
        self._retired_deletions += sum(
            o.total_deletions for o in old_shards
        ) - sum(n.total_deletions for n in new_shards)
        for old in old_shards:
            self._retired_maintenance.merge_dict(old.maintenance_stats())
            # The retired structure's filter memory is freed with it; only
            # the probe counters carry over.
            old._filter_stats.filter_memory_bytes = 0
            self._retired_filters.merge(old._filter_stats)

    def _after_boundary_change(self, epoch_before: int) -> None:
        self._boundary_version += 1
        # The top-level epoch must advance strictly: freshly built shards
        # restart their counters near zero, so the raw per-shard sum could
        # alias an earlier state.
        new_sum = sum(shard.epoch for shard in self.shards)
        self._epoch_base = epoch_before + 1 - new_sum

    def _split_traffic_arrays(self, s: int) -> None:
        total = int(self._traffic_total[s])
        ewma = float(self._traffic_ewma[s])
        self._traffic_total = np.insert(self._traffic_total, s + 1, 0)
        self._traffic_total[s] = total - total // 2
        self._traffic_total[s + 1] = total // 2
        self._traffic_ewma = np.insert(self._traffic_ewma, s + 1, 0.0)
        self._traffic_ewma[s] = ewma / 2.0
        self._traffic_ewma[s + 1] = ewma / 2.0
        # Both children's ranges are new; their histograms restart.
        self._traffic_hist = np.insert(self._traffic_hist, s + 1, 0.0, axis=0)
        self._traffic_hist[s] = 0.0

    def _merge_traffic_arrays(self, s: int) -> None:
        self._traffic_total[s] += self._traffic_total[s + 1]
        self._traffic_total = np.delete(self._traffic_total, s + 1)
        self._traffic_ewma[s] += self._traffic_ewma[s + 1]
        self._traffic_ewma = np.delete(self._traffic_ewma, s + 1)
        self._traffic_hist[s] = 0.0
        self._traffic_hist = np.delete(self._traffic_hist, s + 1, axis=0)

    def split_shard(self, s: int, split_key: int) -> dict:
        """Split shard ``s`` at ``split_key``, online and answer-preserving.

        The left child keeps ``[lo, split_key)`` on the old shard's device;
        the right child takes ``[split_key, hi]`` on a spare (or fresh)
        device.  The shard's live rows are drained with one whole-range
        ``range_query`` and bulk-built into the children — stale copies and
        tombstones are dropped on the way (a migration is also a cleanup),
        which can only shrink the resident footprint, never change an
        answer.  Boundaries swap atomically between batches; the top-level
        epoch and :attr:`boundary_version` bump so pinned readers and
        epoch-keyed caches can never observe a half-moved range.

        Returns migration statistics (``rows_migrated``, ``removed``, …).
        Raises when the split key is not strictly inside the shard's range
        or the routing multisplit is already at its 32-bucket limit.
        """
        if not 0 <= s < self.num_shards:
            raise ValueError(f"shard id {s} out of range [0, {self.num_shards})")
        if self.num_shards >= MAX_WARP_BUCKETS:
            raise RuntimeError(
                f"cannot split: already at {MAX_WARP_BUCKETS} shards "
                "(the routing multisplit's bucket limit)"
            )
        lo, hi = self.shard_range(s)
        split_key = int(split_key)
        if not lo < split_key <= hi:
            raise ValueError(
                f"split key {split_key} must lie in ({lo}, {hi}] "
                f"(strictly inside shard {s}'s range)"
            )
        old = self.shards[s]
        epoch_before = self.epoch
        elements_before = old.num_elements
        keys, values = self._drain(old, lo, hi)
        cut = int(np.searchsorted(keys, split_key))
        if self._spare_devices:
            right_device = self._spare_devices.pop()
        else:
            right_device = Device(self.spec, seed=self._next_device_seed)
            self._next_device_seed += 1
        left = self._build_shard(
            old.device, keys[:cut], None if values is None else values[:cut]
        )
        right = self._build_shard(
            right_device, keys[cut:], None if values is None else values[cut:]
        )
        rows = int(keys.size)
        self._note_migration(
            rows, keys.nbytes + (0 if values is None else values.nbytes)
        )
        self._retire_counters([old], [left, right])
        self.shards[s : s + 1] = [left, right]
        self._bounds = np.insert(self._bounds, s + 1, split_key)
        self.num_shards += 1
        self._split_traffic_arrays(s)
        self._after_boundary_change(epoch_before)
        self._rebalance_splits += 1
        self._rebalance_rows_migrated += rows
        elements_after = left.num_elements + right.num_elements
        return {
            "kind": "split",
            "shard": s,
            "split_key": split_key,
            "rows_migrated": rows,
            "elements_before": elements_before,
            "elements_after": elements_after,
            "removed": max(0, elements_before - rows),
            "padding": max(0, elements_after - rows),
        }

    def merge_shards(self, s: int) -> dict:
        """Merge shards ``s`` and ``s + 1`` into one range, online.

        Both shards are drained (live rows only) and bulk-built into one
        replacement on whichever of the two devices has done more work so
        far — the parallel profile's max-clock model stays honest; the
        freed device is parked for the next split to reuse.  Same epoch /
        boundary-version contract as :meth:`split_shard`.
        """
        if not 0 <= s < self.num_shards - 1:
            raise ValueError(
                f"merge_shards needs adjacent shards; id {s} out of range "
                f"[0, {self.num_shards - 1})"
            )
        a, b = self.shards[s], self.shards[s + 1]
        epoch_before = self.epoch
        elements_before = a.num_elements + b.num_elements
        ka, va = self._drain(a, *self.shard_range(s))
        kb, vb = self._drain(b, *self.shard_range(s + 1))
        keys = np.concatenate([ka, kb])
        values = None if self.key_only else np.concatenate([va, vb])
        if a.device.simulated_seconds >= b.device.simulated_seconds:
            keep_device, free_device = a.device, b.device
        else:
            keep_device, free_device = b.device, a.device
        merged = self._build_shard(keep_device, keys, values)
        rows = int(keys.size)
        self._note_migration(
            rows, keys.nbytes + (0 if values is None else values.nbytes)
        )
        self._retire_counters([a, b], [merged])
        self._spare_devices.append(free_device)
        self.shards[s : s + 2] = [merged]
        self._bounds = np.delete(self._bounds, s + 1)
        self.num_shards -= 1
        self._merge_traffic_arrays(s)
        self._after_boundary_change(epoch_before)
        self._rebalance_merges += 1
        self._rebalance_rows_migrated += rows
        return {
            "kind": "merge",
            "shard": s,
            "rows_migrated": rows,
            "elements_before": elements_before,
            "elements_after": merged.num_elements,
            "removed": max(0, elements_before - rows),
            "padding": max(0, merged.num_elements - rows),
        }

    def restore_boundaries(self, bounds: Sequence[int]) -> None:
        """Adopt recovered shard boundaries (recovery into an empty store).

        Durability manifests record :attr:`shard_bounds`; recovery calls
        this before restoring the per-shard levels so a backend built with
        the original constructor shape can receive a post-rebalance
        snapshot.  A no-op when the boundaries already match (recovering a
        never-rebalanced store stays bit-identical); otherwise the shard
        list is rebuilt empty at the recovered count and the epoch /
        boundary-version contract applies as for any boundary change.
        """
        bounds_arr = np.asarray(list(bounds), dtype=np.int64)
        if bounds_arr.ndim != 1 or bounds_arr.size < 2:
            raise ValueError("bounds must hold at least two boundary keys")
        if int(bounds_arr[0]) != 0 or int(bounds_arr[-1]) != self.key_domain:
            raise ValueError(
                f"bounds must cover exactly [0, {self.key_domain}); got "
                f"[{int(bounds_arr[0])}, {int(bounds_arr[-1])})"
            )
        if np.any(np.diff(bounds_arr) < 0):
            raise ValueError("bounds must be non-decreasing")
        n = int(bounds_arr.size) - 1
        if not 1 <= n <= MAX_WARP_BUCKETS:
            raise ValueError(
                f"bounds describe {n} shards; must be in [1, {MAX_WARP_BUCKETS}]"
            )
        if np.array_equal(bounds_arr, self._bounds):
            return
        if self.num_elements:
            raise RuntimeError(
                "restore_boundaries requires an empty sharded front-end"
            )
        epoch_before = self.epoch
        devices = [shard.device for shard in self.shards] + self._spare_devices
        while len(devices) < n:
            devices.append(Device(self.spec, seed=self._next_device_seed))
            self._next_device_seed += 1
        self._spare_devices = devices[n:]
        self.shards = [
            GPULSM(
                config=self.shard_config,
                device=devices[i],
                key_only=self.key_only,
            )
            for i in range(n)
        ]
        self.num_shards = n
        self._bounds = bounds_arr
        self._traffic_total = np.zeros(n, dtype=np.int64)
        self._traffic_ewma = np.zeros(n, dtype=np.float64)
        self._traffic_hist = np.zeros((n, TRAFFIC_HIST_BUCKETS), dtype=np.float64)
        self._after_boundary_change(epoch_before)

    def rebalance_stats(self) -> dict:
        """Lifetime rebalance counters and the current partition shape
        (surfaced as ``EngineStats.backend_rebalance`` by the engine); the
        per-shard traffic is :meth:`traffic_stats`."""
        return {
            "rebalance_runs": self._rebalance_runs,
            "splits": self._rebalance_splits,
            "merges": self._rebalance_merges,
            "rows_migrated": self._rebalance_rows_migrated,
            "boundary_version": self._boundary_version,
            "num_shards": self.num_shards,
            "max_shards": self.max_shards,
        }

    # ------------------------------------------------------------------ #
    # Maintenance and profiling
    # ------------------------------------------------------------------ #
    def _resolve_shard_ids(self, shards: Optional[Sequence[int]]) -> List[int]:
        if shards is None:
            return list(range(self.num_shards))
        ids = sorted({int(s) for s in shards})
        for s in ids:
            if not 0 <= s < self.num_shards:
                raise ValueError(
                    f"shard id {s} out of range [0, {self.num_shards})"
                )
        return ids

    @staticmethod
    def _aggregate_maintenance(per_shard: Dict[int, dict]) -> dict:
        totals = {"elements_before": 0, "elements_after": 0, "removed": 0,
                  "padding": 0}
        for stats in per_shard.values():
            for key in totals:
                totals[key] += stats[key]
        totals["shards"] = sorted(per_shard)
        return totals

    def cleanup(
        self, shards: Optional[Sequence[int]] = None, trigger: str = "manual"
    ) -> dict:
        """Run a full cleanup on the selected shards (all by default).

        ``cleanup(shards=[2, 5])`` rebuilds only those shards — the
        selective form the per-shard policies use, so one hot shard's
        staleness never forces a whole-fleet rebuild.  Returns the
        aggregated statistics plus the ``shards`` actually cleaned.
        """
        ids = self._resolve_shard_ids(shards)
        return self._aggregate_maintenance(
            {s: self.shards[s].cleanup(trigger=trigger) for s in ids}
        )

    def compact_levels(
        self,
        k: int,
        shards: Optional[Sequence[int]] = None,
        trigger: str = "manual",
    ) -> dict:
        """Incrementally compact the ``k`` smallest occupied levels of the
        selected shards (all by default); see
        :meth:`repro.core.lsm.GPULSM.compact_levels`."""
        ids = self._resolve_shard_ids(shards)
        return self._aggregate_maintenance(
            {s: self.shards[s].compact_levels(k, trigger=trigger) for s in ids}
        )

    def run_due_maintenance(self) -> Optional[dict]:
        """Evaluate the maintenance policy **per shard**, then the
        front-end's rebalance policy.

        Each shard's policy decision reads that shard's own counters
        (stale fraction, occupied levels), so a skewed keyspace compacts
        exactly the hot shards.  When a :attr:`rebalance_policy` is
        configured it is evaluated afterwards against the front-end's
        traffic signal; a tripped policy runs the
        :func:`~repro.scale.rebalance.execute_rebalance` split/merge pass,
        whose statistics land under ``"rebalance"`` in the returned dict.
        Returns the aggregated statistics of whatever ran, or ``None``
        when nothing was due.
        """
        ran: Dict[int, dict] = {}
        for s, shard in enumerate(self.shards):
            stats = shard.run_due_maintenance()
            if stats is not None:
                ran[s] = stats
        totals = self._aggregate_maintenance(ran) if ran else None
        if self.rebalance_policy is not None:
            action = self.rebalance_policy.decide(self)
            if action is not None and action.kind == "rebalance":
                from repro.scale.rebalance import execute_rebalance

                reb = execute_rebalance(self, trigger=action.policy)
                if reb is not None:
                    if totals is None:
                        totals = {
                            "elements_before": 0,
                            "elements_after": 0,
                            "removed": 0,
                            "padding": 0,
                            "shards": [],
                        }
                    for key in (
                        "elements_before",
                        "elements_after",
                        "removed",
                        "padding",
                    ):
                        totals[key] += reb[key]
                    totals["rebalance"] = reb
        return totals

    def maintenance_stats(self) -> dict:
        """Merged lifetime maintenance counters across every shard (same
        schema as :meth:`repro.core.lsm.GPULSM.maintenance_stats`),
        including counters of shards a rebalance replaced."""
        combined = MaintenanceStatsCounter()
        combined.merge_dict(self._retired_maintenance.as_dict())
        for shard in self.shards:
            combined.merge_dict(shard.maintenance_stats())
        return combined.as_dict()

    # ------------------------------------------------------------------ #
    # Snapshot / rollback (durability + resilience subsystems)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """Every shard's :meth:`~repro.core.lsm.GPULSM.snapshot_state`, in
        shard order, plus the live shard boundaries — the whole front-end's
        resident state (the capture the serving engine's transactional
        ticks roll back to)."""
        return {
            "shards": [shard.snapshot_state() for shard in self.shards],
            "bounds": [int(b) for b in self._bounds],
        }

    def rollback_to(self, state: dict) -> None:
        """Roll every shard back to a :meth:`snapshot_state` capture.

        A tick fans updates across shards, so an aborted tick may have
        mutated any subset of them; each shard reloads its captured levels
        verbatim (:meth:`repro.core.lsm.GPULSM.rollback_to`) and bumps its
        epoch, which moves :attr:`epoch` — pinned readers and
        epoch-keyed caches notice, answers match the capture point.

        A rollback can never span a rebalance: rebalancing runs in the
        between-tick maintenance poll, after the tick it follows has
        committed, while a transactional capture is taken at tick start
        and rolled back before that poll.  Crossing captures are rejected
        loudly rather than silently mis-zipping shards onto moved ranges.
        """
        shard_states = state["shards"]
        bounds = state.get("bounds")
        if bounds is not None and [int(b) for b in bounds] != [
            int(b) for b in self._bounds
        ]:
            raise RuntimeError(
                "rollback_to cannot cross a shard-boundary change: the "
                "capture was taken under different shard bounds"
            )
        if len(shard_states) != len(self.shards):
            raise ValueError(
                f"snapshot has {len(shard_states)} shards, "
                f"this front-end has {len(self.shards)}"
            )
        for shard, sub in zip(self.shards, shard_states):
            shard.rollback_to(sub)

    def shard_stats(self) -> List[dict]:
        """Per-shard occupancy, profiler and traffic counters (per-shard
        rates and the rebalance planner's diagnostics)."""
        rows = []
        for s, shard in enumerate(self.shards):
            lo, hi = self.shard_range(s)
            rows.append(
                {
                    "shard": s,
                    "key_lo": lo,
                    "key_hi": hi,
                    "num_elements": shard.num_elements,
                    "num_batches": shard.num_batches,
                    "total_insertions": shard.total_insertions,
                    "total_deletions": shard.total_deletions,
                    "simulated_seconds": shard.device.simulated_seconds,
                    "traffic_ops": int(self._traffic_total[s]),
                    "traffic_ewma": float(self._traffic_ewma[s]),
                }
            )
        return rows

    def profile(self) -> dict:
        """Aggregate timing across the router and all shard devices.

        ``serial_seconds`` is the total simulated work (devices a merge
        parked included — their history is real work); ``parallel_seconds``
        models all shards running concurrently (router time plus the
        slowest shard) and is what the effective sharded throughput is
        measured against.
        """
        shard_seconds = [s.device.simulated_seconds for s in self.shards]
        spare_seconds = sum(d.simulated_seconds for d in self._spare_devices)
        router = self.router_device.simulated_seconds
        return {
            "router_seconds": router,
            "shard_seconds": shard_seconds,
            "serial_seconds": router + float(np.sum(shard_seconds)) + spare_seconds,
            "parallel_seconds": router + (max(shard_seconds) if shard_seconds else 0.0),
        }

    def reset_counters(self) -> None:
        """Clear every device's counters and clocks (fresh measurement)."""
        self.router_device.reset_counters()
        for shard in self.shards:
            shard.device.reset_counters()
        for device in self._spare_devices:
            device.reset_counters()
