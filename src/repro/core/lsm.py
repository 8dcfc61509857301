"""The GPU LSM dictionary (paper Sections III and IV).

The data structure keeps at most ``max_levels`` levels; level *i* holds
``b * 2**i`` elements and is completely full or completely empty.  With
``r`` resident batches, the occupied levels are the set bits of ``r``.
Updates (mixed insertions and tombstoned deletions) arrive in batches of
exactly ``b`` encoded elements; an update sorts the batch (status bit
included) and then merges it down the cascade of full levels — the binary
"increment with carries" of Section III-B.  Queries never modify the
structure; stale elements (replaced duplicates and deleted keys) remain
physically present but are invisible to queries until :meth:`GPULSM.cleanup`
removes them.

Every operation is expressed once over :class:`~repro.core.run.SortedRun` —
the (encoded-keys, optional-values) column set all bulk primitives operate
on — so the key-only and key-value configurations share a single data path;
whether a value column exists is a property of the runs, not a branch in the
algorithms.  Each operation is wrapped in a profiler region so the benchmark
harness can convert the recorded memory traffic into the simulated
throughput numbers recorded under ``benchmarks/results/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core import maintenance as maintenance_mod
from repro.core.batch import build_update_batch
from repro.core.config import LSMConfig
from repro.core.encoding import KeyEncoder, STATUS_REGULAR
from repro.core.filters import (
    _PROBE_BLOCK,
    BloomFilter,
    FilterStatsCounter,
    LevelFilters,
    derive_num_hashes,
)
from repro.core.maintenance import MaintenanceStatsCounter
from repro.core.level import Level
from repro.core.ranges import query_ranges
from repro.core.run import SortedRun
from repro.gpu.device import Device, get_default_device
from repro.primitives.radix_sort import record_radix_sort
from repro.primitives.search import DEFAULT_CACHED_PROBES, record_search


@dataclass
class LookupResult:
    """Result of a batch of LOOKUP queries.

    ``found[i]`` is true iff query *i*'s key is present (inserted and not
    subsequently deleted); ``values[i]`` then holds its most recent value
    (undefined — zero — otherwise).  ``values`` is ``None`` for key-only
    dictionaries.
    """

    found: np.ndarray
    values: Optional[np.ndarray]

    def __len__(self) -> int:
        return int(self.found.size)


@dataclass
class RangeResult:
    """Result of a batch of RANGE queries.

    The layout mirrors the paper's output format (Section IV-D): one flat
    buffer of valid results sorted by key, plus per-query offsets.  Query
    *q*'s results are ``keys[offsets[q]:offsets[q+1]]`` (and the aligned
    slice of ``values``).
    """

    offsets: np.ndarray
    keys: np.ndarray
    values: Optional[np.ndarray]

    @property
    def counts(self) -> np.ndarray:
        """Number of valid results per query."""
        return np.diff(self.offsets)

    def query_slice(self, q: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Keys (and values) returned for query ``q``."""
        lo, hi = int(self.offsets[q]), int(self.offsets[q + 1])
        vals = None if self.values is None else self.values[lo:hi]
        return self.keys[lo:hi], vals

    def __len__(self) -> int:
        return int(self.offsets.size - 1)


def lookup_in_key_order(
    config: LSMConfig, key_only: bool, query_keys: np.ndarray, lookup_sorted
) -> LookupResult:
    """The front door of LOOKUP, shared by :class:`GPULSM` and the sharded
    front-end: validate the batch, order it by key once, let
    ``lookup_sorted(sorted_keys) -> (found, values)`` answer in that order,
    and scatter the answers back to request order.

    Probing in ascending key order is what makes the searches cache-friendly
    on the host; the order is uncharged and leaks into no counter.
    """
    query_keys = np.asarray(query_keys)
    if query_keys.ndim != 1:
        raise ValueError("lookup expects a one-dimensional query array")
    nq = query_keys.size
    found = np.zeros(nq, dtype=bool)
    values = None if key_only else np.zeros(nq, dtype=config.value_dtype)
    if nq:
        config.encoder.check_query_keys(query_keys)
        order = query_keys.argsort()
        sorted_found, sorted_values = lookup_sorted(query_keys[order])
        found[order] = sorted_found
        if values is not None:
            values[order] = sorted_values
    return LookupResult(found=found, values=values)


def answer_ranges(
    config: LSMConfig, key_only: bool, k1: np.ndarray, k2: np.ndarray, op: str, run
):
    """The front door of COUNT (``op="count"``: per-query counts) and RANGE
    (``op="range"``: a :class:`RangeResult`), shared likewise: validate the
    bounds and shape what ``run(k1, k2, op) -> (offsets, words, values)``
    — a :func:`repro.core.ranges.query_ranges` pass, one segment per query —
    returns.  An empty batch reaches no device."""
    k1, k2 = config.encoder.check_range_args(k1, k2)
    if k1.size:
        offsets, words, values = run(k1, k2, op)
    else:
        offsets, words = np.zeros(1, dtype=np.int64), np.zeros(0, dtype=config.key_dtype)
        values = None if key_only else np.zeros(0, dtype=config.value_dtype)
    if op == "count":
        return offsets[1:] - offsets[:-1]
    keys = config.encoder.decode_key(words).astype(np.uint64)
    return RangeResult(offsets=offsets, keys=keys, values=values)


class GPULSM:
    """Dynamic GPU dictionary based on the Log-Structured Merge tree.

    Parameters
    ----------
    batch_size:
        The paper's ``b`` (power of two); ignored if ``config`` is given.
    device:
        Simulated device to run on; defaults to the process-wide device.
    key_only:
        When true, no value arrays are stored (the paper's Fig. 2 pseudocode
        configuration); ``insert`` then takes keys only.
    config:
        Full :class:`LSMConfig`; overrides ``batch_size``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import GPULSM
    >>> lsm = GPULSM(batch_size=4, key_only=True)
    >>> lsm.insert(np.array([5, 1, 9, 3]))
    >>> bool(lsm.lookup(np.array([9])).found[0])
    True
    >>> lsm.delete(np.array([9, 9, 9, 9]))
    >>> bool(lsm.lookup(np.array([9])).found[0])
    False
    """

    def __init__(
        self,
        batch_size: int = 1 << 16,
        device: Optional[Device] = None,
        key_only: bool = False,
        config: Optional[LSMConfig] = None,
    ) -> None:
        self.config = config if config is not None else LSMConfig(batch_size=batch_size)
        self.device = device or get_default_device()
        self.key_only = key_only
        self.encoder: KeyEncoder = self.config.encoder
        self.levels: List[Level] = []
        #: Number of resident batches (the paper's ``r``); the occupied
        #: levels are exactly the set bits of this counter.
        self.num_batches = 0
        #: Lifetime counters used by the cleanup-policy helpers and reports.
        self.total_insertions = 0
        self.total_deletions = 0
        self.total_cleanups = 0
        self.total_compactions = 0
        #: Structural epoch: incremented by every mutation that can change
        #: the level set (update cascades, bulk build, cleanup).  Queries
        #: never change it.  The mixed-operation executor of
        #: :mod:`repro.api` pins this counter around a tick's reads so a
        #: snapshot read can never silently interleave with a cascade.
        self.epoch = 0
        #: Upper bound on the number of *live* resident elements, maintained
        #: incrementally: each update batch can add at most its number of
        #: distinct regular keys to the live population, and cleanup resets
        #: the bound to the exact survivor count.  This is what keeps
        #: :meth:`stale_fraction_estimate` meaningful under duplicate-key
        #: re-insertion, where the raw insertion counter alone would claim
        #: everything is live.
        self._live_keys_upper_bound = 0
        #: Irreducible trailing-placebo count: the padding the most recent
        #: cleanup added.  A re-run of cleanup would only remove and re-add
        #: it, so :meth:`stale_fraction_estimate` excludes it — otherwise a
        #: threshold policy would re-trigger cleanup forever with zero
        #: reclaim.  The next cascade merges the placebos into ordinary
        #: resident data, at which point they become reclaimable stale and
        #: the counter resets.
        self._trailing_placebos = 0
        #: Index of the level holding the trailing placebos (the largest
        #: level the last cleanup filled); -1 when there are none.
        self._placebo_level = -1
        #: Lifetime pruning statistics of the query acceleration layer
        #: (fence / Bloom filters); see :meth:`filter_stats`.
        self._filter_stats = FilterStatsCounter()
        #: Whether a filled level's Bloom words are built at fill time —
        #: from the store's first read on; see :meth:`_attach_filters`.
        self._build_filters_at_fill = False
        #: Lifetime maintenance counters (per-policy triggers, reclaimed
        #: elements, maintenance time); see :meth:`maintenance_stats`.
        self._maintenance_stats = MaintenanceStatsCounter()
        #: Epoch right after a cleanup that reclaimed nothing — a rebuild
        #: repeated at this epoch would reproduce the same nothing, so
        #: rebuild-on-trip policies quench until the structure changes
        #: (every mutation bumps :attr:`epoch`, expiring the mark).
        self._futile_rebuild_epoch: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @classmethod
    def supported_operations(cls) -> frozenset:
        """The dictionary operations this structure implements for real
        (its row of the paper's Table I)."""
        return frozenset(
            {"bulk_build", "insert", "delete", "lookup", "count", "range_query"}
        )

    @property
    def batch_size(self) -> int:
        """The configured batch size ``b``."""
        return self.config.batch_size

    @property
    def num_elements(self) -> int:
        """Number of physically resident elements, stale ones included."""
        return self.num_batches * self.batch_size

    @property
    def num_levels_allocated(self) -> int:
        """Number of level slots currently instantiated."""
        return len(self.levels)

    def occupied_levels(self) -> List[Level]:
        """Full levels ordered from most recent (smallest) to oldest."""
        return [lvl for lvl in self.levels if lvl.is_full]

    @property
    def num_occupied_levels(self) -> int:
        """Population count of the batch counter."""
        return sum(1 for lvl in self.levels if lvl.is_full)

    @property
    def memory_usage_bytes(self) -> int:
        """Device bytes held by the resident levels."""
        return sum(lvl.nbytes for lvl in self.levels)

    @property
    def filter_memory_bytes(self) -> int:
        """Device bytes held by the per-level query filters alone."""
        return sum(
            lvl.filters.nbytes
            for lvl in self.levels
            if lvl.is_full and lvl.filters is not None
        )

    def filter_stats(self) -> dict:
        """Pruning statistics of the query acceleration layer.

        Counters (``lookup_pairs``, ``fence_pruned``, ``bloom_pruned``,
        ``searched``, ``bloom_false_positives``, ``range_pairs``,
        ``range_fence_pruned``) plus the derived prune/hit rates and the
        current filter memory footprint.  The probe-pair counters
        (``lookup_pairs`` / ``searched`` / ``range_pairs``) tick on every
        query regardless of configuration — with filters disabled every
        pair is searched, so the prune counters/rates and the memory
        footprint stay zero (that is how to tell the layer is off).  The
        serving engine surfaces this dict through
        :meth:`repro.serve.engine.Engine.stats`.
        """
        self._filter_stats.filter_memory_bytes = self.filter_memory_bytes
        return self._filter_stats.as_dict()

    def __len__(self) -> int:
        return self.num_elements

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GPULSM(b={self.batch_size}, batches={self.num_batches}, "
            f"elements={self.num_elements}, levels={self.num_occupied_levels})"
        )

    # ------------------------------------------------------------------ #
    # Level bookkeeping
    # ------------------------------------------------------------------ #
    def _level(self, index: int) -> Level:
        """Return level ``index``, creating empty levels up to it on demand."""
        if index >= self.config.max_levels:
            raise OverflowError(
                f"GPU LSM overflow: level {index} exceeds max_levels="
                f"{self.config.max_levels}"
            )
        while len(self.levels) <= index:
            i = len(self.levels)
            self.levels.append(Level(index=i, capacity=self.config.level_capacity(i)))
        return self.levels[index]

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def insert(self, keys: np.ndarray, values: Optional[np.ndarray] = None) -> None:
        """Insert a batch of key(/value) pairs.

        ``keys`` may hold up to ``batch_size`` elements; shorter batches are
        padded per Section IV-A.  ``values`` is required unless the
        dictionary is key-only.
        """
        self.update(insert_keys=keys, insert_values=values)

    def delete(self, keys: np.ndarray) -> None:
        """Delete a batch of keys by inserting tombstones (Section III-C)."""
        self.update(delete_keys=keys)

    def update(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_values: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> None:
        """Apply one mixed batch of insertions and deletions."""
        batch = build_update_batch(
            self.config,
            insert_keys=insert_keys,
            insert_values=insert_values,
            delete_keys=delete_keys,
            key_only=self.key_only,
        )
        self._push_run(
            batch.as_run(), batch.num_insertions, batch.num_deletions, is_sorted=False
        )

    def _push_run(
        self, buf: SortedRun, num_insertions: int, num_deletions: int, is_sorted: bool
    ) -> None:
        """Sort one padded batch — exactly ``batch_size`` encoded elements,
        ``num_insertions`` / ``num_deletions`` of them real — and run the
        merge cascade (Fig. 2a / Fig. 3).  A run that arrives in full-word
        order (``is_sorted``: the sharded router's canonical slices) is not
        sorted again; the device's sort of the batch is recorded from its
        size either way."""
        if self.num_batches >= self.config.max_resident_batches:
            raise OverflowError("GPU LSM is full: maximum resident batches reached")

        with self.device.timed_region("lsm.insert_batch", items=buf.size):
            # Sort the new batch over the *full* encoded word — status bit
            # included — so tombstones precede regular elements of the same
            # key within the batch (Fig. 3 line 9).
            if is_sorted:
                record_radix_sort(
                    self.device, buf.size, buf.keys.dtype,
                    None if buf.values is None else buf.values.dtype,
                )
            else:
                buf = buf.sort(device=self.device)
            self._live_keys_upper_bound += self._distinct_regular_keys(buf.keys)

            # Merge cascade: while level i is full, merge (buffer, level i)
            # with a comparator that ignores the status bit, keeping the
            # buffer's (newer) elements first among equal keys.  The carry
            # chain (buffer, level 0, level 1, … newest first) is merged in
            # one call, which records one ``lsm.merge_level`` per level.
            i = 0
            while self._level(i).is_full:
                i += 1
            carried = self.levels[:i]
            buf = buf.merge(
                *(level.run for level in carried),
                key=self.encoder.strip_status,
                device=self.device,
                kernel_name="lsm.merge_level",
            )
            for level in carried:
                level.clear()

            # Copy the buffer into the first empty level (Fig. 3 line 20).
            target = self._level(i)
            target.fill(buf)
            self.device.record_kernel(
                "lsm.store_level",
                coalesced_read_bytes=0,
                coalesced_write_bytes=target.run.nbytes,
                work_items=target.size,
            )
            self._attach_filters(target)
            self.num_batches += 1
            self.total_insertions += num_insertions
            self.total_deletions += num_deletions
            self.epoch += 1
            if self._trailing_placebos and i >= self._placebo_level:
                # The cascade merged the padded level: its placebos are now
                # ordinary resident data a future cleanup can reclaim.
                self._trailing_placebos = 0

        if self.config.validate_invariants:
            from repro.core.invariants import check_lsm_invariants

            check_lsm_invariants(self)

    # ------------------------------------------------------------------ #
    # Bulk build
    # ------------------------------------------------------------------ #
    def bulk_build(
        self, keys: np.ndarray, values: Optional[np.ndarray] = None
    ) -> None:
        """Build the LSM from scratch out of ``k*b`` elements (Section V-B).

        The whole input is radix sorted once (status bit included — the
        input is all regular insertions) and then sliced into the levels
        corresponding to the set bits of ``k``; this is faster than ``k``
        batch insertions because each element is moved O(1) times instead of
        O(log k).  Inputs that are not a multiple of ``b`` are padded with
        duplicates of the last element, like a partial batch.
        """
        if self.num_batches != 0:
            raise RuntimeError("bulk_build requires an empty GPU LSM")
        keys = np.asarray(keys)
        if keys.ndim != 1 or keys.size == 0:
            raise ValueError("bulk_build requires a non-empty 1-D key array")
        self.encoder.check_query_keys(keys, "bulk_build keys")
        if not self.key_only:
            if values is None:
                raise ValueError("values are required unless key_only=True")
            values = np.asarray(values, dtype=self.config.value_dtype)
            if values.shape != keys.shape:
                raise ValueError("values must match keys in shape")

        b = self.batch_size
        num_batches = -(-keys.size // b)
        padded_n = num_batches * b

        encoded = np.empty(padded_n, dtype=self.config.key_dtype)
        encoded[: keys.size] = self.encoder.encode(keys, STATUS_REGULAR)
        encoded[keys.size :] = encoded[keys.size - 1]
        padded_values = None
        if values is not None:
            padded_values = np.empty(padded_n, dtype=self.config.value_dtype)
            padded_values[: keys.size] = values
            padded_values[keys.size :] = padded_values[keys.size - 1]

        with self.device.timed_region("lsm.bulk_build", items=padded_n):
            run = SortedRun(encoded, padded_values).sort(device=self.device)
            self._distribute_sorted(run, num_batches)
            self.total_insertions += keys.size
            self._live_keys_upper_bound += self._distinct_regular_keys(run.keys)
            self.epoch += 1

        if self.config.validate_invariants:
            from repro.core.invariants import check_lsm_invariants

            check_lsm_invariants(self)

    def _distribute_sorted(
        self,
        run: SortedRun,
        num_batches: int,
        trailing_placebos: int = 0,
        clear_levels: Optional[List[Level]] = None,
        kernel_name: str = "lsm.distribute_levels",
    ) -> None:
        """Slice one big sorted run into the levels for ``num_batches``.

        Slices are assigned in ascending key order to the occupied levels
        from the smallest to the largest — "smaller keys will end up in
        smaller levels" (Section IV-E) — which is correct because queries
        search every occupied level anyway.

        ``trailing_placebos`` is the number of cleanup-padding placebos at
        the tail of ``run`` (zero outside cleanup); they land in the last
        level filled and are excluded from that level's query filters, so
        a padded level's fence max is its largest *real* key instead of
        being pinned at ``max_key``.

        ``clear_levels`` selects the levels emptied before filling.  The
        default — every level — is the whole-structure rebuild of
        ``bulk_build`` / ``cleanup``, which also takes ownership of
        :attr:`num_batches`; incremental compaction passes just the
        compacted prefix and keeps the batch-counter arithmetic to itself
        (the prefix's batches are only part of the total).
        """
        whole_structure = clear_levels is None
        for lvl in self.levels if whole_structure else clear_levels:
            lvl.clear()
        offset = 0
        filled: List[Level] = []
        for i in range(self.config.max_levels):
            if not (num_batches >> i) & 1:
                continue
            size = self.config.level_capacity(i)
            level = self._level(i)
            level.fill(run.slice(offset, offset + size))
            filled.append(level)
            offset += size
        for level in filled:
            # Padding occupies the tail of the run, i.e. of the last level.
            exclude = trailing_placebos if level is filled[-1] else 0
            self._attach_filters(level, trailing_placebos=exclude)
        if offset != run.size:
            raise AssertionError("level distribution did not consume the input")
        if whole_structure:
            self.num_batches = num_batches
        self.device.record_kernel(
            kernel_name,
            coalesced_read_bytes=run.nbytes,
            coalesced_write_bytes=run.nbytes,
            work_items=run.size,
        )

    # ------------------------------------------------------------------ #
    # Snapshot / restore (durability subsystem)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """The structure's resident state as plain arrays and scalars.

        Everything :meth:`restore_state` needs to rebuild a bit-identical
        structure: the occupied levels' **encoded** runs verbatim
        (tombstones, stale duplicates and cleanup placebos included — the
        physical state, not a logical export), the shape-defining config
        fields, and the bookkeeping counters.  Queries against a restored
        structure are bit-identical to the original because the resident
        words are.  The level runs are immutable
        (:class:`~repro.core.run.SortedRun` columns are never written in
        place), so the returned dict can be serialized lazily without
        racing a later cascade.
        """
        levels = []
        for lvl in self.levels:
            if not lvl.is_full:
                continue
            levels.append(
                {"index": lvl.index, "keys": lvl.run.keys, "values": lvl.run.values}
            )
        return {
            "batch_size": self.batch_size,
            "key_only": self.key_only,
            "key_dtype": self.config.key_dtype.str,
            "value_dtype": self.config.value_dtype.str,
            "num_batches": self.num_batches,
            "epoch": self.epoch,
            "total_insertions": self.total_insertions,
            "total_deletions": self.total_deletions,
            "total_cleanups": self.total_cleanups,
            "total_compactions": self.total_compactions,
            "live_keys_upper_bound": self._live_keys_upper_bound,
            "trailing_placebos": self._trailing_placebos,
            "placebo_level": self._placebo_level,
            "levels": levels,
        }

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`snapshot_state` dict into this (empty) structure.

        The restore path is deliberately **not** :meth:`bulk_build`: a
        snapshot holds encoded level runs — tombstones and placebos
        included — while ``bulk_build`` takes decoded all-regular keys, so
        the levels are filled verbatim instead and the query filters are
        rebuilt deterministically from the restored keys (filters are a
        function of the resident run, not snapshotted state).  Requires an
        empty structure whose config matches the snapshot's shape-defining
        fields; bumps :attr:`epoch` once — a restore is a structural
        mutation like any cascade, and readers holding pre-restore pins
        must notice.
        """
        if self.num_batches != 0 or any(lvl.is_full for lvl in self.levels):
            raise RuntimeError("restore_state requires an empty GPU LSM")
        mismatches = [
            name
            for name, mine, theirs in (
                ("batch_size", self.batch_size, state["batch_size"]),
                ("key_only", self.key_only, state["key_only"]),
                ("key_dtype", self.config.key_dtype.str, state["key_dtype"]),
                ("value_dtype", self.config.value_dtype.str, state["value_dtype"]),
            )
            if mine != theirs
        ]
        if mismatches:
            raise ValueError(
                "snapshot does not fit this structure: mismatched "
                + ", ".join(mismatches)
            )
        expected_batches = sum(
            1 << entry["index"] for entry in state["levels"]
        )
        if expected_batches != state["num_batches"]:
            raise ValueError(
                f"snapshot is inconsistent: levels encode {expected_batches} "
                f"batches but num_batches is {state['num_batches']}"
            )

        total = expected_batches * self.batch_size
        with self.device.timed_region("lsm.restore", items=total):
            for entry in state["levels"]:
                level = self._level(entry["index"])
                keys = np.ascontiguousarray(
                    entry["keys"], dtype=self.config.key_dtype
                )
                values = entry["values"]
                if values is not None:
                    values = np.ascontiguousarray(
                        values, dtype=self.config.value_dtype
                    )
                level.fill(SortedRun(keys, values))
                trailing = (
                    state["trailing_placebos"]
                    if entry["index"] == state["placebo_level"]
                    else 0
                )
                self._attach_filters(level, trailing_placebos=trailing)
            self.num_batches = state["num_batches"]
            self.total_insertions = state["total_insertions"]
            self.total_deletions = state["total_deletions"]
            self.total_cleanups = state["total_cleanups"]
            self.total_compactions = state["total_compactions"]
            self._live_keys_upper_bound = state["live_keys_upper_bound"]
            self._trailing_placebos = state["trailing_placebos"]
            self._placebo_level = state["placebo_level"]
            self.device.record_kernel(
                "lsm.restore_levels",
                coalesced_read_bytes=sum(
                    lvl.run.nbytes for lvl in self.levels if lvl.is_full
                ),
                coalesced_write_bytes=sum(
                    lvl.run.nbytes for lvl in self.levels if lvl.is_full
                ),
                work_items=total,
            )
            self.epoch += 1

        if self.config.validate_invariants:
            from repro.core.invariants import check_lsm_invariants

            check_lsm_invariants(self)

    def rollback_to(self, state: dict) -> None:
        """Discard the resident state and reload a :meth:`snapshot_state`
        dict — the transactional-tick undo of the serving engine.

        Unlike :meth:`restore_state` (recovery into a *fresh* structure),
        the structure may be arbitrarily mutated — e.g. a tick's cascade
        ran, or an earlier update segment of a STRICT tick landed before a
        later one failed.  Everything the tick touched is dropped and the
        captured levels are reloaded verbatim; the epoch moves forward
        (never backwards — readers pinned on the aborted state must still
        notice), so answers after the rollback are bit-identical to the
        capture point while epoch-keyed caches correctly invalidate.
        """
        for lvl in self.levels:
            lvl.clear()
        self.num_batches = 0
        self._trailing_placebos = 0
        self._placebo_level = -1
        self.restore_state(state)

    # ------------------------------------------------------------------ #
    # Query acceleration (fence / Bloom filters)
    # ------------------------------------------------------------------ #
    def _attach_filters(self, level: Level, trailing_placebos: int = 0) -> None:
        """Attach the level's query filters right after it is filled.

        Called from every path that fills a level — the insertion cascade,
        :meth:`bulk_build` / :meth:`cleanup` (both via
        :meth:`_distribute_sorted`), :meth:`restore_state` — so resident
        filters always describe the resident run.  Filters are
        status-blind: they cover tombstones and stale duplicates too,
        which is what makes pruning answer-preserving (see
        :mod:`repro.core.filters`).

        The build is recorded here, from the sizes; nothing is hashed.
        The Bloom words are built here once the store has served a read,
        and until then by its first read (:meth:`build_pending_filters`):
        ingest and recovery replay hash no level merged away unread.

        The one exception is cleanup's *padding* placebos
        (``trailing_placebos`` tail elements): excluding them keeps the
        fence max at the largest real key.  This is safe — a padding
        placebo can never shadow anything (cleanup rebuilt every level, so
        no older copy of any key survives below it), unlike a *genuine*
        ``max_key`` tombstone, which is word-identical but arrives through
        the cascade and therefore stays covered.
        """
        if not self.config.filters_enabled:
            return
        keys = level.keys
        if trailing_placebos:
            keys = keys[: keys.size - trailing_placebos]
        level.filters = LevelFilters.build(
            keys,
            enable_fences=self.config.enable_fences,
            bloom_bits_per_key=self.config.bloom_bits_per_key,
            decode=self.encoder.decode_key,
            device=self.device,
            kernel_name="lsm.filters.build",
        )
        if self._build_filters_at_fill and level.filters.bloom is not None:
            level.filters.bloom.build()

    def build_pending_filters(self) -> None:
        """Build every resident level's pending Bloom words, and from now
        on each new level's at fill time — what a store's first read does.
        Records nothing: every build was recorded at fill time."""
        self._build_filters_at_fill = True
        for level in self.occupied_levels():
            if level.filters is not None and level.filters.bloom is not None:
                level.filters.bloom.build()

    def _read_levels(self) -> List[Level]:
        """:meth:`occupied_levels` for a read: the first one builds the
        pending filters."""
        if not self._build_filters_at_fill:
            self.build_pending_filters()
        return self.occupied_levels()

    def _prune_lookup_pending(
        self,
        level: Level,
        query_keys: np.ndarray,
        pending: np.ndarray,
        hashes: Optional[Tuple[np.ndarray, np.ndarray]],
        positions: Optional[np.ndarray],
    ) -> np.ndarray:
        """Filter the still-unresolved queries against one level.

        Returns the subset of ``pending`` whose keys *may* reside in the
        level.  Everything dropped here is guaranteed absent from the level, so
        skipping the binary search cannot change any answer.  ``hashes`` is
        :meth:`BloomFilter.hash_keys` of the whole ``query_keys`` batch
        (``None`` when no level carries a Bloom filter) and ``positions``
        their :meth:`BloomFilter.probe_positions` when the batch fits one
        probe block (``None`` otherwise): a level's filter is handed the
        pending columns of the one or the other.

        ``query_keys`` ascends and so does ``pending``, so the keys inside
        a level's fences are one slice of the pending ones: two binary
        searches find it, no mask is built.
        """
        stats = self._filter_stats
        stats.lookup_pairs += int(pending.size)
        filters = level.filters
        if filters is None:
            return pending

        q = query_keys[pending]
        if filters.has_fences:
            # Two register compares per query against the level header,
            # fused into the prologue of the level's probe kernel (hence
            # ``launches=0``): it reads the pending keys once and emits a
            # verdict byte.
            self.device.record_kernel(
                "lsm.lookup.fence",
                coalesced_read_bytes=q.nbytes,
                coalesced_write_bytes=int(pending.size),
                work_items=int(pending.size),
                launches=0,
            )
            first = int(q.searchsorted(filters.min_key, "left"))
            last = int(q.searchsorted(filters.max_key, "right"))
            stats.fence_pruned += int(pending.size) - (last - first)
            pending, q = pending[first:last], q[first:last]
        if filters.bloom is not None and pending.size:
            if positions is not None:
                probed = dict(positions=positions.take(pending, axis=1))
            else:
                probed = dict(hashes=(hashes[0][pending], hashes[1][pending]))
            maybe = filters.bloom.maybe_contains(
                q, device=self.device, kernel_name="lsm.lookup.bloom", **probed
            )
            stats.bloom_pruned += int(pending.size - np.count_nonzero(maybe))
            pending = pending[maybe]
        return pending

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def lookup(self, query_keys: np.ndarray) -> LookupResult:
        """Batch LOOKUP: most recent value per key, or "not found".

        One simulated thread per query walks the occupied levels from the
        most recent (smallest index) to the oldest and performs a
        lower-bound search in each (Section IV-B); it stops at the first
        level containing the query key — returning the value if that
        element is regular, "not found" if it is a tombstone.

        With query filters configured (see the ``enable_fences`` /
        ``bloom_bits_per_key`` knobs of :class:`LSMConfig`), every
        (query, level) pair is screened first and only the surviving pairs
        are binary-searched; with ``sort_queries`` the modelled device
        radix-sorts the batch once so per-level probes arrive in key order
        and earn the larger cached-probe discount.  Neither changes any
        answer.  (The *host* always probes in key order — that is an
        execution detail no counter sees; ``sort_queries`` decides what
        the device is charged for.)
        """
        return lookup_in_key_order(
            self.config, self.key_only, query_keys, self._lookup_sorted
        )

    def _lookup_sorted(
        self, qk: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """:meth:`lookup` of a validated, non-empty batch already in
        ascending key order: ``(found, values)`` in that same order.  A
        subset of a sorted batch stays sorted, so the shrinking unresolved
        set keeps the order for free."""
        nq = qk.size
        levels = self._read_levels()
        with self.device.timed_region("lsm.lookup", items=nq):
            sort_queries = self.config.sort_queries and nq > 1 and bool(levels)
            cached_probes = DEFAULT_CACHED_PROBES
            if sort_queries:
                # The modelled device sorts too: charge its key/position
                # radix sort, and its probes earn the larger discount.
                record_radix_sort(
                    self.device, nq, self.config.key_dtype, np.uint32
                )
                cached_probes = self.config.sorted_probe_cached_probes
                # Its sort emits key-width words, and that buffer is what
                # the per-level kernels then read and are charged for.
                qk = qk.astype(self.config.key_dtype)
            # The probe word of a query is loop-invariant: encode the whole
            # batch once and slice per level instead of re-encoding every
            # level's pending subset.
            probes = self.encoder.lower_probe(qk)
            # So are its Bloom probe positions: they depend on the key (and
            # the store-wide hash count) alone, so the batch is hashed once
            # for every level's filter — and a batch of one probe block
            # expands its ``k`` positions once too.
            hashes = positions = None
            if any(
                level.filters is not None and level.filters.bloom is not None
                for level in levels
            ):
                hashes = BloomFilter.hash_keys(qk)
                if nq <= _PROBE_BLOCK:
                    positions = BloomFilter.probe_positions(
                        hashes, derive_num_hashes(self.config.bloom_bits_per_key)
                    )

            resolved = np.zeros(nq, dtype=bool)
            out_found = np.zeros(nq, dtype=bool)
            out_values = (
                None
                if self.key_only
                else np.zeros(nq, dtype=self.config.value_dtype)
            )
            # The unresolved set only ever shrinks, so it is carried as an
            # index vector across levels (each level's bookkeeping is
            # O(|still pending|)) instead of being recomputed from the
            # full-width ``resolved`` mask per level.
            unresolved = np.arange(nq, dtype=np.int64)
            for level in levels:
                if unresolved.size == 0:
                    break
                pending = self._prune_lookup_pending(
                    level, qk, unresolved, hashes, positions
                )
                if pending.size == 0:
                    continue
                self._filter_stats.searched += int(pending.size)
                level_keys = level.keys
                probe = probes[pending]
                pos = level_keys.searchsorted(probe)
                record_search(
                    self.device, "lsm.lookup.lower_bound", pending.size,
                    probes.dtype.itemsize, level_keys.size, cached_probes,
                )
                # A key's words are its probe plus its status bit, so the
                # first word at or past the probe is the query's iff it lies
                # at most one above — and is regular iff exactly one.  A
                # query past the level's end reads the last word, which lies
                # below its probe and wraps far above.
                status = level_keys.take(pos, mode="clip") - probe
                match = status <= 1
                if level.filters is not None and level.filters.bloom is not None:
                    self._filter_stats.bloom_false_positives += int(
                        pending.size - np.count_nonzero(match)
                    )

                hit = status == 1
                hit_idx = pending[hit]
                out_found[hit_idx] = True
                if out_values is not None and level.values is not None:
                    out_values[hit_idx] = level.values[pos[hit]]
                matched = pending[match]
                if matched.size:
                    resolved[matched] = True
                    unresolved = unresolved[~resolved[unresolved]]

            if sort_queries:
                # The answers leave in request order: one scatter of them.
                answer_bytes = out_found.nbytes + (
                    out_values.nbytes if out_values is not None else 0
                )
                self.device.record_kernel(
                    "lsm.lookup.scatter_results",
                    coalesced_read_bytes=answer_bytes,
                    random_write_bytes=answer_bytes,
                    work_items=nq,
                )
        return out_found, out_values

    # ------------------------------------------------------------------ #
    # Count and range queries
    # ------------------------------------------------------------------ #
    def count(self, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
        """Batch COUNT: number of live keys in ``[k1, k2]`` per query."""
        return answer_ranges(
            self.config, self.key_only, k1, k2, "count", self._query_ranges
        )

    def range_query(self, k1: np.ndarray, k2: np.ndarray) -> RangeResult:
        """Batch RANGE: all live ``(key, value)`` pairs in ``[k1, k2]``.

        Results are returned in the paper's flat layout: per-query offsets
        into one buffer of keys (and values) sorted by key within each
        query.
        """
        return answer_ranges(
            self.config, self.key_only, k1, k2, "range", self._query_ranges
        )

    def _query_ranges(
        self, k1: np.ndarray, k2: np.ndarray, op: str
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """The COUNT/RANGE pipeline of :mod:`repro.core.ranges` with this
        store as its one group and the query as the segment.  Every level
        is probed in ascending ``k1`` order — uncharged host execution
        order, as in :meth:`lookup`."""
        order = np.argsort(k1)
        return query_ranges(
            self.config, [(self, 0, k1.size)], k1[order], k2[order], order, op,
            with_values=op == "range" and not self.key_only,
        )

    # ------------------------------------------------------------------ #
    # Maintenance (cleanup, incremental compaction, policies)
    # ------------------------------------------------------------------ #
    def cleanup(self, trigger: str = "manual") -> dict:
        """Remove tombstones, deleted elements and replaced duplicates.

        Section IV-E, expressed as the five composable stages of
        :mod:`repro.core.maintenance`: merge every occupied level
        (newest first), mark the valid elements, compact them with a
        two-bucket multisplit, pad with placebo tombstones of maximal key
        up to a multiple of ``b``, and redistribute into fresh levels.

        ``trigger`` labels the run in the per-policy trigger counters of
        :meth:`maintenance_stats` (policies pass their own name through
        :meth:`run_due_maintenance`).

        Returns a small statistics dict (elements before/after, removed
        count, padding added) used by the benchmark harness.
        """
        return self._run_maintenance(
            lambda: maintenance_mod.run_cleanup(self), trigger
        )

    def compact_levels(self, k: int, trigger: str = "manual") -> dict:
        """Incrementally compact the ``k`` smallest occupied levels into
        their target level.

        The paper's cascade generalised (see
        :func:`repro.core.maintenance.run_compaction`): merge only the
        ``k`` most recent levels, drop the stale copies *within* that
        prefix — replaced duplicates and elements shadowed by a prefix
        tombstone — and fold the survivors into the single smallest level
        that holds them, duplicate-padded, strictly below the untouched
        levels.  Tombstones survive a partial prefix (they may shadow
        older untouched copies; a whole-structure prefix drops them like
        cleanup), every answer is bit-identical before and after, and the
        cost scales with the touched prefix instead of the whole
        structure.
        """
        return self._run_maintenance(
            lambda: maintenance_mod.run_compaction(self, k), trigger
        )

    def _run_maintenance(self, operation, trigger: str) -> dict:
        """Run one maintenance operation, recording its lifetime stats."""
        seconds_before = self.device.simulated_seconds
        stats = operation()
        if stats["elements_before"] or stats["elements_after"]:
            self._maintenance_stats.record(
                stats, trigger, self.device.simulated_seconds - seconds_before
            )
            if stats["kind"] == "cleanup" and not stats["removed"]:
                # Nothing was stale: re-running the rebuild before the
                # structure changes would reproduce the same nothing.
                # Rebuild-on-trip policies read this mark to quench.
                self._futile_rebuild_epoch = self.epoch
        return stats

    def maintenance_due(self) -> Optional["maintenance_mod.MaintenanceAction"]:
        """Evaluate the configured maintenance policy (``None`` when no
        policy is configured or nothing is due)."""
        policy = self.config.maintenance_policy
        if policy is None:
            return None
        return policy.decide(self)

    def run_due_maintenance(self) -> Optional[dict]:
        """Evaluate the configured policy and run what it asks for.

        This is the single evaluation entry point of the maintenance
        subsystem: the serving engine calls it after every executed tick
        (between ticks, on the executor thread — maintenance bumps
        :attr:`epoch` exactly like a cascade and never interleaves with a
        tick's pinned reads), :class:`~repro.scale.sharded.ShardedLSM`
        calls it per shard, and ingest loops call it once per step.
        Returns the operation's statistics dict, or ``None`` when nothing
        was due.
        """
        action = self.maintenance_due()
        if action is None:
            return None
        if action.kind == "cleanup":
            return self.cleanup(trigger=action.policy)
        return self.compact_levels(action.levels, trigger=action.policy)

    def maintenance_stats(self) -> dict:
        """Lifetime maintenance counters: runs split by kind, per-policy
        trigger counts, reclaimed elements, padding added and the
        simulated device time maintenance consumed.  Surfaced by
        :attr:`repro.serve.engine.EngineStats.backend_maintenance`."""
        return self._maintenance_stats.as_dict()

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def _distinct_regular_keys(self, sorted_words: np.ndarray) -> int:
        """Number of distinct original keys with a regular (non-tombstone)
        element in one key-sorted run.

        Pure host-side bookkeeping for the stale-fraction estimate — on the
        real device this count falls out of the sort epilogue for free
        (adjacent-difference plus a reduction over data already in cache),
        so no kernel traffic is recorded.
        """
        regular_words = sorted_words[self.encoder.is_regular(sorted_words)]
        return int(
            np.count_nonzero(
                SortedRun(regular_words).first_per_key(self.encoder.strip_status)
            )
        )

    def stale_fraction_estimate(self) -> float:
        """Crude upper bound on the fraction of *reclaimable* stale
        resident elements, derived from the lifetime update counters; this
        is what :class:`~repro.core.maintenance.StaleFractionPolicy` reads.

        The live population is bounded both by the insertion/deletion flow
        (``total_insertions - total_deletions``) and by the accumulated
        number of *distinct* inserted keys, so repeatedly re-inserting the
        same key — which inflates ``total_insertions`` without growing the
        live population — no longer drives the estimate to zero.

        The irreducible trailing placebos the most recent cleanup padded
        with are excluded from both sides of the fraction: re-running
        cleanup would only remove and re-add them, so counting them as
        stale made a threshold policy re-trigger cleanup forever with zero
        reclaim.  Right after a cleanup the estimate is therefore exactly
        ``0.0``, padding or not.  Once a cascade merges the padded level,
        the placebos become ordinary reclaimable stale data and re-enter
        the estimate.
        """
        physical = self.num_elements - self._trailing_placebos
        if physical <= 0:
            return 0.0
        flow_bound = max(0, self.total_insertions - self.total_deletions)
        live_upper_bound = min(
            flow_bound, self._live_keys_upper_bound, physical
        )
        stale = physical - live_upper_bound
        return min(1.0, stale / physical)
