"""Epoch-guarded hot-key read cache in front of a dictionary backend.

The paper's structures amortise work over bulk-synchronous batches, so a
repeated hot key still pays a full per-level probe on every tick.
:class:`ReadCachedBackend` is a transparent proxy that memoises LOOKUP
answers per key in a bounded LRU, keyed on the backend's **structural
epoch**: every mutation (batch push, cascade, cleanup, maintenance) bumps
the epoch, and the cache is invalidated *wholesale* the moment the
observed epoch differs from the epoch the cache was filled at.  That
makes the contract trivially bit-identical — a cached answer is only ever
served for the exact structure state that produced it — and composes with
the planner's SNAPSHOT/STRICT epoch pinning unchanged (the proxy forwards
``epoch`` / ``shard_epochs`` untouched, so
:func:`repro.api.planner.execute_plan` pins and verifies the same values
it would see without the cache).

Only ``lookup`` is intercepted; ordered queries, every mutation and a
LOOKUP batch the cache cannot key exactly (anything but a 1-D array of
non-negative integers) forward straight to the inner backend, which
validates them.  The store is a flat open-addressing hash table
(Fibonacci hashing, linear probing) over append-only answer columns, so
the hit path is a handful of vectorized gathers.  Every fill lays the
table out in one pass: the entries, sorted by home slot, each take the
first slot at or after their home that no earlier one took.  The
``capacity`` overflow slots after the home slots mean nothing wraps and
the last slot stays empty, so every probe ends.  Recency is
batch-granular: every key touched by one ``lookup`` call shares one LRU
stamp, and eviction drops the oldest-stamped entries first.

Backends without an ``epoch`` / ``shard_epochs`` surface cannot signal
mutations, so the proxy degrades to a counting pass-through for them
(nothing is ever cached; correctness over speed).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.lsm import LookupResult
from repro.primitives.radix_sort import stable_order

__all__ = ["ReadCachedBackend", "DEFAULT_CACHE_CAPACITY"]

#: Default bound on cached keys — small enough to stay a "hot key" cache,
#: large enough to cover every benchmark's hot set.
DEFAULT_CACHE_CAPACITY = 4096

#: Fibonacci-hashing multiplier (2^64 / golden ratio, forced odd).
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


class ReadCachedBackend:
    """Bounded-LRU lookup cache wrapped around a dictionary backend.

    Every attribute that is not ``lookup`` (or cache plumbing) forwards to
    the wrapped backend, so the proxy satisfies
    :class:`~repro.scale.protocol.DictionaryProtocol` whenever the inner
    backend does, and the serving engine's telemetry (``filter_stats``,
    ``maintenance_stats``, ``profile``, epoch pinning) reads through it
    transparently.

    Parameters
    ----------
    inner:
        The backend to wrap (``GPULSM``, ``ShardedLSM``, or any
        epoch-bearing dictionary).
    capacity:
        Maximum number of distinct keys held; the least recently used
        keys (batch-granular stamps) are evicted first.  ``0`` disables
        caching (pure pass-through with counters).
    """

    def __init__(self, inner, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._inner = inner
        self._capacity = int(capacity)
        self._fill_token = self._epoch_token()
        self._has_values: Optional[bool] = None
        self._values_dtype = np.dtype(np.uint64)
        self._clock = 0
        # At least 4x capacity home slots keep the load factor <= 0.25, so
        # probe runs stay short.  A run can spill past the last home slot
        # by at most capacity - 1 entries: the capacity overflow slots
        # hold it without wrapping and leave the final slot empty.
        home_slots = 8
        while home_slots < 4 * max(self._capacity, 1):
            home_slots *= 2
        self._shift = np.uint64(64 - home_slots.bit_length() + 1)
        self._table_slot = np.full(home_slots + self._capacity, -1, dtype=np.int64)
        self._reset_store()
        self._hits = 0
        self._misses = 0
        self._fills = 0
        self._evictions = 0
        self._invalidations = 0

    def _reset_store(self) -> None:
        # Append-only answer columns indexed by the table's slot values.
        self._table_slot.fill(-1)
        cap = self._capacity
        self._entry_keys = np.empty(cap, dtype=np.uint64)
        self._found = np.empty(cap, dtype=bool)
        self._vals = np.empty(cap, dtype=self._values_dtype)
        self._stamps = np.empty(cap, dtype=np.int64)
        self._n_entries = 0

    # ------------------------------------------------------------------ #
    # Transparent forwarding
    # ------------------------------------------------------------------ #
    @property
    def inner(self):
        """The wrapped backend."""
        return self._inner

    def __getattr__(self, name: str):
        # Only called for attributes not found on the proxy itself:
        # mutations, ordered queries, telemetry, epoch pinning, devices.
        return getattr(self._inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReadCachedBackend({self._inner!r}, capacity={self._capacity}, "
            f"entries={self._n_entries})"
        )

    # ------------------------------------------------------------------ #
    # Epoch guard
    # ------------------------------------------------------------------ #
    def _epoch_token(self):
        """The structural-state token answers are keyed on.

        A sharded backend's boundary version plus its tuple of per-shard
        epochs (a summed ``epoch`` could in principle alias two distinct
        states, and a rebalance rebuilds shards whose fresh counters could
        alias an earlier tuple — the boundary version disambiguates); a
        single structure's ``epoch`` counter; ``None`` when the backend
        has neither — in which case nothing is ever cached.
        """
        shard_epochs = getattr(self._inner, "shard_epochs", None)
        if shard_epochs is not None:
            version = int(getattr(self._inner, "boundary_version", 0))
            return (version, tuple(shard_epochs))
        return getattr(self._inner, "epoch", None)

    def _maybe_invalidate(self) -> None:
        token = self._epoch_token()
        if token != self._fill_token:
            if self._n_entries:
                self._reset_store()
                self._invalidations += 1
            self._fill_token = token

    # ------------------------------------------------------------------ #
    # Hash-table plumbing
    # ------------------------------------------------------------------ #
    def _home(self, keys: np.ndarray) -> np.ndarray:
        """Home slot of each ``uint64`` key: the top bits of its
        Fibonacci product (``uint64``, below the home-slot count)."""
        return (keys * _HASH_MULT) >> self._shift

    def _probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized linear probe: ``(hit_mask, entry)`` per key.

        Each round reads the next table position of every still-unresolved
        key; a key resolves on its own key (hit) or on an empty slot
        (definitive miss: no run has a hole, and the last slot is empty).
        Rounds = the longest run walked, a few at our load.
        """
        pos = self._home(keys).view(np.int64)
        entry = self._table_slot[pos]
        occupied = entry >= 0
        # An empty slot's -1 reads the last column entry; `occupied` masks it.
        hit = occupied & (self._entry_keys[entry] == keys)
        todo = np.flatnonzero(occupied & ~hit)
        pos = pos[todo]
        while todo.size:
            pos += 1
            e = self._table_slot[pos]
            entry[todo] = e
            occ = e >= 0
            now_hit = occ & (self._entry_keys[e] == keys[todo])
            hit[todo[now_hit]] = True
            walk_on = occ & ~now_hit
            todo = todo[walk_on]
            pos = pos[walk_on]
        return hit, entry

    def _place(self) -> None:
        """Lay the table out over every entry in one pass.

        Ordered by home slot (ties by entry index), entry *i* takes slot
        ``max.accumulate(home - i) + i``: its home, or the slot after the
        previous entry's when that is later.  Every slot from an entry's
        home to its own is therefore occupied — a valid linear-probing
        layout — and at most ``capacity - 1`` entries spill past the last
        home slot, so the final slot stays empty.
        """
        n = self._n_entries
        home = self._home(self._entry_keys[:n])
        order = stable_order(home)
        rank = np.arange(n)
        slot = np.maximum.accumulate(home[order].view(np.int64) - rank) + rank
        self._table_slot.fill(-1)
        self._table_slot[slot] = order

    def _evict_to(self, room: int) -> None:
        """Drop the oldest-stamped entries until ``room`` slots are free,
        compacting the columns over the survivors (the fill that follows
        lays the table out anew)."""
        n = self._n_entries
        drop = n + room - self._capacity
        if drop >= n:
            keep = np.empty(0, dtype=np.int64)
        else:
            keep = np.argpartition(self._stamps[:n], drop)[drop:]
        kept = keep.size
        self._entry_keys[:kept] = self._entry_keys[keep]
        self._found[:kept] = self._found[keep]
        self._vals[:kept] = self._vals[keep]
        self._stamps[:kept] = self._stamps[keep]
        self._n_entries = kept
        self._evictions += drop

    # ------------------------------------------------------------------ #
    # The cached operation
    # ------------------------------------------------------------------ #
    def lookup(self, query_keys: np.ndarray) -> LookupResult:
        """Answer a LOOKUP batch, serving hot keys from the cache.

        Bit-identical to ``inner.lookup(query_keys)``: per-key answers
        are a pure function of the structure state, the cache only holds
        answers produced at the *current* epoch token, and missing keys
        are resolved by the inner backend itself.  A batch the backend
        rejects raises its exception and leaves the cache untouched.
        """
        query_keys = np.asarray(query_keys)
        keys = _exact_keys(query_keys)
        usable = self._capacity and self._fill_token is not None
        if keys is None or not keys.size or not usable:
            result = self._inner.lookup(query_keys)
            self._maybe_invalidate()
            self._misses += int(query_keys.size)
            return result

        n = keys.size
        if self._n_entries and self._epoch_token() == self._fill_token:
            hit, entry = self._probe(keys)
            hit_idx = np.flatnonzero(hit)
            miss_idx = np.flatnonzero(~hit)
        else:
            hit_idx = np.empty(0, dtype=np.int64)
            miss_idx = np.arange(n)
        if miss_idx.size:
            # One sort yields the unique misses and where each came from.
            uniq_miss, inverse = np.unique(query_keys[miss_idx], return_inverse=True)
            result = self._inner.lookup(uniq_miss)
            if self._has_values is None:
                self._has_values = result.values is not None
                if self._has_values:
                    self._values_dtype = result.values.dtype
                    self._vals = self._vals.astype(self._values_dtype)
        # The backend has answered: only now may the cache change.
        self._maybe_invalidate()
        self._clock += 1
        self._hits += hit_idx.size
        self._misses += miss_idx.size

        found = np.empty(n, dtype=bool)
        values = np.empty(n, dtype=self._values_dtype) if self._has_values else None
        if hit_idx.size:
            hit_entries = entry[hit_idx]
            found[hit_idx] = self._found[hit_entries]
            if values is not None:
                values[hit_idx] = self._vals[hit_entries]
            self._stamps[hit_entries] = self._clock  # LRU touch, one scatter
        if miss_idx.size:
            found[miss_idx] = result.found[inverse]
            if values is not None:
                values[miss_idx] = result.values[inverse]
            self._fill(uniq_miss, result)
        return LookupResult(found=found, values=values)

    def _fill(self, uniq_miss: np.ndarray, result: LookupResult) -> None:
        """Append freshly resolved unique keys and lay the table out."""
        add = min(int(uniq_miss.size), self._capacity)
        if self._n_entries + add > self._capacity:
            self._evict_to(add)
        # More new keys than the whole cache holds keep the first
        # `capacity` (they are all equally fresh).
        lo = self._n_entries
        hi = lo + add
        self._entry_keys[lo:hi] = uniq_miss[:add]
        self._found[lo:hi] = result.found[:add]
        self._vals[lo:hi] = 0 if result.values is None else result.values[:add]
        self._stamps[lo:hi] = self._clock
        self._n_entries = hi
        self._fills += add
        self._place()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        """Number of keys currently cached."""
        return int(self._n_entries)

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/fill/eviction/invalidation counters plus occupancy.

        ``hits`` and ``misses`` count *operations* (a batch with the same
        hot key 64 times scores 64 hits), matching the engine's
        per-operation throughput accounting.
        """
        return {
            "capacity": self._capacity,
            "entries": int(self._n_entries),
            "hits": self._hits,
            "misses": self._misses,
            "fills": self._fills,
            "evictions": self._evictions,
            "invalidations": self._invalidations,
        }

    def clear(self) -> None:
        """Drop every cached answer (counters are kept)."""
        self._reset_store()
        self._fill_token = self._epoch_token()

    def reset_cache_counters(self) -> None:
        self._hits = 0
        self._misses = 0
        self._fills = 0
        self._evictions = 0
        self._invalidations = 0


def _exact_keys(query_keys: np.ndarray) -> Optional[np.ndarray]:
    """The batch as ``uint64`` words the cache can key exactly, or ``None``
    when it is not a one-dimensional array of non-negative integers."""
    kind = query_keys.dtype.kind
    if query_keys.ndim != 1 or kind not in "ui":
        return None
    if kind == "i" and query_keys.size and query_keys.min() < 0:
        return None
    return query_keys.astype(np.uint64, copy=False)
