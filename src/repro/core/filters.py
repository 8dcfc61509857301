"""Per-level query filters: fence pairs and Bloom filters.

The paper identifies "the random memory accesses required in all binary
searches" as the lookup bottleneck: every LOOKUP walks all occupied levels
most-recent-first and binary-searches each one (~log r levels × log b random
probes per query), which is exactly why the one-level GPU SA beats the GPU
LSM on lookups (Table III).  Classic LSM engines answer this with per-run
*filters* that prune a level before it is probed:

* a **fence pair** — the minimum and maximum original key resident in the
  level.  Two register compares per (query, level); after a bulk build,
  where "smaller keys end up in smaller levels" (Section IV-E), fences are
  extremely selective, and for COUNT/RANGE they skip every level whose key
  range does not overlap ``[k1, k2]``.
* a **Bloom filter** over the level's *original keys* — a bit array of
  ``bloom_bits_per_key`` bits per resident element with ``k ≈ b·ln 2``
  derived hash probes.  A negative answer is definitive, so a miss-heavy
  query stream replaces almost every binary search with a handful of bit
  probes; a positive answer may be a false positive (~0.8 % at 10
  bits/key), in which case the binary search simply runs and the answer is
  unchanged.

Correctness requires the filters to be *status-blind*: the Bloom filter
and the fences cover tombstones (and stale duplicates) as well as regular
elements, because a query that finds a tombstone in a recent level must
stop there — skipping that level would let an older, shadowed copy of the
key answer instead.  Built this way, filters can only skip levels that
contain **no** element with the queried key, so every pruned probe is a
probe that could not have changed the answer.

Cost accounting: filter bit probes are charged to the cost model as the
dedicated ``FILTER`` kernel class (:class:`repro.gpu.cost_model.AccessPattern`)
— scattered word accesses into a structure small enough to stay resident
in L2, cheaper than full 32-byte random transactions but short of
streaming.  Filter memory is owned by the level (and therefore counted in
``memory_usage_bytes``).

Execution is separate from that accounting.  The modelled probe kernel
hashes in registers and stops a query at its first unset bit; the modelled
build kernel is one fused pass.  The host computes the same bit arrays and
the same verdicts the cheapest way it can — the two double-hashing hashes
once per key per batch (:meth:`BloomFilter.hash_keys`, shared by every
level a lookup visits), and for a batch of one probe block its ``k``
positions too (:meth:`BloomFilter.probe_positions`, each level handed the
columns of its pending queries), all ``k`` bits of a query block tested
in one broadcast, the build through a byte scratch packed into words — and
derives what the early-exiting kernel would have read in closed form, so
every record is the one the literal per-hash loops produced
(``tests/test_accounting_golden.py`` keeps those loops as the reference).

The host also builds later than the device would.  A level's filters are
*recorded* when the level is filled — the ``filters.build`` kernel from
the sizes, the fence pair from the sorted run's first and last key — but
its Bloom words are built by :meth:`BloomFilter.build` the first time
something reads them.  The store decides when that is: one that has not
yet served a read (bulk ingest, recovery replay, a shard fresh from a
split) leaves them pending, so a level merged away before any query saw
it is never hashed; its first read builds every pending level, and from
then on each new level is built as it is filled.  Words, verdicts and
records are the same either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.gpu.device import Device

#: Bytes touched per Bloom bit probe: one 64-bit word of the bit array.
FILTER_PROBE_WORD_BYTES = 8

#: Queries per block of :meth:`BloomFilter.maybe_contains`'s ``k × block``
#: position matrix: a serving tick is one block — a lookup expands its
#: positions once for every level — and a large batch (a final-state
#: check, a bulk benchmark) keeps a cache-sized transient instead of one
#: that grows with it.
_PROBE_BLOCK = 4096

#: splitmix64 finalizer constants (public-domain mixing function); the
#: same per-key mix a real GPU filter kernel computes in registers.
_MIX_MUL_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalizer over a uint64 array (array integer
    arithmetic wraps modulo 2**64 silently, which is the intent)."""
    x = x + _GOLDEN
    x ^= x >> np.uint64(30)
    x *= _MIX_MUL_1
    x ^= x >> np.uint64(27)
    x *= _MIX_MUL_2
    x ^= x >> np.uint64(31)
    return x


def derive_num_hashes(bits_per_key: int) -> int:
    """Optimal Bloom hash count ``k = round(b · ln 2)`` for ``b`` bits/key."""
    if bits_per_key <= 0:
        raise ValueError("bits_per_key must be positive")
    return max(1, int(round(bits_per_key * math.log(2))))


class BloomFilter:
    """A vectorised Bloom filter over original (decoded) keys.

    The bit array is stored as 64-bit words; positions are derived by
    double hashing (``pos_i = (h1 + i·h2) mod m``), the construction that
    preserves the false-positive bound with two hashes per key (Kirsch &
    Mitzenmacher, "Less Hashing, Same Performance", ESA 2006).

    The *device* probe kernel early-exits a query at its first unset bit,
    and the recorded filter traffic is that many word reads; the *host*
    tests all ``k`` bits at once and derives that count from the bit
    matrix (see the module docstring).
    """

    def __init__(self, num_bits: int, num_hashes: int, pending=None) -> None:
        if num_bits <= 0 or num_hashes <= 0:
            raise ValueError("num_bits and num_hashes must be positive")
        # Round up to whole words; the modulus is the usable bit count.
        self.num_bits = int(num_bits)
        self.num_hashes = int(num_hashes)
        #: ``None``, or a callable returning the keys :meth:`build` adds.
        self._pending = pending
        self._words: Optional[np.ndarray] = None

    def build(self) -> np.ndarray:
        """The bit array: allocated, and the pending keys added, on the
        first call — the one place words come into being."""
        if self._words is None:
            self._words = np.zeros(-(-self.num_bits // 64), dtype=np.uint64)
            pending, self._pending = self._pending, None
            if pending is not None:
                self.add(pending())
        return self._words

    words = property(build)

    @property
    def built(self) -> bool:
        """Whether :meth:`build` has run (the words exist)."""
        return self._words is not None

    @property
    def nbytes(self) -> int:
        """Device bytes held by the bit array (built or not)."""
        return 8 * -(-self.num_bits // 64)

    # ------------------------------------------------------------------ #
    # Hashing
    # ------------------------------------------------------------------ #
    @staticmethod
    def hash_keys(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The two double-hashing hashes ``(h1, h2)`` of every key.

        They depend on the key alone — not on a filter's size or hash
        count — so a lookup batch is hashed once and every level's filter
        is handed the subset it still has pending.  ``h2`` is forced odd,
        so the step between a key's positions is never zero.
        """
        k = np.asarray(keys).astype(np.uint64, copy=False)
        return _splitmix64(k), _splitmix64(k ^ _MIX_MUL_1) | np.uint64(1)

    @staticmethod
    def probe_positions(
        hashes: Tuple[np.ndarray, np.ndarray], num_hashes: int
    ) -> np.ndarray:
        """The ``num_hashes × n`` matrix of unreduced probe positions
        ``h1 + i·h2`` of :meth:`hash_keys`' output — like the hashes, a
        function of the key alone (and ``k``), so a lookup batch computes
        it once for every level's filter of that ``k``."""
        h1, h2 = hashes
        return h1 + np.arange(num_hashes, dtype=np.uint64)[:, np.newaxis] * h2

    def _reduce(self, pos: np.ndarray) -> np.ndarray:
        """``pos mod num_bits``, written as ``pos − ⌊pos / m⌋·m`` because
        numpy divides by a scalar several times faster than it takes a
        remainder."""
        m = np.uint64(self.num_bits)
        quotient = pos // m
        quotient *= m
        return np.subtract(pos, quotient, out=quotient)

    # ------------------------------------------------------------------ #
    # Build / probe
    # ------------------------------------------------------------------ #
    def add(self, keys: np.ndarray) -> None:
        """Set the ``num_hashes`` bits of every key (no traffic recorded —
        the caller accounts the build as one fused kernel).

        One hash pass, then ``k`` steps of ``pos += h2`` marking a byte
        per bit, packed into the words at the end: the transient is the
        byte scratch plus O(n) positions, never a ``k × n`` matrix.
        """
        words = self.words
        pos, h2 = self.hash_keys(keys)
        scratch = np.zeros(words.size * 64, dtype=bool)
        for _ in range(self.num_hashes):
            # (Viewed as int64 — positions are far below 2**63 — an index
            # spares fancy indexing a cast per element.)
            scratch[self._reduce(pos).view(np.int64)] = True
            pos += h2
        words |= np.packbits(scratch, bitorder="little").view("<u8")

    def maybe_contains(
        self,
        keys: np.ndarray,
        device: Optional[Device] = None,
        kernel_name: str = "filters.bloom_probe",
        hashes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        positions: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Boolean mask: False means *definitely absent*, True means maybe.

        ``hashes`` is :meth:`hash_keys` of ``keys``, or ``positions`` their
        :meth:`probe_positions` for this filter's hash count, when the
        caller has already computed it (a lookup does once for all levels).
        The traffic recorded is the number of word reads the
        early-exiting device kernel performs — per query, up to and
        including its first unset bit — charged as filter probes.
        """
        keys = np.asarray(keys)
        n = keys.size
        if positions is None:
            h1, h2 = self.hash_keys(keys) if hashes is None else hashes
        elif positions.shape[0] != self.num_hashes:
            raise ValueError("positions must hold one row per hash of this filter")
        maybe = np.empty(n, dtype=bool)
        probes_made = n
        for lo in range(0, n, _PROBE_BLOCK):
            block = slice(lo, lo + _PROBE_BLOCK)
            if positions is None:
                pos = self.probe_positions((h1[block], h2[block]), self.num_hashes)
            else:
                pos = positions[:, block]
            pos = self._reduce(pos)  # k × block
            words = self.words[(pos >> np.uint64(6)).view(np.int64)]
            bits = (words >> (pos & np.uint64(63))) & np.uint64(1)
            # Row i holds the queries still probing after hash i: the device
            # kernel reads hash 0 for all n and hash i + 1 only for those.
            alive = np.logical_and.accumulate(bits.astype(bool), axis=0)
            maybe[block] = alive[-1]
            probes_made += int(np.count_nonzero(alive[:-1]))
        if device is not None and n:
            device.record_kernel(
                kernel_name,
                coalesced_read_bytes=keys.nbytes,
                coalesced_write_bytes=n,  # one verdict byte per query
                filter_read_bytes=probes_made * FILTER_PROBE_WORD_BYTES,
                work_items=n,
            )
        return maybe


@dataclass
class LevelFilters:
    """The query filters attached to one resident LSM level.

    ``min_key`` / ``max_key`` are the fence pair over the level's original
    keys (``None`` when fences are disabled); ``bloom`` is the level's
    Bloom filter (``None`` when disabled).  Both are status-blind — built
    over every resident element, tombstones included — which is what makes
    pruning answer-preserving (see the module docstring).
    """

    min_key: Optional[int] = None
    max_key: Optional[int] = None
    bloom: Optional[BloomFilter] = None

    @property
    def has_fences(self) -> bool:
        return self.min_key is not None

    @property
    def nbytes(self) -> int:
        """Device bytes the filters occupy (fences live in the level header)."""
        fence_bytes = 16 if self.has_fences else 0
        return fence_bytes + (self.bloom.nbytes if self.bloom is not None else 0)

    @classmethod
    def build(
        cls,
        sorted_keys: np.ndarray,
        *,
        enable_fences: bool,
        bloom_bits_per_key: int,
        decode: Callable[[np.ndarray], np.ndarray] = np.asarray,
        device: Optional[Device] = None,
        kernel_name: str = "filters.build",
    ) -> "LevelFilters":
        """The filters of one level out of its key column, ascending by
        key (``decode`` maps it to original keys).  The fences are its
        first and last key; the Bloom words wait for :meth:`BloomFilter.build`.

        Accounted now, from the sizes, as one fused kernel: a single
        coalesced pass over the keys (the min/max reduction and the hash
        computation read the same stream) plus scattered filter-class
        writes for the Bloom bit sets.
        """
        n = sorted_keys.size
        filters = cls()
        if enable_fences and n:
            filters.min_key, filters.max_key = decode(sorted_keys[[0, -1]]).tolist()
        bloom_write_bytes = 0
        if bloom_bits_per_key > 0 and n:
            num_hashes = derive_num_hashes(bloom_bits_per_key)
            filters.bloom = BloomFilter(
                num_bits=max(64, n * bloom_bits_per_key),
                num_hashes=num_hashes,
                pending=lambda: decode(sorted_keys),
            )
            bloom_write_bytes = n * num_hashes * FILTER_PROBE_WORD_BYTES
        if device is not None and n:
            device.record_kernel(
                kernel_name,
                coalesced_read_bytes=sorted_keys.nbytes,
                filter_write_bytes=bloom_write_bytes,
                work_items=n,
            )
        return filters


@dataclass
class FilterStatsCounter:
    """Lifetime pruning statistics of one dictionary's query filters.

    ``lookup_pairs`` counts the (query, level) probe candidates the lookup
    path considered; each candidate is either fence-pruned, Bloom-pruned,
    or binary-searched.  ``bloom_false_positives`` counts searched pairs
    that passed a Bloom filter but found no matching key in the level —
    the price of the probabilistic filter.  ``range_pairs`` /
    ``range_fence_pruned`` are the COUNT/RANGE equivalents (fences only;
    Bloom filters cannot answer interval questions).
    """

    lookup_pairs: int = 0
    fence_pruned: int = 0
    bloom_pruned: int = 0
    searched: int = 0
    bloom_false_positives: int = 0
    range_pairs: int = 0
    range_fence_pruned: int = 0
    filter_memory_bytes: int = 0  # refreshed by the owner on request

    _COUNTERS = (
        "lookup_pairs",
        "fence_pruned",
        "bloom_pruned",
        "searched",
        "bloom_false_positives",
        "range_pairs",
        "range_fence_pruned",
    )

    def merge(self, other: "FilterStatsCounter") -> None:
        """Accumulate another counter into this one (shard aggregation)."""
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.filter_memory_bytes += other.filter_memory_bytes

    def as_dict(self) -> Dict[str, float]:
        """Counters plus derived prune/hit rates, flat for telemetry rows."""
        out: Dict[str, float] = {f.name: getattr(self, f.name) for f in fields(self)}
        pairs = self.lookup_pairs
        out["lookup_prune_rate"] = (
            (self.fence_pruned + self.bloom_pruned) / pairs if pairs else 0.0
        )
        out["fence_prune_rate"] = self.fence_pruned / pairs if pairs else 0.0
        out["bloom_prune_rate"] = self.bloom_pruned / pairs if pairs else 0.0
        out["searched_fraction"] = self.searched / pairs if pairs else 1.0
        out["bloom_false_positive_rate"] = (
            self.bloom_false_positives / self.searched if self.searched else 0.0
        )
        out["range_prune_rate"] = (
            self.range_fence_pruned / self.range_pairs if self.range_pairs else 0.0
        )
        return out
