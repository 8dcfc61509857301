"""The read cache's one-pass table layout against the round-based insertion
it replaced.

``RoundsReadCache`` keeps the old table as a reference: home slots probed
modulo their count (the overflow tail stays unused), new keys placed in
probe rounds (one ``np.unique`` winner per free slot per round), and every
eviction followed by a rebuild of the survivors through the same rounds.
Entries, stamps, eviction choices and counters are shared code, so the
property below requires equal answers, ``cache_stats()`` and entry columns
from both caches over random lookup / mutation traces — the slot layout is
the only difference, and nothing outside the table observes it — and
checks the new table's layout invariant after every step.
"""

import functools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lsm import GPULSM
from repro.serve import ReadCachedBackend

CAPACITIES = (1, 4, 16, 4096)
BATCH = 8
#: Ordinary keys come from this small range, so inserts make them present.
SMALL_KEYS = 64


def reference_insert_slots(table, mask, home, slots):
    """Round-based insertion of absent keys into a wrapped table.

    Keys that collide — with occupied slots or with each other — advance
    together to their next probe position each round; one winner per free
    slot is placed per round (first in batch order, via ``np.unique``'s
    first-occurrence index on the stable-sorted positions).
    """
    h = home.copy()
    pending = np.arange(h.size)
    while pending.size:
        hp = h[pending]
        free = table[hp] < 0
        placed = np.zeros(pending.size, dtype=bool)
        idx = np.flatnonzero(free)
        if idx.size:
            _, first = np.unique(hp[idx], return_index=True)
            winners = pending[idx[first]]
            table[h[winners]] = slots[winners]
            placed[idx[first]] = True
        pending = pending[~placed]
        h[pending] = (h[pending] + 1) & mask


class RoundsReadCache(ReadCachedBackend):
    """The cache with the table it had before the one-pass layout."""

    def _reset_store(self):
        super()._reset_store()
        self._placed = 0

    @property
    def _mask(self):
        return home_slot_count(self) - 1

    def _probe(self, keys):
        h = self._home(keys).astype(np.int64)
        slot = self._table_slot[h]
        occupied = slot >= 0
        hit = occupied & (self._entry_keys[np.maximum(slot, 0)] == keys)
        unresolved = np.flatnonzero(occupied & ~hit)
        while unresolved.size:
            nh = (h[unresolved] + 1) & self._mask
            h[unresolved] = nh
            s = self._table_slot[nh]
            slot[unresolved] = s
            occ = s >= 0
            now_hit = occ & (self._entry_keys[np.maximum(s, 0)] == keys[unresolved])
            hit[unresolved[now_hit]] = True
            unresolved = unresolved[occ & ~now_hit]
        return hit, slot

    def _evict_to(self, room):
        super()._evict_to(room)
        self._table_slot.fill(-1)
        self._placed = 0
        self._place()

    def _place(self):
        lo, hi = self._placed, self._n_entries
        home = self._home(self._entry_keys[lo:hi]).astype(np.int64)
        reference_insert_slots(self._table_slot, self._mask, home, np.arange(lo, hi))
        self._placed = hi


def home_slot_count(cache):
    """The number of home slots: the hash keeps that many top bits."""
    return 1 << (64 - int(cache._shift))


@functools.lru_cache(maxsize=None)
def keys_sharing_a_home(capacity, count):
    """The ``count`` smallest keys whose home is the last home slot of a
    cache of ``capacity``: one cluster that must spill into the overflow
    tail.  Fibonacci hashing spreads keys evenly, so a cluster of 8192
    needs the first 2^27 keys scanned (~0.3 s)."""
    cache = ReadCachedBackend(GPULSM(batch_size=BATCH), capacity=capacity)
    target = home_slot_count(cache) - 1
    found, lo, chunk = [], 0, 1 << 21
    while sum(part.size for part in found) < count:
        keys = np.arange(lo, lo + chunk, dtype=np.uint64)
        found.append(keys[cache._home(keys) == target])
        lo += chunk
    keys = np.concatenate(found)[:count]
    keys.flags.writeable = False
    return keys


def assert_layout(cache):
    """Each entry sits in exactly one slot, that slot is reachable from the
    entry's home through occupied slots, and the last slot is empty."""
    table = cache._table_slot
    n = len(cache)
    occupied = np.flatnonzero(table >= 0)
    assert np.array_equal(np.sort(table[occupied]), np.arange(n))
    assert table[-1] < 0
    where = np.empty(n, dtype=np.int64)
    where[table[occupied]] = occupied
    home = cache._home(cache._entry_keys[:n]).astype(np.int64)
    assert np.all(home <= where)
    # empty_before[i] = empty slots in [0, i): none may lie in [home, where].
    empty_before = np.concatenate([[0], np.cumsum(table < 0)])
    assert np.array_equal(empty_before[where], empty_before[home])


def assert_same_caches(cache, reference):
    assert cache.cache_stats() == reference.cache_stats()
    n = len(cache)
    for column in ("_entry_keys", "_found", "_vals", "_stamps"):
        np.testing.assert_array_equal(
            getattr(cache, column)[:n], getattr(reference, column)[:n], err_msg=column
        )
    assert_layout(cache)


def lookup_both(cache, reference, queries):
    got, want = cache.lookup(queries), reference.lookup(queries)
    np.testing.assert_array_equal(got.found, want.found)
    np.testing.assert_array_equal(got.values, want.values)
    assert_same_caches(cache, reference)
    return got


#: A key is (collides?, index): an index into the capacity's cluster of
#: keys sharing one home slot, or an ordinary small key.
key_strategy = st.tuples(st.booleans(), st.integers(min_value=0, max_value=SMALL_KEYS - 1))
step_strategy = st.one_of(
    st.tuples(st.just("lookup"), st.lists(key_strategy, min_size=1, max_size=48)),
    st.tuples(st.just("update"), st.lists(key_strategy, min_size=1, max_size=BATCH)),
)


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.sampled_from(CAPACITIES),
    trace=st.lists(step_strategy, min_size=1, max_size=12),
)
def test_one_pass_layout_equals_the_rounds(capacity, trace):
    """Duplicates within a batch, clusters longer than the capacity (so
    eviction empties the cluster and refills it), invalidating mutations:
    both caches answer, count and hold entries identically."""
    cluster = keys_sharing_a_home(capacity, min(2 * capacity, SMALL_KEYS))
    lsm = GPULSM(batch_size=BATCH)
    cache = ReadCachedBackend(lsm, capacity=capacity)
    reference = RoundsReadCache(lsm, capacity=capacity)

    def keys_of(items):
        return np.array(
            [cluster[i % cluster.size] if collide else i for collide, i in items],
            dtype=np.uint64,
        )

    for kind, items in trace:
        keys = keys_of(items)
        if kind == "update":
            lsm.insert(keys, keys * np.uint64(3))
            continue
        got = lookup_both(cache, reference, keys)
        np.testing.assert_array_equal(got.found, lsm.lookup(keys).found)


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_a_cluster_as_long_as_the_capacity(capacity):
    """``capacity`` keys sharing the last home slot fill the overflow tail
    to its last-but-one slot; a second such cluster evicts every entry."""
    first, second = np.split(keys_sharing_a_home(capacity, 2 * capacity), 2)
    lsm = GPULSM(batch_size=BATCH)
    lsm.insert(first[:BATCH], first[:BATCH] * np.uint64(3))
    cache = ReadCachedBackend(lsm, capacity=capacity)
    reference = RoundsReadCache(lsm, capacity=capacity)
    queries = np.concatenate([first, first[::-1]])  # every key twice
    lookup_both(cache, reference, queries)
    last_home = home_slot_count(cache) - 1
    assert cache._table_slot[last_home + capacity - 1] >= 0
    lookup_both(cache, reference, queries)  # all hits, walking the run
    assert cache.cache_stats()["hits"] == queries.size
    lookup_both(cache, reference, second)
    assert cache.cache_stats()["evictions"] == capacity


def best_of(repeats, call):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def test_one_pass_build_beats_the_rounds():
    """A same-process ratio, not a wall-clock floor: a full 4096-entry
    table laid out by the one-pass placement and by the reference rounds
    (hashing included in both), best of 5 each.  Measured 67-89 against
    445-450 us on a 2-core x86 box; a placement that fell back to rounds
    reads about 1x whatever the box."""
    rng = np.random.default_rng(5)
    cache = ReadCachedBackend(GPULSM(batch_size=BATCH), capacity=4096)
    keys = rng.permutation(np.unique(rng.integers(0, 1 << 31, 5000, dtype=np.uint64)))
    cache._entry_keys[:] = keys[:4096]
    cache._n_entries = 4096
    mask = home_slot_count(cache) - 1
    slots = np.arange(4096)

    def rounds():
        cache._table_slot.fill(-1)
        home = cache._home(cache._entry_keys).astype(np.int64)
        reference_insert_slots(cache._table_slot, mask, home, slots)

    ratio = best_of(5, rounds) / best_of(5, cache._place)
    assert_layout(cache)
    assert ratio >= 3.0, f"one-pass placement only {ratio:.2f}x the reference rounds"
