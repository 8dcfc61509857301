"""Independent oracle of the benchmark: a numpy sorted-array dictionary.

It shares no code with ``src/repro``: the state is one sorted array of
distinct live keys with an aligned value array, and a tick is applied with
SNAPSHOT semantics — every query of the tick sees the pre-tick state, a
deletion anywhere in the tick dominates its key, and among several
insertions of one key the first wins (paper Section III-A, rules 4 and 6).
Expected answers are computed once per workload, outside every timed
region, and each replay's :class:`ResultBatch` is compared against them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

INSERT, DELETE, LOOKUP, COUNT, RANGE = range(5)

#: Stored values are 32 bits wide (the store's ``value_dtype``); wider
#: request values wrap, and the oracle wraps them the same way.
VALUE_MASK = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class Expected:
    """The correct answers of one tick, in request order."""

    is_lookup: np.ndarray
    is_counted: np.ndarray  # COUNT and RANGE rows both carry a count
    found: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    range_offsets: np.ndarray
    range_keys: np.ndarray
    range_values: np.ndarray


class SortedArrayOracle:
    """Sorted distinct live keys plus their values."""

    def __init__(self) -> None:
        self.keys = np.zeros(0, dtype=np.uint64)
        self.values = np.zeros(0, dtype=np.uint64)

    @property
    def live_keys(self) -> int:
        return int(self.keys.size)

    def _find(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Insertion position of each key and whether it is live."""
        pos = np.searchsorted(self.keys, keys)
        present = np.zeros(keys.size, dtype=bool)
        inside = pos < self.keys.size
        present[inside] = self.keys[pos[inside]] == keys[inside]
        return pos, present

    def _upsert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert sorted distinct ``keys`` (overwriting a present key's value)."""
        values = values & VALUE_MASK
        pos, present = self._find(keys)
        self.values[pos[present]] = values[present]
        new = ~present
        self.keys = np.insert(self.keys, pos[new], keys[new])
        self.values = np.insert(self.values, pos[new], values[new])

    def _remove(self, keys: np.ndarray) -> None:
        pos, present = self._find(keys)
        keep = np.ones(self.keys.size, dtype=bool)
        keep[pos[present]] = False
        self.keys, self.values = self.keys[keep], self.values[keep]

    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """A pure-insert batch (the prefill): first insertion per key wins."""
        keys = np.asarray(keys, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        distinct, first = np.unique(keys, return_index=True)
        self._upsert(distinct, values[first])

    def apply(self, opcodes, keys, values, range_ends) -> Expected:
        """Answer one tick against the pre-tick state, then apply its updates."""
        n = opcodes.size
        is_lookup = opcodes == LOOKUP
        is_range = opcodes == RANGE
        is_counted = (opcodes == COUNT) | is_range

        found = np.zeros(n, dtype=bool)
        out_values = np.zeros(n, dtype=np.uint64)
        pos, hit = self._find(keys[is_lookup])
        found[is_lookup] = hit
        lookup_rows = np.flatnonzero(is_lookup)
        out_values[lookup_rows[hit]] = self.values[pos[hit]]

        lo = np.searchsorted(self.keys, keys[is_counted], side="left")
        hi = np.searchsorted(self.keys, range_ends[is_counted], side="right")
        counts = np.zeros(n, dtype=np.int64)
        counts[is_counted] = hi - lo

        widths = np.where(is_range, counts, 0)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(widths, out=offsets[1:])
        range_lo = np.zeros(n, dtype=np.int64)
        range_lo[is_counted] = lo
        rows = np.flatnonzero(is_range)
        w = widths[rows]
        src = np.repeat(range_lo[rows], w) + (
            np.arange(int(w.sum())) - np.repeat(np.cumsum(w) - w, w)
        )
        expected = Expected(
            is_lookup=is_lookup,
            is_counted=is_counted,
            found=found,
            values=out_values,
            counts=counts,
            range_offsets=offsets,
            range_keys=self.keys[src],
            range_values=self.values[src],
        )

        deleted = np.unique(keys[opcodes == DELETE])
        ins_rows = np.flatnonzero(opcodes == INSERT)
        distinct, first = np.unique(keys[ins_rows], return_index=True)
        survive = ~np.isin(distinct, deleted)
        self._remove(deleted)
        self._upsert(distinct[survive], values[ins_rows[first]][survive])
        return expected


def build_expected(prefill: Sequence[Tuple[np.ndarray, np.ndarray]], batches) -> Tuple[
    List[Expected], SortedArrayOracle
]:
    """Expected answers of every tick, and the oracle in its final state."""
    oracle = SortedArrayOracle()
    for keys, values in prefill:
        oracle.insert(keys, values)
    expected = [
        oracle.apply(b.opcodes, b.keys, b.values, b.range_ends) for b in batches
    ]
    return expected, oracle


def count_failed_ops(result, expected: Expected) -> int:
    """Operations of one tick whose status is not OK or whose answer is wrong."""
    bad = np.asarray(result.statuses) != 0
    bad |= expected.is_lookup & (result.found != expected.found)
    if result.values is None:
        bad |= expected.found
    else:
        bad |= expected.found & (result.values != expected.values)
    bad |= expected.is_counted & (result.counts != expected.counts)
    if not np.array_equal(result.range_offsets, expected.range_offsets):
        # Row alignment is lost: every range row of the tick is suspect.
        bad |= np.diff(expected.range_offsets) > 0
        bad |= np.diff(result.range_offsets) > 0
    else:
        wrong = result.range_keys != expected.range_keys
        if result.range_values is None:
            wrong[:] = True
        else:
            wrong |= result.range_values != expected.range_values
        owner = np.repeat(np.arange(bad.size), np.diff(expected.range_offsets))
        bad[owner[wrong]] = True
    return int(np.count_nonzero(bad))


def answers_digest(results) -> str:
    """SHA-256 over a run's answers in a backend-independent form.

    Lookup values are hashed only where found (the not-found value is
    unspecified), so equal digests mean equal answers.
    """
    h = hashlib.sha256()
    for r in results:
        h.update(np.ascontiguousarray(r.statuses, dtype=np.uint8).tobytes())
        h.update(np.packbits(r.found).tobytes())
        if r.values is not None:
            h.update(np.where(r.found, r.values, 0).astype(np.uint64).tobytes())
        h.update(np.ascontiguousarray(r.counts, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(r.range_offsets, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(r.range_keys, dtype=np.uint64).tobytes())
        if r.range_values is not None:
            h.update(np.ascontiguousarray(r.range_values, dtype=np.uint64).tobytes())
    return h.hexdigest()


def check_final_state(backend, oracle: SortedArrayOracle, chunk: int = 1 << 15) -> int:
    """Live keys of ``oracle`` the store answers wrongly, plus any surplus
    key the store still counts over the whole domain."""
    wrong = 0
    for lo in range(0, oracle.keys.size, chunk):
        keys = oracle.keys[lo : lo + chunk]
        res = backend.lookup(keys)
        ok = res.found & (res.values == oracle.values[lo : lo + chunk])
        wrong += int(np.count_nonzero(~ok))
    total = backend.count(
        np.zeros(1, dtype=np.uint64), np.array([(1 << 31) - 1], dtype=np.uint64)
    )
    return wrong + abs(int(total[0]) - oracle.live_keys)
