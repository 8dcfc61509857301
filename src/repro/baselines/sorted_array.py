"""GPU-maintained sorted array (the paper's "GPU SA" baseline).

Section V-A: "In the GPU SA, insertions (or deletions) can happen by adding
(or removing) elements and resorting the whole array …  Merging an
already-sorted set of elements into an existing GPU SA, however, is faster
than applying a set of sorted updates to a GPU LSM.  All queries in a GPU SA
are similar to those on the GPU LSM, but only on a single occupied level (of
arbitrary size)."

This implementation supports the strongest reasonable version of the
baseline: an insertion sorts the incoming batch and merges it with the whole
resident array (the "fast" variant the paper measures in Table II and
Figure 4b), deletions are handled by key removal during the merge-free
rebuild path, and all three queries run on the single sorted level with the
same primitives as the LSM, so the comparison isolates the cost of the LSM's
multiple levels.

Unlike the LSM, the sorted array keeps exactly one live element per key —
an insertion of an existing key overwrites its value — so it has no stale
elements and no cleanup; that is precisely the trade-off the paper explores.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.encoding import KeyEncoder
from repro.core.lsm import LookupResult, RangeResult
from repro.gpu.device import Device, get_default_device
from repro.primitives.merge import merge
from repro.primitives.radix_sort import radix_sort, radix_sort_keys
from repro.primitives.scan import exclusive_scan
from repro.primitives.search import lower_bound, upper_bound


class GPUSortedArray:
    """A single sorted key(/value) array maintained on the simulated GPU.

    Parameters
    ----------
    device:
        Simulated device; defaults to the process-wide device.
    key_only:
        When true no values are stored.
    key_dtype / value_dtype:
        Storage dtypes; the defaults match the paper's 32-bit configuration.
        Keys use the same 31-bit domain as the LSM so that workloads are
        interchangeable between the two structures.
    """

    def __init__(
        self,
        device: Optional[Device] = None,
        key_only: bool = False,
        key_dtype: np.dtype = np.dtype(np.uint32),
        value_dtype: np.dtype = np.dtype(np.uint32),
    ) -> None:
        self.device = device or get_default_device()
        self.key_only = key_only
        self.key_dtype = np.dtype(key_dtype)
        self.value_dtype = np.dtype(value_dtype)
        self.encoder = KeyEncoder(self.key_dtype)
        #: Sorted original keys (not encoded — the SA stores no tombstones).
        self.keys = np.zeros(0, dtype=self.key_dtype)
        self.values = None if key_only else np.zeros(0, dtype=self.value_dtype)
        #: Structural epoch: incremented by every whole-array rebuild
        #: (insert merge, delete compaction, bulk build); pinned by the
        #: mixed-operation executor around snapshot reads.
        self.epoch = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @classmethod
    def supported_operations(cls) -> frozenset:
        """The sorted array's row of Table I (everything the LSM offers)."""
        return frozenset(
            {"bulk_build", "insert", "delete", "lookup", "count", "range_query"}
        )

    @property
    def num_elements(self) -> int:
        """Number of live elements in the array."""
        return int(self.keys.size)

    def __len__(self) -> int:
        return self.num_elements

    @property
    def memory_usage_bytes(self) -> int:
        total = int(self.keys.nbytes)
        if self.values is not None:
            total += int(self.values.nbytes)
        return total

    # ------------------------------------------------------------------ #
    # Build and updates
    # ------------------------------------------------------------------ #
    def _check_keys(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        return self.encoder.check_query_keys(keys, "keys")

    def _check_values(
        self, keys: np.ndarray, values: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """The value column an update carries: ``None`` on a key-only array
        (whatever was passed), else ``values`` aligned with ``keys``."""
        if self.key_only:
            return None
        if values is None:
            raise ValueError("values are required unless key_only=True")
        values = np.asarray(values, dtype=self.value_dtype)
        if values.shape != keys.shape:
            raise ValueError("values must match keys in shape")
        return values

    def bulk_build(self, keys: np.ndarray, values: Optional[np.ndarray] = None) -> None:
        """Build from scratch by sorting the input (Section V-B bulk build)."""
        keys = self._check_keys(keys)
        if self.num_elements:
            raise RuntimeError("bulk_build requires an empty sorted array")
        sorted_keys, sorted_values = radix_sort(
            keys.astype(self.key_dtype), self._check_values(keys, values),
            device=self.device,
        )
        self.keys, self.values = self._dedup(sorted_keys, sorted_values)
        self.epoch += 1

    def _dedup(
        self, sorted_keys: np.ndarray, sorted_values: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Keep the first occurrence of every key in an already-sorted run."""
        if sorted_keys.size == 0:
            return sorted_keys, sorted_values
        keep = np.ones(sorted_keys.size, dtype=bool)
        keep[1:] = sorted_keys[1:] != sorted_keys[:-1]
        self.device.record_kernel(
            "sorted_array.dedup",
            coalesced_read_bytes=sorted_keys.nbytes,
            coalesced_write_bytes=int(keep.sum()) * sorted_keys.dtype.itemsize,
            work_items=int(sorted_keys.size),
        )
        return (
            sorted_keys[keep],
            None if sorted_values is None else sorted_values[keep],
        )

    def insert(self, keys: np.ndarray, values: Optional[np.ndarray] = None) -> None:
        """Insert a batch: sort it, then merge it with the whole array.

        This is the baseline operation Table II and Figure 4b measure — its
        cost is proportional to the *total* array size, which is why the SA's
        effective insertion rate decays as O(1/n).
        """
        keys = self._check_keys(keys)
        if keys.size == 0:
            raise ValueError("insert requires a non-empty batch")
        with self.device.timed_region("sorted_array.insert", items=keys.size):
            batch_keys, batch_values = radix_sort(
                keys.astype(self.key_dtype), self._check_values(keys, values),
                device=self.device,
            )
            # Deduplicate the incoming batch (first occurrence wins, matching
            # the LSM's tie-break) before merging it into the array.
            batch_keys, batch_values = self._dedup(batch_keys, batch_values)

            if self.num_elements == 0:
                self.keys, self.values = batch_keys, batch_values
            else:
                merged_keys, merged_values = merge(
                    batch_keys,
                    batch_values,
                    self.keys,
                    self.values,
                    device=self.device,
                    kernel_name="sorted_array.merge",
                )
                # The batch was the A side, so for duplicate keys the new
                # value precedes — dedup keeps the new one (replacement).
                self.keys, self.values = self._dedup(merged_keys, merged_values)
            self.epoch += 1

    def delete(self, keys: np.ndarray) -> None:
        """Delete a batch of keys.

        The sorted array has no tombstones; deletion rebuilds the array
        without the given keys (sort the delete-set, mark members, compact)
        — again a whole-array operation.
        """
        keys = self._check_keys(keys)
        if keys.size == 0:
            raise ValueError("delete requires a non-empty batch")
        with self.device.timed_region("sorted_array.delete", items=keys.size):
            delete_sorted = radix_sort_keys(
                keys.astype(self.key_dtype), device=self.device
            )
            if self.num_elements == 0:
                return
            pos = lower_bound(
                delete_sorted, self.keys, device=self.device,
                kernel_name="sorted_array.delete.search",
            )
            pos_c = np.minimum(pos, delete_sorted.size - 1)
            doomed = (pos < delete_sorted.size) & (delete_sorted[pos_c] == self.keys)
            keep = ~doomed
            self.device.record_kernel(
                "sorted_array.delete.compact",
                coalesced_read_bytes=self.keys.nbytes,
                coalesced_write_bytes=int(keep.sum()) * self.keys.dtype.itemsize,
                work_items=int(self.keys.size),
            )
            self.keys = self.keys[keep]
            if self.values is not None:
                self.values = self.values[keep]
            self.epoch += 1

    # ------------------------------------------------------------------ #
    # Queries (single-level versions of the LSM's pipelines)
    # ------------------------------------------------------------------ #
    def lookup(self, query_keys: np.ndarray) -> LookupResult:
        """Batch LOOKUP via one lower-bound search in the single level."""
        query_keys = self._check_keys(query_keys)
        nq = query_keys.size
        found = np.zeros(nq, dtype=bool)
        values = None if self.key_only else np.zeros(nq, dtype=self.value_dtype)
        if nq == 0 or self.num_elements == 0:
            return LookupResult(found=found, values=values)

        with self.device.timed_region("sorted_array.lookup", items=nq):
            probes = query_keys.astype(self.key_dtype)
            pos = lower_bound(
                self.keys, probes, device=self.device,
                kernel_name="sorted_array.lookup.lower_bound",
            )
            in_range = pos < self.num_elements
            pos_c = np.minimum(pos, self.num_elements - 1)
            match = in_range & (self.keys[pos_c] == probes)
            found[match] = True
            if values is not None and self.values is not None:
                values[match] = self.values[pos_c[match]]
        return LookupResult(found=found, values=values)

    def count(self, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
        """Batch COUNT: upper bound minus lower bound, no validation needed
        because the array holds exactly one live element per key."""
        k1 = self._check_keys(k1)
        k2 = self._check_keys(k2)
        if k1.shape != k2.shape:
            raise ValueError("k1 and k2 must have the same shape")
        if k1.size == 0:
            return np.zeros(0, dtype=np.int64)
        with self.device.timed_region("sorted_array.count", items=k1.size):
            lo = lower_bound(
                self.keys, k1.astype(self.key_dtype), device=self.device,
                kernel_name="sorted_array.count.lower_bound",
            )
            hi = upper_bound(
                self.keys, k2.astype(self.key_dtype), device=self.device,
                kernel_name="sorted_array.count.upper_bound",
            )
        return (hi - lo).astype(np.int64)

    def range_query(self, k1: np.ndarray, k2: np.ndarray) -> RangeResult:
        """Batch RANGE: gather the slices between the per-query bounds."""
        k1 = self._check_keys(k1)
        k2 = self._check_keys(k2)
        if k1.shape != k2.shape:
            raise ValueError("k1 and k2 must have the same shape")
        nq = k1.size
        empty_vals = None if self.key_only else np.zeros(0, dtype=self.value_dtype)
        if nq == 0:
            return RangeResult(
                offsets=np.zeros(1, dtype=np.int64),
                keys=np.zeros(0, dtype=np.uint64),
                values=empty_vals,
            )
        with self.device.timed_region("sorted_array.range", items=nq):
            lo = lower_bound(
                self.keys, k1.astype(self.key_dtype), device=self.device,
                kernel_name="sorted_array.range.lower_bound",
            )
            hi = upper_bound(
                self.keys, k2.astype(self.key_dtype), device=self.device,
                kernel_name="sorted_array.range.upper_bound",
            )
            lengths = (hi - lo).astype(np.int64)
            offsets_body, total = exclusive_scan(
                lengths, device=self.device, kernel_name="sorted_array.range.scan"
            )
            offsets = np.concatenate([offsets_body, [total]])

            out_keys = np.empty(total, dtype=self.key_dtype)
            out_values = (
                None if self.values is None else np.empty(total, dtype=self.value_dtype)
            )
            if total:
                within = np.arange(total) - np.repeat(offsets_body, lengths)
                src = np.repeat(lo, lengths) + within
                out_keys[...] = self.keys[src]
                if out_values is not None:
                    out_values[...] = self.values[src]
            per_item = self.key_dtype.itemsize + (
                self.value_dtype.itemsize if out_values is not None else 0
            )
            self.device.record_kernel(
                "sorted_array.range.gather",
                coalesced_read_bytes=int(total) * per_item,
                coalesced_write_bytes=int(total) * per_item,
                work_items=int(total),
            )
        return RangeResult(
            offsets=offsets,
            keys=out_keys.astype(np.uint64),
            values=out_values,
        )
