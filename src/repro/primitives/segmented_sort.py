"""Segmented sort (moderngpu ``segsort`` equivalent).

COUNT and RANGE queries gather, for every query, all candidate elements from
every level into one contiguous segment of a result buffer, then run a
*segmented sort* over the buffer — each query's segment is sorted
independently by original key, ignoring the status bit, while preserving the
temporal (level) order of equal keys (Section IV-C stage 4, IV-D).  With the
segments sorted, the first element of every run of equal keys within a
segment is the most recent version, so validity can be decided with a single
neighbouring comparison.

The functional implementation joins the segment id into the most significant
bits of the comparison key and does one big stable sort — the trick real GPU
segsort implementations use for large segment counts; comparison keys wider
than 32 bits sort the ``(segment_id, compare_key)`` pairs with a stable
``lexsort`` instead.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.gpu.device import Device, get_default_device
from repro.primitives.merge import KeyFunc
from repro.primitives.radix_sort import fits_32_bits


def _segment_ids_from_offsets(offsets: np.ndarray, total: int) -> np.ndarray:
    """Expand segment start offsets into a per-element segment id array."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1:
        raise ValueError("segment offsets must be one-dimensional")
    if not offsets.size:
        return np.zeros(total, dtype=np.uint64)
    if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
        raise ValueError("segment offsets must start at zero and be non-decreasing")
    if offsets[-1] > total:
        raise ValueError("segment offsets exceed the data length")
    ids = np.arange(offsets.size, dtype=np.uint64)
    return np.repeat(ids, np.diff(offsets, append=total))


def segmented_order(
    keys: np.ndarray, segment_ids: np.ndarray, key: KeyFunc = None
) -> np.ndarray:
    """The stable permutation that orders ``keys`` by (segment id, comparison
    key) — the sort itself, nothing recorded.  The elements of a segment
    need not be contiguous: equal (segment, key) pairs keep input order."""
    cmp = keys if key is None else key(keys)
    if fits_32_bits(cmp):
        # Segment id above comparison key: one sortable word.  A stable sort
        # keeps equal words in input order (the temporal order of duplicate
        # keys) and merges the sorted per-level chunks candidates arrive as.
        packed = segment_ids.astype(np.uint64, copy=False) << np.uint64(32)
        packed |= cmp
        return np.argsort(packed, kind="stable")
    # Wider keys: a stable two-key sort, by segment then by cmp.
    return np.lexsort((cmp, segment_ids))


def record_segmented_sort(
    device: Device, payload_bytes: int, num_items: int, kernel_name: str
) -> None:
    """Record the segmented sort of ``num_items`` elements (``payload_bytes``
    in all their columns) from the sizes alone."""
    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=2 * payload_bytes,
        coalesced_write_bytes=payload_bytes,
        work_items=num_items,
        launches=4,  # real segsort does multiple merge passes
    )


def segmented_sort(
    keys: np.ndarray,
    values: Optional[np.ndarray],
    segment_offsets: np.ndarray,
    key: KeyFunc = None,
    device: Optional[Device] = None,
    kernel_name: str = "segmented_sort",
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Sort each segment of a column set — keys plus an optional aligned
    value column — independently and stably.

    ``segment_offsets`` holds the start index of every segment (the last
    segment extends to the end of the array).  ``key`` optionally extracts
    the comparison key (the LSM passes "shift out the status bit").  The
    order is computed once, from the keys, and gathers every present column.
    """
    device = device or get_default_device()
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError("segmented sort expects a one-dimensional key array")
    if values is not None:
        values = np.asarray(values)
        if values.shape != keys.shape:
            raise ValueError("values must match the keys in shape")

    order = segmented_order(
        keys, _segment_ids_from_offsets(segment_offsets, keys.size), key
    )
    payload = keys.nbytes + (0 if values is None else values.nbytes)
    record_segmented_sort(device, payload, keys.size, kernel_name)
    return keys[order], None if values is None else values[order]


def segmented_sort_keys(
    keys: np.ndarray,
    segment_offsets: np.ndarray,
    key: KeyFunc = None,
    device: Optional[Device] = None,
    kernel_name: str = "segmented_sort.keys",
) -> np.ndarray:
    """:func:`segmented_sort` of a key array (COUNT queries)."""
    return segmented_sort(
        keys, None, segment_offsets, key=key, device=device, kernel_name=kernel_name
    )[0]


def segmented_sort_pairs(
    keys: np.ndarray,
    values: np.ndarray,
    segment_offsets: np.ndarray,
    key: KeyFunc = None,
    device: Optional[Device] = None,
    kernel_name: str = "segmented_sort.pairs",
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`segmented_sort` of key-value pairs (RANGE queries)."""
    return segmented_sort(
        keys, values, segment_offsets, key=key, device=device, kernel_name=kernel_name
    )
