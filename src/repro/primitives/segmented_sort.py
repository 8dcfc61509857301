"""Segmented sort (moderngpu ``segsort`` equivalent).

COUNT and RANGE queries gather, for every query, all candidate elements from
every level into one contiguous segment of a result buffer, then run a
*segmented sort* over the buffer — each query's segment is sorted
independently by original key, ignoring the status bit, while preserving the
temporal (level) order of equal keys (Section IV-C stage 4, IV-D).  With the
segments sorted, the first element of every run of equal keys within a
segment is the most recent version, so validity can be decided with a single
neighbouring comparison.

The functional implementation sorts ``(segment_id, compare_key)`` pairs with
a stable ``lexsort``, which is exactly the "join the segment id into the
most significant bits and do one big stable sort" trick real GPU segsort
implementations use for large segment counts.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.gpu.device import Device, get_default_device
from repro.primitives.merge import KeyFunc


def _segment_ids_from_offsets(offsets: np.ndarray, total: int) -> np.ndarray:
    """Expand segment start offsets into a per-element segment id array."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1:
        raise ValueError("segment offsets must be one-dimensional")
    if offsets.size and (offsets[0] != 0 or np.any(np.diff(offsets) < 0)):
        raise ValueError("segment offsets must start at zero and be non-decreasing")
    if offsets.size and offsets[-1] > total:
        raise ValueError("segment offsets exceed the data length")
    ids = np.zeros(total, dtype=np.int64)
    if total:
        starts = offsets[(offsets > 0) & (offsets < total)]
        np.add.at(ids, starts, 1)
        ids = np.cumsum(ids)
    return ids


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

    seg_ids = _segment_ids_from_offsets(segment_offsets, keys.size)
    cmp = keys if key is None else key(keys)
    # lexsort's last key is the primary one: by segment, then by cmp within
    # it.  np.lexsort is stable, so equal (seg, cmp) pairs keep their input
    # order, which is what preserves the temporal ordering of duplicate keys.
    order = np.lexsort((cmp, seg_ids)) if keys.size else np.empty(0, dtype=np.int64)

    payload = keys.nbytes + (0 if values is None else values.nbytes)
    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=2 * payload,
        coalesced_write_bytes=payload,
        work_items=keys.size,
        launches=4,  # real segsort does multiple merge passes
    )
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
