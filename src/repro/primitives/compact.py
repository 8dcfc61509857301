"""Stream compaction (CUB ``DeviceSelect::Flagged``), flat and segmented.

Range queries end with "a segmented compaction based on all set LSBs" that
gathers the valid elements of each query (Section IV-D stage 5), and cleanup
compacts all valid elements after marking stale ones (Section IV-E step 3).
Both are select-if operations: a flag per element, an exclusive scan of the
flags to compute output offsets, and a scatter of the selected elements.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.gpu.device import Device, get_default_device
from repro.primitives.scan import record_exclusive_scan


def record_segmented_compact(
    device: Device,
    num_items: int,
    key_itemsize: int,
    num_kept: int,
    value_itemsize: Optional[int],
    num_segments: Optional[int],
    kernel_name: str,
) -> None:
    """Record, from the sizes alone, the kernels that compact ``num_items``
    flagged elements down to ``num_kept``: the scan of the flags, the key
    gather, the per-segment offsets (``num_segments`` of them, ``None`` for
    a flat compaction) and the value column's gather when there is one."""
    int64 = np.dtype(np.int64).itemsize
    record_exclusive_scan(device, num_items, num_items * int64, "compact.scan_flags")
    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=num_items * key_itemsize + num_items,  # flags are 1 byte each
        coalesced_write_bytes=num_kept * key_itemsize,
        work_items=num_items,
    )
    if num_segments is not None:
        device.record_kernel(
            "compact.segment_offsets",
            coalesced_read_bytes=num_segments * int64,
            coalesced_write_bytes=(num_segments + 1) * int64,
            work_items=num_segments,
        )
    if value_itemsize is not None:
        device.record_kernel(
            f"{kernel_name}.values",
            coalesced_read_bytes=num_items * value_itemsize + num_items,
            coalesced_write_bytes=num_kept * value_itemsize,
            work_items=num_items,
        )


def segmented_compact(
    keys: np.ndarray,
    values: Optional[np.ndarray],
    flags: np.ndarray,
    segment_offsets: Optional[np.ndarray],
    device: Optional[Device] = None,
    kernel_name: str = "compact.segmented",
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Keep the flagged elements of a column set — keys plus an optional
    aligned value column — preserving order, and report where every
    segment's survivors now begin.

    This is the final stage of RANGE queries: the result buffer holds the
    concatenated candidates of all queries (segments); compaction removes
    invalid elements and the returned offsets say where each query's valid
    results now begin.  Returns ``(kept_keys, kept_values_or_None,
    new_segment_offsets)`` where ``new_segment_offsets`` has
    ``len(segment_offsets) + 1`` entries (the last is the total count),
    matching the "beginning memory offsets of each query" output format
    described in Section IV-D; ``segment_offsets=None`` is the flat
    compaction, with no offsets computed or returned.

    The flags are scanned once, for the output positions and the segment
    offsets alike, and that scan is recorded explicitly because it is a
    separate kernel on the device.  The value column rides along through
    the same flags and its traffic is recorded as one extra gather kernel,
    exactly like the fused keys-and-values compaction the range-query
    pipeline launches.
    """
    device = device or get_default_device()
    keys = np.asarray(keys)
    flags = np.asarray(flags, dtype=bool)
    if keys.shape != flags.shape:
        raise ValueError("keys and flags must have the same shape")
    if keys.ndim != 1:
        raise ValueError("compaction expects one-dimensional arrays")
    if values is not None:
        values = np.asarray(values)
        if values.shape != keys.shape:
            raise ValueError("values must match the keys in shape")
    if segment_offsets is not None:
        segment_offsets = np.asarray(segment_offsets, dtype=np.int64)
        if segment_offsets.ndim != 1:
            raise ValueError("segment offsets must be one-dimensional")

    prefix = np.zeros(keys.size + 1, dtype=np.int64)
    np.cumsum(flags, out=prefix[1:])
    out_keys = keys[flags]
    out_values = None if values is None else values[flags]
    new_offsets = None
    if segment_offsets is not None:
        # Valid-per-segment counts -> new offsets: the flag prefix sum read
        # at the segment boundaries.
        new_offsets = np.append(
            prefix[np.minimum(segment_offsets, keys.size)], prefix[-1]
        )
    record_segmented_compact(
        device,
        keys.size,
        keys.dtype.itemsize,
        out_keys.size,
        None if values is None else values.dtype.itemsize,
        None if segment_offsets is None else segment_offsets.size,
        kernel_name,
    )
    return out_keys, out_values, new_offsets


def compact(
    values: np.ndarray,
    flags: np.ndarray,
    device: Optional[Device] = None,
    kernel_name: str = "compact.flagged",
) -> np.ndarray:
    """Flat :func:`segmented_compact` of one array: the elements whose flag
    is true, in order."""
    return segmented_compact(
        values, None, flags, None, device=device, kernel_name=kernel_name
    )[0]
