"""GPU multisplit (Ashkiani et al., PPoPP 2016).

The cleanup operation collects "all unmarked valid elements" with "a
two-bucket multisplit" (Section IV-E step 3).  Multisplit is a stable
bucket-partition: every element is mapped to a bucket id by a functor and
elements are reordered so buckets are contiguous, with the original order
preserved inside each bucket.

The real implementation computes warp-level histograms with ballots, scans
them hierarchically and scatters; here the functional result is produced by
a stable ``argsort`` of the (byte-wide) bucket ids and the traffic model charges the
warp-histogram + scan + scatter passes of the "WMS" (warp-level multisplit)
variant from the paper, which is bandwidth-bound for small bucket counts.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.gpu.device import Device, get_default_device
from repro.primitives.scan import exclusive_scan

#: Maximum number of buckets the warp-level variant supports (one ballot per
#: bucket fits the warp's 32 lanes).
MAX_WARP_BUCKETS = 32


def _bucket_ids(
    keys: np.ndarray, bucket_of: Callable[[np.ndarray], np.ndarray], num_buckets: int
) -> np.ndarray:
    ids = np.asarray(bucket_of(keys))
    if ids.shape != keys.shape:
        raise ValueError("bucket functor must return one bucket id per key")
    ids = ids.astype(np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= num_buckets):
        raise ValueError("bucket ids out of range")
    return ids


def record_multisplit(
    device: Device, payload_bytes: int, n: int, num_buckets: int, kernel_name: str
) -> None:
    """Record the histogram and scatter kernels a warp-level multisplit of
    ``n`` elements (``payload_bytes`` in all their columns) launches, from
    the sizes alone.  The scan of the bucket counts between the two is the
    caller's: :func:`multisplit` runs it, the strict-order planner — which
    routes a whole tick in one segmented pass — scans its own segments.
    """
    # Warp-level multisplit: one read to compute warp histograms (ballot
    # based, no global traffic beyond the keys), histogram write + scan, then
    # one read + one scattered-but-mostly-coalesced write of the payload.
    num_warps = max(1, -(-n // device.spec.warp_size))
    hist_bytes = num_warps * num_buckets * 4
    device.record_kernel(
        f"{kernel_name}.histogram",
        coalesced_read_bytes=payload_bytes,
        coalesced_write_bytes=hist_bytes,
        work_items=n,
    )
    device.record_kernel(
        f"{kernel_name}.scatter",
        coalesced_read_bytes=payload_bytes + hist_bytes,
        coalesced_write_bytes=payload_bytes,
        work_items=n,
    )


def multisplit(
    keys: np.ndarray,
    values: Optional[np.ndarray],
    bucket_of: Callable[[np.ndarray], np.ndarray],
    num_buckets: int = 2,
    device: Optional[Device] = None,
    kernel_name: str = "multisplit",
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Stable bucket partition of a column set — keys plus an optional
    aligned value column.

    Parameters
    ----------
    keys:
        Input keys (any dtype).
    values:
        Aligned value column, reordered with the keys; ``None`` for none.
    bucket_of:
        Vectorised functor mapping the key array to integer bucket ids in
        ``[0, num_buckets)``.
    num_buckets:
        Number of buckets (2 for the cleanup's valid/stale split).

    Returns
    -------
    (reordered_keys, reordered_values_or_None, bucket_offsets)
        ``bucket_offsets`` has ``num_buckets + 1`` entries; bucket ``i``
        occupies ``reordered_keys[bucket_offsets[i]:bucket_offsets[i+1]]``.
    """
    device = device or get_default_device()
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError("multisplit expects a one-dimensional key array")
    if values is not None:
        values = np.asarray(values)
        if values.shape != keys.shape:
            raise ValueError("values must match the keys in shape")
    if not 1 <= num_buckets <= MAX_WARP_BUCKETS:
        raise ValueError(f"num_buckets must be in [1, {MAX_WARP_BUCKETS}]")

    ids = _bucket_ids(keys, bucket_of, num_buckets)
    # Single-bucket batch: a stable partition is the identity, so the
    # argsort is skipped outright.  The traffic accounting below is
    # unchanged — the real kernel still runs its passes.
    identity = ids.size and not np.any(ids != ids[0])
    # At most 32 buckets: the ids fit a byte, which NumPy radix-sorts.
    order = None if identity else np.argsort(ids.astype(np.uint8), kind="stable")

    def reorder(column: np.ndarray) -> np.ndarray:
        return column.copy() if order is None else column[order]

    reordered_keys = reorder(keys)
    reordered_values = None if values is None else reorder(values)

    counts = np.bincount(ids, minlength=num_buckets).astype(np.int64)
    offsets_body, total = exclusive_scan(
        counts, device=device, kernel_name=f"{kernel_name}.scan"
    )
    offsets = np.concatenate([offsets_body, [total]])

    payload_bytes = keys.nbytes + (0 if values is None else values.nbytes)
    record_multisplit(device, payload_bytes, keys.size, num_buckets, kernel_name)
    return reordered_keys, reordered_values, offsets


def multisplit_keys(
    keys: np.ndarray,
    bucket_of: Callable[[np.ndarray], np.ndarray],
    num_buckets: int = 2,
    device: Optional[Device] = None,
    kernel_name: str = "multisplit.keys",
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`multisplit` of a key array: ``(reordered_keys, bucket_offsets)``."""
    reordered, _, offsets = multisplit(
        keys, None, bucket_of, num_buckets=num_buckets, device=device,
        kernel_name=kernel_name,
    )
    return reordered, offsets


def multisplit_pairs(
    keys: np.ndarray,
    values: np.ndarray,
    bucket_of: Callable[[np.ndarray], np.ndarray],
    num_buckets: int = 2,
    device: Optional[Device] = None,
    kernel_name: str = "multisplit.pairs",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`multisplit` of key-value pairs:
    ``(reordered_keys, reordered_values, bucket_offsets)``."""
    return multisplit(
        keys, values, bucket_of, num_buckets=num_buckets, device=device,
        kernel_name=kernel_name,
    )
