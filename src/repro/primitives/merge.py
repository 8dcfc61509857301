"""Stable merge of sorted sequences (moderngpu merge-path equivalent).

The insertion cascade merges the freshly sorted batch into successively
larger full levels with a *custom comparison operator that ignores the
status bit* (Fig. 3 line 14): ordering is by the 31-bit original key only,
and the merge is stable with the new (more recent) level's elements placed
before equal-keyed elements of the older level.  That single property is
what maintains building invariants 2 and 3 of Section III-D.

moderngpu implements this with merge-path partitioning: the diagonal of the
(|A|, |B|) merge matrix is cut into equal-sized tiles, each thread block
merges one tile from shared memory, and the output is written coalesced.
:func:`merge_path_partitions` reproduces that partitioning (and is tested
against the actual merge), while :func:`merge` — which :func:`merge_keys`
and :func:`merge_pairs` spell for one and two columns — produces the merged
output with a vectorised rank computation:

* element ``A[i]`` lands at ``i + searchsorted(B, A[i], side='left')``
* element ``B[j]`` lands at ``j + searchsorted(A, B[j], side='right')``

which is exactly the stable "A wins ties" merge the paper requires when A is
the more recent side.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.gpu.device import Device, get_default_device

#: A key-extraction function applied before comparison.  The GPU LSM passes
#: ``lambda k: k >> 1`` to ignore the status bit; ``None`` compares raw keys.
KeyFunc = Optional[Callable[[np.ndarray], np.ndarray]]

#: Fraction of the device's streaming bandwidth a merge-path merge sustains.
#: The paper's Table II implies ~4.7 G merged elements/s on the K40c
#: (T_ins(r=2) minus T_sort for b = 2^26), i.e. roughly 40 % of the copy
#: bandwidth — the partition searches and shared-memory staging are not free.
#: The recorded traffic is inflated by 1/efficiency so the cost model lands
#: on the measured rate.
MERGE_BANDWIDTH_EFFICIENCY = 0.40


def _apply_keyfunc(values: np.ndarray, key: KeyFunc) -> np.ndarray:
    return values if key is None else key(values)


def _check_sorted_input(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return a


def merge_path_partitions(
    a_keys: np.ndarray,
    b_keys: np.ndarray,
    tile_size: int,
    key: KeyFunc = None,
) -> np.ndarray:
    """Merge-path diagonal partition points.

    Returns, for each tile boundary ``d = 0, tile, 2*tile, …``, the split
    ``(a_index)`` such that the first ``d`` output elements consist of
    ``a_index`` elements of A and ``d - a_index`` elements of B.  This is the
    coarse-grained partitioning step of moderngpu's merge; the fine-grained
    merge inside each tile is performed by :func:`merge`.

    The function exists primarily so tests can verify that the partitioning
    the real kernels would use is consistent with the produced merge (every
    partition point is a valid merge-path split).
    """
    if tile_size <= 0:
        raise ValueError("tile_size must be positive")
    a_keys = _check_sorted_input(a_keys, "a_keys")
    b_keys = _check_sorted_input(b_keys, "b_keys")
    a_cmp = _apply_keyfunc(a_keys, key)
    b_cmp = _apply_keyfunc(b_keys, key)

    total = a_keys.size + b_keys.size
    num_diagonals = -(-total // tile_size) + 1
    partitions = np.empty(num_diagonals, dtype=np.int64)
    for idx in range(num_diagonals):
        diag = min(idx * tile_size, total)
        # Binary search for the split point on this diagonal: the largest
        # a_count such that A[a_count-1] <= B[diag-a_count] under "A wins
        # ties" ordering.
        lo = max(0, diag - b_keys.size)
        hi = min(diag, a_keys.size)
        while lo < hi:
            mid = (lo + hi) // 2
            # A[mid] vs B[diag - mid - 1]: if A[mid] is placed after that B
            # element, the split is to the left.
            if b_cmp[diag - mid - 1] < a_cmp[mid]:
                hi = mid
            else:
                lo = mid + 1
        partitions[idx] = lo
    return partitions


def _merge_ranks(
    a_cmp: np.ndarray, b_cmp: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Output positions of A's and B's elements for a stable A-before-B merge."""
    a_pos = np.arange(a_cmp.size, dtype=np.int64) + np.searchsorted(
        b_cmp, a_cmp, side="left"
    )
    b_pos = np.arange(b_cmp.size, dtype=np.int64) + np.searchsorted(
        a_cmp, b_cmp, side="right"
    )
    return a_pos, b_pos


def merge(
    a_keys: np.ndarray,
    a_values: Optional[np.ndarray],
    b_keys: np.ndarray,
    b_values: Optional[np.ndarray],
    key: KeyFunc = None,
    device: Optional[Device] = None,
    kernel_name: str = "merge",
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Stable merge of two column sets — keys plus an optional aligned value
    column each — whose keys are sorted under ``key``.

    Ties are broken in favour of the A side (its elements appear first in
    the output), which is the ordering the insertion cascade needs: A is
    the buffer holding the newer elements, B the older resident level.  The
    ranks are computed once, from the keys; every present column is
    scattered through them, and the one recorded kernel moves all of them.
    """
    device = device or get_default_device()
    a_keys = _check_sorted_input(a_keys, "a_keys")
    b_keys = _check_sorted_input(b_keys, "b_keys")
    if a_keys.dtype != b_keys.dtype:
        raise TypeError("merge requires matching key dtypes")
    if (a_values is None) != (b_values is None):
        raise ValueError("cannot merge a key-only run with a key-value run")
    if a_values is not None:
        a_values = np.asarray(a_values)
        b_values = np.asarray(b_values)
        if a_values.shape != a_keys.shape or b_values.shape != b_keys.shape:
            raise ValueError("values must match their keys in shape")
        if a_values.dtype != b_values.dtype:
            raise TypeError("merge requires matching value dtypes")

    a_pos, b_pos = _merge_ranks(_apply_keyfunc(a_keys, key), _apply_keyfunc(b_keys, key))

    def interleave(a_column: np.ndarray, b_column: np.ndarray) -> np.ndarray:
        out = np.empty(a_pos.size + b_pos.size, dtype=a_column.dtype)
        out[a_pos] = a_column
        out[b_pos] = b_column
        return out

    out_keys = interleave(a_keys, b_keys)
    payload_bytes = a_keys.nbytes + b_keys.nbytes
    out_values = None
    if a_values is not None:
        out_values = interleave(a_values, b_values)
        payload_bytes += a_values.nbytes + b_values.nbytes

    moved = int(payload_bytes / MERGE_BANDWIDTH_EFFICIENCY)
    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=moved,
        coalesced_write_bytes=moved,
        work_items=out_keys.size,
        launches=2,  # partition kernel + merge kernel
    )
    return out_keys, out_values


def merge_keys(
    a_keys: np.ndarray,
    b_keys: np.ndarray,
    key: KeyFunc = None,
    device: Optional[Device] = None,
    kernel_name: str = "merge.keys",
) -> np.ndarray:
    """:func:`merge` of two key arrays."""
    return merge(
        a_keys, None, b_keys, None, key=key, device=device, kernel_name=kernel_name
    )[0]


def merge_pairs(
    a_keys: np.ndarray,
    a_values: np.ndarray,
    b_keys: np.ndarray,
    b_values: np.ndarray,
    key: KeyFunc = None,
    device: Optional[Device] = None,
    kernel_name: str = "merge.pairs",
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`merge` of two key-value runs; values travel with their keys."""
    return merge(
        a_keys, a_values, b_keys, b_values, key=key, device=device,
        kernel_name=kernel_name,
    )
