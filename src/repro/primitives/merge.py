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
against the actual merge), while :func:`merge_runs` produces the merged
output of a whole chain of runs — :func:`merge` is its two-run spelling,
which :func:`merge_keys` and :func:`merge_pairs` spell for one and two
columns — by concatenating the runs newest first and taking one stable sort
of the comparison key.  A stable sort keeps equal keys in input order, which
is exactly the stable "A wins ties" merge the paper requires when A is the
more recent side, and NumPy's stable integer sort (a timsort) merges the
already sorted runs instead of sorting from scratch.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

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


def merge_runs(
    run_keys: Sequence[np.ndarray],
    run_values: Optional[Sequence[np.ndarray]],
    key: KeyFunc = None,
    device: Optional[Device] = None,
    kernel_name: str = "merge",
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Stable merge of a chain of column sets — per run a key column plus an
    optional aligned value column — given **newest first**, each sorted
    under ``key``.

    The result is that of merging the chain pairwise from the front (the
    accumulated newer side ahead of the next older run among equal keys):
    the insertion cascade of Fig. 3, the first stage of cleanup.  The host
    concatenates the runs and takes one stable sort of the comparison key,
    whose run merging does the whole chain in one pass; the device's
    pairwise merges are recorded one per link, from the running sizes.
    A run that is not sorted under ``key`` is undefined input: the output
    is sorted regardless, the disorder is not carried through.
    """
    device = device or get_default_device()
    run_keys = [_check_sorted_input(keys, "run keys") for keys in run_keys]
    if any(keys.dtype != run_keys[0].dtype for keys in run_keys):
        raise TypeError("merge requires matching key dtypes")
    if run_values is not None:
        if any(values is None for values in run_values):
            raise ValueError("cannot merge a key-only run with a key-value run")
        run_values = [np.asarray(values) for values in run_values]
        if [v.shape for v in run_values] != [k.shape for k in run_keys]:
            raise ValueError("values must match their keys in shape")
        if any(values.dtype != run_values[0].dtype for values in run_values):
            raise TypeError("merge requires matching value dtypes")

    out_keys = np.concatenate(run_keys)
    order = np.argsort(_apply_keyfunc(out_keys, key), kind="stable")
    out_keys = out_keys[order]
    out_values = None if run_values is None else np.concatenate(run_values)[order]

    itemsize = out_keys.itemsize + (0 if out_values is None else out_values.itemsize)
    merged = run_keys[0].size
    for keys in run_keys[1:]:
        merged += keys.size
        moved = int(merged * itemsize / MERGE_BANDWIDTH_EFFICIENCY)
        device.record_kernel(
            kernel_name,
            coalesced_read_bytes=moved,
            coalesced_write_bytes=moved,
            work_items=merged,
            launches=2,  # partition kernel + merge kernel
        )
    return out_keys, out_values


def merge(
    a_keys: np.ndarray,
    a_values: Optional[np.ndarray],
    b_keys: np.ndarray,
    b_values: Optional[np.ndarray],
    key: KeyFunc = None,
    device: Optional[Device] = None,
    kernel_name: str = "merge",
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """:func:`merge_runs` of two column sets: ties go to the A side (its
    elements come first in the output), A being the buffer holding the
    newer elements and B the older resident level.  Input that is not
    sorted under ``key`` is undefined, not propagated.
    """
    return merge_runs(
        (a_keys, b_keys),
        None if a_values is None and b_values is None else (a_values, b_values),
        key=key,
        device=device,
        kernel_name=kernel_name,
    )


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
