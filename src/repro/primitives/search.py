"""Vectorised lower-bound / upper-bound binary searches.

Every query in the paper boils down to binary searches over sorted levels:

* LOOKUP performs a lower-bound search per occupied level, most recent
  first, and stops at the first match (Section III-D, IV-B);
* COUNT and RANGE perform both a lower-bound (for ``k1``) and an
  upper-bound (for ``k2``) search in *every* occupied level (Fig. 2c/2d).

One GPU thread handles one query; the probes of a binary search hit
essentially random cache lines, which is why the paper identifies "the
random memory accesses required in all binary searches" as the lookup
bottleneck.  The traffic model therefore charges the probe reads as random
accesses: ``ceil(log2(level_size)) + 1`` probes of one 32-byte transaction
each per query per level (the first couple of probes hit L2 on the real
device; the ``cached_levels`` parameter discounts them).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpu.device import Device, get_default_device

#: Bytes brought in per uncoalesced probe (one DRAM transaction).
TRANSACTION_BYTES = 32

#: Number of leading binary-search probes assumed to hit in cache.  The top
#: of each level's implicit search tree is shared by all queries and stays
#: resident in the 1.5 MB L2 of the K40c.
DEFAULT_CACHED_PROBES = 2

#: Bytes written per query: its ``int64`` position.
POSITION_BYTES = 8


def _probe_count(level_size: int) -> int:
    """Number of probes a binary search over ``level_size`` elements makes:
    ``ceil(log2(level_size)) + 1``, in integer arithmetic."""
    if level_size <= 1:
        return 1
    return (int(level_size) - 1).bit_length() + 1


def record_search(
    device: Device,
    kernel_name: str,
    num_queries: int,
    query_itemsize: int,
    haystack_size: int,
    cached_probes: int = DEFAULT_CACHED_PROBES,
) -> None:
    """Record one binary search per query over ``haystack_size`` sorted
    elements, from the sizes alone: the probes past the cached ones as
    random transactions, the queries read and the ``int64`` positions
    written coalesced."""
    probes = max(0, _probe_count(haystack_size) - cached_probes)
    device.record_kernel(
        kernel_name,
        random_read_bytes=num_queries * probes * TRANSACTION_BYTES,
        coalesced_read_bytes=num_queries * query_itemsize,
        coalesced_write_bytes=num_queries * POSITION_BYTES,
        work_items=num_queries,
    )


def _search(
    sorted_keys: np.ndarray,
    queries: np.ndarray,
    side: str,
    device: Optional[Device],
    kernel_name: str,
    cached_probes: int,
) -> np.ndarray:
    """One binary search per query (``side`` as in ``numpy.searchsorted``),
    its probes charged as random transactions."""
    device = device or get_default_device()
    sorted_keys = np.asarray(sorted_keys)
    queries = np.asarray(queries)
    if sorted_keys.ndim != 1 or queries.ndim != 1:
        raise ValueError("binary search expects one-dimensional arrays")

    result = sorted_keys.searchsorted(queries, side=side).astype(np.int64, copy=False)
    record_search(
        device, kernel_name, queries.size, queries.dtype.itemsize,
        sorted_keys.size, cached_probes,
    )
    return result


def lower_bound(
    sorted_keys: np.ndarray,
    queries: np.ndarray,
    device: Optional[Device] = None,
    kernel_name: str = "search.lower_bound",
    cached_probes: int = DEFAULT_CACHED_PROBES,
) -> np.ndarray:
    """Index of the first element ``>= query`` for every query.

    Both arrays must share a dtype family (unsigned keys); the result is an
    ``int64`` index array with values in ``[0, len(sorted_keys)]``.
    """
    return _search(sorted_keys, queries, "left", device, kernel_name, cached_probes)


def upper_bound(
    sorted_keys: np.ndarray,
    queries: np.ndarray,
    device: Optional[Device] = None,
    kernel_name: str = "search.upper_bound",
    cached_probes: int = DEFAULT_CACHED_PROBES,
) -> np.ndarray:
    """Index of the first element ``> query`` for every query."""
    return _search(sorted_keys, queries, "right", device, kernel_name, cached_probes)
