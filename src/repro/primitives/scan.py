"""Device-wide exclusive prefix sum (CUB ``DeviceScan::ExclusiveSum``).

The GPU LSM uses an exclusive scan to turn the per-query, per-level result
count estimates of COUNT and RANGE queries into global output offsets
(Fig. 2c/2d line 10), and the compaction and multisplit primitives are built
on scans as well.

The functional work is a single ``numpy.cumsum``; the traffic model charges
one read and one write of the input (the standard "decoupled look-back"
single-pass scan reads and writes each element once).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.gpu.device import Device, get_default_device


def exclusive_scan(
    values: np.ndarray,
    device: Optional[Device] = None,
    initial: int = 0,
    kernel_name: str = "scan.exclusive",
) -> Tuple[np.ndarray, int]:
    """Exclusive plus-scan.

    Returns the scanned array (same length as the input) and the total sum,
    matching CUB's ``ExclusiveSum`` + the common pattern of reading the
    aggregate from the last element.

    ``initial`` seeds the scan, which the count/range pipeline uses when
    appending results after an existing region of the output buffer.
    """
    device = device or get_default_device()
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    # Inclusive sums one slot to the right: the exclusive scan, then the total.
    sums = np.empty(values.size + 1, dtype=np.int64)
    sums[0] = initial
    np.cumsum(values, out=sums[1:])
    if initial:
        sums[1:] += initial
    result = sums[:-1]

    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=values.nbytes,
        coalesced_write_bytes=result.nbytes,
        work_items=values.size,
    )
    return result, int(sums[-1])
