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


def record_exclusive_scan(
    device: Device, num_items: int, input_bytes: int, kernel_name: str
) -> None:
    """Record a single-pass scan of ``num_items`` elements (``input_bytes``
    as they are read; one ``int64`` written per element) from the sizes."""
    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=input_bytes,
        coalesced_write_bytes=num_items * np.dtype(np.int64).itemsize,
        work_items=num_items,
    )


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

    record_exclusive_scan(device, values.size, values.nbytes, kernel_name)
    return result, int(sums[-1])
