"""Digit histograms, the first stage of every radix-sort pass.

CUB's radix sort computes, per thread block, a histogram of the current
digit, scans the histograms to obtain global scatter offsets, and then
scatters.  This module implements the histogram stage both device-wide
(:func:`digit_histogram`) and per-block (:func:`block_histograms`), the
latter being what the scatter offsets are derived from.  The sort in
:mod:`repro.primitives.radix_sort` *records* the per-block histogram of
every pass from its size (it does not need the counts to produce the
sorted result); the literal pass-by-pass sort built on
:func:`block_histograms` is the reference of
``tests/test_accounting_golden.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpu.device import Device, get_default_device
from repro.gpu.launch import LaunchConfig


#: Launch geometry of the radix sort's per-block digit histogram; the
#: sort's closed-form accounting derives the block count from its tile.
BLOCK_HISTOGRAM_LAUNCH = LaunchConfig(block_size=256, items_per_thread=16)


def digit_histogram(
    keys: np.ndarray,
    digit_bits: int,
    shift: int,
    device: Optional[Device] = None,
    kernel_name: str = "histogram.digit",
) -> np.ndarray:
    """Histogram of the ``digit_bits``-wide digit at bit offset ``shift``.

    Parameters
    ----------
    keys:
        Unsigned integer keys.
    digit_bits:
        Width of the radix digit (CUB uses 4–8 bits per pass; we default to
        8 in the sort).
    shift:
        Bit offset of the digit within the key.
    device:
        Device that receives the traffic accounting; defaults to the
        process-wide device.

    Returns
    -------
    numpy.ndarray
        ``int64`` histogram of length ``2**digit_bits``.
    """
    device = device or get_default_device()
    keys = np.asarray(keys)
    if keys.dtype.kind != "u":
        raise TypeError("digit_histogram expects unsigned integer keys")
    if digit_bits <= 0 or digit_bits > 16:
        raise ValueError("digit_bits must be in (0, 16]")
    if shift < 0:
        raise ValueError("shift must be non-negative")

    num_buckets = 1 << digit_bits
    mask = keys.dtype.type(num_buckets - 1)
    digits = (keys >> keys.dtype.type(shift)) & mask
    hist = np.bincount(digits.astype(np.int64), minlength=num_buckets).astype(np.int64)

    # One streaming read of the keys; the histogram itself lives in shared
    # memory on the real device and its write-back is negligible.
    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=keys.nbytes,
        coalesced_write_bytes=num_buckets * 8,
        work_items=keys.size,
    )
    return hist


def block_histograms(
    keys: np.ndarray,
    digit_bits: int,
    shift: int,
    device: Optional[Device] = None,
    config: LaunchConfig = BLOCK_HISTOGRAM_LAUNCH,
) -> np.ndarray:
    """Per-block digit histograms, shaped ``[num_blocks, 2**digit_bits]``.

    The per-block decomposition is what makes the subsequent scatter stable:
    ordering offsets first by digit, then by block index, then by rank
    within the block preserves the input order of equal digits.
    """
    device = device or get_default_device()
    keys = np.asarray(keys)
    if keys.dtype.kind != "u":
        raise TypeError("block_histograms expects unsigned integer keys")
    num_buckets = 1 << digit_bits
    tile = config.tile_size
    n = keys.size
    num_blocks = max(1, -(-n // tile))

    mask = keys.dtype.type(num_buckets - 1)
    digits = ((keys >> keys.dtype.type(shift)) & mask).astype(np.int64)

    # Vectorised per-block histogram: combine (block, digit) into one index
    # and bincount once.
    block_of = np.arange(n, dtype=np.int64) // tile
    combined = block_of * num_buckets + digits
    flat = np.bincount(combined, minlength=num_blocks * num_buckets)
    hist = flat.reshape(num_blocks, num_buckets).astype(np.int64)

    device.record_kernel(
        "histogram.block_digit",
        coalesced_read_bytes=keys.nbytes,
        coalesced_write_bytes=hist.nbytes,
        work_items=n,
    )
    return hist
