"""Least-significant-digit radix sort (CUB ``DeviceRadixSort`` equivalent).

The GPU LSM sorts every incoming batch with CUB's radix sort *including the
status bit* (Fig. 3 line 9), which is what places tombstones ahead of regular
elements with the same key inside a batch.  The GPU SA baseline and the
cleanup fallback path also rely on it.

The modelled algorithm is an LSD radix sort: the key is processed in
``digit_bits``-wide digits from least to most significant, and each pass
launches (1) a per-block digit histogram, (2) an exclusive scan of the
histograms, and (3) a stable scatter — the same three kernels CUB launches.
Those kernels are *recorded*, pass by pass, from the sizes alone
(:func:`record_radix_sort`); the result itself is computed once, by a single
stable sort over the selected bit range (:func:`stable_order`), which orders
the input element for element as the stable digit passes would.

Traffic model per pass: read keys (+ values), write keys (+ values), plus the
histogram/scan traffic — giving the familiar ``passes × 2 × payload`` DRAM
volume that makes radix sort bandwidth-bound.  The paper's measured 770 M
key-value pairs/s on the K40c corresponds to ~4-bit-per-pass efficiency with
this model; the default 8-bit digits land in the same regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.gpu.device import Device, get_default_device
from repro.primitives.histogram import BLOCK_HISTOGRAM_LAUNCH


@dataclass(frozen=True)
class RadixSortConfig:
    """Tuning knobs of the radix sort.

    ``digit_bits`` is the radix width per pass (CUB uses 5–8 depending on
    architecture); ``begin_bit``/``end_bit`` restrict sorting to a bit range
    of the key, which the LSM uses to *exclude* the status bit when it needs
    key-only ordering and to sort full words when it needs tombstones first.
    ``end_bit = None`` means "the full key width".
    """

    digit_bits: int = 8
    begin_bit: int = 0
    end_bit: Optional[int] = None

    def __post_init__(self) -> None:
        if not 1 <= self.digit_bits <= 16:
            raise ValueError("digit_bits must be in [1, 16]")
        if self.begin_bit < 0:
            raise ValueError("begin_bit must be non-negative")
        if self.end_bit is not None and self.end_bit <= self.begin_bit:
            raise ValueError("end_bit must exceed begin_bit")


def _resolve_bits(key_dtype: np.dtype, config: RadixSortConfig) -> Tuple[int, int]:
    key_bits = key_dtype.itemsize * 8
    end_bit = key_bits if config.end_bit is None else min(config.end_bit, key_bits)
    begin_bit = min(config.begin_bit, end_bit)
    return begin_bit, end_bit


def _check_keys(keys: np.ndarray) -> np.ndarray:
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError("radix sort expects a one-dimensional key array")
    if keys.dtype.kind != "u":
        raise TypeError("radix sort expects unsigned integer keys")
    return keys


def record_radix_sort(
    device: Device,
    num_items: int,
    key_dtype: np.dtype,
    value_dtype: Optional[np.dtype] = None,
    config: RadixSortConfig = RadixSortConfig(),
) -> None:
    """Record the kernels an LSD radix sort of ``num_items`` elements
    launches — per digit pass a per-block histogram, a scan of the
    histograms and a scatter — from the sizes alone.

    The traffic of a pass does not depend on the data, so nothing is
    executed here; a caller that obtains the sorted order some other way
    (the sort below, the LSM's sorted-probe lookups) charges exactly what
    the device would have run.
    """
    num_items = int(num_items)
    if num_items == 0:
        return
    key_dtype = np.dtype(key_dtype)
    begin_bit, end_bit = _resolve_bits(key_dtype, config)
    key_bytes = num_items * key_dtype.itemsize
    payload_bytes = key_bytes + (
        num_items * np.dtype(value_dtype).itemsize if value_dtype is not None else 0
    )
    num_blocks = -(-num_items // BLOCK_HISTOGRAM_LAUNCH.tile_size)
    # Every pass but a narrower last one has the same sizes, so the full
    # passes are one repeated sequence.
    full_passes, last_width = divmod(end_bit - begin_bit, config.digit_bits)
    for width, repeats in ((config.digit_bits, full_passes), (last_width, 1)):
        if not width:
            continue
        # One int64 counter per (block, digit value).
        hist_items = num_blocks << width
        hist_bytes = hist_items * 8
        device.record_kernels(
            (
                ("histogram.block_digit", key_bytes, hist_bytes, 0, 0, 0, 0, num_items, 1),
                ("radix_sort.scan", hist_bytes, hist_bytes, 0, 0, 0, 0, hist_items, 1),
                # The scatter writes of a radix pass land in 2**digit_bits
                # distinct output partitions, so they are only partially
                # coalesced; charging them as random traffic is what
                # calibrates the simulated sort to the ~770 M key-value
                # pairs/s the paper measures on the K40c.
                ("radix_sort.scatter", payload_bytes, 0, 0, payload_bytes, 0, 0, num_items, 1),
            ),
            repeats,
        )


def fits_32_bits(field: np.ndarray) -> bool:
    """True when ``field`` holds unsigned integers all below ``2**32`` (by
    dtype where that decides it, by one maximum pass where it does not), so
    that another 32 bits can be packed beside each."""
    return field.dtype.kind == "u" and (
        field.dtype.itemsize <= 4 or not field.size or not int(field.max()) >> 32
    )


def stable_order(field: np.ndarray) -> np.ndarray:
    """``np.argsort(field, kind="stable")`` of *unordered* unsigned integers.

    A field that fits 32 bits is packed above its element's index,
    ``(field << 32) | index``, and the words sorted in place by NumPy's
    default (SIMD) sort: they are distinct, so the unstable sort is stable
    on the field, and their low halves are the order (30 vs 240 us at 4096
    ``uint32``).  Fields NumPy radix-sorts (16 bits or fewer) and fields
    with a bit above the 32nd keep the stable ``argsort``.  Concatenated
    *presorted* runs belong to :func:`repro.primitives.merge.merge_runs`,
    whose run-merging sort does those in under half the time.
    """
    if field.dtype.itemsize < 4 or not fits_32_bits(field):
        return np.argsort(field, kind="stable")
    packed = field.astype(np.uint64)
    packed <<= np.uint64(32)
    packed |= np.arange(field.size, dtype=np.uint64)
    packed.sort()
    packed &= np.uint64(0xFFFFFFFF)
    return packed.view(np.int64)


def radix_sort(
    keys: np.ndarray,
    values: Optional[np.ndarray],
    config: RadixSortConfig = RadixSortConfig(),
    device: Optional[Device] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Stable ascending sort of a column set — unsigned integer keys plus an
    optional aligned value column of any dtype — with every digit pass
    accounted for (CUB ``SortKeys`` / ``SortPairs``).

    Stable LSD passes over the bits ``[begin_bit, end_bit)`` order the
    input exactly as one stable sort by that bit field does, so the host
    does the one sort and :func:`record_radix_sort` records the passes.
    The outputs are new arrays; the input is not modified (the real CUB
    call ping-pongs between two buffers for the same reason).
    """
    device = device or get_default_device()
    keys = _check_keys(keys)
    if values is not None:
        values = np.asarray(values)
        if values.ndim != 1 or values.size != keys.size:
            raise ValueError("values must be one-dimensional and match keys in length")
    begin_bit, end_bit = _resolve_bits(keys.dtype, config)
    field = keys
    if end_bit < keys.dtype.itemsize * 8:
        field = field & keys.dtype.type((1 << end_bit) - 1)
    if begin_bit:
        field = field >> keys.dtype.type(begin_bit)
    order = stable_order(field)
    record_radix_sort(
        device,
        keys.size,
        keys.dtype,
        None if values is None else values.dtype,
        config,
    )
    return keys[order], None if values is None else values[order]


def radix_sort_keys(
    keys: np.ndarray,
    config: RadixSortConfig = RadixSortConfig(),
    device: Optional[Device] = None,
) -> np.ndarray:
    """:func:`radix_sort` of a key array."""
    return radix_sort(keys, None, config=config, device=device)[0]


def radix_sort_pairs(
    keys: np.ndarray,
    values: np.ndarray,
    config: RadixSortConfig = RadixSortConfig(),
    device: Optional[Device] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`radix_sort` of key-value pairs (the LSM stores 32-bit values;
    the cleanup path also sorts permutation indices)."""
    return radix_sort(keys, values, config=config, device=device)
