"""Update batches: mixed insertions and tombstoned deletions.

Section III-A fixes the batch size to ``b`` and allows a batch to mix
insertions and deletions; Section IV-A explains how a *partial* batch
(``b' < b`` new elements) is padded "by duplicating enough (b − b') copies
of an arbitrary element within the batch (e.g., the last one); only one of
those duplicates will be visible to queries".

:class:`UpdateBatch` builds the encoded key word array (and aligned value
array) for one batch, applying exactly those rules, and records how much of
the batch is padding so the harness can report the effective insertion rate
``R * b' / b`` the paper discusses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import LSMConfig
from repro.core.encoding import STATUS_REGULAR, STATUS_TOMBSTONE
from repro.core.run import SortedRun
from repro.gpu.device import Device
from repro.primitives.radix_sort import record_radix_sort


@dataclass
class UpdateBatch:
    """One encoded update batch, ready to be sorted and merged.

    Attributes
    ----------
    encoded_keys:
        ``batch_size`` encoded key words (original key + status bit).
    values:
        ``batch_size`` values aligned with :attr:`encoded_keys` (tombstones
        and padding carry a zero value), or ``None`` for key-only mode.
    real_count:
        Number of non-padding elements the user actually supplied.
    num_insertions / num_deletions:
        Breakdown of the real elements.
    """

    encoded_keys: np.ndarray
    values: Optional[np.ndarray]
    real_count: int
    num_insertions: int
    num_deletions: int

    @property
    def size(self) -> int:
        """Total batch size including padding (always the configured ``b``)."""
        return int(self.encoded_keys.size)

    @property
    def padding_count(self) -> int:
        """Number of padded duplicate elements."""
        return self.size - self.real_count

    @property
    def utilisation(self) -> float:
        """``b' / b`` — fraction of the batch carrying real work."""
        return self.real_count / self.size if self.size else 0.0

    def as_run(self) -> SortedRun:
        """The batch's columns as one (not-yet-sorted) :class:`SortedRun`.

        The insertion cascade sorts this run over the full encoded word and
        merges it down the occupied levels.
        """
        return SortedRun(keys=self.encoded_keys, values=self.values)


def build_update_batch(
    config: LSMConfig,
    insert_keys: Optional[np.ndarray] = None,
    insert_values: Optional[np.ndarray] = None,
    delete_keys: Optional[np.ndarray] = None,
    key_only: bool = False,
) -> UpdateBatch:
    """Assemble a (possibly mixed, possibly partial) update batch.

    Parameters
    ----------
    config:
        The LSM configuration (provides ``batch_size`` and dtypes).
    insert_keys / insert_values:
        Keys (original, un-encoded) and values to insert.  ``insert_values``
        must be given unless ``key_only`` is set.
    delete_keys:
        Keys to delete (inserted as tombstones).
    key_only:
        When true the dictionary stores no values at all.

    Raises
    ------
    ValueError
        If the combined number of updates exceeds ``batch_size`` or is zero,
        or if the value array is missing/misshapen.
    """
    encoder = config.encoder

    # No cast before the encoder has checked the dtype: a float key would
    # be truncated to another key.
    none = np.zeros(0, dtype=np.uint64)
    ins = np.asarray(insert_keys if insert_keys is not None else none)
    dels = np.asarray(delete_keys if delete_keys is not None else none)
    n_ins, n_del = int(ins.size), int(dels.size)
    real = n_ins + n_del

    if real == 0:
        raise ValueError("an update batch must contain at least one operation")
    if real > config.batch_size:
        raise ValueError(
            f"batch holds {real} operations but the configured batch size is "
            f"{config.batch_size}; split the work into multiple batches"
        )

    if key_only:
        values = None
    else:
        if n_ins and insert_values is None:
            raise ValueError("insert_values is required unless key_only=True")
        vals = (
            np.asarray(insert_values, dtype=config.value_dtype)
            if insert_values is not None
            else np.empty(0, dtype=config.value_dtype)
        )
        if vals.size != n_ins:
            raise ValueError("insert_values must match insert_keys in length")
        values = np.zeros(config.batch_size, dtype=config.value_dtype)
        values[:n_ins] = vals

    encoded = np.empty(config.batch_size, dtype=config.key_dtype)
    if n_ins:
        encoded[:n_ins] = encoder.encode(ins, STATUS_REGULAR)
    if n_del:
        encoded[n_ins:real] = encoder.encode(dels, STATUS_TOMBSTONE)

    # Pad a partial batch by duplicating the last real element (Section IV-A):
    # duplicates are harmless because only the first (most recent) copy of a
    # key within a batch is ever visible to queries.
    if real < config.batch_size:
        encoded[real:] = encoded[real - 1]
        if values is not None:
            values[real:] = values[real - 1]

    return UpdateBatch(
        encoded_keys=encoded,
        values=values,
        real_count=real,
        num_insertions=n_ins,
        num_deletions=n_del,
    )


def sort_update_run(run: SortedRun, num_insertions: int, device: Device) -> SortedRun:
    """The radix sort of an update run laid out as its insertion words, then
    its deletion words (and any padding copies of the last).  When both
    columns already ascend — a canonical segment the planner sorted once —
    NumPy's stable sort merges the two runs instead of sorting from
    scratch; the order is the same, and the device's sort is recorded from
    the sizes either way."""
    words = run.keys
    ins, rest = words[:num_insertions], words[num_insertions:]
    if np.any(ins[1:] < ins[:-1]) or np.any(rest[1:] < rest[:-1]):
        return run.sort(device=device)
    order = np.argsort(words, kind="stable")
    record_radix_sort(
        device, words.size, words.dtype, None if run.values is None else run.values.dtype
    )
    return SortedRun(words[order], None if run.values is None else run.values[order])
