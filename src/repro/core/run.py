"""The sorted-run column set the whole LSM data path is expressed over.

The paper phrases the GPU LSM's structural operations — the insertion
cascade, bulk build and cleanup — as bulk primitives
over *sorted runs*: contiguous arrays of encoded key words with an optional
aligned value column (Sections III–V).  :class:`SortedRun` is that concept
as a first-class object.  Each method calls the corresponding primitive of
:mod:`repro.primitives` — every one written once over keys plus an optional
value column — so the data-structure layer never has to spell out an
operation twice for the key-only and key-value configurations.

A run is immutable: every operation returns a new :class:`SortedRun` (the
real CUDA implementation ping-pongs between double buffers for the same
reason).  Whether a run is actually key-sorted depends on where it came
from — a freshly assembled update batch is a run that has not been sorted
*yet*; call :meth:`sort` before merging it into the structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.gpu.device import Device, get_default_device
from repro.primitives.merge import KeyFunc, merge_runs
from repro.primitives.multisplit import multisplit
from repro.primitives.radix_sort import RadixSortConfig, radix_sort


@dataclass(frozen=True)
class SortedRun:
    """An immutable (encoded-keys, optional-values) column set.

    Attributes
    ----------
    keys:
        One-dimensional array of encoded key words.
    values:
        Aligned value column, or ``None`` for key-only runs.  All runs
        flowing through one dictionary agree on whether values are present.
    """

    keys: np.ndarray
    values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        keys = np.asarray(self.keys)
        if keys.ndim != 1:
            raise ValueError("a sorted run's key column must be one-dimensional")
        object.__setattr__(self, "keys", keys)
        if self.values is not None:
            values = np.asarray(self.values)
            if values.shape != keys.shape:
                raise ValueError("value column must match the key column in shape")
            object.__setattr__(self, "values", values)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of elements in the run."""
        return int(self.keys.size)

    def __len__(self) -> int:
        return self.size

    @property
    def has_values(self) -> bool:
        """True when the run carries a value column."""
        return self.values is not None

    @property
    def nbytes(self) -> int:
        """Device bytes the run's columns occupy."""
        total = int(self.keys.nbytes)
        if self.values is not None:
            total += int(self.values.nbytes)
        return total

    @property
    def itemsize(self) -> int:
        """Bytes per element across all columns."""
        per = self.keys.dtype.itemsize
        if self.values is not None:
            per += self.values.dtype.itemsize
        return per

    def _like(
        self, keys: np.ndarray, values: Optional[np.ndarray]
    ) -> "SortedRun":
        return SortedRun(keys=keys, values=values)

    def first_per_key(self, key: KeyFunc = None) -> np.ndarray:
        """Mask of the first element of every equal-key segment.

        ``key`` optionally extracts the comparison key (the LSM passes the
        encoder's strip-status).  On a key-sorted run whose equal keys are
        ordered most-recent-first — what the stable full-word sort and the
        status-blind merges guarantee — the mask selects each key's one
        *surviving* element: the batch canonicalisation of Section III-A
        rules 4/6 and the valid-marking of cleanup (Section IV-E step 2)
        are both this mask.
        """
        cmp = self.keys if key is None else key(self.keys)
        first = np.ones(cmp.size, dtype=bool)
        if cmp.size:
            first[1:] = cmp[1:] != cmp[:-1]
        return first

    # ------------------------------------------------------------------ #
    # Bulk operations (one primitive call each)
    # ------------------------------------------------------------------ #
    def sort(
        self,
        config: RadixSortConfig = RadixSortConfig(),
        device: Optional[Device] = None,
    ) -> "SortedRun":
        """Radix sort the run over the full encoded word (status bit
        included) — Fig. 3 line 9."""
        keys, values = radix_sort(
            self.keys, self.values, config=config, device=device
        )
        return self._like(keys, values)

    def merge(
        self,
        *older: "SortedRun",
        key: KeyFunc = None,
        device: Optional[Device] = None,
        kernel_name: str = "run.merge",
    ) -> "SortedRun":
        """Stable merge with the ``older`` runs (newest first): among equal
        keys this run's elements come first, then each older run's in turn —
        the cascade ordering of Fig. 3 line 14, a whole carry chain at once."""
        if not older:
            return self
        runs = (self,) + older
        keys, values = merge_runs(
            [run.keys for run in runs],
            [run.values for run in runs] if any(run.has_values for run in runs) else None,
            key=key,
            device=device,
            kernel_name=kernel_name,
        )
        return self._like(keys, values)

    def multisplit(
        self,
        bucket_of: Callable[[np.ndarray], np.ndarray],
        num_buckets: int = 2,
        device: Optional[Device] = None,
        kernel_name: str = "run.multisplit",
    ) -> Tuple["SortedRun", np.ndarray]:
        """Stable bucket partition; returns the reordered run plus the
        ``num_buckets + 1`` bucket offsets."""
        keys, values, offsets = multisplit(
            self.keys,
            self.values,
            bucket_of,
            num_buckets=num_buckets,
            device=device,
            kernel_name=kernel_name,
        )
        return self._like(keys, values), offsets

    def compact(
        self,
        mask: np.ndarray,
        device: Optional[Device] = None,
        kernel_name: str = "run.compact",
    ) -> "SortedRun":
        """Keep the masked elements of the run (one stream-compaction pass
        over every column)."""
        mask = np.asarray(mask)
        if mask.shape != self.keys.shape or mask.dtype != bool:
            raise ValueError("mask must be a boolean array aligned with the run")
        device = device or get_default_device()
        keys = self.keys[mask]
        values = None if self.values is None else self.values[mask]
        device.record_kernel(
            kernel_name,
            coalesced_read_bytes=self.nbytes + mask.size,
            coalesced_write_bytes=int(keys.size) * self.itemsize,
            work_items=self.size,
        )
        return self._like(keys, values)

    # ------------------------------------------------------------------ #
    # Slicing and padding (device-side copies)
    # ------------------------------------------------------------------ #
    def slice(self, lo: int, hi: int) -> "SortedRun":
        """Copy of the elements in ``[lo, hi)`` as an independent run.

        The copy matters: level storage must not alias the merge buffers it
        was carved from (the CUDA code ``cudaMemcpy``s each level slice out
        of the big double buffer for the same reason).
        """
        if not 0 <= lo <= hi <= self.size:
            raise ValueError(f"slice [{lo}, {hi}) out of range for size {self.size}")
        keys = self.keys[lo:hi].copy()
        values = None if self.values is None else self.values[lo:hi].copy()
        return self._like(keys, values)

    def pad(
        self,
        total_size: int,
        fill_word: int,
        fill_value: int = 0,
        device: Optional[Device] = None,
        kernel_name: str = "run.pad",
    ) -> "SortedRun":
        """Extend the run to ``total_size`` elements with ``fill_word``
        (and ``fill_value``) — the placebo padding of Section IV-E.

        ``fill_word`` must not sort before the run's last element, so the
        padded run stays sorted; the cleanup path passes the encoder's
        maximal-key tombstone, which always sorts last.
        """
        if total_size < self.size:
            raise ValueError("pad cannot shrink a run")
        if total_size == self.size:
            return self
        device = device or get_default_device()
        padding = total_size - self.size
        keys = np.empty(total_size, dtype=self.keys.dtype)
        keys[: self.size] = self.keys
        keys[self.size :] = self.keys.dtype.type(fill_word)
        if self.values is None:
            values = None
        else:
            values = np.empty(total_size, dtype=self.values.dtype)
            values[: self.size] = self.values
            values[self.size :] = self.values.dtype.type(fill_value)
        device.record_kernel(
            kernel_name,
            coalesced_write_bytes=padding * self.itemsize,
            work_items=padding,
        )
        return self._like(keys, values)
