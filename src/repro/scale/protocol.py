"""The batch-dictionary protocol every queryable structure satisfies.

The paper's Table I compares the GPU LSM, the GPU sorted array and the
cuckoo hash table operation by operation: all three offer batched
``insert`` / ``delete`` / ``lookup`` / ``count`` / ``range_query`` entry
points (plus ``bulk_build``), even though some cells of the table are
"unsupported" for a given structure.  :class:`DictionaryProtocol` captures
that shared surface as a structural (``typing.Protocol``) type, so the
scale-out layer — :class:`repro.scale.sharded.ShardedLSM` — and the
serving layers can be written against *a dictionary*, not against a
concrete class.

A structure that cannot implement an operation (the cuckoo table has no
ordered queries, for example) still provides the method and raises
:class:`UnsupportedOperationError`, mirroring the dashes of Table I.  Its
row of the table is *declared*, never probed: ``supported_operations()``
names the operations it implements, and :func:`supports` reads that set.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

import numpy as np

from repro.core.lsm import LookupResult, RangeResult


class UnsupportedOperationError(NotImplementedError):
    """Raised by a dictionary for an operation it does not support
    (a dash in the paper's Table I)."""


@runtime_checkable
class DictionaryProtocol(Protocol):
    """Structural type of a batched GPU dictionary (paper Table I).

    All methods are *batch* operations: they take arrays of keys (and
    values / range bounds) and answer every element of the batch in one
    bulk-synchronous pass over the simulated device.

    Two members are the contract the serving layers read directly:
    :attr:`epoch`, the one structural token (the planner's pin, the read
    cache's key, the engine's quarantine check and a checkpoint's epoch
    mark), and :meth:`supported_operations`, the Table I row.
    """

    @property
    def epoch(self) -> int:
        """Monotone structural epoch: strictly increases on every mutation
        that can change the resident state (update batch, bulk build,
        cleanup, compaction, restore, rollback, shard split or merge) and
        never moves on a read.  Two equal reads mean the same state."""
        ...

    def supported_operations(self) -> frozenset:
        """The operations this structure implements for real (its row of
        the paper's Table I)."""
        ...

    def bulk_build(
        self, keys: np.ndarray, values: Optional[np.ndarray] = None
    ) -> None:
        """Build the dictionary from scratch out of ``keys`` (/``values``)."""
        ...

    def insert(self, keys: np.ndarray, values: Optional[np.ndarray] = None) -> None:
        """Insert one batch of key(/value) pairs."""
        ...

    def delete(self, keys: np.ndarray) -> None:
        """Delete one batch of keys."""
        ...

    def lookup(self, query_keys: np.ndarray) -> LookupResult:
        """Most recent value per queried key, or "not found"."""
        ...

    def count(self, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
        """Number of live keys in ``[k1[i], k2[i]]`` per query."""
        ...

    def range_query(self, k1: np.ndarray, k2: np.ndarray) -> RangeResult:
        """All live pairs in ``[k1[i], k2[i]]`` per query, flat layout."""
        ...


def simulated_seconds(dictionary) -> float:
    """The dictionary's simulated clock, in wall-clock terms.

    A sharded front-end reports its ``profile()["parallel_seconds"]``
    (router plus the slowest shard — all shards run concurrently); a
    single-device structure reports its device clock.  The serving
    engine's telemetry and the benchmark harness both read the clock
    through this one helper.
    """
    profile = getattr(dictionary, "profile", None)
    if callable(profile):
        return float(profile()["parallel_seconds"])
    device = getattr(dictionary, "device", None)
    if device is not None:
        return float(device.simulated_seconds)
    return 0.0


def supports(dictionary: DictionaryProtocol, operation: str) -> bool:
    """True when ``dictionary`` implements ``operation`` for real: the
    operation is in its declared :meth:`~DictionaryProtocol.
    supported_operations` row.  The declaration is read on every call, so
    a proxy that forwards it from the backend it wraps answers for that
    backend."""
    return operation in dictionary.supported_operations()
