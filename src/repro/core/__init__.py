"""The GPU LSM — the paper's primary contribution.

Public surface:

* :class:`repro.core.lsm.GPULSM` — the dynamic dictionary itself
  (``bulk_build`` / ``insert`` / ``delete`` / ``update`` / ``lookup`` /
  ``count`` / ``range_query`` / ``cleanup``).
* :mod:`repro.core.ranges` — the COUNT/RANGE pipeline, written once over
  groups of (store, slice of the batch); ``GPULSM`` is its one-group
  spelling, the sharded front-end runs all its shards through one call.
* :class:`repro.core.config.LSMConfig` — batch size and tuning parameters.
* :class:`repro.core.batch.UpdateBatch` — a mixed batch of insertions and
  tombstoned deletions, with the padding rules of Section IV-A.
* :class:`repro.core.encoding.KeyEncoder` — the 31-bit-key + status-bit
  packing.
* :class:`repro.core.semantics.ReferenceDictionary` — a sequential oracle
  implementing the batch semantics of Section III-A, used by the tests.
* :mod:`repro.core.invariants` — checkers for the building invariants of
  Section III-D.
* :mod:`repro.core.maintenance` — the maintenance subsystem: the cleanup
  stage pipeline, incremental ``compact_levels`` compaction, and the
  pluggable maintenance policies (:class:`ManualOnly`,
  :class:`StaleFractionPolicy`, :class:`LevelCountPolicy`,
  :class:`AnyOf`).
"""

from repro.core.config import LSMConfig
from repro.core.encoding import KeyEncoder, MAX_KEY, STATUS_REGULAR, STATUS_TOMBSTONE
from repro.core.batch import UpdateBatch
from repro.core.level import Level
from repro.core.run import SortedRun
from repro.core.lsm import GPULSM, LookupResult, RangeResult
from repro.core.maintenance import (
    AnyOf,
    LevelCountPolicy,
    MaintenanceAction,
    MaintenancePolicy,
    ManualOnly,
    StaleFractionPolicy,
)
from repro.core.semantics import ReferenceDictionary
from repro.core.invariants import check_level_invariants, check_lsm_invariants

__all__ = [
    "GPULSM",
    "LookupResult",
    "RangeResult",
    "LSMConfig",
    "UpdateBatch",
    "Level",
    "SortedRun",
    "KeyEncoder",
    "MAX_KEY",
    "STATUS_REGULAR",
    "STATUS_TOMBSTONE",
    "ReferenceDictionary",
    "check_level_invariants",
    "check_lsm_invariants",
    "MaintenancePolicy",
    "MaintenanceAction",
    "ManualOnly",
    "StaleFractionPolicy",
    "LevelCountPolicy",
    "AnyOf",
]
