"""Configuration of a GPU LSM instance.

The only parameter the paper exposes is the batch size ``b`` (which is also
the size of level 0); everything else here is either a dtype choice or a
knob of the simulated substrate (which device to run on, whether to validate
invariants after every operation — used heavily by the test suite, exactly
like a debug build of the original code would assert its invariants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.encoding import KeyEncoder
from repro.core.maintenance import MaintenancePolicy


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class LSMConfig:
    """Static configuration of a :class:`repro.core.lsm.GPULSM`.

    Parameters
    ----------
    batch_size:
        The paper's ``b``: every update batch has exactly this many
        elements and level *i* holds ``b * 2**i`` elements.  Must be a
        power of two ≥ 2 (powers of two are not strictly required by the
        data structure, but they are what the paper evaluates and they make
        the level arithmetic exact).
    key_dtype / value_dtype:
        Unsigned dtypes of the stored encoded keys and the values.  The
        paper uses 32-bit keys (31-bit domain) and 32-bit values.
    max_levels:
        Hard cap on the number of levels, i.e. the maximum number of
        resident batches is ``2**max_levels - 1``.  32 mirrors the paper's
        32-bit batch counter.
    validate_invariants:
        When true, the building invariants of Section III-D are re-checked
        after every update (slow; meant for tests).
    enable_fences:
        Query-acceleration knob: keep a per-level fence pair (min/max
        resident original key) and skip any level a query — or a COUNT /
        RANGE interval — cannot possibly intersect.  Free at query time
        (two register compares per level), rebuilt whenever a level is
        filled.
    bloom_bits_per_key:
        Query-acceleration knob: when positive, every level carries a
        Bloom filter of this many bits per resident element (hash count
        derived as ``round(bits · ln 2)``; 10 bits/key ≈ 1 % false
        positives).  LOOKUP probes the filter before binary-searching a
        level; a negative filter answer skips the level outright, which is
        what removes the "random memory accesses required in all binary
        searches" on miss-heavy workloads.  0 disables.  Answers are never
        affected — filters are status-blind and conservative.
    sort_queries:
        Query-acceleration knob: the modelled device radix-sorts each
        LOOKUP batch once so per-level probes arrive in key order.
        Neighbouring sorted queries walk nearly identical binary-search
        paths, so far more probes hit
        cache — the paper's own "sort the queries" locality observation —
        modelled as the larger ``sorted_probe_cached_probes`` discount.
        Results are scattered back to request order; answers are
        unchanged.
    sorted_probe_cached_probes:
        How many leading binary-search probes are assumed cached when the
        query batch is sorted (versus the default 2 of
        :data:`repro.primitives.search.DEFAULT_CACHED_PROBES`).
    maintenance_policy:
        Optional :class:`repro.core.maintenance.MaintenancePolicy`
        deciding when (and which) maintenance runs — evaluated by
        :meth:`GPULSM.run_due_maintenance`, which the serving engine calls
        after every executed tick and the sharded front-end evaluates per
        shard.  ``None`` (the default) keeps cleanup / compaction fully
        manual.
    """

    batch_size: int = 1 << 16
    key_dtype: np.dtype = np.dtype(np.uint32)
    value_dtype: np.dtype = np.dtype(np.uint32)
    max_levels: int = 32
    validate_invariants: bool = False
    enable_fences: bool = False
    bloom_bits_per_key: int = 0
    sort_queries: bool = False
    sorted_probe_cached_probes: int = 8
    maintenance_policy: Optional[MaintenancePolicy] = None

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.batch_size) or self.batch_size < 2:
            raise ValueError("batch_size must be a power of two and at least 2")
        key_dtype = np.dtype(self.key_dtype)
        value_dtype = np.dtype(self.value_dtype)
        if key_dtype.kind != "u":
            raise TypeError("key_dtype must be an unsigned integer dtype")
        if value_dtype.kind not in ("u", "i", "f"):
            raise TypeError("value_dtype must be a numeric dtype")
        if self.max_levels < 1 or self.max_levels > 48:
            raise ValueError("max_levels must be in [1, 48]")
        if not 0 <= self.bloom_bits_per_key <= 64:
            raise ValueError("bloom_bits_per_key must be in [0, 64]")
        if self.sorted_probe_cached_probes < 0:
            raise ValueError("sorted_probe_cached_probes must be non-negative")
        if self.maintenance_policy is not None and not isinstance(
            self.maintenance_policy, MaintenancePolicy
        ):
            raise TypeError(
                "maintenance_policy must be a MaintenancePolicy instance "
                "(ManualOnly / StaleFractionPolicy / LevelCountPolicy / AnyOf)"
            )
        object.__setattr__(self, "key_dtype", key_dtype)
        object.__setattr__(self, "value_dtype", value_dtype)

    @property
    def encoder(self) -> KeyEncoder:
        """Key encoder matching :attr:`key_dtype`."""
        return KeyEncoder(self.key_dtype)

    @property
    def filters_enabled(self) -> bool:
        """True when any per-level query filter is configured."""
        return self.enable_fences or self.bloom_bits_per_key > 0

    @property
    def max_resident_batches(self) -> int:
        """Largest representable number of resident batches."""
        return (1 << self.max_levels) - 1

    @property
    def max_elements(self) -> int:
        """Largest number of resident elements (stale ones included)."""
        return self.max_resident_batches * self.batch_size

    def level_capacity(self, level_index: int) -> int:
        """Capacity (in elements) of level ``level_index`` — ``b * 2**i``."""
        if not 0 <= level_index < self.max_levels:
            raise ValueError(f"level index {level_index} out of range")
        return self.batch_size << level_index
