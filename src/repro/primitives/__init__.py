"""GPU parallel primitives (CUB / moderngpu equivalents).

The paper builds its entire data structure out of a small set of
bulk-synchronous primitives taken from CUB and moderngpu:

==========================  ============================  ===========================
Paper / original library     This module                   Used by
==========================  ============================  ===========================
CUB radix sort               :mod:`repro.primitives.radix_sort`      insertion (batch sort), cleanup, GPU SA build
moderngpu merge (merge path) :mod:`repro.primitives.merge`           insertion cascade, cleanup, GPU SA insert
CUB exclusive scan           :mod:`repro.primitives.scan`            count/range offset computation, compaction
lower/upper bound search     :mod:`repro.primitives.search`          lookup/count/range per-level searches
moderngpu segmented sort     :mod:`repro.primitives.segmented_sort`  count/range post-processing
stream compaction            :mod:`repro.primitives.compact`         range queries, cleanup
GPU multisplit (PPoPP'16)    :mod:`repro.primitives.multisplit`      cleanup valid/stale separation
digit histogram              :mod:`repro.primitives.histogram`       radix sort passes
==========================  ============================  ===========================

Every primitive does its functional work with vectorised NumPy and reports
the global-memory traffic the corresponding CUDA kernels would generate to
the owning :class:`repro.gpu.Device`, which is what drives the simulated
throughput numbers in the benchmark harness.

The sort, merge, segmented sort, multisplit and compaction are each written
once, over keys plus an optional value column (``radix_sort``, ``merge``,
``segmented_sort``, ``multisplit``, ``segmented_compact`` in their modules,
what :class:`repro.core.run.SortedRun` calls); the ``*_keys`` / ``*_pairs``
names exported here are its two spellings for callers holding plain arrays.
"""

from repro.primitives.radix_sort import radix_sort_keys, radix_sort_pairs, RadixSortConfig
from repro.primitives.merge import merge_keys, merge_pairs, merge_path_partitions
from repro.primitives.scan import exclusive_scan
from repro.primitives.search import lower_bound, upper_bound
from repro.primitives.segmented_sort import segmented_sort_keys, segmented_sort_pairs
from repro.primitives.compact import compact
from repro.primitives.multisplit import multisplit_keys, multisplit_pairs
from repro.primitives.histogram import digit_histogram, block_histograms

__all__ = [
    "radix_sort_keys",
    "radix_sort_pairs",
    "RadixSortConfig",
    "merge_keys",
    "merge_pairs",
    "merge_path_partitions",
    "exclusive_scan",
    "lower_bound",
    "upper_bound",
    "segmented_sort_keys",
    "segmented_sort_pairs",
    "compact",
    "multisplit_keys",
    "multisplit_pairs",
    "digit_histogram",
    "block_histograms",
]
