"""Prefill of the wall-clock replays: a deep, multi-level store to serve.

:func:`make_prefill` builds the untimed insert batches that seed a store
before a timed replay (``benchmarks/e2e`` and the accounting goldens use
it), so every run measures lookups against the same populated levels.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.bench.workloads import MixedOpConfig

#: Batches of prefill inserted before the timed phases.  127 = 0b1111111
#: batches leaves every one of the bottom seven levels populated — the
#: deep multi-level shape a long-lived store settles into, where an
#: uncached lookup pays a probe per level.  (A power-of-two batch count
#: would merge into a single level and flatter the uncached path.)
DEFAULT_PREFILL_BATCHES = 127


def make_prefill(
    tick_size: int,
    prefill_batches: int = DEFAULT_PREFILL_BATCHES,
    hot_keys: Optional[np.ndarray] = None,
    key_space: int = MixedOpConfig.key_space,
) -> List[tuple]:
    """Deterministic ``(keys, values)`` insert batches that seed the store.

    Keys stride the key space evenly, with ``hot_keys`` merged in so
    every hot lookup is a *present* key — an uncached probe must walk
    levels to answer it (a missing key would short-circuit through the
    Bloom filters and hide the cache's effect).
    """
    total = prefill_batches * tick_size
    if total == 0:
        return []
    stride = max(1, key_space // (total + 1))
    keys = (np.arange(1, total + 1, dtype=np.uint64)) * np.uint64(stride)
    if hot_keys is not None and hot_keys.size:
        # Keep every hot key; make room by shedding strided filler keys
        # (a plain truncation of the merged set could drop hot keys that
        # land near the top of the key space).
        hot = np.unique(hot_keys)
        if hot.size >= total:
            keys = hot[:total]
        else:
            strided = keys[~np.isin(keys, hot)][: total - hot.size]
            keys = np.unique(np.concatenate([strided, hot]))
    batches = []
    for lo in range(0, keys.size - keys.size % tick_size, tick_size):
        chunk = keys[lo : lo + tick_size]
        batches.append((chunk, chunk * np.uint64(5)))
    return batches
