"""COUNT and RANGE in one key-ordered pass over one or more GPU LSMs.

The paper's pipeline (Fig. 2c/2d) has six stages: per-(query, level) bound
searches, a scan of the count estimates, a ragged gather of the candidates,
a segmented sort, validation, and a per-segment count or compaction.  Only
the first touches a particular store's levels; the rest treat each query's
candidates as an independent *segment*.  So the pipeline is written once,
over **groups** — a store plus the slice of the batch it serves.  A
:class:`~repro.core.lsm.GPULSM` is the one-group spelling; the sharded
front-end expands its batch into (query, shard) pairs (the pair is the
segment: shards own disjoint keys) and hands every shard its slice in the
same call.

Execution and accounting are separate where they have to be.  Stage 1 runs
store by store and records as it goes; stages 2–6 run once over all groups,
and then every group's device receives the kernels it would have launched
for its own slice — same names, order and fields — from the per-group sizes.
Each store's ``lsm.count`` / ``lsm.range`` profiler region spans the pass.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import LSMConfig
from repro.core.level import Level
from repro.primitives.compact import record_segmented_compact
from repro.primitives.scan import record_exclusive_scan
from repro.primitives.search import record_search
from repro.primitives.segmented_sort import record_segmented_sort, segmented_order

#: Candidates post-processed at a time.  Segments are independent, so
#: stages 2–6 run over blocks of whole segments holding at most this many
#: candidates (one segment alone may exceed it): a whole-domain query over
#: many stores peaks at one store's working set, not at their sum.  Any
#: serving tick is one block.
SEGMENT_BLOCK_CANDIDATES = 1 << 16

#: The fence pair of a level without fences: every pair overlaps it.
_NO_FENCES = (np.iinfo(np.int64).min, np.iinfo(np.int64).max)

Rows = Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]


def query_ranges(
    config: LSMConfig,
    groups: Sequence[tuple],
    k1: np.ndarray,
    k2: np.ndarray,
    segment_of: np.ndarray,
    op: str,
    with_values: bool,
) -> Rows:
    """Run COUNT (``op="count"``) or RANGE (``op="range"``) over the pairs
    ``[k1[i], k2[i]]``.

    ``groups`` holds ``(store, start, stop)``: the store answers pairs
    ``[start, stop)``.  The slices tile the pair arrays and ``k1`` ascends
    within each — the host probes every level in key order, an execution
    detail no counter sees.  ``segment_of[i]`` is the output segment of
    pair ``i`` (a permutation).  Returns ``(offsets, words, values)`` in
    segment order: segment ``t``'s valid rows are ``words[offsets[t]:
    offsets[t + 1]]``, encoded and key-sorted; COUNT returns offsets only.
    """
    num_pairs = k1.size
    key_bytes = config.key_dtype.itemsize
    row_bytes = key_bytes + (config.value_dtype.itemsize if with_values else 0)
    group_levels = [lsm._read_levels() for lsm, _, _ in groups]
    depth = max([1] + [len(levels) for levels in group_levels])
    with ExitStack() as regions:
        for lsm, start, stop in groups:
            regions.enter_context(
                lsm.device.timed_region(f"lsm.{op}", items=stop - start)
            )

        bounds = search_levels(config, groups, group_levels, depth, k1, k2)
        lows = bounds[0]
        counts = bounds[1] - lows
        per_pair = counts.sum(axis=0)

        # Stages 2-6, a block of consecutive segments at a time.
        edges = np.array([start for _, start, _ in groups] + [num_pairs])
        offsets = np.zeros(num_pairs + 1, dtype=np.int64)
        rows: List[Rows] = []
        for first, last in _blocks(per_pair, segment_of):
            if last - first == num_pairs:
                cols, block_edges, block_segments = slice(None), edges, segment_of
            else:
                cols = np.flatnonzero((segment_of >= first) & (segment_of < last))
                block_edges = cols.searchsorted(edges)
                block_segments = segment_of[cols] - first
            rows.append(_post_process(
                config, group_levels, block_edges, lows[:, cols], counts[:, cols],
                block_segments, op == "range", with_values,
            ))
            offsets[first + 1 : last + 1] = rows[-1][0][1:] + offsets[first]

        # Every store's device is charged for its own share of those stages.
        valid_per_pair = (offsets[1:] - offsets[:-1])[segment_of]
        for (lsm, start, stop), levels, candidates, valid in zip(
            groups, group_levels,
            np.add.reduceat(per_pair, edges[:-1]).tolist(),
            np.add.reduceat(valid_per_pair, edges[:-1]).tolist(),
        ):
            _record_post_process(
                lsm.device, op, stop - start, len(levels), key_bytes, row_bytes,
                candidates, valid,
            )

    if len(rows) == 1 or op == "count":
        return (offsets,) + rows[0][1:]
    return (
        offsets,
        np.concatenate([words for _, words, _ in rows]),
        np.concatenate([values for _, _, values in rows]) if with_values else None,
    )


def search_levels(
    config: LSMConfig,
    groups: Sequence[tuple],
    group_levels: Sequence[Sequence[Level]],
    depth: int,
    k1: np.ndarray,
    k2: np.ndarray,
) -> np.ndarray:
    """Stage 1: the lower / upper position of every pair in every level of
    its store, as ``bounds[0 | 1, level, pair]``, each store's searches
    recorded on its device.

    A level whose fence range does not overlap a pair's ``[k1, k2]`` cannot
    contribute candidates, so only the overlapping pairs are searched; a
    pruned pair — like a pair of a store with fewer levels — keeps an empty
    chunk (lower == upper == 0).  A store tests its fences once, as one
    ``level × pair`` matrix built only when some pair misses some level
    (:func:`_fence_matrix`); a level that prunes nothing searches the
    store's slice of the pairs as it is, and only a level that prunes some
    pair gathers the survivors.
    """
    key_bytes = config.key_dtype.itemsize
    lower_probes = config.encoder.lower_probe(k1)
    upper_probes = config.encoder.upper_probe(k2)
    bounds = np.zeros((2, depth, k1.size), dtype=np.int64)
    for (lsm, start, stop), levels in zip(groups, group_levels):
        if not levels:
            continue
        device, pairs, whole = lsm.device, stop - start, slice(start, stop)
        fenced, overlap, searched = _fence_matrix(levels, k1[whole], k2[whole])
        stats = lsm._filter_stats
        stats.range_pairs += pairs * len(levels)
        stats.range_fence_pruned += pairs * len(levels) - sum(searched)
        for j, level in enumerate(levels):
            if fenced[j]:
                # Fence-overlap test fused into the bound-search prologue
                # (two register compares per query; no separate launch).
                device.record_kernel(
                    "lsm.query.fence",
                    coalesced_read_bytes=pairs * (k1.itemsize + k2.itemsize),
                    coalesced_write_bytes=pairs,
                    work_items=pairs,
                    launches=0,
                )
                if searched[j] == 0:
                    continue
            idx = whole
            if searched[j] < pairs:
                idx = overlap[j].nonzero()[0]
                idx += start
            level_keys = level.keys
            bounds[0, j, idx] = level_keys.searchsorted(lower_probes[idx], "left")
            bounds[1, j, idx] = level_keys.searchsorted(upper_probes[idx], "right")
            for name in ("lsm.query.lower_bound", "lsm.query.upper_bound"):
                record_search(device, name, searched[j], key_bytes, level_keys.size)
    return bounds


def _fence_matrix(
    levels: Sequence[Level], lo: np.ndarray, hi: np.ndarray
) -> Tuple[List[bool], Optional[np.ndarray], List[int]]:
    """One store's fence test over all its levels at once: ``(fenced,
    overlap, searched)`` — per level whether it carries fences, the
    ``level × pair`` overlap of ``[lo, hi]`` with its ``[min_key, max_key]``
    and how many pairs survive it.  A level without fences overlaps every
    pair.  ``overlap`` is ``None`` when no pair misses any level: the
    pairs' highest ``lo`` and lowest ``hi`` against every level's fences
    decide that without building the matrix."""
    fenced = [
        level.filters is not None and level.filters.has_fences for level in levels
    ]
    everything = [lo.size] * len(levels)
    if not lo.size or not any(fenced):
        return fenced, None, everything
    fences = [
        (level.filters.min_key, level.filters.max_key) if f else _NO_FENCES
        for level, f in zip(levels, fenced)
    ]
    highest_lo, lowest_hi = int(lo.max()), int(hi.min())
    if all(lowest_hi >= low and highest_lo <= high for low, high in fences):
        return fenced, None, everything
    bounds = np.array(fences, dtype=np.int64)
    overlap = hi.astype(np.int64) >= bounds[:, :1]
    overlap &= lo.astype(np.int64) <= bounds[:, 1:]
    return fenced, overlap, overlap.sum(axis=1).tolist()


def _blocks(per_pair: np.ndarray, segment_of: np.ndarray) -> List[Tuple[int, int]]:
    """Consecutive segment ranges of at most ``SEGMENT_BLOCK_CANDIDATES``
    candidates each (a single larger segment is its own block), given the
    candidates of every pair and the segment each pair is."""
    n = per_pair.size
    if n == 0 or per_pair.sum() <= SEGMENT_BLOCK_CANDIDATES:
        return [(0, n)]
    per_segment = np.empty(n, dtype=np.int64)
    per_segment[segment_of] = per_pair
    ends = per_segment.cumsum()
    blocks, first = [], 0
    while first < n:
        budget = (ends[first - 1] if first else 0) + SEGMENT_BLOCK_CANDIDATES
        last = max(first + 1, int(ends.searchsorted(budget, side="right")))
        blocks.append((first, last))
        first = last
    return blocks


def _post_process(
    config: LSMConfig,
    group_levels: Sequence[Sequence[Level]],
    edges: np.ndarray,
    lows: np.ndarray,
    counts: np.ndarray,
    segment_of: np.ndarray,
    compact: bool,
    with_values: bool,
) -> Rows:
    """Stages 2–6 over the pairs of one block: ``lows`` / ``counts`` hold
    one row per level and one column per pair, group ``g`` owning columns
    ``[edges[g], edges[g + 1])``."""
    encoder = config.encoder
    depth, n = counts.shape

    # Stage 2: the scan of the count estimates gives every pair its slice of
    # the candidate buffer.
    pair_offsets = np.zeros(n + 1, dtype=np.int64)
    counts.sum(axis=0).cumsum(out=pair_offsets[1:])
    total = int(pair_offsets[-1])

    # Stage 3: the ragged gather, one level of one store at a time as the
    # device kernel indexes through its per-level base pointers.  The chunks
    # are laid end to end level-major, most recent level first: candidate
    # ``i`` is read from its level at ``src[i]`` — its chunk's lower bound
    # plus its rank in the chunk.
    counts = counts.reshape(-1)
    chunk_ends = counts.cumsum()
    src = (lows.reshape(-1) - (chunk_ends - counts)).repeat(counts)
    src += np.arange(total)
    words = np.empty(total, dtype=config.key_dtype)
    values = np.zeros(total, dtype=config.value_dtype) if with_values else None
    # Where each (level, group) source's candidates end in that layout.
    source_ends = np.concatenate(([0], chunk_ends))[
        np.arange(depth)[:, None] * n + edges[1:]
    ]
    lo = 0
    for k, hi in enumerate(source_ends.reshape(-1).tolist()):
        if hi == lo:
            continue
        level = group_levels[k % len(group_levels)][k // len(group_levels)]
        words[lo:hi] = level.keys[src[lo:hi]]
        if values is not None and level.values is not None:
            values[lo:hi] = level.values[src[lo:hi]]
        lo = hi
    del src

    # Stage 4: bring every pair's candidates together, sorted by original
    # key.  Pairs ascend within a level and keys within a chunk, so each
    # level arrives as one sorted run and the stable sort merges ``depth``
    # runs; a key's copies arrive most recent level first and stay so.
    pair = np.arange(depth * n, dtype=np.uint64)
    pair %= np.uint64(n)
    order = segmented_order(words, pair.repeat(counts), key=encoder.strip_status)
    words = words[order]

    # Stage 5: a candidate is *valid* iff it starts its equal-key run (pair
    # boundaries start runs too) and is no tombstone.
    valid = np.ones(total + 1, dtype=bool)  # a spare slot for pairs ending last
    original = encoder.decode_key(words)
    valid[1:total] = original[1:] != original[:-1]
    valid[pair_offsets[1:-1]] = True
    valid = valid[:total]
    valid &= encoder.is_regular(words)

    # Stage 6: valid candidates per pair, handed over in segment order, and
    # for RANGE the rows, each pair's moved to its segment's place.
    kept = np.flatnonzero(valid)
    kept_offsets = kept.searchsorted(pair_offsets)
    kept_per_pair = kept_offsets[1:] - kept_offsets[:-1]
    new_offsets = np.zeros(n + 1, dtype=np.int64)
    per_segment = np.empty(n, dtype=np.int64)
    per_segment[segment_of] = kept_per_pair
    per_segment.cumsum(out=new_offsets[1:])
    if not compact:
        return new_offsets, None, None
    dest = (new_offsets[segment_of] - kept_offsets[:-1]).repeat(kept_per_pair)
    dest += np.arange(dest.size)
    rows = np.empty(dest.size, dtype=words.dtype)
    rows[dest] = words[kept]
    row_values = None
    if with_values:
        row_values = np.empty(dest.size, dtype=values.dtype)
        row_values[dest] = values[order[kept]]
    return new_offsets, rows, row_values


def _record_post_process(
    device,
    op: str,
    pairs: int,
    num_levels: int,
    key_bytes: int,
    row_bytes: int,
    candidates: int,
    valid: int,
) -> None:
    """Stages 2–6 as one store's device would have run them for its own
    ``pairs`` alone, from the sizes: ``candidates`` rows of ``row_bytes``
    gathered out of ``num_levels`` levels, ``valid`` of them kept."""
    if num_levels:
        chunks = pairs * num_levels
        record_exclusive_scan(device, chunks, chunks * 8, "lsm.query.scan")
        device.record_kernel(
            "lsm.query.gather",
            coalesced_read_bytes=candidates * row_bytes,
            coalesced_write_bytes=candidates * row_bytes,
            work_items=candidates,
        )
    record_segmented_sort(
        device, candidates * row_bytes, candidates, f"lsm.{op}.segmented_sort"
    )
    if candidates:
        device.record_kernel(
            "lsm.query.validate",
            coalesced_read_bytes=candidates * key_bytes,
            coalesced_write_bytes=candidates,  # one flag byte per candidate
            work_items=candidates,
        )
    if op == "count":
        # Warp ballots + popc over each segment's validity flags.
        device.record_kernel(
            "lsm.query.count_valid",
            coalesced_read_bytes=candidates,
            coalesced_write_bytes=pairs * 8,
            work_items=candidates,
        )
    else:
        record_segmented_compact(
            device, candidates, key_bytes, valid,
            row_bytes - key_bytes or None, pairs, "lsm.range.compact",
        )
