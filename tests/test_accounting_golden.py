"""Golden accounting: execution may change, the recorded kernels may not.

The kinds of pin:

* the radix sort against the *literal-pass* LSD sort it replaced, kept
  here as the reference: identical outputs, identical ordered records
  (every field of every ``record_kernel`` call, noted by the
  ``recording_device`` fixture) and a bit-identical simulated clock;
* merge, segmented sort, multisplit and segmented compaction against the
  keys / pairs twins each was written as before they shared one body,
  kept here as references, under the same three checks;
* the ordering rules against what they replaced, kept here as references:
  the chain merge (the whole cascade as one run-merging sort) against the
  sequential two-rank merges, parametrised and as a Hypothesis property;
  the index-packed radix order and the packed segmented sort at both key
  widths, with keys on both sides of the 32 bits the packing needs; the
  sort-once update canonicalisation against its ``np.unique`` passes; and
  a same-process speed ratio of the merge and the segmented sort against
  those references (not a wall-clock floor);
* the Bloom filter against the literal build (both hashes recomputed per
  probe index, bits set through ``np.bitwise_or.at``) and the literal
  early-exiting probe loop it replaced, kept here as the reference:
  byte-identical bit arrays, identical verdicts and identical records;
* ``ShardedLSM``'s one key-ordered pass per operation against the per-shard
  loops it replaced (clip or multisplit, then every shard's public entry
  point), kept here as references: a Hypothesis property over uneven and
  empty shard ranges, straddling and out-of-domain queries, chunked and
  all-deletion pushes — answers, level contents, every device's
  aggregates, clock and profiler sums, pruning and traffic statistics;
* whole runs — ticks of the default update-heavy mix on ``GPULSM(4096)``
  (key-value and key-only) and ``ShardedLSM(4, 4096)``, a partial
  compaction plus a cleanup after them, an insert / delete sequence on
  the sorted-array baseline, and ticks, a rollback, a compaction and a
  cleanup on a fence + Bloom filtered ``GPULSM(1024)`` and
  ``ShardedLSM(4, 1024)``: the per-kernel aggregates of every device and
  the simulated clocks (the filtered runs also their pruning statistics
  and a digest of every level's Bloom words), as literals captured on the
  commit before the code under them was rewritten
  (``python tests/test_accounting_golden.py`` prints them).
"""

import dataclasses
import hashlib
import pprint
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.ops import OpBatch, OpCode
from repro.api.planner import Consistency, _canonical_updates, execute
from repro.baselines.sorted_array import GPUSortedArray
from repro.bench.wallclock import make_prefill
from repro.bench.workloads import MixedOpConfig, make_mixed_batches
from repro.core import ranges
from repro.core.config import LSMConfig
from repro.core.filters import FILTER_PROBE_WORD_BYTES, BloomFilter, derive_num_hashes
from repro.core.lsm import GPULSM
from repro.core.run import SortedRun
from repro.gpu.device import Device
from repro.gpu.spec import K40C_SPEC
from repro.primitives.compact import segmented_compact
from repro.primitives.histogram import block_histograms
from repro.primitives.merge import merge_keys, merge_pairs, merge_runs
from repro.primitives.multisplit import multisplit_keys, multisplit_pairs
from repro.primitives.radix_sort import (
    RadixSortConfig,
    radix_sort_keys,
    radix_sort_pairs,
)
from repro.primitives.scan import exclusive_scan
from repro.primitives.segmented_sort import segmented_sort_keys, segmented_sort_pairs
from repro.scale import ShardedLSM
from repro.serve.engine import Engine


def assert_same_columns(got, want):
    """The same arrays (``None`` where a column is absent), dtypes included."""
    assert len(got) == len(want)
    for got_column, want_column in zip(got, want):
        if want_column is None:
            assert got_column is None
        else:
            assert np.array_equal(got_column, want_column)
            assert got_column.dtype == want_column.dtype


def assert_same_run(recording_device, reference, current):
    """``reference(device)`` and ``current(device)`` return the same columns,
    make the same ``record_kernel`` calls in the same order and leave the
    same clock."""
    ref_device, device = recording_device(), recording_device()
    want, got = reference(ref_device), current(device)
    assert_same_columns(got, want)
    assert device.launches == ref_device.launches
    assert device.simulated_seconds.hex() == ref_device.simulated_seconds.hex()


# ---------------------------------------------------------------------- #
# Radix sort vs the literal-pass reference
# ---------------------------------------------------------------------- #
def reference_sort_passes(keys, values, config, device):
    """The LSD radix sort executed pass by pass: per digit, a per-block
    histogram, a scan of the histograms and a stable scatter — the three
    kernels CUB launches, each doing its work and recording its traffic."""
    key_bits = keys.dtype.itemsize * 8
    end_bit = key_bits if config.end_bit is None else min(config.end_bit, key_bits)
    begin_bit = min(config.begin_bit, end_bit)
    num_passes = max(0, -(-(end_bit - begin_bit) // config.digit_bits))

    out_keys = keys.copy()
    out_values = values.copy() if values is not None else None
    payload_bytes = keys.nbytes + (values.nbytes if values is not None else 0)
    if keys.size == 0:
        return out_keys, out_values

    for p in range(num_passes):
        shift = begin_bit + p * config.digit_bits
        width = min(config.digit_bits, end_bit - shift)
        mask = out_keys.dtype.type((1 << width) - 1)
        digits = (out_keys >> out_keys.dtype.type(shift)) & mask
        hist = block_histograms(digits.astype(out_keys.dtype), width, 0, device=device)
        exclusive_scan(hist.reshape(-1), device=device, kernel_name="radix_sort.scan")
        order = np.argsort(digits, kind="stable")
        out_keys = out_keys[order]
        if out_values is not None:
            out_values = out_values[order]
        device.record_kernel(
            "radix_sort.scatter",
            coalesced_read_bytes=payload_bytes,
            random_write_bytes=payload_bytes,
            work_items=keys.size,
        )
    return out_keys, out_values


BIT_RANGES = [(0, None), (1, None), (0, 31), (5, 22), (8, 16), (3, 4), (32, None)]


def assert_sorts_like_the_literal_passes(recording_device, keys, values, config):
    def current(device):
        if values is None:
            return radix_sort_keys(keys, config=config, device=device), None
        return radix_sort_pairs(keys, values, config=config, device=device)

    assert_same_run(
        recording_device,
        lambda device: reference_sort_passes(keys, values, config, device),
        current,
    )


@pytest.mark.parametrize("n", [0, 1, 255, 4096, 4097])
@pytest.mark.parametrize("begin_bit,end_bit", BIT_RANGES)
@pytest.mark.parametrize("digit_bits", [4, 8, 11])
@pytest.mark.parametrize("pairs", [False, True], ids=["keys", "pairs"])
def test_radix_sort_matches_literal_passes(
    recording_device, pairs, digit_bits, begin_bit, end_bit, n
):
    rng = np.random.default_rng(n * 31 + digit_bits)
    keys = rng.integers(0, 1 << 32, n, dtype=np.uint64).astype(np.uint32)
    # Duplicates under most bit ranges, so stability is observable.
    keys[: n // 2] &= np.uint32(0xFFFF00FF)
    values = np.arange(n, dtype=np.uint32) if pairs else None
    assert_sorts_like_the_literal_passes(
        recording_device,
        keys,
        values,
        RadixSortConfig(digit_bits=digit_bits, begin_bit=begin_bit, end_bit=end_bit),
    )


def test_radix_sort_64_bit_keys_match_literal_passes(recording_device):
    rng = np.random.default_rng(5)
    assert_sorts_like_the_literal_passes(
        recording_device,
        rng.integers(0, 1 << 63, 1000, dtype=np.uint64),
        np.arange(1000, dtype=np.uint32),
        RadixSortConfig(digit_bits=11, begin_bit=7),
    )


# ---------------------------------------------------------------------- #
# Merge, segmented sort, multisplit and segmented compaction vs the
# keys / pairs twins they were merged from
# ---------------------------------------------------------------------- #
def _reference_merge_ranks(a_cmp, b_cmp):
    a_pos = np.arange(a_cmp.size, dtype=np.int64) + np.searchsorted(
        b_cmp, a_cmp, side="left"
    )
    b_pos = np.arange(b_cmp.size, dtype=np.int64) + np.searchsorted(
        a_cmp, b_cmp, side="right"
    )
    return a_pos, b_pos


def reference_merge_keys(a_keys, b_keys, key, device, kernel_name):
    a_cmp = a_keys if key is None else key(a_keys)
    b_cmp = b_keys if key is None else key(b_keys)
    a_pos, b_pos = _reference_merge_ranks(a_cmp, b_cmp)

    out = np.empty(a_keys.size + b_keys.size, dtype=a_keys.dtype)
    out[a_pos] = a_keys
    out[b_pos] = b_keys

    moved = int((a_keys.nbytes + b_keys.nbytes) / 0.40)
    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=moved,
        coalesced_write_bytes=moved,
        work_items=out.size,
        launches=2,  # partition kernel + merge kernel
    )
    return out


def reference_merge_pairs(a_keys, a_values, b_keys, b_values, key, device, kernel_name):
    a_cmp = a_keys if key is None else key(a_keys)
    b_cmp = b_keys if key is None else key(b_keys)
    a_pos, b_pos = _reference_merge_ranks(a_cmp, b_cmp)

    out_keys = np.empty(a_keys.size + b_keys.size, dtype=a_keys.dtype)
    out_values = np.empty(a_keys.size + b_keys.size, dtype=a_values.dtype)
    out_keys[a_pos] = a_keys
    out_keys[b_pos] = b_keys
    out_values[a_pos] = a_values
    out_values[b_pos] = b_values

    moved = int(
        (a_keys.nbytes + b_keys.nbytes + a_values.nbytes + b_values.nbytes) / 0.40
    )
    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=moved,
        coalesced_write_bytes=moved,
        work_items=out_keys.size,
        launches=2,
    )
    return out_keys, out_values


def _reference_segment_ids(offsets, total):
    offsets = np.asarray(offsets, dtype=np.int64)
    ids = np.zeros(total, dtype=np.int64)
    if total:
        starts = offsets[(offsets > 0) & (offsets < total)]
        np.add.at(ids, starts, 1)
        ids = np.cumsum(ids)
    return ids


def reference_segmented_sort_keys(keys, segment_offsets, key, device, kernel_name):
    seg_ids = _reference_segment_ids(segment_offsets, keys.size)
    cmp = keys if key is None else key(keys)
    order = np.lexsort((cmp, seg_ids)) if keys.size else np.empty(0, dtype=np.int64)
    result = keys[order]

    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=2 * keys.nbytes,
        coalesced_write_bytes=keys.nbytes,
        work_items=keys.size,
        launches=4,  # real segsort does multiple merge passes
    )
    return result


def reference_segmented_sort_pairs(
    keys, values, segment_offsets, key, device, kernel_name
):
    seg_ids = _reference_segment_ids(segment_offsets, keys.size)
    cmp = keys if key is None else key(keys)
    order = np.lexsort((cmp, seg_ids)) if keys.size else np.empty(0, dtype=np.int64)
    sorted_keys = keys[order]
    sorted_values = values[order]

    payload = keys.nbytes + values.nbytes
    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=2 * payload,
        coalesced_write_bytes=payload,
        work_items=keys.size,
        launches=4,
    )
    return sorted_keys, sorted_values


def _reference_record_multisplit_traffic(device, payload_bytes, n, num_buckets, kernel_name):
    num_warps = max(1, -(-n // 32))
    hist_bytes = num_warps * num_buckets * 4
    device.record_kernel(
        f"{kernel_name}.histogram",
        coalesced_read_bytes=payload_bytes,
        coalesced_write_bytes=hist_bytes,
        work_items=n,
    )
    device.record_kernel(
        f"{kernel_name}.scatter",
        coalesced_read_bytes=payload_bytes + hist_bytes,
        coalesced_write_bytes=payload_bytes,
        work_items=n,
    )


def reference_multisplit_keys(keys, bucket_of, num_buckets, device, kernel_name):
    ids = np.asarray(bucket_of(keys)).astype(np.int64)
    if ids.size and not np.any(ids != ids[0]):
        reordered = keys.copy()
    else:
        order = np.argsort(ids, kind="stable")
        reordered = keys[order]

    counts = np.bincount(ids, minlength=num_buckets).astype(np.int64)
    offsets_body, total = exclusive_scan(
        counts, device=device, kernel_name=f"{kernel_name}.scan"
    )
    offsets = np.concatenate([offsets_body, [total]])

    _reference_record_multisplit_traffic(
        device, keys.nbytes, keys.size, num_buckets, kernel_name
    )
    return reordered, offsets


def reference_multisplit_pairs(keys, values, bucket_of, num_buckets, device, kernel_name):
    ids = np.asarray(bucket_of(keys)).astype(np.int64)
    if ids.size and not np.any(ids != ids[0]):
        reordered_keys = keys.copy()
        reordered_values = values.copy()
    else:
        order = np.argsort(ids, kind="stable")
        reordered_keys = keys[order]
        reordered_values = values[order]

    counts = np.bincount(ids, minlength=num_buckets).astype(np.int64)
    offsets_body, total = exclusive_scan(
        counts, device=device, kernel_name=f"{kernel_name}.scan"
    )
    offsets = np.concatenate([offsets_body, [total]])

    _reference_record_multisplit_traffic(
        device, keys.nbytes + values.nbytes, keys.size, num_buckets, kernel_name
    )
    return reordered_keys, reordered_values, offsets


def reference_segmented_compact(keys, values, mask, segment_offsets, device, kernel_name):
    """The flagged compaction of the key column, the per-segment offsets,
    then the value column through the same mask as one more gather."""
    segment_offsets = np.asarray(segment_offsets, dtype=np.int64)
    offsets, total = exclusive_scan(
        mask.astype(np.int64), device=device, kernel_name="compact.scan_flags"
    )
    out_keys = np.empty(total, dtype=keys.dtype)
    if total:
        out_keys[offsets[mask]] = keys[mask]
    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=keys.nbytes + mask.size,  # flags are 1 byte each
        coalesced_write_bytes=out_keys.nbytes,
        work_items=keys.size,
    )

    if keys.size:
        prefix = np.concatenate(([0], np.cumsum(mask.astype(np.int64))))
    else:
        prefix = np.zeros(1, dtype=np.int64)
    bounded = np.minimum(segment_offsets, keys.size)
    new_offsets = np.empty(segment_offsets.size + 1, dtype=np.int64)
    new_offsets[:-1] = prefix[bounded]
    new_offsets[-1] = prefix[-1]
    device.record_kernel(
        "compact.segment_offsets",
        coalesced_read_bytes=segment_offsets.nbytes,
        coalesced_write_bytes=new_offsets.nbytes,
        work_items=segment_offsets.size,
    )

    if values is None:
        return out_keys, None, new_offsets
    out_values = values[mask]
    device.record_kernel(
        f"{kernel_name}.values",
        coalesced_read_bytes=values.nbytes + mask.size,
        coalesced_write_bytes=out_values.nbytes,
        work_items=int(values.size),
    )
    return out_keys, out_values, new_offsets


def strip_status(words):
    """The encoder's comparison key: the word without its status bit."""
    return words >> words.dtype.type(1)


SIZES = [0, 1, 255, 4096, 4097]
columns_cases = pytest.mark.parametrize(
    "pairs,dtype",
    [
        pytest.param(pairs, dtype, id=f"{'pairs' if pairs else 'keys'}-{dtype.__name__}")
        for pairs in (False, True)
        for dtype in (np.uint32, np.uint64)
    ],
)
key_cases = pytest.mark.parametrize(
    "key", [None, strip_status], ids=["raw", "strip_status"]
)


def duplicated_words(rng, n, dtype):
    """``n`` words drawn from ``n / 2`` values: duplicates as whole words,
    and more of them once the status bit is stripped."""
    return rng.integers(0, max(4, n // 2), n).astype(dtype)


def segment_starts(rng, n):
    """Start offsets of ~``n / 16`` segments, empty ones among them."""
    return np.concatenate(
        ([0], np.sort(rng.integers(0, n + 1, n // 16 + 2)))
    ).astype(np.int64)


@pytest.mark.parametrize("n", SIZES)
@key_cases
@columns_cases
def test_merge_matches_the_keys_and_pairs_twins(recording_device, pairs, dtype, key, n):
    rng = np.random.default_rng(n + 1)
    sides = []
    for size in (n, n // 3 + 2):
        words = duplicated_words(rng, size, dtype)
        words = words[np.argsort(words if key is None else key(words), kind="stable")]
        sides.append((words, np.arange(size, dtype=np.uint32) if pairs else None))
    (a_keys, a_values), (b_keys, b_values) = sides
    if pairs:
        assert_same_run(
            recording_device,
            lambda d: reference_merge_pairs(a_keys, a_values, b_keys, b_values, key, d, "m"),
            lambda d: merge_pairs(
                a_keys, a_values, b_keys, b_values, key=key, device=d, kernel_name="m"
            ),
        )
    else:
        assert_same_run(
            recording_device,
            lambda d: (reference_merge_keys(a_keys, b_keys, key, d, "m"),),
            lambda d: (merge_keys(a_keys, b_keys, key=key, device=d, kernel_name="m"),),
        )


@pytest.mark.parametrize("n", SIZES)
@key_cases
@columns_cases
def test_segmented_sort_matches_the_keys_and_pairs_twins(
    recording_device, pairs, dtype, key, n
):
    rng = np.random.default_rng(n + 2)
    keys = duplicated_words(rng, n, dtype)
    values = np.arange(n, dtype=np.uint32)
    offsets = segment_starts(rng, n)
    if pairs:
        assert_same_run(
            recording_device,
            lambda d: reference_segmented_sort_pairs(keys, values, offsets, key, d, "s"),
            lambda d: segmented_sort_pairs(
                keys, values, offsets, key=key, device=d, kernel_name="s"
            ),
        )
    else:
        assert_same_run(
            recording_device,
            lambda d: (reference_segmented_sort_keys(keys, offsets, key, d, "s"),),
            lambda d: (
                segmented_sort_keys(keys, offsets, key=key, device=d, kernel_name="s"),
            ),
        )


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("num_buckets", [1, 2, 4])
@columns_cases
def test_multisplit_matches_the_keys_and_pairs_twins(
    recording_device, pairs, dtype, num_buckets, n
):
    rng = np.random.default_rng(n + 3)
    keys = duplicated_words(rng, n, dtype)
    values = np.arange(n, dtype=np.uint32)

    def bucket_of(words):  # 2 buckets: the status bit, cleanup's split
        return (words % words.dtype.type(num_buckets)).astype(np.int64)

    if pairs:
        assert_same_run(
            recording_device,
            lambda d: reference_multisplit_pairs(keys, values, bucket_of, num_buckets, d, "p"),
            lambda d: multisplit_pairs(
                keys, values, bucket_of, num_buckets=num_buckets, device=d, kernel_name="p"
            ),
        )
    else:
        assert_same_run(
            recording_device,
            lambda d: reference_multisplit_keys(keys, bucket_of, num_buckets, d, "p"),
            lambda d: multisplit_keys(
                keys, bucket_of, num_buckets=num_buckets, device=d, kernel_name="p"
            ),
        )


@pytest.mark.parametrize("n", SIZES)
@columns_cases
def test_segmented_compact_matches_the_keys_then_values_passes(
    recording_device, pairs, dtype, n
):
    rng = np.random.default_rng(n + 4)
    keys = duplicated_words(rng, n, dtype)
    values = np.arange(n, dtype=np.uint32) if pairs else None
    mask = rng.random(n) < 0.6
    offsets = segment_starts(rng, n)
    assert_same_run(
        recording_device,
        lambda d: reference_segmented_compact(keys, values, mask, offsets, d, "c"),
        lambda d: segmented_compact(keys, values, mask, offsets, device=d, kernel_name="c"),
    )


# ---------------------------------------------------------------------- #
# The ordering rules vs what they replaced: the cascade as one run-merging
# sort vs the sequential two-rank merges, the index-packed sort vs the
# literal passes at both key widths, the packed segmented sort vs lexsort
# where the packing decision is made from the values, and the sort-once
# update canonicalisation vs the ``np.unique`` passes
# ---------------------------------------------------------------------- #
def reference_cascade(runs, key, device, kernel_name):
    """The cascade as it ran before it was one sort: the buffer merged into
    each older run in turn (``runs`` newest first), every link a two-rank
    merge that records itself."""
    keys, values = runs[0]
    for older_keys, older_values in runs[1:]:
        if values is None:
            keys = reference_merge_keys(keys, older_keys, key, device, kernel_name)
        else:
            keys, values = reference_merge_pairs(
                keys, values, older_keys, older_values, key, device, kernel_name
            )
    return keys, values


def chain_of_runs(rng, sizes, dtype, pairs, key_domain):
    """One run per size, newest first: encoded words (key, status bit) over
    a small key domain — the same keys recur across runs and within one,
    tombstones among them — each sorted under ``strip_status`` only."""
    runs = []
    for i, size in enumerate(sizes):
        words = (
            rng.integers(0, key_domain, size) * 2 + rng.integers(0, 2, size)
        ).astype(dtype)
        words = words[np.argsort(strip_status(words), kind="stable")]
        runs.append((words, np.arange(size, dtype=np.uint32) + 1000 * i if pairs else None))
    return runs


def assert_chain_merges_like_the_cascade(recording_device, runs, key):
    def current(device):
        return merge_runs(
            [keys for keys, _ in runs],
            None if runs[0][1] is None else [values for _, values in runs],
            key=key, device=device, kernel_name="c",
        )

    def through_sorted_run(device):
        newest, *older = (SortedRun(keys, values) for keys, values in runs)
        merged = newest.merge(*older, key=key, device=device, kernel_name="c")
        return merged.keys, merged.values

    for chain in (current, through_sorted_run):
        assert_same_run(
            recording_device, lambda d: reference_cascade(runs, key, d, "c"), chain
        )


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 5, 7])
@key_cases
@columns_cases
def test_chain_merge_matches_the_sequential_cascade(
    recording_device, pairs, dtype, key, depth
):
    """A carry chain of ``depth`` full levels under the buffer, the sizes
    the cascade meets: b, b, 2b, 4b, …"""
    rng = np.random.default_rng(depth + 5)
    sizes = [32] + [32 << i for i in range(depth)]
    runs = chain_of_runs(rng, sizes, dtype, pairs, key_domain=200)
    if key is None:  # full-word order: each run sorted under the raw word
        runs = [(np.sort(keys), values) for keys, values in runs]
    assert_chain_merges_like_the_cascade(recording_device, runs, key)


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=7),
    key_domain=st.integers(min_value=1, max_value=50),
    wide=st.booleans(),
    pairs=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_any_chain_equals_the_sequential_merges(
    recording_device, sizes, key_domain, wide, pairs, seed
):
    """1–7 runs of any sizes, duplicates across and within runs, tombstones:
    bit for bit the sequential merges, records included."""
    runs = chain_of_runs(
        np.random.default_rng(seed), sizes, np.uint64 if wide else np.uint32,
        pairs, key_domain,
    )
    assert_chain_merges_like_the_cascade(recording_device, runs, strip_status)


@pytest.mark.parametrize("n", [0, 1, 255, 4096])
@pytest.mark.parametrize("top_bit", [16, 31, 32, 33, 63])
@columns_cases
def test_radix_sort_matches_literal_passes_at_both_widths(
    recording_device, pairs, dtype, top_bit, n
):
    """Unordered keys below and above the width the index packing needs
    (``top_bit`` is the highest bit a key may have set): packed or stable
    ``argsort``, the order is that of the stable digit passes."""
    rng = np.random.default_rng(n + top_bit)
    bits = min(top_bit + 1, np.dtype(dtype).itemsize * 8)
    keys = rng.integers(0, 1 << min(bits, 63), n, dtype=np.uint64).astype(dtype)
    if n:
        keys[0] = np.dtype(dtype).type((1 << bits) - 1)
    keys[: n // 2] >>= np.dtype(dtype).type(bits // 2)  # duplicates among the low words
    for config in (RadixSortConfig(), RadixSortConfig(digit_bits=11, begin_bit=1)):
        assert_sorts_like_the_literal_passes(
            recording_device, keys, np.arange(n, dtype=np.uint32) if pairs else None, config
        )


@pytest.mark.parametrize("top_bit", [31, 32, 33, 63])
@pytest.mark.parametrize("pairs", [False, True], ids=["keys", "pairs"])
def test_segmented_sort_of_wide_words_matches_lexsort(recording_device, pairs, top_bit):
    """64-bit words whose comparison keys do and do not fit the 32 bits
    beside the segment id: packed or ``lexsort``, the same order."""
    rng = np.random.default_rng(top_bit)
    n = 4096
    keys = rng.integers(0, 1 << 12, n, dtype=np.uint64) << np.uint64(top_bit - 11)
    values = np.arange(n, dtype=np.uint32)
    offsets = segment_starts(rng, n)
    for key in (None, strip_status):
        if pairs:
            assert_same_run(
                recording_device,
                lambda d: reference_segmented_sort_pairs(keys, values, offsets, key, d, "s"),
                lambda d: segmented_sort_pairs(
                    keys, values, offsets, key=key, device=d, kernel_name="s"
                ),
            )
        else:
            assert_same_run(
                recording_device,
                lambda d: (reference_segmented_sort_keys(keys, offsets, key, d, "s"),),
                lambda d: (
                    segmented_sort_keys(keys, offsets, key=key, device=d, kernel_name="s"),
                ),
            )


def reference_canonical_updates(batch, indices, arrival_order):
    """The update canonicalisation as it ran before it sorted once: the
    last occurrence per key through ``np.unique`` of the reversed column,
    or the deleted keys and the first insertion per key through two
    ``np.unique`` and an ``np.isin``."""
    codes = batch.opcodes[indices]
    keys = batch.keys[indices]
    values = batch.values[indices]
    is_delete = codes == OpCode.DELETE

    if arrival_order:
        _, first_in_reversed = np.unique(keys[::-1], return_index=True)
        survivors = np.sort(keys.size - 1 - first_in_reversed)
        return is_delete[survivors], keys[survivors], values[survivors]

    deleted = np.unique(keys[is_delete])
    ins_pos = np.flatnonzero(~is_delete)
    _, first_idx = np.unique(keys[ins_pos], return_index=True)
    ins_pos = ins_pos[np.sort(first_idx)]
    ins_pos = ins_pos[~np.isin(keys[ins_pos], deleted)]
    out_is_delete = np.concatenate(
        (np.ones(deleted.size, dtype=bool), np.zeros(ins_pos.size, dtype=bool))
    )
    out_keys = np.concatenate((deleted, keys[ins_pos]))
    out_values = np.concatenate(
        (np.zeros(deleted.size, dtype=values.dtype), values[ins_pos])
    )
    return out_is_delete, out_keys, out_values


def update_segment(rng, n, key_domain, delete_share, big_keys=()):
    """A mixed batch whose update rows (returned as ``indices``) draw keys
    from a small domain — every key several times, deleted and inserted —
    with ``big_keys`` planted among them."""
    opcodes = rng.choice(
        [OpCode.INSERT, OpCode.DELETE, OpCode.LOOKUP],
        size=n, p=[0.8 - delete_share, delete_share, 0.2],
    ).astype(np.uint8)
    keys = rng.integers(0, key_domain, n).astype(np.uint64)
    indices = np.flatnonzero(opcodes != OpCode.LOOKUP)
    for big in big_keys:
        keys[rng.choice(indices, size=min(3, indices.size), replace=False)] = big
    values = rng.integers(1, 1 << 20, n).astype(np.uint64)
    return OpBatch(opcodes, keys, values, np.zeros(n, dtype=np.uint64)), indices


@pytest.mark.parametrize("arrival_order", [False, True], ids=["paper", "arrival"])
@pytest.mark.parametrize(
    "big_keys",
    [(), ((1 << 31) - 1,), (1 << 31, (1 << 32) - 1), (1 << 32, 1 << 40), ((1 << 64) - 1, 1 << 63)],
    ids=["small", "max-key", "over-31-bits", "over-32-bits", "top-bits"],
)
@pytest.mark.parametrize("n,key_domain", [(1, 4), (64, 8), (4096, 600), (4096, 1 << 31)])
@pytest.mark.parametrize("delete_share", [0.0, 0.3, 0.8])
def test_canonical_updates_match_the_unique_passes(
    delete_share, n, key_domain, big_keys, arrival_order
):
    """Both modes, with keys at and beyond every width the one-sort
    canonicalisation packs by: the same survivors in the same order."""
    rng = np.random.default_rng(n + key_domain % 97 + len(big_keys))
    batch, indices = update_segment(rng, n, key_domain, delete_share, big_keys)
    want = reference_canonical_updates(batch, indices, arrival_order)
    got = _canonical_updates(batch, indices, arrival_order)
    for got_column, want_column in zip(got, want):
        assert np.array_equal(got_column, want_column)
        assert got_column.dtype == want_column.dtype


@pytest.mark.parametrize("consistency", list(Consistency))
def test_out_of_domain_update_keys_still_fail_typed(consistency):
    """A key of 2**31 or more reaches the canonicalisation (which must
    order it like any other) and is rejected where it always was: by the
    backend's encoder, as a ``ValueError`` naming the domain."""
    rng = np.random.default_rng(3)
    batch, _ = update_segment(rng, 256, 100, 0.3, big_keys=(1 << 31, 1 << 40))
    lsm = GPULSM(batch_size=256, device=Device(K40C_SPEC, seed=1))
    with pytest.raises(ValueError, match="31-bit original-key domain"):
        execute(batch, lsm, consistency=consistency)


def best_of(repeats, call):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def test_sorts_stay_on_their_fast_paths():
    """A same-process ratio, not a wall-clock floor: the merge and the
    segmented sort against the references above on the benchmark's own
    micro-pass inputs, best of 5 each.  Measured 3.6x and 8.5x; a silent
    fall back to the slow path (a dtype that misses the packed branch, a
    sort that stops merging runs) reads about 1x whatever the box."""
    rng = np.random.default_rng(11)
    device = Device(K40C_SPEC, seed=1)

    def sorted_run(size):
        return np.sort(rng.integers(0, 1 << 31, size, dtype=np.uint64).astype(np.uint32))

    run_a, run_b = sorted_run(1 << 16), sorted_run(1 << 16)
    run_values = np.arange(1 << 16, dtype=np.uint32)
    seg_keys = rng.integers(0, 1 << 31, 4096 * 8, dtype=np.uint64).astype(np.uint32)
    seg_values = np.arange(4096 * 8, dtype=np.uint32)
    seg_offsets = np.arange(0, 4096 * 8 + 1, 8, dtype=np.int64)

    merge_ratio = best_of(
        5, lambda: reference_merge_pairs(run_a, run_values, run_b, run_values, None, device, "m")
    ) / best_of(5, lambda: merge_pairs(run_a, run_values, run_b, run_values, device=device))
    segsort_ratio = best_of(
        5, lambda: reference_segmented_sort_pairs(
            seg_keys, seg_values, seg_offsets, None, device, "s")
    ) / best_of(
        5, lambda: segmented_sort_pairs(seg_keys, seg_values, seg_offsets, device=device)
    )
    assert merge_ratio >= 1.5, f"merge only {merge_ratio:.2f}x the two-rank reference"
    assert segsort_ratio >= 3.0, f"segmented sort only {segsort_ratio:.2f}x the lexsort reference"


# ---------------------------------------------------------------------- #
# Bloom build and probe vs the literal per-hash passes
# ---------------------------------------------------------------------- #
def _reference_splitmix64(x):
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def _reference_positions(bloom, keys, i):
    """Bit positions of hash ``i`` for every key: both hashes recomputed
    for every probe index, as the filter did before it hashed once."""
    k = np.asarray(keys).astype(np.uint64)
    h1 = _reference_splitmix64(k)
    h2 = _reference_splitmix64(k ^ np.uint64(0xBF58476D1CE4E5B9)) | np.uint64(1)
    with np.errstate(over="ignore"):
        pos = h1 + np.uint64(i) * h2
    return (pos % np.uint64(bloom.num_bits)).astype(np.int64)


def reference_bloom_add(bloom, keys):
    """One unbuffered read-modify-write pass over the words per hash."""
    for i in range(bloom.num_hashes):
        pos = _reference_positions(bloom, keys, i)
        np.bitwise_or.at(
            bloom.words, pos >> 6, np.uint64(1) << (pos & 63).astype(np.uint64)
        )


def reference_bloom_probe(bloom, keys, device, kernel_name):
    """The device kernel executed literally: hash by hash over the queries
    still alive, counting the word reads made before each early exit."""
    keys = np.asarray(keys)
    n = keys.size
    maybe = np.ones(n, dtype=bool)
    probes_made = 0
    for i in range(bloom.num_hashes):
        live = np.flatnonzero(maybe)
        if live.size == 0:
            break
        probes_made += live.size
        pos = _reference_positions(bloom, keys[live], i)
        bits = (bloom.words[pos >> 6] >> (pos & 63).astype(np.uint64)) & np.uint64(1)
        maybe[live[bits == 0]] = False
    if n:
        device.record_kernel(
            kernel_name,
            coalesced_read_bytes=keys.nbytes,
            coalesced_write_bytes=n,
            filter_read_bytes=probes_made * FILTER_PROBE_WORD_BYTES,
            work_items=n,
        )
    return maybe


def bloom_probe_set(kind, keys, rng):
    """``keys.size`` queries of one kind against a filter built on ``keys``
    (drawn below ``2**30``; ``2**30`` and up is absent by construction)."""
    n = keys.size
    absent = (rng.integers(0, 1 << 30, n) + (1 << 30)).astype(keys.dtype)
    if kind == "present":
        return keys.copy()
    if kind == "absent":
        return absent
    if kind == "mixed":
        return np.where(np.arange(n) % 2 == 0, keys, absent)
    return np.repeat(keys[:1], n)  # all-equal


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 4096, 4097])
@pytest.mark.parametrize("bits_per_key", [1, 10, 64])  # k = 1, 7, 44
@pytest.mark.parametrize("dtype", [np.uint32, np.uint64, np.int64])
@pytest.mark.parametrize("kind", ["present", "absent", "mixed", "all-equal"])
def test_bloom_matches_the_literal_build_and_probe(
    recording_device, kind, dtype, bits_per_key, n
):
    rng = np.random.default_rng(n * 67 + bits_per_key)
    keys = rng.integers(0, 1 << 30, n).astype(dtype)
    queries = bloom_probe_set(kind, keys, rng)

    def make_bloom():
        return BloomFilter(
            num_bits=max(64, n * bits_per_key),
            num_hashes=derive_num_hashes(bits_per_key),
        )

    def word_bytes(bloom):
        return np.frombuffer(bloom.words.tobytes(), dtype=np.uint8)

    def reference(device):
        bloom = make_bloom()
        reference_bloom_add(bloom, keys)
        return word_bytes(bloom), reference_bloom_probe(bloom, queries, device, "b")

    def current(device):
        bloom = make_bloom()
        bloom.add(keys)
        return word_bytes(bloom), bloom.maybe_contains(
            queries, device=device, kernel_name="b"
        )

    assert_same_run(recording_device, reference, current)


# ---------------------------------------------------------------------- #
# One pass over the shards vs the per-shard loops it replaced
# ---------------------------------------------------------------------- #
def _reference_clip_ranges(sharded, k1, k2):
    """Per shard: (query indices intersecting the shard, clipped k1,
    clipped k2) — one clip pass per shard, plus the router's record."""
    per_shard = []
    for s in range(sharded.num_shards):
        lo, hi = sharded.shard_range(s)
        c1 = np.maximum(k1.astype(np.int64), lo)
        c2 = np.minimum(k2.astype(np.int64), hi)
        idx = np.flatnonzero(c1 <= c2)
        per_shard.append((idx, c1[idx].astype(np.uint64), c2[idx].astype(np.uint64)))
    sharded.router_device.record_kernel(
        "sharded.query.clip",
        coalesced_read_bytes=k1.nbytes + k2.nbytes,
        coalesced_write_bytes=(k1.nbytes + k2.nbytes) * sharded.num_shards,
        work_items=int(k1.size) * sharded.num_shards,
    )
    sharded._note_traffic(np.array([idx.size for idx, _, _ in per_shard], dtype=np.int64))
    return per_shard


def reference_sharded_count(sharded, k1, k2):
    """COUNT as the front-end ran it before it made one pass: every shard's
    public ``count`` on its clipped sub-batch, the counts summed."""
    k1, k2 = sharded.encoder.check_range_args(k1, k2)
    counts = np.zeros(k1.size, dtype=np.int64)
    if k1.size == 0:
        return counts
    for s, (idx, c1, c2) in enumerate(_reference_clip_ranges(sharded, k1, k2)):
        if idx.size:
            counts[idx] += sharded.shards[s].count(c1, c2)
    return counts


def reference_sharded_range_query(sharded, k1, k2):
    """RANGE as it ran before: every shard's public ``range_query``, the
    per-shard results scattered into the flat layout shard by shard."""
    k1, k2 = sharded.encoder.check_range_args(k1, k2)
    nq = k1.size
    value_dtype = sharded.shard_config.value_dtype
    if nq == 0:
        return (np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.uint64),
                None if sharded.key_only else np.zeros(0, value_dtype))
    counts = np.zeros((nq, sharded.num_shards), dtype=np.int64)
    shard_results = {}
    for s, (idx, c1, c2) in enumerate(_reference_clip_ranges(sharded, k1, k2)):
        if idx.size == 0:
            continue
        rr = sharded.shards[s].range_query(c1, c2)
        counts[idx, s] = rr.counts
        shard_results[s] = (idx, rr)

    offsets = np.zeros(nq + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=1), out=offsets[1:])
    total = int(offsets[-1])
    before = np.cumsum(counts, axis=1) - counts  # within-query offsets
    out_keys = np.empty(total, dtype=np.uint64)
    out_values = None if sharded.key_only else np.empty(total, dtype=value_dtype)
    merged_bytes = 0
    for s, (idx, rr) in shard_results.items():
        lengths = counts[idx, s]
        chunk_total = int(lengths.sum())
        if chunk_total == 0:
            continue
        within = np.arange(chunk_total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        dest = np.repeat(offsets[idx] + before[idx, s], lengths) + within
        out_keys[dest] = rr.keys
        if out_values is not None:
            out_values[dest] = rr.values
        merged_bytes += chunk_total * (
            8 + (out_values.dtype.itemsize if out_values is not None else 0)
        )
    sharded.router_device.record_kernel(
        "sharded.range.merge",
        coalesced_read_bytes=merged_bytes,
        coalesced_write_bytes=merged_bytes,
        work_items=total,
        launches=max(1, len(shard_results)),
    )
    return offsets, out_keys, out_values


def reference_sharded_lookup(sharded, query_keys):
    """LOOKUP as it ran before: a real multisplit by shard id with the
    query's position as its value, every shard's public ``lookup``."""
    query_keys = np.asarray(query_keys)
    nq = query_keys.size
    found = np.zeros(nq, dtype=bool)
    values = None if sharded.key_only else np.zeros(nq, sharded.shard_config.value_dtype)
    if nq == 0:
        return found, values
    sharded.encoder.check_query_keys(query_keys)
    with sharded.router_device.timed_region("sharded.lookup_route", items=nq):
        routed, offsets = SortedRun(query_keys, np.arange(nq, dtype=np.int64)).multisplit(
            sharded._shard_ids,
            num_buckets=sharded.num_shards,
            device=sharded.router_device,
            kernel_name="sharded.lookup_route.multisplit",
        )
    sharded._note_traffic_keys(np.diff(offsets), routed.keys)
    for s, shard in enumerate(sharded.shards):
        lo, hi = int(offsets[s]), int(offsets[s + 1])
        if hi == lo:
            continue
        res = shard.lookup(routed.keys[lo:hi])
        found[routed.values[lo:hi]] = res.found
        if values is not None:
            values[routed.values[lo:hi]] = res.values
    return found, values


def reference_sharded_update(sharded, insert_keys=None, insert_values=None, delete_keys=None):
    """UPDATE as it ran before: canonicalise, a real multisplit by shard
    id, then per chunk decode → the shard's public ``update`` (which
    re-encodes, pads and sorts the chunk again)."""
    config, encoder = sharded.shard_config, sharded.encoder
    ins = np.asarray(insert_keys if insert_keys is not None else np.zeros(0, np.uint64))
    dels = np.asarray(delete_keys if delete_keys is not None else np.zeros(0, np.uint64))
    real = int(ins.size + dels.size)
    vals = None
    if not sharded.key_only:
        vals = np.zeros(real, dtype=config.value_dtype)
        vals[: ins.size] = insert_values if ins.size else 0
    words = np.empty(real, dtype=config.key_dtype)
    words[: ins.size] = encoder.encode(ins, 1)
    words[ins.size :] = encoder.encode(dels, 0)

    with sharded.router_device.timed_region("sharded.route", items=real):
        batch = SortedRun(words, vals).sort(device=sharded.router_device)
        batch = batch.compact(
            batch.first_per_key(encoder.strip_status),
            device=sharded.router_device, kernel_name="sharded.route.dedup",
        )
        routed, offsets = batch.multisplit(
            lambda ws: sharded._shard_ids(encoder.decode_key(ws)),
            num_buckets=sharded.num_shards,
            device=sharded.router_device,
            kernel_name="sharded.route.multisplit",
        )
    sharded._note_traffic_keys(np.diff(offsets), encoder.decode_key(routed.keys))
    for s, shard in enumerate(sharded.shards):
        lo, hi = int(offsets[s]), int(offsets[s + 1])
        for start in range(lo, hi, sharded.shard_batch_size):
            chunk = routed.slice(start, min(start + sharded.shard_batch_size, hi))
            regular = encoder.is_regular(chunk.keys)
            chunk_ins = encoder.decode_key(chunk.keys[regular])
            chunk_dels = encoder.decode_key(chunk.keys[~regular])
            chunk_vals = None if chunk.values is None else chunk.values[regular]
            shard.update(
                insert_keys=chunk_ins if chunk_ins.size else None,
                insert_values=chunk_vals if chunk_ins.size else None,
                delete_keys=chunk_dels if chunk_dels.size else None,
            )


def observable(sharded):
    """Everything a sharded store shows of its history: level contents,
    lifetime counters, every device's per-kernel aggregates, clock and
    profiler ``(calls, items, launches, bytes)``, pruning statistics,
    routed-traffic accounting and the split-point histogram."""
    devices = devices_of(sharded) + list(sharded._spare_devices)
    return (
        [[(level.index, level.keys.tobytes(),
           None if level.values is None else level.values.tobytes())
          for level in shard.occupied_levels()] for shard in sharded.shards],
        [(shard.total_insertions, shard.total_deletions, shard._live_keys_upper_bound,
          shard.num_batches, shard.epoch) for shard in sharded.shards],
        accounting(devices),
        [{name: (r.calls, r.items, r.launches, r.coalesced_bytes, r.random_bytes,
                 r.filter_bytes) for name, r in d.profiler.by_name().items()}
         for d in devices],
        sharded.filter_stats(),
        sharded.traffic_stats(),
        sharded._traffic_hist.tobytes(),
    )


@st.composite
def sharded_scripts(draw):
    """A store shape, boundaries (uneven; an empty range among them when
    two cuts coincide) and a script of routed operations and re-partitions
    over a shrunk key domain."""
    key_domain = draw(st.integers(min_value=8, max_value=600))
    cuts = sorted(draw(st.lists(st.integers(0, key_domain), max_size=4)))
    shape = dict(
        batch_size=32,
        shard_batch_size=draw(st.sampled_from([2, 8])),
        key_only=draw(st.booleans()),
        key_domain=key_domain,
        sort_queries=draw(st.booleans()),
        max_shards=8,
        **(FILTERS if draw(st.booleans()) else {}),
    )
    seeds = st.integers(0, 2**32 - 1)
    update = st.tuples(
        st.just("update"), seeds, st.sampled_from(["mixed", "deletes", "one-shard"])
    )
    step = st.one_of(
        update,
        st.tuples(st.sampled_from(["lookup", "count", "range"]), seeds,
                  st.sampled_from(["narrow", "wide", "beyond"])),
        st.tuples(st.just("split"), st.integers(0, 7), st.integers(0, key_domain)),
        st.tuples(st.just("merge"), st.integers(0, 7), st.just(0)),
    )
    steps = draw(st.lists(update, max_size=3)) + draw(st.lists(step, min_size=1, max_size=12))
    return shape, [0] + cuts + [key_domain], steps


def run_sharded_script(shape, bounds, steps, reference):
    """Run ``steps`` on a fresh store through the reference loops or the
    store's own methods; returns every answer and the final observable."""
    sharded = ShardedLSM(1, seed=1, **shape)
    sharded.restore_boundaries(bounds)
    key_domain, answers = shape["key_domain"], []
    for kind, seed, arg in steps:
        rng = np.random.default_rng(seed)
        if kind == "update":
            # Up to a full front-end batch: more than one shard batch per
            # shard, so segments go in as several chunks, the last partial.
            hi = max(1, key_domain // 8) if arg == "one-shard" else key_domain
            keys = rng.integers(0, hi, rng.integers(1, 33)).astype(np.uint32)
            cut = 0 if arg == "deletes" else rng.integers(0, keys.size + 1)
            ins, dels = keys[:cut], keys[cut:]
            call = dict(
                insert_keys=ins if ins.size else None,
                insert_values=None if sharded.key_only or not ins.size else ins * np.uint32(3) + 1,
                delete_keys=dels if dels.size else None,
            )
            if reference:
                reference_sharded_update(sharded, **call)
            else:
                sharded.update(**call)
        elif kind == "split":
            lo, hi = sharded.shard_range(seed % sharded.num_shards)
            if lo < hi and sharded.num_shards < 8:
                sharded.split_shard(seed % sharded.num_shards, lo + 1 + arg % (hi - lo))
        elif kind == "merge":
            if sharded.num_shards > 1:
                sharded.merge_shards(seed % (sharded.num_shards - 1))
        else:
            n = int(rng.integers(1, 24))
            top = 2 * key_domain if arg == "beyond" else key_domain
            k1 = rng.integers(0, top, n).astype(np.uint64 if seed % 2 else np.uint32)
            if kind == "lookup":
                res = reference_sharded_lookup(sharded, k1) if reference else sharded.lookup(k1)
                answers.append(res if reference else (res.found, res.values))
                continue
            width = rng.integers(0, 4 if arg == "narrow" else top, n)
            k2 = (k1 + width.astype(k1.dtype)).astype(k1.dtype)
            if kind == "count":
                answers.append(
                    (reference_sharded_count(sharded, k1, k2) if reference
                     else sharded.count(k1, k2),)
                )
            elif reference:
                answers.append(reference_sharded_range_query(sharded, k1, k2))
            else:
                rr = sharded.range_query(k1, k2)
                answers.append((rr.offsets, rr.keys, rr.values))
    return answers, observable(sharded)


@settings(max_examples=150, deadline=None)
@given(script=sharded_scripts(), block=st.sampled_from([ranges.SEGMENT_BLOCK_CANDIDATES, 1, 7]))
def test_one_pass_over_the_shards_equals_the_per_shard_loops(script, block):
    """Plain and filtered, ``sort_queries`` on and off, key-value and
    key-only, over boundaries ``split_shard`` / ``merge_shards`` /
    coinciding cuts leave uneven (empty ranges, shards with no occupied
    level), with queries straddling any number of boundaries or reaching
    past ``key_domain``, shards a batch finds no candidate in, segments
    larger than the shard batch and all-deletion batches: the answers and
    everything the store shows of its history equal the per-shard loops' —
    also when the pass post-processes its segments ``block`` candidates at a
    time (the loops run every shard's sub-batch as one block)."""
    want_answers, want = run_sharded_script(*script, reference=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranges, "SEGMENT_BLOCK_CANDIDATES", block)
        got_answers, got = run_sharded_script(*script, reference=False)
    assert len(got_answers) == len(want_answers)
    for got_columns, want_columns in zip(got_answers, want_answers):
        assert_same_columns(got_columns, want_columns)
    assert got == want


# ---------------------------------------------------------------------- #
# Whole-run goldens
# ---------------------------------------------------------------------- #
TICK = 4096
PREFILL_BATCHES = 7
TICKS = 16
SEED = 7


def aggregates(device):
    """``{kernel: every KernelStats field after the name}`` of one device."""
    return {
        name: dataclasses.astuple(k)[1:]
        for name, k in sorted(device.counter.per_kernel.items())
    }


def accounting(devices):
    """The devices' per-kernel aggregates and their clocks."""
    return (
        [aggregates(d) for d in devices],
        [d.simulated_seconds.hex() for d in devices],
    )


def devices_of(backend):
    """The store's device, or the router's followed by every shard's."""
    shards = getattr(backend, "shards", None)
    if shards is None:
        return [backend.device]
    return [backend.router_device] + [s.device for s in shards]


def run_ticks(backend):
    """Seven prefill batches, then 16 default-mix ticks through the inline
    engine; returns the devices' aggregates and clocks."""
    for keys, values in make_prefill(TICK, PREFILL_BATCHES):
        backend.insert(keys, None if getattr(backend, "key_only", False) else values)
    engine = Engine(backend)
    batches = make_mixed_batches(
        MixedOpConfig(num_ops=TICKS * TICK, tick_size=TICK, seed=SEED,
                      expected_range_width=8)
    )
    for batch in batches:
        engine.apply(batch)
    engine.close()
    return accounting(devices_of(backend))


def make_gpulsm():
    return GPULSM(batch_size=TICK, device=Device(K40C_SPEC, seed=1))


def make_sharded4():
    return ShardedLSM(4, batch_size=TICK, seed=1)


def run_key_only_ticks():
    """The same ticks on a key-only ``GPULSM``: every primitive takes its
    no-value-column path."""
    return run_ticks(
        GPULSM(batch_size=TICK, device=Device(K40C_SPEC, seed=1), key_only=True)
    )


def run_maintenance():
    """After the ticks (23 resident batches, four occupied levels): fold
    the two smallest levels, then clean the whole structure up — the
    multisplit, padding and redistribution no tick reaches.  Counters are
    reset in between, so the literal holds the maintenance kernels only."""
    lsm = make_gpulsm()
    run_ticks(lsm)
    lsm.device.reset_counters()
    lsm.compact_levels(2)
    lsm.cleanup()
    return accounting([lsm.device])


def run_sorted_array(key_only):
    """Build-by-insert, an overlapping second insert (the whole-array
    merge) and a delete batch on the sorted-array baseline."""
    rng = np.random.default_rng(SEED)
    array = GPUSortedArray(device=Device(K40C_SPEC, seed=1), key_only=key_only)
    for _ in range(2):
        keys = rng.integers(0, 3 * TICK, TICK, dtype=np.uint32)
        array.insert(keys, None if key_only else keys * np.uint32(5))
    array.delete(rng.integers(0, 3 * TICK, TICK, dtype=np.uint32))
    return accounting([array.device])


def run_sorted_array_key_only():
    return run_sorted_array(True)


def run_sorted_array_key_value():
    return run_sorted_array(False)


MORE_RUNS = (
    run_key_only_ticks,
    run_maintenance,
    run_sorted_array_key_only,
    run_sorted_array_key_value,
)


FILTERED_TICK = 1024
FILTERS = dict(enable_fences=True, bloom_bits_per_key=10)


def make_filtered_gpulsm():
    return GPULSM(
        config=LSMConfig(batch_size=FILTERED_TICK, **FILTERS),
        device=Device(K40C_SPEC, seed=1),
    )


def make_filtered_sharded4():
    return ShardedLSM(4, batch_size=FILTERED_TICK, seed=1, **FILTERS)


def run_filtered(backend):
    """Every path that builds or probes a filter, on a fence + Bloom store:
    the cascade and filtered lookups of twelve ticks (uniform keys, so
    nearly all misses), a tick rolled back (``restore_state`` rebuilds the
    filters from the captured keys), a partial compaction, a cleanup, and
    one lookup of every third prefilled key (hits, at every depth).
    Returns the pruning statistics, the devices' aggregates and clocks,
    and a digest of every level's words."""
    prefill = make_prefill(FILTERED_TICK, PREFILL_BATCHES)
    for keys, values in prefill:
        backend.insert(keys, values)
    engine = Engine(backend)
    batches = make_mixed_batches(
        MixedOpConfig(num_ops=13 * FILTERED_TICK, tick_size=FILTERED_TICK, seed=SEED,
                      expected_range_width=8)
    )
    for batch in batches[:4]:
        engine.apply(batch)
    state = backend.snapshot_state()
    engine.apply(batches[4])
    backend.rollback_to(state)
    for batch in batches[5:9]:
        engine.apply(batch)
    backend.compact_levels(2)
    for batch in batches[9:11]:
        engine.apply(batch)
    backend.cleanup()
    for batch in batches[11:]:
        engine.apply(batch)
    engine.close()
    backend.lookup(np.concatenate([keys for keys, _ in prefill])[::3])
    return (
        backend.filter_stats(),
        accounting(devices_of(backend)),
        [
            [hashlib.sha256(level.filters.bloom.words.tobytes()).hexdigest()
             for level in shard.occupied_levels()]
            for shard in getattr(backend, "shards", None) or [backend]
        ],
    )


FILTERED_MAKES = (make_filtered_gpulsm, make_filtered_sharded4)


#: Captured on the parent commit (see the module docstring).
GOLDEN = {'make_gpulsm': ([{'api.plan.multisplit.histogram': (524288, 32768, 0, 0, 0, 0, 65536, 16),
                   'api.plan.multisplit.scan': (512, 512, 0, 0, 0, 0, 64, 16),
                   'api.plan.multisplit.scatter': (557056, 524288, 0, 0, 0, 0, 65536, 16),
                   'api.update.canonicalise': (1149504, 1149504, 0, 0, 0, 0, 35922, 16),
                   'compact.scan_flags': (555728, 555728, 0, 0, 0, 0, 69466, 16),
                   'compact.segment_offsets': (39040, 39168, 0, 0, 0, 0, 4880, 16),
                   'histogram.block_digit': (1507328, 188416, 0, 0, 0, 0, 376832, 92),
                   'lsm.count.segmented_sort': (709336, 354668, 0, 0, 0, 0, 88667, 64),
                   'lsm.lookup.lower_bound': (193396, 386792, 20033280, 0, 0, 0, 48349, 39),
                   'lsm.merge_level': (6062080, 6062080, 0, 0, 0, 0, 303104, 38),
                   'lsm.query.count_valid': (88667, 39728, 0, 0, 0, 0, 88667, 16),
                   'lsm.query.gather': (910396, 910396, 0, 0, 0, 0, 158133, 32),
                   'lsm.query.lower_bound': (95800, 191600, 9920928, 0, 0, 0, 23950, 78),
                   'lsm.query.scan': (191600, 191600, 0, 0, 0, 0, 23950, 32),
                   'lsm.query.upper_bound': (95800, 191600, 9920928, 0, 0, 0, 23950, 78),
                   'lsm.query.validate': (632532, 158133, 0, 0, 0, 0, 158133, 32),
                   'lsm.range.compact': (347330, 224992, 0, 0, 0, 0, 69466, 16),
                   'lsm.range.compact.values': (347330, 224992, 0, 0, 0, 0, 69466, 16),
                   'lsm.range.segmented_sort': (1111456, 555728, 0, 0, 0, 0, 69466, 64),
                   'lsm.store_level': (0, 1966080, 0, 0, 0, 0, 245760, 23),
                   'radix_sort.scan': (188416, 188416, 0, 0, 0, 0, 23552, 92),
                   'radix_sort.scatter': (3014656, 0, 0, 3014656, 0, 0, 376832, 92)}],
                 ['0x1.809f88c782280p-8']),
 'make_sharded4': ([{'api.plan.multisplit.histogram': (524288, 32768, 0, 0, 0, 0, 65536, 16),
                     'api.plan.multisplit.scan': (512, 512, 0, 0, 0, 0, 64, 16),
                     'api.plan.multisplit.scatter': (557056, 524288, 0, 0, 0, 0, 65536, 16),
                     'api.update.canonicalise': (1149504, 1149504, 0, 0, 0, 0, 35922, 16),
                     'histogram.block_digit': (1033504, 188416, 0, 0, 0, 0, 258376, 92),
                     'radix_sort.scan': (188416, 188416, 0, 0, 0, 0, 23552, 92),
                     'radix_sort.scatter': (2067008, 0, 0, 2067008, 0, 0, 258376, 92),
                     'sharded.lookup_route.multisplit.histogram': (316288, 10000, 0, 0, 0, 0, 19768,
                                                                   16),
                     'sharded.lookup_route.multisplit.scan': (512, 512, 0, 0, 0, 0, 64, 16),
                     'sharded.lookup_route.multisplit.scatter': (326288, 316288, 0, 0, 0, 0, 19768,
                                                                 16),
                     'sharded.query.clip': (157536, 630144, 0, 0, 0, 0, 39384, 32),
                     'sharded.range.merge': (674976, 674976, 0, 0, 0, 0, 56248, 64),
                     'sharded.route.dedup': (581346, 516752, 0, 0, 0, 0, 64594, 23),
                     'sharded.route.multisplit.histogram': (516752, 32416, 0, 0, 0, 0, 64594, 23),
                     'sharded.route.multisplit.scan': (736, 736, 0, 0, 0, 0, 92, 23),
                     'sharded.route.multisplit.scatter': (549168, 516752, 0, 0, 0, 0, 64594, 23)},
                    {'compact.scan_flags': (181832, 181832, 0, 0, 0, 0, 22729, 16),
                     'compact.segment_offsets': (9856, 9984, 0, 0, 0, 0, 1232, 16),
                     'histogram.block_digit': (393216, 196608, 0, 0, 0, 0, 98304, 96),
                     'lsm.count.segmented_sort': (151208, 75604, 0, 0, 0, 0, 18901, 64),
                     'lsm.lookup.lower_bound': (48720, 97440, 4289184, 0, 0, 0, 12180, 40),
                     'lsm.merge_level': (1802240, 1802240, 0, 0, 0, 0, 90112, 44),
                     'lsm.query.count_valid': (18901, 9744, 0, 0, 0, 0, 18901, 16),
                     'lsm.query.gather': (257436, 257436, 0, 0, 0, 0, 41630, 32),
                     'lsm.query.lower_bound': (24408, 48816, 2150560, 0, 0, 0, 6102, 80),
                     'lsm.query.scan': (48816, 48816, 0, 0, 0, 0, 6102, 32),
                     'lsm.query.upper_bound': (24408, 48816, 2150560, 0, 0, 0, 6102, 80),
                     'lsm.query.validate': (166520, 41630, 0, 0, 0, 0, 41630, 32),
                     'lsm.range.compact': (113645, 56944, 0, 0, 0, 0, 22729, 16),
                     'lsm.range.compact.values': (113645, 56944, 0, 0, 0, 0, 22729, 16),
                     'lsm.range.segmented_sort': (363664, 181832, 0, 0, 0, 0, 22729, 64),
                     'lsm.store_level': (0, 557056, 0, 0, 0, 0, 69632, 24),
                     'radix_sort.scan': (196608, 196608, 0, 0, 0, 0, 24576, 96),
                     'radix_sort.scatter': (786432, 0, 0, 786432, 0, 0, 98304, 96)},
                    {'compact.scan_flags': (190112, 190112, 0, 0, 0, 0, 23764, 16),
                     'compact.segment_offsets': (10320, 10448, 0, 0, 0, 0, 1290, 16),
                     'histogram.block_digit': (393216, 196608, 0, 0, 0, 0, 98304, 96),
                     'lsm.count.segmented_sort': (165488, 82744, 0, 0, 0, 0, 20686, 64),
                     'lsm.lookup.lower_bound': (50356, 100712, 4431904, 0, 0, 0, 12589, 40),
                     'lsm.merge_level': (1802240, 1802240, 0, 0, 0, 0, 90112, 44),
                     'lsm.query.count_valid': (20686, 10136, 0, 0, 0, 0, 20686, 16),
                     'lsm.query.gather': (272856, 272856, 0, 0, 0, 0, 44450, 32),
                     'lsm.query.lower_bound': (25396, 50792, 2234528, 0, 0, 0, 6349, 80),
                     'lsm.query.scan': (50792, 50792, 0, 0, 0, 0, 6349, 32),
                     'lsm.query.upper_bound': (25396, 50792, 2234528, 0, 0, 0, 6349, 80),
                     'lsm.query.validate': (177800, 44450, 0, 0, 0, 0, 44450, 32),
                     'lsm.range.compact': (118820, 58736, 0, 0, 0, 0, 23764, 16),
                     'lsm.range.compact.values': (118820, 58736, 0, 0, 0, 0, 23764, 16),
                     'lsm.range.segmented_sort': (380224, 190112, 0, 0, 0, 0, 23764, 64),
                     'lsm.store_level': (0, 557056, 0, 0, 0, 0, 69632, 24),
                     'radix_sort.scan': (196608, 196608, 0, 0, 0, 0, 24576, 96),
                     'radix_sort.scatter': (786432, 0, 0, 786432, 0, 0, 98304, 96)},
                    {'compact.scan_flags': (148648, 148648, 0, 0, 0, 0, 18581, 16),
                     'compact.segment_offsets': (9336, 9464, 0, 0, 0, 0, 1167, 16),
                     'histogram.block_digit': (393216, 196608, 0, 0, 0, 0, 98304, 96),
                     'lsm.count.segmented_sort': (185768, 92884, 0, 0, 0, 0, 23221, 64),
                     'lsm.lookup.lower_bound': (49256, 98512, 4335136, 0, 0, 0, 12314, 40),
                     'lsm.merge_level': (1802240, 1802240, 0, 0, 0, 0, 90112, 44),
                     'lsm.query.count_valid': (23221, 9640, 0, 0, 0, 0, 23221, 16),
                     'lsm.query.gather': (241532, 241532, 0, 0, 0, 0, 41802, 32),
                     'lsm.query.lower_bound': (23476, 46952, 2068000, 0, 0, 0, 5869, 80),
                     'lsm.query.scan': (46952, 46952, 0, 0, 0, 0, 5869, 32),
                     'lsm.query.upper_bound': (23476, 46952, 2068000, 0, 0, 0, 5869, 80),
                     'lsm.query.validate': (167208, 41802, 0, 0, 0, 0, 41802, 32),
                     'lsm.range.compact': (92905, 53960, 0, 0, 0, 0, 18581, 16),
                     'lsm.range.compact.values': (92905, 53960, 0, 0, 0, 0, 18581, 16),
                     'lsm.range.segmented_sort': (297296, 148648, 0, 0, 0, 0, 18581, 64),
                     'lsm.store_level': (0, 557056, 0, 0, 0, 0, 69632, 24),
                     'radix_sort.scan': (196608, 196608, 0, 0, 0, 0, 24576, 96),
                     'radix_sort.scatter': (786432, 0, 0, 786432, 0, 0, 98304, 96)},
                    {'compact.scan_flags': (137304, 137304, 0, 0, 0, 0, 17163, 16),
                     'compact.segment_offsets': (9544, 9672, 0, 0, 0, 0, 1193, 16),
                     'histogram.block_digit': (376832, 188416, 0, 0, 0, 0, 94208, 92),
                     'lsm.count.segmented_sort': (180880, 90440, 0, 0, 0, 0, 22610, 64),
                     'lsm.lookup.lower_bound': (48564, 97128, 4251936, 0, 0, 0, 12141, 39),
                     'lsm.merge_level': (1515520, 1515520, 0, 0, 0, 0, 75776, 38),
                     'lsm.query.count_valid': (22610, 10232, 0, 0, 0, 0, 22610, 16),
                     'lsm.query.gather': (227744, 227744, 0, 0, 0, 0, 39773, 32),
                     'lsm.query.lower_bound': (24124, 48248, 2110816, 0, 0, 0, 6031, 78),
                     'lsm.query.scan': (48248, 48248, 0, 0, 0, 0, 6031, 32),
                     'lsm.query.upper_bound': (24124, 48248, 2110816, 0, 0, 0, 6031, 78),
                     'lsm.query.validate': (159092, 39773, 0, 0, 0, 0, 39773, 32),
                     'lsm.range.compact': (85815, 55352, 0, 0, 0, 0, 17163, 16),
                     'lsm.range.compact.values': (85815, 55352, 0, 0, 0, 0, 17163, 16),
                     'lsm.range.segmented_sort': (274608, 137304, 0, 0, 0, 0, 17163, 64),
                     'lsm.store_level': (0, 491520, 0, 0, 0, 0, 61440, 23),
                     'radix_sort.scan': (188416, 188416, 0, 0, 0, 0, 23552, 92),
                     'radix_sort.scatter': (753664, 0, 0, 753664, 0, 0, 94208, 92)}],
                   ['0x1.89cd7ffb1cd8ep-9', '0x1.2de4e3599102dp-8', '0x1.2e835479c3cc7p-8',
                    '0x1.2d9c3cf566bb9p-8', '0x1.256cafb8760f3p-8'])}


#: The paths the two tick goldens above do not reach, captured on the
#: commit before the keys / pairs twins of the primitives were merged.
MORE_GOLDEN = {'run_key_only_ticks': ([{'api.plan.multisplit.histogram': (524288, 32768, 0, 0, 0, 0, 65536, 16),
                          'api.plan.multisplit.scan': (512, 512, 0, 0, 0, 0, 64, 16),
                          'api.plan.multisplit.scatter': (557056, 524288, 0, 0, 0, 0, 65536, 16),
                          'api.update.canonicalise': (1149504, 1149504, 0, 0, 0, 0, 35922, 16),
                          'compact.scan_flags': (555728, 555728, 0, 0, 0, 0, 69466, 16),
                          'compact.segment_offsets': (39040, 39168, 0, 0, 0, 0, 4880, 16),
                          'histogram.block_digit': (1507328, 188416, 0, 0, 0, 0, 376832, 92),
                          'lsm.count.segmented_sort': (709336, 354668, 0, 0, 0, 0, 88667, 64),
                          'lsm.lookup.lower_bound': (193396, 386792, 20033280, 0, 0, 0, 48349, 39),
                          'lsm.merge_level': (3031040, 3031040, 0, 0, 0, 0, 303104, 38),
                          'lsm.query.count_valid': (88667, 39728, 0, 0, 0, 0, 88667, 16),
                          'lsm.query.gather': (632532, 632532, 0, 0, 0, 0, 158133, 32),
                          'lsm.query.lower_bound': (95800, 191600, 9920928, 0, 0, 0, 23950, 78),
                          'lsm.query.scan': (191600, 191600, 0, 0, 0, 0, 23950, 32),
                          'lsm.query.upper_bound': (95800, 191600, 9920928, 0, 0, 0, 23950, 78),
                          'lsm.query.validate': (632532, 158133, 0, 0, 0, 0, 158133, 32),
                          'lsm.range.compact': (347330, 224992, 0, 0, 0, 0, 69466, 16),
                          'lsm.range.segmented_sort': (555728, 277864, 0, 0, 0, 0, 69466, 64),
                          'lsm.store_level': (0, 983040, 0, 0, 0, 0, 245760, 23),
                          'radix_sort.scan': (188416, 188416, 0, 0, 0, 0, 23552, 92),
                          'radix_sort.scatter': (1507328, 0, 0, 1507328, 0, 0, 376832, 92)}],
                        ['0x1.75329d120f644p-8']),
 'run_maintenance': ([{'lsm.distribute_levels': (491520, 491520, 0, 0, 0, 0, 61440, 1),
                       'lsm.maintenance.distribute': (65536, 65536, 0, 0, 0, 0, 8192, 1),
                       'lsm.maintenance.mark': (409600, 102400, 0, 0, 0, 0, 102400, 2),
                       'lsm.maintenance.merge': (2539520, 2539520, 0, 0, 0, 0, 126976, 6),
                       'lsm.maintenance.multisplit.histogram': (819200, 25600, 0, 0, 0, 0, 102400,
                                                                2),
                       'lsm.maintenance.multisplit.scan': (32, 32, 0, 0, 0, 0, 4, 2),
                       'lsm.maintenance.multisplit.scatter': (844800, 819200, 0, 0, 0, 0, 102400,
                                                              2),
                       'lsm.maintenance.pad': (0, 39288, 0, 0, 0, 0, 4911, 2)}],
                     ['0x1.1c746221ee9d8p-13']),
 'run_sorted_array_key_only': ([{'histogram.block_digit': (196608, 24576, 0, 0, 0, 0, 49152, 12),
                                 'radix_sort.scan': (24576, 24576, 0, 0, 0, 0, 3072, 12),
                                 'radix_sort.scatter': (196608, 0, 0, 196608, 0, 0, 49152, 12),
                                 'sorted_array.dedup': (60564, 51556, 0, 0, 0, 0, 15141, 3),
                                 'sorted_array.delete.compact': (23760, 17188, 0, 0, 0, 0, 5940, 1),
                                 'sorted_array.delete.search': (23760, 47520, 2090880, 0, 0, 0,
                                                                5940, 1),
                                 'sorted_array.merge': (69490, 69490, 0, 0, 0, 0, 6949, 2)}],
                               ['0x1.2956d276d7c96p-12']),
 'run_sorted_array_key_value': ([{'histogram.block_digit': (196608, 24576, 0, 0, 0, 0, 49152, 12),
                                  'radix_sort.scan': (24576, 24576, 0, 0, 0, 0, 3072, 12),
                                  'radix_sort.scatter': (327680, 0, 0, 327680, 0, 0, 49152, 12),
                                  'sorted_array.dedup': (60564, 51556, 0, 0, 0, 0, 15141, 3),
                                  'sorted_array.delete.compact': (23760, 17188, 0, 0, 0, 0, 5940,
                                                                  1),
                                  'sorted_array.delete.search': (23760, 47520, 2090880, 0, 0, 0,
                                                                 5940, 1),
                                  'sorted_array.merge': (138980, 138980, 0, 0, 0, 0, 6949, 2)}],
                                ['0x1.2e9bfbacadf60p-12'])}


#: Filter statistics, accounting and Bloom-word digests of the filtered
#: runs, captured on the commit before the filter layer hashed once.
FILTERED_GOLDEN = {'make_filtered_gpulsm': ({'bloom_false_positive_rate': 0.014026402640264026,
                           'bloom_false_positives': 34,
                           'bloom_prune_rate': 0.6904551089073845,
                           'bloom_pruned': 11697,
                           'fence_prune_rate': 0.16646006729236762,
                           'fence_pruned': 2820,
                           'filter_memory_bytes': 17312,
                           'lookup_pairs': 16941,
                           'lookup_prune_rate': 0.8569151761997521,
                           'range_fence_pruned': 628,
                           'range_pairs': 5181,
                           'range_prune_rate': 0.12121212121212122,
                           'searched': 2424,
                           'searched_fraction': 0.14308482380024792},
                          ([{'api.plan.multisplit.histogram': (106496, 6656, 0, 0, 0, 0, 13312, 13),
                             'api.plan.multisplit.scan': (416, 416, 0, 0, 0, 0, 52, 13),
                             'api.plan.multisplit.scatter': (113152, 106496, 0, 0, 0, 0, 13312, 13),
                             'api.update.canonicalise': (233440, 233440, 0, 0, 0, 0, 7295, 13),
                             'compact.scan_flags': (117704, 117704, 0, 0, 0, 0, 14713, 13),
                             'compact.segment_offsets': (7928, 8032, 0, 0, 0, 0, 991, 13),
                             'histogram.block_digit': (327680, 163840, 0, 0, 0, 0, 81920, 80),
                             'lsm.count.segmented_sort': (116744, 58372, 0, 0, 0, 0, 14593, 52),
                             'lsm.distribute_levels': (98304, 98304, 0, 0, 0, 0, 12288, 1),
                             'lsm.filters.build': (329668, 0, 0, 0, 0, 4615352, 82417, 26),
                             'lsm.lookup.bloom': (112968, 14121, 0, 0, 287696, 0, 14121, 37),
                             'lsm.lookup.fence': (135528, 16941, 0, 0, 0, 0, 16941, 0),
                             'lsm.lookup.lower_bound': (9696, 19392, 903584, 0, 0, 0, 2424, 20),
                             'lsm.maintenance.distribute': (16384, 16384, 0, 0, 0, 0, 2048, 1),
                             'lsm.maintenance.mark': (77824, 19456, 0, 0, 0, 0, 19456, 2),
                             'lsm.maintenance.merge': (61440, 61440, 0, 0, 0, 0, 3072, 2),
                             'lsm.maintenance.multisplit.histogram': (155648, 4864, 0, 0, 0, 0,
                                                                      19456, 2),
                             'lsm.maintenance.multisplit.scan': (32, 32, 0, 0, 0, 0, 4, 2),
                             'lsm.maintenance.multisplit.scatter': (160512, 155648, 0, 0, 0, 0,
                                                                    19456, 2),
                             'lsm.maintenance.pad': (0, 7048, 0, 0, 0, 0, 881, 2),
                             'lsm.merge_level': (1474560, 1474560, 0, 0, 0, 0, 73728, 36),
                             'lsm.query.count_valid': (14593, 7920, 0, 0, 0, 0, 14593, 13),
                             'lsm.query.fence': (82896, 5181, 0, 0, 0, 0, 5181, 0),
                             'lsm.query.gather': (176076, 176076, 0, 0, 0, 0, 29306, 26),
                             'lsm.query.lower_bound': (18212, 36424, 1567232, 0, 0, 0, 4553, 68),
                             'lsm.query.scan': (41448, 41448, 0, 0, 0, 0, 5181, 26),
                             'lsm.query.upper_bound': (18212, 36424, 1567232, 0, 0, 0, 4553, 68),
                             'lsm.query.validate': (117224, 29306, 0, 0, 0, 0, 29306, 26),
                             'lsm.range.compact': (73565, 50944, 0, 0, 0, 0, 14713, 13),
                             'lsm.range.compact.values': (73565, 50944, 0, 0, 0, 0, 14713, 13),
                             'lsm.range.segmented_sort': (235408, 117704, 0, 0, 0, 0, 14713, 52),
                             'lsm.restore_levels': (90112, 90112, 0, 0, 0, 0, 11264, 1),
                             'lsm.store_level': (0, 458752, 0, 0, 0, 0, 57344, 20),
                             'radix_sort.scan': (163840, 163840, 0, 0, 0, 0, 20480, 80),
                             'radix_sort.scatter': (655360, 0, 0, 655360, 0, 0, 81920, 80)}],
                           ['0x1.1e20b7e63aae0p-8']),
                          [['4f0122f68e85c585144fcafa40103db856c14f113a302bf32289101992c06913',
                            '73fd70a629d2d0993f036e39e737ce76c65cf43e85acf69a82eace37134a6c64',
                            '1e942ce74545db6d7f0f0a036bf27a8190a35d4f290c1c5060efb44e9e503134']]),
 'make_filtered_sharded4': ({'bloom_false_positive_rate': 0.011579818031430935,
                             'bloom_false_positives': 28,
                             'bloom_prune_rate': 0.6998250437390653,
                             'bloom_pruned': 11200,
                             'fence_prune_rate': 0.149087728067983,
                             'fence_pruned': 2386,
                             'filter_memory_bytes': 17464,
                             'lookup_pairs': 16004,
                             'lookup_prune_rate': 0.8489127718070483,
                             'range_fence_pruned': 384,
                             'range_pairs': 4688,
                             'range_prune_rate': 0.08191126279863481,
                             'searched': 2418,
                             'searched_fraction': 0.15108722819295176},
                            ([{'api.plan.multisplit.histogram': (106496, 6656, 0, 0, 0, 0, 13312,
                                                                 13),
                               'api.plan.multisplit.scan': (416, 416, 0, 0, 0, 0, 52, 13),
                               'api.plan.multisplit.scatter': (113152, 106496, 0, 0, 0, 0, 13312,
                                                               13),
                               'api.update.canonicalise': (233440, 233440, 0, 0, 0, 0, 7295, 13),
                               'histogram.block_digit': (231408, 163840, 0, 0, 0, 0, 57852, 80),
                               'radix_sort.scan': (163840, 163840, 0, 0, 0, 0, 20480, 80),
                               'radix_sort.scatter': (462816, 0, 0, 462816, 0, 0, 57852, 80),
                               'sharded.lookup_route.multisplit.histogram': (102816, 3280, 0, 0, 0,
                                                                             0, 6426, 14),
                               'sharded.lookup_route.multisplit.scan': (448, 448, 0, 0, 0, 0, 56,
                                                                        14),
                               'sharded.lookup_route.multisplit.scatter': (106096, 102816, 0, 0, 0,
                                                                           0, 6426, 14),
                               'sharded.query.clip': (31696, 126784, 0, 0, 0, 0, 7924, 26),
                               'sharded.range.merge': (152832, 152832, 0, 0, 0, 0, 12736, 52),
                               'sharded.route.dedup': (130167, 115704, 0, 0, 0, 0, 14463, 20),
                               'sharded.route.multisplit.histogram': (115704, 7360, 0, 0, 0, 0,
                                                                      14463, 20),
                               'sharded.route.multisplit.scan': (640, 640, 0, 0, 0, 0, 80, 20),
                               'sharded.route.multisplit.scatter': (123064, 115704, 0, 0, 0, 0,
                                                                    14463, 20)},
                              {'compact.scan_flags': (26128, 26128, 0, 0, 0, 0, 3266, 13),
                               'compact.segment_offsets': (1736, 1840, 0, 0, 0, 0, 217, 13),
                               'histogram.block_digit': (86016, 172032, 0, 0, 0, 0, 21504, 84),
                               'lsm.count.segmented_sort': (35240, 17620, 0, 0, 0, 0, 4405, 52),
                               'lsm.distribute_levels': (24576, 24576, 0, 0, 0, 0, 3072, 1),
                               'lsm.filters.build': (96788, 0, 0, 0, 0, 1355032, 24197, 26),
                               'lsm.lookup.bloom': (27640, 3455, 0, 0, 70336, 0, 3455, 33),
                               'lsm.lookup.fence': (32240, 4030, 0, 0, 0, 0, 4030, 0),
                               'lsm.lookup.lower_bound': (2420, 4840, 186848, 0, 0, 0, 605, 9),
                               'lsm.maintenance.distribute': (32768, 32768, 0, 0, 0, 0, 4096, 1),
                               'lsm.maintenance.mark': (34816, 8704, 0, 0, 0, 0, 8704, 2),
                               'lsm.maintenance.merge': (92160, 92160, 0, 0, 0, 0, 4608, 2),
                               'lsm.maintenance.multisplit.histogram': (69632, 2176, 0, 0, 0, 0,
                                                                        8704, 2),
                               'lsm.maintenance.multisplit.scan': (32, 32, 0, 0, 0, 0, 4, 2),
                               'lsm.maintenance.multisplit.scatter': (71808, 69632, 0, 0, 0, 0,
                                                                      8704, 2),
                               'lsm.maintenance.pad': (0, 12048, 0, 0, 0, 0, 1506, 2),
                               'lsm.merge_level': (348160, 348160, 0, 0, 0, 0, 17408, 34),
                               'lsm.query.count_valid': (4405, 2008, 0, 0, 0, 0, 4405, 13),
                               'lsm.query.fence': (16864, 1054, 0, 0, 0, 0, 1054, 0),
                               'lsm.query.gather': (43748, 43748, 0, 0, 0, 0, 7671, 26),
                               'lsm.query.lower_bound': (3904, 7808, 280832, 0, 0, 0, 976, 60),
                               'lsm.query.scan': (8432, 8432, 0, 0, 0, 0, 1054, 26),
                               'lsm.query.upper_bound': (3904, 7808, 280832, 0, 0, 0, 976, 60),
                               'lsm.query.validate': (30684, 7671, 0, 0, 0, 0, 7671, 26),
                               'lsm.range.compact': (16330, 11228, 0, 0, 0, 0, 3266, 13),
                               'lsm.range.compact.values': (16330, 11228, 0, 0, 0, 0, 3266, 13),
                               'lsm.range.segmented_sort': (52256, 26128, 0, 0, 0, 0, 3266, 52),
                               'lsm.restore_levels': (24576, 24576, 0, 0, 0, 0, 3072, 1),
                               'lsm.store_level': (0, 112640, 0, 0, 0, 0, 14080, 21),
                               'radix_sort.scan': (172032, 172032, 0, 0, 0, 0, 21504, 84),
                               'radix_sort.scatter': (172032, 0, 0, 172032, 0, 0, 21504, 84)},
                              {'compact.scan_flags': (36384, 36384, 0, 0, 0, 0, 4548, 13),
                               'compact.segment_offsets': (2224, 2328, 0, 0, 0, 0, 278, 13),
                               'histogram.block_digit': (86016, 172032, 0, 0, 0, 0, 21504, 84),
                               'lsm.count.segmented_sort': (35184, 17592, 0, 0, 0, 0, 4398, 52),
                               'lsm.distribute_levels': (24576, 24576, 0, 0, 0, 0, 3072, 1),
                               'lsm.filters.build': (96664, 0, 0, 0, 0, 1353296, 24166, 26),
                               'lsm.lookup.bloom': (25896, 3237, 0, 0, 67144, 0, 3237, 33),
                               'lsm.lookup.fence': (30176, 3772, 0, 0, 0, 0, 3772, 0),
                               'lsm.lookup.lower_bound': (2412, 4824, 185984, 0, 0, 0, 603, 7),
                               'lsm.maintenance.distribute': (32768, 32768, 0, 0, 0, 0, 4096, 1),
                               'lsm.maintenance.mark': (34816, 8704, 0, 0, 0, 0, 8704, 2),
                               'lsm.maintenance.merge': (92160, 92160, 0, 0, 0, 0, 4608, 2),
                               'lsm.maintenance.multisplit.histogram': (69632, 2176, 0, 0, 0, 0,
                                                                        8704, 2),
                               'lsm.maintenance.multisplit.scan': (32, 32, 0, 0, 0, 0, 4, 2),
                               'lsm.maintenance.multisplit.scatter': (71808, 69632, 0, 0, 0, 0,
                                                                      8704, 2),
                               'lsm.maintenance.pad': (0, 12304, 0, 0, 0, 0, 1538, 2),
                               'lsm.merge_level': (348160, 348160, 0, 0, 0, 0, 17408, 34),
                               'lsm.query.count_valid': (4398, 2032, 0, 0, 0, 0, 4398, 13),
                               'lsm.query.fence': (19552, 1222, 0, 0, 0, 0, 1222, 0),
                               'lsm.query.gather': (53976, 53976, 0, 0, 0, 0, 8946, 26),
                               'lsm.query.lower_bound': (4548, 9096, 325376, 0, 0, 0, 1137, 60),
                               'lsm.query.scan': (9776, 9776, 0, 0, 0, 0, 1222, 26),
                               'lsm.query.upper_bound': (4548, 9096, 325376, 0, 0, 0, 1137, 60),
                               'lsm.query.validate': (35784, 8946, 0, 0, 0, 0, 8946, 26),
                               'lsm.range.compact': (22740, 14416, 0, 0, 0, 0, 4548, 13),
                               'lsm.range.compact.values': (22740, 14416, 0, 0, 0, 0, 4548, 13),
                               'lsm.range.segmented_sort': (72768, 36384, 0, 0, 0, 0, 4548, 52),
                               'lsm.restore_levels': (24576, 24576, 0, 0, 0, 0, 3072, 1),
                               'lsm.store_level': (0, 112640, 0, 0, 0, 0, 14080, 21),
                               'radix_sort.scan': (172032, 172032, 0, 0, 0, 0, 21504, 84),
                               'radix_sort.scatter': (172032, 0, 0, 172032, 0, 0, 21504, 84)},
                              {'compact.scan_flags': (33560, 33560, 0, 0, 0, 0, 4195, 13),
                               'compact.segment_offsets': (2072, 2176, 0, 0, 0, 0, 259, 13),
                               'histogram.block_digit': (86016, 172032, 0, 0, 0, 0, 21504, 84),
                               'lsm.count.segmented_sort': (35416, 17708, 0, 0, 0, 0, 4427, 52),
                               'lsm.distribute_levels': (24576, 24576, 0, 0, 0, 0, 3072, 1),
                               'lsm.filters.build': (96812, 0, 0, 0, 0, 1355368, 24203, 26),
                               'lsm.lookup.bloom': (26552, 3319, 0, 0, 68312, 0, 3319, 33),
                               'lsm.lookup.fence': (30976, 3872, 0, 0, 0, 0, 3872, 0),
                               'lsm.lookup.lower_bound': (2412, 4824, 186176, 0, 0, 0, 603, 7),
                               'lsm.maintenance.distribute': (32768, 32768, 0, 0, 0, 0, 4096, 1),
                               'lsm.maintenance.mark': (34816, 8704, 0, 0, 0, 0, 8704, 2),
                               'lsm.maintenance.merge': (92160, 92160, 0, 0, 0, 0, 4608, 2),
                               'lsm.maintenance.multisplit.histogram': (69632, 2176, 0, 0, 0, 0,
                                                                        8704, 2),
                               'lsm.maintenance.multisplit.scan': (32, 32, 0, 0, 0, 0, 4, 2),
                               'lsm.maintenance.multisplit.scatter': (71808, 69632, 0, 0, 0, 0,
                                                                      8704, 2),
                               'lsm.maintenance.pad': (0, 11976, 0, 0, 0, 0, 1497, 2),
                               'lsm.merge_level': (348160, 348160, 0, 0, 0, 0, 17408, 34),
                               'lsm.query.count_valid': (4427, 1992, 0, 0, 0, 0, 4427, 13),
                               'lsm.query.fence': (18720, 1170, 0, 0, 0, 0, 1170, 0),
                               'lsm.query.gather': (51268, 51268, 0, 0, 0, 0, 8622, 26),
                               'lsm.query.lower_bound': (4344, 8688, 310880, 0, 0, 0, 1086, 60),
                               'lsm.query.scan': (9360, 9360, 0, 0, 0, 0, 1170, 26),
                               'lsm.query.upper_bound': (4344, 8688, 310880, 0, 0, 0, 1086, 60),
                               'lsm.query.validate': (34488, 8622, 0, 0, 0, 0, 8622, 26),
                               'lsm.range.compact': (20975, 13368, 0, 0, 0, 0, 4195, 13),
                               'lsm.range.compact.values': (20975, 13368, 0, 0, 0, 0, 4195, 13),
                               'lsm.range.segmented_sort': (67120, 33560, 0, 0, 0, 0, 4195, 52),
                               'lsm.restore_levels': (24576, 24576, 0, 0, 0, 0, 3072, 1),
                               'lsm.store_level': (0, 112640, 0, 0, 0, 0, 14080, 21),
                               'radix_sort.scan': (172032, 172032, 0, 0, 0, 0, 21504, 84),
                               'radix_sort.scatter': (172032, 0, 0, 172032, 0, 0, 21504, 84)},
                              {'compact.scan_flags': (27792, 27792, 0, 0, 0, 0, 3474, 13),
                               'compact.segment_offsets': (1912, 2016, 0, 0, 0, 0, 239, 13),
                               'histogram.block_digit': (81920, 163840, 0, 0, 0, 0, 20480, 80),
                               'lsm.count.segmented_sort': (28376, 14188, 0, 0, 0, 0, 3547, 52),
                               'lsm.distribute_levels': (24576, 24576, 0, 0, 0, 0, 3072, 1),
                               'lsm.filters.build': (82412, 0, 0, 0, 0, 1153768, 20603, 26),
                               'lsm.lookup.bloom': (28856, 3607, 0, 0, 73288, 0, 3607, 37),
                               'lsm.lookup.fence': (34640, 4330, 0, 0, 0, 0, 4330, 0),
                               'lsm.lookup.lower_bound': (2428, 4856, 187552, 0, 0, 0, 607, 10),
                               'lsm.maintenance.distribute': (4096, 4096, 0, 0, 0, 0, 512, 1),
                               'lsm.maintenance.mark': (19456, 4864, 0, 0, 0, 0, 4864, 2),
                               'lsm.maintenance.merge': (15360, 15360, 0, 0, 0, 0, 768, 2),
                               'lsm.maintenance.multisplit.histogram': (38912, 1216, 0, 0, 0, 0,
                                                                        4864, 2),
                               'lsm.maintenance.multisplit.scan': (32, 32, 0, 0, 0, 0, 4, 2),
                               'lsm.maintenance.multisplit.scatter': (40128, 38912, 0, 0, 0, 0,
                                                                      4864, 2),
                               'lsm.maintenance.pad': (0, 1840, 0, 0, 0, 0, 230, 2),
                               'lsm.merge_level': (368640, 368640, 0, 0, 0, 0, 18432, 36),
                               'lsm.query.count_valid': (3547, 1928, 0, 0, 0, 0, 3547, 13),
                               'lsm.query.fence': (19872, 1242, 0, 0, 0, 0, 1242, 0),
                               'lsm.query.gather': (41980, 41980, 0, 0, 0, 0, 7021, 26),
                               'lsm.query.lower_bound': (4420, 8840, 309568, 0, 0, 0, 1105, 68),
                               'lsm.query.scan': (9936, 9936, 0, 0, 0, 0, 1242, 26),
                               'lsm.query.upper_bound': (4420, 8840, 309568, 0, 0, 0, 1105, 68),
                               'lsm.query.validate': (28084, 7021, 0, 0, 0, 0, 7021, 26),
                               'lsm.range.compact': (17370, 11932, 0, 0, 0, 0, 3474, 13),
                               'lsm.range.compact.values': (17370, 11932, 0, 0, 0, 0, 3474, 13),
                               'lsm.range.segmented_sort': (55584, 27792, 0, 0, 0, 0, 3474, 52),
                               'lsm.restore_levels': (22528, 22528, 0, 0, 0, 0, 2816, 1),
                               'lsm.store_level': (0, 114688, 0, 0, 0, 0, 14336, 20),
                               'radix_sort.scan': (163840, 163840, 0, 0, 0, 0, 20480, 80),
                               'radix_sort.scatter': (163840, 0, 0, 163840, 0, 0, 20480, 80)}],
                             ['0x1.46542c8c6a5c0p-9', '0x1.f6f584320e902p-9',
                              '0x1.f609130fb5e8cp-9', '0x1.f5ea1eb088dc7p-9',
                              '0x1.fd4005457e736p-9']),
                            [['2301723e2996e45090ebb4d0f7fc8ae22ee9d5c8706c3019a185af5a756ca565',
                              '41f5b73e69718f641ec7e8c43c9d50f96982767a1eeb01234f5fe222a535ecad',
                              'e531beabb67f91706bb8750429f227cd387344a0b4c919c0919d56769512661c'],
                             ['e7596cbfc788beb7a9a3285355ceb27e8bcb95af5de478784198aa8f9b3bf062',
                              '1b409abad72532b20267c25cdb4749c905260746b564abd4d7f5e9a0aa69e4af',
                              '88bbf2422b856585c39e671ffad7f5fe13c05c2e31527c928d48c4d226b27a1f'],
                             ['5d18494ae89aee74f170980dbe3697c7e54d163a31d31c2b72bc81e22f628808',
                              'd1ca2cce8459852a128dc0cbad6fab32debd0c049527ed0f1918c48d5665aac7',
                              '353146d907fb18761fa09e5ebec47af8961e08d204682b34f971fd12e45bd3e8'],
                             ['214df8c42ea204d5727826a49dc913b1bbb05f854948367e704e4587b1952528',
                              '99ff9bd69bb7b135b0d157cddabc3ee11324603429f547e9b16b9c0d401a8005',
                              'a2291ff45900aefefc0a9b234d1d39bab6d8b2104e790cbd09b7a45640b6735b']])}


@pytest.mark.parametrize("make", [make_gpulsm, make_sharded4])
def test_whole_tick_accounting_is_golden(make):
    per_kernel, clocks = run_ticks(make())
    want_kernels, want_clocks = GOLDEN[make.__name__]
    assert per_kernel == want_kernels
    assert clocks == want_clocks


@pytest.mark.parametrize("run", MORE_RUNS)
def test_whole_run_accounting_is_golden(run):
    assert run() == MORE_GOLDEN[run.__name__]


@pytest.mark.parametrize("make", FILTERED_MAKES)
def test_filtered_run_is_golden(make):
    assert run_filtered(make()) == FILTERED_GOLDEN[make.__name__]


if __name__ == "__main__":
    pprint.pprint(
        {make.__name__: run_ticks(make()) for make in (make_gpulsm, make_sharded4)},
        width=100, compact=True,
    )
    pprint.pprint({run.__name__: run() for run in MORE_RUNS}, width=100, compact=True)
    pprint.pprint(
        {make.__name__: run_filtered(make()) for make in FILTERED_MAKES},
        width=100, compact=True,
    )
