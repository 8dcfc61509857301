"""Probe-order invariance: the order queries *execute* in is a host detail.

LOOKUP, COUNT and RANGE probe the levels in ascending key order whatever
order the batch arrived in.  That may change wall time only: every
answer must equal a per-key scalar oracle, and ``filter_stats()``, the
device's per-kernel aggregates and the simulated clock must equal the
values of the commit that still probed in arrival order (the literals
below; ``python tests/test_probe_order.py`` prints them) — and must not
move when the same queries arrive shuffled.
"""

import dataclasses
import pprint

import numpy as np
import pytest

from repro.core.config import LSMConfig
from repro.core.lsm import GPULSM
from repro.gpu.device import Device
from repro.gpu.spec import K40C_SPEC

BATCH = 32
NUM_BATCHES = 27  # 0b11011: four occupied levels
KEY_SPACE = 2048

CONFIGS = [
    (filters, sort_queries) for filters in (False, True) for sort_queries in (False, True)
]


def build(filters, sort_queries):
    """A store with stale duplicates and tombstones spread over four
    levels, plus the dict it must answer like."""
    config = LSMConfig(
        batch_size=BATCH,
        enable_fences=filters,
        bloom_bits_per_key=10 if filters else 0,
        sort_queries=sort_queries,
    )
    lsm = GPULSM(config=config, device=Device(K40C_SPEC, seed=1))
    rng = np.random.default_rng(11)
    oracle = {}
    for b in range(NUM_BATCHES):
        num_deletes = 8 if b % 3 == 2 else 0
        keys = rng.choice(KEY_SPACE, size=BATCH, replace=False)
        inserts, deletes = keys[num_deletes:], keys[:num_deletes]
        if num_deletes:
            # Delete keys that exist, so tombstones shadow older levels.
            deletes = rng.choice(sorted(oracle), size=num_deletes, replace=False)
            inserts = np.setdiff1d(inserts, deletes)
        values = inserts * 7 + b
        lsm.update(
            insert_keys=inserts.astype(np.uint32),
            insert_values=values.astype(np.uint32),
            delete_keys=deletes.astype(np.uint32),
        )
        for k in deletes:
            oracle.pop(int(k), None)
        for k, v in zip(inserts, values):
            oracle[int(k)] = int(v)
    lsm.device.reset_counters()
    return lsm, oracle


def query_shapes(oracle):
    """``(name, keys, range ends)`` per batch shape; the keys serve as
    LOOKUP keys and as COUNT/RANGE starts."""
    rng = np.random.default_rng(13)
    live = np.array(sorted(oracle))
    mixed = np.concatenate([rng.choice(live, 40), rng.integers(0, KEY_SPACE, 40)])
    widths = rng.integers(0, 64, mixed.size)
    shapes = [
        ("duplicates", np.concatenate([mixed, mixed[:30], mixed[:30]])),
        ("all_equal", np.full(50, live[live.size // 2])),
        ("sorted", np.sort(mixed)),
        ("reversed", np.sort(mixed)[::-1].copy()),
        ("single", mixed[:1]),
    ]
    out = []
    for name, keys in shapes:
        # Kernels that read the query batch charge its width: cover both.
        k1 = keys.astype(np.uint64 if name == "duplicates" else np.uint32)
        w = np.resize(widths, k1.size)
        k2 = np.minimum(k1.astype(np.int64) + w, KEY_SPACE - 1)
        out.append((name, k1, np.maximum(k1, k2).astype(k1.dtype)))
    return out


def check_answers(lsm, oracle, name, keys, k2):
    live = sorted(oracle)
    result = lsm.lookup(keys)
    counts = lsm.count(keys, k2)
    ranges = lsm.range_query(keys, k2)
    for i, key in enumerate(keys.tolist()):
        assert bool(result.found[i]) == (key in oracle), (name, i)
        if key in oracle:
            assert int(result.values[i]) == oracle[key], (name, i)
    for i, (lo, hi) in enumerate(zip(keys.tolist(), k2.tolist())):
        want = [k for k in live if lo <= k <= hi]
        assert int(counts[i]) == len(want), (name, i)
        got_keys, got_values = ranges.query_slice(i)
        assert got_keys.tolist() == want, (name, i)
        assert got_values.tolist() == [oracle[k] for k in want], (name, i)


def accounting(lsm):
    per_kernel = {
        name: dataclasses.astuple(k)[1:]
        for name, k in sorted(lsm.device.counter.per_kernel.items())
    }
    return per_kernel, lsm.filter_stats(), lsm.device.simulated_seconds.hex()


def run_shapes(filters, sort_queries, shuffle_seed=None):
    lsm, oracle = build(filters, sort_queries)
    for name, keys, k2 in query_shapes(oracle):
        if shuffle_seed is not None:
            perm = np.random.default_rng(shuffle_seed).permutation(keys.size)
            keys, k2 = keys[perm], k2[perm]
        check_answers(lsm, oracle, name, keys, k2)
    return accounting(lsm)


#: ``{(filters, sort_queries): (per-kernel aggregates, filter_stats(), clock)}``
#: captured on the parent commit (see the module docstring).
GOLDEN = {(False, False): ({'compact.scan_flags': (40176, 40176, 0, 0, 0, 0, 5022, 5),
                   'compact.segment_offsets': (2808, 2848, 0, 0, 0, 0, 351, 5),
                   'lsm.count.segmented_sort': (40176, 20088, 0, 0, 0, 0, 5022, 20),
                   'lsm.lookup.lower_bound': (5100, 10200, 238240, 0, 0, 0, 1275, 20),
                   'lsm.query.count_valid': (5022, 2808, 0, 0, 0, 0, 5022, 5),
                   'lsm.query.gather': (60264, 60264, 0, 0, 0, 0, 10044, 10),
                   'lsm.query.lower_bound': (11232, 22464, 539136, 0, 0, 0, 2808, 40),
                   'lsm.query.scan': (22464, 22464, 0, 0, 0, 0, 2808, 10),
                   'lsm.query.upper_bound': (11232, 22464, 539136, 0, 0, 0, 2808, 40),
                   'lsm.query.validate': (40176, 10044, 0, 0, 0, 0, 10044, 10),
                   'lsm.range.compact': (25110, 14244, 0, 0, 0, 0, 5022, 5),
                   'lsm.range.compact.values': (25110, 14244, 0, 0, 0, 0, 5022, 5),
                   'lsm.range.segmented_sort': (80352, 40176, 0, 0, 0, 0, 5022, 20)},
                  {'bloom_false_positive_rate': 0.0,
                   'bloom_false_positives': 0,
                   'bloom_prune_rate': 0.0,
                   'bloom_pruned': 0,
                   'fence_prune_rate': 0.0,
                   'fence_pruned': 0,
                   'filter_memory_bytes': 0,
                   'lookup_pairs': 1275,
                   'lookup_prune_rate': 0.0,
                   'range_fence_pruned': 0,
                   'range_pairs': 2808,
                   'range_prune_rate': 0.0,
                   'searched': 1275,
                   'searched_fraction': 1.0},
                  '0x1.0a28dce8adad4p-10'),
 (False, True): ({'compact.scan_flags': (40176, 40176, 0, 0, 0, 0, 5022, 5),
                  'compact.segment_offsets': (2808, 2848, 0, 0, 0, 0, 351, 5),
                  'histogram.block_digit': (5600, 32768, 0, 0, 0, 0, 1400, 16),
                  'lsm.count.segmented_sort': (40176, 20088, 0, 0, 0, 0, 5022, 20),
                  'lsm.lookup.lower_bound': (5100, 10200, 27488, 0, 0, 0, 1275, 20),
                  'lsm.lookup.scatter_results': (1750, 0, 0, 1750, 0, 0, 350, 4),
                  'lsm.query.count_valid': (5022, 2808, 0, 0, 0, 0, 5022, 5),
                  'lsm.query.gather': (60264, 60264, 0, 0, 0, 0, 10044, 10),
                  'lsm.query.lower_bound': (11232, 22464, 539136, 0, 0, 0, 2808, 40),
                  'lsm.query.scan': (22464, 22464, 0, 0, 0, 0, 2808, 10),
                  'lsm.query.upper_bound': (11232, 22464, 539136, 0, 0, 0, 2808, 40),
                  'lsm.query.validate': (40176, 10044, 0, 0, 0, 0, 10044, 10),
                  'lsm.range.compact': (25110, 14244, 0, 0, 0, 0, 5022, 5),
                  'lsm.range.compact.values': (25110, 14244, 0, 0, 0, 0, 5022, 5),
                  'lsm.range.segmented_sort': (80352, 40176, 0, 0, 0, 0, 5022, 20),
                  'radix_sort.scan': (32768, 32768, 0, 0, 0, 0, 4096, 16),
                  'radix_sort.scatter': (11200, 0, 0, 11200, 0, 0, 1400, 16)},
                 {'bloom_false_positive_rate': 0.0,
                  'bloom_false_positives': 0,
                  'bloom_prune_rate': 0.0,
                  'bloom_pruned': 0,
                  'fence_prune_rate': 0.0,
                  'fence_pruned': 0,
                  'filter_memory_bytes': 0,
                  'lookup_pairs': 1275,
                  'lookup_prune_rate': 0.0,
                  'range_fence_pruned': 0,
                  'range_pairs': 2808,
                  'range_prune_rate': 0.0,
                  'searched': 1275,
                  'searched_fraction': 1.0},
                 '0x1.4d01ba6632783p-10'),
 (True, False): ({'compact.scan_flags': (40176, 40176, 0, 0, 0, 0, 5022, 5),
                  'compact.segment_offsets': (2808, 2848, 0, 0, 0, 0, 351, 5),
                  'lsm.count.segmented_sort': (40176, 20088, 0, 0, 0, 0, 5022, 20),
                  'lsm.lookup.bloom': (6864, 1242, 0, 0, 30640, 0, 1242, 20),
                  'lsm.lookup.fence': (7056, 1275, 0, 0, 0, 0, 1275, 0),
                  'lsm.lookup.lower_bound': (1088, 2176, 63168, 0, 0, 0, 272, 14),
                  'lsm.query.count_valid': (5022, 2808, 0, 0, 0, 0, 5022, 5),
                  'lsm.query.fence': (31424, 2808, 0, 0, 0, 0, 2808, 0),
                  'lsm.query.gather': (60264, 60264, 0, 0, 0, 0, 10044, 10),
                  'lsm.query.lower_bound': (11032, 22064, 531456, 0, 0, 0, 2758, 40),
                  'lsm.query.scan': (22464, 22464, 0, 0, 0, 0, 2808, 10),
                  'lsm.query.upper_bound': (11032, 22064, 531456, 0, 0, 0, 2758, 40),
                  'lsm.query.validate': (40176, 10044, 0, 0, 0, 0, 10044, 10),
                  'lsm.range.compact': (25110, 14244, 0, 0, 0, 0, 5022, 5),
                  'lsm.range.compact.values': (25110, 14244, 0, 0, 0, 0, 5022, 5),
                  'lsm.range.segmented_sort': (80352, 40176, 0, 0, 0, 0, 5022, 20)},
                 {'bloom_false_positive_rate': 0.051470588235294115,
                  'bloom_false_positives': 14,
                  'bloom_prune_rate': 0.7607843137254902,
                  'bloom_pruned': 970,
                  'fence_prune_rate': 0.02588235294117647,
                  'fence_pruned': 33,
                  'filter_memory_bytes': 1144,
                  'lookup_pairs': 1275,
                  'lookup_prune_rate': 0.7866666666666666,
                  'range_fence_pruned': 50,
                  'range_pairs': 2808,
                  'range_prune_rate': 0.017806267806267807,
                  'searched': 272,
                  'searched_fraction': 0.21333333333333335},
                 '0x1.1b38b9a6f612dp-10'),
 (True, True): ({'compact.scan_flags': (40176, 40176, 0, 0, 0, 0, 5022, 5),
                 'compact.segment_offsets': (2808, 2848, 0, 0, 0, 0, 351, 5),
                 'histogram.block_digit': (5600, 32768, 0, 0, 0, 0, 1400, 16),
                 'lsm.count.segmented_sort': (40176, 20088, 0, 0, 0, 0, 5022, 20),
                 'lsm.lookup.bloom': (4968, 1242, 0, 0, 30640, 0, 1242, 20),
                 'lsm.lookup.fence': (5100, 1275, 0, 0, 0, 0, 1275, 0),
                 'lsm.lookup.lower_bound': (1088, 2176, 12896, 0, 0, 0, 272, 14),
                 'lsm.lookup.scatter_results': (1750, 0, 0, 1750, 0, 0, 350, 4),
                 'lsm.query.count_valid': (5022, 2808, 0, 0, 0, 0, 5022, 5),
                 'lsm.query.fence': (31424, 2808, 0, 0, 0, 0, 2808, 0),
                 'lsm.query.gather': (60264, 60264, 0, 0, 0, 0, 10044, 10),
                 'lsm.query.lower_bound': (11032, 22064, 531456, 0, 0, 0, 2758, 40),
                 'lsm.query.scan': (22464, 22464, 0, 0, 0, 0, 2808, 10),
                 'lsm.query.upper_bound': (11032, 22064, 531456, 0, 0, 0, 2758, 40),
                 'lsm.query.validate': (40176, 10044, 0, 0, 0, 0, 10044, 10),
                 'lsm.range.compact': (25110, 14244, 0, 0, 0, 0, 5022, 5),
                 'lsm.range.compact.values': (25110, 14244, 0, 0, 0, 0, 5022, 5),
                 'lsm.range.segmented_sort': (80352, 40176, 0, 0, 0, 0, 5022, 20),
                 'radix_sort.scan': (32768, 32768, 0, 0, 0, 0, 4096, 16),
                 'radix_sort.scatter': (11200, 0, 0, 11200, 0, 0, 1400, 16)},
                {'bloom_false_positive_rate': 0.051470588235294115,
                 'bloom_false_positives': 14,
                 'bloom_prune_rate': 0.7607843137254902,
                 'bloom_pruned': 970,
                 'fence_prune_rate': 0.02588235294117647,
                 'fence_pruned': 33,
                 'filter_memory_bytes': 1144,
                 'lookup_pairs': 1275,
                 'lookup_prune_rate': 0.7866666666666666,
                 'range_fence_pruned': 50,
                 'range_pairs': 2808,
                 'range_prune_rate': 0.017806267806267807,
                 'searched': 272,
                 'searched_fraction': 0.21333333333333335},
                '0x1.5f3fd7b60b5d1p-10')}


@pytest.mark.parametrize("filters,sort_queries", CONFIGS)
def test_answers_and_accounting_match_arrival_order_probing(filters, sort_queries):
    assert run_shapes(filters, sort_queries) == GOLDEN[(filters, sort_queries)]


@pytest.mark.parametrize("filters,sort_queries", CONFIGS)
def test_arrival_order_leaks_into_no_counter(filters, sort_queries):
    assert run_shapes(filters, sort_queries, shuffle_seed=3) == GOLDEN[
        (filters, sort_queries)
    ]


if __name__ == "__main__":
    pprint.pprint({c: run_shapes(*c) for c in CONFIGS}, width=100, compact=True)
