"""Golden accounting: execution may change, the recorded kernels may not.

Two kinds of pin:

* the radix sort against the *literal-pass* LSD sort it replaced, kept
  here as the reference: identical outputs, an identical ordered kernel
  log (every field of every record) and a bit-identical simulated clock;
* whole ticks of the default update-heavy mix on ``GPULSM(4096)`` and
  ``ShardedLSM(4, 4096)``: the per-kernel aggregates of every device and
  the simulated clocks, as literals captured on the commit before the
  hot primitives stopped executing what they only need to account for
  (``python tests/test_accounting_golden.py`` prints them).
"""

import dataclasses
import pprint

import numpy as np
import pytest

from repro.bench.wallclock import make_prefill
from repro.bench.workloads import MixedOpConfig, make_mixed_batches
from repro.core.lsm import GPULSM
from repro.gpu.device import Device
from repro.gpu.spec import K40C_SPEC
from repro.primitives.histogram import block_histograms
from repro.primitives.radix_sort import (
    RadixSortConfig,
    radix_sort_keys,
    radix_sort_pairs,
)
from repro.primitives.scan import exclusive_scan
from repro.scale import ShardedLSM
from repro.serve.engine import Engine


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


def assert_sorts_like_the_literal_passes(keys, values, config):
    ref_device, device = Device(K40C_SPEC, seed=1), Device(K40C_SPEC, seed=1)
    ref_keys, ref_values = reference_sort_passes(keys, values, config, ref_device)
    if values is None:
        out_keys = radix_sort_keys(keys, config=config, device=device)
    else:
        out_keys, out_values = radix_sort_pairs(keys, values, config=config, device=device)
        assert np.array_equal(out_values, ref_values)
        assert out_values.dtype == ref_values.dtype
    assert np.array_equal(out_keys, ref_keys)
    assert out_keys.dtype == ref_keys.dtype
    assert [dataclasses.astuple(k) for k in device.counter.log] == [
        dataclasses.astuple(k) for k in ref_device.counter.log
    ]
    assert device.simulated_seconds.hex() == ref_device.simulated_seconds.hex()


@pytest.mark.parametrize("n", [0, 1, 255, 4096, 4097])
@pytest.mark.parametrize("begin_bit,end_bit", BIT_RANGES)
@pytest.mark.parametrize("digit_bits", [4, 8, 11])
@pytest.mark.parametrize("pairs", [False, True], ids=["keys", "pairs"])
def test_radix_sort_matches_literal_passes(pairs, digit_bits, begin_bit, end_bit, n):
    rng = np.random.default_rng(n * 31 + digit_bits)
    keys = rng.integers(0, 1 << 32, n, dtype=np.uint64).astype(np.uint32)
    # Duplicates under most bit ranges, so stability is observable.
    keys[: n // 2] &= np.uint32(0xFFFF00FF)
    values = np.arange(n, dtype=np.uint32) if pairs else None
    assert_sorts_like_the_literal_passes(
        keys,
        values,
        RadixSortConfig(digit_bits=digit_bits, begin_bit=begin_bit, end_bit=end_bit),
    )


def test_radix_sort_64_bit_keys_match_literal_passes():
    rng = np.random.default_rng(5)
    assert_sorts_like_the_literal_passes(
        rng.integers(0, 1 << 63, 1000, dtype=np.uint64),
        np.arange(1000, dtype=np.uint32),
        RadixSortConfig(digit_bits=11, begin_bit=7),
    )


# ---------------------------------------------------------------------- #
# Whole-tick goldens
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


def run_ticks(backend):
    """Seven prefill batches, then 16 default-mix ticks through the inline
    engine; returns the devices' aggregates and clocks."""
    for keys, values in make_prefill(TICK, PREFILL_BATCHES):
        backend.insert(keys, values)
    engine = Engine(backend)
    batches = make_mixed_batches(
        MixedOpConfig(num_ops=TICKS * TICK, tick_size=TICK, seed=SEED,
                      expected_range_width=8)
    )
    for batch in batches:
        engine.apply(batch)
    engine.close()
    shards = getattr(backend, "shards", None)
    devices = (
        [backend.device] if shards is None
        else [backend.router_device] + [s.device for s in shards]
    )
    return (
        [aggregates(d) for d in devices],
        [d.simulated_seconds.hex() for d in devices],
    )


def make_gpulsm():
    return GPULSM(batch_size=TICK, device=Device(K40C_SPEC, seed=1))


def make_sharded4():
    return ShardedLSM(4, batch_size=TICK, seed=1)


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


@pytest.mark.parametrize("make", [make_gpulsm, make_sharded4])
def test_whole_tick_accounting_is_golden(make):
    per_kernel, clocks = run_ticks(make())
    want_kernels, want_clocks = GOLDEN[make.__name__]
    assert per_kernel == want_kernels
    assert clocks == want_clocks


if __name__ == "__main__":
    pprint.pprint(
        {make.__name__: run_ticks(make()) for make in (make_gpulsm, make_sharded4)},
        width=100, compact=True,
    )
