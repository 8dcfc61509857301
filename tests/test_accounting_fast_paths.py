"""The host's fixed price per launch and per region, pinned.

* ``Device.record_kernels`` — a kernel sequence recorded ``repeats`` times
  in one call — against the literal ``record_kernel`` loop it stands for:
  a Hypothesis property over random sequences and repeat counts, inside
  nested profiler regions, comparing the per-kernel aggregates, the
  totals, every region's deltas, the ordered launch log and the clock's
  hex;
* ``Profiler.region`` semantics: a body that raises records nothing, and
  nested regions each see their own deltas;
* same-process speed ratios (not wall-clock floors) of a region against
  the ``@contextmanager`` region it replaced and of ``record_radix_sort``
  against its literal per-pass records, both kept here as references, and
  a ``tracemalloc`` bound on the transient of a large filtered lookup.
"""

import contextlib
import dataclasses
import gc
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import LSMConfig
from repro.core.lsm import GPULSM
from repro.gpu.device import Device
from repro.gpu.profiler import ProfileRecord
from repro.gpu.spec import K40C_SPEC
from repro.primitives.histogram import BLOCK_HISTOGRAM_LAUNCH
from repro.primitives.radix_sort import RadixSortConfig, record_radix_sort

FIELDS = (
    "coalesced_read_bytes", "coalesced_write_bytes", "random_read_bytes",
    "random_write_bytes", "filter_read_bytes", "filter_write_bytes",
    "work_items", "launches",
)


def state(device):
    """Everything a device keeps: per-kernel aggregates in first-seen
    order, totals, clock hex, and every region's sums and last record."""
    last = device.profiler.last
    return (
        [dataclasses.astuple(k) for k in device.counter.per_kernel.values()],
        device.snapshot(),
        device.simulated_seconds.hex(),
        [(r.name, r.calls, r.items, r.coalesced_bytes, r.random_bytes,
          r.filter_bytes, r.launches) for r in device.profiler.by_name().values()],
        None if last is None else (last.name, last.calls, last.items, last.launches,
                                   last.coalesced_bytes, last.random_bytes,
                                   last.filter_bytes),
    )


# ---------------------------------------------------------------------- #
# A repeated sequence vs the literal record_kernel loop
# ---------------------------------------------------------------------- #
sizes = st.integers(0, 1 << 40)
launch_tuples = st.tuples(
    st.sampled_from(["a", "b", "c.d"]), sizes, sizes, sizes, sizes, sizes, sizes,
    st.integers(0, 1 << 20), st.integers(0, 3),
)


def literal_records(device, kernels, repeats):
    for _ in range(repeats):
        for name, *traffic in kernels:
            device.record_kernel(name, **dict(zip(FIELDS, traffic)))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    before=st.lists(launch_tuples, max_size=3),
    kernels=st.lists(launch_tuples, max_size=4),
    repeats=st.integers(0, 7),
)
def test_a_repeated_sequence_records_like_its_literal_launches(
    recording_device, before, kernels, repeats
):
    """Integer aggregates may be multiplied, but every launch's seconds
    are added one by one in launch order — ``repeats × seconds`` would
    round differently — so everything, the clock's last bit included,
    equals the literal loop's.  The recording device's log expands the
    sequence launch by launch."""
    devices = []
    for record in (literal_records, lambda d, k, r: d.record_kernels(k, r)):
        device = recording_device()
        literal_records(device, before, 1)
        with device.timed_region("outer", items=3):
            with device.timed_region("inner", items=repeats):
                record(device, kernels, repeats)
            device.record_kernel("after", coalesced_read_bytes=8)
        devices.append(device)
    want, got = devices
    assert got.launches == want.launches
    assert state(got) == state(want)


# ---------------------------------------------------------------------- #
# Profiler.region semantics
# ---------------------------------------------------------------------- #
def region_row(device, name):
    r = device.profiler.by_name()[name]
    return r.calls, r.items, r.coalesced_bytes, r.random_bytes, r.filter_bytes, r.launches


def test_a_region_whose_body_raises_records_nothing(device):
    with device.timed_region("kept", items=1):
        device.record_kernel("k", coalesced_read_bytes=64)
    with pytest.raises(RuntimeError):
        with device.timed_region("failed", items=5):
            device.record_kernel("k", random_read_bytes=32)
            raise RuntimeError("body failed")
    # The kernel itself was recorded; the region around it was not.
    assert device.counter.per_kernel["k"].launches == 2
    assert "failed" not in device.profiler.by_name()
    assert device.profiler.last.name == "kept"
    with pytest.raises(RuntimeError):
        with device.timed_region("kept", items=7):
            raise RuntimeError("again")
    assert region_row(device, "kept") == (1, 1, 64, 0, 0, 1)


def test_nested_regions_each_see_their_own_deltas(device):
    """A sharded operation's region around its shards' regions: the outer
    one sums everything recorded while it was open, each inner one its
    own share, and ``last`` is whichever closed most recently."""
    with device.timed_region("sharded", items=10):
        device.record_kernel("route", coalesced_read_bytes=100)
        for shard in range(2):
            with device.timed_region("shard", items=4 + shard):
                device.record_kernel("probe", random_read_bytes=32 << shard, launches=2)
            assert device.profiler.last.name == "shard"
            assert device.profiler.last.random_bytes == 32 << shard
        device.record_kernel("merge", filter_read_bytes=16)
    assert region_row(device, "shard") == (2, 9, 0, 96, 0, 4)
    assert region_row(device, "sharded") == (1, 10, 100, 96, 16, 6)
    last = device.profiler.last
    assert (last.name, last.calls, last.items, last.launches) == ("sharded", 1, 10, 6)
    assert list(device.profiler.by_name()) == ["shard", "sharded"]


# ---------------------------------------------------------------------- #
# Speed ratios against the references
# ---------------------------------------------------------------------- #
@contextlib.contextmanager
def reference_region(profiler, name, items=0):
    """The region as a ``@contextmanager``: a counter snapshot on entry, a
    ``CounterSnapshot`` of the deltas and a ``ProfileRecord`` per call on
    exit, summed into the name's record."""
    counter = profiler._counter
    before = counter.snapshot()
    wall_before = time.perf_counter()
    yield
    wall_delta = time.perf_counter() - wall_before
    delta = counter.since(before)
    last = ProfileRecord(
        name=name, cost_model=profiler._cost_model, calls=1, items=items,
        coalesced_bytes=delta.coalesced_bytes, random_bytes=delta.random_bytes,
        filter_bytes=delta.filter_bytes, launches=delta.launches,
        wall_seconds=wall_delta,
    )
    total = profiler._by_name.get(name)
    if total is None:
        total = profiler._by_name[name] = ProfileRecord(name, profiler._cost_model)
    total.calls += last.calls
    total.items += last.items
    total.coalesced_bytes += last.coalesced_bytes
    total.random_bytes += last.random_bytes
    total.filter_bytes += last.filter_bytes
    total.launches += last.launches
    total.wall_seconds += last.wall_seconds


def reference_record_radix_sort(device, num_items, key_dtype, value_dtype, config):
    """``record_radix_sort`` as three ``record_kernel`` calls per digit
    pass."""
    key_dtype = np.dtype(key_dtype)
    key_bits = key_dtype.itemsize * 8
    end_bit = key_bits if config.end_bit is None else min(config.end_bit, key_bits)
    begin_bit = min(config.begin_bit, end_bit)
    key_bytes = num_items * key_dtype.itemsize
    payload_bytes = key_bytes + (
        num_items * np.dtype(value_dtype).itemsize if value_dtype is not None else 0
    )
    num_blocks = -(-num_items // BLOCK_HISTOGRAM_LAUNCH.tile_size)
    for shift in range(begin_bit, end_bit, config.digit_bits):
        hist_items = num_blocks << min(config.digit_bits, end_bit - shift)
        hist_bytes = hist_items * 8
        device.record_kernel(
            "histogram.block_digit", coalesced_read_bytes=key_bytes,
            coalesced_write_bytes=hist_bytes, work_items=num_items,
        )
        device.record_kernel(
            "radix_sort.scan", coalesced_read_bytes=hist_bytes,
            coalesced_write_bytes=hist_bytes, work_items=hist_items,
        )
        device.record_kernel(
            "radix_sort.scatter", coalesced_read_bytes=payload_bytes,
            random_write_bytes=payload_bytes, work_items=num_items,
        )


def best_of(repeats, call, number=2000):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("config", [RadixSortConfig(), RadixSortConfig(end_bit=31)])
def test_radix_sort_records_like_its_reference(recording_device, config):
    devices = []
    for record in (reference_record_radix_sort, record_radix_sort):
        device = recording_device()
        record(device, 1024, np.uint32, np.uint32, config)
        devices.append(device)
    assert devices[1].launches == devices[0].launches
    assert state(devices[1]) == state(devices[0])


def test_accounting_stays_on_its_fast_paths():
    """A same-process ratio, not a wall-clock floor, best of 5 each: a
    region against the ``@contextmanager`` reference (measured 5.3x) and
    a 32-bit key-value sort's records against the literal passes
    (measured 2.6x).  A silent fall back — a region that allocates its records
    again, a sort that records pass by pass — reads about 1x whatever the
    box."""
    device = Device(K40C_SPEC, seed=1)
    profiler = device.profiler

    def region():
        with profiler.region("r", items=1):
            pass

    def reference():
        with reference_region(profiler, "r", items=1):
            pass

    region_ratio = best_of(5, reference) / best_of(5, region)
    key, value, config = np.dtype(np.uint32), np.dtype(np.uint32), RadixSortConfig()
    sort_ratio = best_of(
        5, lambda: reference_record_radix_sort(device, 4096, key, value, config), 500
    ) / best_of(5, lambda: record_radix_sort(device, 4096, key, value, config), 500)
    assert region_ratio >= 2.5, f"a region only {region_ratio:.2f}x the @contextmanager"
    assert sort_ratio >= 2.0, f"radix sort records only {sort_ratio:.2f}x the literal passes"


def test_a_large_filtered_lookup_keeps_its_probe_transient_blocked():
    """A 2**18-key lookup on a fence + Bloom store peaks at about 68 bytes
    per query (sorted copy, order, hashes, answers and O(1) probe blocks);
    expanding the batch's ``k × n`` probe positions at once — the
    once-per-batch shortcut a small batch takes — reads about 250."""
    lsm = GPULSM(
        config=LSMConfig(batch_size=4096, enable_fences=True, bloom_bits_per_key=10),
        device=Device(K40C_SPEC, seed=1),
    )
    rng = np.random.default_rng(0)
    for _ in range(7):
        keys = rng.integers(0, 1 << 30, 4096).astype(np.uint32)
        lsm.insert(keys, keys)
    queries = rng.integers(0, 1 << 31, 1 << 18).astype(np.uint32)
    lsm.build_pending_filters()  # the words a first read would build
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lsm.lookup(queries)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 96 * queries.size, f"{peak / queries.size:.0f} bytes per query"
