"""The mixed tick's one-sort update path and in-place RANGE layout against
the passes they replaced, kept here as references.

* ``reference_apply_update_segment`` — an update segment as it ran before
  it was sorted once: ``reference_canonical_updates`` sorts by key to keep
  one operation per key, then sorts the surviving insertions back into
  arrival order; every chunk goes to the store in that column order, and
  the store (``reference_sort_update_run``) radix-sorts the padded batch
  again — the sharded router sorts and de-duplicates the columns again
  too.  Now the planner hands every store ascending key columns, which it
  merges.  Padded copies are stored, so the references pin the stored
  rows, not only the answers: every level's words and values, every
  device's ordered launch log and clock, in both consistency modes, on
  ``GPULSM``, ``ShardedLSM(4)`` and the two baselines without a mixed
  entry point, over insert-only, delete-only, mixed, partial and
  larger-than-``b`` segments.
* ``reference_range_columns`` — ``ResultBatch``'s RANGE columns as the
  executor built them before: every segment's rows scattered to their
  request-order offsets in one ragged pass.  Range segments are served in
  ascending request order and every other row has width 0, so the rows
  now land by concatenation; the property compares both layouts over
  SNAPSHOT and many-run STRICT ticks, empty ranges, key-only stores and a
  backend without RANGE support.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.api.planner as planner
import repro.core.lsm as lsm_mod
import repro.scale.sharded as sharded_mod
from repro.api.ops import OpBatch, OpCode, ResultStatus
from repro.api.planner import Consistency, execute
from repro.baselines.cuckoo_hash import CuckooHashTable
from repro.baselines.sorted_array import GPUSortedArray
from repro.core.lsm import GPULSM
from repro.gpu.device import Device
from repro.primitives.radix_sort import stable_order
from repro.scale import ShardedLSM
from repro.scale.protocol import UnsupportedOperationError, supports

B = 16
KEY_DOMAIN = 256


# ---------------------------------------------------------------------- #
# References
# ---------------------------------------------------------------------- #
def reference_canonical_updates(batch, indices, arrival_order):
    """The canonicalisation before it sorted once: the survivors in arrival
    order (strict), or the deleted keys ascending and then the surviving
    insertions in arrival order (paper mode, a second sort)."""
    codes = batch.opcodes[indices]
    keys = batch.keys[indices]
    values = batch.values[indices]
    is_delete = codes == OpCode.DELETE
    boundary = np.ones(keys.size, dtype=bool)
    if arrival_order:
        order = stable_order(keys)
        sorted_keys = keys[order]
        boundary[:-1] = sorted_keys[1:] != sorted_keys[:-1]
        survivors = np.sort(order[boundary])
        return is_delete[survivors], keys[survivors], values[survivors]
    order = np.concatenate((np.flatnonzero(is_delete), np.flatnonzero(~is_delete)))
    order = order[stable_order(keys[order])]
    sorted_keys = keys[order]
    boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
    survivors = order[boundary]
    deleting = is_delete[survivors]
    deleted = keys[survivors[deleting]]
    ins_pos = np.sort(survivors[~deleting])
    out_is_delete = np.concatenate(
        (np.ones(deleted.size, dtype=bool), np.zeros(ins_pos.size, dtype=bool))
    )
    out_keys = np.concatenate((deleted, keys[ins_pos]))
    out_values = np.concatenate((np.zeros(deleted.size, dtype=values.dtype), values[ins_pos]))
    return out_is_delete, out_keys, out_values


def reference_apply_update_segment(backend, batch, segment, acc, arrival_order, device):
    """The update segment before it was sorted once: chunks of the
    reference column order, insertions before deletions in every call."""
    indices = segment.indices
    codes = batch.opcodes[indices]
    key_only = bool(getattr(backend, "key_only", False))
    kept = np.ones(indices.size, dtype=bool)
    for code, name in ((OpCode.INSERT, "insert"), (OpCode.DELETE, "delete")):
        rows = codes == code
        if np.any(rows) and not supports(backend, name):
            acc.mark_unsupported(
                indices[rows],
                UnsupportedOperationError(
                    f"the backend does not support {name.upper()} operations"
                ),
            )
            kept &= ~rows
    indices = indices[kept]
    if indices.size == 0:
        return
    is_delete, keys, values = reference_canonical_updates(batch, indices, arrival_order)
    payload = int(indices.size) * (batch.keys.dtype.itemsize + batch.values.dtype.itemsize)
    device.record_kernel(
        "api.update.canonicalise",
        coalesced_read_bytes=2 * payload,
        coalesced_write_bytes=payload + int(keys.size) * 16,
        work_items=int(indices.size),
    )
    chunk = int(getattr(backend, "batch_size", 0)) or keys.size
    for start in range(0, keys.size, chunk):
        stop = min(start + chunk, keys.size)
        dels = keys[start:stop][is_delete[start:stop]]
        ins = keys[start:stop][~is_delete[start:stop]]
        ins_values = None if key_only else values[start:stop][~is_delete[start:stop]]
        if hasattr(backend, "update"):
            backend.update(
                insert_keys=ins if ins.size else None,
                insert_values=ins_values if ins.size else None,
                delete_keys=dels if dels.size else None,
            )
            continue
        if dels.size:
            backend.delete(dels)
        if ins.size:
            if key_only:
                backend.insert(ins)
            else:
                backend.insert(ins, ins_values)


def reference_sort_update_run(run, num_insertions, device):
    """The store's radix sort of every update batch, whatever its order."""
    return run.sort(device=device)


def reference_range_columns(size, chunks):
    """``(range_offsets, range_keys, range_values)`` as the executor built
    them before: ``chunks`` holds one ``(indices, widths, keys, values)``
    per served RANGE segment, scattered in one ragged pass."""
    widths = np.zeros(size, dtype=np.int64)
    for idx, chunk_widths, _, _ in chunks:
        widths[idx] = chunk_widths
    offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    total = int(offsets[-1])
    range_keys = np.zeros(total, dtype=np.uint64)
    range_values = (
        np.zeros(total, dtype=np.uint64)
        if any(values is not None for _, _, _, values in chunks)
        else None
    )
    if total and chunks:
        idx_all = np.concatenate([idx for idx, _, _, _ in chunks])
        keys_all = np.concatenate([keys for _, _, keys, _ in chunks])
        base, src_starts = 0, []
        for _, chunk_widths, keys, _ in chunks:
            src_starts.append(np.cumsum(chunk_widths) - chunk_widths + base)
            base += keys.size
        src_start = np.concatenate(src_starts)
        row_widths = widths[idx_all]
        within = np.arange(int(row_widths.sum())) - np.repeat(
            np.cumsum(row_widths) - row_widths, row_widths
        )
        dest = np.repeat(offsets[idx_all], row_widths) + within
        src = np.repeat(src_start, row_widths) + within
        range_keys[dest] = keys_all[src]
        if range_values is not None:
            values_all = np.concatenate([values for _, _, _, values in chunks])
            range_values[dest] = values_all[src]
    return offsets, range_keys, range_values


# ---------------------------------------------------------------------- #
# Stores and ticks
# ---------------------------------------------------------------------- #
def make_store(kind, key_only, recording_class):
    if kind == "gpulsm":
        return GPULSM(batch_size=B, device=recording_class(seed=1), key_only=key_only)
    if kind == "sharded":
        return ShardedLSM(4, batch_size=B, key_only=key_only, key_domain=KEY_DOMAIN, seed=1)
    if kind == "sorted_array":
        return GPUSortedArray(device=recording_class(seed=1), key_only=key_only)
    return CuckooHashTable(device=recording_class(seed=1))


def devices_of(store):
    shards = getattr(store, "shards", None)
    if shards is None:
        return [store.device]
    return [store.router_device] + [shard.device for shard in shards]


def stored_rows(store):
    """Every level's words and values (every shard's, on a sharded store);
    the live columns of a baseline."""
    if isinstance(store, CuckooHashTable):
        return [(store.table_keys.copy(), store.table_values.copy())]
    if isinstance(store, GPUSortedArray):
        return [(store.keys.copy(), None if store.values is None else store.values.copy())]
    rows = []
    for shard in getattr(store, "shards", None) or [store]:
        for level in shard.occupied_levels():
            rows.append((level.index, level.keys.copy(),
                         None if level.values is None else level.values.copy()))
    return rows


MIXES = {
    "insert-only": {OpCode.INSERT: 1.0},
    "delete-only": {OpCode.DELETE: 1.0},
    "mixed": {OpCode.INSERT: 0.45, OpCode.DELETE: 0.2, OpCode.LOOKUP: 0.15,
              OpCode.COUNT: 0.1, OpCode.RANGE: 0.1},
}


def make_tick(rng, size, mix, key_domain=KEY_DOMAIN, max_width=8):
    """One tick: opcodes from ``mix``, keys from a small domain (every key
    inserted and deleted several times), a distinct value per row."""
    codes = np.array(list(mix), dtype=np.uint8)
    weights = np.array(list(mix.values()))
    opcodes = rng.choice(codes, size=size, p=weights / weights.sum()).astype(np.uint8)
    keys = rng.integers(0, key_domain, size).astype(np.uint64)
    values = rng.permutation(size).astype(np.uint64) + 1
    ends = np.minimum(keys + rng.integers(0, max_width, size).astype(np.uint64), key_domain - 1)
    return OpBatch(opcodes, keys, values, ends)


def run_ticks(kind, key_only, consistency, ticks, reference, recording_class):
    """Run ``ticks`` on a fresh store through the references or the
    current passes; returns the answers and everything observable."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sharded_mod, "Device", recording_class)
        if reference:
            patch.setattr(planner, "_apply_update_segment", reference_apply_update_segment)
            patch.setattr(lsm_mod, "sort_update_run", reference_sort_update_run)
            patch.setattr(sharded_mod, "sort_update_run", reference_sort_update_run)
        store = make_store(kind, key_only, recording_class)
        answers = []
        for tick in ticks:
            result = execute(tick, store, consistency=consistency)
            answers.append((
                result.statuses, result.found, result.values, result.counts,
                result.range_offsets, result.range_keys, result.range_values,
            ))
        devices = devices_of(store)
        return answers, stored_rows(store), (
            [device.launches for device in devices],
            [device.simulated_seconds.hex() for device in devices],
        )


def assert_same_columns(got, want):
    assert len(got) == len(want)
    for got_columns, want_columns in zip(got, want):
        for got_column, want_column in zip(got_columns, want_columns):
            if want_column is None or isinstance(want_column, int):
                assert got_column == want_column
            else:
                assert np.array_equal(got_column, want_column)
                assert got_column.dtype == want_column.dtype


def assert_update_path_unchanged(recording_device, kind, key_only, consistency, ticks):
    recording_class = type(recording_device())
    want = run_ticks(kind, key_only, consistency, ticks, True, recording_class)
    got = run_ticks(kind, key_only, consistency, ticks, False, recording_class)
    assert_same_columns(got[0], want[0])
    assert_same_columns(got[1], want[1])
    assert got[2] == want[2]


# ---------------------------------------------------------------------- #
# The update path
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("consistency", list(Consistency))
@pytest.mark.parametrize("kind,key_only", [
    ("gpulsm", False), ("gpulsm", True), ("sharded", False), ("sharded", True),
    ("sorted_array", False), ("cuckoo", False),
])
@pytest.mark.parametrize("segment,mix,size", [
    ("insert-only", "insert-only", 12),
    ("delete-only", "delete-only", 12),
    ("mixed", "mixed", 24),
    ("partial", "mixed", 6),
    ("larger-than-b", "mixed", 96),
    ("larger-than-b insert-only", "insert-only", 80),
])
def test_update_segments_store_what_the_sort_twice_path_stored(
    recording_device, consistency, kind, key_only, segment, mix, size
):
    """A fresh store, then ticks of one segment shape: the stored rows —
    padding copies included — the launches and the clocks are the ones
    the sort-twice path left."""
    rng = np.random.default_rng(size + len(segment))
    prefill = make_tick(rng, 2 * B, MIXES["insert-only"])
    ticks = [prefill] + [make_tick(rng, size, MIXES[mix]) for _ in range(6)]
    assert_update_path_unchanged(recording_device, kind, key_only, consistency, ticks)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["gpulsm", "sharded"]),
    key_only=st.booleans(),
    consistency=st.sampled_from(list(Consistency)),
    shapes=st.lists(
        st.tuples(st.integers(1, 80), st.sampled_from(sorted(MIXES)), st.integers(2, KEY_DOMAIN)),
        min_size=1, max_size=8,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_any_update_script_stores_what_the_sort_twice_path_stored(
    recording_device, kind, key_only, consistency, shapes, seed
):
    """Ticks of any size (below, at and past ``b``), mix and key spread —
    a narrow domain makes every key recur."""
    rng = np.random.default_rng(seed)
    ticks = [make_tick(rng, size, MIXES[mix], key_domain=domain) for size, mix, domain in shapes]
    assert_update_path_unchanged(recording_device, kind, key_only, consistency, ticks)


def test_the_mixed_stream_stores_what_the_sort_twice_path_stored(recording_device):
    """The e2e mixed stream's shape at a small scale: 4096-row ticks of the
    default mix over the full key space, on ``GPULSM(1024)``."""
    from repro.bench.workloads import MixedOpConfig, make_mixed_batches

    ticks = make_mixed_batches(MixedOpConfig(num_ops=4 * 1024, tick_size=1024, seed=3))
    recording_class = type(recording_device())
    results = []
    for reference in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if reference:
                patch.setattr(planner, "_apply_update_segment", reference_apply_update_segment)
                patch.setattr(lsm_mod, "sort_update_run", reference_sort_update_run)
            store = GPULSM(batch_size=1024, device=recording_class(seed=1))
            answers = [execute(tick, store) for tick in ticks]
            results.append((
                [(a.found, a.values, a.counts, a.range_keys) for a in answers],
                stored_rows(store), store.device.launches,
                store.device.simulated_seconds.hex(),
            ))
    want, got = results
    assert_same_columns(got[0], want[0])
    assert_same_columns(got[1], want[1])
    assert got[2:] == want[2:]


# ---------------------------------------------------------------------- #
# The RANGE layout
# ---------------------------------------------------------------------- #
def served_range_chunks(store, tick, consistency):
    """Execute ``tick`` and note every served RANGE segment's indices,
    widths and payload columns."""
    chunks = []
    serve = planner._run_query_segment

    def noting(backend, batch, segment, acc):
        before = len(acc.range_chunks)
        serve(backend, batch, segment, acc)
        if len(acc.range_chunks) > before:
            keys, values = acc.range_chunks[-1]
            idx = segment.indices
            chunks.append((idx, acc.range_widths[idx].copy(), keys, values))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner, "_run_query_segment", noting)
        result = execute(tick, store, consistency=consistency)
    return result, chunks


RANGE_MIXES = {
    "ranges": {OpCode.RANGE: 1.0},
    "alternating": {OpCode.INSERT: 0.3, OpCode.DELETE: 0.1, OpCode.RANGE: 0.4,
                    OpCode.COUNT: 0.1, OpCode.LOOKUP: 0.1},
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["gpulsm", "sharded", "cuckoo"]),
    key_only=st.booleans(),
    consistency=st.sampled_from(list(Consistency)),
    mix=st.sampled_from(sorted(RANGE_MIXES)),
    size=st.integers(1, 120),
    max_width=st.sampled_from([1, 8, KEY_DOMAIN]),
    seed=st.integers(0, 2**32 - 1),
)
def test_range_rows_land_where_the_ragged_scatter_put_them(
    kind, key_only, consistency, mix, size, max_width, seed
):
    """A prefilled store (or an empty one, so every range is empty), then
    ticks whose RANGE rows — many segments in STRICT — come back in the
    columns the ragged scatter built, dtypes included; the cuckoo table
    serves no RANGE at all."""
    rng = np.random.default_rng(seed)
    store = make_store(kind, key_only, Device)
    if seed % 3:
        execute(make_tick(rng, 3 * B, MIXES["insert-only"]), store)
    for _ in range(3):
        tick = make_tick(rng, size, RANGE_MIXES[mix], max_width=max_width)
        result, chunks = served_range_chunks(store, tick, consistency)
        offsets, keys, values = reference_range_columns(tick.size, chunks)
        assert np.array_equal(result.range_offsets, offsets)
        assert np.array_equal(result.range_keys, keys)
        assert result.range_keys.dtype == keys.dtype
        if values is None:
            assert result.range_values is None
        else:
            assert np.array_equal(result.range_values, values)
            assert result.range_values.dtype == values.dtype
        if kind == "cuckoo":
            ranges = tick.opcodes == OpCode.RANGE
            assert np.all(result.statuses[ranges] == ResultStatus.UNSUPPORTED)

