"""Bloom words are built when a reader first needs them, recorded at fill.

A level's filters are recorded (``lsm.filters.build``) and fenced when the
level is filled, but its Bloom words wait until the store serves its first
read; from then on each new level is built at fill time.  Every test runs
a store next to an *eager twin* — the same store with
``build_pending_filters()`` called after every step, which is what every
store did before the words were deferred — and checks that nothing anyone
can observe differs: answers, every device record and clock, the filter
statistics and memory, and the words themselves, byte for byte.

The serving engine builds whatever an ingest or a recovery left pending
when it opens, so its first tick hashes nothing, and the threaded
engine's builds happen on its executor thread.
"""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.ops import OpBatch
from repro.core.config import LSMConfig
from repro.core.filters import BloomFilter
from repro.core.lsm import GPULSM
from repro.durability import DurabilityConfig, EveryNTicks
from repro.gpu.device import Device
from repro.gpu.spec import K40C_SPEC
from repro.scale import ShardedLSM
from repro.serve.engine import Engine

FILTERS = dict(enable_fences=True, bloom_bits_per_key=10)
DOMAIN = 1 << 10
BATCH = 16


def make_gpulsm():
    return GPULSM(
        config=LSMConfig(batch_size=BATCH, **FILTERS), device=Device(K40C_SPEC, seed=1)
    )


def make_sharded4():
    return ShardedLSM(4, batch_size=BATCH, key_domain=DOMAIN, seed=1, **FILTERS)


MAKES = pytest.mark.parametrize(
    "make", [make_gpulsm, make_sharded4], ids=["gpulsm", "sharded4"]
)


# ---------------------------------------------------------------------- #
# Observing a store
# ---------------------------------------------------------------------- #
def stores_of(store):
    return getattr(store, "shards", None) or [store]


def devices_of(store):
    shards = getattr(store, "shards", None)
    if shards is None:
        return [store.device]
    return (
        [store.router_device]
        + [shard.device for shard in shards]
        + list(store._spare_devices)
    )


def blooms_of(store):
    """Every occupied level's Bloom filter, shard by shard."""
    return [
        level.filters.bloom
        for shard in stores_of(store)
        for level in shard.occupied_levels()
        if level.filters is not None and level.filters.bloom is not None
    ]


def observe(store):
    """Everything but the words — and reading it must build none."""
    return (
        store.filter_stats(),
        store.filter_memory_bytes,
        store.memory_usage_bytes,
        [
            (
                {n: dataclasses.astuple(k) for n, k in d.counter.per_kernel.items()},
                d.simulated_seconds.hex(),
            )
            for d in devices_of(store)
        ],
    )


def built_words(store):
    """The words of every level built so far (``None`` for a pending one)."""
    return [b.words.tobytes() if b.built else None for b in blooms_of(store)]


def all_words(store):
    return [b.words.tobytes() for b in blooms_of(store)]


@pytest.fixture
def adds(monkeypatch):
    """Every :meth:`BloomFilter.add` call as ``(filter, #keys, thread)``."""
    calls = []
    add = BloomFilter.add

    def counting_add(self, keys):
        calls.append((self, np.asarray(keys).size, threading.current_thread().name))
        add(self, keys)

    monkeypatch.setattr(BloomFilter, "add", counting_add)
    return calls


def ingest(store, seed, batches, eager=False):
    """``batches`` update batches (inserts and a few deletes); ``eager``
    builds the pending words after each, as the eager twin does."""
    rng = np.random.default_rng(seed)
    for _ in range(batches):
        keys = rng.integers(0, DOMAIN, BATCH).astype(np.uint32)
        store.update(insert_keys=keys[:13], insert_values=keys[:13] * 3,
                     delete_keys=keys[13:])
        if eager:
            store.build_pending_filters()
    return store


def read(store, op, rng_seed=5):
    rng = np.random.default_rng(rng_seed)
    k1 = rng.integers(0, DOMAIN, 64).astype(np.uint32)
    if op == "lookup":
        r = store.lookup(k1)
        return r.found.tolist(), r.values.tolist()
    k2 = np.minimum(k1 + 40, DOMAIN - 1).astype(np.uint32)
    if op == "count":
        return store.count(k1, k2).tolist()
    r = store.range_query(k1, k2)
    return r.offsets.tolist(), r.keys.tolist(), r.values.tolist()


# ---------------------------------------------------------------------- #
# Ingest, first read, later pushes
# ---------------------------------------------------------------------- #
@MAKES
def test_ingest_hashes_nothing_and_records_what_the_eager_twin_does(make, adds):
    store = ingest(make(), 1, 127)
    assert adds == []
    twin = ingest(make(), 1, 127, eager=True)
    assert adds
    assert blooms_of(store) and not any(b.built for b in blooms_of(store))
    assert observe(store) == observe(twin)
    assert observe(store)[0]["filter_memory_bytes"] > 0


@MAKES
@pytest.mark.parametrize("op", ["lookup", "count", "range"])
def test_first_read_builds_each_level_once(make, adds, op):
    store, twin = ingest(make(), 2, 127), ingest(make(), 2, 127, eager=True)
    del adds[:]
    assert read(store, op) == read(twin, op)
    blooms = blooms_of(store)
    assert sorted(map(id, (call[0] for call in adds))) == sorted(map(id, blooms))
    assert all(b.built for b in blooms)
    assert all_words(store) == all_words(twin)
    assert observe(store) == observe(twin)
    del adds[:]
    read(store, op, rng_seed=6)
    assert adds == []


@MAKES
def test_pushes_after_a_read_build_at_fill(make, adds):
    store = ingest(make(), 3, 5)
    read(store, "lookup")
    for seed in range(6):
        del adds[:]
        ingest(store, seed, 1)
        assert adds, "a push after a read built no words"
        assert all(b.built for b in blooms_of(store))


@MAKES
def test_size_readers_build_no_words(make, adds):
    store = ingest(make(), 5, 31)
    store.filter_stats()
    store.filter_memory_bytes
    store.memory_usage_bytes
    store.snapshot_state()
    assert adds == []
    assert not any(b.built for b in blooms_of(store))


# ---------------------------------------------------------------------- #
# Any script, against the eager twin
# ---------------------------------------------------------------------- #
def restored_copy(store):
    """A fresh store loaded from ``store``'s snapshot (recovery's path)."""
    state = store.snapshot_state()
    if not hasattr(store, "shards"):
        fresh = make_gpulsm()
        fresh.restore_state(state)
        return fresh
    fresh = make_sharded4()
    fresh.restore_boundaries(state["bounds"])
    for shard, sub in zip(fresh.shards, state["shards"]):
        shard.restore_state(sub)
    return fresh


def run_step(store, step):
    """Apply one step; returns its answer (``None`` for a mutation) and
    the store to carry on with."""
    kind, *args = step
    if kind in ("insert", "delete", "rollback"):
        keys = np.array(args[0], dtype=np.uint32)
        state = store.snapshot_state() if kind == "rollback" else None
        if kind == "delete":
            store.delete(keys)
        else:
            store.insert(keys, keys * np.uint32(3))
        if state is not None:
            store.rollback_to(state)
    elif kind == "lookup":
        r = store.lookup(np.array(args[0], dtype=np.uint32))
        return (r.found.tolist(), r.values.tolist()), store
    elif kind in ("count", "range"):
        n = min(len(args[0]), len(args[1]))
        a, b = np.array(args[0][:n]), np.array(args[1][:n])
        k1, k2 = np.minimum(a, b).astype(np.uint32), np.maximum(a, b).astype(np.uint32)
        if kind == "count":
            return store.count(k1, k2).tolist(), store
        r = store.range_query(k1, k2)
        return (r.offsets.tolist(), r.keys.tolist(), r.values.tolist()), store
    elif kind == "cleanup":
        store.cleanup()
    elif kind == "compact":
        store.compact_levels(args[0])
    elif kind == "restore":
        store = restored_copy(store)
    elif kind == "split" and hasattr(store, "shards") and store.num_shards < 32:
        s = args[0] % store.num_shards
        lo, hi = store.shard_range(s)
        if hi > lo:
            store.split_shard(s, lo + 1 + args[1] % (hi - lo))
    elif kind == "merge" and hasattr(store, "shards") and store.num_shards > 1:
        store.merge_shards(args[0] % (store.num_shards - 1))
    return None, store


keys_st = st.lists(st.integers(0, DOMAIN - 1), min_size=1, max_size=BATCH)
step_st = st.one_of(
    st.tuples(st.sampled_from(["insert", "delete", "lookup", "rollback"]), keys_st),
    st.tuples(st.sampled_from(["count", "range"]), keys_st, keys_st),
    st.tuples(st.sampled_from(["cleanup", "restore"])),
    st.tuples(st.just("compact"), st.integers(1, 3)),
    st.tuples(st.sampled_from(["split", "merge"]), st.integers(0, 31),
              st.integers(0, DOMAIN)),
)


@MAKES
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(prefill=st.integers(0, 15), steps=st.lists(step_st, max_size=12))
def test_any_script_matches_the_eager_twin(make, prefill, steps):
    store, twin = ingest(make(), prefill, prefill), ingest(make(), prefill, prefill, True)
    for step in steps:
        answer, store = run_step(store, step)
        twin_answer, twin = run_step(twin, step)
        twin.build_pending_filters()
        assert answer == twin_answer, step
        assert observe(store) == observe(twin), step
        words = built_words(store)
        assert [w for w in words if w is not None] == [
            t for w, t in zip(words, all_words(twin)) if w is not None
        ], step
        # A store (a shard) that has served a read has nothing pending.
        for shard in stores_of(store):
            if shard._build_filters_at_fill:
                assert all(b.built for b in blooms_of(shard)), step
        if answer is not None and not hasattr(store, "shards"):
            assert None not in words, step
    assert all_words(store) == all_words(twin)


# ---------------------------------------------------------------------- #
# The serving engine builds what is pending when it opens
# ---------------------------------------------------------------------- #
def lookup_tick():
    return OpBatch.lookups(np.arange(0, DOMAIN, 7, dtype=np.uint64))


@MAKES
def test_engine_over_an_ingested_store_opens_with_nothing_pending(make, adds):
    store = ingest(make(), 7, 63)
    engine = Engine(store)
    assert all(b.built for b in blooms_of(store))
    del adds[:]
    engine.apply(lookup_tick())
    assert adds == []
    engine.close()


@MAKES
def test_engine_over_a_recovered_store_opens_with_nothing_pending(
    make, adds, tmp_path
):
    config = DurabilityConfig(directory=str(tmp_path), snapshot_policy=EveryNTicks(3))
    engine = Engine(make(), durability=config)
    rng = np.random.default_rng(8)
    for _ in range(8):  # a snapshot, then WAL ticks replayed on top of it
        keys = rng.integers(0, DOMAIN, BATCH).astype(np.uint64)
        engine.apply(OpBatch.inserts(keys, keys * 3))
    engine.close()

    recovered = make()
    engine = Engine(recovered, durability=DurabilityConfig(directory=str(tmp_path)))
    assert engine.durability.recovery_report.replayed_ticks
    assert blooms_of(recovered) and all(b.built for b in blooms_of(recovered))
    del adds[:]
    engine.apply(lookup_tick())
    assert adds == []
    engine.close()


@MAKES
def test_threaded_engine_builds_on_its_executor_thread(make, adds):
    store = ingest(make(), 9, 15)
    engine = Engine(store).start()
    del adds[:]
    rng = np.random.default_rng(10)
    tickets = []
    for _ in range(12):
        keys = rng.integers(0, DOMAIN, BATCH).astype(np.uint64)
        tickets.append(engine.submit_batch(OpBatch.inserts(keys, keys * 3)))
        tickets.append(engine.submit_batch(lookup_tick()))
        engine.stats()
    for ticket in tickets:
        ticket.result(timeout=30)
    engine.close()
    assert adds
    assert {thread for _, _, thread in adds} == {"serve-executor"}
