"""KVStore mixed-operation semantics against a pure-python oracle.

The oracle executes the same :class:`OpBatch` on a plain Python dict under
both consistency knobs: *snapshot* (the tick's queries answer from the
pre-tick state; the tick's updates collapse to the paper's one-op-per-key
canonical batch — a deletion dominates, the first insertion wins) and
*strict* (each operation observes every update before it in arrival
order).  Every backend that supports the operations must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    Consistency,
    KVStore,
    Op,
    OpBatch,
    OpCode,
    ResultStatus,
    SnapshotViolationError,
)
from repro.baselines.cuckoo_hash import CuckooHashTable
from repro.baselines.sorted_array import GPUSortedArray
from repro.bench.runner import PAPER_INSERTION_ELEMENTS, scaled_spec
from repro.bench.workloads import MixedOpConfig, make_mixed_batches
from repro.core.config import LSMConfig
from repro.core.lsm import GPULSM
from repro.gpu.device import Device
from repro.gpu.spec import K40C_SPEC
from repro.scale.protocol import simulated_seconds
from repro.scale.sharded import ShardedLSM

KEY_SPACE = 48  # small on purpose: maximises duplicate/delete interactions


# ---------------------------------------------------------------------- #
# Pure-python reference executor
# ---------------------------------------------------------------------- #
def _answer(op, state):
    if op.code is OpCode.LOOKUP:
        return ("lookup", state.get(op.key))
    if op.code is OpCode.COUNT:
        return ("count", sum(1 for k in state if op.key <= k <= op.range_end))
    return (
        "range",
        sorted((k, v) for k, v in state.items() if op.key <= k <= op.range_end),
    )


def reference_apply(state, batch, consistency):
    """Expected per-op answers; mutates ``state`` like the tick would."""
    ops = list(batch)
    expected = [None] * len(ops)
    if consistency is Consistency.STRICT:
        for i, op in enumerate(ops):
            if op.code is OpCode.INSERT:
                state[op.key] = op.value
            elif op.code is OpCode.DELETE:
                state.pop(op.key, None)
            else:
                expected[i] = _answer(op, state)
        return expected

    snapshot = dict(state)
    for i, op in enumerate(ops):
        if op.code.is_query:
            expected[i] = _answer(op, snapshot)
    deleted = {op.key for op in ops if op.code is OpCode.DELETE}
    first_insert = {}
    for op in ops:
        if op.code is OpCode.INSERT and op.key not in first_insert:
            first_insert[op.key] = op.value
    for key in deleted:
        state.pop(key, None)
    for key, value in first_insert.items():
        if key not in deleted:
            state[key] = value
    return expected


def assert_matches(result, expected):
    for i, exp in enumerate(expected):
        res = result.result(i)
        assert res.ok, f"op {i} not ok: {res}"
        if exp is None:
            continue
        kind, want = exp
        if kind == "lookup":
            if want is None:
                assert not res.found, f"op {i}: unexpected hit"
            else:
                assert res.found and res.value == want, f"op {i}"
        elif kind == "count":
            assert res.count == want, f"op {i}"
        else:
            got = [(int(k), int(v)) for k, v in zip(res.keys, res.values)]
            assert got == want, f"op {i}"
            assert res.count == len(want)


BACKENDS = {
    "gpulsm": lambda: GPULSM(
        config=LSMConfig(batch_size=8), device=Device(K40C_SPEC, seed=0)
    ),
    "sharded1": lambda: ShardedLSM(
        num_shards=1, batch_size=16, key_domain=KEY_SPACE
    ),
    "sharded4": lambda: ShardedLSM(
        num_shards=4, batch_size=16, key_domain=KEY_SPACE
    ),
    "sorted_array": lambda: GPUSortedArray(device=Device(K40C_SPEC, seed=0)),
}

key_st = st.integers(min_value=0, max_value=KEY_SPACE - 1)
value_st = st.integers(min_value=0, max_value=10_000)
op_st = st.one_of(
    st.builds(Op.insert, key_st, value_st),
    st.builds(Op.delete, key_st),
    st.builds(Op.lookup, key_st),
    st.tuples(key_st, key_st).map(lambda t: Op.count(min(t), max(t))),
    st.tuples(key_st, key_st).map(lambda t: Op.range_query(min(t), max(t))),
)
ticks_st = st.lists(
    st.lists(op_st, min_size=0, max_size=24), min_size=1, max_size=3
)


class TestMixedBatchOracle:
    """Hypothesis oracle: random mixed ticks vs the python dict."""

    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    @pytest.mark.parametrize(
        "consistency", [Consistency.SNAPSHOT, Consistency.STRICT]
    )
    @settings(max_examples=20, deadline=None)
    @given(ticks=ticks_st)
    def test_apply_matches_python_dict(self, backend_name, consistency, ticks):
        store = KVStore(backend=BACKENDS[backend_name](), consistency=consistency)
        state = {}
        for ops in ticks:
            batch = OpBatch.from_ops(ops)
            expected = reference_apply(state, batch, consistency)
            assert_matches(store.apply(batch), expected)
        # Post-trace state agrees too (via the legacy surface).
        queries = np.arange(KEY_SPACE, dtype=np.uint64)
        res = store.lookup(queries)
        for k in range(KEY_SPACE):
            if k in state:
                assert res.found[k] and int(res.values[k]) == state[k]
            else:
                assert not res.found[k]

    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    def test_duplicate_heavy_mixed_tick(self, backend_name):
        """Rules 4 and 6 of Section III-A inside one snapshot tick."""
        store = KVStore(backend=BACKENDS[backend_name]())
        store.apply(OpBatch.inserts(np.array([7]), np.array([70])))
        tick = OpBatch.from_ops(
            [
                Op.insert(1, 11),   # first insertion of 1 wins ...
                Op.insert(1, 99),   # ... not this one (rule 4)
                Op.lookup(7),       # snapshot: pre-tick state
                Op.insert(2, 22),
                Op.delete(2),       # deletion dominates the tick (rule 6)
                Op.delete(7),
                Op.insert(7, 77),   # even when the insert arrives later
                Op.count(0, KEY_SPACE - 1),
            ]
        )
        res = store.apply(tick)
        assert res.result(2).found and res.result(2).value == 70
        assert res.result(7).count == 1  # only key 7 existed pre-tick
        after = store.lookup(np.array([1, 2, 7], dtype=np.uint64))
        assert list(after.found) == [True, False, False]
        assert int(after.values[0]) == 11

    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    def test_strict_tick_follows_arrival_order(self, backend_name):
        store = KVStore(backend=BACKENDS[backend_name]())
        tick = OpBatch.from_ops(
            [
                Op.insert(4, 40),
                Op.lookup(4),        # sees the preceding insert
                Op.delete(4),
                Op.lookup(4),        # sees the preceding delete
                Op.insert(4, 44),    # resurrect: last write wins
                Op.lookup(4),
            ]
        )
        res = store.apply(tick, consistency=Consistency.STRICT)
        assert res.result(1).found and res.result(1).value == 40
        assert not res.result(3).found
        assert res.result(5).found and res.result(5).value == 44
        assert bool(store.lookup(np.array([4])).found[0])


class TestSnapshotReads:
    """Acceptance regression: reads within a tick never observe that
    tick's writes under SNAPSHOT — and do observe preceding writes under
    STRICT — for every query kind."""

    def _store(self):
        return KVStore(batch_size=8, device=Device(K40C_SPEC, seed=0))

    def test_snapshot_reads_do_not_observe_the_ticks_writes(self):
        store = self._store()
        store.apply(OpBatch.inserts(np.array([10]), np.array([1])))
        tick = OpBatch.from_ops(
            [
                Op.insert(20, 2),
                Op.lookup(20),            # not yet visible
                Op.delete(10),
                Op.lookup(10),            # still visible
                Op.count(0, 47),          # pre-tick population
                Op.range_query(0, 47),    # pre-tick pairs
            ]
        )
        res = store.apply(tick, consistency=Consistency.SNAPSHOT)
        assert not res.result(1).found
        assert res.result(3).found and res.result(3).value == 1
        assert res.result(4).count == 1
        assert list(res.result(5).keys) == [10]
        # After the tick both writes are visible.
        after = store.lookup(np.array([10, 20], dtype=np.uint64))
        assert list(after.found) == [False, True]

    def test_strict_reads_observe_preceding_writes_only(self):
        store = self._store()
        tick = OpBatch.from_ops(
            [
                Op.lookup(5),            # nothing yet
                Op.insert(5, 50),
                Op.count(0, 47),         # observes the insert
                Op.range_query(0, 47),
                Op.delete(5),
                Op.count(0, 47),         # observes the delete
            ]
        )
        res = store.apply(tick, consistency=Consistency.STRICT)
        assert not res.result(0).found
        assert res.result(2).count == 1
        assert list(res.result(3).keys) == [5]
        assert res.result(5).count == 0

    def test_store_level_default_knob_is_honoured(self):
        snap = KVStore(batch_size=8, device=Device(K40C_SPEC, seed=0))
        strict = KVStore(
            batch_size=8,
            device=Device(K40C_SPEC, seed=1),
            consistency=Consistency.STRICT,
        )
        tick = [Op.insert(1, 10), Op.lookup(1)]
        assert not snap.apply(OpBatch.from_ops(tick)).result(1).found
        assert strict.apply(OpBatch.from_ops(tick)).result(1).found

    def test_sharded_snapshot_reads_pin_per_shard_epochs(self):
        backend = ShardedLSM(num_shards=4, batch_size=16, key_domain=KEY_SPACE)
        store = KVStore(backend=backend)
        store.apply(
            OpBatch.inserts(
                np.arange(KEY_SPACE, dtype=np.uint64),
                np.arange(KEY_SPACE, dtype=np.uint64),
            )
        )
        epochs_before = backend.shard_epochs
        assert len(epochs_before) == 4 and sum(epochs_before) == backend.epoch
        tick = OpBatch.concat(
            [
                OpBatch.deletes(np.arange(KEY_SPACE, dtype=np.uint64)),
                OpBatch.counts(np.array([0]), np.array([KEY_SPACE - 1])),
            ]
        )
        res = store.apply(tick)
        assert res.result(KEY_SPACE).count == KEY_SPACE  # pre-tick state
        assert backend.shard_epochs > epochs_before  # the cascade ran after


class _SneakyBackend:
    """Delegates to a GPULSM but slips a cascade in during the *first*
    lookup — exactly the interleaving the epoch pin must catch (and a
    retried tick must then survive)."""

    def __init__(self, inner):
        self._inner = inner
        self._sneaked = False

    def supported_operations(self):
        return GPULSM.supported_operations()

    @property
    def epoch(self):
        return self._inner.epoch

    def insert(self, keys, values=None):
        self._inner.insert(keys, values)

    def delete(self, keys):
        self._inner.delete(keys)

    def update(self, **kwargs):
        self._inner.update(**kwargs)

    def lookup(self, query_keys):
        if query_keys.size and not self._sneaked:
            self._sneaked = True
            self._inner.insert(
                np.array([40], dtype=np.uint64), np.array([1], dtype=np.uint64)
            )
        return self._inner.lookup(query_keys)

    def count(self, k1, k2):
        return self._inner.count(k1, k2)

    def range_query(self, k1, k2):
        return self._inner.range_query(k1, k2)


class TestEpochPinning:
    def test_interleaved_cascade_raises_snapshot_violation(self):
        inner = GPULSM(config=LSMConfig(batch_size=8), device=Device(K40C_SPEC, seed=0))
        store = KVStore(backend=_SneakyBackend(inner))
        with pytest.raises(SnapshotViolationError, match="level set changed"):
            store.apply(OpBatch.from_ops([Op.insert(1, 10), Op.lookup(2)]))

    def test_mutations_bump_the_epoch(self):
        lsm = GPULSM(config=LSMConfig(batch_size=8), device=Device(K40C_SPEC, seed=0))
        assert lsm.epoch == 0
        lsm.insert(np.arange(8, dtype=np.uint32), np.arange(8, dtype=np.uint32))
        assert lsm.epoch == 1
        lsm.lookup(np.array([1], dtype=np.uint32))
        lsm.count(np.array([0]), np.array([7]))
        assert lsm.epoch == 1  # queries never move it
        lsm.cleanup()
        assert lsm.epoch == 2


class TestUnsupportedSegments:
    def test_cuckoo_ordered_queries_fail_per_op_not_per_batch(self):
        table = CuckooHashTable(device=Device(K40C_SPEC, seed=0))
        store = KVStore(backend=table)
        store.bulk_build(
            np.array([1, 2], dtype=np.uint64), np.array([10, 20], dtype=np.uint64)
        )
        tick = OpBatch.from_ops(
            [
                Op.lookup(1),
                Op.count(0, 5),
                Op.insert(3, 30),
                Op.range_query(0, 5),
                Op.lookup(2),
            ]
        )
        res = store.apply(tick)
        assert not res.ok
        assert res.result(0).found and res.result(0).value == 10
        assert res.result(4).found and res.result(4).value == 20
        assert res.result(2).ok  # the insert still applied ...
        assert bool(store.lookup(np.array([3], dtype=np.uint64)).found[0])
        for bad in (1, 3):
            r = res.result(bad)
            assert r.status is ResultStatus.UNSUPPORTED
            assert r.error is not None and "support" in str(r.error)
        with pytest.raises(Exception, match="COUNT"):
            res.raise_for_status()

    def test_supported_operations_passthrough(self):
        store = KVStore(backend=CuckooHashTable(device=Device(K40C_SPEC, seed=0)))
        ops = store.supported_operations()
        assert "lookup" in ops and "count" not in ops
        lsm_store = KVStore(batch_size=8, device=Device(K40C_SPEC, seed=0))
        assert "range_query" in lsm_store.supported_operations()


class TestSessions:
    def test_tickets_resolve_after_commit(self):
        store = KVStore(batch_size=8, device=Device(K40C_SPEC, seed=0))
        session = store.session()
        t_ins = session.insert(5, 55)
        t_look = session.lookup(5)
        with pytest.raises(RuntimeError, match="not committed"):
            t_look.result()
        assert session.num_pending == 2
        result = session.commit()
        assert session.num_pending == 0 and session.ticks_committed == 1
        assert len(result) == 2
        assert t_ins.result().ok
        assert not t_look.result().found  # snapshot: pre-tick state
        # Tickets from earlier ticks keep resolving after later commits.
        t_look2 = session.lookup(5)
        session.commit()
        assert t_look2.result().found and t_look2.result().value == 55
        assert not t_look.result().found
        assert store.ticks == 2

    def test_failed_commit_keeps_ops_pending_and_tickets_valid(self):
        inner = GPULSM(config=LSMConfig(batch_size=8), device=Device(K40C_SPEC, seed=0))
        store = KVStore(backend=_SneakyBackend(inner))
        session = store.session()
        ticket = session.insert(1, 111)
        session.lookup(2)  # triggers the sneaky mid-read cascade
        with pytest.raises(SnapshotViolationError):
            session.commit()
        # Nothing was recorded, the ops stay pending, the ticket unresolved.
        assert session.num_pending == 2 and session.ticks_committed == 0
        assert not ticket.committed
        # A retried commit resolves the original ticket against its own op.
        result = session.commit(consistency=Consistency.STRICT)
        assert len(result) == 2
        assert ticket.result().op.key == 1 and ticket.result().ok

    def test_empty_commit_is_a_pure_no_op(self):
        """Zero pending ops: no planner tick, no epoch bump, empty result."""
        store = KVStore(batch_size=8, device=Device(K40C_SPEC, seed=0))
        store.apply(OpBatch.inserts(np.array([1]), np.array([10])))
        session = store.session()
        ticks_before, epoch_before = store.ticks, store.epoch
        result = session.commit()
        assert len(result) == 0 and result.ok
        assert store.ticks == ticks_before  # no planner tick ran
        assert store.epoch == epoch_before  # no epoch bump
        assert session.ticks_committed == 0  # nothing recorded
        # Ticket arithmetic stays aligned: the next real commit resolves.
        ticket = session.lookup(1)
        session.commit()
        assert ticket.result().found and ticket.result().value == 10
        assert store.ticks == ticks_before + 1

    def test_extend_enqueues_a_columnar_batch(self):
        store = KVStore(batch_size=8, device=Device(K40C_SPEC, seed=0))
        session = store.session()
        tickets = session.extend(
            OpBatch.inserts(np.array([1, 2]), np.array([10, 20]))
        )
        t = session.count(0, 10)
        session.commit()
        assert [tk.result().ok for tk in tickets] == [True, True]
        assert t.result().count == 0  # pre-tick snapshot
        assert int(store.count(np.array([0]), np.array([10]))[0]) == 2


class TestFacadeBasics:
    def test_apply_rejects_non_batches(self):
        store = KVStore(batch_size=8, device=Device(K40C_SPEC, seed=0))
        with pytest.raises(TypeError, match="OpBatch"):
            store.apply([Op.lookup(1)])

    def test_empty_tick_is_a_no_op(self):
        store = KVStore(batch_size=8, device=Device(K40C_SPEC, seed=0))
        res = store.apply(OpBatch.empty())
        assert len(res) == 0 and res.ok
        assert store.ticks == 1

    def test_legacy_surface_still_works(self):
        store = KVStore(batch_size=8, device=Device(K40C_SPEC, seed=0))
        store.bulk_build(np.arange(8, dtype=np.uint32), np.arange(8, dtype=np.uint32))
        assert int(store.count(np.array([0]), np.array([7]))[0]) == 8
        store.delete(np.array([3], dtype=np.uint32))
        assert not store.lookup(np.array([3], dtype=np.uint32)).found[0]
        rr = store.range_query(np.array([0]), np.array([7]))
        assert rr.counts[0] == 7
        assert store.epoch == 2

    def test_key_only_backend_reports_no_values(self):
        store = KVStore(
            batch_size=8, device=Device(K40C_SPEC, seed=0), key_only=True
        )
        res = store.apply(
            OpBatch.concat(
                [
                    OpBatch.inserts(np.array([1, 2, 3])),
                    OpBatch.lookups(np.array([2, 9])),
                    OpBatch.ranges(np.array([0]), np.array([9])),
                ]
            ),
            consistency=Consistency.STRICT,
        )
        assert res.result(3).found and not res.result(4).found
        # No value column exists: the mixed path must not fabricate zeros
        # where the per-method surface reports None.
        assert res.values is None and res.range_values is None
        assert res.result(3).value is None
        rng = res.result(5)
        assert list(rng.keys) == [1, 2, 3] and rng.values is None

    def test_updates_larger_than_the_backend_batch_are_chunked(self):
        store = KVStore(batch_size=8, device=Device(K40C_SPEC, seed=0))
        n = 40  # five backend batches in one tick
        keys = np.arange(n, dtype=np.uint64)
        res = store.apply(OpBatch.inserts(keys, keys * 3))
        assert res.ok
        out = store.lookup(keys)
        assert out.found.all()
        assert np.array_equal(out.values, (keys * 3).astype(out.values.dtype))


class TestMixedTickPays:
    """One :class:`OpBatch` tick folds its insertions and deletions into one
    canonical cascade and serves each query kind with one bulk pass; the
    same traffic split into homogeneous per-method calls pays two padded
    update cascades.  The stream is 16 ticks of 1024 mixed operations on a
    device scaled to that size."""

    @pytest.mark.parametrize("num_shards", [None, 4], ids=["gpulsm", "sharded4"])
    def test_one_tick_beats_the_segregated_calls(self, num_shards):
        num_ops, tick = 1 << 14, 1 << 10
        batches = make_mixed_batches(
            MixedOpConfig(num_ops=num_ops, tick_size=tick, seed=0xC0FFEE)
        )
        spec = scaled_spec(num_ops, PAPER_INSERTION_ELEMENTS)

        def backend():
            if num_shards is None:
                return GPULSM(batch_size=tick, device=Device(spec, seed=1))
            return ShardedLSM(num_shards, batch_size=tick, spec=spec, seed=1)

        store, segregated = KVStore(backend=backend()), backend()
        issued = 0
        for batch in batches:
            store.apply(batch)
            keys, ends = batch.keys, batch.range_ends
            for code, call, columns in (
                (OpCode.INSERT, segregated.insert, (keys, batch.values)),
                (OpCode.DELETE, segregated.delete, (keys,)),
                (OpCode.LOOKUP, segregated.lookup, (keys,)),
                (OpCode.COUNT, segregated.count, (keys, ends)),
                (OpCode.RANGE, segregated.range_query, (keys, ends)),
            ):
                mask = batch.opcodes == code
                if mask.any():
                    call(*(column[mask] for column in columns))
                    issued += int(mask.sum())
        assert store.stats().ops_completed == issued == num_ops
        # Equal op totals, so the rate ratio is the inverse clock ratio.
        assert simulated_seconds(segregated) > 1.05 * simulated_seconds(store.backend)
