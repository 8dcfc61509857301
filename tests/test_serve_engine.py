"""Serving-engine semantics: admission, tick formation, ticket ordering.

The deterministic anchor for every test is a pure-python oracle:

* **STRICT** consistency makes the engine's answers independent of where
  ticks are cut — operation *i* observes every update admitted before it —
  so any interleaving of clients must match a serial dict replay of the
  global submission order, whatever the scheduler does.
* **SNAPSHOT** consistency is tick-relative, so those tests pin the tick
  boundaries (huge target + huge linger, explicit ``flush`` per chunk) and
  replay the paper's batch semantics chunk by chunk (queries answer from
  the pre-tick state; a delete dominates the tick, the first insert wins).
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Consistency,
    Engine,
    EngineClosedError,
    EngineSaturatedError,
    KVStore,
    Op,
    OpBatch,
    OpCode,
    TickConfig,
    TickTrigger,
)
from repro.bench.workloads import MixedOpConfig, make_mixed_batches
from repro.core.config import LSMConfig
from repro.core.lsm import GPULSM
from repro.gpu.device import Device
from repro.gpu.spec import K40C_SPEC

KEY_SPACE = 48
WAIT = 10.0  # generous wall-clock bound for thread hand-offs


def _lsm(batch_size=64, seed=0):
    return GPULSM(
        config=LSMConfig(batch_size=batch_size), device=Device(K40C_SPEC, seed=seed)
    )


def _wait_until(predicate, timeout=WAIT):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return False


# ---------------------------------------------------------------------- #
# Oracles
# ---------------------------------------------------------------------- #
def _answer(op, state):
    if op.code is OpCode.LOOKUP:
        return ("lookup", state.get(op.key))
    if op.code is OpCode.COUNT:
        return ("count", sum(1 for k in state if op.key <= k <= op.range_end))
    return (
        "range",
        sorted(k for k in state if op.key <= k <= op.range_end),
    )


def _check(op, result, expected) -> None:
    if op.code in (OpCode.INSERT, OpCode.DELETE):
        assert result.ok
        return
    kind, want = expected
    if kind == "lookup":
        if want is None:
            assert not result.found
        else:
            assert result.found and result.value == want
    elif kind == "count":
        assert result.count == want
    else:
        assert [int(k) for k in result.keys] == want


def strict_oracle(ops, state):
    """Expected per-op answers under arrival order; mutates ``state``."""
    answers = []
    for op in ops:
        answers.append(_answer(op, state) if op.code.is_query else None)
        if op.code is OpCode.INSERT:
            state[op.key] = op.value
        elif op.code is OpCode.DELETE:
            state.pop(op.key, None)
    return answers


def snapshot_oracle(ops, state):
    """Expected answers for one tick under the paper's batch rules."""
    pre = dict(state)
    answers = [
        _answer(op, pre) if op.code.is_query else None for op in ops
    ]
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
    return answers


#: Operation strategy over a deliberately tiny key space (maximises
#: duplicate/delete interactions inside one tick).
_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(list(OpCode)),
        st.integers(0, KEY_SPACE - 1),
        st.integers(0, KEY_SPACE - 1),
        st.integers(0, 1 << 20),
    ).map(
        lambda t: (
            Op(t[0], min(t[1], t[2]), value=t[3], range_end=max(t[1], t[2]))
            if t[0] in (OpCode.COUNT, OpCode.RANGE)
            else Op(t[0], t[1], value=t[3])
        )
    ),
    min_size=1,
    max_size=48,
)


# ---------------------------------------------------------------------- #
# The scheduling policy (pure)
# ---------------------------------------------------------------------- #
class TestTickConfig:
    def test_dual_trigger(self):
        config = TickConfig(target_tick_size=8, linger=0.5)
        assert config.trigger(0, 99.0) is None
        assert config.trigger(8, 0.0) is TickTrigger.SIZE
        assert config.trigger(100, 0.0) is TickTrigger.SIZE
        assert config.trigger(3, 0.5) is TickTrigger.DEADLINE
        assert config.trigger(3, 0.1) is None
        assert config.time_until_deadline(0.1) == pytest.approx(0.4)

    def test_defaults_and_validation(self):
        assert TickConfig(target_tick_size=16).max_queue_depth == 64
        with pytest.raises(ValueError, match="target_tick_size"):
            TickConfig(target_tick_size=0)
        with pytest.raises(ValueError, match="linger"):
            TickConfig(linger=-1.0)
        with pytest.raises(ValueError, match="max_queue_depth"):
            TickConfig(target_tick_size=8, max_queue_depth=4)


# ---------------------------------------------------------------------- #
# Inline (single-client) path — the KVStore substrate
# ---------------------------------------------------------------------- #
class TestInlineApply:
    def test_apply_without_threads(self):
        engine = Engine(_lsm())
        keys = np.arange(16)
        assert engine.apply(OpBatch.inserts(keys, keys * 7)).ok
        res = engine.apply(OpBatch.lookups(np.array([3, 99])))
        assert res.result(0).value == 21 and not res.result(1).found
        stats = engine.stats()
        assert stats.ticks == 2 and stats.triggers == {"direct": 2}
        assert stats.ops_completed == 18 and stats.queue_depth == 0
        assert stats.simulated_seconds > 0
        assert stats.op_latency["p50"] <= stats.op_latency["p99"]

    def test_kvstore_is_a_view_over_its_engine(self):
        store = KVStore(batch_size=16, device=Device(K40C_SPEC, seed=0))
        store.apply(OpBatch.inserts(np.arange(4), np.arange(4)))
        assert store.ticks == 1 == store.engine.ticks
        assert store.stats().triggers == {"direct": 1}
        rows = store.stats().summary_rows()
        assert rows[0]["region"] == "serve.engine" and rows[0]["items"] == 4

    def test_submit_requires_a_running_engine(self):
        engine = Engine(_lsm())
        with pytest.raises(EngineClosedError, match="not running"):
            engine.submit(Op.lookup(1))


# ---------------------------------------------------------------------- #
# Threaded admission and tick formation
# ---------------------------------------------------------------------- #
class TestThreadedEngine:
    def test_size_trigger_forms_a_tick_without_flush(self):
        with Engine(
            _lsm(), TickConfig(target_tick_size=4, linger=60.0)
        ) as engine:
            tickets = [engine.submit(Op.insert(k, k)) for k in range(4)]
            results = [t.result(WAIT) for t in tickets]
            assert all(r.ok for r in results)
            lookup = engine.submit_batch(OpBatch.lookups(np.arange(4)))
            engine.flush(WAIT)
            assert list(lookup.result(WAIT).found) == [True] * 4
        stats = engine.stats()
        assert stats.triggers.get("size", 0) >= 1
        assert stats.ticks == 2 and stats.ops_completed == 8

    def test_deadline_trigger_bounds_latency_under_light_load(self):
        with Engine(
            _lsm(), TickConfig(target_tick_size=1 << 10, linger=0.02)
        ) as engine:
            ticket = engine.submit(Op.insert(7, 70))
            assert ticket.result(WAIT).ok  # resolved by the linger deadline
        assert engine.stats().triggers.get("deadline", 0) >= 1

    def test_close_drains_and_rejects_new_submissions(self):
        engine = Engine(_lsm(), TickConfig(target_tick_size=1 << 10, linger=60.0))
        engine.start()
        tickets = [engine.submit(Op.insert(k, k)) for k in range(5)]
        engine.close()
        assert all(t.result(WAIT).ok for t in tickets)  # drained as flush ticks
        assert engine.stats().triggers.get("flush", 0) >= 1
        with pytest.raises(EngineClosedError):
            engine.submit(Op.lookup(1))
        with pytest.raises(EngineClosedError):
            engine.start()

    def test_backpressure_bound_saturates(self):
        engine = Engine(
            _lsm(batch_size=8),
            TickConfig(target_tick_size=4, linger=60.0, max_queue_depth=4),
        )
        engine.start()
        try:
            # Hold the backend so the worker's one cut tick waits on the
            # lock and the admission queue backs up behind it.
            with engine._exec_lock:
                for k in range(4):  # the tick the worker cuts and holds
                    engine.submit(Op.insert(k, k), timeout=WAIT)
                assert _wait_until(lambda: engine.queue_depth == 0)
                for k in range(4):  # refill the admission queue to the bound
                    engine.submit(Op.insert(k, k), timeout=WAIT)
                with pytest.raises(EngineSaturatedError, match="backpressure"):
                    engine.submit(Op.insert(9, 9), timeout=0)
            engine.flush(WAIT)
            ticket = engine.submit(Op.lookup(0))
            engine.flush(WAIT)
            assert ticket.result(WAIT).found
        finally:
            engine.close()
        assert engine.stats().max_queue_depth_seen >= 4

    def test_one_worker_thread(self):
        """A started engine adds exactly one thread, ``serve-executor``,
        and ``close()`` returns the process to its thread baseline."""
        before = set(threading.enumerate())
        engine = Engine(_lsm(), TickConfig(target_tick_size=4, linger=60.0))
        engine.start()
        try:
            added = set(threading.enumerate()) - before
            assert [t.name for t in added] == ["serve-executor"]
            ticket = engine.submit(Op.insert(1, 1))
            engine.flush(WAIT)
            assert ticket.result(WAIT).ok
            assert set(threading.enumerate()) - before == added
        finally:
            engine.close()
        assert set(threading.enumerate()) <= before

    def test_threaded_ticks_charge_plan_time_as_apply_does(self):
        """Whole-tick submissions through the worker and the same batches
        through ``apply`` report the same ticks, answers and simulated
        seconds, plan time included; the worker plans off the backend's
        device."""
        batches = make_mixed_batches(
            MixedOpConfig(num_ops=6 * 64, tick_size=64, seed=5)
        )
        inline = Engine(_lsm())
        inline_results = [inline.apply(b) for b in batches]
        backend = _lsm()
        with Engine(
            backend, TickConfig(target_tick_size=64, linger=60.0)
        ) as threaded:
            threaded_results = [
                threaded.submit_batch(b).result(WAIT) for b in batches
            ]
        want, got = inline.stats(), threaded.stats()
        assert got.ticks == want.ticks == len(batches)
        assert got.triggers == {"size": len(batches)}
        for a, b in zip(threaded_results, inline_results):
            for column in ("statuses", "found", "values", "counts",
                           "range_offsets", "range_keys", "range_values"):
                np.testing.assert_array_equal(
                    getattr(a, column), getattr(b, column)
                )
        assert got.plan_seconds > 0
        assert got.plan_seconds == pytest.approx(want.plan_seconds, rel=1e-12)
        assert got.simulated_seconds == pytest.approx(
            want.simulated_seconds, rel=1e-12
        )
        assert not any(
            name.startswith("api.plan")
            for name in backend.device.counter.per_kernel
        )

    def test_failed_tick_resolves_tickets_with_the_error(self):
        class Exploding:
            key_only = True
            epoch = 0

            @classmethod
            def supported_operations(cls):
                return frozenset({"insert", "delete", "lookup"})

            def insert(self, keys, values=None):
                raise RuntimeError("backend blew up")

            def lookup(self, keys):  # pragma: no cover - updates fail first
                raise RuntimeError("backend blew up")

        with Engine(
            Exploding(), TickConfig(target_tick_size=2, linger=60.0)
        ) as engine:
            t1 = engine.submit(Op.insert(1))
            t2 = engine.submit(Op.insert(2))
            with pytest.raises(RuntimeError, match="blew up"):
                t1.result(WAIT)
            with pytest.raises(RuntimeError, match="blew up"):
                t2.result(WAIT)
        stats = engine.stats()
        assert stats.failed_ticks == 1 and stats.ticks == 0

    def test_empty_batch_ticket_resolves_immediately(self):
        engine = Engine(_lsm())
        engine.start()
        ticket = engine.submit_batch(OpBatch.empty())
        assert ticket.done and len(ticket.result(0)) == 0
        engine.close()

    def test_stats_histogram_and_rates(self):
        with Engine(
            _lsm(), TickConfig(target_tick_size=4, linger=60.0)
        ) as engine:
            for k in range(8):
                engine.submit(Op.insert(k, k))
            engine.flush(WAIT)
        stats = engine.stats()
        assert sum(stats.tick_size_histogram.values()) == stats.ticks
        assert stats.mean_tick_size == pytest.approx(4.0)
        assert stats.simulated_rate_m_per_s > 0
        assert stats.wall_seconds >= 0


# ---------------------------------------------------------------------- #
# Ticket ordering and fairness vs the serial oracle
# ---------------------------------------------------------------------- #
class TestOrderingAndFairness:
    def test_interleaved_clients_match_serial_oracle_strict(self):
        """Round-robin interleave of 3 clients; arbitrary tick cuts."""
        rng = np.random.default_rng(7)
        clients = [
            [
                Op(OpCode(int(rng.integers(0, 3))), int(rng.integers(0, KEY_SPACE)),
                   value=int(rng.integers(0, 1000)))
                for _ in range(40)
            ]
            for _ in range(3)
        ]
        arrival = [op for trio in zip(*clients) for op in trio]
        with Engine(
            _lsm(batch_size=16),
            TickConfig(target_tick_size=8, linger=0.001),
            consistency=Consistency.STRICT,
        ) as engine:
            tickets = [engine.submit(op, timeout=WAIT) for op in arrival]
            engine.flush(WAIT)
            expected = strict_oracle(arrival, {})
            for op, ticket, want in zip(arrival, tickets, expected):
                result = ticket.result(WAIT)
                if op.code.is_query:
                    _check(op, result, want)
                else:
                    assert result.ok

    @settings(max_examples=20, deadline=None)
    @given(chunks=st.lists(_ops_strategy, min_size=1, max_size=4))
    def test_property_snapshot_ticks_match_oracle(self, chunks):
        """Flush-delimited ticks under SNAPSHOT match the batch oracle."""
        engine = Engine(
            _lsm(batch_size=32),
            TickConfig(target_tick_size=1 << 20, linger=3600.0),
            consistency=Consistency.SNAPSHOT,
        )
        engine.start()
        try:
            state = {}
            for chunk in chunks:
                tickets = [engine.submit(op, timeout=WAIT) for op in chunk]
                engine.flush(WAIT)
                expected = snapshot_oracle(chunk, state)
                for op, ticket, want in zip(chunk, tickets, expected):
                    result = ticket.result(WAIT)
                    if op.code.is_query:
                        _check(op, result, want)
                    else:
                        assert result.ok
        finally:
            engine.close()

    @settings(max_examples=20, deadline=None)
    @given(
        ops=_ops_strategy,
        target=st.integers(1, 16),
    )
    def test_property_strict_is_tick_cut_invariant(self, ops, target):
        """STRICT answers are the serial replay for any tick partition."""
        engine = Engine(
            _lsm(batch_size=16),
            TickConfig(target_tick_size=target, linger=0.001),
            consistency=Consistency.STRICT,
        )
        engine.start()
        try:
            tickets = [engine.submit(op, timeout=WAIT) for op in ops]
            engine.flush(WAIT)
            expected = strict_oracle(ops, {})
            for op, ticket, want in zip(ops, tickets, expected):
                result = ticket.result(WAIT)
                if op.code.is_query:
                    _check(op, result, want)
                else:
                    assert result.ok
        finally:
            engine.close()

    def test_stress_eight_concurrent_clients_match_oracle(self):
        """≥ 8 submitting threads on disjoint key ranges, exact answers.

        Each client owns a private key range, so its per-key history is
        exactly its own submission order; STRICT + FIFO admission make
        every lookup's answer the client-local serial-dict replay, no
        matter how the scheduler interleaves the clients into ticks.
        """
        num_clients, ops_per_client, span = 8, 120, 64
        engine = Engine(
            _lsm(batch_size=256, seed=3),
            TickConfig(target_tick_size=64, linger=0.002),
            consistency=Consistency.STRICT,
        )
        engine.start()
        failures = []
        barrier = threading.Barrier(num_clients)

        def client(cid):
            rng = np.random.default_rng(1000 + cid)
            base = cid * span
            state = {}
            pending = []
            try:
                barrier.wait(WAIT)
                for _ in range(ops_per_client):
                    kind = int(rng.integers(0, 3))
                    key = base + int(rng.integers(0, span))
                    if kind == 0:
                        value = int(rng.integers(0, 1 << 20))
                        pending.append((engine.submit(Op.insert(key, value),
                                                      timeout=WAIT), None))
                        state[key] = value
                    elif kind == 1:
                        pending.append((engine.submit(Op.delete(key),
                                                      timeout=WAIT), None))
                        state.pop(key, None)
                    else:
                        pending.append((engine.submit(Op.lookup(key),
                                                      timeout=WAIT),
                                        state.get(key)))
                for ticket, want in pending:
                    result = ticket.result(WAIT)
                    if want is not None or result.op.code is OpCode.LOOKUP:
                        if want is None:
                            assert not result.found, result
                        else:
                            assert result.found and result.value == want, result
                    else:
                        assert result.ok
            except Exception as exc:  # surfaces thread failures to pytest
                failures.append((cid, exc))

        threads = [
            threading.Thread(target=client, args=(cid,))
            for cid in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT * 6)
        engine.close()
        assert not failures, failures
        stats = engine.stats()
        assert stats.ops_completed == num_clients * ops_per_client
        assert stats.failed_ticks == 0
        # Multi-client coalescing actually happened: far fewer ticks than
        # operations, and at least one full size-triggered tick.
        assert stats.ticks < stats.ops_completed / 4
        assert stats.triggers.get("size", 0) >= 1
