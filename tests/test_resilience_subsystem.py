"""Fault-domain isolation: unit and regression tests for the resilience
layer (transactional ticks, poison quarantine, supervised loops,
deadline-aware shedding, health).

The regression tests at the bottom pin the two pre-existing hazards this
layer fixes: a planner exception used to kill the scheduler thread
(``plan_batch`` ran outside any try), and an exception in the executor's
completion stage (ticket resolution / telemetry / maintenance poll) used
to kill the executor thread — both wedging every subsequent submitter
forever.  Now the tick fails typed and the engine keeps serving.
"""

import threading
import time

import numpy as np
import pytest

from repro.api.kvstore import KVStore
from repro.api.ops import Op, OpBatch
from repro.bench.workloads import MixedOpConfig, make_mixed_batches
from repro.core.lsm import GPULSM
from repro.durability.faults import FaultInjector, InjectedCrash
from repro.durability.manager import DurabilityConfig, DurabilityManager
from repro.durability.recovery import WAL_FILENAME, recover
from repro.durability.wal import read_records
from repro.scale import ShardedLSM
from repro.serve import engine as engine_mod
from repro.serve.engine import Engine
from repro.serve.errors import (
    DeadlineExceededError,
    EngineInternalError,
    EngineSaturatedError,
    PoisonOperationError,
)
from repro.serve.resilience import (
    HealthMonitor,
    HealthState,
    ResilienceConfig,
    supports_rollback,
)
from repro.serve.scheduler import LoadSheddingPolicy, TickConfig

#: An insert of this key raises in both GPULSM (beyond the 31-bit key
#: domain) and ShardedLSM (key-domain check) before any mutation — the
#: deterministic poison operation of these tests.
POISON_KEY = 2**40

BATCH = 16


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Every engine must return the process to its thread baseline."""
    baseline = threading.active_count()
    yield
    deadline = time.monotonic() + 5.0
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= baseline, (
        f"leaked threads: {[t.name for t in threading.enumerate()]}"
    )


def _engine(backend=None, resilience=None, target=64, linger=10.0, **kw):
    if backend is None:
        backend = GPULSM(batch_size=BATCH)
    return Engine(
        backend,
        config=TickConfig(target_tick_size=target, linger=linger, **kw),
        resilience=resilience,
    )


def _protected(**overrides):
    kw = dict(transactional_ticks=True, quarantine=True, supervised=True)
    kw.update(overrides)
    return ResilienceConfig(**kw)


# --------------------------------------------------------------------- #
# Config validation and capability probing
# --------------------------------------------------------------------- #
def test_resilience_config_validation():
    with pytest.raises(ValueError, match="quarantine requires"):
        ResilienceConfig(quarantine=True)
    with pytest.raises(ValueError):
        ResilienceConfig(max_internal_faults=0)
    with pytest.raises(ValueError):
        ResilienceConfig(recovery_ticks=0)
    with pytest.raises(ValueError):
        LoadSheddingPolicy(grace_s=-1.0)


def test_transactional_requires_rollback_capable_backend():
    class NoRollback:
        epoch = 0

        @classmethod
        def supported_operations(cls):
            return GPULSM.supported_operations()

    assert supports_rollback(GPULSM(batch_size=BATCH))
    assert supports_rollback(
        ShardedLSM(num_shards=2, batch_size=BATCH, key_domain=64)
    )
    assert not supports_rollback(NoRollback())
    with pytest.raises(TypeError, match="snapshot_state"):
        Engine(
            NoRollback(),
            resilience=ResilienceConfig(transactional_ticks=True),
        )


def test_health_monitor_state_machine():
    m = HealthMonitor(recovery_ticks=2)
    assert m.state is HealthState.OK
    m.note_clean_tick()
    assert m.state is HealthState.OK
    m.note_internal_fault()
    assert m.state is HealthState.DEGRADED and m.internal_faults == 1
    m.note_clean_tick()
    assert m.state is HealthState.DEGRADED  # one clean tick is not enough
    m.note_clean_tick()
    assert m.state is HealthState.OK  # streak of recovery_ticks recovers
    m.note_internal_fault()
    m.force_failed()
    assert m.state is HealthState.FAILED
    m.note_clean_tick()
    assert m.state is HealthState.FAILED  # terminal


def test_fault_injector_recurring_mode():
    inj = FaultInjector(every={"engine.pre_plan": 3})
    fired = 0
    for _ in range(9):
        try:
            inj.check("engine.pre_plan")
        except InjectedCrash:
            fired += 1
    assert fired == 3  # every 3rd hit, no latching
    assert inj.recurring_fired == 3
    assert inj.crashed is None
    with pytest.raises(ValueError):
        FaultInjector({"engine.pre_plan": 1}, every={"engine.pre_plan": 2})


# --------------------------------------------------------------------- #
# Transactional ticks
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", [
    "gpulsm",
    "sharded",
    # The rollback itself fails: the commit step types that the same way
    # for the inline caller as for the executor thread.
    "gpulsm/rollback-fails",
    "sharded/rollback-fails",
])
def test_transactional_rollback_restores_backend(kind, monkeypatch):
    kind, _, rollback_fails = kind.partition("/")
    if kind == "gpulsm":
        backend = GPULSM(batch_size=BATCH)
    else:
        backend = ShardedLSM(num_shards=4, batch_size=BATCH, key_domain=64)
    store = KVStore(
        backend=backend,
        resilience=ResilienceConfig(transactional_ticks=True),
    )
    store.apply(OpBatch.inserts(np.arange(8, dtype=np.uint64),
                                np.full(8, 5, dtype=np.uint64)))
    reference = backend.lookup(np.arange(16, dtype=np.uint64))

    poisoned = OpBatch.concat([
        OpBatch.inserts(np.arange(8, 12, dtype=np.uint64)),
        OpBatch.inserts(np.array([POISON_KEY], dtype=np.uint64)),
    ])
    if rollback_fails:
        def broken_rollback(state):
            raise RuntimeError("injected rollback bug")

        monkeypatch.setattr(backend, "rollback_to", broken_rollback)
        with pytest.raises(EngineInternalError, match="rollback failed") as exc_info:
            store.apply(poisoned)
        assert isinstance(exc_info.value.cause, RuntimeError)
        stats = store.stats()
        assert stats.failed_ticks == 1 and stats.rolled_back_ticks == 0
        store.close()
        return
    with pytest.raises(Exception):
        store.apply(poisoned)

    after = backend.lookup(np.arange(16, dtype=np.uint64))
    assert np.array_equal(reference.found, after.found)
    assert np.array_equal(reference.values, after.values)
    assert store.stats().rolled_back_ticks == 1
    # Client-attributable failure: health stays OK.
    assert store.health() is HealthState.OK
    store.close()


def _strict_partial_batch():
    """A STRICT tick whose first collapse run mutates before the poison
    run raises: [insert 0..7] [lookup] [insert POISON]."""
    return OpBatch.concat([
        OpBatch.inserts(np.arange(8, dtype=np.uint64)),
        OpBatch.lookups(np.array([0], dtype=np.uint64)),
        OpBatch.inserts(np.array([POISON_KEY], dtype=np.uint64)),
    ])


def test_without_transactional_partial_tick_persists():
    """The off-by-default contrast: a failed STRICT tick leaves the runs
    that executed before the poison raised."""
    backend = GPULSM(batch_size=BATCH)
    store = KVStore(backend=backend, consistency="strict")
    with pytest.raises(Exception):
        store.apply(_strict_partial_batch())
    # The innocent prefix landed (documented pre-existing behavior).
    found = backend.lookup(np.arange(8, dtype=np.uint64)).found
    assert found.all()
    assert store.stats().rolled_back_ticks == 0
    store.close()


def test_transactional_rolls_back_strict_partial_tick():
    """Same STRICT tick with transactional on: the mutated prefix is
    undone, backend bit-identical to pre-tick."""
    backend = GPULSM(batch_size=BATCH)
    store = KVStore(
        backend=backend,
        consistency="strict",
        resilience=ResilienceConfig(transactional_ticks=True),
    )
    with pytest.raises(Exception):
        store.apply(_strict_partial_batch())
    assert not backend.lookup(np.arange(8, dtype=np.uint64)).found.any()
    assert store.stats().rolled_back_ticks == 1
    store.close()


# --------------------------------------------------------------------- #
# Poison-op quarantine
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["gpulsm", "sharded"])
def test_quarantine_isolates_poison_and_retries_innocents(kind):
    def build():
        if kind == "gpulsm":
            return GPULSM(batch_size=BATCH)
        return ShardedLSM(num_shards=4, batch_size=BATCH, key_domain=64)

    # Fault-free reference run: same innocents, no poison co-batched.
    ref_engine = _engine(build())
    with ref_engine:
        r1 = ref_engine.submit_batch(
            OpBatch.inserts(np.arange(8, dtype=np.uint64),
                            np.full(8, 3, dtype=np.uint64)))
        r2 = ref_engine.submit_batch(OpBatch.lookups(np.arange(8, dtype=np.uint64)))
        ref_engine.flush(timeout=10)
        ref_a = r1.result(timeout=5)
        ref_b = r2.result(timeout=5)

    engine = _engine(build(), resilience=_protected())
    with engine:
        t1 = engine.submit_batch(
            OpBatch.inserts(np.arange(8, dtype=np.uint64),
                            np.full(8, 3, dtype=np.uint64)))
        bad = engine.submit(Op.insert(POISON_KEY, 1))
        t2 = engine.submit_batch(OpBatch.lookups(np.arange(8, dtype=np.uint64)))
        engine.flush(timeout=10)

        with pytest.raises(PoisonOperationError) as exc_info:
            bad.result(timeout=5)
        assert exc_info.value.cause is not None
        assert exc_info.value.batch is not None

        got_a = t1.result(timeout=5)
        got_b = t2.result(timeout=5)
        # Innocent answers are bit-identical to the fault-free run.
        for ref, got in ((ref_a, got_a), (ref_b, got_b)):
            assert np.array_equal(np.asarray(ref.found), np.asarray(got.found))
            assert np.array_equal(np.asarray(ref.values), np.asarray(got.values))

        stats = engine.stats()
        assert stats.quarantined_ticks == 1
        assert stats.poisoned_entries == 1
        assert stats.rolled_back_ticks == 1
        # Poison is the client's fault, not the engine's.
        assert stats.health == "ok"


def test_all_poison_tick_fails_everyone_typed():
    engine = _engine(resilience=_protected())
    with engine:
        bad1 = engine.submit(Op.insert(POISON_KEY, 1))
        bad2 = engine.submit(Op.insert(POISON_KEY + 1, 2))
        engine.flush(timeout=10)
        for t in (bad1, bad2):
            with pytest.raises(PoisonOperationError):
                t.result(timeout=5)
        assert engine.stats().poisoned_entries == 2
        # The engine keeps serving afterwards.
        ok = engine.submit(Op.insert(3, 9))
        engine.flush(timeout=10)
        ok.result(timeout=5)


@pytest.mark.parametrize("point", [
    "engine.pre_plan",
    "engine.mid_execute",
    "engine.post_execute_pre_wal",
    # Inline there is no quarantine and the caller is the retry: a tick
    # whose *planning* fails is recorded as a failed tick — exactly like
    # the threaded path without quarantine — and propagates.
    "inline/engine.pre_plan",
    "inline/planner-rejects",
])
def test_transient_injected_fault_retries_all(point, monkeypatch):
    """A transient fault (nobody is poison) retries the whole tick: every
    ticket still resolves with a result."""
    inline, _, point = point.rpartition("/")
    if inline:
        inj = FaultInjector({"engine.pre_plan": 1})
        if point == "planner-rejects":
            real, calls = engine_mod.plan_batch, []

            def flaky(*args, **kwargs):
                calls.append(1)
                if len(calls) == 1:
                    raise RuntimeError("injected planner bug")
                return real(*args, **kwargs)

            monkeypatch.setattr(engine_mod, "plan_batch", flaky)
            inj = None
        engine = _engine(resilience=_protected(fault_injector=inj))
        batch = OpBatch.inserts(np.arange(12, dtype=np.uint64))
        with pytest.raises(RuntimeError, match="injected"):
            engine.apply(batch)
        stats = engine.stats()
        assert stats.failed_ticks == 1 and stats.ticks == 0
        assert stats.rolled_back_ticks == 0  # the backend was never touched
        engine.apply(batch)  # the caller's retry commits
        assert engine.apply(
            OpBatch.lookups(np.arange(12, dtype=np.uint64))).found.all()
        assert engine.stats().ticks == 2
        return
    inj = FaultInjector({point: 1})
    engine = _engine(resilience=_protected(fault_injector=inj))
    with engine:
        tickets = [
            engine.submit_batch(
                OpBatch.inserts(np.arange(i * 4, i * 4 + 4, dtype=np.uint64)))
            for i in range(3)
        ]
        engine.flush(timeout=10)
        for t in tickets:
            t.result(timeout=5)
        lk = engine.submit_batch(OpBatch.lookups(np.arange(12, dtype=np.uint64)))
        engine.flush(timeout=10)
        assert np.asarray(lk.result(timeout=5).found).all()
        assert inj.crashed == point


def _replay_ticks(kind, batches, resilience):
    """Submit each batch as one tick of a threaded engine; returns the
    per-tick results (``None`` where the ticket failed) and the stats."""
    tick = batches[0].size
    if kind == "sharded4":
        backend = ShardedLSM(num_shards=4, batch_size=tick, seed=1)
    else:
        backend = GPULSM(batch_size=tick)
    engine = _engine(backend, resilience=resilience, target=tick)
    results = []
    with engine:
        for batch in batches:
            ticket = engine.submit_batch(batch)
            engine.flush(timeout=60)
            try:
                results.append(ticket.result(timeout=60))
            except Exception:
                results.append(None)
    return results, engine.stats()


@pytest.mark.parametrize("kind", ["gpulsm", "sharded4"])
def test_recurring_fault_over_a_stream(kind, assert_results_bit_identical):
    """A fault on every 5th update segment of a mixed stream: protected
    mode answers every op exactly as a fault-free run does, unprotected
    mode loses ticks."""
    batches = make_mixed_batches(
        MixedOpConfig(num_ops=16 * 128, tick_size=128, seed=7)
    )
    every = {"engine.mid_execute": 5}

    reference, stats = _replay_ticks(kind, batches, None)
    assert None not in reference and stats.failed_ticks == 0
    protected, stats = _replay_ticks(
        kind, batches, _protected(fault_injector=FaultInjector(every=every))
    )
    for t, (want, got) in enumerate(zip(reference, protected)):
        assert got is not None, f"tick {t} lost its answers despite quarantine"
        assert_results_bit_identical(want, got, f"tick {t}")
    assert stats.rolled_back_ticks > 0 and stats.quarantined_ticks > 0
    assert stats.health != "failed"

    unprotected, stats = _replay_ticks(
        kind, batches, ResilienceConfig(fault_injector=FaultInjector(every=every))
    )
    assert None in unprotected and stats.failed_ticks > 0
    assert stats.health != "failed"


class _FailingWAL(DurabilityManager):
    """A durability manager whose WAL append fails while ``armed``."""

    armed = False

    def log_tick(self, batch, consistency):
        if self.armed:
            raise OSError("injected WAL append failure")
        super().log_tick(batch, consistency)


@pytest.mark.parametrize("kind", ["gpulsm", "sharded4"])
@pytest.mark.parametrize("entry", ["inline", "threaded", "quarantine"])
@pytest.mark.parametrize("fault", [
    "engine.mid_execute",
    "engine.post_execute_pre_wal",
    "wal-append",
])
def test_failed_commit_is_the_same_from_every_entry_point(
    tmp_path, kind, entry, fault
):
    """The one commit step behind its three callers — inline ``apply``, the
    executor thread, and the quarantine retry — leaves the same state when
    a tick fails between execute and acknowledgement: the failed attempt
    is rolled back without a trace and counted once, the WAL holds exactly
    the acknowledged ticks with continuous ids, a reopened store recovers
    the live state, and no thread outlives the engine (the autouse
    fixture).  "Without a trace" is the backend bit-equal to its pre-tick
    state — except where quarantine turns an injected (hence transient)
    fault into a retry that commits: then it is bit-equal to a fault-free
    run of the same ticks."""
    def build():
        if kind == "gpulsm":
            return GPULSM(batch_size=BATCH)
        return ShardedLSM(num_shards=4, batch_size=BATCH, key_domain=64)

    def snapshot_of(backend):
        result = backend.lookup(np.arange(64, dtype=np.uint64))
        return np.asarray(result.found).tolist(), np.asarray(result.values).tolist()

    # Tick 0 commits one update segment (one hit of each fault point), so
    # hit 2 is the first one of tick 1.  The retry of a quarantined tick
    # runs without fault injection, so only a WAL that keeps failing can
    # fail it too.
    injector = None if fault == "wal-append" else FaultInjector({fault: 2})
    durability = _FailingWAL(
        DurabilityConfig(directory=str(tmp_path), fsync_every_n_ticks=1)
    )
    backend = build()
    engine = Engine(
        backend,
        config=TickConfig(target_tick_size=1 << 20, linger=100.0),
        durability=durability,
        resilience=ResilienceConfig(
            transactional_ticks=True,
            quarantine=entry == "quarantine",
            fault_injector=injector,
        ),
    )
    if entry != "inline":
        engine.start()

    def run_tick(*batches):
        if entry == "inline":
            return engine.apply(OpBatch.concat(batches))
        tickets = [engine.submit_batch(batch) for batch in batches]
        engine.flush(timeout=10)
        return [ticket.result(timeout=5) for ticket in tickets]

    def inserts(lo, hi, value):
        keys = np.arange(lo, hi, dtype=np.uint64)
        return OpBatch.inserts(keys, np.full(keys.size, value, dtype=np.uint64))

    try:
        run_tick(inserts(0, 8, 1), inserts(8, 12, 1))
        before = snapshot_of(backend)

        durability.armed = fault == "wal-append"
        retry_commits = entry == "quarantine" and fault != "wal-append"
        if retry_commits:
            run_tick(inserts(4, 10, 2), inserts(20, 24, 2))
            reference = build()
            for lo, hi, value in ((0, 8, 1), (8, 12, 1), (4, 10, 2), (20, 24, 2)):
                reference.insert(
                    np.arange(lo, hi, dtype=np.uint64),
                    np.full(hi - lo, value, dtype=np.uint64),
                )
            assert snapshot_of(backend) == snapshot_of(reference)
        else:
            typed = EngineInternalError if entry == "quarantine" else Exception
            with pytest.raises(typed):
                run_tick(inserts(4, 10, 2), inserts(20, 24, 2))
            assert snapshot_of(backend) == before
        durability.armed = False
        stats = engine.stats()
        assert stats.rolled_back_ticks == 1
        assert stats.failed_ticks == (0 if retry_commits else 1)
        assert stats.health == "ok"

        run_tick(inserts(30, 34, 3))  # the engine keeps serving
        live = snapshot_of(backend)
    finally:
        engine.close()

    committed = 3 if retry_commits else 2
    records = read_records(str(tmp_path / WAL_FILENAME)).records
    assert [tick_id for tick_id, _, _ in records] == list(range(committed))
    recovered = build()
    assert recover(str(tmp_path), recovered).ticks == committed
    assert snapshot_of(recovered) == live


@pytest.mark.parametrize("entry", ["inline", "quarantine"])
def test_unacknowledged_wal_record_does_not_survive_a_clean_close(tmp_path, entry):
    """A tick whose WAL append wrote its record but failed before the
    acknowledgement (``wal.pre_fsync``) is rolled back and fails typed; if
    no later append follows, a clean close must not leave that record for
    recovery to replay — every client saw the tick fail."""
    injector = FaultInjector({"wal.pre_fsync": 2})  # tick 0 syncs, tick 1 crashes
    backend = GPULSM(batch_size=BATCH)
    engine = Engine(
        backend,
        config=TickConfig(target_tick_size=1 << 20, linger=100.0),
        durability=DurabilityConfig(
            directory=str(tmp_path), fsync_every_n_ticks=1, fault_injector=injector
        ),
        resilience=ResilienceConfig(
            transactional_ticks=True, quarantine=entry == "quarantine"
        ),
    )
    committed = OpBatch.inserts(np.arange(4, dtype=np.uint64))
    failed = OpBatch.inserts(np.arange(8, 12, dtype=np.uint64))
    try:
        if entry == "inline":
            engine.apply(committed)
            with pytest.raises(InjectedCrash):
                engine.apply(failed)
        else:
            engine.start()
            engine.submit_batch(committed)
            engine.flush(timeout=10)
            # The poisoned neighbour sends the tick through quarantine, whose
            # retry of the innocent submission is the append that crashes.
            innocent = engine.submit_batch(failed)
            poison = engine.submit_batch(
                OpBatch.inserts(np.array([POISON_KEY], dtype=np.uint64))
            )
            engine.flush(timeout=10)
            with pytest.raises(EngineInternalError):
                innocent.result(timeout=5)
            with pytest.raises(PoisonOperationError):
                poison.result(timeout=5)
        assert injector.crashed == "wal.pre_fsync"
    finally:
        engine.close()

    log = read_records(str(tmp_path / WAL_FILENAME))
    assert [tick_id for tick_id, _, _ in log.records] == [0] and not log.torn
    recovered = GPULSM(batch_size=BATCH)
    assert recover(str(tmp_path), recovered).ticks == 1
    found = recovered.lookup(np.arange(12, dtype=np.uint64)).found
    assert found[:4].all() and not found[4:].any()
    assert not backend.lookup(np.arange(8, 12, dtype=np.uint64)).found.any()


def test_pre_resolve_fault_fails_tick_typed_but_commits():
    """A crash after commit but before resolution: tickets fail typed,
    the state is committed, the loop keeps serving, health degrades."""
    inj = FaultInjector({"engine.pre_resolve": 1})
    engine = _engine(resilience=_protected(fault_injector=inj))
    with engine:
        t = engine.submit_batch(OpBatch.inserts(np.arange(4, dtype=np.uint64)))
        engine.flush(timeout=10)
        with pytest.raises(EngineInternalError):
            t.result(timeout=5)
        assert engine.health() is HealthState.DEGRADED
        lk = engine.submit_batch(OpBatch.lookups(np.arange(4, dtype=np.uint64)))
        engine.flush(timeout=10)
        assert np.asarray(lk.result(timeout=5).found).all()  # committed
        assert engine.stats().internal_faults == 1


# --------------------------------------------------------------------- #
# Deadlines and load shedding
# --------------------------------------------------------------------- #
def test_deadline_expired_in_queue_is_shed():
    engine = _engine(target=4, linger=0.01)
    with engine:
        doomed = engine.submit(Op.lookup(1), deadline=0.0)
        time.sleep(0.002)
        fine = engine.submit_batch(OpBatch.inserts(np.arange(4, dtype=np.uint64)))
        engine.flush(timeout=10)
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=5)
        fine.result(timeout=5)
        assert engine.stats().deadline_shed_ops == 1


def test_negative_deadline_rejected():
    engine = _engine()
    with engine:
        with pytest.raises(ValueError):
            engine.submit(Op.lookup(1), deadline=-0.5)


def test_shed_only_cut_does_not_wedge_flush():
    """A cut in which everything was shed must still complete flush()."""
    engine = _engine(target=4, linger=0.01)
    with engine:
        doomed = engine.submit(Op.lookup(1), deadline=0.0)
        time.sleep(0.002)
        engine.flush(timeout=10)  # must return even with nothing to run
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=5)


def test_load_shedding_under_sustained_saturation():
    engine = _engine(
        target=8,
        linger=30.0,
        max_queue_depth=8,
        resilience=ResilienceConfig(shedding=LoadSheddingPolicy(grace_s=0.02)),
    )
    engine.start()
    held = engine.submit_batch(OpBatch.inserts(np.arange(6, dtype=np.uint64)))
    t0 = time.monotonic()
    with pytest.raises(EngineSaturatedError, match="load shed"):
        engine.submit_batch(OpBatch.inserts(np.arange(10, 14, dtype=np.uint64)))
    assert time.monotonic() - t0 >= 0.02
    assert engine.stats().admission_shed_ops == 4
    engine.close()  # drains the held batch as a flush tick
    held.result(timeout=5)


# --------------------------------------------------------------------- #
# Supervision and fail-stop
# --------------------------------------------------------------------- #
def test_regression_scheduler_survives_plan_batch_raising(monkeypatch):
    """Satellite regression: a raising planner used to kill the scheduler
    thread (plan_batch ran outside any try) and wedge every submitter.
    Now the tick fails with the planner's error and serving continues —
    even with every resilience knob off."""
    real = engine_mod.plan_batch
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected planner bug")
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "plan_batch", flaky)
    engine = _engine(target=4, linger=0.001)
    with engine:
        t = engine.submit_batch(OpBatch.inserts(np.arange(4, dtype=np.uint64)))
        engine.flush(timeout=10)
        with pytest.raises(RuntimeError, match="injected planner bug"):
            t.result(timeout=5)
        # The scheduler thread is alive: the next tick plans and runs.
        ok = engine.submit_batch(OpBatch.inserts(np.arange(4, 8, dtype=np.uint64)))
        engine.flush(timeout=10)
        ok.result(timeout=5)


def test_regression_executor_survives_completion_stage_raising(monkeypatch):
    """Satellite regression: an exception in the executor's completion
    stage (ticket resolution / telemetry) used to kill the executor
    thread after the backend mutated, stranding tickets forever.  Now the
    dangling tickets fail typed and the loop keeps serving."""
    real = engine_mod.slice_result_batch
    calls = {"n": 0}

    def flaky(result, lo, hi):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected resolution bug")
        return real(result, lo, hi)

    monkeypatch.setattr(engine_mod, "slice_result_batch", flaky)
    engine = _engine(target=4, linger=0.001)
    with engine:
        t = engine.submit_batch(OpBatch.inserts(np.arange(4, dtype=np.uint64)))
        engine.flush(timeout=10)
        with pytest.raises(EngineInternalError):
            t.result(timeout=5)
        assert engine.health() is HealthState.DEGRADED
        ok = engine.submit_batch(OpBatch.lookups(np.arange(4, dtype=np.uint64)))
        engine.flush(timeout=10)
        assert np.asarray(ok.result(timeout=5).found).all()


def test_maintenance_fault_degrades_but_keeps_serving(monkeypatch):
    backend = GPULSM(batch_size=BATCH)

    def bad_maintenance():
        raise RuntimeError("injected maintenance bug")

    monkeypatch.setattr(backend, "run_due_maintenance", bad_maintenance,
                        raising=False)
    engine = _engine(
        backend,
        target=4,
        linger=0.001,
        resilience=ResilienceConfig(supervised=True, recovery_ticks=1),
    )
    with engine:
        t = engine.submit_batch(OpBatch.inserts(np.arange(4, dtype=np.uint64)))
        engine.flush(timeout=10)
        t.result(timeout=5)  # the tick's clients already have answers
        assert engine.health() is HealthState.DEGRADED
        # Recovery: a clean tick (with maintenance fixed) restores OK.
        monkeypatch.setattr(backend, "run_due_maintenance", lambda: None,
                            raising=False)
        ok = engine.submit_batch(OpBatch.lookups(np.arange(4, dtype=np.uint64)))
        engine.flush(timeout=10)
        ok.result(timeout=5)
        assert engine.health() is HealthState.OK


def test_supervised_executor_loop_restarts_in_place(monkeypatch):
    """A crash of the executor loop body itself: supervised, the loop
    restarts on the same thread (no leak), the in-flight tick fails
    typed, and the engine keeps serving."""
    real = Engine._execute_tick
    calls = {"n": 0}

    def flaky(self, tick, plan):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected executor crash")
        return real(self, tick, plan)

    monkeypatch.setattr(Engine, "_execute_tick", flaky)
    engine = _engine(target=4, linger=0.001, resilience=_protected())
    with engine:
        t = engine.submit_batch(OpBatch.inserts(np.arange(4, dtype=np.uint64)))
        engine.flush(timeout=10)
        with pytest.raises(EngineInternalError):
            t.result(timeout=5)
        ok = engine.submit_batch(OpBatch.inserts(np.arange(4, 8, dtype=np.uint64)))
        engine.flush(timeout=10)
        ok.result(timeout=5)
        stats = engine.stats()
        assert stats.loop_restarts >= 1
        assert stats.health == "degraded"


def test_unsupervised_loop_crash_fail_stops_without_wedging(monkeypatch):
    """Without supervision a loop crash must fail-stop, not wedge: the
    in-flight ticket fails typed, flush returns, submit refuses."""
    def always_crash(self, tick, plan):
        raise RuntimeError("injected executor crash")

    monkeypatch.setattr(Engine, "_execute_tick", always_crash)
    engine = _engine(target=4, linger=0.001)
    with engine:
        t = engine.submit_batch(OpBatch.inserts(np.arange(4, dtype=np.uint64)))
        engine.flush(timeout=10)
        with pytest.raises(EngineInternalError):
            t.result(timeout=10)
        assert engine.health() is HealthState.FAILED
        with pytest.raises(EngineInternalError):
            engine.submit(Op.lookup(1))
        engine.flush(timeout=10)  # must not hang on a failed engine
        assert engine.stats().health == "failed"


def test_max_internal_faults_budget_fail_stops(monkeypatch):
    """Supervised restarts are bounded: past the fault budget the engine
    fail-stops instead of crash-looping."""
    def always_crash(self, tick, plan):
        raise RuntimeError("persistent executor bug")

    monkeypatch.setattr(Engine, "_execute_tick", always_crash)
    engine = _engine(
        target=4,
        linger=0.001,
        resilience=ResilienceConfig(supervised=True, max_internal_faults=2),
    )
    with engine:
        for i in range(3):
            try:
                t = engine.submit_batch(
                    OpBatch.inserts(np.arange(i * 4, i * 4 + 4, dtype=np.uint64)))
            except EngineInternalError:
                break  # already fail-stopped
            engine.flush(timeout=10)
            with pytest.raises(EngineInternalError):
                t.result(timeout=10)
            if engine.health() is HealthState.FAILED:
                break
        assert engine.health() is HealthState.FAILED
        assert engine.stats().internal_faults >= 2


# --------------------------------------------------------------------- #
# Off-by-default bit-identity
# --------------------------------------------------------------------- #
def test_default_config_is_bit_identical_to_no_config():
    def run(resilience):
        engine = _engine(GPULSM(batch_size=BATCH), resilience=resilience,
                         target=8, linger=0.001)
        outs = []
        with engine:
            for i in range(4):
                t = engine.submit_batch(OpBatch.concat([
                    OpBatch.inserts(np.arange(i * 4, i * 4 + 4, dtype=np.uint64),
                                    np.full(4, i, dtype=np.uint64)),
                    OpBatch.lookups(np.arange(0, 8, dtype=np.uint64)),
                ]))
                engine.flush(timeout=10)
                outs.append(t.result(timeout=5))
            stats = engine.stats()
        return outs, stats

    ref_outs, ref_stats = run(None)
    got_outs, got_stats = run(ResilienceConfig())
    for ref, got in zip(ref_outs, got_outs):
        assert np.array_equal(np.asarray(ref.found), np.asarray(got.found))
        assert np.array_equal(np.asarray(ref.values), np.asarray(got.values))
        assert np.array_equal(np.asarray(ref.statuses), np.asarray(got.statuses))
    assert ref_stats.ticks == got_stats.ticks
    assert ref_stats.ops_completed == got_stats.ops_completed
    assert got_stats.rolled_back_ticks == 0
    assert got_stats.health == "ok"
