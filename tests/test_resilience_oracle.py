"""Hypothesis chaos oracle: fault-domain isolation under random traces.

Random multi-client traces (rounds of 1–3 submissions, each 1–4 ops,
some deliberately poisoned with an out-of-domain insert) drive a fully
protected threaded engine — transactional ticks + quarantine +
supervised loops, durability on — with a one-shot
:class:`~repro.durability.faults.FaultInjector` armed at a random crash
point spanning every fault domain: the WAL (``wal.*``), the snapshotter
(``snapshot.*``) and the serving engine itself (``engine.*``).

The isolation contract checked on every trace, on both the single
:class:`GPULSM` and the four-shard :class:`ShardedLSM`:

* **no wedge** — every admitted ticket resolves (a result or a typed
  error) and every flush returns, whatever fired;
* **blast radius** — a poisoned submission fails with
  :class:`PoisonOperationError`; an innocent one either gets its answer
  or a typed :class:`EngineInternalError` (when the crash hit its own
  tick's commit or resolution path) — never a raw injected exception;
* **bit-exact innocents** — every answered lookup matches a plain-dict
  oracle folding only the committed innocent submissions with the
  engine's consistency semantics (snapshot: pre-tick state; strict:
  arrival order among innocents);
* **atomic rounds** — a round's innocents commit together or not at
  all, and the commit status is observable: answered tickets mean
  committed; all-failed-typed means committed exactly when the crash
  fired in the window after the WAL append (``engine.pre_resolve``),
  not committed otherwise — there is no state in which the clients saw
  errors, the answers were lost, *and* the backend kept the data;
* **durability agreement** — after close, a fresh backend recovered
  from the WAL matches the same oracle, and so does the live backend:
  with rollback + quarantine the backend, the WAL and the clients'
  answers never diverge, no matter where the fault hit;
* **no leaked threads** — the engine returns the process to its thread
  baseline after every trace.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.api.ops import OpBatch, OpCode
from repro.core.lsm import GPULSM
from repro.durability.faults import FAULT_POINTS, FaultInjector
from repro.durability.manager import DurabilityConfig
from repro.durability.recovery import recover
from repro.durability.snapshot import EveryNTicks
from repro.gpu.device import Device
from repro.gpu.spec import K40C_SPEC
from repro.scale import ShardedLSM
from repro.serve.engine import Engine
from repro.serve.errors import EngineInternalError, PoisonOperationError
from repro.serve.resilience import ResilienceConfig
from repro.serve.scheduler import TickConfig

KEY_SPACE = 24
BATCH = 16
#: Out of every backend's key domain: the deterministic poison insert.
POISON_KEY = 2**40

key_strategy = st.integers(min_value=0, max_value=KEY_SPACE - 1)
op_strategy = st.one_of(
    st.tuples(st.just("insert"), key_strategy, st.integers(0, 99)),
    st.tuples(st.just("delete"), key_strategy, st.just(0)),
    st.tuples(st.just("lookup"), key_strategy, st.just(0)),
)
#: One submission: its ops plus whether a poison insert is appended.
entry_strategy = st.tuples(
    st.lists(op_strategy, min_size=1, max_size=4),
    st.booleans(),
)
round_strategy = st.lists(entry_strategy, min_size=1, max_size=3)
trace_strategy = st.lists(round_strategy, min_size=1, max_size=6)


def _make_backend(kind):
    if kind == "gpulsm":
        return GPULSM(batch_size=BATCH, device=Device(K40C_SPEC, seed=23))
    return ShardedLSM(
        num_shards=4, batch_size=BATCH, key_domain=KEY_SPACE, seed=23
    )


def _entry_batch(ops, poisoned):
    rows = {
        "insert": OpCode.INSERT,
        "delete": OpCode.DELETE,
        "lookup": OpCode.LOOKUP,
    }
    if poisoned:
        ops = list(ops) + [("insert", POISON_KEY, 1)]
    opcodes = np.array([rows[kind] for kind, _, _ in ops], dtype=np.uint8)
    keys = np.array([k for _, k, _ in ops], dtype=np.uint64)
    values = np.array([v for _, _, v in ops], dtype=np.uint64)
    return OpBatch(opcodes, keys, values, np.zeros(len(ops), dtype=np.uint64))


def _fold_updates(oracle, entries_ops, strict):
    """Fold the innocent submissions' updates with the planner's
    canonicalisation (snapshot: delete dominates, first insert wins;
    strict: arrival order across the whole tick)."""
    updates = [
        (kind, k, v)
        for ops in entries_ops
        for kind, k, v in ops
        if kind != "lookup"
    ]
    if strict:
        for kind, k, v in updates:
            if kind == "insert":
                oracle[k] = v
            else:
                oracle.pop(k, None)
        return
    deleted = {k for kind, k, _ in updates if kind == "delete"}
    for k in deleted:
        oracle.pop(k, None)
    seen = set()
    for kind, k, v in updates:
        if kind == "insert" and k not in seen:
            seen.add(k)
            if k not in deleted:
                oracle[k] = v


def _predict_lookups(pre_state, entries_ops, strict):
    """Expected (found, value) per lookup, per innocent entry, given the
    pre-tick oracle state.  Snapshot lookups see the pre-tick state;
    strict lookups see every prior op of the (innocents-only) tick."""
    predictions = []
    running = dict(pre_state)
    for ops in entries_ops:
        mine = {}
        for idx, (kind, k, v) in enumerate(ops):
            if kind == "lookup":
                state = running if strict else pre_state
                mine[idx] = (k in state, state.get(k))
            elif strict:
                if kind == "insert":
                    running[k] = v
                else:
                    running.pop(k, None)
        predictions.append(mine)
    return predictions


def _assert_backend_matches(backend, oracle, context):
    probe = np.arange(KEY_SPACE, dtype=np.uint64)
    result = backend.lookup(probe)
    for k in range(KEY_SPACE):
        expected = oracle.get(k)
        if expected is None:
            assert not result.found[k], (
                f"{context}: key {k} present but never committed"
            )
        else:
            assert result.found[k], f"{context}: committed key {k} lost"
            assert int(result.values[k]) == expected, (
                f"{context}: key {k} holds {int(result.values[k])}, "
                f"oracle says {expected}"
            )


@pytest.mark.parametrize("kind", ["gpulsm", "sharded4"])
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    trace=trace_strategy,
    point=st.sampled_from(FAULT_POINTS),
    hit=st.integers(min_value=1, max_value=4),
    strict=st.booleans(),
    snapshot_every=st.sampled_from([0, 2]),
)
# An innocent insert beside a poisoned submission: the quarantine retry's
# WAL append is the first fsync, it crashes after the record was written,
# and nothing is appended afterwards.  The unacknowledged record used to
# survive the clean close and recovery resurrected the failed tick.
@example(
    trace=[[([("insert", 0, 0)], False), ([("delete", 0, 0)], True)]],
    point="wal.pre_fsync",
    hit=1,
    strict=False,
    snapshot_every=0,
)
def test_chaos_trace_isolates_faults(
    tmp_path_factory, kind, trace, point, hit, strict, snapshot_every
):
    thread_baseline = threading.active_count()
    directory = str(tmp_path_factory.mktemp("resilience"))
    injector = FaultInjector({point: hit})
    backend = _make_backend(kind)
    engine = Engine(
        backend,
        consistency="strict" if strict else "snapshot",
        # A huge target and linger: only flush() cuts, one tick per round.
        config=TickConfig(target_tick_size=1 << 20, linger=100.0),
        durability=DurabilityConfig(
            directory=directory,
            fsync_every_n_ticks=1,
            snapshot_policy=(
                EveryNTicks(snapshot_every) if snapshot_every else None
            ),
            fault_injector=injector,
        ),
        resilience=ResilienceConfig(
            transactional_ticks=True,
            quarantine=True,
            supervised=True,
            fault_injector=injector,
        ),
    )
    engine.start()

    oracle = {}
    try:
        for round_no, round_entries in enumerate(trace):
            innocents_ops = [
                ops for ops, poisoned in round_entries if not poisoned
            ]
            predictions = _predict_lookups(oracle, innocents_ops, strict)

            tickets = [
                (engine.submit_batch(_entry_batch(ops, poisoned)), ops, poisoned)
                for ops, poisoned in round_entries
            ]
            engine.flush(timeout=30.0)  # no wedge: must always return

            # Gather every outcome first: no ticket may dangle, and no
            # ticket may carry a raw (untyped) injected exception.
            innocent_results = []
            for ticket, ops, poisoned in tickets:
                try:
                    result = ticket.result(timeout=30.0)
                except PoisonOperationError:
                    assert poisoned, (
                        f"round {round_no}: innocent submission failed as "
                        "poison"
                    )
                    continue
                except EngineInternalError:
                    assert not poisoned, (
                        f"round {round_no}: poison got an internal error, "
                        "not PoisonOperationError"
                    )
                    innocent_results.append(None)
                    continue
                assert not poisoned, (
                    f"round {round_no}: poisoned submission got an answer"
                )
                innocent_results.append(result)

            # Atomicity: a round's innocents commit together or not at
            # all.  Answered tickets prove the commit; all-failed-typed
            # means the crash cost the round its answers — and then the
            # round committed exactly when the crash fired after the WAL
            # append (engine.pre_resolve), not otherwise.
            answered = [r for r in innocent_results if r is not None]
            if answered:
                assert len(answered) == len(innocent_results), (
                    f"round {round_no}: innocents split between answers "
                    f"and errors (crashed={injector.crashed})"
                )
                committed = True
            else:
                committed = bool(innocent_results) and (
                    injector.crashed == "engine.pre_resolve"
                )

            innocent_no = 0
            for result in innocent_results:
                if result is None:
                    innocent_no += 1
                    continue
                expected = predictions[innocent_no]
                for idx, (want_found, want_value) in expected.items():
                    got_found = bool(result.found[idx])
                    assert got_found == want_found, (
                        f"round {round_no} entry {innocent_no} op {idx}: "
                        f"found={got_found}, oracle says {want_found} "
                        f"(crashed={injector.crashed})"
                    )
                    if want_found:
                        assert int(result.values[idx]) == want_value, (
                            f"round {round_no} entry {innocent_no} op "
                            f"{idx}: value {int(result.values[idx])}, "
                            f"oracle says {want_value}"
                        )
                innocent_no += 1

            if committed:
                _fold_updates(oracle, innocents_ops, strict)
    finally:
        engine.close()

    # The live backend agrees with the oracle fold.
    _assert_backend_matches(
        backend, oracle, f"{kind}/live/{injector.crashed or 'no-crash'}"
    )

    # A fresh backend recovered from the WAL agrees too: clients' answers,
    # the live structure and the durable log never diverged.
    recovered = _make_backend(kind)
    recover(directory, recovered)
    _assert_backend_matches(
        recovered, oracle, f"{kind}/recovered/{injector.crashed or 'no-crash'}"
    )

    # The engine returned the process to its thread baseline.
    deadline = time.monotonic() + 5.0
    while (
        threading.active_count() > thread_baseline
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)
    assert threading.active_count() <= thread_baseline, (
        f"leaked threads: {[t.name for t in threading.enumerate()]}"
    )
