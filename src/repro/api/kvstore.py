"""The ``KVStore`` facade: mixed-operation ticks over any dictionary backend.

This is the primary public surface of the library for serving-style use:
callers hand the store whole :class:`~repro.api.ops.OpBatch` ticks —
arbitrary mixes of insert / delete / lookup / count / range rows — and get
back request-ordered :class:`~repro.api.ops.ResultBatch` answers, while the
planner of :mod:`repro.api.planner` turns each tick into one
bulk-synchronous pass over the backend (a :class:`~repro.core.lsm.GPULSM`
by default; any :class:`~repro.scale.protocol.DictionaryProtocol` works,
including :class:`~repro.scale.sharded.ShardedLSM` and the paper's
baselines).

The per-method batch surface of the backends (``insert`` / ``delete`` /
``lookup`` / ``count`` / ``range_query`` / ``bulk_build``) remains fully
supported — the facade forwards it — so existing callers keep working while
mixed traffic moves to :meth:`KVStore.apply`.

Sessions (:meth:`KVStore.session`) add *ticketing*: operations are enqueued
one at a time, each enqueue returns a :class:`Ticket`, and
:meth:`Session.commit` flushes the pending operations as one tick.  A
ticket resolves to its operation's typed result after the commit — the
deferred-batching pattern a front-end uses to coalesce many concurrent
client requests into one device pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.api.ops import Op, OpBatch, OpCode, OpResult, ResultBatch
from repro.api.planner import Consistency
from repro.core.lsm import GPULSM, LookupResult, RangeResult
from repro.gpu.device import Device
from repro.serve.engine import Engine, EngineStats, empty_result_batch


class KVStore:
    """Dictionary facade serving mixed-operation batches in ticks.

    Parameters
    ----------
    backend:
        Any object satisfying the batch-dictionary protocol.  Defaults to a
        fresh :class:`~repro.core.lsm.GPULSM` built from the remaining
        constructor arguments.
    consistency:
        Default intra-tick ordering for :meth:`apply` (overridable per
        call): :data:`Consistency.SNAPSHOT` — reads observe the pre-tick
        state — or :data:`Consistency.STRICT` — strict arrival order.
    batch_size / device / key_only:
        Forwarded to the default backend; ignored when ``backend`` is
        given.
    cache_capacity:
        When positive, the serving engine fronts the backend with an
        epoch-guarded hot-key read cache of this many keys
        (:class:`~repro.serve.cache.ReadCachedBackend`); answers stay
        bit-identical.  ``None`` / ``0`` (the default) runs uncached.
        Only ticks through :meth:`apply` / sessions are cached — the
        legacy per-method surface forwards to the raw backend.
    durability:
        A :class:`~repro.durability.DurabilityConfig` to make the store
        crash-safe: prior state in its directory is recovered at
        construction, each committed tick is appended to a write-ahead
        log before :meth:`apply` returns, and checkpoints run per the
        configured snapshot policy.  With durability on, use the store as
        a context manager (or call :meth:`close`) so the final group
        commit lands and the WAL handle is released.  ``None`` (the
        default) runs without durability; answers and stats are
        bit-identical either way.  Note the per-method legacy surface
        (``insert`` / ``delete`` below) bypasses the tick path and is
        **not** logged — route durable traffic through :meth:`apply` /
        sessions.
    resilience:
        A :class:`~repro.serve.resilience.ResilienceConfig` forwarded to
        the engine.  For this synchronous facade the relevant knob is
        ``transactional_ticks`` — a failed :meth:`apply` then rolls the
        backend back to its pre-tick state before the error propagates,
        so backend and WAL never diverge.  ``None`` (the default) keeps
        today's behavior exactly.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import KVStore, OpBatch
    >>> store = KVStore(batch_size=16)
    >>> store.apply(OpBatch.inserts(np.arange(8), np.arange(8) * 10)).ok
    True
    >>> tick = OpBatch.concat([
    ...     OpBatch.deletes(np.array([3])),
    ...     OpBatch.lookups(np.array([3])),
    ... ])
    >>> bool(store.apply(tick).result(1).found)   # snapshot: pre-tick state
    True
    >>> bool(store.lookup(np.array([3])).found[0])  # after the tick
    False
    """

    def __init__(
        self,
        backend=None,
        consistency: Consistency = Consistency.SNAPSHOT,
        batch_size: int = 1 << 16,
        device: Optional[Device] = None,
        key_only: bool = False,
        cache_capacity: Optional[int] = None,
        durability=None,
        resilience=None,
    ) -> None:
        if backend is None:
            backend = GPULSM(
                batch_size=batch_size, device=device, key_only=key_only
            )
        self.consistency = Consistency(consistency)
        #: The serving engine this facade is a single-client view of:
        #: every tick runs through its inline plan → execute path (and its
        #: telemetry), so :class:`KVStore` and :class:`repro.serve.Engine`
        #: share one execution surface.  The engine is never started —
        #: the facade stays synchronous and thread-free.
        self.engine = Engine(
            backend,
            consistency=self.consistency,
            cache_capacity=cache_capacity,
            durability=durability,
            resilience=resilience,
        )
        #: The engine's view of the backend — the read-cache wrapper when
        #: ``cache_capacity`` is set — so the legacy per-method surface
        #: shares the cache (and its invalidation) with the tick path.
        self.backend = self.engine.backend

    # ------------------------------------------------------------------ #
    # The mixed-operation surface
    # ------------------------------------------------------------------ #
    def apply(
        self, batch: OpBatch, consistency: Optional[Consistency] = None
    ) -> ResultBatch:
        """Apply one mixed batch as a single tick.

        Returns the per-operation results in request order; operations the
        backend cannot serve carry per-op ``UnsupportedOperationError``
        results instead of failing the tick.
        """
        if not isinstance(batch, OpBatch):
            raise TypeError(
                f"apply expects an OpBatch, got {type(batch).__name__}; "
                "build one with OpBatch.from_ops / the columnar builders"
            )
        mode = self.consistency if consistency is None else Consistency(consistency)
        return self.engine.apply(batch, consistency=mode)

    def session(self) -> "Session":
        """A new ticketing session over this store (one tick per commit)."""
        return Session(self)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the underlying engine (idempotent).

        Delegates to :meth:`repro.serve.engine.Engine.close`: anything the
        engine has admitted is drained first, and with durability on the
        WAL receives its final group commit and its file handle (plus any
        snapshot temp state) is released.  The facade itself is
        synchronous — every :meth:`apply` has fully committed by the time
        it returned — so for a durability-off store this is a no-op kept
        for symmetry.
        """
        self.engine.close()

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def durability(self):
        """The engine's durability manager (``None`` when not configured)."""
        return self.engine.durability

    @property
    def ticks(self) -> int:
        """Number of ticks applied through this facade."""
        return self.engine.ticks

    def stats(self) -> EngineStats:
        """The engine's serving telemetry for this facade's ticks."""
        return self.engine.stats()

    def health(self):
        """The engine's health verdict
        (:class:`~repro.serve.resilience.HealthState`).  A thread-free
        facade reports ``OK`` unless a guarded stage failed — see
        :meth:`repro.serve.engine.Engine.health`."""
        return self.engine.health()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def supported_operations(self) -> frozenset:
        """The backend's supported operation set (its Table I row)."""
        return frozenset(self.backend.supported_operations())

    @property
    def epoch(self) -> int:
        """The backend's structural epoch."""
        return self.backend.epoch

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def run_due_maintenance(self) -> Optional[dict]:
        """Evaluate the backend's maintenance policy and run what is due.

        :meth:`apply` already polls this after every tick (through the
        engine); the explicit call exists for callers on the per-method
        surface, whose ``insert`` / ``delete`` batches bypass the engine.
        The poll routes through :meth:`Engine.run_due_maintenance` — it
        holds the engine's executor lock, so it can never interleave with
        a tick, and it is counted in the engine's maintenance telemetry.
        Returns ``None`` for backends without a maintenance subsystem or
        when nothing is due.
        """
        return self.engine.run_due_maintenance()

    def maintenance_stats(self) -> Optional[dict]:
        """The backend's lifetime maintenance counters —
        :attr:`EngineStats.backend_maintenance` of :meth:`stats` (``None``
        for backends without a maintenance subsystem)."""
        return self.stats().backend_maintenance

    def rebalance_stats(self) -> Optional[dict]:
        """The backend's shard-rebalance counters —
        :attr:`EngineStats.backend_rebalance` of :meth:`stats` (``None``
        for backends without a rebalancing surface)."""
        return self.stats().backend_rebalance

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"KVStore(backend={type(self.backend).__name__}, "
            f"consistency={self.consistency.value}, ticks={self.ticks})"
        )

    # ------------------------------------------------------------------ #
    # Legacy per-method surface (forwarded; still fully supported)
    # ------------------------------------------------------------------ #
    def bulk_build(
        self, keys: np.ndarray, values: Optional[np.ndarray] = None
    ) -> None:
        self.backend.bulk_build(keys, values)

    def insert(self, keys: np.ndarray, values: Optional[np.ndarray] = None) -> None:
        if values is None:
            self.backend.insert(keys)
        else:
            self.backend.insert(keys, values)

    def delete(self, keys: np.ndarray) -> None:
        self.backend.delete(keys)

    def lookup(self, query_keys: np.ndarray) -> LookupResult:
        return self.backend.lookup(query_keys)

    def count(self, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
        return self.backend.count(k1, k2)

    def range_query(self, k1: np.ndarray, k2: np.ndarray) -> RangeResult:
        return self.backend.range_query(k1, k2)


@dataclass
class Ticket:
    """Handle for one enqueued operation of a :class:`Session`.

    ``tick`` is the session-local sequence number of the commit the
    operation will ride in; ``row`` its position inside that tick.  The
    result becomes available once that commit has run.
    """

    session: "Session"
    tick: int
    row: int

    @property
    def committed(self) -> bool:
        return self.tick < len(self.session._committed)

    def result(self) -> OpResult:
        """The operation's typed result (after its tick committed)."""
        if not self.committed:
            raise RuntimeError(
                f"ticket (tick {self.tick}, row {self.row}) is not committed "
                "yet; call Session.commit() first"
            )
        return self.session._committed[self.tick].result(self.row)


class Session:
    """Deferred mixed-operation batching with per-op tickets.

    Enqueue operations one at a time (each returns a :class:`Ticket`);
    :meth:`commit` flushes everything pending as **one tick** through
    :meth:`KVStore.apply`.  Under the store's default snapshot consistency
    every read of the tick observes the state as of the commit, before any
    of the tick's own writes — the batch analogue of a consistent read
    transaction.
    """

    def __init__(self, store: KVStore) -> None:
        self.store = store
        self._pending: List[Op] = []
        self._committed: List[ResultBatch] = []

    # ------------------------------------------------------------------ #
    # Enqueue
    # ------------------------------------------------------------------ #
    def add(self, op: Op) -> Ticket:
        """Enqueue one operation; returns its ticket."""
        ticket = Ticket(
            session=self, tick=len(self._committed), row=len(self._pending)
        )
        self._pending.append(op)
        return ticket

    def extend(self, batch: OpBatch) -> List[Ticket]:
        """Enqueue every row of an already-columnar batch."""
        return [self.add(op) for op in batch]

    def insert(self, key: int, value: int = 0) -> Ticket:
        return self.add(Op(OpCode.INSERT, key, value=value))

    def delete(self, key: int) -> Ticket:
        return self.add(Op(OpCode.DELETE, key))

    def lookup(self, key: int) -> Ticket:
        return self.add(Op(OpCode.LOOKUP, key))

    def count(self, k1: int, k2: int) -> Ticket:
        return self.add(Op(OpCode.COUNT, k1, range_end=k2))

    def range_query(self, k1: int, k2: int) -> Ticket:
        return self.add(Op(OpCode.RANGE, k1, range_end=k2))

    # ------------------------------------------------------------------ #
    # Commit
    # ------------------------------------------------------------------ #
    @property
    def num_pending(self) -> int:
        return len(self._pending)

    @property
    def ticks_committed(self) -> int:
        return len(self._committed)

    def commit(self, consistency: Optional[Consistency] = None) -> ResultBatch:
        """Flush the pending operations as one tick; resolves their
        tickets.

        A commit with **zero pending operations is a pure no-op**: it
        returns an empty :class:`~repro.api.ops.ResultBatch` without
        running a planner tick, advancing the store's tick counter, or
        bumping any backend epoch.  (No tickets point at the would-be
        tick, so ticket arithmetic stays aligned without recording it.)

        A failing tick (a backend rejection, a snapshot violation) leaves
        the session unchanged: the operations stay pending, their tickets
        stay valid, and the commit can simply be retried.
        """
        if not self._pending:
            return empty_result_batch()
        batch = OpBatch.from_ops(self._pending)
        result = self.store.apply(batch, consistency=consistency)
        self._pending = []
        self._committed.append(result)
        return result
