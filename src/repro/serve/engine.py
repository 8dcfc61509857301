"""The serving engine: multi-client admission over the mixed-op planner.

Many concurrent clients :meth:`~Engine.submit` single operations (or
:meth:`~Engine.submit_batch` columnar batches) and get future-style
tickets back, while the engine turns the combined stream into the few
large bulk-synchronous ticks the paper's structures want.  In front of
the tick path: **admission** (a FIFO queue with a backpressure bound,
``max_queue_depth`` of :class:`TickConfig`), the **adaptive tick
scheduler** of :mod:`repro.serve.scheduler` (cut a tick when the queue
reaches the target size *or* its oldest operation has lingered past the
deadline) and **pipelining** (the scheduler thread plans tick *N+1* on
the engine's own planning device while the executor thread commits *N*).

The tick path itself — the paper's unit of work, one batch applied as a
whole, plus the guards around it — exists once, as three steps:

* **commit** (:meth:`Engine._commit_locked`, under the executor lock):
  capture the backend when ticks are transactional →
  :func:`~repro.api.planner.execute_plan` → the post-execute fault point
  → the WAL append (the acknowledgement) → on failure, roll back the
  backend and drop what the failed append left in the log.
* **complete** (:meth:`Engine._complete_tick`): resolve the tick's
  tickets from its result — or its error — and record the tick, which
  moves the :meth:`~Engine.flush` watermark.
* **fail** (:meth:`Engine._fail_tick`): a completion with no result
  that always moves the watermark; every recovery path (a crashed
  completion, a crashed loop, fail-stop) ends in it.

Three callers share them.  :meth:`Engine.apply` — the inline path
:class:`~repro.api.kvstore.KVStore` delegates to — plans, commits and
completes one caller-formed tick under the lock and re-raises a failure.
:meth:`Engine._execute_tick` — the executor thread — commits under the
lock and completes outside it, inside a guard that turns a completion
crash into a failed tick instead of a dead thread.  The **quarantine
retry** is that same executor running :meth:`Engine._isolate` on a
rolled-back tick (probe each submission alone, fail the poison ones
typed) and then the commit step again for the innocents, without fault
injection.  After a committed tick each caller runs the one post-commit
poll (:meth:`Engine._poll_locked`: ``backend.run_due_maintenance()``,
then the snapshot policy) under the executor lock, so policy-driven
cleanup, compaction and rebalancing run *between* ticks and never
interleave with a tick's pinned reads; the executor polls only after
the tickets resolved, and guards the poll.

Telemetry (:meth:`Engine.stats`) follows :mod:`repro.gpu.profiler`:
simulated seconds from the device counters, wall-clock ops/s alongside
(the two time axes never mix), latency percentiles through the bounded
:class:`repro.gpu.profiler.LatencyHistogram`.
"""

from __future__ import annotations

import collections
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.api.ops import Op, OpBatch, OpResult, ResultBatch
from repro.api.planner import (
    Consistency,
    Plan,
    _backend_device,
    _read_epoch,
    execute_plan,
    plan_batch,
)
from repro.durability import faults as faults_mod
from repro.durability.manager import DurabilityConfig, DurabilityManager
from repro.gpu.cost_model import CostModel
from repro.gpu.device import Device
from repro.gpu.profiler import LatencyHistogram
from repro.scale.protocol import simulated_seconds
from repro.serve.cache import ReadCachedBackend
from repro.serve.errors import (
    DeadlineExceededError,
    EngineClosedError,
    EngineError,
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
from repro.serve.scheduler import TickConfig, TickTrigger


def slice_result_batch(result: ResultBatch, lo: int, hi: int) -> ResultBatch:
    """The rows ``[lo, hi)`` of a tick's results as their own batch.

    A tick coalesces whole client submissions contiguously, so one
    client's answers are a row slice; the range payload is re-based onto
    the slice's own offsets.
    """
    sub_request = result.request.slice(lo, hi)
    offsets = result.range_offsets
    base = int(offsets[lo])
    return ResultBatch(
        request=sub_request,
        statuses=result.statuses[lo:hi],
        found=result.found[lo:hi],
        values=None if result.values is None else result.values[lo:hi],
        counts=result.counts[lo:hi],
        range_offsets=offsets[lo : hi + 1] - base,
        range_keys=result.range_keys[base : int(offsets[hi])],
        range_values=(
            None
            if result.range_values is None
            else result.range_values[base : int(offsets[hi])]
        ),
        errors={i - lo: e for i, e in result.errors.items() if lo <= i < hi},
    )


# ---------------------------------------------------------------------- #
# Tickets
# ---------------------------------------------------------------------- #
class _Ticket:
    """Future-style handle shared by single-op and batch submissions."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value = None
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        """True once the operation's tick has executed (or failed)."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)

    def _resolve(self, value) -> None:
        self._value = value
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        """Fail the ticket unless it already resolved (a crashed stage
        may have resolved some of a tick's tickets before dying)."""
        if not self._event.is_set():
            self._error = error
            self._event.set()

    def _get(self, timeout: Optional[float]):
        if not self._event.wait(timeout):
            raise TimeoutError("the operation's tick has not executed yet")
        if self._error is not None:
            raise self._error
        return self._value


class OpTicket(_Ticket):
    """Ticket for one submitted :class:`~repro.api.ops.Op`.

    :meth:`result` blocks until the operation's tick has executed and
    returns the typed :class:`~repro.api.ops.OpResult`; if the tick failed
    (a backend rejection, a snapshot violation) the failure is re-raised
    here instead.
    """

    def result(self, timeout: Optional[float] = None) -> OpResult:
        return self._get(timeout)


class BatchTicket(_Ticket):
    """Ticket for one submitted :class:`~repro.api.ops.OpBatch`.

    Resolves to the submission's own request-ordered
    :class:`~repro.api.ops.ResultBatch` (sliced out of the tick it rode
    in).
    """

    def result(self, timeout: Optional[float] = None) -> ResultBatch:
        return self._get(timeout)


@dataclass
class _Entry:
    """One admitted submission waiting in the queue."""

    batch: OpBatch
    ticket: _Ticket
    t_submit: float
    seq: int
    #: Absolute monotonic time after which the submission is shed with
    #: :class:`DeadlineExceededError` instead of executed (``None`` = no
    #: deadline; checked at tick-cut time).
    t_deadline: Optional[float] = None

    @property
    def size(self) -> int:
        return self.batch.size


@dataclass
class _FormedTick:
    """One tick on its way through the plan → commit → complete pipeline."""

    size: int
    trigger: TickTrigger
    t_formed: float
    entries: List[_Entry] = field(default_factory=list)
    offsets: List[int] = field(default_factory=list)  # entry row offsets
    #: Sequence watermark the tick's final record exposes to :meth:`flush`,
    #: along with the in-flight slot it hands back; ``None`` for an inline
    #: tick, which never went through admission (and has no entries).
    last_seq: Optional[int] = None
    #: The entries' rows, concatenated when the tick is planned — so a
    #: failure there is a planning failure of a tick the supervisor's reap
    #: can already see.
    batch: Optional[OpBatch] = None


def _pow2_bucket(size: int) -> int:
    """Upper bound of the power-of-two histogram bucket holding ``size``."""
    return 1 << max(0, int(size - 1).bit_length())


@dataclass(frozen=True)
class EngineStats:
    """Snapshot of the engine's serving telemetry.

    Latencies are wall-clock seconds (submit → ticket resolved for
    operations, tick cut → executed for ticks); ``simulated_seconds`` is
    the backend device time the engine's ticks consumed and
    ``plan_seconds`` the planning-device time (overlapped with execution
    when the engine is running threaded).
    """

    ticks: int
    failed_ticks: int
    ops_completed: int
    queue_depth: int
    max_queue_depth_seen: int
    mean_tick_size: float
    tick_size_histogram: Dict[int, int]
    triggers: Dict[str, int]
    op_latency: Dict[str, float]
    tick_latency: Dict[str, float]
    simulated_seconds: float
    plan_seconds: float
    wall_seconds: float
    #: Query-filter pruning statistics of the backend (the dict of
    #: ``GPULSM.filter_stats`` / ``ShardedLSM.filter_stats``: probe pair
    #: counts, fence/Bloom prune rates, false-positive rate, filter memory),
    #: or ``None`` for backends without a query acceleration layer.
    backend_filters: Optional[Dict[str, float]] = None
    #: Maintenance runs the engine itself scheduled between ticks (the
    #: executor-thread polls of ``backend.run_due_maintenance``), with the
    #: simulated device time and resident elements they reclaimed.
    maintenance_runs: int = 0
    maintenance_seconds: float = 0.0
    maintenance_reclaimed: int = 0
    #: The backend's lifetime maintenance counters
    #: (``GPULSM.maintenance_stats`` / ``ShardedLSM.maintenance_stats``:
    #: runs by kind, per-policy trigger counts, reclaimed elements,
    #: padding, maintenance time), or ``None`` for backends without a
    #: maintenance subsystem.
    backend_maintenance: Optional[Dict[str, object]] = None
    #: Hot-key read-cache counters (``ReadCachedBackend.cache_stats``:
    #: hits, misses, fills, evictions, wholesale epoch invalidations), or
    #: ``None`` when the engine runs uncached.
    read_cache: Optional[Dict[str, int]] = None
    #: Durability counters (``DurabilityManager.stats``: wal_appends,
    #: wal_fsyncs, wal_bytes, snapshot_runs, recovery_replayed_ticks,
    #: ...), or ``None`` when the engine runs without durability.
    durability: Optional[Dict[str, int]] = None
    #: Resilience counters, all zero / ``"ok"`` with the knobs off.
    #: Operations shed with ``DeadlineExceededError`` at tick-cut time.
    deadline_shed_ops: int = 0
    #: Operations refused by the load-shedding policy at admission.
    admission_shed_ops: int = 0
    #: Failed ticks whose backend mutations were rolled back.
    rolled_back_ticks: int = 0
    #: Failed ticks the quarantine protocol re-executed entry-by-entry.
    quarantined_ticks: int = 0
    #: Entries condemned as poison (failed even in isolation).
    poisoned_entries: int = 0
    #: Engine-internal faults (guarded-stage failures, loop crashes).
    internal_faults: int = 0
    #: Supervised scheduler/executor loop restarts.
    loop_restarts: int = 0
    #: The health state machine's verdict: ``ok`` / ``degraded`` /
    #: ``failed``.
    health: str = HealthState.OK.value
    #: Shard-rebalance counters of a sharded backend
    #: (``ShardedLSM.rebalance_stats``: rebalance runs, splits/merges,
    #: rows migrated, boundary version, per-shard traffic), or ``None``
    #: for backends without a rebalancing surface.
    backend_rebalance: Optional[Dict[str, object]] = None

    @property
    def ops_per_second(self) -> float:
        """Completed operations per wall-clock second."""
        if self.wall_seconds <= 0:
            return float("nan")
        return self.ops_completed / self.wall_seconds

    @property
    def simulated_rate_m_per_s(self) -> float:
        """Millions of operations per *simulated* second (profiler units)."""
        return CostModel.rate_m_per_s(self.ops_completed, self.simulated_seconds)

    def summary_rows(self) -> List[Dict[str, object]]:
        """Flat dict rows in the profiler's ``summary_rows`` convention."""
        return [
            {
                "region": "serve.engine",
                "items": self.ops_completed,
                "ticks": self.ticks,
                "failed_ticks": self.failed_ticks,
                "mean_tick_size": self.mean_tick_size,
                "simulated_ms": self.simulated_seconds * 1e3,
                "rate_m_per_s": self.simulated_rate_m_per_s,
                "wall_ops_per_s": self.ops_per_second,
                "plan_ms": self.plan_seconds * 1e3,
                "queue_depth": self.queue_depth,
                "p50_latency_ms": self.op_latency.get("p50", float("nan")) * 1e3,
                "p95_latency_ms": self.op_latency.get("p95", float("nan")) * 1e3,
                "p99_latency_ms": self.op_latency.get("p99", float("nan")) * 1e3,
                "filter_prune_rate": (
                    self.backend_filters.get("lookup_prune_rate", float("nan"))
                    if self.backend_filters
                    else float("nan")
                ),
                "maintenance_ms": self.maintenance_seconds * 1e3,
            }
        ]


class Engine:
    """Multi-client serving engine over one dictionary backend.

    Parameters
    ----------
    backend:
        Any :class:`~repro.scale.protocol.DictionaryProtocol` backend —
        a :class:`~repro.core.lsm.GPULSM`, a
        :class:`~repro.scale.sharded.ShardedLSM` (ticks fan out across its
        shards through the one-multisplit route), or a baseline.
    config:
        The :class:`~repro.serve.scheduler.TickConfig` of the adaptive
        tick scheduler.
    consistency:
        Intra-tick ordering applied to every scheduler-formed tick.
        Multi-client coalescing makes tick boundaries traffic-dependent,
        so STRICT is the mode whose answers are independent of where ticks
        are cut (arrival order is always honoured); SNAPSHOT gives each
        tick's queries the pre-tick state, which clients observe through
        their ticket's tick assignment.
    plan_device:
        Device the planner's kernels are recorded on.  Defaults to the
        backend's own device for inline use; :meth:`start` allocates a
        dedicated planning device so threaded planning never races the
        executor's backend devices.
    cache_capacity:
        When a positive integer, wrap the backend in an epoch-guarded
        :class:`~repro.serve.cache.ReadCachedBackend` holding up to this
        many hot keys.  Cached answers are bit-identical (the cache is
        invalidated wholesale whenever the structural epoch moves) and
        SNAPSHOT/STRICT pinning is unaffected.  ``None`` / ``0`` runs
        uncached.
    durability:
        A :class:`~repro.durability.DurabilityConfig` to make the store
        crash-safe: prior state in the configured directory is recovered
        at construction (snapshot + WAL replay into the backend, which
        must then be empty), every committed tick's update rows are
        appended to the WAL before its results are returned (the commit
        step), and checkpoints run between ticks per the config's
        snapshot policy (the post-commit poll).  ``None`` (the default)
        runs without durability.  It attaches to the **raw** backend,
        beneath any read cache, so recovery and snapshots see the real
        structure.
    resilience:
        A :class:`~repro.serve.resilience.ResilienceConfig` bundling the
        fault-isolation knobs: transactional ticks (the commit step rolls
        the backend back on failure), poison-op quarantine (isolate the
        offending submission, retry the innocent ones with bit-identical
        answers), supervised thread restarts with the :meth:`health`
        state machine, deadline-aware shedding, and the engine-side
        fault-injection points.  ``None`` (the default) equals a
        default-constructed config: every knob off.  Like durability,
        rollback operates on the **raw** backend beneath any read cache.

    Usage::

        with Engine(backend, TickConfig(target_tick_size=1024)) as engine:
            ticket = engine.submit(Op.lookup(42))
            ...
            print(ticket.result().found)
    """

    def __init__(
        self,
        backend,
        config: Optional[TickConfig] = None,
        consistency: Consistency = Consistency.SNAPSHOT,
        plan_device: Optional[Device] = None,
        cache_capacity: Optional[int] = None,
        durability: Optional[DurabilityConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        self.resilience = resilience or ResilienceConfig()
        if self.resilience.transactional_ticks and not supports_rollback(backend):
            raise TypeError(
                f"transactional_ticks needs a backend with snapshot_state/"
                f"rollback_to; {type(backend).__name__} has neither"
            )
        self._durability: Optional[DurabilityManager] = None
        if durability is not None:
            manager = (
                durability
                if isinstance(durability, DurabilityManager)
                else DurabilityManager(durability)
            )
            # Attach against the raw backend, before any cache wrap:
            # recovery restores levels and snapshots serialize them, and
            # both must see the real structure, not a read-through proxy.
            manager.attach(backend)
            self._durability = manager
        # What an ingest or a recovery left pending, not the first tick, builds.
        if hasattr(backend, "build_pending_filters"):
            backend.build_pending_filters()
        #: The unwrapped backend — what the commit step captures and
        #: rolls back (the contract is with the real structure, like
        #: durability's, not the cache proxy).
        self._raw_backend = backend
        self._read_cache: Optional[ReadCachedBackend] = None
        if cache_capacity:
            backend = ReadCachedBackend(backend, capacity=int(cache_capacity))
            self._read_cache = backend
        self.backend = backend
        self.config = config or TickConfig()
        self.consistency = Consistency(consistency)
        self._plan_device = plan_device
        self._fault_injector = self.resilience.fault_injector
        self._health = HealthMonitor(self.resilience.recovery_ticks)
        #: Set once by :meth:`_fail_engine`; a fail-stopped engine refuses
        #: every submission and has resolved every outstanding ticket.
        self._failed_error: Optional[BaseException] = None
        #: When the admission queue first hit the backpressure bound and
        #: has stayed there (``None`` while below the bound) — what the
        #: load-shedding policy's grace period is measured against.
        self._saturated_since: Optional[float] = None
        #: Ticks cut but not yet finally recorded (planning, queued for
        #: execution, or executing) — shed-only cuts must not advance
        #: ``_completed_seq`` past them (see ``_pending_shed_seq``).
        self._inflight_ticks = 0
        self._pending_shed_seq = 0
        #: The tick currently owned by each loop, reaped by the watchdog
        #: if the loop crashes so its tickets never dangle.
        self._pending_cut: Optional[_FormedTick] = None
        self._executing: Optional[_FormedTick] = None

        self._cond = threading.Condition()
        self._queue: Deque[_Entry] = collections.deque()
        self._queued_ops = 0
        self._seq = 0
        self._completed_seq = 0
        self._flush_requested = False
        self._started = False
        self._closing = False
        self._closed = False
        self._scheduler_thread: Optional[threading.Thread] = None
        self._executor_thread: Optional[threading.Thread] = None
        #: Hand-off of planned ticks; depth 1 = plan N+1 while N executes.
        self._exec_queue: "queue_module.Queue" = queue_module.Queue(maxsize=1)
        #: Serialises backend access between the executor thread and
        #: inline :meth:`apply` calls.
        self._exec_lock = threading.Lock()

        # Telemetry (all mutated under self._cond).
        self._ticks = 0
        self._failed_ticks = 0
        self._ops_done = 0
        self._tick_sizes: Dict[int, int] = {}
        self._tick_size_sum = 0
        self._triggers: Dict[str, int] = {}
        # Bounded log-bucketed accumulators: stats() stays O(1)-ish no
        # matter how long the engine runs (no per-sample memory, no
        # full-array percentile recomputation per snapshot).
        self._op_latencies = LatencyHistogram()
        self._tick_latencies = LatencyHistogram()
        self._sim_seconds_total = 0.0
        self._plan_seconds_total = 0.0
        self._maintenance_runs = 0
        self._maintenance_seconds = 0.0
        self._maintenance_reclaimed = 0
        self._max_queue_seen = 0
        self._t_first: Optional[float] = None
        self._t_last_done: Optional[float] = None
        # Resilience telemetry (also under self._cond).
        self._deadline_shed_ops = 0
        self._admission_shed_ops = 0
        self._rolled_back_ticks = 0
        self._quarantined_ticks = 0
        self._poisoned_entries = 0
        self._loop_restarts: Dict[str, int] = {"scheduler": 0, "executor": 0}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "Engine":
        """Start the scheduler and executor threads (idempotent)."""
        with self._cond:
            if self._closed:
                raise EngineClosedError("the engine has been closed")
            if self._started:
                return self
            if self._plan_device is None:
                # A dedicated planning device: threaded planning of tick
                # N+1 must not race the executor's kernels for tick N on
                # the backend's devices.
                self._plan_device = Device(_backend_device(self.backend).spec)
            self._started = True
        self._scheduler_thread = threading.Thread(
            target=self._run_supervised,
            args=(self._scheduler_loop, "scheduler"),
            name="serve-scheduler",
            daemon=True,
        )
        self._executor_thread = threading.Thread(
            target=self._run_supervised,
            args=(self._executor_loop, "executor"),
            name="serve-executor",
            daemon=True,
        )
        self._scheduler_thread.start()
        self._executor_thread.start()
        return self

    def close(self) -> None:
        """Drain everything queued as final flush ticks, then stop.

        Every *admitted* submission is executed (and WAL-logged, with
        durability on) before the threads stop: the scheduler cuts the
        remaining queue into flush ticks and the executor runs them all,
        so no acknowledged-for-admission operation is ever lost without a
        tick record.  The durability manager is closed last — after the
        drain — issuing the final group commit and releasing the WAL file
        handle.  Idempotent.
        """
        try:
            with self._cond:
                if self._closed:
                    return
                self._closed = True
                if not self._started:
                    return
                self._closing = True
                self._cond.notify_all()
            assert self._scheduler_thread and self._executor_thread
            self._scheduler_thread.join()
            self._executor_thread.join()
            with self._cond:
                self._started = False
        finally:
            if self._durability is not None:
                self._durability.close()

    def __enter__(self) -> "Engine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def running(self) -> bool:
        return self._started and not self._closed

    @property
    def queue_depth(self) -> int:
        """Operations admitted but not yet cut into a tick."""
        with self._cond:
            return self._queued_ops

    @property
    def ticks(self) -> int:
        """Ticks executed successfully so far."""
        with self._cond:
            return self._ticks

    @property
    def read_cache(self) -> Optional[ReadCachedBackend]:
        """The engine's hot-key read cache, or ``None`` when uncached."""
        return self._read_cache

    def health(self) -> HealthState:
        """The engine's health state machine verdict.

        ``OK`` — serving normally.  ``DEGRADED`` — an internal fault was
        seen recently (a guarded stage raised, a loop crashed and was
        restarted); still serving, recovers to ``OK`` after
        ``recovery_ticks`` clean ticks.  ``FAILED`` — fail-stopped:
        every outstanding ticket has been resolved with
        :class:`~repro.serve.errors.EngineInternalError` and every new
        submission is refused.  Client-attributable failures (poison
        operations, deadline sheds, saturation) never degrade health.
        """
        with self._cond:
            return self._health.state

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        op: Op,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> OpTicket:
        """Enqueue one operation; returns its future-style ticket.

        Blocks while the queue is at the backpressure bound; ``timeout=0``
        raises :class:`EngineSaturatedError` immediately instead, any
        other timeout raises it once the wait expires.

        ``deadline`` is the operation's latency budget in seconds from
        now: if it is still queued when a tick is cut after the budget
        expires, it is shed — its ticket fails with
        :class:`~repro.serve.errors.DeadlineExceededError` and the
        operation is never executed.  ``None`` (the default) never sheds.
        """
        ticket = OpTicket()
        self._admit(OpBatch.from_ops([op]), ticket, timeout, deadline)
        return ticket

    def submit_batch(
        self,
        batch: OpBatch,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> BatchTicket:
        """Enqueue one columnar batch as a unit (never split across ticks).

        The ticket resolves to the submission's own request-ordered
        :class:`~repro.api.ops.ResultBatch`.  A batch larger than the
        backpressure bound is admitted once the queue is empty.
        ``deadline`` bounds queueing latency for the whole batch, exactly
        as on :meth:`submit`.
        """
        if not isinstance(batch, OpBatch):
            raise TypeError(
                f"submit_batch expects an OpBatch, got {type(batch).__name__}"
            )
        ticket = BatchTicket()
        if batch.size == 0:
            ticket._resolve(empty_result_batch())
            return ticket
        self._admit(batch, ticket, timeout, deadline)
        return ticket

    def _admit(
        self,
        batch: OpBatch,
        ticket: _Ticket,
        timeout: Optional[float],
        deadline: Optional[float] = None,
    ) -> None:
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be a non-negative number of seconds")
        timeout_at = None if timeout is None else time.monotonic() + timeout
        shedding = self.resilience.shedding
        with self._cond:
            while True:
                if self._failed_error is not None:
                    raise EngineInternalError(
                        "the engine has fail-stopped and is not accepting "
                        "submissions",
                        cause=self._failed_error,
                    )
                if self._closed or self._closing:
                    raise EngineClosedError(
                        "the engine is closed and not accepting submissions"
                    )
                if not self._started:
                    raise EngineClosedError(
                        "the engine is not running; call start() (or use "
                        "apply() for the single-client inline path)"
                    )
                fits = (
                    self._queued_ops + batch.size <= self.config.max_queue_depth
                    or self._queued_ops == 0
                )
                if fits:
                    break
                now = time.monotonic()
                if self._saturated_since is None:
                    self._saturated_since = now
                if shedding is not None and shedding.should_shed(
                    now - self._saturated_since
                ):
                    self._admission_shed_ops += batch.size
                    raise EngineSaturatedError(
                        f"load shed: the admission queue has been saturated "
                        f"for {now - self._saturated_since:.3f}s "
                        f"(grace {shedding.grace_s}s; {self._queued_ops} "
                        f"queued ops, bound {self.config.max_queue_depth})"
                    )
                remaining = None if timeout_at is None else timeout_at - now
                if remaining is not None and remaining <= 0:
                    raise EngineSaturatedError(
                        f"admission queue is at its backpressure bound "
                        f"({self._queued_ops} queued ops, bound "
                        f"{self.config.max_queue_depth})"
                    )
                wait_for = remaining
                if shedding is not None:
                    until_shed = shedding.time_until_shed(
                        now - self._saturated_since
                    )
                    wait_for = (
                        until_shed
                        if wait_for is None
                        else min(wait_for, until_shed)
                    )
                self._cond.wait(wait_for)
            now = time.monotonic()
            self._seq += 1
            self._queue.append(
                _Entry(
                    batch=batch,
                    ticket=ticket,
                    t_submit=now,
                    seq=self._seq,
                    t_deadline=None if deadline is None else now + deadline,
                )
            )
            self._queued_ops += batch.size
            self._max_queue_seen = max(self._max_queue_seen, self._queued_ops)
            if self._t_first is None:
                self._t_first = now
            self._cond.notify_all()

    def flush(self, timeout: Optional[float] = None) -> None:
        """Cut everything currently queued into ticks and wait for them."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            if not self._started:
                return
            target = self._seq
            if self._completed_seq >= target:
                return
            self._flush_requested = True
            self._cond.notify_all()
            while self._completed_seq < target:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("flush timed out")
                self._cond.wait(remaining)

    # ------------------------------------------------------------------ #
    # The tick path: one commit step, one completion step, one failure step
    # ------------------------------------------------------------------ #
    def _commit_locked(
        self, batch: OpBatch, plan: Plan, retry: bool = False
    ) -> Tuple[Optional[ResultBatch], Optional[BaseException], Optional[dict]]:
        """The one commit step (holding the executor lock): capture the
        raw backend when ticks are transactional → execute the plan → the
        post-execute fault point → the WAL append → on failure roll back.

        Returns ``(result, error, token)``.  The WAL record is the
        acknowledgement: a tick whose append did not return is not
        committed and its results are never handed out.  ``token`` is the
        pre-tick capture a failed tick was rolled back to — the backend is
        then bit-identical to its pre-tick state and never ahead of the
        log, and the log holds no unacknowledged record of the tick — or
        ``None`` when nothing was captured; a rollback that
        itself fails turns ``error`` into :class:`EngineInternalError`.

        ``retry`` marks the quarantine's second attempt at the same tick:
        no fault injection (the injector's hit counts belong to first
        attempts) and its rollback is not counted again.
        """
        inject = self._fault_injector is not None and not retry
        token = (
            self._raw_backend.snapshot_state()
            if self.resilience.transactional_ticks
            else None
        )
        try:
            result = execute_plan(
                batch,
                plan,
                self.backend,
                fault_check=self._check_fault if inject else None,
            )
            if inject:
                self._check_fault("engine.post_execute_pre_wal")
            if self._durability is not None:
                self._durability.log_tick(batch, plan.consistency)
            return result, None, None
        except Exception as exc:
            if token is None:
                return None, exc, None
            try:
                self._raw_backend.rollback_to(token)
                if self._durability is not None:
                    # Every client will see this tick fail: a record whose
                    # append wrote it but did not acknowledge it must not
                    # outlive the rollback (a clean close would keep it
                    # and recovery would replay a tick nobody committed).
                    self._durability.abort_tick()
            except Exception as rb_exc:
                return None, EngineInternalError(
                    "tick rollback failed; backend state is undefined",
                    cause=rb_exc,
                ), None
            if not retry:
                with self._cond:
                    self._rolled_back_ticks += 1
            return None, exc, token

    def _complete_tick(
        self,
        tick: _FormedTick,
        result: Optional[ResultBatch],
        error: Optional[BaseException],
        sim_seconds: float = 0.0,
        plan_seconds: float = 0.0,
    ) -> None:
        """The one completion step: resolve the tick's tickets from its
        ``result`` — or fail the still-pending ones with ``error`` — and
        record the tick, which advances the sequence watermark and hands
        back the in-flight slot.

        A tick's rows are contiguous per entry, so resolution is one
        slice (or typed row view) and one weighted latency sample per
        *submission*, not per op.  An inline tick has no entries; its one
        sample is the whole batch.
        """
        t_done = time.monotonic()
        for entry, offset in zip(tick.entries, tick.offsets):
            if error is not None:
                entry.ticket._fail(error)
            elif isinstance(entry.ticket, BatchTicket):
                entry.ticket._resolve(
                    slice_result_batch(result, offset, offset + entry.size)
                )
            else:
                entry.ticket._resolve(result.result(offset))
        latency = t_done - tick.t_formed
        self._record_tick(
            size=tick.size,
            trigger=tick.trigger,
            op_latencies=[
                (t_done - entry.t_submit, entry.size) for entry in tick.entries
            ]
            or [(latency, tick.size)],
            tick_latency=latency,
            sim_seconds=sim_seconds,
            plan_seconds=plan_seconds,
            t_done=t_done,
            failed=error is not None,
            last_seq=tick.last_seq,
        )

    def _fail_tick(self, tick: _FormedTick, error: BaseException) -> None:
        """The one failure step: a completion with no result — tickets a
        crashed stage already resolved keep their answers — that moves the
        watermark even when the telemetry itself is what broke, so
        :meth:`flush` never wedges."""
        try:
            self._complete_tick(tick, None, error)
        except Exception:  # pragma: no cover - last-ditch watermark bump
            with self._cond:
                self._completed_seq = max(self._completed_seq, tick.last_seq)
                self._inflight_ticks = max(0, self._inflight_ticks - 1)
                self._cond.notify_all()

    def _poll_locked(self) -> None:
        """The one post-commit poll (holding the executor lock):
        maintenance first, so a checkpoint captures the state a
        just-triggered cleanup/compaction produced, not the one it is
        about to replace."""
        self._run_due_maintenance_locked()
        if self._durability is not None:
            self._durability.maybe_snapshot()

    def apply(
        self, batch: OpBatch, consistency: Optional[Consistency] = None
    ) -> ResultBatch:
        """Run one caller-formed tick inline, bypassing admission.

        The single-client view :class:`~repro.api.kvstore.KVStore` is
        built on: no queue, no threads, but the same commit and completion
        steps and telemetry as scheduler-formed ticks.  Safe to call while
        the engine runs threaded (it serialises with the executor).

        A failure — in planning or in the commit step — is recorded as a
        failed tick and then propagates; with ``transactional_ticks`` the
        backend is back at its pre-tick state by then.  Quarantine does
        not apply: the caller formed the batch, so the whole batch is the
        fault domain.
        """
        mode = self.consistency if consistency is None else Consistency(consistency)
        # Inline ticks always plan on the backend's own device: the
        # scheduler thread owns the dedicated planning device, and the
        # backend devices are quiescent while we hold the executor lock.
        plan_device = _backend_device(self.backend)
        tick = _FormedTick(
            batch.size, TickTrigger.DIRECT, time.monotonic(), batch=batch
        )
        result = None
        plan_delta = sim_delta = 0.0
        with self._exec_lock:
            try:
                self._check_fault("engine.pre_plan")
                plan_before = plan_device.simulated_seconds
                plan = plan_batch(batch, consistency=mode, device=plan_device)
                plan_delta = plan_device.simulated_seconds - plan_before
            except Exception as exc:
                error = exc
            else:
                sim_before = simulated_seconds(self.backend)
                result, error, _ = self._commit_locked(batch, plan)
                sim_delta = simulated_seconds(self.backend) - sim_before
            self._complete_tick(
                tick, result, error, sim_delta + plan_delta, plan_delta
            )
            if error is not None:
                raise error
            self._poll_locked()
        return result

    # ------------------------------------------------------------------ #
    # Scheduler / executor threads
    # ------------------------------------------------------------------ #
    def _cut_tick_locked(self) -> List[_Entry]:
        """Pop whole entries until the tick reaches the target size.

        Entries whose ``deadline=`` expired while queued are shed instead
        — failed with :class:`DeadlineExceededError`, never executed,
        their seqs queued for :meth:`flush`.  Shedding happens only here,
        at the queue front during a cut, so the FIFO sequence accounting
        :meth:`flush` relies on stays monotone.
        """
        entries: List[_Entry] = []
        total = 0
        now = time.monotonic()
        while self._queue and total < self.config.target_tick_size:
            entry = self._queue.popleft()
            if entry.t_deadline is not None and now >= entry.t_deadline:
                self._queued_ops -= entry.size
                self._deadline_shed_ops += entry.size
                self._pending_shed_seq = max(self._pending_shed_seq, entry.seq)
                entry.ticket._fail(
                    DeadlineExceededError(
                        f"deadline expired {now - entry.t_deadline:.4f}s ago "
                        f"while the submission waited in the admission queue; "
                        f"it was shed, not executed"
                    )
                )
                continue
            entries.append(entry)
            total += entry.size
        self._queued_ops -= total
        if self._queued_ops < self.config.max_queue_depth:
            self._saturated_since = None
        self._cond.notify_all()  # backpressured submitters may proceed
        return entries

    def _expose_shed_seq_locked(self) -> None:
        """Shed seqs must reach :meth:`flush` so it completes, but may
        not overtake a tick still in flight: expose them only once
        nothing older is planning or executing."""
        if self._inflight_ticks == 0 and self._pending_shed_seq:
            self._completed_seq = max(
                self._completed_seq, self._pending_shed_seq
            )
            self._pending_shed_seq = 0
            self._cond.notify_all()

    def _scheduler_loop(self) -> None:
        while True:
            tick: Optional[_FormedTick] = None
            with self._cond:
                while tick is None:
                    if self._failed_error is not None:
                        break
                    if self._queue:
                        if self._closing or self._flush_requested:
                            trigger = TickTrigger.FLUSH
                        else:
                            age = time.monotonic() - self._queue[0].t_submit
                            trigger = self.config.trigger(self._queued_ops, age)
                        if trigger is not None:
                            entries = self._cut_tick_locked()
                            if not entries:
                                self._expose_shed_seq_locked()
                                continue
                            # The supervisor's reap holds the tick before
                            # anything that can fail touches it, so a
                            # crash never strands its tickets.
                            self._inflight_ticks += 1
                            tick = self._pending_cut = self._form_tick(
                                entries, trigger
                            )
                            break
                        self._cond.wait(self.config.time_until_deadline(age))
                        continue
                    if self._flush_requested:
                        self._flush_requested = False
                        self._cond.notify_all()
                    if self._closing:
                        break
                    self._cond.wait()
            if tick is None:  # closing (queue drained) or fail-stopped
                self._put_exec(None)
                return
            outcome = self._plan_tick(tick)
            self._pending_cut = None
            if outcome is None:
                continue  # the tick was fully resolved by the plan-failure path
            if not self._put_exec(outcome):
                return  # fail-stopped while the hand-off queue was full

    @staticmethod
    def _form_tick(
        entries: List[_Entry],
        trigger: TickTrigger,
        parent: Optional[_FormedTick] = None,
    ) -> _FormedTick:
        """Bookkeeping only — the rows are concatenated by :meth:`_plan`.
        A retry tick inherits its ``parent``'s cut time, sequence
        watermark and in-flight slot."""
        offsets: List[int] = []
        total = 0
        for entry in entries:
            offsets.append(total)
            total += entry.size
        return _FormedTick(
            total,
            trigger,
            parent.t_formed if parent else time.monotonic(),
            entries,
            offsets,
            parent.last_seq if parent else max(e.seq for e in entries),
        )

    def _plan(self, tick: _FormedTick, device: Device) -> Plan:
        """Concatenate a scheduler-formed tick's rows (once) and plan it."""
        if tick.batch is None:
            tick.batch = OpBatch.concat([e.batch for e in tick.entries])
        return plan_batch(tick.batch, consistency=self.consistency, device=device)

    def _plan_tick(
        self, tick: _FormedTick
    ) -> Optional[Tuple[_FormedTick, Plan]]:
        """The pipeline's first stage: plan the tick outside the lock,
        overlapping the executor thread's work on the previous tick.

        A planning failure (a poison submission, an injected crash) must
        not kill this thread.  The backend is untouched, so the tick is
        failed wholesale with the planner's error — or, with quarantine
        on, isolated with plan-only probes and the innocents' retry tick
        continues down the pipeline.  ``None`` means fully resolved.
        """
        device = self._plan_device
        try:
            self._check_fault("engine.pre_plan")
            plan_before = device.simulated_seconds
            plan = self._plan(tick, device)
        except Exception as exc:
            retry = (
                self._isolate(tick, device) if self.resilience.quarantine else None
            )
            if retry is None:
                self._complete_tick(tick, None, exc)
            return retry
        with self._cond:
            self._plan_seconds_total += device.simulated_seconds - plan_before
        return tick, plan

    def _executor_loop(self) -> None:
        while True:
            item = self._exec_queue.get()
            if item is None:
                return
            tick, plan = item
            with self._cond:
                failed = self._failed_error
            if failed is not None:
                self._fail_tick(tick, failed)
                return
            self._executing = tick
            self._execute_tick(tick, plan)
            self._executing = None

    def _execute_tick(self, tick: _FormedTick, plan: Plan) -> None:
        """The executor's per-tick entry: commit under the executor lock
        (a rolled-back tick, with quarantine on, is isolated and its
        innocents committed again), then complete and poll outside it."""
        with self._exec_lock:
            sim_before = simulated_seconds(self.backend)
            result, error, token = self._commit_locked(tick.batch, plan)
            if token is not None and self.resilience.quarantine:
                retry = self._isolate(tick, _backend_device(self.backend), token)
                if retry is not None:
                    # Same pre-tick state, same relative order, same
                    # canonical fold: the innocents' answers are
                    # bit-identical to a fault-free run, and only this
                    # retry reaches the WAL.
                    tick, plan = retry
                    result, error, _ = self._commit_locked(
                        tick.batch, plan, retry=True
                    )
                    if error is not None and not isinstance(error, EngineError):
                        # Innocent submissions always fail typed: the
                        # retry's failure is the engine's problem.
                        error = EngineInternalError(
                            "the quarantine retry of the innocent "
                            "submissions failed; the backend was rolled "
                            "back to the pre-tick state",
                            cause=error,
                        )
            sim_delta = simulated_seconds(self.backend) - sim_before
        # Guarded: a crash here must not kill the executor thread with
        # tickets dangling — they fail typed and the loop keeps serving.
        try:
            if error is None:
                self._check_fault("engine.pre_resolve")
            self._complete_tick(tick, result, error, sim_delta)
        except Exception as exc:
            self._fail_tick(
                tick,
                EngineInternalError(
                    "internal failure while completing a tick; "
                    "already-resolved co-batched tickets keep their answers",
                    cause=exc,
                ),
            )
            self._note_internal_fault(exc)
            return
        if error is None:
            # After the tickets resolved, so clients never wait for a
            # rebuild (an inline tick may slip in before the lock is
            # re-acquired; the poll then simply sees newer state).  A
            # maintenance or snapshot failure degrades health, no more.
            try:
                with self._exec_lock:
                    self._poll_locked()
            except Exception as exc:
                self._note_internal_fault(exc)

    def _isolate(
        self, tick: _FormedTick, device: Device, token: Optional[dict] = None
    ) -> Optional[Tuple[_FormedTick, Plan]]:
        """The one isolation routine (poison-op quarantine) for a tick
        that failed with the backend at its pre-tick state.

        1. **Probe** — each entry is planned alone.  Given ``token`` (the
           capture a failed tick was rolled back to; executor lock held)
           it is also executed alone — no WAL, answers discarded — and
           whatever it mutated is rolled back.  Without one the tick
           failed in planning and the backend was never touched.
        2. **Classify** — entries that fail alone are poison and fail with
           :class:`PoisonOperationError`.  If none does, the failure was
           transient (an injected crash, a WAL hiccup): all are innocent.
        3. **Re-form** — the innocents, in their original order, become
           one planned retry tick inheriting the watermark and slot.

        Returns the retry ``(tick, plan)``, or ``None`` when every entry
        was poison — the caller completes the original tick as failed.
        """
        raw = self._raw_backend
        innocents: List[_Entry] = []
        for entry in tick.entries:
            epoch_before = None if token is None else _read_epoch(raw)
            try:
                alone = plan_batch(
                    entry.batch, consistency=self.consistency, device=device
                )
                if token is not None:
                    execute_plan(entry.batch, alone, self.backend)
                innocents.append(entry)
            except Exception as cause:
                entry.ticket._fail(PoisonOperationError(cause, entry.batch))
            if token is not None and _read_epoch(raw) != epoch_before:
                raw.rollback_to(token)
        with self._cond:
            self._quarantined_ticks += 1
            self._poisoned_entries += len(tick.entries) - len(innocents)
        if not innocents:
            return None
        retry = self._form_tick(innocents, tick.trigger, parent=tick)
        return retry, self._plan(retry, device)

    # ------------------------------------------------------------------ #
    # Supervision, fail-stop, fault injection
    # ------------------------------------------------------------------ #
    def _check_fault(self, point: str) -> None:
        """Fire the configured fault injector at an ``engine.*`` crash
        point (no-op without an injector)."""
        faults_mod.check(self._fault_injector, point)

    def _put_exec(self, item) -> bool:
        """Hand an item to the executor, backing off if the depth-1
        pipeline queue is full.  Returns False — after failing the item's
        tick — when the engine fail-stopped while we waited (a wedged
        executor would otherwise block the scheduler forever)."""
        while True:
            try:
                self._exec_queue.put(item, timeout=0.05)
                return True
            except queue_module.Full:
                with self._cond:
                    failed = self._failed_error
                if failed is not None:
                    if item is not None:
                        self._fail_tick(item[0], failed)
                    return False

    def _note_fault_locked(self) -> bool:
        """Count one internal (non-client-attributable) fault, degrading
        health (holding ``_cond``); True once the fault budget is spent."""
        self._health.note_internal_fault()
        return (
            self.resilience.max_internal_faults is not None
            and self._health.internal_faults
            >= self.resilience.max_internal_faults
        )

    def _note_internal_fault(self, exc: BaseException) -> None:
        """Record an internal fault of a guarded stage and, past
        ``max_internal_faults``, fail-stop."""
        with self._cond:
            over_limit = self._note_fault_locked()
        if over_limit:
            self._fail_engine(exc)

    def _run_supervised(self, body, name: str) -> None:
        """Thread wrapper: a loop crash never wedges the engine.
        Supervised, the loop restarts in place (same thread — no leak)
        after its in-flight tick is reaped; unsupervised, or past the
        fault budget, the engine fail-stops."""
        while True:
            try:
                body()
                return
            except Exception as exc:
                with self._cond:
                    over_limit = self._note_fault_locked()
                    restart = (
                        self.resilience.supervised
                        and not over_limit
                        and self._failed_error is None
                    )
                    if restart:
                        self._loop_restarts[name] += 1
                self._reap_inflight(exc)
                if not restart:
                    self._fail_engine(exc)
                    return

    def _reap_inflight(self, cause: BaseException) -> None:
        """Fail whatever tick a crashed loop held (one it had already
        completed is left alone)."""
        wrapped = EngineInternalError(
            "engine thread crashed while this tick was in flight",
            cause=cause,
        )
        for tick in (self._pending_cut, self._executing):
            if tick is not None and not all(e.ticket.done for e in tick.entries):
                self._fail_tick(tick, wrapped)
        self._pending_cut = None
        self._executing = None

    def _fail_engine(self, cause: BaseException) -> None:
        """Fail-stop: refuse new work, unwedge everyone waiting.

        Every queued and in-flight tick goes through the failure step
        with a typed :class:`EngineInternalError`; blocked submitters and
        flushers are woken and the watermark jumps to the high mark, so
        the failure surfaces on tickets, not as a hang.  Terminal.
        """
        wrapped = (
            cause
            if isinstance(cause, EngineInternalError)
            else EngineInternalError("engine fail-stopped", cause=cause)
        )
        with self._cond:
            if self._failed_error is None:
                self._failed_error = wrapped
            self._health.force_failed()
            drained = list(self._queue)
            self._queue.clear()
            self._queued_ops = 0
            self._completed_seq = max(self._completed_seq, self._seq)
            self._inflight_ticks = 0
            self._pending_shed_seq = 0
            self._cond.notify_all()
        if drained:
            self._fail_tick(self._form_tick(drained, TickTrigger.FLUSH), wrapped)
        self._reap_inflight(cause)
        # Unwedge the other loop: plant the shutdown sentinel, failing
        # whatever tick occupies the depth-1 hand-off queue (bounded: the
        # peer may be putting, but it checks _failed_error on Full too).
        for _ in range(100):
            try:
                self._exec_queue.put_nowait(None)
                break
            except queue_module.Full:
                try:
                    item = self._exec_queue.get_nowait()
                except queue_module.Empty:
                    continue
                if item is not None:
                    self._fail_tick(item[0], wrapped)

    # ------------------------------------------------------------------ #
    # Engine-scheduled maintenance
    # ------------------------------------------------------------------ #
    def run_due_maintenance(self) -> Optional[Dict[str, object]]:
        """Evaluate the backend's maintenance policy now — the engine's
        own between-tick poll made available to callers (``KVStore``
        forwards to it).  Taking the executor lock means the run can never
        interleave with an executing tick, and it lands in the engine's
        maintenance telemetry.  Returns the maintenance statistics dict,
        or ``None`` when nothing was due (or there is no such subsystem).
        """
        with self._exec_lock:
            return self._run_due_maintenance_locked()

    def _run_due_maintenance_locked(self) -> Optional[Dict[str, object]]:
        """Poll the backend's maintenance policies (holding the executor
        lock); a no-op for backends without the subsystem.  The time is
        kept out of the per-tick ``simulated_seconds`` so tick throughput
        and maintenance cost stay separately attributable."""
        run_due = getattr(self.backend, "run_due_maintenance", None)
        if not callable(run_due):
            return None
        sim_before = simulated_seconds(self.backend)
        stats = run_due()
        if stats is None:
            return None
        sim_delta = simulated_seconds(self.backend) - sim_before
        # Stale elements dropped, not the net resident-size delta: fold
        # padding can make that negative.
        reclaimed = int(stats.get("removed", 0))
        with self._cond:
            self._maintenance_runs += 1
            self._maintenance_seconds += sim_delta
            self._maintenance_reclaimed += reclaimed
        return stats

    @property
    def durability(self) -> Optional[DurabilityManager]:
        """The engine's durability manager, or ``None`` when running
        without durability."""
        return self._durability

    def backend_maintenance_stats(self) -> Optional[Dict[str, object]]:
        """The backend's lifetime maintenance counters — what
        :meth:`stats` snapshots as ``backend_maintenance`` (``KVStore``
        forwards to this)."""
        return self._backend_stats("maintenance_stats")

    def backend_rebalance_stats(self) -> Optional[Dict[str, object]]:
        """The backend's shard-rebalance counters — what :meth:`stats`
        snapshots as ``backend_rebalance`` (``KVStore`` forwards to
        this)."""
        return self._backend_stats("rebalance_stats")

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def _record_tick(
        self,
        size: int,
        trigger: TickTrigger,
        op_latencies: List[Tuple[float, int]],
        tick_latency: float,
        sim_seconds: float,
        plan_seconds: float,
        t_done: float,
        failed: bool = False,
        last_seq: Optional[int] = None,
    ) -> None:
        """Fold one finished tick into the telemetry.  ``last_seq`` is
        given by a tick that went through admission: its final record
        exposes that sequence watermark to :meth:`flush` and hands back
        the tick's in-flight slot."""
        with self._cond:
            if last_seq is not None:
                self._inflight_ticks = max(0, self._inflight_ticks - 1)
                self._completed_seq = max(self._completed_seq, last_seq)
            if failed:
                self._failed_ticks += 1
            else:
                self._ticks += 1
                self._ops_done += size
                self._health.note_clean_tick()
            bucket = _pow2_bucket(size)
            self._tick_sizes[bucket] = self._tick_sizes.get(bucket, 0) + 1
            self._tick_size_sum += size
            name = trigger.value
            self._triggers[name] = self._triggers.get(name, 0) + 1
            for latency, weight in op_latencies:
                self._op_latencies.record_weighted(latency, weight)
            self._tick_latencies.record(tick_latency)
            self._sim_seconds_total += sim_seconds
            self._plan_seconds_total += plan_seconds
            if self._t_first is None:
                self._t_first = t_done - tick_latency
            self._t_last_done = t_done
            self._expose_shed_seq_locked()
            self._cond.notify_all()

    def stats(self) -> EngineStats:
        """A consistent snapshot of the serving telemetry."""
        with self._cond:
            total_ticks = self._ticks + self._failed_ticks
            op_lat = self._op_latencies.summary()
            tick_lat = self._tick_latencies.summary()
            wall = (
                (self._t_last_done - self._t_first)
                if self._t_first is not None and self._t_last_done is not None
                else 0.0
            )
            return EngineStats(
                ticks=self._ticks,
                failed_ticks=self._failed_ticks,
                ops_completed=self._ops_done,
                queue_depth=self._queued_ops,
                max_queue_depth_seen=self._max_queue_seen,
                mean_tick_size=(
                    self._tick_size_sum / total_ticks if total_ticks else float("nan")
                ),
                tick_size_histogram=dict(sorted(self._tick_sizes.items())),
                triggers=dict(self._triggers),
                op_latency=op_lat,
                tick_latency=tick_lat,
                simulated_seconds=self._sim_seconds_total,
                plan_seconds=self._plan_seconds_total,
                wall_seconds=wall,
                backend_filters=self._backend_stats("filter_stats"),
                maintenance_runs=self._maintenance_runs,
                maintenance_seconds=self._maintenance_seconds,
                maintenance_reclaimed=self._maintenance_reclaimed,
                backend_maintenance=self.backend_maintenance_stats(),
                read_cache=(
                    self._read_cache.cache_stats()
                    if self._read_cache is not None
                    else None
                ),
                durability=(
                    self._durability.stats()
                    if self._durability is not None
                    else None
                ),
                deadline_shed_ops=self._deadline_shed_ops,
                admission_shed_ops=self._admission_shed_ops,
                rolled_back_ticks=self._rolled_back_ticks,
                quarantined_ticks=self._quarantined_ticks,
                poisoned_entries=self._poisoned_entries,
                internal_faults=self._health.internal_faults,
                loop_restarts=sum(self._loop_restarts.values()),
                health=self._health.state.value,
                backend_rebalance=self.backend_rebalance_stats(),
            )

    def _backend_stats(self, method: str) -> Optional[dict]:
        """An optional stats surface of the backend (``filter_stats``,
        ``maintenance_stats``, ``rebalance_stats``), or ``None`` when the
        backend does not have it."""
        stats_fn = getattr(self.backend, method, None)
        return stats_fn() if callable(stats_fn) else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "running" if self.running else ("closed" if self._closed else "idle")
        return (
            f"Engine(backend={type(self.backend).__name__}, {state}, "
            f"target={self.config.target_tick_size}, ticks={self._ticks})"
        )


def empty_result_batch() -> ResultBatch:
    """A fresh zero-operation :class:`~repro.api.ops.ResultBatch` — what
    an empty commit resolves to without running a planner tick.  (Fresh
    per call: the ``errors`` dict and the column arrays are mutable, so
    handing every caller the same instance would let one caller corrupt
    the next.)"""
    return ResultBatch(
        request=OpBatch.empty(),
        statuses=np.zeros(0, dtype=np.uint8),
        found=np.zeros(0, dtype=bool),
        values=None,
        counts=np.zeros(0, dtype=np.int64),
        range_offsets=np.zeros(1, dtype=np.int64),
        range_keys=np.zeros(0, dtype=np.uint64),
        range_values=None,
        errors={},
    )
