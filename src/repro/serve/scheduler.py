"""Adaptive tick formation: the dual-trigger scheduling policy.

The paper's structures amortise their cost over large bulk-synchronous
batches, so a serving front-end must decide *when* a tick is worth cutting
from the admission queue.  :class:`TickConfig` captures the classic dual
trigger every batching RPC layer uses:

* **size** — the queue holds at least ``target_tick_size`` operations:
  cut a full tick immediately (throughput-optimal, the paper's regime);
* **deadline** — the oldest queued operation has waited ``linger``
  seconds: cut whatever is queued (latency bound under light load).

``max_queue_depth`` bounds admission: once that many operations are
queued, :meth:`repro.serve.engine.Engine.submit` blocks (backpressure)
instead of letting the queue grow without bound.

The decision function :meth:`TickConfig.trigger` is *pure* — it looks only
at the queue length and the oldest op's age — so the threaded engine's
worker and the tests that pin each trigger drive the same policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class TickTrigger(str, Enum):
    """Why a tick was cut from the admission queue."""

    SIZE = "size"          #: the queue reached the target tick size
    DEADLINE = "deadline"  #: the oldest queued op hit the linger bound
    FLUSH = "flush"        #: an explicit flush / close drained the queue
    DIRECT = "direct"      #: a single-client ``apply`` bypassed the queue


@dataclass(frozen=True)
class TickConfig:
    """Parameters of the dual-trigger tick scheduler.

    Attributes
    ----------
    target_tick_size:
        Preferred operations per tick; the size trigger fires at this
        depth and tick formation stops taking queue entries once the tick
        reaches it (a multi-op submission is never split, so a tick can
        overshoot by at most one client batch).
    linger:
        Seconds the oldest queued operation may wait before the deadline
        trigger cuts a partial tick, in wall-clock seconds.
    max_queue_depth:
        Backpressure bound on queued (admitted, not yet executed)
        operations.  Defaults to ``4 * target_tick_size``.
    """

    target_tick_size: int = 1 << 10
    linger: float = 5e-3
    max_queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.target_tick_size < 1:
            raise ValueError("target_tick_size must be at least 1")
        if not (self.linger >= 0):
            raise ValueError("linger must be a non-negative number of seconds")
        if self.max_queue_depth is None:
            object.__setattr__(
                self, "max_queue_depth", 4 * self.target_tick_size
            )
        if self.max_queue_depth < self.target_tick_size:
            raise ValueError(
                "max_queue_depth must be at least target_tick_size "
                "(otherwise the size trigger can never fire)"
            )

    def trigger(self, queue_len: int, oldest_age: float) -> Optional[TickTrigger]:
        """The trigger that fires for this queue state, or ``None``.

        ``oldest_age`` is how long the oldest queued operation has been
        waiting, in the caller's clock domain.
        """
        if queue_len <= 0:
            return None
        if queue_len >= self.target_tick_size:
            return TickTrigger.SIZE
        if oldest_age >= self.linger:
            return TickTrigger.DEADLINE
        return None

    def time_until_deadline(self, oldest_age: float) -> float:
        """Seconds until the deadline trigger would fire (>= 0)."""
        return max(0.0, self.linger - oldest_age)


@dataclass(frozen=True)
class LoadSheddingPolicy:
    """Admission shedding under *sustained* saturation.

    Plain backpressure (``max_queue_depth``) makes saturated submitters
    wait, which is right for a short burst but wrong for a sustained
    overload: every client ends up blocked behind a queue that never
    drains below the bound, and queueing delay grows without bound.  This
    policy trips once the queue has been continuously at the bound for
    ``grace_s`` seconds; from then on — until the queue drains below the
    bound — blocked and new submissions fail fast with
    :class:`~repro.serve.errors.EngineSaturatedError` instead of waiting.

    Like :meth:`TickConfig.trigger` the decision function is *pure* (it
    looks only at how long saturation has lasted), so the engine and any
    simulator share one policy.  ``grace_s=0`` sheds on the first
    saturated admission — the classic fail-fast front door.
    """

    grace_s: float = 0.05

    def __post_init__(self) -> None:
        if not (self.grace_s >= 0):
            raise ValueError("grace_s must be a non-negative number of seconds")

    def should_shed(self, saturated_for: float) -> bool:
        """True once saturation has lasted at least ``grace_s`` seconds."""
        return saturated_for >= self.grace_s

    def time_until_shed(self, saturated_for: float) -> float:
        """Seconds until :meth:`should_shed` would trip (>= 0)."""
        return max(0.0, self.grace_s - saturated_for)
