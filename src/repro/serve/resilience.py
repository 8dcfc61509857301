"""Fault-domain isolation for the serving engine (the PR 9 tentpole).

The engine coalesces many clients' submissions into one bulk-synchronous
tick, which is exactly what the paper's structures want — and exactly
what turns one bad operation into everyone's problem: the tick fails, the
backend may be partially mutated (a STRICT tick runs several collapse
runs), and every co-batched ticket sees the same error.  This module
holds the policies and small state machines that contain each failure to
its own fault domain:

* :class:`ResilienceConfig` — the engine knob bundle.  Everything is
  **off by default**; a default-constructed config leaves the engine
  bit-identical to one built without it.
* **Transactional ticks** (``transactional_ticks=True``) — the engine's
  commit step captures the raw backend's
  :meth:`~repro.core.lsm.GPULSM.snapshot_state` before executing a tick
  and rolls back to it on failure
  (:meth:`~repro.core.lsm.GPULSM.rollback_to`), so the backend can never
  run ahead of the WAL.  The capture is cheap: level runs are immutable,
  so the state dict holds references, not copies.
* **Poison-op quarantine** (``quarantine=True``, requires transactional
  ticks) — after a rolled-back tick, the engine's isolation routine
  re-executes each submission alone from the pre-tick state to find the
  poison entries; the innocent entries then go through the commit step
  together as one retry tick, whose answers are bit-identical to a
  fault-free run (same canonical fold, same arrival order among
  innocents, same pre-tick snapshot).  Poison tickets fail with
  :class:`~repro.serve.errors.PoisonOperationError`.
* **Supervised worker** (``supervised=True``) — the worker loop
  restarts after an unexpected crash instead of wedging, up to
  ``max_internal_faults`` total internal faults, after which the engine
  fail-stops: every queued and in-flight ticket fails with
  :class:`~repro.serve.errors.EngineInternalError` and submitters are
  unblocked.  (Even unsupervised, the engine never wedges — a loop crash
  fail-stops immediately rather than silently dying.)
* :class:`HealthMonitor` — the OK → DEGRADED → FAILED state machine
  behind :meth:`Engine.health`: any internal fault degrades, a streak of
  ``recovery_ticks`` clean ticks recovers, fail-stop is terminal.
* **Deadline-aware shedding** — ``deadline=`` on submit plus the pure
  :class:`~repro.serve.scheduler.LoadSheddingPolicy`; both live on the
  admission path in :mod:`repro.serve.engine`.

The four ``engine.*`` crash points of
:class:`~repro.durability.faults.FaultInjector` drive the chaos tests
through ``fault_injector``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.durability.faults import FaultInjector
from repro.serve.scheduler import LoadSheddingPolicy


class HealthState(str, Enum):
    """The engine's coarse health, for load balancers and operators."""

    OK = "ok"              #: serving normally
    DEGRADED = "degraded"  #: internal faults seen recently; still serving
    FAILED = "failed"      #: fail-stopped; every submission is refused


class HealthMonitor:
    """The OK → DEGRADED → FAILED state machine behind ``Engine.health()``.

    Not thread-safe by itself — the engine mutates it under its own
    condition lock.  Transitions:

    * any internal fault (a guarded stage raised, a loop crashed) moves
      OK → DEGRADED and resets the clean streak;
    * ``recovery_ticks`` consecutive clean ticks move DEGRADED → OK;
    * :meth:`force_failed` (fail-stop) is terminal.
    """

    def __init__(self, recovery_ticks: int = 32) -> None:
        if recovery_ticks < 1:
            raise ValueError("recovery_ticks must be >= 1")
        self.recovery_ticks = recovery_ticks
        self.state = HealthState.OK
        #: Lifetime internal-fault count (guarded-stage failures and loop
        #: crashes; *not* client-attributable failures like poison ops).
        self.internal_faults = 0
        self._clean_streak = 0

    def note_internal_fault(self) -> None:
        self.internal_faults += 1
        self._clean_streak = 0
        if self.state is not HealthState.FAILED:
            self.state = HealthState.DEGRADED

    def note_clean_tick(self) -> None:
        if self.state is HealthState.DEGRADED:
            self._clean_streak += 1
            if self._clean_streak >= self.recovery_ticks:
                self.state = HealthState.OK
                self._clean_streak = 0

    def force_failed(self) -> None:
        self.state = HealthState.FAILED


@dataclass(frozen=True)
class ResilienceConfig:
    """The serving engine's fault-isolation knobs — all off by default.

    Attributes
    ----------
    transactional_ticks:
        Capture the raw backend's state before each tick and roll back on
        failure, so a failed tick leaves the backend exactly as it was
        (and therefore never diverged from the WAL).  Requires a backend
        with ``snapshot_state``/``rollback_to`` (GPULSM, ShardedLSM).
    quarantine:
        After a rolled-back tick, isolate the poison submissions and
        retry the innocent ones together; implies the bit-identity
        guarantee documented in :mod:`repro.serve.resilience`.  Requires
        ``transactional_ticks``.
    supervised:
        Restart a crashed worker loop instead of fail-stopping on the
        first crash.
    max_internal_faults:
        With ``supervised``, fail-stop once this many internal faults
        have accumulated (``None`` = keep restarting forever).
    recovery_ticks:
        Clean ticks required to recover DEGRADED → OK.
    shedding:
        A :class:`~repro.serve.scheduler.LoadSheddingPolicy`, or ``None``
        for plain blocking backpressure.
    fault_injector:
        A :class:`~repro.durability.faults.FaultInjector` armed at the
        ``engine.*`` crash points (tests and the resilience benchmark);
        ``None`` in production.
    """

    transactional_ticks: bool = False
    quarantine: bool = False
    supervised: bool = False
    max_internal_faults: Optional[int] = None
    recovery_ticks: int = 32
    shedding: Optional[LoadSheddingPolicy] = None
    fault_injector: Optional[FaultInjector] = None

    def __post_init__(self) -> None:
        if self.quarantine and not self.transactional_ticks:
            raise ValueError(
                "quarantine requires transactional_ticks: isolating a "
                "poison op only works from a rolled-back pre-tick state"
            )
        if self.max_internal_faults is not None and self.max_internal_faults < 1:
            raise ValueError("max_internal_faults must be >= 1 (or None)")
        if self.recovery_ticks < 1:
            raise ValueError("recovery_ticks must be >= 1")


def supports_rollback(backend) -> bool:
    """Whether a backend can serve as a transactional-tick substrate."""
    return callable(getattr(backend, "snapshot_state", None)) and callable(
        getattr(backend, "rollback_to", None)
    )
