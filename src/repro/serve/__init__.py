"""The serving engine — multi-client admission, adaptive tick formation,
and one worker that applies each tick as a whole.

The paper's GPU LSM amortises its cost over large bulk-synchronous
batches; this package turns many small concurrent request streams into
exactly those batches:

* :mod:`repro.serve.scheduler` — :class:`TickConfig`, the dual-trigger
  (target tick size *or* linger deadline) tick-formation policy with a
  backpressure bound, applied by the threaded engine's worker.
* :mod:`repro.serve.engine` — :class:`Engine`: thread-safe
  ``submit(op) -> OpTicket`` / ``submit_batch(batch) -> BatchTicket``
  admission and one worker thread that cuts each tick, plans it and
  commits it on the backend (fanning out across
  :class:`~repro.scale.sharded.ShardedLSM` shards via the existing
  one-multisplit route), plus per-tick telemetry through
  :meth:`Engine.stats`.

* :mod:`repro.serve.resilience` — :class:`ResilienceConfig` and the
  fault-domain isolation it switches on: transactional ticks, poison-op
  quarantine, a supervised worker loop with the :class:`HealthState` machine, and
  deadline-aware admission shedding
  (:class:`~repro.serve.scheduler.LoadSheddingPolicy`).  All off by
  default; typed failures live in :mod:`repro.serve.errors`.

:class:`~repro.api.kvstore.KVStore` is a thin single-client view over
this engine's inline path.
"""

from repro.serve.cache import DEFAULT_CACHE_CAPACITY, ReadCachedBackend
from repro.serve.engine import (
    BatchTicket,
    Engine,
    EngineStats,
    OpTicket,
    empty_result_batch,
    slice_result_batch,
)
from repro.serve.errors import (
    DeadlineExceededError,
    EngineClosedError,
    EngineError,
    EngineInternalError,
    EngineSaturatedError,
    PoisonOperationError,
)
from repro.serve.resilience import HealthMonitor, HealthState, ResilienceConfig
from repro.serve.scheduler import (
    LoadSheddingPolicy,
    TickConfig,
    TickTrigger,
)

__all__ = [
    "BatchTicket",
    "DEFAULT_CACHE_CAPACITY",
    "DeadlineExceededError",
    "Engine",
    "ReadCachedBackend",
    "EngineClosedError",
    "EngineError",
    "EngineInternalError",
    "EngineSaturatedError",
    "EngineStats",
    "HealthMonitor",
    "HealthState",
    "LoadSheddingPolicy",
    "OpTicket",
    "PoisonOperationError",
    "ResilienceConfig",
    "TickConfig",
    "TickTrigger",
    "empty_result_batch",
    "slice_result_batch",
]
