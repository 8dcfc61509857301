"""repro — a full reproduction of *GPU LSM: A Dynamic Dictionary Data
Structure for the GPU* (Ashkiani, Li, Farach-Colton, Amenta, Owens;
IPDPS 2018) on a simulated GPU substrate.

Package layout
--------------
``repro.gpu``
    The simulated GPU: device spec (K40c-calibrated), analytic cost
    model, traffic counters and profiler.
``repro.primitives``
    The CUB / moderngpu primitive equivalents the data structures are
    built from: radix sort, merge path, scan, searches, segmented sort,
    compaction, multisplit, histograms.
``repro.core``
    The GPU LSM itself (:class:`repro.core.lsm.GPULSM`) plus its key
    encoding, batch construction, invariants and a sequential reference
    model used as the testing oracle.
``repro.baselines``
    The comparison data structures of the paper's evaluation: the GPU
    sorted array and the cuckoo hash table.
``repro.scale``
    The scale-out layer: the batch-dictionary protocol all structures
    satisfy and :class:`repro.scale.sharded.ShardedLSM`, a keyspace-sharded
    front-end over independent per-shard GPU LSMs.
``repro.api``
    The mixed-operation request API — the primary public surface:
    :class:`repro.api.ops.OpBatch` columnar request batches, the
    multisplit planner/executor with the snapshot/strict ``consistency``
    knob, and the :class:`repro.api.kvstore.KVStore` facade with
    ticketing sessions.
``repro.serve``
    The serving engine: thread-safe multi-client admission
    (:class:`repro.serve.Engine`), the adaptive dual-trigger tick
    scheduler (:class:`repro.serve.TickConfig`), and one worker thread
    that plans and executes each tick, with per-tick telemetry.  :class:`KVStore` is a
    thin single-client view over it.
``repro.durability``
    The durability subsystem: a write-ahead log of committed ticks with
    group-commit fsync batching, atomic level snapshots on a pluggable
    policy, crash recovery (latest valid snapshot + WAL tail replay), and
    the fault-injection harness the kill-and-restart tests drive.  Wired
    into :class:`Engine` / :class:`KVStore` via
    ``durability=DurabilityConfig(...)``; off by default.
``repro.bench``
    The experiment harness that regenerates every table and figure of the
    paper's Section V.

Quickstart
----------
>>> import numpy as np
>>> from repro import KVStore, OpBatch
>>> store = KVStore(batch_size=1024)
>>> keys = np.arange(1024, dtype=np.uint32)
>>> store.apply(OpBatch.inserts(keys, keys * 10)).ok
True
>>> result = store.apply(OpBatch.lookups(np.array([3, 2000])))
>>> result.result(0).found, result.result(0).value, result.result(1).found
(True, 30, False)
"""

from repro.core.lsm import GPULSM, LookupResult, RangeResult
from repro.core.config import LSMConfig
from repro.core.encoding import KeyEncoder, MAX_KEY
from repro.core.maintenance import (
    AnyOf,
    LevelCountPolicy,
    MaintenanceAction,
    MaintenancePolicy,
    ManualOnly,
    StaleFractionPolicy,
)
from repro.core.run import SortedRun
from repro.core.semantics import ReferenceDictionary
from repro.baselines.sorted_array import GPUSortedArray
from repro.baselines.cuckoo_hash import CuckooHashTable
from repro.scale import (
    DictionaryProtocol,
    ShardedLSM,
    UnsupportedOperationError,
    supports,
)
from repro.api import (
    Consistency,
    KVStore,
    Op,
    OpBatch,
    OpCode,
    OpResult,
    ResultBatch,
    ResultStatus,
    Session,
    SnapshotViolationError,
    Ticket,
)
from repro.durability import (
    DurabilityConfig,
    EveryNTicks,
    FaultInjector,
    InjectedCrash,
    RecoveryReport,
    SnapshotPolicy,
    WalBytesPolicy,
    WriteAheadLog,
    recover,
)
from repro.serve import (
    BatchTicket,
    DeadlineExceededError,
    Engine,
    EngineClosedError,
    EngineError,
    EngineInternalError,
    EngineSaturatedError,
    EngineStats,
    HealthState,
    LoadSheddingPolicy,
    OpTicket,
    PoisonOperationError,
    ResilienceConfig,
    TickConfig,
    TickTrigger,
)
from repro.gpu.device import Device, get_default_device, set_default_device
from repro.gpu.spec import GPUSpec, K40C_SPEC

__version__ = "1.3.0"

#: Curated public surface: the mixed-operation API first (the primary
#: entry point), then the dictionary structures, the protocol, and the
#: simulated-device handles.
__all__ = [
    # Mixed-operation request API (primary surface)
    "KVStore",
    "Session",
    "Ticket",
    "Op",
    "OpBatch",
    "OpCode",
    "OpResult",
    "ResultBatch",
    "ResultStatus",
    "Consistency",
    "SnapshotViolationError",
    # Serving engine (multi-client admission over the mixed-op planner)
    "Engine",
    "EngineStats",
    "EngineError",
    "EngineClosedError",
    "EngineSaturatedError",
    "EngineInternalError",
    "DeadlineExceededError",
    "PoisonOperationError",
    "ResilienceConfig",
    "HealthState",
    "LoadSheddingPolicy",
    "TickConfig",
    "TickTrigger",
    "OpTicket",
    "BatchTicket",
    # Dictionary structures
    "GPULSM",
    "ShardedLSM",
    "GPUSortedArray",
    "CuckooHashTable",
    "LookupResult",
    "RangeResult",
    "LSMConfig",
    "KeyEncoder",
    "MAX_KEY",
    "ReferenceDictionary",
    "SortedRun",
    # Maintenance subsystem (cleanup stages, incremental compaction,
    # pluggable policies)
    "MaintenancePolicy",
    "MaintenanceAction",
    "ManualOnly",
    "StaleFractionPolicy",
    "LevelCountPolicy",
    "AnyOf",
    # Durability subsystem (WAL, snapshots, recovery, fault injection)
    "DurabilityConfig",
    "SnapshotPolicy",
    "EveryNTicks",
    "WalBytesPolicy",
    "WriteAheadLog",
    "recover",
    "RecoveryReport",
    "FaultInjector",
    "InjectedCrash",
    # Protocol and errors
    "DictionaryProtocol",
    "UnsupportedOperationError",
    "supports",
    # Simulated device
    "Device",
    "get_default_device",
    "set_default_device",
    "GPUSpec",
    "K40C_SPEC",
    "__version__",
]
