"""Durability subsystem: WAL of committed ticks, snapshots, recovery.

ROADMAP item 2 ("Durability and crash recovery") as a real subsystem
threaded through the serving stack:

``repro.durability.wal``
    The write-ahead log: every committed tick's update rows appended as
    one length-prefixed, CRC-checksummed columnar record (numpy
    ``tobytes`` framing, no pickle), with group-commit fsync batching
    (``fsync_every_n_ticks``).
``repro.durability.snapshot``
    Checkpointing: the occupied levels of a
    :class:`~repro.core.lsm.GPULSM` (immutable
    :class:`~repro.core.run.SortedRun` columns + config + epoch) — or a
    :class:`~repro.scale.sharded.ShardedLSM`'s per-shard structures —
    written temp-then-rename with a manifest recording the epoch mark
    and the WAL offset, scheduled between ticks by a pluggable
    :class:`SnapshotPolicy` exactly like maintenance.
``repro.durability.recovery``
    Crash recovery: rebuild from the latest valid manifest via a
    bulk-build-style level load, then replay the WAL tail through the
    existing planner path, tolerating a torn final record.
``repro.durability.faults``
    The fault-injection harness the kill-and-restart oracle tests drive:
    named crash points (mid-append, pre-fsync, mid-snapshot-write,
    pre-snapshot-rename) that raise :class:`InjectedCrash` on an armed
    hit.

The whole subsystem is wired into :class:`~repro.serve.engine.Engine` /
:class:`~repro.api.kvstore.KVStore` through one knob,
``durability=DurabilityConfig(...)``, and is **off by default** — with it
off, every existing answer, stats schema and benchmark CSV is
bit-identical.
"""

from repro.durability.faults import FAULT_POINTS, FaultInjector, InjectedCrash
from repro.durability.manager import DurabilityConfig, DurabilityManager
from repro.durability.recovery import RecoveryReport, recover
from repro.durability.snapshot import (
    EveryNTicks,
    SnapshotPolicy,
    WalBytesPolicy,
    write_snapshot,
)
from repro.durability.wal import (
    WALCorruptionError,
    WALError,
    WriteAheadLog,
    decode_payload,
    encode_record,
    read_records,
)

__all__ = [
    "DurabilityConfig",
    "DurabilityManager",
    "WriteAheadLog",
    "WALError",
    "WALCorruptionError",
    "encode_record",
    "decode_payload",
    "read_records",
    "SnapshotPolicy",
    "EveryNTicks",
    "WalBytesPolicy",
    "write_snapshot",
    "recover",
    "RecoveryReport",
    "FaultInjector",
    "InjectedCrash",
    "FAULT_POINTS",
]
