"""The durability manager: one object the serving engine drives.

:class:`DurabilityConfig` is the single knob
:class:`~repro.serve.engine.Engine` / :class:`~repro.api.kvstore.KVStore`
take (``durability=DurabilityConfig(directory=...)``); the engine builds a
:class:`DurabilityManager` from it and calls exactly five methods:

``attach(backend)``
    Once at construction, against the **raw** backend (before any read
    cache wraps it): recover prior state from the directory (snapshot +
    WAL replay), then open the WAL for appending — truncated at the last
    valid record, tick numbering continuing where the recovered history
    ended.
``log_tick(batch, consistency)``
    Under the executor lock, after a tick executed successfully and
    before its results are acknowledged: append the tick's update rows
    (queries change no state; a pure-query tick appends an empty record
    so tick ids stay aligned).  When ``log_tick`` returns, the tick is
    acknowledged durable to the group-commit level configured.
``abort_tick()``
    Under the executor lock, after a tick whose ``log_tick`` (or anything
    before it) failed was rolled back: drop what a failed append left
    past the last acknowledged record, so a tick every client saw fail
    cannot be replayed by a later recovery.
``maybe_snapshot()``
    Between ticks (after the maintenance poll): evaluate the snapshot
    policy and checkpoint when due, forcing a WAL sync first so a
    manifest never references unsynced log bytes.
``close()``
    Final WAL group commit + file close; idempotent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional

from repro.api.ops import OpBatch
from repro.api.planner import Consistency
from repro.durability.faults import FaultInjector
from repro.durability.recovery import WAL_FILENAME, RecoveryReport, recover
from repro.durability.snapshot import (
    SnapshotPolicy,
    list_manifests,
    load_latest_manifest,
    write_snapshot,
)
from repro.durability.wal import WriteAheadLog


class DurabilityError(RuntimeError):
    """Misconfiguration or misuse of the durability subsystem."""


@dataclass(frozen=True)
class DurabilityConfig:
    """Configuration of the durability subsystem (one directory per store).

    Parameters
    ----------
    directory:
        Where the WAL (``wal.log``), snapshots and manifests live.  One
        store per directory.
    fsync_every_n_ticks:
        Group-commit width: fsync the WAL once per this many committed
        ticks (1 — the default — is fsync-every-tick, the durability
        lower bound; ``None`` disables count-based fsync).  Every append
        is still flushed to the OS immediately.
    snapshot_policy:
        When to checkpoint, evaluated between ticks:
        :class:`~repro.durability.snapshot.EveryNTicks`,
        :class:`~repro.durability.snapshot.WalBytesPolicy`, or ``None`` /
        :class:`~repro.durability.snapshot.NoSnapshots` for WAL-only
        durability (recovery then replays the whole log).
    recover:
        When true (the default), attaching to a directory with prior
        state recovers it.  When false the directory must be **fresh**
        (no WAL, no manifests) — silently ignoring or truncating existing
        durable state would be data loss, so that raises instead.
    keep_snapshots:
        Committed snapshots retained after a new one lands (≥ 1).
    fault_injector:
        Test-only :class:`~repro.durability.faults.FaultInjector` armed
        at the WAL/snapshot crash points; ``None`` in production.
    """

    directory: str
    fsync_every_n_ticks: Optional[int] = 1
    snapshot_policy: Optional[SnapshotPolicy] = None
    recover: bool = True
    keep_snapshots: int = 2
    fault_injector: Optional[FaultInjector] = None

    def __post_init__(self) -> None:
        if not self.directory:
            raise ValueError("durability requires a directory")
        if self.keep_snapshots < 1:
            raise ValueError("keep_snapshots must be >= 1")
        if self.snapshot_policy is not None and not isinstance(
            self.snapshot_policy, SnapshotPolicy
        ):
            raise TypeError(
                "snapshot_policy must be a SnapshotPolicy instance "
                "(NoSnapshots / EveryNTicks / WalBytesPolicy)"
            )


class DurabilityManager:
    """Runtime state of one store's durability: open WAL + counters."""

    def __init__(self, config: DurabilityConfig) -> None:
        self.config = config
        self.directory = os.path.abspath(config.directory)
        self._backend = None
        self._wal: Optional[WriteAheadLog] = None
        #: Committed tick ids continue across restarts: the next tick's id.
        self._ticks = 0
        self._ticks_since_snapshot = 0
        self._wal_offset_at_snapshot = 0
        self.snapshot_runs = 0
        #: The report of the recovery this manager performed at attach
        #: time (``None`` when the directory was fresh or recover=False).
        self.recovery_report: Optional[RecoveryReport] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def attached(self) -> bool:
        return self._wal is not None

    @property
    def ticks(self) -> int:
        """Committed ticks across the store's whole durable history."""
        return self._ticks

    def attach(self, backend) -> Optional[RecoveryReport]:
        """Recover prior state into ``backend`` and open the WAL.

        Must be called with the raw (uncached) backend, empty when the
        directory holds prior state.  Returns the recovery report, or
        ``None`` when there was nothing to recover.
        """
        if self.attached:
            raise DurabilityError("the durability manager is already attached")
        truncate_to = None
        if self.config.recover:
            report = recover(self.directory, backend)
            if report.ticks or report.wal_torn or report.removed_temp_paths:
                self.recovery_report = report
            self._ticks = report.ticks
            self._ticks_since_snapshot = report.replayed_ticks
            truncate_to = report.wal_valid_offset
        else:
            wal_path = os.path.join(self.directory, WAL_FILENAME)
            has_wal = os.path.exists(wal_path) and os.path.getsize(wal_path) > 0
            if has_wal or list_manifests(self.directory):
                raise DurabilityError(
                    f"durability directory {self.directory!r} already holds "
                    "durable state; recover=False requires a fresh directory "
                    "(refusing to silently discard a prior store)"
                )
        self._backend = backend
        self._wal = WriteAheadLog(
            os.path.join(self.directory, WAL_FILENAME),
            fsync_every_n_ticks=self.config.fsync_every_n_ticks,
            truncate_to=truncate_to,
            faults=self.config.fault_injector,
        )
        manifest = load_latest_manifest(self.directory)
        self._wal_offset_at_snapshot = (
            int(manifest["wal_offset"]) if manifest is not None else 0
        )
        return self.recovery_report

    def close(self) -> None:
        """Final group commit and WAL close (idempotent)."""
        if self._wal is not None:
            self._wal.close()

    # ------------------------------------------------------------------ #
    # Per-tick hooks (called by the engine under its executor lock)
    # ------------------------------------------------------------------ #
    def log_tick(self, batch: OpBatch, consistency: Consistency) -> None:
        """Append one committed tick's update rows; returning is the ack.

        Queries change no state, so only the update rows are logged; a
        pure-query tick becomes an empty record, keeping WAL tick ids
        aligned with the committed-tick count.  The consistency mode
        rides in the record's flags byte so recovery re-folds the updates
        with the original tick's semantics.
        """
        if self._wal is None:
            raise DurabilityError("log_tick before attach")
        mask = batch.update_mask
        if mask.all():
            updates = batch
        else:
            updates = OpBatch(
                batch.opcodes[mask],
                batch.keys[mask],
                batch.values[mask],
                batch.range_ends[mask],
            )
        self._wal.append(
            self._ticks, updates, strict=consistency is Consistency.STRICT
        )
        self._ticks += 1
        self._ticks_since_snapshot += 1

    def abort_tick(self) -> None:
        """Drop whatever a failed :meth:`log_tick` left past the last
        acknowledged record, now.

        The engine calls this once it has rolled the tick back: every
        client saw the tick fail, so a complete-but-unacknowledged record
        (the append's fsync raised) must not wait for the next append to
        heal it — if none follows, a clean :meth:`close` would keep it
        and recovery would resurrect the tick.  A no-op when the last
        append succeeded.
        """
        if self._wal is not None:
            self._wal.heal_tail()

    def maybe_snapshot(self) -> Optional[dict]:
        """Checkpoint if the policy says so; returns the manifest if run."""
        policy = self.config.snapshot_policy
        if policy is None or self._wal is None:
            return None
        wal_bytes_since = self._wal.end_offset - self._wal_offset_at_snapshot
        if not policy.due(self._ticks_since_snapshot, wal_bytes_since):
            return None
        return self.snapshot()

    def snapshot(self) -> dict:
        """Take a checkpoint now, unconditionally."""
        if self._wal is None or self._backend is None:
            raise DurabilityError("snapshot before attach")
        # A manifest must never reference log bytes that could be lost
        # behind it: force the group commit first.
        self._wal.sync()
        manifest = write_snapshot(
            self.directory,
            self._backend,
            tick_count=self._ticks,
            wal_offset=self._wal.end_offset,
            faults=self.config.fault_injector,
            keep=self.config.keep_snapshots,
        )
        self.snapshot_runs += 1
        self._ticks_since_snapshot = 0
        self._wal_offset_at_snapshot = self._wal.end_offset
        return manifest

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """The counters :meth:`repro.serve.engine.Engine.stats` surfaces."""
        wal = self._wal.stats() if self._wal is not None else {}
        report = self.recovery_report
        return {
            "ticks": self._ticks,
            "wal_appends": wal.get("appends", 0),
            "wal_fsyncs": wal.get("fsyncs", 0),
            "wal_bytes": wal.get("bytes_written", 0),
            "wal_end_offset": wal.get("end_offset", 0),
            "wal_pending_ticks": wal.get("pending_ticks", 0),
            "snapshot_runs": self.snapshot_runs,
            "recovery_replayed_ticks": (
                report.replayed_ticks if report is not None else 0
            ),
            "recovery_snapshot_ticks": (
                report.snapshot_ticks if report is not None else 0
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DurabilityManager(directory={self.directory!r}, "
            f"ticks={self._ticks}, snapshots={self.snapshot_runs})"
        )
