"""Write-ahead log of committed ticks.

One committed tick = one record.  The engine appends each tick's **update
rows** (queries change no state; a pure-query tick appends an empty record
so tick numbering stays aligned with acknowledgements) as a
length-prefixed, CRC-checksummed columnar frame — the four
:class:`~repro.api.ops.OpBatch` columns serialized with numpy ``tobytes``,
no pickle anywhere:

.. code-block:: text

    record   := [u32 payload_len] [payload] [u32 crc32(payload)]
    payload  := [4s magic "RWAL"] [u8 version] [u8 flags] [u16 reserved]
                [u64 tick_id] [u32 n]
                [n x u8  opcodes]
                [n x u64 keys]
                [n x u64 values]
                [n x u64 range_ends]

``flags`` bit 0 records the tick's consistency mode (0 = snapshot,
1 = strict) so recovery can re-fold the updates with the original tick's
canonicalisation semantics.  All integers are little-endian.

Group commit is the perf knob: ``fsync_every_n_ticks`` batches the fsync
across that many appended ticks (1 = fsync every tick, the durability
lower bound the benchmark records), and ``fsync_interval_s`` adds a
wall-clock cap so a quiet log still reaches disk.  Every append is
``flush``-ed to the OS immediately — only the fsync is batched — so the
window group commit opens is an OS crash, not a process crash.

Reading (:func:`read_records`) tolerates a **torn tail**: a final record
cut short by a crash mid-append — short length prefix, short payload, or
CRC mismatch — ends the scan at the last valid record boundary instead of
failing recovery.  Reopening the log for appending truncates at that
boundary first (``truncate_to``), so a recovered store never writes after
garbage.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.ops import OpBatch
from repro.durability import faults as faults_mod
from repro.durability.faults import FaultInjector

#: Per-record magic: catches framing loss loudly instead of decoding noise.
RECORD_MAGIC = b"RWAL"

#: On-disk format version; bump on any layout change (and update the
#: golden-bytes fixture in ``tests/test_wal_format.py``).
WAL_FORMAT_VERSION = 1

#: Payload header: magic, version, flags, reserved, tick_id, row count.
_HEADER = struct.Struct("<4sBBHQI")

#: ``flags`` bit 0: the tick ran under STRICT consistency.
FLAG_STRICT = 0x01

#: Per-row payload bytes: u8 opcode + u64 key + u64 value + u64 range_end.
_ROW_BYTES = 1 + 8 + 8 + 8

#: Length prefix and trailing CRC framing each payload.
_FRAME = struct.Struct("<I")


class WALError(RuntimeError):
    """Base error of the write-ahead log."""


class WALCorruptionError(WALError):
    """A record failed validation somewhere other than the torn tail."""


def encode_record(tick_id: int, batch: OpBatch, strict: bool = False) -> bytes:
    """One tick as its on-disk frame (length prefix + payload + CRC)."""
    flags = FLAG_STRICT if strict else 0
    header = _HEADER.pack(
        RECORD_MAGIC, WAL_FORMAT_VERSION, flags, 0, int(tick_id), batch.size
    )
    payload = b"".join(
        (
            header,
            np.ascontiguousarray(batch.opcodes, dtype=np.uint8).tobytes(),
            np.ascontiguousarray(batch.keys, dtype="<u8").tobytes(),
            np.ascontiguousarray(batch.values, dtype="<u8").tobytes(),
            np.ascontiguousarray(batch.range_ends, dtype="<u8").tobytes(),
        )
    )
    return b"".join(
        (_FRAME.pack(len(payload)), payload, _FRAME.pack(zlib.crc32(payload)))
    )


def decode_payload(payload: bytes) -> Tuple[int, bool, OpBatch]:
    """Decode one CRC-verified payload into ``(tick_id, strict, batch)``."""
    if len(payload) < _HEADER.size:
        raise WALCorruptionError("payload shorter than the record header")
    magic, version, flags, _reserved, tick_id, n = _HEADER.unpack_from(payload)
    if magic != RECORD_MAGIC:
        raise WALCorruptionError(f"bad record magic {magic!r}")
    if version != WAL_FORMAT_VERSION:
        raise WALCorruptionError(f"unsupported WAL format version {version}")
    if len(payload) != _HEADER.size + n * _ROW_BYTES:
        raise WALCorruptionError(
            f"payload length {len(payload)} does not match {n} rows"
        )
    off = _HEADER.size
    opcodes = np.frombuffer(payload, dtype=np.uint8, count=n, offset=off).copy()
    off += n
    keys = np.frombuffer(payload, dtype="<u8", count=n, offset=off).copy()
    off += 8 * n
    values = np.frombuffer(payload, dtype="<u8", count=n, offset=off).copy()
    off += 8 * n
    range_ends = np.frombuffer(payload, dtype="<u8", count=n, offset=off).copy()
    batch = OpBatch(
        opcodes,
        keys.astype(np.uint64),
        values.astype(np.uint64),
        range_ends.astype(np.uint64),
    )
    return int(tick_id), bool(flags & FLAG_STRICT), batch


@dataclass(frozen=True)
class WALReadResult:
    """Everything one scan of the log recovered.

    ``records`` are ``(tick_id, strict, batch)`` tuples in log order;
    ``valid_end_offset`` is the byte boundary after the last valid record
    (where a reopened log must truncate to before appending); ``torn`` is
    true when trailing bytes past that boundary were dropped.
    """

    records: List[Tuple[int, bool, OpBatch]]
    valid_end_offset: int
    torn: bool


def read_records(path: str, start_offset: int = 0) -> WALReadResult:
    """Scan the log from ``start_offset``, tolerating a torn tail.

    The scan stops at the first record that cannot be validated — a short
    length prefix, a short payload, a CRC mismatch, or a malformed header.
    Framing is lost past an invalid record, so everything after it is the
    torn tail a crash mid-append leaves; it is reported via ``torn``
    rather than raised (recovery's contract is "every fully committed
    record, nothing half-written").
    """
    records: List[Tuple[int, bool, OpBatch]] = []
    offset = start_offset
    torn = False
    if not os.path.exists(path):
        return WALReadResult(records=records, valid_end_offset=offset, torn=False)
    with open(path, "rb") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if start_offset > size:
            raise WALError(
                f"WAL start offset {start_offset} is past the end of the log "
                f"({size} bytes)"
            )
        handle.seek(start_offset)
        while True:
            prefix = handle.read(_FRAME.size)
            if len(prefix) == 0:
                break
            if len(prefix) < _FRAME.size:
                torn = True
                break
            (payload_len,) = _FRAME.unpack(prefix)
            body = handle.read(payload_len + _FRAME.size)
            if len(body) < payload_len + _FRAME.size:
                torn = True
                break
            payload = body[:payload_len]
            (crc,) = _FRAME.unpack_from(body, payload_len)
            if zlib.crc32(payload) != crc:
                torn = True
                break
            try:
                records.append(decode_payload(payload))
            except WALCorruptionError:
                torn = True
                break
            offset += _FRAME.size + payload_len + _FRAME.size
    return WALReadResult(records=records, valid_end_offset=offset, torn=torn)


class WriteAheadLog:
    """Appender half of the log, with group-commit fsync batching.

    Parameters
    ----------
    path:
        The log file; parent directories are created.
    fsync_every_n_ticks:
        fsync once per this many appended ticks (1 = every tick; ``None``
        disables count-based fsync, leaving only the interval and
        :meth:`close`).
    fsync_interval_s:
        Also fsync when this much wall time has passed since the last one
        (checked at append; ``None`` disables).
    truncate_to:
        Truncate the file to this byte offset before appending — the
        ``valid_end_offset`` a recovery scan returned, so a torn tail is
        cut off rather than buried under new records.
    faults:
        Optional :class:`~repro.durability.faults.FaultInjector`; the
        append and fsync paths expose the ``wal.mid_append`` /
        ``wal.pre_fsync`` crash points through it.
    """

    def __init__(
        self,
        path: str,
        fsync_every_n_ticks: Optional[int] = 1,
        fsync_interval_s: Optional[float] = None,
        truncate_to: Optional[int] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if fsync_every_n_ticks is not None and fsync_every_n_ticks < 1:
            raise ValueError("fsync_every_n_ticks must be >= 1 (or None)")
        if fsync_interval_s is not None and fsync_interval_s < 0:
            raise ValueError("fsync_interval_s must be non-negative (or None)")
        self.path = os.path.abspath(path)
        self.fsync_every_n_ticks = fsync_every_n_ticks
        self.fsync_interval_s = fsync_interval_s
        self._faults = faults
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        if truncate_to is not None and os.path.exists(self.path):
            with open(self.path, "r+b") as handle:
                handle.truncate(truncate_to)
        self._file = open(self.path, "ab")
        self._file.seek(0, os.SEEK_END)
        #: Byte offset after the last fully appended record — the WAL
        #: offset snapshots record in their manifest.
        self.end_offset = self._file.tell()
        #: Byte offset known durable (covered by an fsync).
        self.synced_offset = self.end_offset
        self._pending_ticks = 0
        self._last_fsync = time.monotonic()
        self._closed = False
        #: A failed append left unacknowledged bytes past ``end_offset``
        #: (a torn half-record, or a complete record whose fsync raised).
        #: Healed by :meth:`heal_tail`, never by the failing append, so
        #: between the failure and any retry the on-disk state is exactly
        #: what a process death at that instant would leave — the
        #: kill-and-restart oracle depends on seeing that torn tail.
        self._tail_dirty = False
        # Lifetime counters surfaced in Engine.stats().
        self.appends = 0
        self.fsyncs = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    def append(self, tick_id: int, batch: OpBatch, strict: bool = False) -> int:
        """Append one tick's record; returns the new end offset.

        The record is written and ``flush``-ed to the OS before this
        method returns — an append that returned is an *acknowledged*
        tick.  The fsync is what group commit batches.

        A failed append (an injected crash, a full disk) leaves
        unacknowledged bytes after ``end_offset``; the *next* append
        truncates them first, so an in-process retry — the quarantine
        path re-running a rolled-back tick — never appends after garbage
        and never duplicates a record whose fsync failed.
        """
        if self._closed:
            raise WALError("the write-ahead log is closed")
        self.heal_tail()
        record = encode_record(tick_id, batch, strict=strict)
        try:
            faults_mod.check(self._faults, "wal.mid_append")
        except Exception:
            # A crash mid-append leaves a torn prefix of the record on
            # disk — exactly what recovery's torn-tail tolerance is for.
            self._file.write(record[: len(record) // 2])
            self._file.flush()
            self._tail_dirty = True
            raise
        self._file.write(record)
        self._file.flush()
        try:
            self._pending_ticks += 1
            self._maybe_fsync()
        except Exception:
            # The record is fully on disk but the caller sees a failed
            # append: unacknowledged, so the retry must not duplicate it.
            self._pending_ticks -= 1
            self._tail_dirty = True
            raise
        self.appends += 1
        self.bytes_written += len(record)
        self.end_offset += len(record)
        return self.end_offset

    def heal_tail(self) -> None:
        """Cut unacknowledged bytes a failed append left past
        ``end_offset``; a no-op after a successful append.

        Not done by the failing append itself, so that until someone
        decides the process lives on — the next :meth:`append`, or the
        engine once it has rolled the failed tick back — the on-disk
        state is what a process death at the failure point would leave.
        """
        if not self._tail_dirty:
            return
        self._file.flush()
        self._file.truncate(self.end_offset)
        self._tail_dirty = False

    def _fsync_due(self) -> bool:
        if self._pending_ticks == 0:
            return False
        if (
            self.fsync_every_n_ticks is not None
            and self._pending_ticks >= self.fsync_every_n_ticks
        ):
            return True
        return (
            self.fsync_interval_s is not None
            and time.monotonic() - self._last_fsync >= self.fsync_interval_s
        )

    def _maybe_fsync(self) -> None:
        if self._fsync_due():
            self.sync()

    def sync(self) -> None:
        """Force the group commit: fsync everything appended so far."""
        faults_mod.check(self._faults, "wal.pre_fsync")
        self._file.flush()
        os.fsync(self._file.fileno())
        self.fsyncs += 1
        self._pending_ticks = 0
        self._last_fsync = time.monotonic()
        self.synced_offset = self.end_offset

    @property
    def pending_ticks(self) -> int:
        """Appended-but-not-yet-fsynced ticks (the group-commit window)."""
        return self._pending_ticks

    def close(self) -> None:
        """fsync anything pending, then close (idempotent)."""
        if self._closed:
            return
        try:
            if self._pending_ticks:
                # Final group commit on the way out; the close must not be
                # blocked by an armed pre-fsync fault (the "process" is
                # exiting cleanly here, not crashing).
                self._file.flush()
                os.fsync(self._file.fileno())
                self.fsyncs += 1
                self._pending_ticks = 0
                self.synced_offset = self.end_offset
        finally:
            self._closed = True
            self._file.close()

    def stats(self) -> Dict[str, int]:
        """Lifetime counters: appends, fsyncs, bytes, offsets."""
        return {
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "bytes_written": self.bytes_written,
            "end_offset": self.end_offset,
            "synced_offset": self.synced_offset,
            "pending_ticks": self._pending_ticks,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WriteAheadLog(path={self.path!r}, appends={self.appends}, "
            f"fsyncs={self.fsyncs}, end_offset={self.end_offset})"
        )
