"""Checkpointing: atomic snapshots of a store's resident levels.

A snapshot serializes what :meth:`repro.core.lsm.GPULSM.snapshot_state`
exposes — the occupied levels' immutable encoded runs, the shape-defining
config fields, and the bookkeeping counters — for the single structure of
a ``GPULSM`` backend or for every shard of a
:class:`~repro.scale.sharded.ShardedLSM`.  The commit protocol is
write-temp-then-rename:

1. every structure is written to ``snapshot-<seq>.tmp/structure-<k>.bin``
   (a JSON metadata block plus the raw level columns, CRC-checksummed,
   no pickle anywhere), fsynced;
2. the temp directory is renamed to ``snapshot-<seq>/``;
3. the manifest — recording the backend kind and shape, the **epoch
   mark** (the backend's ``epoch`` at snapshot time, an int), the
   committed tick count, and the **WAL offset** the snapshot covers — is
   written to a temp file and renamed to ``manifest-<seq>.json``.

The manifest rename is the commit point: recovery only trusts
``manifest-*.json`` files, so a crash anywhere earlier leaves stray
``*.tmp`` entries (cleaned on recovery) and the previous snapshot intact.
Old snapshots are garbage-collected after a successful commit, keeping
the most recent ``keep``.

When a snapshot runs is a pluggable :class:`SnapshotPolicy` — evaluated
by the engine between ticks exactly like maintenance policies — deciding
on ticks-since-last-snapshot and WAL bytes appended since.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

import numpy as np

from repro.durability import faults as faults_mod
from repro.durability.faults import FaultInjector

#: On-disk snapshot format version (manifest and structure files).
SNAPSHOT_FORMAT_VERSION = 1

_MANIFEST_RE = re.compile(r"^manifest-(\d{8})\.json$")
_SNAPDIR_RE = re.compile(r"^snapshot-(\d{8})(\.tmp)?$")


class SnapshotError(RuntimeError):
    """Base error of the checkpointing layer."""


class SnapshotCorruptionError(SnapshotError):
    """A snapshot file failed CRC or structural validation."""


# ---------------------------------------------------------------------- #
# Scheduling policies
# ---------------------------------------------------------------------- #
class SnapshotPolicy(ABC):
    """When to take a checkpoint, decided between ticks.

    The engine evaluates :meth:`due` after every committed tick (and after
    any maintenance that tick triggered), passing the number of ticks and
    the number of WAL bytes appended since the last snapshot.
    """

    @abstractmethod
    def due(self, ticks_since: int, wal_bytes_since: int) -> bool:
        """True when a snapshot should be taken now."""


class EveryNTicks(SnapshotPolicy):
    """Snapshot once every ``n`` committed ticks."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("EveryNTicks requires n >= 1")
        self.n = int(n)

    def due(self, ticks_since: int, wal_bytes_since: int) -> bool:
        return ticks_since >= self.n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EveryNTicks({self.n})"


class WalBytesPolicy(SnapshotPolicy):
    """Snapshot once the WAL has grown past ``max_bytes`` since the last
    one — bounding replay work by log volume instead of tick count."""

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 1:
            raise ValueError("WalBytesPolicy requires max_bytes >= 1")
        self.max_bytes = int(max_bytes)

    def due(self, ticks_since: int, wal_bytes_since: int) -> bool:
        return wal_bytes_since >= self.max_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WalBytesPolicy({self.max_bytes})"


# ---------------------------------------------------------------------- #
# Structure (de)serialization
# ---------------------------------------------------------------------- #
def encode_structure(state: dict) -> bytes:
    """One ``snapshot_state`` dict as a self-validating binary blob.

    Layout: ``[u32 meta_len][meta JSON][level columns...][u32 crc32]``
    where the metadata block holds every scalar field plus the per-level
    dtype/row-count table, and the columns follow in level order (keys,
    then values when present) as raw ``tobytes`` — the same no-pickle
    framing discipline as the WAL.
    """
    meta = {
        "format": SNAPSHOT_FORMAT_VERSION,
        "levels": [],
    }
    for field in (
        "batch_size",
        "key_only",
        "key_dtype",
        "value_dtype",
        "num_batches",
        "epoch",
        "total_insertions",
        "total_deletions",
        "total_cleanups",
        "total_compactions",
        "live_keys_upper_bound",
        "trailing_placebos",
        "placebo_level",
    ):
        meta[field] = state[field]
    chunks: List[bytes] = []
    for entry in state["levels"]:
        keys = np.ascontiguousarray(entry["keys"])
        values = entry["values"]
        meta["levels"].append(
            {
                "index": int(entry["index"]),
                "n": int(keys.size),
                "key_dtype": keys.dtype.str,
                "value_dtype": None if values is None else np.asarray(values).dtype.str,
            }
        )
        chunks.append(keys.tobytes())
        if values is not None:
            chunks.append(np.ascontiguousarray(values).tobytes())
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = b"".join(
        (len(meta_bytes).to_bytes(4, "little"), meta_bytes, *chunks)
    )
    return body + zlib.crc32(body).to_bytes(4, "little")


def decode_structure(data: bytes) -> dict:
    """Invert :func:`encode_structure`, CRC-validating the whole blob."""
    if len(data) < 8:
        raise SnapshotCorruptionError("structure file is truncated")
    body, crc = data[:-4], int.from_bytes(data[-4:], "little")
    if zlib.crc32(body) != crc:
        raise SnapshotCorruptionError("structure file failed its CRC check")
    meta_len = int.from_bytes(body[:4], "little")
    if len(body) < 4 + meta_len:
        raise SnapshotCorruptionError("structure metadata is truncated")
    try:
        meta = json.loads(body[4 : 4 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptionError(f"bad structure metadata: {exc}") from exc
    if meta.get("format") != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotCorruptionError(
            f"unsupported snapshot format {meta.get('format')!r}"
        )
    state = {k: v for k, v in meta.items() if k not in ("format", "levels")}
    state["levels"] = []
    off = 4 + meta_len
    for lvl in meta["levels"]:
        key_dtype = np.dtype(lvl["key_dtype"])
        n = int(lvl["n"])
        keys = np.frombuffer(body, dtype=key_dtype, count=n, offset=off).copy()
        off += n * key_dtype.itemsize
        values = None
        if lvl["value_dtype"] is not None:
            value_dtype = np.dtype(lvl["value_dtype"])
            values = np.frombuffer(
                body, dtype=value_dtype, count=n, offset=off
            ).copy()
            off += n * value_dtype.itemsize
        state["levels"].append(
            {"index": int(lvl["index"]), "keys": keys, "values": values}
        )
    if off != len(body):
        raise SnapshotCorruptionError(
            f"structure file holds {len(body) - off} unexplained trailing bytes"
        )
    return state


def _backend_states(backend) -> Tuple[str, dict, List[dict]]:
    """``(kind, frontend-shape dict, per-structure states)`` of a backend."""
    shards = getattr(backend, "shards", None)
    if shards is not None:
        frontend = {
            "num_shards": backend.num_shards,
            "batch_size": backend.batch_size,
            "shard_batch_size": backend.shard_batch_size,
            "key_only": backend.key_only,
            "key_domain": backend.key_domain,
        }
        bounds = getattr(backend, "shard_bounds", None)
        if bounds is not None:
            # Rebalancing moves shard boundaries at runtime; the manifest
            # must record the partition the per-shard states were cut
            # under, or recovery would zip levels onto the wrong ranges.
            frontend["bounds"] = [int(b) for b in bounds]
            frontend["boundary_version"] = int(
                getattr(backend, "boundary_version", 0)
            )
        return "sharded", frontend, [shard.snapshot_state() for shard in shards]
    if not hasattr(backend, "snapshot_state"):
        raise SnapshotError(
            f"backend {type(backend).__name__} exposes neither shards nor "
            "snapshot_state(); it cannot be checkpointed"
        )
    return "gpulsm", {}, [backend.snapshot_state()]


def _fsync_write(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def list_manifests(directory: str) -> List[Tuple[int, str]]:
    """``(seq, path)`` of every committed manifest, ascending by seq."""
    out = []
    if os.path.isdir(directory):
        for name in os.listdir(directory):
            match = _MANIFEST_RE.match(name)
            if match:
                out.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(out)


def _next_seq(directory: str) -> int:
    """One past every seq any manifest *or* snapshot dir has ever used —
    an uncommitted ``snapshot-<seq>/`` left by a pre-manifest crash must
    not be reused, its contents are untrusted."""
    highest = 0
    if os.path.isdir(directory):
        for name in os.listdir(directory):
            match = _MANIFEST_RE.match(name) or _SNAPDIR_RE.match(name)
            if match:
                highest = max(highest, int(match.group(1)))
    return highest + 1


def write_snapshot(
    directory: str,
    backend,
    tick_count: int,
    wal_offset: int,
    faults: Optional[FaultInjector] = None,
    keep: int = 2,
) -> dict:
    """Take one atomic checkpoint of ``backend``; returns its manifest.

    ``tick_count`` is the number of committed ticks the snapshot covers
    and ``wal_offset`` the WAL byte offset recovery should replay from.
    Crash points (via ``faults``): ``snapshot.mid_write`` dies with a
    partial temp file, ``snapshot.pre_rename`` with complete temp files
    whose manifest never committed — both leave the previous snapshot
    authoritative.
    """
    os.makedirs(directory, exist_ok=True)
    seq = _next_seq(directory)
    snap_name = f"snapshot-{seq:08d}"
    tmp_dir = os.path.join(directory, snap_name + ".tmp")
    final_dir = os.path.join(directory, snap_name)
    kind, frontend, states = _backend_states(backend)

    os.makedirs(tmp_dir)
    structures = []
    for k, state in enumerate(states):
        data = encode_structure(state)
        file_name = f"structure-{k}.bin"
        path = os.path.join(tmp_dir, file_name)
        try:
            faults_mod.check(faults, "snapshot.mid_write")
        except Exception:
            _fsync_write(path, data[: len(data) // 2])
            raise
        _fsync_write(path, data)
        structures.append({"file": f"{snap_name}/{file_name}", "bytes": len(data)})

    faults_mod.check(faults, "snapshot.pre_rename")
    os.rename(tmp_dir, final_dir)

    manifest = {
        "format": SNAPSHOT_FORMAT_VERSION,
        "seq": seq,
        "kind": kind,
        "frontend": frontend,
        "tick_count": int(tick_count),
        "wal_offset": int(wal_offset),
        "epoch_mark": int(backend.epoch),
        "structures": structures,
    }
    manifest_path = os.path.join(directory, f"manifest-{seq:08d}.json")
    tmp_manifest = manifest_path + ".tmp"
    _fsync_write(tmp_manifest, json.dumps(manifest, sort_keys=True).encode("utf-8"))
    os.rename(tmp_manifest, manifest_path)

    _gc_snapshots(directory, keep=keep)
    return manifest


def _gc_snapshots(directory: str, keep: int) -> None:
    """Drop committed snapshots beyond the most recent ``keep``."""
    manifests = list_manifests(directory)
    for seq, manifest_path in manifests[: max(0, len(manifests) - keep)]:
        snap_dir = os.path.join(directory, f"snapshot-{seq:08d}")
        os.remove(manifest_path)
        if os.path.isdir(snap_dir):
            for name in os.listdir(snap_dir):
                os.remove(os.path.join(snap_dir, name))
            os.rmdir(snap_dir)


def clean_stale_temps(directory: str) -> List[str]:
    """Remove every uncommitted ``*.tmp`` entry a crash left behind;
    returns the removed paths (recovery reports them)."""
    removed = []
    if not os.path.isdir(directory):
        return removed
    for name in os.listdir(directory):
        if not name.endswith(".tmp"):
            continue
        path = os.path.join(directory, name)
        if os.path.isdir(path):
            for inner in os.listdir(path):
                os.remove(os.path.join(path, inner))
            os.rmdir(path)
        else:
            os.remove(path)
        removed.append(path)
    return removed


def load_latest_manifest(directory: str) -> Optional[dict]:
    """The highest-seq manifest that parses and whose files exist.

    Falls back seq by seq: a manifest whose JSON is malformed or whose
    structure files are missing is skipped (its snapshot never fully
    committed or was damaged), so recovery degrades to the previous
    checkpoint plus a longer WAL replay instead of failing.
    """
    for seq, path in reversed(list_manifests(directory)):
        try:
            with open(path, "rb") as handle:
                manifest = json.loads(handle.read().decode("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            continue
        if manifest.get("format") != SNAPSHOT_FORMAT_VERSION:
            continue
        if manifest.get("seq") != seq:
            continue
        required = ("kind", "frontend", "tick_count", "wal_offset", "structures")
        if any(field not in manifest for field in required):
            continue
        if all(
            os.path.exists(os.path.join(directory, entry["file"]))
            for entry in manifest["structures"]
        ):
            return manifest
    return None


def load_structure(directory: str, entry: dict) -> dict:
    """Read and CRC-validate one manifest structure entry's state."""
    path = os.path.join(directory, entry["file"])
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) != entry["bytes"]:
        raise SnapshotCorruptionError(
            f"{entry['file']} is {len(data)} bytes, manifest recorded "
            f"{entry['bytes']}"
        )
    return decode_structure(data)
