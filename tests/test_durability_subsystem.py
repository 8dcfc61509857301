"""The durability subsystem end to end: WAL, snapshots, recovery, lifecycle.

Format-level WAL tests live in ``test_wal_format.py`` and the randomized
kill-and-restart oracle in ``test_durability_oracle.py``; this file pins
the deterministic behaviour of each component and of the engine wiring:

* group-commit fsync batching (the count knob, final commit on close);
* snapshot atomicity — a crash mid-write or pre-rename leaves the
  previous snapshot authoritative, committed snapshots are GC'd to
  ``keep_snapshots``, stale temps are swept on recovery;
* recovery from WAL only, from snapshot + tail, and across restarts with
  continuing tick ids;
* the engine/KVStore lifecycle: durability off writes nothing and stays
  bit-identical, ``close()`` drains admitted work into the WAL, context
  managers close, ``recover=False`` refuses a used directory.
"""

import json
import os

import numpy as np
import pytest

from repro.api.kvstore import KVStore
from repro.api.ops import OpBatch
from repro.bench.workloads import MixedOpConfig, make_mixed_batches
from repro.core.lsm import GPULSM
from repro.durability.faults import FaultInjector, InjectedCrash
from repro.durability.manager import DurabilityConfig, DurabilityError
from repro.durability.recovery import WAL_FILENAME, recover
from repro.durability.snapshot import (
    EveryNTicks,
    NoSnapshots,
    WalBytesPolicy,
    clean_stale_temps,
    list_manifests,
    load_latest_manifest,
    write_snapshot,
)
from repro.durability.wal import WriteAheadLog, read_records
from repro.scale.sharded import ShardedLSM
from repro.serve.engine import Engine

BATCH = 64


def _empty_batch():
    return OpBatch(
        np.array([], dtype=np.uint8),
        np.array([], dtype=np.uint64),
        np.array([], dtype=np.uint64),
        np.array([], dtype=np.uint64),
    )


def _insert_batch(lo, n, value_bias=0):
    keys = np.arange(lo, lo + n, dtype=np.uint64)
    return OpBatch.inserts(keys, keys * 10 + value_bias)


def _fresh(kind, tick_size=BATCH):
    if kind == "sharded4":
        return ShardedLSM(num_shards=4, batch_size=tick_size, seed=1)
    return GPULSM(batch_size=tick_size)


def _lookup_values(backend, keys):
    result = backend.lookup(np.asarray(keys, dtype=np.uint64))
    return [
        (bool(f), int(v) if f else 0)
        for f, v in zip(result.found, result.values)
    ]


# --------------------------------------------------------------------- #
# WAL group commit
# --------------------------------------------------------------------- #
class TestGroupCommit:
    def test_fsync_every_n_ticks(self, tmp_path):
        wal = WriteAheadLog(
            os.path.join(tmp_path, "wal.log"), fsync_every_n_ticks=4
        )
        for tick in range(10):
            wal.append(tick, _empty_batch())
        assert wal.appends == 10
        assert wal.fsyncs == 2  # at ticks 4 and 8
        assert wal.pending_ticks == 2
        wal.close()
        assert wal.fsyncs == 3  # the final commit on close
        assert wal.pending_ticks == 0

    def test_count_knob_disabled_defers_to_close(self, tmp_path):
        wal = WriteAheadLog(
            os.path.join(tmp_path, "wal.log"), fsync_every_n_ticks=None
        )
        for tick in range(5):
            wal.append(tick, _empty_batch())
        assert wal.fsyncs == 0 and wal.pending_ticks == 5
        wal.close()
        assert wal.fsyncs == 1

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(os.path.join(tmp_path, "wal.log"))
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(Exception, match="closed"):
            wal.append(0, _empty_batch())

    def test_truncate_to_cuts_torn_tail(self, tmp_path):
        path = os.path.join(tmp_path, "wal.log")
        wal = WriteAheadLog(path, fsync_every_n_ticks=1)
        wal.append(0, _insert_batch(0, 4))
        end = wal.end_offset
        wal.close()
        with open(path, "ab") as fh:
            fh.write(b"\x07torn-garbage")
        scan = read_records(path)
        assert scan.torn and scan.valid_end_offset == end
        reopened = WriteAheadLog(path, truncate_to=scan.valid_end_offset)
        assert reopened.end_offset == end
        reopened.append(1, _empty_batch())
        reopened.close()
        clean = read_records(path)
        assert not clean.torn and len(clean.records) == 2

    def test_mid_append_fault_leaves_torn_record(self, tmp_path):
        path = os.path.join(tmp_path, "wal.log")
        faults = FaultInjector({"wal.mid_append": 2})
        wal = WriteAheadLog(path, faults=faults)
        wal.append(0, _insert_batch(0, 4))
        with pytest.raises(InjectedCrash):
            wal.append(1, _insert_batch(4, 4))
        scan = read_records(path)
        assert scan.torn and len(scan.records) == 1


# --------------------------------------------------------------------- #
# Snapshots
# --------------------------------------------------------------------- #
class TestSnapshots:
    def _built_backend(self):
        backend = _fresh("gpulsm")
        for i in range(3):
            backend.insert(*_insert_batch_arrays(i * BATCH, BATCH))
        return backend

    def test_write_and_load_round_trip(self, tmp_path):
        backend = self._built_backend()
        manifest = write_snapshot(
            str(tmp_path), backend, tick_count=3, wal_offset=123
        )
        assert manifest["seq"] == 1 and manifest["kind"] == "gpulsm"
        assert manifest["tick_count"] == 3 and manifest["wal_offset"] == 123
        loaded = load_latest_manifest(str(tmp_path))
        assert loaded == json.loads(json.dumps(manifest))

        recovered = _fresh("gpulsm")
        report = recover(str(tmp_path), recovered)
        assert report.restored_from_snapshot and report.snapshot_ticks == 3
        probe = [0, 5, BATCH, 3 * BATCH - 1, 10_000]
        assert _lookup_values(recovered, probe) == _lookup_values(
            backend, probe
        )

    def test_gc_keeps_last_n(self, tmp_path):
        backend = self._built_backend()
        for tick in range(4):
            write_snapshot(
                str(tmp_path), backend, tick_count=tick, wal_offset=0, keep=2
            )
        seqs = [seq for seq, _ in list_manifests(str(tmp_path))]
        assert seqs == [3, 4]
        dirs = sorted(
            d for d in os.listdir(tmp_path) if d.startswith("snapshot-")
        )
        assert dirs == ["snapshot-00000003", "snapshot-00000004"]

    @pytest.mark.parametrize(
        "point", ["snapshot.mid_write", "snapshot.pre_rename"]
    )
    def test_crash_leaves_previous_snapshot_authoritative(
        self, tmp_path, point
    ):
        backend = self._built_backend()
        write_snapshot(str(tmp_path), backend, tick_count=2, wal_offset=50)
        faults = FaultInjector({point: 1})
        with pytest.raises(InjectedCrash):
            write_snapshot(
                str(tmp_path),
                backend,
                tick_count=3,
                wal_offset=99,
                faults=faults,
            )
        # The committed manifest still points at the first snapshot...
        manifest = load_latest_manifest(str(tmp_path))
        assert manifest["seq"] == 1 and manifest["tick_count"] == 2
        # ...and recovery sweeps the wreckage then restores it.
        recovered = _fresh("gpulsm")
        report = recover(str(tmp_path), recovered)
        assert report.snapshot_seq == 1
        assert not any(
            name.endswith(".tmp") for name in os.listdir(tmp_path)
        )
        # A retry after the crash must not reuse the torn sequence number.
        retry = write_snapshot(
            str(tmp_path), backend, tick_count=3, wal_offset=99
        )
        assert retry["seq"] == 2

    def test_clean_stale_temps(self, tmp_path):
        os.makedirs(os.path.join(tmp_path, "snapshot-00000009.tmp"))
        stray = os.path.join(tmp_path, "manifest-00000009.json.tmp")
        with open(stray, "w") as fh:
            fh.write("{}")
        removed = clean_stale_temps(str(tmp_path))
        assert len(removed) == 2
        assert os.listdir(tmp_path) == []

    def test_corrupt_manifest_falls_back(self, tmp_path):
        backend = self._built_backend()
        write_snapshot(str(tmp_path), backend, tick_count=1, wal_offset=0)
        write_snapshot(str(tmp_path), backend, tick_count=2, wal_offset=0)
        with open(os.path.join(tmp_path, "manifest-00000002.json"), "w") as fh:
            fh.write("{not json")
        manifest = load_latest_manifest(str(tmp_path))
        assert manifest["seq"] == 1

    def test_policies(self):
        assert not NoSnapshots().due(10**6, 10**9)
        policy = EveryNTicks(4)
        assert not policy.due(3, 0) and policy.due(4, 0)
        by_bytes = WalBytesPolicy(1024)
        assert not by_bytes.due(10**6, 1023) and by_bytes.due(0, 1024)


def _level_bytes(backend):
    """Every structure's occupied levels as ``(index, keys, values)`` bytes."""
    return [
        [
            (level["index"], level["keys"].tobytes(), level["values"].tobytes())
            for level in store.snapshot_state()["levels"]
        ]
        for store in getattr(backend, "shards", [backend])
    ]


def _insert_batch_arrays(lo, n):
    keys = np.arange(lo, lo + n, dtype=np.uint64)
    return keys, keys * 10


# --------------------------------------------------------------------- #
# Engine / KVStore wiring
# --------------------------------------------------------------------- #
class TestEngineWiring:
    @pytest.mark.parametrize("fsync_every", [1, 8])
    @pytest.mark.parametrize("kind", ["gpulsm", "sharded4"])
    def test_durability_off_is_bitwise_invisible(
        self, tmp_path, kind, fsync_every, assert_results_bit_identical
    ):
        """The WAL changes no answer on a mixed stream (COUNT/RANGE
        included), at fsync-every-tick and at group commit, and a backend
        recovered from the log holds the live store's levels byte for
        byte."""
        tick = 256
        batches = make_mixed_batches(
            MixedOpConfig(num_ops=12 * tick, tick_size=tick, seed=7)
        )
        directory = str(tmp_path / "d")
        plain = Engine(_fresh(kind, tick))
        wired = Engine(
            _fresh(kind, tick),
            durability=DurabilityConfig(
                directory=directory, fsync_every_n_ticks=fsync_every
            ),
        )
        for t, batch in enumerate(batches):
            assert_results_bit_identical(
                plain.apply(batch), wired.apply(batch), f"tick {t}"
            )
        plain.close()
        wired.close()
        assert plain.stats().durability is None
        wired_stats = wired.stats().durability
        assert wired_stats["ticks"] == len(batches)
        assert wired_stats["wal_appends"] == len(batches)
        # Group commit on the way, the final commit at close.
        assert wired_stats["wal_fsyncs"] == -(-len(batches) // fsync_every)
        assert wired_stats["snapshot_runs"] == 0
        # Durability off wrote nothing anywhere.
        assert not os.path.exists(tmp_path / "plain")

        recovered = _fresh(kind, tick)
        assert recover(directory, recovered).ticks == len(batches)
        assert _level_bytes(recovered) == _level_bytes(wired.backend)

    def test_kvstore_context_manager_and_recovery(self, tmp_path):
        directory = str(tmp_path / "store")
        with KVStore(
            batch_size=BATCH,
            durability=DurabilityConfig(directory=directory),
        ) as store:
            store.apply(_insert_batch(0, BATCH))
            store.apply(OpBatch.deletes(np.arange(5, dtype=np.uint64)))
            assert store.durability is not None
            assert store.durability.ticks == 2

        with KVStore(
            batch_size=BATCH,
            durability=DurabilityConfig(directory=directory),
        ) as reopened:
            report = reopened.durability.recovery_report
            assert report is not None and report.ticks == 2
            result = reopened.apply(
                OpBatch.lookups(np.array([0, 4, 10], dtype=np.uint64))
            )
            assert not result.result(0).found  # deleted
            assert not result.result(1).found  # deleted
            assert result.result(2).found and result.result(2).value == 100
            # Tick ids continue across the restart.
            assert reopened.durability.ticks == 3

    def test_threaded_close_drains_admitted_ops_into_wal(self, tmp_path):
        directory = str(tmp_path / "store")
        engine = Engine(
            _fresh("gpulsm"),
            durability=DurabilityConfig(directory=directory),
        ).start()
        tickets = [
            engine.submit_batch(_insert_batch(i * BATCH, BATCH))
            for i in range(4)
        ]
        # close() must drain every admitted submission into committed
        # (WAL-logged) ticks before the threads stop.
        engine.close()
        for ticket in tickets:
            assert ticket.result().ok
        scan = read_records(os.path.join(directory, WAL_FILENAME))
        assert not scan.torn
        logged = sum(batch.size for _, _, batch in scan.records)
        assert logged == 4 * BATCH

        recovered = _fresh("gpulsm")
        report = recover(directory, recovered)
        assert report.ticks == len(scan.records)
        probe = list(range(0, 4 * BATCH, 37))
        assert _lookup_values(recovered, probe) == [
            (True, k * 10) for k in probe
        ]

    def test_snapshot_policy_runs_between_ticks(self, tmp_path):
        directory = str(tmp_path / "store")
        engine = Engine(
            _fresh("gpulsm"),
            durability=DurabilityConfig(
                directory=directory, snapshot_policy=EveryNTicks(2)
            ),
        )
        for i in range(5):
            engine.apply(_insert_batch(i * BATCH, BATCH))
        stats = engine.stats().durability
        assert stats["snapshot_runs"] == 2  # after ticks 2 and 4
        engine.close()
        manifest = load_latest_manifest(directory)
        assert manifest["tick_count"] == 4
        # Recovery restores the snapshot and replays only the tail.
        recovered = _fresh("gpulsm")
        report = recover(directory, recovered)
        assert report.snapshot_ticks == 4 and report.replayed_ticks == 1

    def test_recover_false_requires_fresh_directory(self, tmp_path):
        directory = str(tmp_path / "store")
        engine = Engine(
            _fresh("gpulsm"),
            durability=DurabilityConfig(directory=directory),
        )
        engine.apply(_insert_batch(0, BATCH))
        engine.close()
        with pytest.raises(DurabilityError, match="fresh"):
            Engine(
                _fresh("gpulsm"),
                durability=DurabilityConfig(directory=directory, recover=False),
            )
        # A genuinely fresh directory is fine.
        fresh = Engine(
            _fresh("gpulsm"),
            durability=DurabilityConfig(
                directory=str(tmp_path / "fresh"), recover=False
            ),
        )
        fresh.close()

    def test_recovery_into_wrong_shape_raises(self, tmp_path):
        directory = str(tmp_path / "store")
        engine = Engine(
            _fresh("sharded4"),
            durability=DurabilityConfig(
                directory=directory, snapshot_policy=EveryNTicks(1)
            ),
        )
        engine.apply(_insert_batch(0, BATCH))
        engine.close()
        with pytest.raises(Exception, match="sharded|shards"):
            recover(directory, _fresh("gpulsm"))

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DurabilityConfig(directory="")
        with pytest.raises(ValueError):
            DurabilityConfig(directory=str(tmp_path), keep_snapshots=0)
        with pytest.raises(TypeError):
            DurabilityConfig(directory=str(tmp_path), snapshot_policy=object())

    def test_sharded_round_trip_through_engine(self, tmp_path):
        directory = str(tmp_path / "store")
        engine = Engine(
            _fresh("sharded4"),
            durability=DurabilityConfig(
                directory=directory, snapshot_policy=EveryNTicks(2)
            ),
        )
        for i in range(3):
            engine.apply(_insert_batch(i * BATCH, BATCH))
        engine.apply(OpBatch.deletes(np.arange(7, dtype=np.uint64)))
        live = engine.backend
        engine.close()

        recovered = _fresh("sharded4")
        report = recover(directory, recovered)
        assert report.ticks == 4 and report.restored_from_snapshot
        probe = list(range(0, 3 * BATCH, 13))
        assert _lookup_values(recovered, probe) == _lookup_values(live, probe)
