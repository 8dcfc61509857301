"""Protocol conformance of every dictionary structure (paper Table I)."""

import numpy as np
import pytest

from repro.baselines.cuckoo_hash import CuckooHashTable
from repro.baselines.sorted_array import GPUSortedArray
from repro.core.config import LSMConfig
from repro.core.lsm import GPULSM
from repro.scale import (
    DictionaryProtocol,
    ShardedLSM,
    UnsupportedOperationError,
    supports,
)
from repro.serve.engine import Engine


class TestStructuralConformance:
    def test_all_structures_satisfy_the_protocol(self, device):
        structures = [
            GPULSM(config=LSMConfig(batch_size=8), device=device),
            GPUSortedArray(device=device),
            CuckooHashTable(device=device),
            ShardedLSM(num_shards=2, batch_size=8),
        ]
        for structure in structures:
            assert isinstance(structure, DictionaryProtocol), structure

    def test_epoch_is_a_required_member(self, device):
        lsm = GPULSM(config=LSMConfig(batch_size=8), device=device)
        del lsm.epoch
        assert not isinstance(lsm, DictionaryProtocol)

    @pytest.mark.parametrize("missing", ["epoch", "supported_operations"])
    def test_engine_names_the_missing_contract_member(self, missing):
        class Partial:
            epoch = 0

            @classmethod
            def supported_operations(cls):
                return frozenset({"lookup"})

            def lookup(self, keys):  # pragma: no cover - never reached
                raise AssertionError

        delattr(Partial, missing)
        with pytest.raises(TypeError, match=missing):
            Engine(Partial())

    def test_supports_reflects_table1(self, device):
        lsm = GPULSM(config=LSMConfig(batch_size=8), device=device)
        cuckoo = CuckooHashTable(device=device)
        for op in ("insert", "delete", "lookup", "count", "range_query"):
            assert supports(lsm, op), op
        assert supports(cuckoo, "insert")
        assert supports(cuckoo, "lookup")
        assert not supports(cuckoo, "count")
        assert not supports(cuckoo, "range_query")


class TestSupportedOperationsDeclarations:
    def test_every_structure_declares_its_table1_row(self):
        full = {"bulk_build", "insert", "delete", "lookup", "count", "range_query"}
        assert GPULSM.supported_operations() == full
        assert GPUSortedArray.supported_operations() == full
        assert ShardedLSM.supported_operations() == full
        assert CuckooHashTable.supported_operations() == frozenset(
            {"bulk_build", "insert", "delete", "lookup"}
        )

    def test_declaration_is_authoritative_no_probe_call(self):
        class Declared:
            probed = False

            @classmethod
            def supported_operations(cls):
                return {"lookup"}

            def lookup(self, keys):  # pragma: no cover - must not run
                type(self).probed = True

        backend = Declared()
        assert supports(backend, "lookup")
        assert not supports(backend, "count")
        assert not Declared.probed

    def test_declared_path_is_answered_fresh_never_memoised(self):
        """``supports`` reads the declaration on every call and keys
        nothing on the type: a proxy class (e.g. ``ReadCachedBackend``)
        forwards ``supported_operations`` from whatever backend it wraps,
        so two instances of one class can legitimately answer
        differently."""

        class Declared:
            calls = 0

            @classmethod
            def supported_operations(cls):
                cls.calls += 1
                return {"insert"}

        backend = Declared()
        assert supports(backend, "insert")
        assert supports(backend, "insert")
        assert not supports(backend, "delete")
        assert Declared.calls == 3

    def test_declared_path_distinguishes_instances_of_one_class(self):
        class Forwarding:
            def __init__(self, ops):
                self._ops = frozenset(ops)

            def supported_operations(self):
                return self._ops

        rich = Forwarding({"insert", "lookup", "range_query"})
        poor = Forwarding({"insert", "lookup"})
        assert supports(rich, "range_query")
        assert not supports(poor, "range_query")
        assert supports(rich, "range_query")


class TestCuckooIncrementalOps:
    def test_insert_adds_and_overwrites(self, device):
        table = CuckooHashTable(device=device)
        table.bulk_build(
            np.array([1, 2, 3], dtype=np.uint64),
            np.array([10, 20, 30], dtype=np.uint64),
        )
        table.insert(
            np.array([2, 4], dtype=np.uint64), np.array([99, 40], dtype=np.uint64)
        )
        res = table.lookup(np.array([1, 2, 4, 5], dtype=np.uint64))
        assert list(res.found) == [True, True, True, False]
        assert int(res.values[1]) == 99  # the new value won
        assert table.num_elements == 4

    def test_delete_removes_keys(self, device):
        table = CuckooHashTable(device=device)
        table.bulk_build(
            np.array([1, 2, 3], dtype=np.uint64),
            np.array([10, 20, 30], dtype=np.uint64),
        )
        table.delete(np.array([1, 3, 7], dtype=np.uint64))
        res = table.lookup(np.array([1, 2, 3], dtype=np.uint64))
        assert list(res.found) == [False, True, False]
        assert table.num_elements == 1

    def test_delete_everything_empties_the_table(self, device):
        table = CuckooHashTable(device=device)
        table.bulk_build(np.array([5], dtype=np.uint64), np.array([50], dtype=np.uint64))
        table.delete(np.array([5], dtype=np.uint64))
        assert table.num_elements == 0
        assert not table.lookup(np.array([5], dtype=np.uint64)).found[0]

    def test_ordered_queries_raise(self, device):
        table = CuckooHashTable(device=device)
        with pytest.raises(UnsupportedOperationError):
            table.count(np.array([0]), np.array([10]))
        with pytest.raises(UnsupportedOperationError):
            table.range_query(np.array([0]), np.array([10]))

    def test_insert_requires_values(self, device):
        with pytest.raises(ValueError, match="key-value"):
            CuckooHashTable(device=device).insert(np.array([1], dtype=np.uint64))

    def test_failed_rebuild_leaves_the_table_intact(self, device):
        table = CuckooHashTable(device=device)
        table.bulk_build(
            np.array([1, 2, 3], dtype=np.uint64),
            np.array([10, 20, 30], dtype=np.uint64),
        )
        # The all-ones key is the reserved empty sentinel: the rebuild
        # fails, and must not have wiped the resident elements first.
        with pytest.raises(ValueError, match="sentinel"):
            table.insert(
                np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64),
                np.array([1], dtype=np.uint64),
            )
        assert table.num_elements == 3
        assert table.lookup(np.array([2], dtype=np.uint64)).found[0]

    def test_duplicate_keys_within_a_batch_canonicalised(self, device):
        table = CuckooHashTable(device=device)
        table.bulk_build(
            np.array([9], dtype=np.uint64), np.array([90], dtype=np.uint64)
        )
        table.insert(
            np.array([7, 7, 7], dtype=np.uint64),
            np.array([1, 2, 3], dtype=np.uint64),
        )
        assert table.num_elements == 2  # one resident copy of key 7
        res = table.lookup(np.array([7], dtype=np.uint64))
        assert res.found[0] and int(res.values[0]) == 1  # first occurrence wins
