"""Regression tests for fixed GPU LSM edge cases.

* ``bulk_build`` must validate its keys against the encoder's 31-bit
  original-key domain up front, like lookup and the range queries already
  do, instead of relying on downstream encode behaviour.
* ``stale_fraction_estimate`` must not be fooled by duplicate-key
  re-insertions: repeatedly inserting the same key inflates the lifetime
  insertion counter without growing the live population, which used to
  drive the estimate to zero exactly when almost everything was stale.
* Query paths must reject *negative* keys up front: the upper bound of the
  31-bit domain was validated but a negative key slipped through and
  silently wrapped into a huge unsigned probe word, searching for an
  unrelated key instead of failing loudly.  Applies to
  ``lookup`` / ``count`` / ``range_query`` on the GPU LSM and to both
  baselines.
* Every store surface must reject keys that are not integers: a float
  key used to be truncated to another key (``lookup([5.7])`` found key 5,
  ``insert([7.9])`` stored key 7) and a bool array passed as keys 0 and 1.
  Updates, queries and bulk builds raise the ``ValueError`` ``OpBatch``
  raises ("must be an integer array") and change nothing.
"""

import numpy as np
import pytest

from repro.baselines.cuckoo_hash import CuckooHashTable
from repro.baselines.sorted_array import GPUSortedArray
from repro.core.config import LSMConfig
from repro.core.lsm import GPULSM
from repro.scale.sharded import ShardedLSM


class TestBulkBuildDomainValidation:
    def test_out_of_domain_key_rejected(self, device):
        lsm = GPULSM(config=LSMConfig(batch_size=8), device=device)
        keys = np.array([1, 2, 1 << 31], dtype=np.uint64)
        values = np.zeros(3, dtype=np.uint32)
        with pytest.raises(ValueError, match="original-key domain"):
            lsm.bulk_build(keys, values)
        # The failed build must not leave partial state behind.
        assert lsm.num_batches == 0 and lsm.num_elements == 0

    def test_negative_key_rejected(self, device):
        lsm = GPULSM(config=LSMConfig(batch_size=8), device=device, key_only=True)
        # Negative keys now get the dedicated non-negativity message shared
        # with every query surface.
        with pytest.raises(ValueError, match="non-negative"):
            lsm.bulk_build(np.array([3, -1], dtype=np.int64))

    def test_max_key_accepted(self, device):
        lsm = GPULSM(config=LSMConfig(batch_size=8), device=device, key_only=True)
        lsm.bulk_build(np.array([0, (1 << 31) - 1], dtype=np.uint64))
        res = lsm.lookup(np.array([(1 << 31) - 1], dtype=np.uint64))
        assert bool(res.found[0])


class TestStaleFractionEstimate:
    def test_duplicate_reinsertions_do_not_zero_the_estimate(self, device):
        b = 8
        lsm = GPULSM(config=LSMConfig(batch_size=b), device=device)
        # The same single key re-inserted for 8 full batches: 64 resident
        # elements of which exactly one is live.
        for i in range(8):
            lsm.insert(
                np.full(b, 42, dtype=np.uint32), np.full(b, i, dtype=np.uint32)
            )
        assert lsm.num_elements == 64
        estimate = lsm.stale_fraction_estimate()
        # True stale fraction is 63/64; the estimate must not undershoot
        # grossly (the pre-fix value here was 0.0).
        assert estimate >= 0.8

    def test_unique_insertions_report_no_staleness(self, device):
        b = 8
        lsm = GPULSM(config=LSMConfig(batch_size=b), device=device)
        for i in range(4):
            keys = np.arange(i * b, (i + 1) * b, dtype=np.uint32)
            lsm.insert(keys, keys)
        assert lsm.stale_fraction_estimate() == 0.0

    def test_deletions_still_count_as_stale(self, device):
        b = 8
        lsm = GPULSM(config=LSMConfig(batch_size=b), device=device)
        keys = np.arange(b, dtype=np.uint32)
        lsm.insert(keys, keys)
        lsm.delete(keys)
        # All 16 resident elements are stale (8 deleted + 8 tombstones).
        assert lsm.stale_fraction_estimate() == 1.0

    def test_cleanup_resets_the_estimate_despite_padding(self, device):
        # Regression: padding placebos used to be counted as stale
        # (``_live_keys_upper_bound = num_valid`` while ``num_elements``
        # includes the padding), so a threshold policy re-triggered
        # cleanup forever with zero reclaim.  The irreducible trailing
        # placebos are now excluded: right after a cleanup the estimate
        # is exactly 0.0, padding or not.
        b = 8
        lsm = GPULSM(config=LSMConfig(batch_size=b), device=device)
        for i in range(4):
            lsm.insert(
                np.full(b, 7, dtype=np.uint32), np.full(b, i, dtype=np.uint32)
            )
        assert lsm.stale_fraction_estimate() > 0.5
        stats = lsm.cleanup()
        # One live element survives, padded up to one batch of placebos.
        assert lsm.num_elements == b
        assert stats["padding"] == b - 1
        assert lsm.stale_fraction_estimate() == 0.0

    def test_threshold_policy_cannot_retrigger_on_pure_padding(self, device):
        from repro.core.maintenance import StaleFractionPolicy

        b = 8
        lsm = GPULSM(
            config=LSMConfig(
                batch_size=b,
                maintenance_policy=StaleFractionPolicy(threshold=0.3),
            ),
            device=device,
        )
        for i in range(4):
            lsm.insert(
                np.full(b, 7, dtype=np.uint32), np.full(b, i, dtype=np.uint32)
            )
        assert lsm.run_due_maintenance() is not None   # genuine staleness
        # Padding > 0 survives the cleanup, yet nothing further is due.
        assert lsm.num_elements == b
        assert lsm.run_due_maintenance() is None

    def test_placebos_count_again_once_a_cascade_merges_them(self, device):
        b = 8
        lsm = GPULSM(config=LSMConfig(batch_size=b), device=device)
        for i in range(4):
            lsm.insert(
                np.full(b, 7, dtype=np.uint32), np.full(b, i, dtype=np.uint32)
            )
        lsm.cleanup()
        assert lsm.stale_fraction_estimate() == 0.0
        # Cascades that merge the padded level fold the placebos into
        # ordinary (reclaimable) stale data: the estimate must see them.
        for i in range(3):
            lsm.insert(
                np.arange(i * b, (i + 1) * b, dtype=np.uint32),
                np.zeros(b, dtype=np.uint32),
            )
        # 4 batches resident, 1 + 24 live elements: the 7 old placebos are
        # stale again.
        assert lsm.stale_fraction_estimate() == pytest.approx(7 / 32)

    def test_bulk_build_duplicates_feed_the_bound(self, device):
        b = 8
        lsm = GPULSM(config=LSMConfig(batch_size=b), device=device, key_only=True)
        lsm.bulk_build(np.full(2 * b, 3, dtype=np.uint32))
        # 16 resident copies of one key: 15 stale.
        assert lsm.stale_fraction_estimate() >= 0.8


class TestNegativeQueryKeyValidation:
    """Negative query keys must raise, not silently wrap into huge words."""

    NEG = np.array([5, -3], dtype=np.int64)
    NEG_HI = np.array([9, 9], dtype=np.int64)

    def _filled_lsm(self, device):
        lsm = GPULSM(config=LSMConfig(batch_size=8), device=device)
        lsm.insert(np.arange(8, dtype=np.uint32), np.arange(8, dtype=np.uint32))
        return lsm

    def test_lsm_lookup_rejects_negative_keys(self, device):
        lsm = self._filled_lsm(device)
        with pytest.raises(ValueError, match="non-negative"):
            lsm.lookup(self.NEG)

    def test_lsm_count_rejects_negative_bounds(self, device):
        lsm = self._filled_lsm(device)
        with pytest.raises(ValueError, match="non-negative"):
            lsm.count(self.NEG, self.NEG_HI)
        with pytest.raises(ValueError, match="non-negative"):
            lsm.count(np.zeros(2, np.int64), self.NEG)

    def test_lsm_range_rejects_negative_bounds(self, device):
        lsm = self._filled_lsm(device)
        with pytest.raises(ValueError, match="non-negative"):
            lsm.range_query(self.NEG, self.NEG_HI)

    def test_sharded_lookup_and_ranges_reject_negative_keys(self):
        sharded = ShardedLSM(num_shards=2, batch_size=16, key_domain=1 << 10)
        sharded.insert(np.arange(8, dtype=np.uint32), np.arange(8, dtype=np.uint32))
        with pytest.raises(ValueError):
            sharded.lookup(self.NEG)
        with pytest.raises(ValueError, match="non-negative"):
            sharded.count(self.NEG, self.NEG_HI)
        with pytest.raises(ValueError, match="non-negative"):
            sharded.range_query(self.NEG, self.NEG_HI)

    def test_sorted_array_rejects_negative_keys(self, device):
        sa = GPUSortedArray(device=device)
        sa.bulk_build(np.arange(8, dtype=np.uint32), np.arange(8, dtype=np.uint32))
        with pytest.raises(ValueError, match="non-negative"):
            sa.lookup(self.NEG)
        with pytest.raises(ValueError, match="non-negative"):
            sa.count(self.NEG, self.NEG_HI)
        with pytest.raises(ValueError, match="non-negative"):
            sa.range_query(self.NEG, self.NEG_HI)

    def test_cuckoo_lookup_rejects_negative_keys(self, device):
        cuckoo = CuckooHashTable(device=device)
        cuckoo.bulk_build(
            np.arange(8, dtype=np.uint64), np.arange(8, dtype=np.uint64)
        )
        with pytest.raises(ValueError, match="non-negative"):
            cuckoo.lookup(self.NEG)

    def test_fractional_negative_float_keys_rejected(self, device):
        # int(-0.5) == 0, so a truncating check would let these through.
        lsm = self._filled_lsm(device)
        with pytest.raises(ValueError, match="non-negative"):
            lsm.lookup(np.array([-0.5]))

    def test_valid_queries_still_work_after_validation(self, device):
        lsm = self._filled_lsm(device)
        res = lsm.lookup(np.array([5, 200], dtype=np.int64))
        assert bool(res.found[0]) and not bool(res.found[1])
        assert int(lsm.count(np.array([0]), np.array([7]))[0]) == 8


def _store(kind, device, filled=True):
    """A store holding keys 0..7 (values 10 * key), or an empty one."""
    if kind == "gpulsm":
        store = GPULSM(config=LSMConfig(batch_size=8), device=device)
    elif kind == "sharded":
        store = ShardedLSM(num_shards=2, batch_size=8, key_domain=1 << 10)
    elif kind == "sorted_array":
        store = GPUSortedArray(device=device)
    else:
        store = CuckooHashTable(device=device)
    if filled:
        keys = np.arange(8, dtype=np.uint32)
        store.bulk_build(keys, keys * 10)
    return store


NON_INTEGER_KEYS = {
    "float": np.array([5.7]),
    "whole-float": np.array([5.0]),
    "bool": np.array([True, False]),
}

OPERATIONS = {
    "insert": lambda store, keys: store.insert(keys, np.ones(keys.size, dtype=np.uint32)),
    "delete": lambda store, keys: store.delete(keys),
    "update": lambda store, keys: store.update(delete_keys=keys),
    "lookup": lambda store, keys: store.lookup(keys),
    "count": lambda store, keys: store.count(keys, keys),
    "range_query": lambda store, keys: store.range_query(keys, keys),
    "bulk_build": lambda store, keys: store.bulk_build(
        keys, np.ones(keys.size, dtype=np.uint32)
    ),
}

#: (store, operation) pairs the store has: the baselines take no mixed
#: ``update``, and the hash table answers no ordered query.
SURFACES = [
    (kind, op)
    for kind in ("gpulsm", "sharded", "sorted_array", "cuckoo")
    for op in OPERATIONS
    if not (op == "update" and kind in ("sorted_array", "cuckoo"))
    and not (op in ("count", "range_query") and kind == "cuckoo")
]


class TestNonIntegerKeyRejection:
    @pytest.mark.parametrize("dtype", sorted(NON_INTEGER_KEYS))
    @pytest.mark.parametrize("kind,operation", SURFACES)
    def test_non_integer_keys_rejected(self, device, kind, operation, dtype):
        store = _store(kind, device, filled=operation != "bulk_build")
        before = store.lookup(np.arange(8, dtype=np.uint32))
        with pytest.raises(ValueError, match="must be an integer array"):
            OPERATIONS[operation](store, NON_INTEGER_KEYS[dtype])
        after = store.lookup(np.arange(8, dtype=np.uint32))
        assert np.array_equal(after.found, before.found)
        assert np.array_equal(after.values, before.values)

    @pytest.mark.parametrize("kind", ["gpulsm", "sharded", "sorted_array", "cuckoo"])
    def test_integer_keys_of_any_width_still_work(self, device, kind):
        store = _store(kind, device)
        for dtype in (np.int8, np.int64, np.uint16, np.uint64):
            assert store.lookup(np.array([5, 9], dtype=dtype)).found.tolist() == [True, False]

    def test_empty_arrays_of_any_dtype_stay_accepted(self, device):
        """An empty batch holds no key to truncate: ``lookup([])`` answers
        nothing, as before."""
        lsm = _store("gpulsm", device)
        assert lsm.lookup(np.array([])).found.size == 0
        assert lsm.count(np.array([]), np.array([])).size == 0

