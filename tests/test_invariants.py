"""Unit tests for the invariant checkers (repro.core.invariants)."""

import numpy as np
import pytest

from repro.core.config import LSMConfig
from repro.core.encoding import KeyEncoder
from repro.core.invariants import (
    InvariantViolation,
    check_level_invariants,
    check_lsm_invariants,
)
from repro.core.level import Level
from repro.core.lsm import GPULSM
from repro.core.run import SortedRun


ENC = KeyEncoder(np.dtype(np.uint32))


class TestLevelInvariants:
    def test_empty_level_passes(self):
        check_level_invariants(Level(index=0, capacity=4), ENC)

    def test_sorted_full_level_passes(self):
        lvl = Level(index=0, capacity=4)
        lvl.fill(ENC.encode(np.array([1, 2, 3, 4], dtype=np.uint32), 1), None)
        check_level_invariants(lvl, ENC)

    def test_unsorted_level_fails(self):
        lvl = Level(index=0, capacity=4)
        lvl.fill(ENC.encode(np.array([4, 2, 3, 1], dtype=np.uint32), 1), None)
        with pytest.raises(InvariantViolation, match="not sorted"):
            check_level_invariants(lvl, ENC)

    def test_wrong_occupancy_fails(self):
        lvl = Level(index=0, capacity=4)
        # Bypass fill() to simulate a corrupted level.
        lvl.run = SortedRun(ENC.encode(np.array([1, 2, 3], dtype=np.uint32), 1))
        with pytest.raises(InvariantViolation, match="expected"):
            check_level_invariants(lvl, ENC)

    def test_value_length_mismatch_fails(self):
        lvl = Level(index=0, capacity=2)
        lvl.run = SortedRun(
            ENC.encode(np.array([1, 2], dtype=np.uint32), 1),
            np.array([5, 6], dtype=np.uint32),
        )
        # Corrupt the (frozen) run behind the constructor's validation.
        object.__setattr__(lvl.run, "values", np.array([5], dtype=np.uint32))
        with pytest.raises(InvariantViolation, match="values"):
            check_level_invariants(lvl, ENC)

    def test_equal_keys_different_status_allowed(self):
        lvl = Level(index=0, capacity=2)
        words = np.array([ENC.encode_scalar(7, 0), ENC.encode_scalar(7, 1)],
                         dtype=np.uint32)
        lvl.fill(words, None)
        check_level_invariants(lvl, ENC)


class TestLSMInvariants:
    def test_valid_structure_passes(self, device, rng):
        lsm = GPULSM(config=LSMConfig(batch_size=8), device=device)
        for _ in range(5):
            lsm.insert(rng.integers(0, 1000, 8, dtype=np.uint32),
                       rng.integers(0, 100, 8, dtype=np.uint32))
        check_lsm_invariants(lsm)

    def test_corrupted_occupancy_detected(self, device, rng):
        lsm = GPULSM(config=LSMConfig(batch_size=8), device=device)
        lsm.insert(rng.integers(0, 1000, 8, dtype=np.uint32),
                   rng.integers(0, 100, 8, dtype=np.uint32))
        lsm.num_batches = 2  # lie about the resident count
        with pytest.raises(InvariantViolation, match="binary representation"):
            check_lsm_invariants(lsm)

    def test_corrupted_level_content_detected(self, device, rng):
        lsm = GPULSM(config=LSMConfig(batch_size=8), device=device)
        lsm.insert(rng.integers(0, 1000, 8, dtype=np.uint32),
                   rng.integers(0, 100, 8, dtype=np.uint32))
        lsm.levels[0].run = SortedRun(
            lsm.levels[0].keys[::-1].copy(), lsm.levels[0].values
        )
        with pytest.raises(InvariantViolation):
            check_lsm_invariants(lsm)

    def test_empty_lsm_passes(self, device):
        lsm = GPULSM(config=LSMConfig(batch_size=8), device=device)
        check_lsm_invariants(lsm)

    def test_validate_invariants_flag_runs_checker(self, device, rng):
        # With validation enabled a corrupted structure is detected on the
        # next update.  The corrupted level must be one that update does
        # not consume: a sort-based merge *repairs* an unsorted level on the
        # way through (unsorted merge input is undefined, not propagated).
        # After two batches level 1 is full and level 0 empty, so the third
        # insert only stores into level 0 and the checker must flag level 1.
        lsm = GPULSM(config=LSMConfig(batch_size=8, validate_invariants=True),
                     device=device)
        for _ in range(2):
            lsm.insert(rng.integers(0, 1000, 8, dtype=np.uint32),
                       rng.integers(0, 100, 8, dtype=np.uint32))
        assert lsm.levels[0].is_empty and lsm.levels[1].is_full
        lsm.levels[1].run = SortedRun(
            lsm.levels[1].keys[::-1].copy(), lsm.levels[1].values
        )
        with pytest.raises(InvariantViolation, match="level 1 is not sorted"):
            lsm.insert(rng.integers(0, 1000, 8, dtype=np.uint32),
                       rng.integers(0, 100, 8, dtype=np.uint32))
