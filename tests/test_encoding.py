"""Unit tests for the key encoding (repro.core.encoding)."""

import numpy as np
import pytest

from repro.core.encoding import (
    DEFAULT_ENCODER,
    KeyEncoder,
    MAX_KEY,
    STATUS_REGULAR,
    STATUS_TOMBSTONE,
)


class TestScalarEncoding:
    def test_roundtrip_regular(self):
        word = DEFAULT_ENCODER.encode_scalar(12345, STATUS_REGULAR)
        key, status = DEFAULT_ENCODER.decode_scalar(word)
        assert key == 12345 and status == STATUS_REGULAR

    def test_roundtrip_tombstone(self):
        word = DEFAULT_ENCODER.encode_scalar(12345, STATUS_TOMBSTONE)
        key, status = DEFAULT_ENCODER.decode_scalar(word)
        assert key == 12345 and status == STATUS_TOMBSTONE

    def test_tombstone_sorts_before_regular_of_same_key(self):
        t = DEFAULT_ENCODER.encode_scalar(99, STATUS_TOMBSTONE)
        r = DEFAULT_ENCODER.encode_scalar(99, STATUS_REGULAR)
        assert t < r

    def test_different_keys_order_dominates_status(self):
        r_small = DEFAULT_ENCODER.encode_scalar(10, STATUS_REGULAR)
        t_large = DEFAULT_ENCODER.encode_scalar(11, STATUS_TOMBSTONE)
        assert r_small < t_large

    def test_max_key_is_31_bits(self):
        assert DEFAULT_ENCODER.max_key == MAX_KEY == (1 << 31) - 1
        DEFAULT_ENCODER.encode_scalar(MAX_KEY, STATUS_REGULAR)  # must not raise

    def test_key_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_ENCODER.encode_scalar(1 << 31, STATUS_REGULAR)
        with pytest.raises(ValueError):
            DEFAULT_ENCODER.encode_scalar(-1, STATUS_REGULAR)

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_ENCODER.encode_scalar(1, 2)

    def test_placebo_word_is_max_key_tombstone(self):
        word = DEFAULT_ENCODER.placebo_word
        key, status = DEFAULT_ENCODER.decode_scalar(word)
        assert key == MAX_KEY
        assert status == STATUS_TOMBSTONE


class TestVectorEncoding:
    def test_roundtrip_array(self, rng):
        keys = rng.integers(0, MAX_KEY, 1000, dtype=np.uint32)
        statuses = rng.integers(0, 2, 1000).astype(np.uint8)
        words = DEFAULT_ENCODER.encode(keys, statuses)
        assert np.array_equal(DEFAULT_ENCODER.decode_key(words), keys)
        assert np.array_equal(DEFAULT_ENCODER.decode_status(words), statuses)

    def test_scalar_status_broadcast(self, rng):
        keys = rng.integers(0, 1000, 64, dtype=np.uint32)
        words = DEFAULT_ENCODER.encode(keys, STATUS_TOMBSTONE)
        assert np.all(DEFAULT_ENCODER.is_tombstone(words))

    def test_is_regular_complement_of_is_tombstone(self, rng):
        keys = rng.integers(0, 1000, 64, dtype=np.uint32)
        statuses = rng.integers(0, 2, 64).astype(np.uint8)
        words = DEFAULT_ENCODER.encode(keys, statuses)
        assert np.array_equal(
            DEFAULT_ENCODER.is_regular(words), ~DEFAULT_ENCODER.is_tombstone(words)
        )

    def test_out_of_domain_array_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_ENCODER.encode(np.array([1 << 31], dtype=np.uint64), 1)

    def test_mismatched_status_shape_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_ENCODER.encode(np.array([1, 2], dtype=np.uint32),
                                   np.array([1, 0, 1]))

    def test_bad_status_values_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_ENCODER.encode(np.array([1], dtype=np.uint32), np.array([3]))

    def test_encoded_dtype_matches_config(self):
        words = DEFAULT_ENCODER.encode(np.array([1], dtype=np.uint32), 1)
        assert words.dtype == np.uint32


class TestQueryProbes:
    def test_lower_probe_below_all_words_of_key(self):
        k = 1234
        probe = int(DEFAULT_ENCODER.lower_probe(np.array([k]))[0])
        assert probe <= DEFAULT_ENCODER.encode_scalar(k, STATUS_TOMBSTONE)
        assert probe <= DEFAULT_ENCODER.encode_scalar(k, STATUS_REGULAR)
        assert probe > DEFAULT_ENCODER.encode_scalar(k - 1, STATUS_REGULAR)

    def test_upper_probe_above_all_words_of_key(self):
        k = 1234
        probe = int(DEFAULT_ENCODER.upper_probe(np.array([k]))[0])
        assert probe >= DEFAULT_ENCODER.encode_scalar(k, STATUS_REGULAR)
        assert probe < DEFAULT_ENCODER.encode_scalar(k + 1, STATUS_TOMBSTONE)

    def test_strip_status_matches_decode_key(self, rng):
        keys = rng.integers(0, 1000, 32, dtype=np.uint32)
        words = DEFAULT_ENCODER.encode(keys, 1)
        assert np.array_equal(DEFAULT_ENCODER.strip_status(words),
                              DEFAULT_ENCODER.decode_key(words))


class Test64BitEncoder:
    def test_wider_domain(self):
        enc = KeyEncoder(np.dtype(np.uint64))
        assert enc.max_key == (1 << 63) - 1
        word = enc.encode_scalar(enc.max_key, STATUS_REGULAR)
        key, status = enc.decode_scalar(word)
        assert key == enc.max_key and status == STATUS_REGULAR

    def test_rejects_signed_dtype(self):
        with pytest.raises(TypeError):
            KeyEncoder(np.dtype(np.int32))

    def test_key_bits(self):
        assert KeyEncoder(np.dtype(np.uint32)).key_bits == 32
        assert KeyEncoder(np.dtype(np.uint64)).key_bits == 64


class TestRangeArgs:
    def test_accepts_aligned_in_domain_bounds(self):
        k1, k2 = DEFAULT_ENCODER.check_range_args([1, 5], [1, MAX_KEY])
        assert list(k1) == [1, 5] and list(k2) == [1, MAX_KEY]
        assert DEFAULT_ENCODER.check_range_args([], [])[0].size == 0

    @pytest.mark.parametrize(
        "k1,k2,message",
        [
            ([[1]], [[2]], "one-dimensional and equally long"),
            ([1, 2], [3], "one-dimensional and equally long"),
            ([5], [4], "k1 <= k2"),
            ([-1], [4], "range bounds must be non-negative"),
            ([1], [MAX_KEY + 1], "range bounds exceed the 31-bit"),
        ],
    )
    def test_every_range_surface_rejects_alike(self, k1, k2, message):
        from repro.core.lsm import GPULSM
        from repro.scale import ShardedLSM

        sharded = ShardedLSM(2, batch_size=4)
        for check in (
            DEFAULT_ENCODER.check_range_args,
            GPULSM(batch_size=4).count,
            GPULSM(batch_size=4).range_query,
            sharded.count,
            sharded.range_query,
        ):
            with pytest.raises(ValueError, match=message):
                check(np.array(k1), np.array(k2))
