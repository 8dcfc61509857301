"""Key encoding: 31-bit key + 1 status bit.

Section IV-A: "we dedicate one bit as a flag; we refer to this bit as the
status bit.  The 32-bit key variable is the 31-bit original key shifted once
and placed next to the status bit.  The cost of this decision is that we
lose one bit in the key domain."

A *tombstone* carries a **zero** LSB and a regular element a **one** LSB, so
that a full-word radix sort of a batch places the tombstone for a key ahead
of any regular element with the same key — which is what makes rule 6 of the
batch semantics ("a key inserted and deleted within the same batch is
considered deleted") fall out of the sort itself.

The encoder is dtype-generic (the library defaults to the paper's 32-bit
keys but also supports 64-bit keys with a 63-bit domain, used by some
examples); all operations are vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

#: Status-bit value of a regular (inserted) element.
STATUS_REGULAR = 1
#: Status-bit value of a tombstone (deletion marker).
STATUS_TOMBSTONE = 0

#: Largest storable original key in the default 32-bit configuration.
MAX_KEY = (1 << 31) - 1


@dataclass(frozen=True)
class KeyEncoder:
    """Packs original keys and status bits into single sortable words.

    Parameters
    ----------
    key_dtype:
        Unsigned dtype of the stored (encoded) key word; ``uint32`` for the
        paper's configuration, ``uint64`` for the extended key domain.
    """

    key_dtype: np.dtype = np.dtype(np.uint32)

    def __post_init__(self) -> None:
        dtype = np.dtype(self.key_dtype)
        if dtype.kind != "u":
            raise TypeError("key_dtype must be an unsigned integer dtype")
        object.__setattr__(self, "key_dtype", dtype)

    # ------------------------------------------------------------------ #
    # Domain properties
    # ------------------------------------------------------------------ #
    @property
    def key_bits(self) -> int:
        """Total bits in the encoded word (32 or 64)."""
        return self.key_dtype.itemsize * 8

    @property
    def max_key(self) -> int:
        """Largest encodable original key (one bit is spent on the status)."""
        return (1 << (self.key_bits - 1)) - 1

    @property
    def placebo_word(self) -> int:
        """Encoded word used for cleanup padding: a tombstone of the maximum
        key, guaranteed to sort last and stay invisible to queries
        (Section IV-E, footnote 5)."""
        return self.encode_scalar(self.max_key, STATUS_TOMBSTONE)

    # ------------------------------------------------------------------ #
    # Scalar helpers (used by tests and the reference model)
    # ------------------------------------------------------------------ #
    def encode_scalar(self, key: int, status: int) -> int:
        """Encode one key/status pair into an integer word."""
        if not 0 <= key <= self.max_key:
            raise ValueError(f"key {key} outside the {self.key_bits - 1}-bit domain")
        if status not in (STATUS_REGULAR, STATUS_TOMBSTONE):
            raise ValueError("status must be STATUS_REGULAR or STATUS_TOMBSTONE")
        return (key << 1) | status

    def decode_scalar(self, word: int) -> Tuple[int, int]:
        """Decode one word into ``(original_key, status)``."""
        return word >> 1, word & 1

    # ------------------------------------------------------------------ #
    # Vectorised encode / decode
    # ------------------------------------------------------------------ #
    def encode(
        self, keys: np.ndarray, status: Union[int, np.ndarray]
    ) -> np.ndarray:
        """Encode an array of original keys with a scalar or per-key status."""
        keys = np.asarray(keys)
        if keys.size and (
            keys.min() < 0 or int(keys.max()) > self.max_key
        ):
            raise ValueError(
                f"keys outside the {self.key_bits - 1}-bit original-key domain"
            )
        words = keys.astype(self.key_dtype) << self.key_dtype.type(1)
        status_arr = np.asarray(status, dtype=self.key_dtype)
        if status_arr.ndim not in (0, 1):
            raise ValueError("status must be a scalar or a 1-D array")
        if status_arr.ndim == 1 and status_arr.shape != keys.shape:
            raise ValueError("per-key status must match keys in shape")
        if status_arr.size and (
            np.any(status_arr > 1)
        ):
            raise ValueError("status values must be 0 (tombstone) or 1 (regular)")
        return words | status_arr

    def decode_key(self, words: np.ndarray) -> np.ndarray:
        """Original keys of an encoded word array."""
        words = np.asarray(words, dtype=self.key_dtype)
        return words >> self.key_dtype.type(1)

    def decode_status(self, words: np.ndarray) -> np.ndarray:
        """Status bits (1 = regular, 0 = tombstone) of an encoded word array."""
        words = np.asarray(words, dtype=self.key_dtype)
        return (words & self.key_dtype.type(1)).astype(np.uint8)

    def is_tombstone(self, words: np.ndarray) -> np.ndarray:
        """Boolean mask of tombstone words."""
        return self.decode_status(words) == STATUS_TOMBSTONE

    def is_regular(self, words: np.ndarray) -> np.ndarray:
        """Boolean mask of regular (non-tombstone) words."""
        return self.decode_status(words) == STATUS_REGULAR

    # ------------------------------------------------------------------ #
    # Query-boundary helpers
    # ------------------------------------------------------------------ #
    def lower_probe(self, keys: np.ndarray) -> np.ndarray:
        """Encoded word to use as a *lower bound* probe for original keys.

        ``(k << 1) | 0`` is ≤ every stored word with original key ``k``
        (tombstone or regular), so a lower-bound search with this probe over
        encoded words finds the first element whose original key is ≥ k.
        """
        keys = np.asarray(keys)
        return keys.astype(self.key_dtype) << self.key_dtype.type(1)

    def upper_probe(self, keys: np.ndarray) -> np.ndarray:
        """Encoded word to use as an *upper bound* probe for original keys.

        ``(k << 1) | 1`` is ≥ every stored word with original key ``k``, so
        an upper-bound (right-sided) search with this probe finds the first
        element whose original key is > k.
        """
        keys = np.asarray(keys)
        return (keys.astype(self.key_dtype) << self.key_dtype.type(1)) | self.key_dtype.type(1)

    def strip_status(self, words: np.ndarray) -> np.ndarray:
        """Comparison-key extractor passed to the merge primitives
        (``x >> 1`` — Fig. 3 line 14)."""
        return self.decode_key(words)

    def check_query_keys(self, keys: np.ndarray, what: str = "query keys") -> np.ndarray:
        """Validate a batch of original query keys against this encoder.

        The shared up-front check of every query surface (GPU LSM, sharded
        front-end, sorted array): negative keys are rejected — they cannot
        exist in the dictionary and would silently wrap when encoded into
        an unsigned probe word — as are keys above the encoder's domain.
        """
        keys = check_non_negative(keys, what)
        if keys.size and int(keys.max()) > self.max_key:
            raise ValueError(
                f"{what} exceed the {self.key_bits - 1}-bit original-key domain"
            )
        return keys

    def check_range_args(
        self, k1: np.ndarray, k2: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Validate the bounds of a batch of COUNT / RANGE queries: aligned
        one-dimensional arrays of in-domain keys with ``k1 <= k2``
        throughout.  Returns them as arrays."""
        k1 = np.asarray(k1)
        k2 = np.asarray(k2)
        if k1.ndim != 1 or k2.shape != k1.shape:
            raise ValueError("k1 and k2 must be one-dimensional and equally long")
        if k1.size:
            self.check_query_keys(k1, "range bounds")
            self.check_query_keys(k2, "range bounds")
            if np.any(k2 < k1):
                raise ValueError("every range must satisfy k1 <= k2")
        return k1, k2


def check_non_negative(keys: np.ndarray, what: str = "keys") -> np.ndarray:
    """Reject negative key arrays before any cast to an unsigned dtype.

    Shared by the encoder's domain check and by structures without a
    31-bit domain (the cuckoo hash table stores raw uint64 keys): a
    negative key would wrap into a huge unsigned word and silently probe
    for an unrelated key instead of failing loudly.
    """
    keys = np.asarray(keys)
    # No int() truncation here: a fractional key in (-1, 0) would round to
    # 0 and slip through, which is exactly the silent-wrap class of bug
    # this check exists to close.
    if keys.size and keys.dtype.kind not in "ub" and keys.min() < 0:
        raise ValueError(
            f"{what} must be non-negative: negative keys cannot exist in "
            "the dictionary and would wrap when cast to an unsigned key word"
        )
    return keys


#: Encoder instance for the paper's default 32-bit configuration.
DEFAULT_ENCODER = KeyEncoder(np.dtype(np.uint32))
