"""Workload generators for the evaluation experiments.

The paper's experiments use uniformly random 32-bit keys ("We randomly
generate n = 2^27 elements"), lookup query populations in which either none
or all of the queried keys exist (Table III), and count/range queries whose
argument ``(k1, k2)`` has an *expected* number of matching keys ``L``
(Table IV uses L = 8 and L = 1024).  These generators reproduce those
distributions deterministically from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Tuple

import numpy as np

from repro.api.ops import OpBatch, OpCode
from repro.core.encoding import MAX_KEY


@dataclass(frozen=True)
class WorkloadConfig:
    """Description of one generated workload.

    Attributes
    ----------
    num_elements:
        Number of key/value pairs in the dataset.
    key_space:
        Keys are drawn uniformly from ``[0, key_space)``.  Defaults to the
        full 31-bit original-key domain minus a small guard band reserved
        for guaranteed-missing query keys.
    unique:
        When true the generated keys are distinct (the paper's insertion
        experiments effectively operate on unique random keys because
        duplicates in a 2^27 sample of a 2^31 space are rare; tests that
        depend on exact counts require uniqueness).
    seed:
        RNG seed.
    """

    num_elements: int
    key_space: int = MAX_KEY - (1 << 20)
    unique: bool = True
    seed: int = 0xC0FFEE

    def __post_init__(self) -> None:
        if self.num_elements <= 0:
            raise ValueError("num_elements must be positive")
        if self.key_space <= 1 or self.key_space > MAX_KEY:
            raise ValueError("key_space must be in (1, MAX_KEY]")
        if self.unique and self.num_elements > self.key_space:
            raise ValueError("cannot draw that many unique keys from the key space")


@dataclass
class Workload:
    """A generated dataset plus query populations derived from it."""

    config: WorkloadConfig
    keys: np.ndarray
    values: np.ndarray

    @property
    def num_elements(self) -> int:
        return int(self.keys.size)

    # ------------------------------------------------------------------ #
    # Query populations (Table III scenarios)
    # ------------------------------------------------------------------ #
    def existing_queries(self, count: int, seed: int = 1) -> np.ndarray:
        """``count`` query keys drawn from the dataset ("all exist")."""
        rng = np.random.default_rng(self.config.seed + seed)
        idx = rng.integers(0, self.keys.size, count)
        return self.keys[idx]

    def missing_queries(self, count: int, seed: int = 2) -> np.ndarray:
        """``count`` query keys guaranteed absent from the dataset.

        Missing keys are drawn from the guard band above ``key_space`` that
        :class:`WorkloadConfig` reserves, so no membership check is needed.
        """
        rng = np.random.default_rng(self.config.seed + seed)
        low = self.config.key_space
        high = MAX_KEY + 1
        return rng.integers(low, high, count, dtype=np.uint64).astype(np.uint32)

    def range_queries(
        self, count: int, expected_width: int, seed: int = 3
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Range arguments ``(k1, k2)`` with an expected ``L`` matches each.

        With ``num_elements`` keys uniform over ``key_space``, a key-space
        window of width ``expected_width * key_space / num_elements``
        contains ``expected_width`` keys in expectation — the construction
        the paper's Table IV uses for L = 8 and L = 1024.
        """
        if expected_width <= 0:
            raise ValueError("expected_width must be positive")
        rng = np.random.default_rng(self.config.seed + seed)
        window = max(1, int(round(expected_width * self.config.key_space
                                  / self.num_elements)))
        # A very wide target on a small dataset can ask for a window larger
        # than the key space itself; clamp so the bounds stay inside the
        # 31-bit original-key domain (the query then simply covers
        # everything, which is the correct degenerate behaviour).
        window = min(window, self.config.key_space - 1)
        max_start = max(1, self.config.key_space - window)
        k1 = rng.integers(0, max_start, count, dtype=np.uint64).astype(np.uint32)
        k2 = np.minimum(k1.astype(np.uint64) + window,
                        MAX_KEY).astype(np.uint32)
        return k1, k2

    # ------------------------------------------------------------------ #
    # Batch views
    # ------------------------------------------------------------------ #
    def batches(self, batch_size: int):
        """Yield ``(keys, values)`` slices of ``batch_size`` elements.

        The trailing partial batch, if any, is dropped — the insertion
        experiments operate on whole batches only, like the paper's.
        """
        full = (self.num_elements // batch_size) * batch_size
        for start in range(0, full, batch_size):
            stop = start + batch_size
            yield self.keys[start:stop], self.values[start:stop]


#: Default operation mix of the mixed-op serving workload: update-heavy
#: like the paper's insertion experiments but with every query kind
#: present, the traffic shape a dictionary front-end actually receives.
DEFAULT_OP_MIX: Mapping[OpCode, float] = {
    OpCode.INSERT: 0.45,
    OpCode.DELETE: 0.10,
    OpCode.LOOKUP: 0.30,
    OpCode.COUNT: 0.075,
    OpCode.RANGE: 0.075,
}


@dataclass(frozen=True)
class MixedOpConfig:
    """Description of one generated mixed-operation stream.

    Attributes
    ----------
    num_ops:
        Total operations across all ticks (trailing partial tick dropped,
        like :meth:`Workload.batches`).
    tick_size:
        Operations per :class:`~repro.api.ops.OpBatch` tick.
    mix:
        Relative weight per opcode (normalised internally).
    key_space:
        Keys are drawn uniformly from ``[0, key_space)``.
    expected_range_width:
        Target expected matches per COUNT/RANGE query, sized against the
        workload's expected live population (like Table IV's ``L``).
    hot_key_count / hot_fraction:
        Optional skew for LOOKUP traffic: when both are positive, a
        deterministic hot set of ``hot_key_count`` keys is derived from
        the seed and each LOOKUP independently draws its key from that
        set with probability ``hot_fraction`` (uniform over the key space
        otherwise).  **Default-off is bit-exact**: with the knobs at
        their defaults no extra RNG draws happen, so pre-existing
        configs generate the identical stream they always did.
    zipf_theta / zipf_key_count:
        Optional Zipf(theta) skew for the *point-keyed* operations
        (INSERT / DELETE / LOOKUP): when ``zipf_theta > 0``, a support of
        ``zipf_key_count`` keys spread evenly across the key space is
        ranked by popularity and each point operation draws rank ``r``
        with probability proportional to ``r**-theta`` — keyspace skew a
        range-sharded front-end actually feels (rank 1's neighbourhood is
        a hot *range*, not just a hot key).  COUNT/RANGE windows are
        untouched.  Same default-off bit-exactness contract as the
        hot-key knobs.
    seed:
        RNG seed.
    """

    num_ops: int
    tick_size: int
    mix: Mapping[OpCode, float] = field(
        default_factory=lambda: dict(DEFAULT_OP_MIX)
    )
    key_space: int = MAX_KEY - (1 << 20)
    expected_range_width: int = 8
    hot_key_count: int = 0
    hot_fraction: float = 0.0
    zipf_theta: float = 0.0
    zipf_key_count: int = 0
    #: The single top-level seed of the whole workload.  Every random
    #: stream any consumer derives — the per-tick operation draws, a
    #: benchmark's arrival-time process — comes from this one value via
    #: :func:`derived_rng` / per-tick seed children, which is what makes a
    #: multi-batch serving workload reproducible end to end.
    seed: int = 0xC0FFEE

    def __post_init__(self) -> None:
        if self.num_ops <= 0 or self.tick_size <= 0:
            raise ValueError("num_ops and tick_size must be positive")
        if self.key_space <= 1 or self.key_space > MAX_KEY:
            raise ValueError("key_space must be in (1, MAX_KEY]")
        weights = dict(self.mix)
        if any(w < 0 for w in weights.values()) or sum(weights.values()) <= 0:
            raise ValueError("mix weights must be non-negative, sum positive")
        if self.hot_key_count < 0:
            raise ValueError("hot_key_count must be non-negative")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if self.hot_fraction > 0 and self.hot_key_count == 0:
            raise ValueError("hot_fraction > 0 requires hot_key_count > 0")
        if self.zipf_theta < 0:
            raise ValueError("zipf_theta must be non-negative")
        if self.zipf_key_count < 0:
            raise ValueError("zipf_key_count must be non-negative")
        if self.zipf_theta > 0 and not 2 <= self.zipf_key_count <= self.key_space:
            raise ValueError(
                "zipf_theta > 0 requires 2 <= zipf_key_count <= key_space"
            )

    @property
    def hot_keys_enabled(self) -> bool:
        return self.hot_key_count > 0 and self.hot_fraction > 0.0

    @property
    def zipf_enabled(self) -> bool:
        return self.zipf_theta > 0.0 and self.zipf_key_count >= 2


def derived_rng(seed: int, *stream: int) -> np.random.Generator:
    """An independent RNG stream derived from one top-level seed.

    Consumers that need extra randomness *alongside* a generated workload
    (a hot-key set, arrival times, a stress test's client interleaving)
    derive it with a distinct ``stream`` tag instead of inventing their
    own seed defaults — drawing from a derived stream can
    never perturb the operation stream itself, so the whole multi-batch
    workload stays reproducible from the single ``MixedOpConfig.seed``.
    """
    entropy = [int(seed), *[int(s) for s in stream]]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def make_mixed_batches(config: MixedOpConfig) -> List[OpBatch]:
    """Generate the mixed-operation tick stream described by ``config``.

    Every tick is one columnar :class:`~repro.api.ops.OpBatch` of
    ``tick_size`` operations with opcodes drawn from the mix, keys uniform
    over the key space, and COUNT/RANGE windows sized so the expected
    number of matches is ``expected_range_width`` against the stream's
    expected live population.

    **Determinism guarantee.**  The whole stream is a pure function of the
    config: tick ``i`` is drawn from its own child of
    ``SeedSequence(config.seed)``, so two calls with equal configs yield
    identical streams element for element, and no other consumer of the
    top-level seed (see :func:`derived_rng`) can perturb the operations.
    There are no per-call seed parameters to fall out of sync.  The
    hot-key knobs keep the guarantee: the hot set comes from its own
    :func:`derived_rng` stream and the per-tick hot draws only happen when
    the knobs are on, so default-config streams are bit-identical to what
    they were before the knobs existed.
    """
    codes = np.array(sorted(config.mix), dtype=np.uint8)
    weights = np.array([config.mix[OpCode(c)] for c in codes], dtype=np.float64)
    weights /= weights.sum()

    # Expected live population: the insert share of the stream (duplicate
    # draws are rare for the default 31-bit key space, exactly like the
    # paper's insertion workloads).
    expected_live = max(1, int(config.num_ops * weights[codes == OpCode.INSERT].sum()))
    window = max(
        1,
        int(round(config.expected_range_width * config.key_space / expected_live)),
    )
    window = min(window, config.key_space - 1)

    hot_keys = hot_key_set(config)
    zipf_cdf = None
    zipf_stride = 0
    if config.zipf_enabled:
        # Popularity rank r (0-based) has probability ∝ (r + 1)**-theta;
        # rank r maps to key r * stride, so rank skew becomes *keyspace*
        # skew: the popular head occupies one contiguous low range.
        ranks = np.arange(1, config.zipf_key_count + 1, dtype=np.float64)
        pmf = ranks ** -config.zipf_theta
        zipf_cdf = np.cumsum(pmf / pmf.sum())
        zipf_stride = max(1, config.key_space // config.zipf_key_count)

    num_ticks = config.num_ops // config.tick_size
    tick_seeds = np.random.SeedSequence(config.seed).spawn(num_ticks)
    batches: List[OpBatch] = []
    for tick_seed in tick_seeds:
        rng = np.random.default_rng(tick_seed)
        n = config.tick_size
        opcodes = rng.choice(codes, size=n, p=weights).astype(np.uint8)
        keys = rng.integers(0, config.key_space, n, dtype=np.uint64)
        values = rng.integers(0, 1 << 31, n, dtype=np.uint64)
        values[opcodes != OpCode.INSERT] = 0
        range_ends = np.zeros(n, dtype=np.uint64)
        is_range = (opcodes == OpCode.COUNT) | (opcodes == OpCode.RANGE)
        if np.any(is_range):
            k1 = rng.integers(
                0,
                max(1, config.key_space - window),
                int(is_range.sum()),
                dtype=np.uint64,
            )
            keys[is_range] = k1
            range_ends[is_range] = np.minimum(k1 + window, MAX_KEY)
        if zipf_cdf is not None:
            # Drawn after the base columns, so a config with the knob off
            # generates the identical stream it always did.  Point
            # operations only: range windows keep their uniform starts.
            point_pos = np.flatnonzero(~is_range)
            if point_pos.size:
                r = np.searchsorted(
                    zipf_cdf, rng.random(point_pos.size), side="right"
                )
                keys[point_pos] = (r * zipf_stride).astype(np.uint64)
        if hot_keys is not None:
            # Drawn last, so every non-LOOKUP column of the tick is
            # bit-identical to the same config with the knobs off.
            lookup_pos = np.flatnonzero(opcodes == OpCode.LOOKUP)
            if lookup_pos.size:
                goes_hot = rng.random(lookup_pos.size) < config.hot_fraction
                picks = rng.integers(0, hot_keys.size, lookup_pos.size)
                hot_pos = lookup_pos[goes_hot]
                keys[hot_pos] = hot_keys[picks[goes_hot]]
        batches.append(OpBatch(opcodes, keys, values, range_ends))
    return batches


#: Stream tag of the hot-key set (see :func:`derived_rng`).
_HOT_KEY_STREAM = 0x484F54  # "HOT"


def hot_key_set(config: MixedOpConfig):
    """The workload's deterministic hot-key set, or ``None`` when the
    hot-key knobs are off.

    Derived from the top-level seed on its own stream, so benchmarks can
    pre-insert the hot set (making hot lookups actual hits) without
    perturbing the operation stream.
    """
    if not config.hot_keys_enabled:
        return None
    rng = derived_rng(config.seed, _HOT_KEY_STREAM)
    return rng.integers(0, config.key_space, config.hot_key_count, dtype=np.uint64)


def make_workload(config: WorkloadConfig) -> Workload:
    """Generate the dataset described by ``config``."""
    rng = np.random.default_rng(config.seed)
    if config.unique:
        # Sampling without replacement from a huge space: draw extra keys,
        # deduplicate, top up until the target count is reached.
        needed = config.num_elements
        chunks = []
        seen_total = 0
        while seen_total < needed:
            draw = rng.integers(
                0, config.key_space, int(needed * 1.1) + 16, dtype=np.uint64
            )
            chunks.append(draw)
            merged = np.unique(np.concatenate(chunks))
            seen_total = merged.size
        keys = rng.permutation(merged)[:needed].astype(np.uint32)
    else:
        keys = rng.integers(0, config.key_space, config.num_elements, dtype=np.uint64)
        keys = keys.astype(np.uint32)
    values = rng.integers(0, 1 << 31, config.num_elements, dtype=np.uint32)
    return Workload(config=config, keys=keys, values=values)
