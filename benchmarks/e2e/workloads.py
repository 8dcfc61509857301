"""The six workloads of the end-to-end benchmark.

Each workload is a fixed store/engine configuration plus a tick stream that
is a pure function of ``--seed``.  The names are a contract: later issues
say "``mixed_gpulsm`` ``ops_per_s`` moved" and must mean this definition.
Every workload is closed loop: the caller hands over one batch and waits
for its answers (``threaded_gpulsm`` keeps two batches outstanding).

Only public entry points of ``repro`` are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.api.ops import OpBatch, OpCode
from repro.bench.runner import PAPER_INSERTION_ELEMENTS, scaled_spec
from repro.bench.wallclock import make_prefill
from repro.bench.workloads import MixedOpConfig, hot_key_set, make_mixed_batches
from repro.core.config import LSMConfig
from repro.core.lsm import GPULSM
from repro.core.maintenance import AnyOf, LevelCountPolicy, StaleFractionPolicy
from repro.durability import DurabilityConfig, EveryNTicks
from repro.gpu.device import Device
from repro.scale.rebalance import LoadImbalancePolicy
from repro.scale.sharded import ShardedLSM
from repro.serve.resilience import ResilienceConfig

#: Simulated device of every workload (launch overhead scaled to 2^16
#: elements, as the repository's other serving experiments do).
SPEC = scaled_spec(1 << 16, PAPER_INSERTION_ELEMENTS)

#: 127 = 0b1111111 prefill batches leave seven occupied levels.
PREFILL_BATCHES = 127
CACHE_CAPACITY = 4096
FSYNC_EVERY_N_TICKS = 8

READ_MOSTLY_MIX = {
    OpCode.INSERT: 0.20,
    OpCode.DELETE: 0.05,
    OpCode.LOOKUP: 0.60,
    OpCode.COUNT: 0.075,
    OpCode.RANGE: 0.075,
}
UPDATE_ONLY_MIX = {OpCode.INSERT: 0.8, OpCode.DELETE: 0.2}

#: ``read_hot_cached`` runs cycles of 15 lookup-only ticks and 1 update tick.
HOT_CYCLE = 16
HOT_KEY_COUNT = 2048
HOT_FRACTION = 0.9

Prefill = List[Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Sizes:
    """Stream sizes; ``--smoke`` shrinks them, nothing else does."""

    ticks: int
    prefill_batches: int = PREFILL_BATCHES


def mixed_stream(seed: int, tick: int, sizes: Sizes) -> Tuple[Prefill, List[OpBatch]]:
    """The paper's regime: the default update-heavy mix over uniform keys."""
    batches = make_mixed_batches(
        MixedOpConfig(
            num_ops=sizes.ticks * tick, tick_size=tick, seed=seed,
            expected_range_width=8,
        )
    )
    return make_prefill(tick, sizes.prefill_batches), batches


def hot_read_stream(seed: int, tick: int, sizes: Sizes) -> Tuple[Prefill, List[OpBatch]]:
    """Lookup ticks over a prefilled hot set, with a periodic update tick."""
    cycles = sizes.ticks // HOT_CYCLE
    lookups = MixedOpConfig(
        num_ops=cycles * (HOT_CYCLE - 1) * tick, tick_size=tick, seed=seed + 1,
        mix={OpCode.LOOKUP: 1.0},
        hot_key_count=HOT_KEY_COUNT, hot_fraction=HOT_FRACTION,
    )
    updates = MixedOpConfig(
        num_ops=cycles * tick, tick_size=tick, seed=seed + 2, mix=UPDATE_ONLY_MIX,
    )
    reads, writes = make_mixed_batches(lookups), make_mixed_batches(updates)
    batches: List[OpBatch] = []
    for c in range(cycles):
        batches += reads[c * (HOT_CYCLE - 1) : (c + 1) * (HOT_CYCLE - 1)]
        batches.append(writes[c])
    prefill = make_prefill(tick, sizes.prefill_batches, hot_keys=hot_key_set(lookups))
    return prefill, batches


def zipf_stream(seed: int, tick: int, sizes: Sizes) -> Tuple[Prefill, List[OpBatch]]:
    """Read-mostly mix whose point keys are Zipf(1.0) over 1024 keys."""
    batches = make_mixed_batches(
        MixedOpConfig(
            num_ops=sizes.ticks * tick, tick_size=tick, seed=seed,
            mix=READ_MOSTLY_MIX, expected_range_width=8,
            zipf_theta=1.0, zipf_key_count=1024,
        )
    )
    return make_prefill(tick, sizes.prefill_batches), batches


def plain_gpulsm(tick: int):
    return GPULSM(batch_size=tick, device=Device(SPEC, seed=1))


def filtered_gpulsm(tick: int):
    config = LSMConfig(batch_size=tick, enable_fences=True, bloom_bits_per_key=10)
    return GPULSM(config=config, device=Device(SPEC, seed=1))


def plain_sharded4(tick: int):
    return ShardedLSM(4, batch_size=tick, spec=SPEC, seed=1)


def full_sharded4(tick: int):
    return ShardedLSM(
        4, batch_size=tick, spec=SPEC, seed=1,
        enable_fences=True, bloom_bits_per_key=10,
        maintenance_policy=AnyOf(LevelCountPolicy(8), StaleFractionPolicy(0.5)),
        rebalance_policy=LoadImbalancePolicy(
            imbalance_threshold=1.5, min_traffic=1024, cooldown_ticks=16
        ),
        max_shards=8,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tick: int
    ticks: int
    stream: Callable[[int, int, Sizes], Tuple[Prefill, List[OpBatch]]]
    backend: Callable[[int], object]
    cache: bool = False
    #: Durability + resilience + recovery after the run (the full stack).
    durable: bool = False
    #: Through admission, scheduler and executor threads instead of ``apply``.
    threaded: bool = False

    def sizes(self, smoke: bool) -> Sizes:
        if smoke:
            return Sizes(ticks=HOT_CYCLE, prefill_batches=7)
        return Sizes(ticks=self.ticks)

    def durability(self, directory: str, ticks: int) -> Optional[DurabilityConfig]:
        """Group commit of 8 ticks with a real fsync; snapshots land at 3/8
        and 6/8 of the run, so recovery replays a WAL tail of 2/8."""
        if not self.durable:
            return None
        return DurabilityConfig(
            directory,
            fsync_every_n_ticks=FSYNC_EVERY_N_TICKS,
            snapshot_policy=EveryNTicks(max(1, ticks * 3 // 8)),
        )

    def resilience(self) -> Optional[ResilienceConfig]:
        if not self.durable:
            return None
        return ResilienceConfig(transactional_ticks=True, quarantine=True, supervised=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mixed_gpulsm",
            why="paper regime, update-heavy uniform mix on one GPULSM: cascade and "
            "COUNT/RANGE do the work; cache, WAL, resilience and sharding do none",
            tick=4096, ticks=256, stream=mixed_stream, backend=plain_gpulsm,
        ),
        Workload(
            name="mixed_sharded4",
            why="same stream through ShardedLSM(4): adds routing and the serial "
            "per-shard loop; a core gain moves both, a scale gain only this one",
            tick=4096, ticks=256, stream=mixed_stream, backend=plain_sharded4,
        ),
        Workload(
            name="threaded_gpulsm",
            why="same stream through admission, scheduler and pipelined executor "
            "threads (one client, 2 outstanding): isolates the engine's second commit path",
            tick=4096, ticks=256, stream=mixed_stream, backend=plain_gpulsm,
            threaded=True,
        ),
        Workload(
            name="read_hot_cached",
            why="hot lookups (2048 keys fit the 4096-entry cache, 10% uniform tail "
            "does not) with an update tick every 16: cache and filters work, cascade barely",
            tick=4096, ticks=512, stream=hot_read_stream, backend=filtered_gpulsm,
            cache=True,
        ),
        Workload(
            name="fullstack_sharded4",
            why="every knob on over a Zipf read-mostly stream with small ticks: WAL, "
            "fsync, snapshots, state capture, maintenance and rebalancing all run",
            tick=1024, ticks=256, stream=zipf_stream, backend=full_sharded4,
            cache=True, durable=True,
        ),
        Workload(
            name="barestack_sharded4",
            why="by-pass twin of fullstack_sharded4: same stream, every knob off; "
            "the ratio of the two is the price of the stack",
            tick=1024, ticks=256, stream=zipf_stream, backend=plain_sharded4,
        ),
    )
}
