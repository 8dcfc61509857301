"""Scale-out layer: the shared dictionary protocol and the sharded LSM.

* :class:`repro.scale.protocol.DictionaryProtocol` — the structural type of
  a batched GPU dictionary (paper Table I); :class:`~repro.core.lsm.GPULSM`,
  :class:`~repro.baselines.sorted_array.GPUSortedArray` and
  :class:`~repro.baselines.cuckoo_hash.CuckooHashTable` all satisfy it.
* :class:`repro.scale.sharded.ShardedLSM` — a keyspace-sharded front-end
  that routes update batches with one stable multisplit and fans them out
  across independent per-shard GPU LSMs on per-shard simulated devices.
* :mod:`repro.scale.rebalance` — load-aware shard rebalancing: the
  :class:`~repro.scale.rebalance.LoadImbalancePolicy` traffic policy, the
  traffic-weighted split planner, and the online split/merge executor.
"""

from repro.scale.protocol import (
    DictionaryProtocol,
    UnsupportedOperationError,
    simulated_seconds,
    supports,
)
from repro.scale.rebalance import (
    LoadImbalancePolicy,
    choose_split_key,
    execute_rebalance,
)
from repro.scale.sharded import ShardedLSM

__all__ = [
    "DictionaryProtocol",
    "UnsupportedOperationError",
    "simulated_seconds",
    "supports",
    "ShardedLSM",
    "LoadImbalancePolicy",
    "choose_split_key",
    "execute_rebalance",
]
