"""Planner and executor for mixed-operation batches.

One tick of serving traffic is an :class:`~repro.api.ops.OpBatch` holding
an arbitrary interleaving of the five dictionary operations.  The planner
routes it the way the paper's update path routes a batch: **one stable
multisplit** over the opcode column (reusing
:func:`repro.primitives.multisplit.multisplit_keys`) partitions the rows
into contiguous homogeneous segments while preserving arrival order inside
each segment.  The executor then drives every segment through the matching
bulk entry point of any :class:`~repro.scale.protocol.DictionaryProtocol`
backend and scatters the per-op answers back into **request order**.

Two intra-batch orderings are offered via the ``consistency`` knob:

:data:`Consistency.SNAPSHOT` (default)
    Queries in the tick observe the **pre-tick state**: every read executes
    against the backend as it stood when the tick began, and the tick's
    updates are folded into one canonical paper batch (Section III-A rules
    4 and 6 — a deletion dominates the whole batch, the first insertion of
    a key wins) applied afterwards.  The executor pins the backend's
    structural epoch (the per-shard epoch tuple on a sharded backend)
    around the reads; if a cascade runs mid-read the pin breaks and
    :class:`SnapshotViolationError` is raised instead of returning torn
    results.

:data:`Consistency.STRICT`
    Strict arrival order: operation *i* observes every update at positions
    ``< i`` in the batch.  The batch is cut at every update/query boundary;
    each maximal run of queries is multisplit by opcode and served in one
    pass (queries commute), and each maximal run of updates is collapsed to
    its last operation per key (arrival order's canonical form) and applied
    as one chunked bulk update.

Unsupported segments never fail the batch: each affected row gets an
:class:`~repro.scale.protocol.UnsupportedOperationError` *result* (the
dashes of the paper's Table I, per operation), and the rest of the tick
proceeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api.ops import (
    OpBatch,
    OpCode,
    ResultBatch,
    ResultStatus,
)
from repro.gpu.device import Device, get_default_device
from repro.primitives.multisplit import multisplit_keys, record_multisplit
from repro.primitives.radix_sort import stable_order
from repro.primitives.scan import exclusive_scan
from repro.scale.protocol import (
    UnsupportedOperationError,
    structural_epoch,
    supports,
)


class Consistency(str, Enum):
    """Intra-batch ordering of one tick (see module docstring)."""

    SNAPSHOT = "snapshot"
    STRICT = "strict"


class SnapshotViolationError(RuntimeError):
    """A backend's structure mutated while a tick's pinned reads ran.

    Raised by the executor when the epoch pinned at read time no longer
    matches the backend's epoch after the reads — i.e. a cascade
    interleaved with the snapshot.  Results are discarded rather than
    returned torn.
    """


#: Segment kinds, in the order the snapshot plan executes them.
_QUERY_KINDS = {
    OpCode.LOOKUP: "lookup",
    OpCode.COUNT: "count",
    OpCode.RANGE: "range",
}


@dataclass(frozen=True)
class Segment:
    """One contiguous homogeneous slice of the plan.

    ``indices`` are positions into the *request* batch, in arrival order
    (the stable multisplit guarantees it); ``kind`` is ``"update"`` or one
    of ``"lookup"`` / ``"count"`` / ``"range"``.
    """

    kind: str
    indices: np.ndarray

    @property
    def size(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class Plan:
    """Ordered segments one executor pass runs over a backend."""

    consistency: Consistency
    segments: Tuple[Segment, ...]

    @property
    def num_segments(self) -> int:
        return len(self.segments)


def _split_by_opcode(
    batch: OpBatch,
    positions: np.ndarray,
    group_of: Dict[int, int],
    num_groups: int,
    device: Device,
    kernel_name: str,
) -> List[np.ndarray]:
    """Stable multisplit of request positions by an opcode grouping.

    Returns one (possibly empty) position array per group, each in arrival
    order — the exact routing step the paper's multisplit performs for an
    update batch, applied to the opcode column instead of the shard id.
    """
    table = np.zeros(len(OpCode), dtype=np.int64)
    for code, group in group_of.items():
        table[code] = group
    routed, offsets = multisplit_keys(
        positions,
        bucket_of=lambda pos: table[batch.opcodes[pos]],
        num_buckets=num_groups,
        device=device,
        kernel_name=kernel_name,
    )
    # One np.split on the group offsets instead of per-group int() slicing.
    return np.split(routed, offsets[1:-1])


def plan_batch(
    batch: OpBatch,
    consistency: Consistency = Consistency.SNAPSHOT,
    device: Optional[Device] = None,
) -> Plan:
    """Turn one mixed batch into an ordered segment plan.

    Snapshot mode emits the query segments first (they read the pre-tick
    state) and one combined update segment last; strict mode emits
    alternating query/update segments following the batch's own arrival
    runs.
    """
    consistency = Consistency(consistency)
    device = device or get_default_device()
    n = batch.size
    segments: List[Segment] = []
    if n == 0:
        return Plan(consistency=consistency, segments=())

    positions = np.arange(n, dtype=np.int64)
    if consistency is Consistency.SNAPSHOT:
        # One stable multisplit: updates → group 0, one group per query
        # opcode.  Queries run first against the pre-tick snapshot.
        groups = _split_by_opcode(
            batch,
            positions,
            group_of={
                OpCode.INSERT: 0,
                OpCode.DELETE: 0,
                OpCode.LOOKUP: 1,
                OpCode.COUNT: 2,
                OpCode.RANGE: 3,
            },
            num_groups=4,
            device=device,
            kernel_name="api.plan.multisplit",
        )
        for kind, idx in zip(("lookup", "count", "range"), groups[1:]):
            if idx.size:
                segments.append(Segment(kind=kind, indices=idx))
        if groups[0].size:
            segments.append(Segment(kind="update", indices=groups[0]))
        return Plan(consistency=consistency, segments=tuple(segments))

    # Strict arrival order: cut the batch at every update/query boundary,
    # then group each query run by opcode (reads commute within a run).
    # All runs are routed in ONE batched pass instead of one multisplit
    # call per run: the run index is folded into the bucket key
    # (``run_id * 4 + opcode-group``) and a single stable sort partitions
    # every run's positions at once — a segmented multisplit, one launch
    # for the whole tick regardless of how many runs the batch alternates
    # through.
    is_update = batch.update_mask
    run_change = np.empty(n, dtype=bool)
    run_change[0] = True
    np.not_equal(is_update[1:], is_update[:-1], out=run_change[1:])
    run_id = np.cumsum(run_change) - 1
    # Composite bucket: update runs collapse to one segment (code 0);
    # query positions split by opcode (codes 1..3, the arrival order of
    # the kinds inside a run).
    group_table = np.zeros(len(OpCode), dtype=np.int64)
    group_table[OpCode.LOOKUP] = 1
    group_table[OpCode.COUNT] = 2
    group_table[OpCode.RANGE] = 3
    composite = run_id * 4 + group_table[batch.opcodes]
    order = np.argsort(composite, kind="stable")
    sorted_comp = composite[order]
    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    np.not_equal(sorted_comp[1:], sorted_comp[:-1], out=seg_start[1:])
    bounds = np.append(np.flatnonzero(seg_start), n)
    # Device accounting mirrors the per-run multisplits this replaces:
    # one scan of the per-segment counts plus one histogram + scatter
    # pass over the query positions (update runs pass through unrouted).
    num_queries = int(n - np.count_nonzero(is_update))
    exclusive_scan(
        np.diff(bounds), device=device, kernel_name="api.plan.multisplit.scan"
    )
    if num_queries:
        record_multisplit(
            device,
            num_queries * positions.dtype.itemsize,
            num_queries,
            3,
            "api.plan.multisplit",
        )
    kind_of_code = ("update", "lookup", "count", "range")
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        segments.append(
            Segment(
                kind=kind_of_code[int(sorted_comp[lo]) & 3],
                indices=order[lo:hi],
            )
        )
    return Plan(consistency=consistency, segments=tuple(segments))


# ---------------------------------------------------------------------- #
# Epoch pinning
# ---------------------------------------------------------------------- #
def _read_epoch(backend) -> Optional[Tuple]:
    """The backend's structural epoch — the per-shard tuple when sharded,
    the scalar counter otherwise, ``None`` for epoch-less backends.

    Delegates to :func:`repro.scale.protocol.structural_epoch`, the shared
    contract the durability subsystem's snapshot manifests also record as
    their epoch mark."""
    return structural_epoch(backend)


def _check_pin(backend, pinned: Optional[Tuple]) -> None:
    if pinned is not None and _read_epoch(backend) != pinned:
        raise SnapshotViolationError(
            "the backend's level set changed while a tick's pinned reads "
            f"were running (pinned {pinned}, now {_read_epoch(backend)}); "
            "snapshot-consistent results cannot be returned"
        )


# ---------------------------------------------------------------------- #
# Executor
# ---------------------------------------------------------------------- #
class _ResultAccumulator:
    """Mutable request-order result columns, frozen into a ResultBatch."""

    def __init__(self, batch: OpBatch) -> None:
        n = batch.size
        self.batch = batch
        self.statuses = np.zeros(n, dtype=np.uint8)
        self.found = np.zeros(n, dtype=bool)
        #: Lookup-value column, allocated lazily on the first backend
        #: result that carries values; stays ``None`` for key-only
        #: backends so the facade matches the per-method surface.
        self.values: Optional[np.ndarray] = None
        self.counts = np.zeros(n, dtype=np.int64)
        self.range_widths = np.zeros(n, dtype=np.int64)
        #: Per-range-segment payloads: (indices, flat keys, flat values or
        #: None, per-op offsets) scattered into request order at freeze
        #: time.
        self.range_chunks: List[
            Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]
        ] = []
        self.errors: Dict[int, UnsupportedOperationError] = {}

    def set_lookup_values(self, indices: np.ndarray, values: np.ndarray) -> None:
        if self.values is None:
            self.values = np.zeros(self.batch.size, dtype=np.uint64)
        self.values[indices] = values

    def mark_unsupported(self, indices: np.ndarray, error: UnsupportedOperationError) -> None:
        self.statuses[indices] = ResultStatus.UNSUPPORTED
        self.errors.update(dict.fromkeys(indices.tolist(), error))

    def freeze(self) -> ResultBatch:
        offsets = np.zeros(self.batch.size + 1, dtype=np.int64)
        np.cumsum(self.range_widths, out=offsets[1:])
        total = int(offsets[-1])
        range_keys = np.zeros(total, dtype=np.uint64)
        range_values = (
            np.zeros(total, dtype=np.uint64)
            if any(values is not None for _, _, values, _ in self.range_chunks)
            else None
        )
        if total and self.range_chunks:
            # All chunks scattered in one ragged pass: concatenate the
            # per-chunk payloads (C-speed, one array per segment, not per
            # op) and build a single destination/source index pair.
            idx_all = np.concatenate([idx for idx, _, _, _ in self.range_chunks])
            keys_all = np.concatenate([keys for _, keys, _, _ in self.range_chunks])
            base = 0
            src_starts = []
            for _, keys, _, chunk_offsets in self.range_chunks:
                src_starts.append(chunk_offsets[:-1] + base)
                base += keys.size
            src_start = np.concatenate(src_starts)
            widths = self.range_widths[idx_all]
            grand = int(widths.sum())
            within = np.arange(grand) - np.repeat(np.cumsum(widths) - widths, widths)
            dest = np.repeat(offsets[idx_all], widths) + within
            src = np.repeat(src_start, widths) + within
            range_keys[dest] = keys_all[src]
            if range_values is not None:
                values_all = np.concatenate(
                    [values for _, _, values, _ in self.range_chunks]
                )
                range_values[dest] = values_all[src]
        return ResultBatch(
            request=self.batch,
            statuses=self.statuses,
            found=self.found,
            values=self.values,
            counts=self.counts,
            range_offsets=offsets,
            range_keys=range_keys,
            range_values=range_values,
            errors=self.errors,
        )


def _canonical_updates(
    batch: OpBatch, indices: np.ndarray, arrival_order: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse an update segment to one surviving operation per key.

    Paper mode (``arrival_order=False``, the snapshot tick): a deletion
    anywhere in the segment dominates its key, and among insertions the
    first wins (Section III-A rules 4 and 6).  Arrival mode (strict): the
    *last* operation of each key wins, whatever it is.  Either way the
    result has distinct keys, so it can be applied in backend-sized chunks
    in any order.

    Returns ``(is_delete, keys, values)`` columns of the survivors: in
    segment arrival order in arrival mode; in paper mode the deleted keys
    ascending, then the surviving insertions in arrival order.
    """
    codes = batch.opcodes[indices]
    keys = batch.keys[indices]
    values = batch.values[indices]
    is_delete = codes == OpCode.DELETE

    # One stable sort by key (arrival order kept within a key); a mask over
    # the boundaries of the equal-key runs picks the survivors.
    boundary = np.ones(keys.size, dtype=bool)
    if arrival_order:
        order = stable_order(keys)
        sorted_keys = keys[order]
        boundary[:-1] = sorted_keys[1:] != sorted_keys[:-1]  # each run's last
        survivors = np.sort(order[boundary])
        return is_delete[survivors], keys[survivors], values[survivors]

    # With the deletions placed ahead of the insertions it is a sort by (key,
    # insert bit): a run opens with its key's deletion, else first insertion.
    order = np.concatenate((np.flatnonzero(is_delete), np.flatnonzero(~is_delete)))
    order = order[stable_order(keys[order])]
    sorted_keys = keys[order]
    boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
    survivors = order[boundary]
    deleting = is_delete[survivors]
    deleted = keys[survivors[deleting]]
    ins_pos = np.sort(survivors[~deleting])
    out_is_delete = np.concatenate(
        (np.ones(deleted.size, dtype=bool), np.zeros(ins_pos.size, dtype=bool))
    )
    out_keys = np.concatenate((deleted, keys[ins_pos]))
    out_values = np.concatenate(
        (np.zeros(deleted.size, dtype=values.dtype), values[ins_pos])
    )
    return out_is_delete, out_keys, out_values


def _apply_update_segment(
    backend,
    batch: OpBatch,
    segment: Segment,
    acc: _ResultAccumulator,
    arrival_order: bool,
    device: Device,
) -> None:
    """Apply one update segment through the backend's bulk update path."""
    indices = segment.indices
    codes = batch.opcodes[indices]
    key_only = bool(getattr(backend, "key_only", False))

    # Per-kind support gate: unsupported rows become per-op error results
    # and the supported kind still applies (per-op failure, not batch).
    kept = np.ones(indices.size, dtype=bool)
    for code, name in ((OpCode.INSERT, "insert"), (OpCode.DELETE, "delete")):
        rows = codes == code
        if np.any(rows) and not supports(backend, name):
            acc.mark_unsupported(
                indices[rows],
                UnsupportedOperationError(
                    f"the backend does not support {name.upper()} operations"
                ),
            )
            kept &= ~rows
    indices = indices[kept]
    if indices.size == 0:
        return

    is_delete, keys, values = _canonical_updates(batch, indices, arrival_order)
    # On the device the canonicalisation is one key-sorted pass plus a
    # compaction of the survivors (the same shape as the sharded router's
    # dedup); charge it so the mixed path is not simulated for free.
    payload = int(indices.size) * (batch.keys.dtype.itemsize + batch.values.dtype.itemsize)
    device.record_kernel(
        "api.update.canonicalise",
        coalesced_read_bytes=2 * payload,
        coalesced_write_bytes=payload + int(keys.size) * 16,
        work_items=int(indices.size),
    )
    if keys.size == 0:
        return

    # Distinct keys commute, so backend-batch-sized chunks are safe.
    chunk = int(getattr(backend, "batch_size", 0)) or keys.size
    has_update = hasattr(backend, "update")
    for start in range(0, keys.size, chunk):
        stop = min(start + chunk, keys.size)
        dels = keys[start:stop][is_delete[start:stop]]
        ins = keys[start:stop][~is_delete[start:stop]]
        ins_values = values[start:stop][~is_delete[start:stop]]
        if key_only:
            ins_values = None
        if has_update:
            backend.update(
                insert_keys=ins if ins.size else None,
                insert_values=ins_values if ins.size else None,
                delete_keys=dels if dels.size else None,
            )
            continue
        # No mixed entry point: the canonical segment has one op per key,
        # so separate delete and insert calls cannot disagree.
        if dels.size:
            backend.delete(dels)
        if ins.size:
            if key_only:
                backend.insert(ins)
            else:
                backend.insert(ins, ins_values)


def _run_query_segment(
    backend, batch: OpBatch, segment: Segment, acc: _ResultAccumulator
) -> None:
    """Serve one homogeneous query segment in a single bulk call."""
    idx = segment.indices
    operation = {"lookup": "lookup", "count": "count", "range": "range_query"}[
        segment.kind
    ]
    if not supports(backend, operation):
        acc.mark_unsupported(
            idx,
            UnsupportedOperationError(
                f"the backend does not support {segment.kind.upper()} queries"
            ),
        )
        return
    if segment.kind == "lookup":
        res = backend.lookup(batch.keys[idx])
        acc.found[idx] = res.found
        if res.values is not None:
            acc.set_lookup_values(idx, res.values)
    elif segment.kind == "count":
        acc.counts[idx] = backend.count(batch.keys[idx], batch.range_ends[idx])
    else:
        rr = backend.range_query(batch.keys[idx], batch.range_ends[idx])
        acc.range_widths[idx] = rr.counts
        acc.counts[idx] = rr.counts
        acc.range_chunks.append((idx, rr.keys, rr.values, rr.offsets))


def _backend_device(backend) -> Device:
    """The device a backend's mixed-path kernels are recorded on."""
    return (
        getattr(backend, "router_device", None)
        or getattr(backend, "device", None)
        or get_default_device()
    )


def execute_plan(
    batch: OpBatch,
    plan: Plan,
    backend,
    device: Optional[Device] = None,
    fault_check: Optional[Callable[[str], None]] = None,
) -> ResultBatch:
    """Run an already-planned batch against a dictionary backend.

    This is the execution half of :func:`execute`; splitting it out lets a
    serving engine *pipeline* the two stages — plan tick ``N+1`` (on its
    own planning device) while tick ``N`` executes on the backend.  The
    plan must have been produced by :func:`plan_batch` for this exact
    batch; the epoch-pinning guarantee applies unchanged.

    ``fault_check``, when given, is called with the crash-point name
    ``"engine.mid_execute"`` after each applied update segment — the
    serving engine's fault-injection hook (a callback rather than an
    injector import keeps this module free of a durability dependency).
    A raise there leaves the backend mid-tick: earlier segments applied,
    later ones not — exactly the partial mutation transactional ticks
    must be able to undo.  ``None`` (the default) is the untouched
    production path.
    """
    if device is None:
        device = _backend_device(backend)
    acc = _ResultAccumulator(batch)

    pinned = None
    for segment in plan.segments:
        if segment.kind == "update":
            # Reads of this tick (snapshot) or run (strict) are complete
            # and must not have interleaved with any cascade.
            _check_pin(backend, pinned)
            pinned = None
            _apply_update_segment(
                backend,
                batch,
                segment,
                acc,
                arrival_order=plan.consistency is Consistency.STRICT,
                device=device,
            )
            if fault_check is not None:
                fault_check("engine.mid_execute")
        else:
            if pinned is None:
                pinned = _read_epoch(backend)
            _run_query_segment(backend, batch, segment, acc)
    _check_pin(backend, pinned)
    return acc.freeze()


def execute(
    batch: OpBatch,
    backend,
    consistency: Consistency = Consistency.SNAPSHOT,
    device: Optional[Device] = None,
) -> ResultBatch:
    """Run one mixed batch against a dictionary backend.

    Plans the batch (one stable multisplit per tick in snapshot mode),
    serves every segment through the backend's bulk entry points, and
    returns the per-op answers in request order.  See the module docstring
    for the two consistency modes and the epoch-pinning guarantee.

    ``plan_batch`` + :func:`execute_plan` are the two halves of this call;
    use them directly to overlap planning with execution (the serving
    engine of :mod:`repro.serve` does).
    """
    consistency = Consistency(consistency)
    if device is None:
        device = _backend_device(backend)
    plan = plan_batch(batch, consistency=consistency, device=device)
    return execute_plan(batch, plan, backend, device=device)
