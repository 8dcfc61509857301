"""Planner and executor for mixed-operation batches.

One tick of serving traffic is an :class:`~repro.api.ops.OpBatch` holding
an arbitrary interleaving of the five dictionary operations.  The planner
routes it the way the paper's update path routes a batch: **one stable
multisplit** over the opcode column partitions the rows into contiguous
homogeneous segments while preserving arrival order inside each segment.
The executor then drives every segment through the matching bulk entry
point of any :class:`~repro.scale.protocol.DictionaryProtocol` backend
and places the per-op answers in **request order**.

Two intra-batch orderings are offered via the ``consistency`` knob:

:data:`Consistency.SNAPSHOT` (default)
    Queries in the tick observe the **pre-tick state**: every read executes
    against the backend as it stood when the tick began, and the tick's
    updates are folded into one canonical paper batch (Section III-A rules
    4 and 6 — a deletion dominates the whole batch, the first insertion of
    a key wins) applied afterwards.  The executor pins the backend's
    structural ``epoch`` around the reads; if a cascade runs mid-read the
    pin breaks and :class:`SnapshotViolationError` is raised instead of
    returning torn results.

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
from repro.primitives.multisplit import record_multisplit
from repro.primitives.radix_sort import stable_order
from repro.primitives.scan import exclusive_scan
from repro.scale.protocol import UnsupportedOperationError, supports


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

    if consistency is Consistency.SNAPSHOT:
        # One stable multisplit into updates, lookups, counts and ranges —
        # the paper's routing step for an update batch, applied to the
        # opcode column.  The opcodes order the groups already (both update
        # kinds below the three query kinds), so the host takes one stable
        # sort of the byte-wide opcodes with INSERT folded into DELETE; the
        # device's multisplit (a scan of the group counts, then histogram
        # and scatter of the positions) is recorded from the sizes.  Queries
        # run first, against the pre-tick snapshot.
        groups = np.maximum(batch.opcodes, np.uint8(OpCode.DELETE))
        routed = np.argsort(groups, kind="stable")
        counts = np.bincount(groups, minlength=len(OpCode))[OpCode.DELETE:]
        exclusive_scan(counts, device=device, kernel_name="api.plan.multisplit.scan")
        record_multisplit(device, routed.nbytes, n, counts.size, "api.plan.multisplit")
        ends = counts.cumsum().tolist()
        update, *queries = (routed[lo:hi] for lo, hi in zip([0] + ends, ends))
        for kind, idx in zip(("lookup", "count", "range"), queries):
            if idx.size:
                segments.append(Segment(kind=kind, indices=idx))
        if update.size:
            segments.append(Segment(kind="update", indices=update))
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
            num_queries * order.itemsize,
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
def _check_pin(backend, pinned: Optional[int]) -> None:
    if pinned is not None and backend.epoch != pinned:
        raise SnapshotViolationError(
            "the backend's level set changed while a tick's pinned reads "
            f"were running (pinned epoch {pinned}, now {backend.epoch}); "
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
        #: Per-range-segment payloads (flat keys, flat values or None), in
        #: the order the segments were served.
        self.range_chunks: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []
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
        # Range segments are served in ascending request order and every
        # other row has width 0, so each segment's rows already sit where
        # the request-order offsets put them: the range columns are the
        # segments' payloads end to end.
        keys = [keys for keys, _ in self.range_chunks]
        values = [values for _, values in self.range_chunks if values is not None]
        return ResultBatch(
            request=self.batch,
            statuses=self.statuses,
            found=self.found,
            values=self.values,
            counts=self.counts,
            range_offsets=offsets,
            range_keys=_end_to_end(keys),
            range_values=_end_to_end(values) if values else None,
            errors=self.errors,
        )


def _end_to_end(columns: List[np.ndarray]) -> np.ndarray:
    """Columns end to end as one ``uint64`` column (a lone ``uint64`` one
    as it is)."""
    if len(columns) == 1 and columns[0].dtype == np.uint64:
        return columns[0]
    return np.concatenate(columns or [np.zeros(0)], dtype=np.uint64, casting="unsafe")


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

    One stable sort by key decides it, arrival order kept among equal keys
    and, in paper mode, a key's deletions ahead of its insertions — the
    order of the encoded words, status bit included.  Returns
    ``(survivors, is_delete, keys)`` in ascending key order: the surviving
    rows as positions into ``indices`` (their arrival ranks), which of them
    are deletions, and their keys.
    """
    keys = batch.keys[indices]
    is_delete = batch.opcodes[indices] == int(OpCode.DELETE)
    boundary = np.ones(keys.size, dtype=bool)
    if arrival_order:
        order = stable_order(keys)
        sorted_keys = keys[order]
        boundary[:-1] = sorted_keys[1:] != sorted_keys[:-1]  # each run's last
    else:
        order = np.concatenate((np.flatnonzero(is_delete), np.flatnonzero(~is_delete)))
        order = order[stable_order(keys[order])]
        sorted_keys = keys[order]
        boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]  # each run's first
    survivors = order[boundary]
    return survivors, is_delete[survivors], sorted_keys[boundary]


def _last_to_end(rows: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """``rows`` with its highest-ranked row moved to the end."""
    j = int(rank[rows].argmax())
    return rows if j == rows.size - 1 else np.append(np.delete(rows, j), rows[j])


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
    for code, name in ((OpCode.INSERT, "insert"), (OpCode.DELETE, "delete")):
        rows = codes == int(code)
        if np.any(rows) and not supports(backend, name):
            acc.mark_unsupported(
                indices[rows],
                UnsupportedOperationError(
                    f"the backend does not support {name.upper()} operations"
                ),
            )
            indices, codes = indices[~rows], codes[~rows]
    if indices.size == 0:
        return

    survivors, is_delete, keys = _canonical_updates(batch, indices, arrival_order)
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

    # The backend receives ascending key columns, which a store merges
    # instead of sorting.  Padded copies are stored, so chunks and padding
    # keep the column order the survivors had when every store sorted its
    # batch itself — deletions by key, then insertions by arrival (paper
    # mode), or arrival order (strict): a chunk takes the next
    # ``batch_size`` rows of it, and the row a store pads from (its last
    # deletion, else its last insertion) goes last in its column.
    # Distinct keys commute, so any chunk order is safe.
    n = keys.size
    chunk = int(getattr(backend, "batch_size", 0)) or n
    parts = [np.arange(n)]
    if n > chunk:
        rank = survivors if arrival_order else np.where(is_delete, np.arange(n) - n, survivors)
        parts = [np.sort(part) for part in np.split(rank.argsort(), range(chunk, n, chunk))]
    values = None if key_only else batch.values[indices[survivors]]
    has_update = hasattr(backend, "update")
    for rows in parts:
        deleting = is_delete[rows]
        dels, ins = rows[deleting], rows[~deleting]
        if not dels.size:
            ins = _last_to_end(ins, survivors)
        elif arrival_order:  # paper mode's last deletion by key is last already
            dels = _last_to_end(dels, survivors)
        if has_update:
            backend.update(
                insert_keys=keys[ins] if ins.size else None,
                insert_values=None if values is None or not ins.size else values[ins],
                delete_keys=keys[dels] if dels.size else None,
            )
            continue
        # No mixed entry point: the canonical segment has one op per key,
        # so separate delete and insert calls cannot disagree.  Insertions
        # go in arrival order, as before: an insert-only structure (the
        # cuckoo table) places keys in the order it receives them.
        if dels.size:
            backend.delete(keys[dels])
        if ins.size:
            ins = ins[np.argsort(survivors[ins])]
            if key_only:
                backend.insert(keys[ins])
            else:
                backend.insert(keys[ins], values[ins])


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
        acc.counts[idx] = acc.range_widths[idx] = rr.counts
        acc.range_chunks.append((rr.keys, rr.values))


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
    serving engine plan a tick on a dedicated planning device before it
    executes on the backend.  The plan must have been produced by
    :func:`plan_batch` for this exact batch; the epoch-pinning guarantee
    applies unchanged.

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
                pinned = backend.epoch
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
