"""The maintenance subsystem: cleanup stages, incremental compaction,
and pluggable maintenance policies.

The paper's CLEANUP (Section IV-E) is a whole-structure rebuild: merge all
occupied levels, drop every stale element, pad, redistribute.  This module
decomposes that monolith into five composable stages — **merge-levels →
mark-valid → compact → pad → redistribute** — each expressed once over the
:class:`~repro.core.run.SortedRun` primitives, and builds two operations
out of them:

:func:`run_cleanup`
    The paper's full cleanup, now a composition of the stages (the
    behaviour of :meth:`repro.core.lsm.GPULSM.cleanup` is unchanged).

:func:`run_compaction`
    **Incremental compaction** — the paper's cascade generalised: merge
    only the *k smallest occupied levels* into their **target level**,
    dropping stale copies *within the compacted prefix* while keeping the
    answers of every query bit-identical.  Cost scales with the touched
    prefix instead of the whole structure.

Why incremental compaction is answer-preserving
-----------------------------------------------
The k smallest occupied levels are exactly the k *most recent* levels, so
every element outside the prefix is older than every element inside it.
Within the merged prefix, the first element of each equal-key run is the
key's most recent copy; keeping exactly that element per key

* drops replaced duplicates and elements shadowed by a *prefix* tombstone
  (stale relative to the prefix itself — invisible to every query), and
* **keeps tombstones** (partial prefix only): a prefix tombstone may
  shadow a regular copy in an older, untouched level, so unlike full
  cleanup it must survive.  When the prefix is the whole structure,
  tombstones shadow nothing and are dropped like full cleanup does.

The survivors are distinct keys, so placing them in their target level
preserves the most-recent-first search order queries rely on.  Padding
uses **duplicates of trailing survivors** (spread over the last distinct
keys, each copy right behind its live twin) rather than the placebo
``max_key`` tombstone of full cleanup: a fake ``max_key`` tombstone in a
*more recent* level would shadow a genuine ``max_key`` element in an
older untouched level, whereas a duplicate of a surviving element is just
one more stale copy behind its own live twin.

Target-level arithmetic: the prefix holds ``p = Σ 2^{i_j}`` batches over
levels ``i_1 < … < i_k``, so ``p < 2^{i_k + 1}``, and the survivors fill
``m = ceil(survivors / b) ≤ p`` batches.  Like the insertion cascade —
which merges levels ``0 … j-1`` plus the new batch into the first empty
level ``j`` — the survivors are **folded into the single smallest level
that can hold them** (``t = ceil(log2 m) ≤ i_k + 1``), padded up to
exactly ``2^t`` batches with duplicates.  ``t ≤ i_k`` is always free
(the prefix was just cleared); ``t = i_k + 1`` is used when that level is
empty.  Folding is what lets a compaction *reduce the occupied-level
count even with zero reclaim* — redistributing ``m`` batches over the set
bits of ``m`` would reproduce the old occupancy bit-for-bit whenever
nothing was reclaimed, so a level-count policy could re-trigger forever
with zero progress.  Only when the fold target is an occupied untouched
level does the operation fall back to that minimal set-bits placement.
Either way every placed bit sits strictly below the untouched levels, so
the new occupancy has no bit collisions and the full-or-empty /
multiple-of-``b`` invariants of Section III-B hold after every partial
compaction.

Policies
--------
A :class:`MaintenancePolicy` decides *when* maintenance runs and *which*
operation to run.  Policies are carried on
:attr:`repro.core.config.LSMConfig.maintenance_policy` and evaluated by
:meth:`GPULSM.run_due_maintenance` — which the serving engine calls after
every executed tick (on the executor thread, between ticks, so maintenance
bumps the structural epoch exactly like a cascade and can never interleave
with a tick's pinned reads), which :class:`~repro.scale.sharded.ShardedLSM`
evaluates per shard (compacting only the shards that trip), and which the
examples call once per ingest step.

* :class:`ManualOnly` — never triggers; maintenance stays an explicit call.
* :class:`StaleFractionPolicy` — full cleanup once the stale-fraction
  estimate crosses a threshold.
* :class:`LevelCountPolicy` — incremental compaction of the smallest
  levels once the occupied-level count exceeds a bound (the query-latency
  signal: every occupied level is another binary search per lookup).
* :class:`AnyOf` — compose policies; the first one that trips wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.run import SortedRun

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.level import Level
    from repro.core.lsm import GPULSM


# ---------------------------------------------------------------------- #
# The five stages
# ---------------------------------------------------------------------- #
def merge_levels(lsm: "GPULSM", levels: List["Level"]) -> SortedRun:
    """Stage 1 — merge the given occupied levels into one sorted run.

    ``levels`` must be ordered most recent (smallest index) first; the
    status-blind merges keep equal keys ordered most-recent-first, which
    is what :func:`mark_valid` relies on.
    """
    return levels[0].run.merge(
        *(level.run for level in levels[1:]),
        key=lsm.encoder.strip_status,
        device=lsm.device,
        kernel_name="lsm.maintenance.merge",
    )


def mark_valid(
    lsm: "GPULSM", merged: SortedRun, drop_tombstones: bool
) -> np.ndarray:
    """Stage 2 — mark the elements that survive the compaction.

    The first element of each equal-key run is the key's most recent copy
    (cleanup Section IV-E step 2).  Full cleanup (``drop_tombstones=True``)
    additionally drops tombstones — nothing older exists for them to
    shadow.  Partial compaction keeps them: a prefix tombstone may shadow
    a regular copy in an older, untouched level.
    """
    valid = merged.first_per_key(lsm.encoder.strip_status)
    if drop_tombstones:
        valid = valid & lsm.encoder.is_regular(merged.keys)
    lsm.device.record_kernel(
        "lsm.maintenance.mark",
        coalesced_read_bytes=merged.keys.nbytes,
        coalesced_write_bytes=merged.size,
        work_items=merged.size,
    )
    return valid


def compact_valid(
    lsm: "GPULSM", merged: SortedRun, valid_mask: np.ndarray
) -> SortedRun:
    """Stage 3 — two-bucket multisplit: bucket 0 keeps the valid elements,
    bucket 1 collects the stale ones (discarded)."""
    reordered, bucket_offsets = merged.multisplit(
        lambda words: (~valid_mask).astype(np.int64),
        num_buckets=2,
        device=lsm.device,
        kernel_name="lsm.maintenance.multisplit",
    )
    return reordered.slice(0, int(bucket_offsets[1]))


def pad_to_batches(
    lsm: "GPULSM",
    survivors: SortedRun,
    placebo: bool,
    num_batches: Optional[int] = None,
) -> Tuple[SortedRun, int, int]:
    """Stage 4 — pad the survivors up to whole batches.

    Returns ``(padded_run, num_batches, padding)``.  The default target is
    the minimal multiple of ``b``; compaction passes the fold target's
    batch count instead.  Full cleanup (``placebo=True``) pads with the
    encoder's placebo word — a tombstone of the maximal key, invisible
    because nothing older survives a full rebuild.  Compaction pads with
    **duplicates of trailing survivors** instead — the padding is spread
    over the last ``min(survivors, padding)`` distinct keys, each copy
    placed immediately behind its live twin, so the run stays key-sorted,
    no key's equal-key run grows by more than the unavoidable minimum
    (padding concentrated on one mid-range key would make every COUNT /
    RANGE covering it gather the whole padding as candidates), and a
    duplicate can never shadow anything in an older untouched level (a
    placebo ``max_key`` tombstone could).  An entirely-stale structure
    becomes empty rather than pure padding.
    """
    num_valid = survivors.size
    if num_valid == 0:
        return survivors, 0, 0
    b = lsm.batch_size
    new_batches = num_batches if num_batches is not None else -(-num_valid // b)
    padded_n = new_batches * b
    padding = padded_n - num_valid
    if padding == 0:
        return survivors, new_batches, 0
    if placebo:
        padded = survivors.pad(
            padded_n,
            fill_word=lsm.encoder.placebo_word,
            device=lsm.device,
            kernel_name="lsm.maintenance.pad",
        )
    else:
        padded = _duplicate_pad(lsm, survivors, padded_n)
    return padded, new_batches, padding


def _duplicate_pad(
    lsm: "GPULSM", survivors: SortedRun, padded_n: int
) -> SortedRun:
    """Pad a distinct-key run by duplicating its trailing survivors.

    Every element keeps one copy; the ``padding`` extra copies are spread
    as evenly as possible over the last ``min(size, padding)`` elements,
    each batch of duplicates emitted immediately after its original — the
    run stays key-sorted, the first copy of each key is the live one, and
    per-key candidate inflation for COUNT/RANGE is the minimum the fold's
    geometry allows.  Costed like the placebo pad: one coalesced write of
    the padding.
    """
    padding = padded_n - survivors.size
    counts = np.ones(survivors.size, dtype=np.int64)
    tail = min(survivors.size, padding)
    extra, rem = divmod(padding, tail)
    counts[survivors.size - tail:] += extra
    if rem:
        counts[survivors.size - rem:] += 1
    keys = np.repeat(survivors.keys, counts)
    values = (
        None
        if survivors.values is None
        else np.repeat(survivors.values, counts)
    )
    lsm.device.record_kernel(
        "lsm.maintenance.pad",
        coalesced_write_bytes=padding * survivors.itemsize,
        work_items=padding,
    )
    return SortedRun(keys, values)


def redistribute_prefix(
    lsm: "GPULSM",
    run: SortedRun,
    new_batches: int,
    prefix_levels: List["Level"],
) -> None:
    """Stage 5 (partial) — refill the compacted prefix.

    One :meth:`GPULSM._distribute_sorted` pass that clears exactly the
    prefix levels and slices the padded survivors into the set bits of
    ``new_batches`` in ascending key order, rebuilding each refilled
    level's query filters.  The padding consists of *real* duplicate
    keys, so no filter exclusion applies; levels outside the prefix are
    untouched and ``lsm.num_batches`` is updated by the caller (the
    prefix's batches are only part of the total).
    """
    lsm._distribute_sorted(
        run,
        new_batches,
        clear_levels=prefix_levels,
        kernel_name="lsm.maintenance.distribute",
    )


def _empty_stats(kind: str) -> Dict[str, object]:
    return {
        "kind": kind,
        "elements_before": 0,
        "elements_after": 0,
        "removed": 0,
        "padding": 0,
        "levels_merged": 0,
    }


# ---------------------------------------------------------------------- #
# The two composed operations
# ---------------------------------------------------------------------- #
def run_cleanup(lsm: "GPULSM") -> Dict[str, object]:
    """Full cleanup (Section IV-E) as a composition of the five stages.

    Merges *every* occupied level, drops tombstones, replaced duplicates
    and deleted elements, pads with placebo tombstones of maximal key and
    redistributes into fresh levels.  This is the implementation behind
    :meth:`repro.core.lsm.GPULSM.cleanup`.
    """
    levels = lsm.occupied_levels()
    before = lsm.num_elements
    if not levels:
        return _empty_stats("cleanup")

    with lsm.device.timed_region("lsm.maintenance.cleanup", items=before):
        merged = merge_levels(lsm, levels)
        valid = mark_valid(lsm, merged, drop_tombstones=True)
        survivors = compact_valid(lsm, merged, valid)
        num_valid = survivors.size
        final_run, new_batches, padding = pad_to_batches(
            lsm, survivors, placebo=True
        )

        for lvl in lsm.levels:
            lvl.clear()
        lsm.num_batches = 0
        if new_batches:
            lsm._distribute_sorted(
                final_run, new_batches, trailing_placebos=padding
            )
        lsm.total_cleanups += 1
        lsm.epoch += 1
        # After cleanup every resident non-placebo element is live, so the
        # live-population bound becomes exact — and the padding placebos
        # are irreducible (a re-run would only re-add them), so the
        # stale-fraction estimate excludes them.
        lsm._live_keys_upper_bound = num_valid
        lsm._trailing_placebos = padding
        # Padding lands in the largest level _distribute_sorted filled;
        # once a cascade merges that level the placebos stop being
        # irreducible and the LSM resets the counter.
        lsm._placebo_level = (
            new_batches.bit_length() - 1 if padding else -1
        )

    if lsm.config.validate_invariants:
        from repro.core.invariants import check_lsm_invariants

        check_lsm_invariants(lsm)

    return {
        "kind": "cleanup",
        "elements_before": before,
        "elements_after": lsm.num_elements,
        "removed": before - num_valid,
        "padding": padding,
        "levels_merged": len(levels),
    }


def run_compaction(lsm: "GPULSM", k: int) -> Dict[str, object]:
    """Incremental compaction: merge the ``k`` smallest occupied levels
    into their target level.

    Drops stale copies *within the compacted prefix* (replaced duplicates
    and elements shadowed by a prefix tombstone) while keeping tombstones
    — unless the prefix is the whole structure, in which case tombstones
    shadow nothing and are dropped too — so every query answer is
    bit-identical before and after; the cost scales with the prefix, not
    the structure.  The survivors are folded into the single smallest
    level that can hold them (duplicate-padded up to exactly ``2^t``
    batches), which reduces the occupied-level count by ``k - 1`` even
    when nothing was reclaimed; see the module docstring for why the fold
    is answer-preserving and when the set-bits fallback applies.

    Returns the same statistics dict as cleanup, plus the number of
    levels merged.
    """
    if k < 0:
        raise ValueError("compact_levels requires a non-negative level count")
    occupied = lsm.occupied_levels()
    if k == 0 or not occupied:
        return _empty_stats("compact_levels")
    k = min(k, len(occupied))
    full_prefix = k == len(occupied)

    prefix = occupied[:k]
    prefix_elements = sum(level.size for level in prefix)
    prefix_batches = sum(1 << level.index for level in prefix)
    top = prefix[-1].index
    before = lsm.num_elements

    with lsm.device.timed_region("lsm.maintenance.compact", items=prefix_elements):
        merged = merge_levels(lsm, prefix)
        valid = mark_valid(lsm, merged, drop_tombstones=full_prefix)
        survivors = compact_valid(lsm, merged, valid)
        num_valid = survivors.size

        if num_valid == 0:
            # Only possible with a full prefix (a partial prefix keeps at
            # least one element per distinct key): everything was stale,
            # the structure empties.
            for level in prefix:
                level.clear()
            placed_batches = 0
            padding = 0
        else:
            b = lsm.batch_size
            m = -(-num_valid // b)
            # The cascade-style fold target: the smallest single level
            # holding m batches.  t <= top is always free (the prefix is
            # about to be cleared); t == top + 1 needs that level empty.
            t = max(0, (m - 1).bit_length())
            fold_ok = t <= top or (
                t < lsm.config.max_levels
                and (t >= len(lsm.levels) or lsm.levels[t].is_empty)
            )
            placed_batches = (1 << t) if fold_ok else m
            final_run, placed_batches, padding = pad_to_batches(
                lsm, survivors, placebo=False, num_batches=placed_batches
            )
            redistribute_prefix(lsm, final_run, placed_batches, prefix)

        lsm.num_batches = lsm.num_batches - prefix_batches + placed_batches
        if full_prefix:
            # The whole structure was rebuilt: every survivor is live and
            # any previous cleanup placebos were dropped with the other
            # tombstones (the fold pads with duplicates, not placebos).
            lsm._live_keys_upper_bound = num_valid
            lsm._trailing_placebos = 0
            lsm._placebo_level = -1
        lsm.total_compactions += 1
        lsm.epoch += 1

    if lsm.config.validate_invariants:
        from repro.core.invariants import check_lsm_invariants

        check_lsm_invariants(lsm)

    return {
        "kind": "compact_levels",
        "elements_before": before,
        "elements_after": lsm.num_elements,
        # Stale elements dropped from the prefix; the *net* change is
        # elements_before - elements_after, which can be smaller (or
        # negative) when the fold's padding exceeds the reclaim.
        "removed": prefix_elements - num_valid,
        "padding": padding,
        "levels_merged": k,
    }


# ---------------------------------------------------------------------- #
# Policies
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class MaintenanceAction:
    """What a tripped policy wants to run.

    ``kind`` is ``"cleanup"`` (full rebuild), ``"compact_levels"``
    (incremental, with ``levels`` giving the prefix size ``k``), or
    ``"rebalance"`` (a sharded front-end's split/merge pass — only
    meaningful to :meth:`repro.scale.ShardedLSM.run_due_maintenance`);
    ``policy`` names the policy that tripped, for the per-policy trigger
    counters.
    """

    kind: str
    levels: int = 0
    policy: str = "manual"

    def __post_init__(self) -> None:
        if self.kind not in ("cleanup", "compact_levels", "rebalance"):
            raise ValueError(
                "kind must be 'cleanup', 'compact_levels' or 'rebalance'"
            )
        if self.kind == "compact_levels" and self.levels < 1:
            raise ValueError("compact_levels actions need levels >= 1")


class MaintenancePolicy:
    """Decides when (and which) maintenance runs on one GPU LSM.

    Subclasses implement :meth:`decide`, returning a
    :class:`MaintenanceAction` when maintenance is due and ``None``
    otherwise.  Policies are carried on
    :attr:`repro.core.config.LSMConfig.maintenance_policy` and evaluated
    via :meth:`GPULSM.run_due_maintenance` — by the serving engine after
    every tick, by the sharded front-end per shard, or explicitly by the
    application (e.g. once per ingest step).  Policies must be cheap: they
    read host-side counters (stale-fraction estimate, occupied-level
    count), never the resident data.
    """

    #: Name used in per-policy trigger counters.
    name: str = "policy"

    def decide(self, lsm: "GPULSM") -> Optional[MaintenanceAction]:
        raise NotImplementedError


@dataclass(frozen=True)
class ManualOnly(MaintenancePolicy):
    """Never triggers: maintenance stays an explicit call.  Equivalent to
    configuring no policy at all; exists so intent can be spelled out."""

    name = "manual_only"

    def decide(self, lsm: "GPULSM") -> Optional[MaintenanceAction]:
        return None


@dataclass(frozen=True)
class StaleFractionPolicy(MaintenancePolicy):
    """Full cleanup once the stale-fraction estimate crosses a threshold.

    Parameters
    ----------
    threshold:
        Trip point for :meth:`GPULSM.stale_fraction_estimate`, in
        ``(0, 1)``.  The estimate excludes irreducible cleanup padding
        (see the estimate's docstring), so a freshly cleaned structure
        reads 0.0 and the policy cannot re-trigger with nothing to
        reclaim.
    min_elements:
        Do not trigger below this resident-element count — cleaning a
        near-empty structure reclaims almost nothing for a full rebuild's
        fixed cost.
    """

    threshold: float = 0.3
    min_elements: int = 0
    name = "stale_fraction"

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if self.min_elements < 0:
            raise ValueError("min_elements must be non-negative")

    def decide(self, lsm: "GPULSM") -> Optional[MaintenanceAction]:
        if lsm.num_elements < max(1, self.min_elements):
            return None
        if lsm.stale_fraction_estimate() <= self.threshold:
            return None
        return MaintenanceAction(kind="cleanup", policy=self.name)


@dataclass(frozen=True)
class LevelCountPolicy(MaintenancePolicy):
    """Incremental compaction once too many levels are occupied.

    Every occupied level is another binary search on every lookup, so the
    occupied-level count is the query-latency signal.  When it exceeds
    ``max_occupied_levels``, the policy compacts the smallest
    ``excess + 1`` occupied levels (never fewer, even when a fixed
    ``levels`` floor is given — a smaller fold could not get back under
    the bound), **extended through any contiguous occupied run** so the
    fold target — the level just above the prefix — is empty.  The
    resulting fold replaces ``k`` levels with one, so the occupied count
    drops to the bound in a single run and the policy cannot re-trigger
    without the structure changing first — even when the prefix held
    nothing reclaimable.  Cost stays proportional to the small prefix
    rather than the whole structure.

    With ``full_rebuild=True`` the trip runs a full :func:`run_cleanup`
    instead (the whole-structure answer, the ``full`` configuration of
    the churn floors in ``tests/test_maintenance_subsystem.py``).  Note that a full
    cleanup's level count is dictated by the surviving element count, so
    unlike the fold it cannot promise to get under the bound when the
    live population alone needs that many levels.
    """

    max_occupied_levels: int = 8
    levels: Optional[int] = None
    full_rebuild: bool = False
    name = "level_count"

    def __post_init__(self) -> None:
        if self.max_occupied_levels < 1:
            raise ValueError("max_occupied_levels must be at least 1")
        if self.levels is not None and self.levels < 1:
            raise ValueError("levels must be at least 1 when given")

    def decide(self, lsm: "GPULSM") -> Optional[MaintenanceAction]:
        occupied = lsm.occupied_levels()
        count = len(occupied)
        if count <= self.max_occupied_levels:
            return None
        if self.full_rebuild:
            # Zero-progress quench: a rebuild that reclaimed nothing
            # marks its post-run epoch as futile (see
            # GPULSM._run_maintenance), and repeating it before the
            # structure changes would reproduce the same nothing —
            # without this, consecutive polls re-run a futile
            # whole-structure rebuild forever when the live population
            # alone needs more levels than the bound.  (The stale
            # estimate cannot serve as the guard: it is an upper bound
            # that reads zero under cross-batch re-insertion even when a
            # rebuild would reclaim plenty.)
            if lsm._futile_rebuild_epoch == lsm.epoch:
                return None
            return MaintenanceAction(kind="cleanup", policy=self.name)
        # At least excess + 1 levels — folding k levels into one reduces
        # the count by k - 1, so anything smaller (a too-small ``levels``
        # override included) could not get back under the bound and the
        # policy would re-trigger a zero-progress compaction forever.
        k = count - self.max_occupied_levels + 1
        if self.levels is not None:
            k = max(k, self.levels)
        k = min(k, count)
        # Extend the prefix through the contiguous occupied run so the
        # fold target (the level just above the prefix) is empty.
        while k < count and occupied[k].index == occupied[k - 1].index + 1:
            k += 1
        if (
            k == count
            and occupied[-1].index + 1 >= lsm.config.max_levels
        ):
            # The occupied run reaches the top of the level space: no
            # fold target exists, the set-bits fallback would reproduce
            # the occupancy bit-for-bit, and tripping would re-run a
            # zero-progress whole-structure compaction on every poll.
            # The structure is simply at this configuration's capacity.
            return None
        return MaintenanceAction(
            kind="compact_levels", levels=k, policy=self.name
        )


class AnyOf(MaintenancePolicy):
    """Composite policy: the first member that trips wins.

    ``AnyOf(LevelCountPolicy(6), StaleFractionPolicy(0.5))`` keeps the
    level count bounded with cheap incremental compactions and falls back
    to a full cleanup when staleness accumulates anyway — the
    ``incremental`` configuration of the churn floors in
    ``tests/test_maintenance_subsystem.py``.
    """

    name = "any_of"

    def __init__(self, *policies: MaintenancePolicy) -> None:
        if not policies:
            raise ValueError("AnyOf needs at least one member policy")
        for policy in policies:
            if not isinstance(policy, MaintenancePolicy):
                raise TypeError(
                    f"AnyOf members must be MaintenancePolicy instances, "
                    f"got {type(policy).__name__}"
                )
        self.policies: Tuple[MaintenancePolicy, ...] = tuple(policies)

    def decide(self, lsm: "GPULSM") -> Optional[MaintenanceAction]:
        for policy in self.policies:
            action = policy.decide(lsm)
            if action is not None:
                return action
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(repr(p) for p in self.policies)
        return f"AnyOf({inner})"


# ---------------------------------------------------------------------- #
# Lifetime statistics
# ---------------------------------------------------------------------- #
@dataclass
class MaintenanceStatsCounter:
    """Lifetime maintenance counters of one structure.

    ``triggers`` maps the tripping policy's name (``"manual"`` for
    explicit :meth:`cleanup` / :meth:`compact_levels` calls) to how often
    it fired; ``reclaimed_elements`` counts stale elements dropped (the
    runs' ``removed`` stats — monotone, never negative; the *net*
    resident-size change additionally reflects ``padding_added``) and
    ``simulated_seconds`` the device time maintenance consumed.  The
    serving engine surfaces this dict through
    :attr:`repro.serve.engine.EngineStats.backend_maintenance`, and the
    sharded front-end merges its shards' counters.
    """

    runs: int = 0
    cleanups: int = 0
    compactions: int = 0
    reclaimed_elements: int = 0
    padding_added: int = 0
    simulated_seconds: float = 0.0
    triggers: Dict[str, int] = field(default_factory=dict)

    def record(
        self, stats: Dict[str, object], trigger: str, seconds: float
    ) -> None:
        self.runs += 1
        if stats.get("kind") == "cleanup":
            self.cleanups += 1
        else:
            self.compactions += 1
        self.reclaimed_elements += int(stats.get("removed", 0))
        self.padding_added += int(stats.get("padding", 0))
        self.simulated_seconds += float(seconds)
        self.triggers[trigger] = self.triggers.get(trigger, 0) + 1

    def merge_dict(self, stats: Dict[str, object]) -> None:
        """Merge another counter's :meth:`as_dict` snapshot — the public
        aggregation path (the sharded front-end merges its shards'
        ``maintenance_stats()`` dicts without touching their counters)."""
        self.runs += int(stats["runs"])
        self.cleanups += int(stats["cleanups"])
        self.compactions += int(stats["compactions"])
        self.reclaimed_elements += int(stats["reclaimed_elements"])
        self.padding_added += int(stats["padding_added"])
        self.simulated_seconds += float(stats["simulated_seconds"])
        for name, count in stats["triggers"].items():
            self.triggers[name] = self.triggers.get(name, 0) + count

    def as_dict(self) -> Dict[str, object]:
        return {
            "runs": self.runs,
            "cleanups": self.cleanups,
            "compactions": self.compactions,
            "reclaimed_elements": self.reclaimed_elements,
            "padding_added": self.padding_added,
            "simulated_seconds": self.simulated_seconds,
            "triggers": dict(self.triggers),
        }
