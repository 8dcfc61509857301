"""Benchmark-owned tracing: spans recorded from outside the program.

Nothing under ``src/`` is instrumented.  A :class:`SpanProxy` forwards every
attribute to the object it wraps and times the calls named in ``timed``; a
:class:`TimedDurability` does the same for the two per-tick hooks of the
durability manager.  Each span records its name, start, end, the simulated
seconds the wrapped call added to the store's device clock, the span that
encloses it, and the tick it belongs to.  Spans stay in memory until the
run ends.

The engine polls ``run_due_maintenance`` exactly once after every committed
tick, on the thread that executed it, so the proxy that sees that call
counts ticks itself — which also attributes spans correctly when the
executor thread runs behind the submitting client.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

import numpy as np

from repro.durability import DurabilityManager
from repro.scale.protocol import simulated_seconds

#: Backend calls timed by the store proxy.
BACKEND_CALLS = (
    "update", "lookup", "count", "range_query",
    "run_due_maintenance", "snapshot_state", "rollback_to",
)


class Tracer:
    """In-memory span store of one traced replay."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.ticks: List[int] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.sims: List[float] = []
        self.tick = 0
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        span = len(self.names)
        self.names.append(name)
        self.ticks.append(self.tick)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self.sims.append(0.0)
        self._open.append(span)
        self.starts.append(time.perf_counter())  # last: bookkeeping stays outside the span
        return span

    def end(self, span: int, sim_seconds: float = 0.0) -> None:
        self.ends[span] = time.perf_counter()
        self.sims[span] = sim_seconds
        self._open.pop()

    def __len__(self) -> int:
        return len(self.names)

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def write_jsonl(self, path: str, durations: np.ndarray) -> None:
        with open(path, "w") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps({
                    "span": i, "name": name, "tick": self.ticks[i],
                    "parent": self.parents[i], "start": self.starts[i],
                    "end": self.ends[i], "min_wall_s": float(durations[i]),
                    "sim_s": self.sims[i],
                }) + "\n")


class SpanProxy:
    """Forwarding wrapper that records a span around the ``timed`` calls."""

    def __init__(self, inner, tracer: Tracer, layer: str, timed=BACKEND_CALLS,
                 counts_ticks: bool = False) -> None:
        self._inner = inner
        self._tracer = tracer
        self._layer = layer
        self._counts_ticks = counts_ticks
        for name in timed:
            setattr(self, name, self._timed(name, getattr(inner, name)))

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def _timed(self, name: str, call):
        tracer, inner = self._tracer, self._inner
        span_name = f"{self._layer}.{name}"
        ends_tick = self._counts_ticks and name == "run_due_maintenance"

        def timed_call(*args, **kwargs):
            sim_before = simulated_seconds(inner)
            span = tracer.begin(span_name)
            try:
                return call(*args, **kwargs)
            finally:
                tracer.end(span, simulated_seconds(inner) - sim_before)
                if ends_tick:
                    tracer.tick += 1

        return timed_call


class TimedDurability(DurabilityManager):
    """The durability manager with spans around its two per-tick hooks."""

    def __init__(self, config, tracer: Tracer) -> None:
        super().__init__(config)
        self._tracer = tracer

    def log_tick(self, batch, consistency) -> None:
        span = self._tracer.begin("durability.log_tick")
        try:
            super().log_tick(batch, consistency)
        finally:
            self._tracer.end(span)

    def maybe_snapshot(self) -> Optional[dict]:
        span = self._tracer.begin("durability.maybe_snapshot")
        try:
            return super().maybe_snapshot()
        finally:
            self._tracer.end(span)


def min_envelope(tracers: List[Tracer]) -> np.ndarray:
    """Per-span minimum wall time over traced replays.

    The replays issue the identical call sequence, so span *i* of one
    replay is span *i* of every other.
    """
    first = tracers[0]
    for other in tracers[1:]:
        if other.names != first.names or other.ticks != first.ticks:
            raise AssertionError("traced replays recorded different span sequences")
    return np.min([t.durations() for t in tracers], axis=0)


def self_times(tracer: Tracer, durations: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct children."""
    own = durations.copy()
    for child, parent in enumerate(tracer.parents):
        if parent >= 0:
            own[parent] -= durations[child]
    return own


def per_name(tracer: Tracer, values: np.ndarray) -> Dict[str, np.ndarray]:
    """``values`` summed per tick, keyed by span name (ticks without the
    span contribute zero)."""
    ticks = np.asarray(tracer.ticks, dtype=np.int64)
    num_ticks = int(ticks.max()) + 1 if ticks.size else 0
    names = np.asarray(tracer.names)
    out: Dict[str, np.ndarray] = {}
    for name in sorted(set(tracer.names)):
        mask = names == name
        out[name] = np.bincount(ticks[mask], weights=values[mask], minlength=num_ticks)
    return out
