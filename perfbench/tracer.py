"""In-memory span tracer for the benchmark's traced runs.

The tracer measures the simulator's layers from outside: it wraps
methods on the layers' public classes and every handler registered with
the scheduler, and records one span per call.  Nothing in ``src/`` is
edited; the wrappers are installed before a run is wired (so listeners
that modules register as bound methods resolve to the wrapper) and
removed again afterwards.

A span is one row of five parallel columns: name id, start, end, parent
span index (-1 for a top-level span) and cause -- the seq of the event
whose dispatch opened the outermost span, shared by every span that
event caused.  Columns are ``array`` buffers, so a traced run of a few
million spans costs tens of megabytes.  :meth:`SpanColumns.write`
stores them as one ``.npz`` file when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Methods wrapped in a traced run: (module, class, attribute, span name).
#: Private attributes appear only where the layer has no public entry
#: point for the work (the flood router's snapshot rebuild, the health
#: monitor's sampler listener).
SEAMS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.overlay.topology", "Overlay", "connect", "overlay.connect"),
    ("repro.overlay.topology", "Overlay", "promote", "overlay.promote"),
    ("repro.overlay.topology", "Overlay", "demote", "overlay.demote"),
    (
        "repro.protocol.transport",
        "InfoExchange",
        "on_connection_created",
        "protocol.exchange",
    ),
    ("repro.core.dlm", "DLMPolicy", "evaluate", "core.evaluate"),
    ("repro.search.flooding", "FloodRouter", "query", "search.route"),
    ("repro.search.flooding", "FloodRouter", "_rebuild", "search.rebuild"),
    ("repro.health.plane", "HealthMonitor", "_on_sample", "health.tick"),
)

#: Prefix of the span recorded around each scheduler handler call.
EVENT_PREFIX = "event."


class Tracer:
    """Records nested spans into column buffers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cause = array("q")
        self._stack: List[int] = []
        self._cause = -1
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # -- recording -----------------------------------------------------------
    def intern(self, name: str) -> int:
        """The id of span name ``name`` (allocated on first use)."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        nid = self.intern(name)
        stack = self._stack
        clock = time.perf_counter
        name_col, start, end = self.name_id, self.start, self.end
        parent, cause = self.parent, self.cause

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_col.append(nid)
            parent.append(stack[-1] if stack else -1)
            cause.append(self._cause)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def wrap_handler(self, kind: str, handler: Callable) -> Callable:
        """A scheduler handler that opens an ``event.<kind>`` span and
        stamps the dispatched event's seq as the cause of every span
        it contains."""
        inner = self.wrap(EVENT_PREFIX + kind, handler)
        stack = self._stack

        def traced_handler(sim, event):
            if not stack:
                self._cause = event.seq
            return inner(sim, event)

        return traced_handler

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every seam and the scheduler's handler registration.

        Call before the run is wired.  ``Simulator.on`` registers a
        wrapped handler keyed by event kind, and ``Simulator.off``
        translates the original handler to its wrapper, so modules keep
        using the public registration API unchanged.
        """
        from repro.sim.scheduler import Simulator

        # Keyed by the handler itself: a bound method passed to off() is
        # a new object equal to the one passed to on().
        wrapped: Dict[Tuple[int, str, Callable], List[Callable]] = {}
        orig_on, orig_off = Simulator.on, Simulator.off

        def on(sim, kind, handler):
            traced = self.wrap_handler(kind, handler)
            wrapped.setdefault((id(sim), kind, handler), []).append(traced)
            orig_on(sim, kind, traced)

        def off(sim, kind, handler):
            pending = wrapped.get((id(sim), kind, handler))
            orig_off(sim, kind, pending.pop(0) if pending else handler)

        self._patch(Simulator, "on", on)
        self._patch(Simulator, "off", off)
        for module, cls_name, attr, span in SEAMS:
            cls = getattr(importlib.import_module(module), cls_name, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if fn is None:
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            self._patch(cls, attr, self.wrap(span, fn))
        for seam in self.missing:
            print(f"perfbench: seam {seam} not found; its span reads 0",
                  file=sys.stderr)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        # None marks an attribute the class inherits: restoring deletes
        # the override.
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output --------------------------------------------------------------
    def columns(self) -> "SpanColumns":
        """The recorded spans as numpy columns."""
        return SpanColumns(
            names=tuple(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int64).copy(),
            cause=np.frombuffer(self.cause, dtype=np.int64).copy(),
        )


@dataclass(frozen=True)
class SpanColumns:
    """Spans as parallel arrays (row ``i`` is span ``i``)."""

    names: Tuple[str, ...]
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    cause: np.ndarray

    def write(self, path: str) -> None:
        """Store the spans as an ``.npz`` archive."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=self.name_id,
            start=self.start,
            end=self.end,
            parent=self.parent,
            cause=self.cause,
        )


@dataclass(frozen=True)
class SpanTotals:
    """Per-name aggregates of a span set."""

    count: int
    total_s: float
    self_s: float


def self_times(cols: SpanColumns) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans from one thread nest properly: a child starts after its
    parent and ends before it, and siblings do not overlap, so the
    covered time is the sum of the direct children's durations.
    """
    dur = cols.end - cols.start
    covered = np.zeros_like(dur)
    has_parent = cols.parent >= 0
    np.add.at(covered, cols.parent[has_parent], dur[has_parent])
    return dur - covered


def totals(cols: SpanColumns) -> Dict[str, SpanTotals]:
    """Count, total duration and total self time per span name."""
    dur = cols.end - cols.start
    own = self_times(cols)
    k = len(cols.names)
    counts = np.bincount(cols.name_id, minlength=k)
    dur_sum = np.bincount(cols.name_id, weights=dur, minlength=k)
    self_sum = np.bincount(cols.name_id, weights=own, minlength=k)
    return {
        name: SpanTotals(int(counts[i]), float(dur_sum[i]), float(self_sum[i]))
        for i, name in enumerate(cols.names)
    }


def top_level_time(cols: SpanColumns) -> float:
    """Total duration of the spans that have no parent."""
    top = cols.parent < 0
    return float(np.sum(cols.end[top] - cols.start[top]))
