"""Event primitives for the discrete-event simulation engine.

The engine is a classic time-ordered event queue.  Every occurrence in the
simulated P2P system -- a peer joining, a peer's session ending, a query
being issued, a metrics sample being taken -- is an :class:`Event` carrying
a *kind* (an interned string used to dispatch to handlers), a payload dict,
and a scheduled time.

Events with equal timestamps are delivered in insertion order (FIFO), which
makes runs deterministic for a fixed seed.  Cancellation is lazy: a
cancelled event stays in the heap but is skipped at pop time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Event", "EventKind"]


class EventKind:
    """Namespace of the event kinds used by the built-in subsystems.

    Handlers are registered per kind; user code may define additional kinds
    freely (any string works), these constants just avoid typo bugs in the
    built-in wiring.
    """

    PEER_JOIN = "peer_join"
    PEER_LEAVE = "peer_leave"
    CONNECTION_CREATED = "connection_created"
    CONNECTION_DROPPED = "connection_dropped"
    DLM_EVALUATE = "dlm_evaluate"
    DLM_REFRESH = "dlm_refresh"
    QUERY_ISSUED = "query_issued"
    METRICS_SAMPLE = "metrics_sample"
    SCENARIO_SHIFT = "scenario_shift"
    TRANSPORT_DELIVER = "transport_deliver"
    TRANSPORT_TIMEOUT = "transport_timeout"
    GENERIC = "generic"

    _ALL = (
        PEER_JOIN,
        PEER_LEAVE,
        CONNECTION_CREATED,
        CONNECTION_DROPPED,
        DLM_EVALUATE,
        DLM_REFRESH,
        QUERY_ISSUED,
        METRICS_SAMPLE,
        SCENARIO_SHIFT,
        TRANSPORT_DELIVER,
        TRANSPORT_TIMEOUT,
        GENERIC,
    )


_SEQUENCE = itertools.count()


@dataclass(slots=True)
class Event:
    """A single scheduled occurrence.

    Parameters
    ----------
    time:
        Simulated time at which the event fires.  Must be >= the current
        clock when scheduled.
    kind:
        Dispatch key; handlers registered for this kind receive the event.
    payload:
        Arbitrary read-only data for the handler (peer ids, query ids...).
    seq:
        Monotone tie-breaker; guarantees FIFO order among same-time events
        and total ordering for ``heapq``.  :meth:`Simulator.schedule_at`
        assigns it from a per-simulator counter (deterministic across
        processes, so it doubles as a stable event identity in
        checkpoints); events constructed directly fall back to a
        module-level counter.
    cancelled:
        Lazy-cancellation flag; the scheduler skips cancelled events.
    """

    time: float
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    seq: int = field(default_factory=_SEQUENCE.__next__)
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so the scheduler will skip it.

        For an event still in a simulator's queue, prefer
        :meth:`Simulator.cancel` -- it sets this flag *and* keeps the
        scheduler's ``live_pending`` gauge exact.  Calling this directly
        is right only for events outside any queue (e.g. wiring events a
        restore has already discarded).
        """
        self.cancelled = True

    # heapq ordering -------------------------------------------------------
    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.3f}, kind={self.kind!r}{flag})"
