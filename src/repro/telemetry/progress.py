"""Live progress reporting for long runs.

A :class:`ProgressReporter` piggybacks on the simulator's existing
``METRICS_SAMPLE`` events -- it never schedules events of its own, so
attaching one cannot change the event sequence (and therefore cannot
perturb a deterministic run).  On each sample it checks a **wall-clock**
cadence and, when due, logs one line to the ``repro.progress`` logger
(stderr under the CLI's default logging config):

    figure6: t=4380/14400 (30.4%) | 112034 events | 45210 ev/s | eta 92s

Throughput is measured between reports; the ETA extrapolates the
remaining *simulated* horizon at the observed sim-time rate.  Like the
rest of the telemetry plane the reporter is pure observation: detach it
(or never attach it) and the run is bit-identical.
"""

from __future__ import annotations

import logging
import time
from typing import Optional

from ..sim.events import EventKind

__all__ = ["ProgressReporter"]

logger = logging.getLogger("repro.progress")


def format_progress(
    label: str,
    *,
    sim_t: float,
    horizon: float,
    events: int,
    rate: float,
    sim_rate: float,
) -> str:
    """The one-line progress format of :class:`ProgressReporter`."""
    pct = 100.0 * sim_t / horizon if horizon else 0.0
    if sim_rate > 0 and horizon:
        eta = f"{(horizon - sim_t) / sim_rate:.0f}s"
    else:
        eta = "?"
    return (
        f"{label}: t={sim_t:g}/{horizon:g} ({pct:.1f}%)"
        f" | {events} events | {rate:.0f} ev/s | eta {eta}"
    )


class ProgressReporter:
    """Logs run progress at a wall-clock cadence (see module docstring)."""

    def __init__(
        self,
        sim,
        *,
        horizon: float,
        every: float = 5.0,
        label: str = "run",
        clock=time.monotonic,
    ) -> None:
        if every <= 0:
            raise ValueError(f"progress cadence must be > 0, got {every}")
        self._sim = sim
        self.horizon = horizon
        self.every = every
        self.label = label
        self._clock = clock
        self._attached = False
        now = clock()
        self._started_wall = now
        self._last_wall = now
        self._last_events = sim.events_processed
        self._last_sim_t = sim.now
        self.reports = 0

    # -- wiring --------------------------------------------------------------
    def attach(self) -> "ProgressReporter":
        """Start reporting (idempotent)."""
        if not self._attached:
            self._sim.on(EventKind.METRICS_SAMPLE, self._on_sample)
            self._attached = True
        return self

    def detach(self) -> None:
        """Stop reporting (idempotent)."""
        if self._attached:
            self._sim.off(EventKind.METRICS_SAMPLE, self._on_sample)
            self._attached = False

    def __enter__(self) -> "ProgressReporter":
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    # -- reporting -----------------------------------------------------------
    def _on_sample(self, sim, event) -> None:
        wall = self._clock()
        if wall - self._last_wall < self.every:
            return
        self.emit(wall=wall)

    def emit(self, wall: Optional[float] = None) -> str:
        """Log one progress line now; returns the formatted line."""
        if wall is None:
            wall = self._clock()
        sim = self._sim
        events = sim.events_processed
        sim_t = sim.now
        dt_wall = max(wall - self._last_wall, 1e-9)
        rate = (events - self._last_events) / dt_wall
        sim_rate = (sim_t - self._last_sim_t) / dt_wall
        line = format_progress(
            self.label,
            sim_t=sim_t,
            horizon=self.horizon,
            events=events,
            rate=rate,
            sim_rate=sim_rate,
        )
        logger.info(line)
        self._last_wall = wall
        self._last_events = events
        self._last_sim_t = sim_t
        self.reports += 1
        return line
