"""Event-driven simulation core.

A minimal, fast calendar built on :mod:`heapq`.  Components schedule
callbacks at absolute or relative times; the engine pops them in
``(time, priority, insertion order)`` order, which makes runs deterministic.

Time unit is **milliseconds** throughout (see :mod:`repro.util.units`).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable

from repro.simulation.events import Event, EventPriority
from repro.trace import TRACER
from repro.util.errors import SimulationError
from repro.util.validation import check_non_negative_real

__all__ = ["Simulator", "EVENT_TRACE_SAMPLE"]

# When tracing is enabled, one ``sim.events`` instant is emitted per this
# many processed events — per-event instants would dominate any real run's
# trace (and its cost); a sampled batch marker keeps the loop visible in
# the timeline at negligible overhead.
EVENT_TRACE_SAMPLE = 1024

_INF = math.inf


class Simulator:
    """A discrete-event simulator clock and event calendar.

    The calendar is a heap of ``(time, priority, seq, event)`` tuples, so
    ordering is a C-level tuple compare; ``seq`` is unique, so the compare
    never reaches the :class:`Event`.
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq: int = 0
        self._running = False
        self.events_processed: int = 0

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    def schedule(
        self,
        delay_ms: float,
        callback: Callable[[], None],
        *,
        priority: int = EventPriority.CONTROL,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay_ms`` from now.

        Returns the :class:`Event`, whose :meth:`~Event.cancel` method can be
        used to retract it.
        """
        # Fast path for the common finite non-negative float; anything else
        # gets the full check (and its ValidationError).
        if not (delay_ms.__class__ is float and 0.0 <= delay_ms < _INF):
            check_non_negative_real(delay_ms, "delay_ms")
        # A finite delay >= 0 from the (finite) clock is a valid time: push
        # directly rather than re-validating it in schedule_at.
        time_ms = self._now + delay_ms
        seq = self._seq
        self._seq = seq + 1
        event = Event(time_ms, priority, seq, callback)
        heappush(self._heap, (time_ms, priority, seq, event))
        return event

    def schedule_at(
        self,
        time_ms: float,
        callback: Callable[[], None],
        *,
        priority: int = EventPriority.CONTROL,
    ) -> Event:
        """Schedule ``callback`` at absolute time ``time_ms``."""
        if not (time_ms.__class__ is float and 0.0 <= time_ms < _INF):
            check_non_negative_real(time_ms, "time_ms")
        if time_ms < self._now:
            raise SimulationError(
                f"cannot schedule at t={time_ms} before current time t={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time_ms, priority, seq, callback)
        heappush(self._heap, (time_ms, priority, seq, event))
        return event

    def run_until(self, end_time_ms: float, *, max_events: int | None = None) -> None:
        """Process events in order until the clock would pass ``end_time_ms``.

        The clock is left exactly at ``end_time_ms`` afterwards, so metric
        windows have well-defined lengths.  ``max_events`` guards against
        run-away event loops in tests.
        """
        if end_time_ms < self._now:
            raise SimulationError(
                f"end time {end_time_ms} is before current time {self._now}"
            )
        if self._running:
            raise SimulationError("run_until called re-entrantly")
        self._running = True
        trace_on = TRACER.enabled  # hoisted: keep the event loop's hot path flat
        heap = self._heap
        with TRACER.span("sim.run_until", end_time_ms=end_time_ms):
            try:
                processed = 0
                while heap and heap[0][0] <= end_time_ms:
                    time_ms, _, _, event = heappop(heap)
                    if event.cancelled:
                        continue
                    self._now = time_ms
                    event.callback()
                    self.events_processed += 1
                    processed += 1
                    if trace_on and processed % EVENT_TRACE_SAMPLE == 0:
                        TRACER.instant(
                            "sim.events", processed=processed, sim_time_ms=self._now
                        )
                    if max_events is not None and processed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} before t={end_time_ms}"
                        )
                self._now = end_time_ms
                if trace_on:
                    TRACER.counter("sim.events_processed", float(processed))
            finally:
                self._running = False

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still in the calendar."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.3f}ms, pending={len(self._heap)})"
