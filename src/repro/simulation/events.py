"""Event records for the discrete-event engine.

Events fire in ``(time, priority, seq)`` order.  ``seq`` is a monotonically
increasing tie-breaker so that events scheduled earlier fire earlier among
equal timestamps, which makes simulations deterministic regardless of heap
internals.  The engine's heap holds ``(time, priority, seq, event)`` tuples
rather than events, so ordering is a C-level tuple compare; ``seq`` is
unique, so the compare never reaches the event itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["Event", "EventPriority"]


class EventPriority:
    """Relative priorities for simultaneous events (lower fires first).

    Departures are processed before arrivals at the same instant so that a
    resource freed at time *t* can immediately admit a request arriving at
    *t* — matching how a real server's scheduler would behave.
    """

    DEPARTURE = 0
    ARRIVAL = 1
    CONTROL = 2


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    The ``cancelled`` flag implements O(1) cancellation: cancelled events
    stay in the heap but are skipped when popped.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None]
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark this event so the engine skips it when it is popped."""
        self.cancelled = True
