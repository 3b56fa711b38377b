"""Queueing resources: processor-sharing and FCFS service stations.

Two station types cover the paper's system model:

* :class:`ProcessorSharingServer` — a single CPU that *time-shares* up to
  ``max_concurrency`` requests (egalitarian processor sharing), with a FIFO
  backlog for requests beyond the concurrency limit.  This models both the
  WebSphere application-server CPU ("a single FIFO waiting queue is used by
  each application server … both servers can process multiple requests
  concurrently via time-sharing") and the database CPU.
* :class:`FifoServer` — ``c`` servers each processing one request at a time
  in arrival order.  With ``c = 1`` this models the database disk, which the
  paper's layered queuing model treats as "a processor that can only process
  one request at a time".

Both stations are event-driven (no time slicing).  The processor-sharing
station keeps one *virtual clock*: the service each in-service job has
received, which advances at the common per-job rate.  A job entering
service gets the finish tag ``clock + work`` in a heap, so an arrival or a
completion costs O(log n) instead of a walk over every job.  In exact
arithmetic this is the per-job subtraction it replaced; in floats the
completion times round differently in the last bits, which moved the
simulator's bit-identity pins once (see ``tests/test_sim_bit_identity.py``).
The station's oracles are in ``tests/test_sim_ps_oracles.py``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable

import numpy as np

from repro.simulation.engine import Simulator
from repro.simulation.events import Event, EventPriority
from repro.trace import TRACER
from repro.util.errors import SimulationError
from repro.util.validation import (
    check_non_negative_real,
    check_positive,
    check_positive_int,
    require,
)

__all__ = ["ProcessorSharingServer", "FifoServer", "ThreadPool", "StationStats"]

# Jobs whose finish tags lie within this much work (ms at speed 1.0) of
# the virtual clock finish together, so float ties leave as one departure.
_WORK_EPS = 1e-9

_INF = math.inf


def _check_capacity(capacity: int | None, servers: int) -> int | None:
    """Validate a finite-capacity bound against the server count."""
    if capacity is None:
        return None
    check_positive_int(capacity, "capacity")
    require(capacity >= servers, "capacity must be >= servers (K >= c)")
    return capacity


def _admit(station, n_in_system: int) -> bool:
    """Drop/balk decision for one arrival finding ``n_in_system`` present.

    *Drop* is the station's decision (hard ``capacity`` bound, connection
    refused); *balk* is the client's (it saw the queue and left).  Both
    shed the request before any service — analytically they are the same
    blocked-state probability — but they are counted separately because a
    retrying client treats them differently.  The balk draw consumes the
    station's dedicated rng stream only when a curve is configured, so
    default (no-balk) runs replay event-for-event.
    """
    if station.capacity is not None and n_in_system >= station.capacity:
        station.stats.drops += 1
        if TRACER.enabled:
            TRACER.instant("sim.drop", station=station.name, in_system=n_in_system)
        return False
    if station.balk_fn is not None:
        p = station.balk_fn(n_in_system)
        if p > 0.0 and float(station._balk_rng.random()) < p:
            station.stats.balks += 1
            if TRACER.enabled:
                TRACER.instant("sim.balk", station=station.name, in_system=n_in_system)
            return False
    return True


@dataclass(slots=True)
class StationStats:
    """Cumulative counters for one station, resettable at the warm-up mark.

    ``arrivals`` counts every offered request (admitted or not);
    ``drops`` counts requests refused because the station was at its
    finite ``capacity``; ``balks`` counts requests whose arriving client
    chose to leave (the balk-probability curve).  Conservation holds at
    any instant: ``arrivals == completions + drops + balks + in-system``.
    """

    completions: int = 0
    busy_time_ms: float = 0.0
    work_done_ms: float = 0.0
    area_in_system: float = 0.0  # time-integral of (in service + queued)
    area_in_queue: float = 0.0  # time-integral of queued only
    window_start_ms: float = 0.0
    peak_in_system: int = 0
    arrivals: int = 0
    drops: int = 0
    balks: int = 0

    def loss_rate(self) -> float:
        """Fraction of offered requests shed (dropped or balked)."""
        if self.arrivals <= 0:
            return 0.0
        return (self.drops + self.balks) / self.arrivals

    def utilisation(self, now_ms: float) -> float:
        """Fraction of the measurement window in which the station was busy."""
        elapsed = now_ms - self.window_start_ms
        return self.busy_time_ms / elapsed if elapsed > 0 else 0.0

    def mean_in_system(self, now_ms: float) -> float:
        """Time-averaged number of requests at the station (service + queue)."""
        elapsed = now_ms - self.window_start_ms
        return self.area_in_system / elapsed if elapsed > 0 else 0.0

    def mean_in_queue(self, now_ms: float) -> float:
        """Time-averaged number of requests waiting (not in service)."""
        elapsed = now_ms - self.window_start_ms
        return self.area_in_queue / elapsed if elapsed > 0 else 0.0


class ProcessorSharingServer:
    """Event-driven egalitarian processor sharing with an admission limit.

    Parameters
    ----------
    sim:
        The simulation engine.
    name:
        Station name (diagnostics only).
    speed:
        Relative CPU speed.  A job submitted with ``work_ms`` of demand takes
        ``work_ms / speed`` of wall-clock time when running alone.
    max_concurrency:
        Maximum number of requests time-shared at once.  Requests beyond
        the limit queue FIFO.  The simulated servers build their CPUs with
        no practical limit; their 50/20 concurrency limits are the thread
        pool and the database's admission.
    capacity:
        Optional bound on the *total* number of requests at the station
        (in service plus queued — the ``K`` of M/M/c/K).  An arrival
        finding the station full is dropped: :meth:`submit` returns
        ``False``, no callback ever fires, and ``stats.drops`` counts it.
        ``None`` (the default) keeps the queue unbounded.
    balk_fn / rng:
        Optional balking curve: ``balk_fn(n_in_system)`` is the
        probability an arriving request walks away given the current
        occupancy, sampled with ``rng``.  Both must be given together.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        speed: float = 1.0,
        max_concurrency: int = 1,
        cores: int = 1,
        capacity: int | None = None,
        balk_fn: Callable[[int], float] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.speed = check_positive(speed, "speed")
        self.max_concurrency = check_positive_int(max_concurrency, "max_concurrency")
        # SMP generalisation: with c cores and n jobs in service, each job
        # progresses at speed * min(n, c) / n (no job exceeds one core).
        self.cores = check_positive_int(cores, "cores")
        self.capacity = _check_capacity(capacity, self.max_concurrency)
        self.balk_fn = balk_fn
        self._balk_rng = rng
        require(
            balk_fn is None or rng is not None,
            f"{name}: a balk_fn needs an rng to sample against",
        )
        # The virtual clock: ms of speed-1.0 work each in-service job has
        # received since the station last emptied.
        self._vclock: float = 0.0
        # Heap of (finish tag, seq, done_cb): a job finishes when the
        # virtual clock reaches its tag; seq keeps equal tags FIFO.
        self._in_service: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._queue: deque[tuple[float, Callable[[], None]]] = deque()
        self._last_update_ms: float = sim.now
        self._completion_event: Event | None = None
        self.stats = StationStats(window_start_ms=sim.now)

    # -- public API ---------------------------------------------------------

    def submit(self, work_ms: float, done_cb: Callable[[], None]) -> bool:
        """Offer a request with ``work_ms`` of CPU demand (at speed 1.0).

        Returns ``True`` and eventually fires ``done_cb`` when the request
        is admitted; returns ``False`` — and never calls back — when the
        station is at ``capacity`` (dropped) or the request balked.
        Zero-work requests complete immediately (still counted as
        completions).
        """
        # Fast path for the common finite non-negative float; anything else
        # gets the full check (and its ValidationError).
        if not (work_ms.__class__ is float and 0.0 <= work_ms < _INF):
            check_non_negative_real(work_ms, "work_ms")
        self._advance()
        self.stats.arrivals += 1
        if not _admit(self, self.total_in_system):
            return False
        if work_ms <= _WORK_EPS:
            self.stats.completions += 1
            done_cb()
            return True
        if len(self._in_service) < self.max_concurrency:
            self._start(work_ms, done_cb)
            self._reschedule()
        else:
            self._queue.append((work_ms, done_cb))
        self._track_peak()
        return True

    @property
    def in_service(self) -> int:
        """Number of requests currently time-sharing the CPU."""
        return len(self._in_service)

    @property
    def queued(self) -> int:
        """Number of requests waiting for admission."""
        return len(self._queue)

    @property
    def total_in_system(self) -> int:
        """Requests in service plus requests queued."""
        return len(self._in_service) + len(self._queue)

    def reset_stats(self) -> None:
        """Restart the measurement window at the current instant.

        Called at the end of the warm-up period so steady-state metrics
        exclude the ramp-up transient.
        """
        self._advance()
        self.stats = StationStats(window_start_ms=self.sim.now)
        self._track_peak()

    # -- internals ----------------------------------------------------------

    def _track_peak(self) -> None:
        n = self.total_in_system
        if n > self.stats.peak_in_system:
            self.stats.peak_in_system = n

    def _start(self, work_ms: float, done_cb: Callable[[], None]) -> None:
        """Put a job into service: it finishes ``work_ms`` of virtual time on."""
        self._seq += 1
        heappush(self._in_service, (self._vclock + work_ms, self._seq, done_cb))

    def _advance(self) -> None:
        """Move the virtual clock and the counters up to the current instant."""
        now = self.sim.now
        elapsed = now - self._last_update_ms
        if elapsed < 0:
            raise SimulationError(f"{self.name}: clock moved backwards")
        if elapsed > 0:
            n = len(self._in_service)
            n_queued = len(self._queue)
            stats = self.stats
            if n > 0:
                busy_cores = min(n, self.cores)
                self._vclock += elapsed * self.speed * busy_cores / n
                # Utilisation is per core: n jobs keep min(n, cores) cores busy.
                stats.busy_time_ms += elapsed * (busy_cores / self.cores)
                stats.work_done_ms += elapsed * self.speed * busy_cores
            stats.area_in_system += elapsed * (n + n_queued)
            stats.area_in_queue += elapsed * n_queued
        self._last_update_ms = now

    def _reschedule(self) -> None:
        """(Re)schedule the completion event for the smallest finish tag.

        Called whenever the in-service set changes, which is the only
        thing that changes the per-job rate, and when a completion has to
        wait for a sliver of work.
        """
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        in_service = self._in_service
        if not in_service:
            return
        self._completion_event = self.sim.schedule(
            self._head_delay(), self._on_completion, priority=EventPriority.DEPARTURE
        )

    def _head_delay(self) -> float:
        """Wall-clock ms until the smallest finish tag, at the current rate."""
        n = len(self._in_service)
        rate = self.speed * min(n, self.cores) / n  # per-job progress rate
        return max(self._in_service[0][0] - self._vclock, 0.0) / rate

    def _on_completion(self) -> None:
        self._completion_event = None
        self._advance()
        in_service = self._in_service
        if in_service[0][0] > self._vclock + _WORK_EPS:
            # Float drift: this event's job still has a sliver of work.
            # Wait for it, unless the sliver is below the resolution of
            # the clock, where waiting would never advance it.
            now = self.sim.now
            if now + self._head_delay() > now:
                self._reschedule()
                return
            self._vclock = in_service[0][0]
        limit = self._vclock + _WORK_EPS
        finished = []
        while in_service and in_service[0][0] <= limit:
            finished.append(heappop(in_service)[2])
        queue = self._queue
        while queue and len(in_service) < self.max_concurrency:
            self._start(*queue.popleft())
        if not in_service:
            # Empty: restart the clock at zero, so tags stay on the scale of
            # one busy period and keep their precision.
            self._vclock = 0.0
        self._reschedule()
        # Callbacks run after the station state is consistent so re-entrant
        # submits from a callback see the post-departure state.
        stats = self.stats
        for done_cb in finished:
            stats.completions += 1
            done_cb()


@dataclass(slots=True, eq=False)
class _FifoJob:
    service_ms: float
    done_cb: Callable[[], None]
    arrived_ms: float
    completion: Event | None = field(default=None)


class FifoServer:
    """``c`` first-come-first-served servers with a shared FIFO queue.

    ``capacity`` optionally bounds the total requests at the station (the
    ``K`` of M/M/c/K): an arrival finding it full is dropped —
    :meth:`submit` returns ``False`` and ``stats.drops`` counts it.  A
    ``balk_fn``/``rng`` pair adds a client-side balk-probability curve.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        speed: float = 1.0,
        servers: int = 1,
        capacity: int | None = None,
        balk_fn: Callable[[int], float] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.speed = check_positive(speed, "speed")
        self.servers = check_positive_int(servers, "servers")
        self.capacity = _check_capacity(capacity, self.servers)
        self.balk_fn = balk_fn
        self._balk_rng = rng
        require(
            balk_fn is None or rng is not None,
            f"{name}: a balk_fn needs an rng to sample against",
        )
        self._queue: deque[_FifoJob] = deque()
        self._busy: int = 0
        self._last_update_ms: float = sim.now
        self.stats = StationStats(window_start_ms=sim.now)

    def submit(self, service_ms: float, done_cb: Callable[[], None]) -> bool:
        """Offer a request needing ``service_ms`` of service (at speed 1.0).

        Returns ``True`` when admitted (``done_cb`` fires at completion),
        ``False`` when dropped at ``capacity`` or balked — no callback.
        """
        if not (service_ms.__class__ is float and 0.0 <= service_ms < _INF):
            check_non_negative_real(service_ms, "service_ms")
        self._accumulate()
        self.stats.arrivals += 1
        if not _admit(self, self.total_in_system):
            return False
        job = _FifoJob(service_ms=service_ms, done_cb=done_cb, arrived_ms=self.sim.now)
        if self._busy < self.servers:
            self._start(job)
        else:
            self._queue.append(job)
        self._track_peak()
        return True

    @property
    def in_service(self) -> int:
        """Requests currently being served."""
        return self._busy

    @property
    def queued(self) -> int:
        """Requests waiting for a free server."""
        return len(self._queue)

    @property
    def total_in_system(self) -> int:
        """Requests in service plus requests queued."""
        return self._busy + len(self._queue)

    def reset_stats(self) -> None:
        """Restart the measurement window at the current instant."""
        self._accumulate()
        self.stats = StationStats(window_start_ms=self.sim.now)
        self._track_peak()

    def _track_peak(self) -> None:
        n = self.total_in_system
        if n > self.stats.peak_in_system:
            self.stats.peak_in_system = n

    def _accumulate(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_update_ms
        if elapsed > 0:
            self.stats.area_in_system += elapsed * self.total_in_system
            self.stats.area_in_queue += elapsed * len(self._queue)
            # busy_time is per-station fraction: scale by busy servers / c.
            self.stats.busy_time_ms += elapsed * (self._busy / self.servers)
            self.stats.work_done_ms += elapsed * self._busy * self.speed
        self._last_update_ms = now

    def _start(self, job: _FifoJob) -> None:
        self._busy += 1
        duration = job.service_ms / self.speed
        job.completion = self.sim.schedule(
            duration, lambda j=job: self._finish(j), priority=EventPriority.DEPARTURE
        )

    def _finish(self, job: _FifoJob) -> None:
        self._accumulate()
        self._busy -= 1
        if self._queue:
            self._start(self._queue.popleft())
        self.stats.completions += 1
        job.done_cb()


class ThreadPool:
    """A counting semaphore modelling a server's worker-thread pool.

    A request must hold a thread for its whole service path (CPU bursts plus
    blocking database calls); the pool size is therefore the server's
    concurrency limit (50 for application servers, 20 for the database in
    the paper's case study).  Requests beyond the limit wait in arrival
    order — the "single FIFO waiting queue used by each application server".

    ``acquire`` optionally takes a *priority* (lower value = more urgent,
    default 0): waiters are served in (priority, arrival) order, which
    implements the "priority queuing disciplines" system-model variation of
    section 8.1.  With all-default priorities the pool is plain FIFO.

    ``queue_capacity`` optionally bounds *total* occupancy (threads held
    plus waiters — the ``K`` of M/M/c/K with ``c = capacity`` threads): an
    arrival finding the pool at the bound is dropped, :meth:`acquire`
    returns ``False``, and ``stats.drops`` counts it.  This is the load-
    shedding bound of a real front-end's accept queue.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity: int,
        *,
        queue_capacity: int | None = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.capacity = check_positive_int(capacity, "capacity")
        self.queue_capacity = _check_capacity(queue_capacity, self.capacity)
        self._in_use = 0
        # Heap of (priority, seq, callback); seq preserves FIFO within a
        # priority level.
        self._waiters: list[tuple[int, int, Callable[[], None]]] = []
        self._waiter_seq = 0
        self._last_update_ms = sim.now
        self.stats = StationStats(window_start_ms=sim.now)

    @property
    def in_use(self) -> int:
        """Threads currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Requests waiting for a thread."""
        return len(self._waiters)

    @property
    def total_in_system(self) -> int:
        """Threads held plus requests waiting for one."""
        return self._in_use + len(self._waiters)

    def acquire(self, granted_cb: Callable[[], None], *, priority: int = 0) -> bool:
        """Request a thread; ``granted_cb`` fires when one is assigned.

        The grant may be synchronous (pool not full) or deferred (priority
        order, FIFO within a priority).  Returns ``True`` when the request
        was admitted; ``False`` — and ``granted_cb`` never fires — when a
        ``queue_capacity`` bound rejected it.
        """
        self._accumulate()
        self.stats.arrivals += 1
        if (
            self.queue_capacity is not None
            and self.total_in_system >= self.queue_capacity
        ):
            self.stats.drops += 1
            if TRACER.enabled:
                TRACER.instant(
                    "sim.drop", station=self.name, in_system=self.total_in_system
                )
            return False
        if self._in_use < self.capacity:
            self._in_use += 1
            self._track_peak()
            granted_cb()
        else:
            heappush(self._waiters, (priority, self._waiter_seq, granted_cb))
            self._waiter_seq += 1
            self._track_peak()
        return True

    def release(self) -> None:
        """Return a thread; the most urgent longest-waiting request gets it."""
        self._accumulate()
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release() without acquire()")
        if self._waiters:
            # Thread passes directly to the next waiter; _in_use unchanged.
            _, _, waiter = heappop(self._waiters)
            self.stats.completions += 1
            waiter()
        else:
            self._in_use -= 1
            self.stats.completions += 1

    def reset_stats(self) -> None:
        """Restart the measurement window at the current instant."""
        self._accumulate()
        self.stats = StationStats(window_start_ms=self.sim.now)
        self._track_peak()

    def _track_peak(self) -> None:
        n = self.total_in_system
        if n > self.stats.peak_in_system:
            self.stats.peak_in_system = n

    def _accumulate(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_update_ms
        if elapsed > 0:
            self.stats.area_in_system += elapsed * self.total_in_system
            self.stats.area_in_queue += elapsed * len(self._waiters)
            self.stats.busy_time_ms += elapsed * (self._in_use / self.capacity)
        self._last_update_ms = now
