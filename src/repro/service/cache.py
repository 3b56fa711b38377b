"""TTL + LRU memoization of prediction results, keyed on quantized inputs.

Section 8.5's finding is that the layered queuing method's per-solve
delay (milliseconds to seconds) is what prices it out of online use.  A
serving layer changes that arithmetic: resource managers ask for the
same operating points over and over (the same server at the same load
band while an allocation is being searched), so a small quantized cache
turns the *second* identical question into a microsecond lookup — the
historical method's delay class — regardless of which method answers
the first.

Keys quantize ``(server, operand, buy_fraction)`` onto a grid (default:
whole clients, 1 % buy-mix steps) so that float jitter in callers maps
to the same entry; the TTL bounds staleness between recalibrations, and
:meth:`PredictionCache.invalidate` drops entries eagerly when a model is
recalibrated (section 4.2's workload-manager loop).
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, NamedTuple

from repro.faults.injector import INJECTOR
from repro.util.validation import (
    check_finite,
    check_non_negative,
    check_positive_int,
    require,
)

__all__ = ["CacheKey", "CacheStats", "PredictionCache", "quantize_key"]


class CacheKey(NamedTuple):
    """A hashable, quantized identity of one prediction request.

    ``operand_q`` is the quantized main operand — client count for
    mean-response-time/throughput queries, the response-time goal (ms)
    for capacity queries — and ``buy_q`` the quantized buy-mix step, so
    two requests inside the same grid cell share one entry.  A tuple, so
    it is built, hashed and compared in C on every cache lookup.
    """

    server: str
    kind: str
    operand_q: int
    buy_q: int


def quantize_key(
    server: str,
    kind: str,
    operand: float,
    buy_fraction: float,
    *,
    operand_step: float = 1.0,
    buy_step: float = 0.01,
) -> CacheKey:
    """Quantize one request onto the cache grid.

    ``operand_step`` is the client-count (or goal) granularity and
    ``buy_step`` the buy-fraction granularity; both default to the
    resolutions at which the paper's models are meaningfully distinct
    (whole clients, 1 % mix steps).  Coarser steps raise hit rates at
    the price of answering from a neighbouring operating point.

    A NaN, infinite or negative ``operand`` and a NaN or infinite
    ``buy_fraction`` raise :class:`~repro.util.errors.ValidationError`
    here, so a bad request never reaches the cache, the pool or a
    circuit breaker.
    """
    if not (operand_step > 0.0 and buy_step > 0.0):
        require(operand_step > 0.0, "operand_step must be positive")
        require(buy_step > 0.0, "buy_step must be positive")
    if not (0.0 <= operand < math.inf and math.isfinite(buy_fraction)):
        check_non_negative(operand, "operand")
        check_finite(buy_fraction, "buy_fraction")
    return CacheKey(
        server,
        kind,
        int(round(operand / operand_step)),
        int(round(buy_fraction / buy_step)),
    )


@dataclass
class CacheStats:
    """A point-in-time snapshot of cache effectiveness counters."""

    requests: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidated: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered from the cache (0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0


class _Sentinel:
    """Internal marker distinguishing 'no entry' from a cached ``None``."""


_MISS = _Sentinel()


class PredictionCache:
    """A thread-safe TTL + LRU cache of prediction values.

    * **LRU**: at most ``max_entries`` live at once; the least recently
      *used* entry is evicted first, which matches the resource
      manager's access pattern (it revisits the loads near the current
      allocation frontier far more often than historic ones).
    * **TTL**: entries older than ``ttl_s`` are treated as misses and
      dropped on access, bounding how stale a served prediction can be
      between recalibrations.  ``ttl_s=None`` disables expiry.
    * **Invalidation**: :meth:`invalidate` drops everything (or one
      server's entries) immediately — the hook the online
      recalibration workflow calls after refitting a model.

    The ``clock`` is injectable so TTL behaviour is testable without
    sleeping; with ``ttl_s=None`` it is never read.
    """

    def __init__(
        self,
        *,
        max_entries: int = 4096,
        ttl_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        check_positive_int(max_entries, "max_entries")
        if ttl_s is not None:
            require(ttl_s > 0.0, "ttl_s must be positive (or None to disable)")
        self._max_entries = max_entries
        self._ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[Any, float]] = OrderedDict()
        self._stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> tuple[bool, Any]:
        """Look up ``key``; returns ``(hit, value)`` and updates stats.

        A present-but-expired entry counts as a miss (and one
        expiration) and is removed, so the caller recomputes it.

        Two chaos injection sites live here: a TRIP at
        ``service.cache.expire`` forces a present, unexpired entry to be
        treated as expired, and a CORRUPT at ``service.cache.value``
        transforms a hit's value.  Both are consulted *outside* the
        cache lock so the injector's session lock never nests inside it,
        which makes the armed lookup two-phase: first find a would-be
        hit under the lock, then consult the TRIP, then re-take the lock
        to drop (or serve) it.  Consulting only would-be hits keeps the
        spec's injected count equal to entries actually forcibly
        expired — plain misses never advance it.
        """
        now = self._clock() if self._ttl_s is not None else 0.0
        armed = INJECTOR.armed
        with self._lock:
            self._stats.requests += 1
            entry = self._entries.get(key, _MISS)
            if entry is _MISS:
                self._stats.misses += 1
                return False, None
            value, stored_at = entry
            if self._ttl_s is not None and now - stored_at > self._ttl_s:
                del self._entries[key]
                self._stats.expirations += 1
                self._stats.misses += 1
                return False, None
            if not armed:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                return True, value
        # Armed second phase: the entry was present and unexpired.
        if INJECTOR.trips("service.cache.expire"):
            with self._lock:
                # Drop the exact entry we saw; a concurrent put() made a
                # fresh tuple, which the forced expiry then spares.
                if self._entries.get(key) is entry:
                    del self._entries[key]
                self._stats.expirations += 1
                self._stats.misses += 1
            return False, None
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._stats.hits += 1
        return True, INJECTOR.filter("service.cache.value", value)

    def put(self, key: CacheKey, value: Any) -> None:
        """Insert/refresh ``key``, evicting the LRU entry when full."""
        now = self._clock() if self._ttl_s is not None else 0.0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, now)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._stats.evictions += 1

    def invalidate(self, server: str | None = None) -> int:
        """Drop all entries (or only ``server``'s); returns how many.

        Call this after recalibrating the backing model so no prediction
        computed under the old fit is ever served again.
        """
        with self._lock:
            if server is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                doomed = [k for k in self._entries if k.server == server]
                for key in doomed:
                    del self._entries[key]
                dropped = len(doomed)
            self._stats.invalidated += dropped
            return dropped

    def stats(self) -> CacheStats:
        """A consistent snapshot of the effectiveness counters."""
        with self._lock:
            return CacheStats(
                requests=self._stats.requests,
                hits=self._stats.hits,
                misses=self._stats.misses,
                evictions=self._stats.evictions,
                expirations=self._stats.expirations,
                invalidated=self._stats.invalidated,
            )
