"""Thread-safe service metrics: counters, gauges and latency histograms.

A resource manager operating a shared prediction service wants tail
latencies (p95/p99, not just the mean), cache hit rates and degradation
counts, all collected concurrently from many threads.  This module
provides that registry.  A :class:`LatencyHistogram` keeps the count,
total and mean of its observations and adds fixed-bucket quantile
export on top.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

from repro.util.validation import check_non_negative, require

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "HistogramSnapshot",
    "MetricsSnapshot",
    "bucket_quantile",
]

# Log-spaced bounds from 1 µs to 30 s: fine enough to separate a
# closed-form historical lookup (µs) from an LQN solve (ms-to-s) in one
# histogram. The final +inf bucket catches anything slower.
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = tuple(
    10.0 ** (e / 3.0) for e in range(-18, 5)
) + (30.0,)


def bucket_quantile(
    bounds: Sequence[float],
    counts: Sequence[int],
    count: int,
    max_s: float,
    q: float,
) -> float:
    """The fixed-bucket quantile estimator, as a pure function of bucket state.

    Linear interpolation inside the bucket containing rank ``q * count``;
    the overflow bucket reports ``max_s``.  Both the live
    :class:`LatencyHistogram` and its :class:`HistogramSnapshot`
    delegate here, so the live and exported percentiles share one
    estimator.

    This is the bounded-memory estimator; exact sample quantiles are
    :meth:`repro.simulation.metrics.ResponseTimeStats.percentile`'s
    linear interpolation.  Error: the estimate lies in the bucket holding
    the ``ceil(q * count)``-th smallest observation, so it is within one
    bucket width of that order statistic.  The interpolated quantile
    differs from it by at most the gap to the next order statistic, which
    closes as ``count`` grows.  With :data:`DEFAULT_LATENCY_BUCKETS_S`,
    whose bounds are 10^(1/3) apart, a bucket above 1 µs is at most 1.16
    times its lower bound wide.
    """
    require(0.0 <= q <= 1.0, "quantile must be in [0, 1]")
    if count == 0:
        return 0.0
    rank = q * count
    cumulative = 0
    for i, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= rank:
            if i >= len(bounds):  # overflow bucket
                return max_s
            lower = bounds[i - 1] if i > 0 else 0.0
            upper = min(bounds[i], max_s)
            upper = max(upper, lower)
            fraction = (rank - cumulative) / bucket_count
            return lower + fraction * (upper - lower)
        cumulative += bucket_count
    return max_s  # pragma: no cover - defensive


class Counter:
    """A monotonically increasing, thread-safe event counter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value


class Gauge:
    """A thread-safe instantaneous value (queue depth, in-flight count...)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        """Shift the gauge's value by ``delta`` (may be negative)."""
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value


class LatencyHistogram:
    """A fixed-bucket latency histogram with interpolated quantile export.

    Buckets are defined by their (sorted, strictly increasing) upper
    bounds in seconds; one implicit overflow bucket catches observations
    above the last bound.  Quantiles are estimated by linear
    interpolation inside the bucket containing the requested rank, which
    is the standard fixed-bucket (Prometheus-style) estimator: exact
    enough for the p50/p95/p99 the service exports, with O(1)
    memory regardless of request volume.
    """

    def __init__(self, buckets_s: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S):
        require(len(buckets_s) > 0, "histogram needs at least one bucket bound")
        require(
            all(b > a for a, b in zip(buckets_s, buckets_s[1:])),
            "histogram bucket bounds must be strictly increasing",
        )
        self._bounds = tuple(float(b) for b in buckets_s)
        self._counts = [0] * (len(self._bounds) + 1)  # +1 overflow
        self._lock = threading.Lock()
        self._count = 0
        self._total_s = 0.0
        self._max_s = 0.0

    def observe(self, elapsed_s: float) -> None:
        """Record one observation (seconds); NaN, ±inf and negatives raise
        :class:`~repro.util.errors.ValidationError`."""
        if not 0.0 <= elapsed_s < math.inf:
            check_non_negative(elapsed_s, "elapsed_s")
        index = bisect_left(self._bounds, elapsed_s)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._total_s += elapsed_s
            if elapsed_s > self._max_s:
                self._max_s = elapsed_s

    @property
    def count(self) -> int:
        """Number of observations."""
        with self._lock:
            return self._count

    @property
    def total_s(self) -> float:
        """Sum of observations (s)."""
        with self._lock:
            return self._total_s

    @property
    def mean_s(self) -> float:
        """Mean observation (s)."""
        with self._lock:
            return self._total_s / self._count if self._count else 0.0

    @property
    def max_s(self) -> float:
        """Largest observation seen."""
        with self._lock:
            return self._max_s

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (seconds), 0 when empty.

        Delegates to :func:`bucket_quantile` on a consistent snapshot of
        the bucket state, so live and snapshot quantiles share one
        estimator.
        """
        with self._lock:
            counts = tuple(self._counts)
            count = self._count
            max_s = self._max_s
        return bucket_quantile(self._bounds, counts, count, max_s, q)

    def percentiles(self) -> dict[str, float]:
        """The p50/p95/p99 export (seconds) the serving reports print."""
        return {
            "p50_s": self.quantile(0.50),
            "p95_s": self.quantile(0.95),
            "p99_s": self.quantile(0.99),
        }

    def snapshot(self) -> "HistogramSnapshot":
        """A consistent copy of the full bucket state."""
        with self._lock:
            return HistogramSnapshot(
                bounds=self._bounds,
                counts=tuple(self._counts),
                count=self._count,
                total_s=self._total_s,
                max_s=self._max_s,
            )


class MetricsRegistry:
    """A named registry of counters, gauges and latency histograms.

    Instruments are created on first access (``registry.counter("hits")``)
    and shared thereafter, so concurrent callers always increment the
    same underlying instrument.  :meth:`export` flattens everything into
    one ``{name: value}`` dict for rendering or assertions.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        """Get (creating on first use) the counter called ``name``."""
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter()
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """Get (creating on first use) the gauge called ``name``."""
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge()
            return self._gauges[name]

    def histogram(
        self, name: str, buckets_s: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S
    ) -> LatencyHistogram:
        """Get (creating on first use) the latency histogram ``name``."""
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = LatencyHistogram(buckets_s)
            return self._histograms[name]

    def export(self) -> dict[str, float]:
        """Flatten every instrument into one ``{metric_name: value}`` dict.

        Histograms export ``<name>.count``, ``<name>.total_s``,
        ``<name>.mean_s``, ``<name>.max_s`` and the three standard
        percentiles, so a single dict carries the whole service state.
        Equivalent to ``self.snapshot().export()``: both go through the
        one snapshot path, so they cannot drift.
        """
        return self.snapshot().export()

    def snapshot(self) -> "MetricsSnapshot":
        """A consistent, point-in-time copy of every instrument.

        Reads every instrument once, so a caller that needs several
        values from one moment (an experiment's counter deltas, the
        flat :meth:`export`) sees them together.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return MetricsSnapshot(
            counters={name: counter.value for name, counter in sorted(counters.items())},
            gauges={name: gauge.value for name, gauge in sorted(gauges.items())},
            histograms={
                name: histogram.snapshot()
                for name, histogram in sorted(histograms.items())
            },
        )


@dataclass(frozen=True)
class HistogramSnapshot:
    """The full state of one fixed-bucket latency histogram at one moment.

    Quantiles computed from it equal the live histogram's at the moment
    it was taken: both delegate to :func:`bucket_quantile`.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]  # len(bounds) + 1: the last entry is overflow
    count: int
    total_s: float
    max_s: float

    @property
    def mean_s(self) -> float:
        """Mean observation (0 when empty)."""
        return self.total_s / self.count if self.count else 0.0

    @classmethod
    def merge(cls, snapshots: Sequence["HistogramSnapshot"]) -> "HistogramSnapshot":
        """One snapshot of every observation in ``snapshots`` (at least one).

        Counts, ``max_s`` and quantiles equal one histogram's fed them all;
        ``total_s`` can differ from it by float summation order.
        """
        bounds = snapshots[0].bounds
        require(
            all(s.bounds == bounds for s in snapshots),
            "only histograms with the same bucket bounds can be merged",
        )
        return cls(
            bounds=bounds,
            counts=tuple(map(sum, zip(*(s.counts for s in snapshots)))),
            count=sum(s.count for s in snapshots),
            total_s=sum(s.total_s for s in snapshots),
            max_s=max(s.max_s for s in snapshots),
        )

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (seconds) from the bucket state."""
        return bucket_quantile(self.bounds, self.counts, self.count, self.max_s, q)

    def percentiles(self) -> dict[str, float]:
        """The standard p50/p95/p99 export (seconds)."""
        return {
            "p50_s": self.quantile(0.50),
            "p95_s": self.quantile(0.95),
            "p99_s": self.quantile(0.99),
        }


@dataclass(frozen=True)
class MetricsSnapshot:
    """A point-in-time copy of one registry's instruments."""

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)

    def export(self) -> dict[str, float]:
        """The flat ``{metric_name: value}`` dict (registry-export shape)."""
        out: dict[str, float] = {}
        for name, value in sorted(self.counters.items()):
            out[name] = value
        for name, value in sorted(self.gauges.items()):
            out[name] = value
        for name, histogram in sorted(self.histograms.items()):
            out[f"{name}.count"] = histogram.count
            out[f"{name}.total_s"] = histogram.total_s
            out[f"{name}.mean_s"] = histogram.mean_s
            out[f"{name}.max_s"] = histogram.max_s
            for key, value in histogram.percentiles().items():
                out[f"{name}.{key}"] = value
        return out
