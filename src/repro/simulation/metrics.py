"""Measurement collection for simulation runs.

Response-time samples are kept in full (the experiments record at most a few
hundred thousand per run) so that percentile metrics — which section 7.1 of
the paper predicts from extrapolated distributions — can be computed exactly
from the simulated ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.util.units import throughput_req_per_s
from repro.util.validation import check_fraction, check_non_negative_real

__all__ = ["ResponseTimeStats", "MetricsCollector"]

_INF = math.inf


@dataclass
class ResponseTimeStats:
    """Streaming response-time statistics for one measurement stream."""

    samples: list[float] = field(default_factory=list)

    def record(self, response_ms: float) -> None:
        """Record one completed request's response time (ms)."""
        # Fast path for the common finite non-negative float; anything else
        # gets the full check (and its ValidationError).
        if not (response_ms.__class__ is float and 0.0 <= response_ms < _INF):
            check_non_negative_real(response_ms, "response_ms")
        self.samples.append(response_ms)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self.samples)

    @property
    def mean(self) -> float:
        """Mean response time (ms); NaN when no samples were recorded."""
        if not self.samples:
            return float("nan")
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        """Sample standard deviation (ms); NaN with fewer than 2 samples."""
        if len(self.samples) < 2:
            return float("nan")
        return float(np.std(self.samples, ddof=1))

    def percentile(self, p: float) -> float:
        """The ``p``-quantile of response time, ``p`` in [0, 1]."""
        check_fraction(p, "p")
        if not self.samples:
            return float("nan")
        return float(np.percentile(self.samples, 100.0 * p))

    def fraction_below(self, threshold_ms: float) -> float:
        """Fraction of samples at or below ``threshold_ms`` (empirical CDF)."""
        if not self.samples:
            return float("nan")
        arr = np.asarray(self.samples)
        return float(np.mean(arr <= threshold_ms))

    def confidence_halfwidth(self, z: float = 1.96) -> float:
        """Half-width of the normal-approximation CI on the mean (ms)."""
        n = len(self.samples)
        if n < 2:
            return float("nan")
        return z * self.std / float(np.sqrt(n))

    def as_array(self) -> np.ndarray:
        """All samples as a NumPy array (a copy)."""
        return np.asarray(self.samples, dtype=float)


class MetricsCollector:
    """Per-service-class response times and completion counts for one run.

    The collector has a *measuring* flag so warm-up completions (the paper
    uses a 1-minute warm-up) are excluded from statistics.
    """

    def __init__(self, *, capture_trace: bool = False) -> None:
        self._per_class: dict[str, ResponseTimeStats] = {}
        self._overall = ResponseTimeStats()
        self.measuring = False
        self.window_start_ms = 0.0
        self.window_end_ms = 0.0
        self.warmup_completions = 0
        # Dropped (shed) requests per service class within the measurement
        # window; warm-up drops are counted separately, mirroring how
        # warm-up completions are excluded from response statistics.
        self._drops: dict[str, int] = {}
        self.dropped_total = 0
        self.warmup_drops = 0
        # Optional (time, class, response) trace for transient studies —
        # recorded for *every* completion, warm-up included, since transient
        # analysis is precisely about the warm-up.
        self.capture_trace = capture_trace
        self.trace: list[tuple[float, str, float]] = []
        self._now_provider = None

    def attach_clock(self, now_provider) -> None:
        """Provide a time source (the simulator's ``now``) for the trace."""
        self._now_provider = now_provider

    def start_measuring(self, now_ms: float) -> None:
        """Begin the steady-state measurement window at ``now_ms``."""
        self.measuring = True
        self.window_start_ms = now_ms

    def stop_measuring(self, now_ms: float) -> None:
        """Close the measurement window at ``now_ms``."""
        self.measuring = False
        self.window_end_ms = now_ms

    def record(self, service_class: str, response_ms: float) -> None:
        """Record a completed request for ``service_class`` (if measuring)."""
        if self.capture_trace and self._now_provider is not None:
            self.trace.append((self._now_provider(), service_class, response_ms))
        if not self.measuring:
            self.warmup_completions += 1
            return
        self._overall.record(response_ms)
        if service_class not in self._per_class:
            self._per_class[service_class] = ResponseTimeStats()
        self._per_class[service_class].record(response_ms)

    def record_drop(self, service_class: str) -> None:
        """Record a shed (dropped or balked) request for ``service_class``.

        A drop has no response time — the request never entered service —
        so it feeds the loss-rate metrics instead of the response
        statistics.  Warm-up drops are excluded like warm-up completions.
        """
        if not self.measuring:
            self.warmup_drops += 1
            return
        self.dropped_total += 1
        self._drops[service_class] = self._drops.get(service_class, 0) + 1

    def drops_for(self, service_class: str) -> int:
        """Measured-window drops recorded for one service class."""
        return self._drops.get(service_class, 0)

    def drop_class_names(self) -> list[str]:
        """Service classes with at least one recorded drop."""
        return sorted(self._drops)

    @property
    def loss_rate(self) -> float:
        """Dropped fraction of offered requests in the measurement window."""
        offered = self.dropped_total + self._overall.count
        return self.dropped_total / offered if offered else 0.0

    def loss_rate_for(self, service_class: str) -> float:
        """Per-class dropped fraction of offered requests."""
        drops = self._drops.get(service_class, 0)
        offered = drops + self.for_class(service_class).count
        return drops / offered if offered else 0.0

    @property
    def overall(self) -> ResponseTimeStats:
        """Statistics aggregated over all service classes."""
        return self._overall

    def for_class(self, service_class: str) -> ResponseTimeStats:
        """Statistics for one service class (empty stats if none recorded)."""
        return self._per_class.get(service_class, ResponseTimeStats())

    def class_names(self) -> list[str]:
        """Service classes with at least one recorded completion."""
        return sorted(self._per_class)

    @property
    def window_ms(self) -> float:
        """Length of the measurement window (ms)."""
        return self.window_end_ms - self.window_start_ms

    def throughput_req_per_s(self, service_class: str | None = None) -> float:
        """Completed requests per second over the measurement window."""
        stats = self._overall if service_class is None else self.for_class(service_class)
        return throughput_req_per_s(stats.count, self.window_ms)
