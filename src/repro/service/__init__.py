"""The online prediction-serving layer.

Section 8.5 of the paper establishes that prediction *delay* decides
which method a resource manager can afford online: historical answers in
microseconds, the layered method in milliseconds-to-seconds per solve
(worse for capacity searches).  This subsystem turns any
:class:`~repro.prediction.interface.Predictor` into a concurrent online
service that changes that arithmetic:

* :mod:`repro.service.cache` — TTL+LRU memoization on a quantized
  operating-point grid, with explicit invalidation for recalibration;
* :mod:`repro.service.pool` — a worker pool with in-flight request
  coalescing (N concurrent identical LQN solves cost one solve);
* :mod:`repro.service.admission` — bounded admission, per-request
  deadlines and transient-error retries with exponential backoff;
* :mod:`repro.service.metrics` — counters/gauges/latency histograms
  with p50/p95/p99 export, the service's one record of request delays;
* :mod:`repro.service.breaker` — a clock-injected circuit breaker with
  an EWMA health score, shielding the fallback path from a primary that
  is failing repeatedly (exercised by ``repro.faults`` chaos plans);
* :mod:`repro.service.service` — the :class:`PredictionService` facade
  composing all of the above behind the ``Predictor`` protocol, with
  graceful degradation to a registered fast fallback predictor;
* :mod:`repro.service.loadgen` — closed-loop, multi-threaded
  wall-clock load generation against any ``Predictor``-protocol target.
"""

from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    PredictionTimeoutError,
    ServiceSaturatedError,
    call_with_retries,
)
from repro.service.breaker import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
)
from repro.service.cache import CacheKey, CacheStats, PredictionCache, quantize_key
from repro.service.loadgen import LoadGenConfig, LoadGenerator, LoadReport
from repro.service.metrics import (
    Counter,
    Gauge,
    HistogramSnapshot,
    LatencyHistogram,
    MetricsRegistry,
    MetricsSnapshot,
    bucket_quantile,
)
from repro.service.pool import CoalescingPool, PoolStats
from repro.service.service import PredictionService, ServiceConfig

__all__ = [
    "PredictionService",
    "ServiceConfig",
    "PredictionCache",
    "CacheKey",
    "CacheStats",
    "quantize_key",
    "CoalescingPool",
    "PoolStats",
    "AdmissionConfig",
    "AdmissionController",
    "ServiceSaturatedError",
    "PredictionTimeoutError",
    "call_with_retries",
    "BreakerState",
    "BreakerConfig",
    "CircuitBreaker",
    "CircuitOpenError",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "HistogramSnapshot",
    "MetricsSnapshot",
    "bucket_quantile",
    "LoadGenerator",
    "LoadGenConfig",
    "LoadReport",
]
