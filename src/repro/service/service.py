"""The :class:`PredictionService` facade — any predictor, served online.

Composes the serving-layer pieces (quantized TTL+LRU cache, coalescing
thread pool, bounded admission with retries, metrics) behind the
existing :class:`~repro.prediction.interface.Predictor` protocol, so a
resource manager or experiment written against a raw predictor runs on
the service unchanged — it just gets concurrency, memoization and
graceful degradation for free.

Degradation policy (in the order it is applied):

1. **Cache hit** → answer in microseconds, whatever the backing method.
2. **Admission rejection** (bounded queue full) → answer from the
   registered ``fallback`` predictor immediately (the paper's
   historical method is the natural fallback: closed-form, ~µs); no
   fallback → :class:`~repro.service.admission.ServiceSaturatedError`.
3. **Open circuit breaker** (when :attr:`ServiceConfig.breaker` is set)
   → fallback immediately, without spending a retry budget on a primary
   known to be failing; no fallback →
   :class:`~repro.service.breaker.CircuitOpenError`.
4. **Transient failure** (``CalibrationError``/``ConvergenceError``)
   → bounded retries with exponential backoff, then fallback/raise.
5. **Deadline miss** → fallback (the abandoned solve still completes on
   the pool and populates the cache for future requests); no fallback →
   :class:`~repro.service.admission.PredictionTimeoutError`.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable

from repro.prediction.interface import Predictor
from repro.service.admission import (
    TRANSIENT_ERRORS,
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
from repro.service.cache import PredictionCache, quantize_key
from repro.service.metrics import (
    HistogramSnapshot,
    LatencyHistogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.service.pool import CoalescingPool
from repro.trace import TRACER
from repro.util.clock import SYSTEM_CLOCK, Clock

__all__ = ["ServiceConfig", "PredictionService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`PredictionService` instance."""

    max_workers: int = 4
    cache_entries: int = 4096
    cache_ttl_s: float | None = None
    operand_step: float = 1.0  # cache-grid step for client counts / RT goals
    buy_step: float = 0.01  # cache-grid step for the buy fraction
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    # None = no circuit breaker (every request tries the primary).
    breaker: BreakerConfig | None = None


class PredictionService:
    """Serve a :class:`~repro.prediction.interface.Predictor` online.

    Satisfies the ``Predictor`` protocol itself (``name`` and the three
    query methods), so it can stand wherever a raw predictor
    does — as a resource manager's model, as ground truth in
    :func:`~repro.resource_manager.runtime.evaluate_runtime`, or under
    the section-8.5 delay experiment — while adding:

    * memoization on the quantized operating-point grid;
    * a worker pool with in-flight coalescing (N concurrent identical
      LQN solves cost one solve);
    * bounded admission, per-request deadlines, transient-error retries
      and graceful degradation to a fast ``fallback`` predictor;
    * a metrics registry exporting hit rates, p50/p95/p99 latencies and
      degradation counts.

    Every served request is timed once, into the ``latency.<kind>``
    histogram of its query; :meth:`metrics_snapshot` and
    :meth:`export_metrics` report the *service-level* delays (what a
    caller experienced, cache hits included) merged as ``latency.*``.
    """

    def __init__(
        self,
        primary: Predictor,
        *,
        fallback: Predictor | None = None,
        config: ServiceConfig | None = None,
        name: str | None = None,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self.primary = primary
        self._clock = clock
        self.fallback = fallback
        self.config = config or ServiceConfig()
        self.name = name if name is not None else f"service({primary.name})"
        self.metrics = MetricsRegistry()
        # kind -> its histogram in ``metrics``: the one per-request record,
        # registered on first use; see metrics_snapshot for what derives.
        self._latency: dict[str, LatencyHistogram] = {}
        self.cache = PredictionCache(
            max_entries=self.config.cache_entries,
            ttl_s=self.config.cache_ttl_s,
            clock=clock.monotonic_s,
        )
        self.pool = CoalescingPool(max_workers=self.config.max_workers)
        self.admission = AdmissionController(self.config.admission)
        self.breaker: CircuitBreaker | None = (
            CircuitBreaker(
                self.config.breaker,
                clock=clock,
                on_transition=self._on_breaker_transition,
            )
            if self.config.breaker is not None
            else None
        )

    # -- Predictor protocol ---------------------------------------------------

    def predict_mrt_ms(
        self, server: str, n_clients: float, *, buy_fraction: float = 0.0
    ) -> float:
        """Predicted mean response time (ms), served with caching."""
        return self._serve("mrt", "predict_mrt_ms", server, n_clients, buy_fraction)

    def predict_throughput(
        self, server: str, n_clients: float, *, buy_fraction: float = 0.0
    ) -> float:
        """Predicted throughput (req/s), served with caching."""
        return self._serve(
            "throughput", "predict_throughput", server, n_clients, buy_fraction
        )

    def max_clients(
        self, server: str, rt_goal_ms: float, *, buy_fraction: float = 0.0
    ) -> int:
        """Capacity under an SLA goal, served with caching.

        The cache operand is the goal itself, so repeated capacity
        queries — the layered method's most expensive operation, one
        solve per search probe — collapse to one search per grid cell.
        """
        return self._serve("capacity", "max_clients", server, rt_goal_ms, buy_fraction)

    def clients_at_max(self, server: str) -> float:
        """Max-throughput load, delegated to whichever side can answer.

        The percentile predictor needs this; the primary answers when it
        is historical/hybrid, otherwise the fallback does.
        """
        for predictor in (self.primary, self.fallback):
            query = getattr(predictor, "clients_at_max", None)
            if query is not None:
                return query(server)
        raise AttributeError(
            f"neither {self.primary.name!r} nor the fallback exposes clients_at_max"
        )

    # -- operations -----------------------------------------------------------

    def invalidate(self, server: str | None = None) -> int:
        """Drop cached predictions (for ``server``, or all) after recalibration."""
        dropped = self.cache.invalidate(server)
        self.metrics.counter("invalidations").inc()
        return dropped

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool (idempotent)."""
        self.pool.shutdown(wait=wait)

    def __enter__(self) -> "PredictionService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: shut the worker pool down."""
        self.shutdown()

    def metrics_snapshot(self) -> MetricsSnapshot:
        """A consistent copy of ``metrics`` plus the totals derived from it:
        ``requests`` sums the ``latency.<kind>`` counts and ``latency``
        merges those histograms (see :meth:`HistogramSnapshot.merge`)."""
        snapshot = self.metrics.snapshot()
        kinds = [
            histogram
            for name, histogram in snapshot.histograms.items()
            if name.startswith("latency.")
        ]
        if kinds:
            snapshot.counters["requests"] = sum(h.count for h in kinds)
            snapshot.histograms["latency"] = HistogramSnapshot.merge(kinds)
        return snapshot

    def export_metrics(self) -> dict[str, float]:
        """One flat dict of every service metric, cache and pool stat."""
        out = self.metrics_snapshot().export()
        cache = self.cache.stats()
        out.update(
            {
                "cache.requests": cache.requests,
                "cache.hits": cache.hits,
                "cache.misses": cache.misses,
                "cache.evictions": cache.evictions,
                "cache.expirations": cache.expirations,
                "cache.invalidated": cache.invalidated,
                "cache.hit_rate": cache.hit_rate,
            }
        )
        pool = self.pool.stats()
        out.update(
            {
                "pool.submitted": pool.submitted,
                "pool.coalesced": pool.coalesced,
                "pool.executed": pool.executed,
                "admission.admitted": self.admission.admitted_total,
                "admission.rejected": self.admission.rejected_total,
                "admission.pending": self.admission.pending,
            }
        )
        if self.breaker is not None:
            out.update(
                {
                    "breaker.state": self.breaker.state_level,
                    "breaker.health": self.breaker.health_score,
                    "breaker.rejected": self.breaker.rejected_total,
                }
            )
        return out

    # -- the serving path -----------------------------------------------------

    def _on_breaker_transition(
        self, old: BreakerState, new: BreakerState, at_s: float
    ) -> None:
        """Meter and trace every circuit-breaker state change."""
        self.metrics.counter(f"breaker.to_{new.value}").inc()
        TRACER.instant(
            "service.breaker_transition",
            from_state=old.value,
            to_state=new.value,
            at_s=at_s,
        )

    def _degrade(
        self,
        reason: str,
        ask: Callable[[Predictor], float],
        error: Exception,
    ) -> float:
        """Answer from the fallback predictor (or re-raise ``error``)."""
        self.metrics.counter(f"degraded.{reason}").inc()
        self.metrics.counter("degraded").inc()
        TRACER.instant(
            "service.fallback", reason=reason, available=self.fallback is not None
        )
        if self.fallback is None:
            raise error
        with TRACER.span("service.fallback_call", reason=reason):
            return ask(self.fallback)

    def _serve(
        self,
        kind: str,
        method: str,
        server: str,
        operand: float,
        buy_fraction: float,
    ) -> float:
        """The common serving path: cache → admission → pool → degrade.

        ``method`` names the :class:`Predictor` query answering ``kind``.
        Every call, a rejected one too, is timed once, into its kind's
        histogram.
        """
        perf_s = self._clock.perf_s
        start = perf_s()
        try:
            key = quantize_key(
                server,
                kind,
                operand,
                buy_fraction,
                operand_step=self.config.operand_step,
                buy_step=self.config.buy_step,
            )
            with TRACER.span("service.request", kind=kind, server=server) as span:
                hit, value = self.cache.get(key)
                TRACER.instant("service.cache", hit=hit)
                if hit:
                    span.set_attribute("outcome", "cache_hit")
                    return value

                def ask(predictor: Predictor) -> float:
                    # Looked up when called: callers may rewrap the predictors.
                    return getattr(predictor, method)(
                        server, operand, buy_fraction=buy_fraction
                    )

                if not self.admission.try_enter():
                    TRACER.instant("service.admission", admitted=False)
                    span.set_attribute("outcome", "degraded.saturated")
                    return self._degrade(
                        "saturated",
                        ask,
                        ServiceSaturatedError(
                            f"{self.name}: admission queue full "
                            f"({self.config.admission.max_pending} pending) and no "
                            f"fallback predictor is registered"
                        ),
                    )
                TRACER.instant("service.admission", admitted=True)
                try:
                    # Breaker check sits after the cache lookup and
                    # admission, so hits and requests refused admission never
                    # charge it.
                    if self.breaker is not None and not self.breaker.allow():
                        TRACER.instant("service.breaker", allowed=False)
                        span.set_attribute("outcome", "degraded.breaker_open")
                        return self._degrade(
                            "breaker_open",
                            ask,
                            CircuitOpenError(
                                f"{self.name}: circuit breaker is "
                                f"{self.breaker.state.value} and no fallback "
                                f"predictor is registered"
                            ),
                        )

                    def _task() -> float:
                        with TRACER.span("service.execute", kind=kind, server=server):
                            result = call_with_retries(
                                lambda: ask(self.primary),
                                self.config.admission,
                                on_retry=lambda _e: self.metrics.counter(
                                    "retries"
                                ).inc(),
                            )
                            self.cache.put(key, result)
                            return result

                    # Capture the submitting request's context so the pool
                    # thread's execute span nests under this request span.
                    # Coalesced followers attach to the submitter's tree.
                    if TRACER.enabled:
                        ctx = contextvars.copy_context()
                        runner: Callable[[], float] = lambda: ctx.run(_task)
                    else:
                        runner = _task
                    recorder = self.breaker
                    # False until exactly one record_*/cancel call has
                    # settled the allow() above; the finally below covers
                    # every path that skips the explicit outcomes (a
                    # non-transient exception out of future.result, a
                    # failed submission), so HALF_OPEN probe slots cannot
                    # leak.
                    recorded = recorder is None
                    try:
                        future, started = self.pool.submit_or_join(key, runner)
                        # The breaker is charged exactly once per primary
                        # *execution*: only the request that started the
                        # work reports an outcome.  A coalesced join
                        # piggybacks on work it did not start (possibly
                        # begun before the circuit even opened), so it
                        # hands any HALF_OPEN probe slot back and records
                        # nothing.
                        if recorder is not None and not started:
                            recorded = True
                            recorder.cancel()
                            recorder = None
                        result = future.result(timeout=self.config.admission.timeout_s)
                        if recorder is not None:
                            recorded = True
                            recorder.record_success()
                        span.set_attribute("outcome", "computed")
                        return result
                    except FutureTimeoutError:
                        if recorder is not None:
                            recorded = True
                            recorder.record_failure()
                        self.metrics.counter("timeouts").inc()
                        span.set_attribute("outcome", "degraded.timeout")
                        return self._degrade(
                            "timeout",
                            ask,
                            PredictionTimeoutError(
                                f"{self.name}: {kind} prediction for {server!r} missed "
                                f"its {self.config.admission.timeout_s}s deadline and "
                                f"no fallback predictor is registered"
                            ),
                        )
                    except TRANSIENT_ERRORS as error:  # survived the retries
                        if recorder is not None:
                            recorded = True
                            recorder.record_failure()
                        self.metrics.counter("errors").inc()
                        span.set_attribute("outcome", "degraded.error")
                        return self._degrade("error", ask, error)
                    finally:
                        if not recorded:
                            recorder.record_failure()
                finally:
                    self.admission.exit()
        finally:
            elapsed = perf_s() - start
            latency = self._latency.get(kind)
            if latency is None:  # racing threads get the registry's one instance
                latency = self._latency[kind] = self.metrics.histogram(
                    f"latency.{kind}"
                )
            latency.observe(elapsed)
