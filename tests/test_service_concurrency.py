"""Concurrency coverage for the serving layer.

These tests hammer the thread-shared state the service introduces:
metrics under contention, cache statistics under thrash, in-flight
coalescing, and degradation under deadline misses.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.service import (
    AdmissionConfig,
    LatencyHistogram,
    MetricsRegistry,
    PredictionCache,
    PredictionService,
    ServiceConfig,
    quantize_key,
)
from repro.util.errors import ValidationError
from tests.test_service import StubPredictor


def _hammer(n_threads: int, per_thread: int, work) -> None:
    """Run ``work(thread_index, iteration)`` from many threads at once."""
    barrier = threading.Barrier(n_threads)

    def loop(index: int) -> None:
        barrier.wait()
        for i in range(per_thread):
            work(index, i)

    threads = [threading.Thread(target=loop, args=(t,)) for t in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestCacheThrash:
    def test_stats_consistent_under_thrash(self):
        cache = PredictionCache(max_entries=32)  # smaller than the key space
        n_threads, per_thread = 8, 500

        def work(t: int, i: int) -> None:
            # Half the traffic hits a small hot set (stays resident under
            # LRU), half sweeps a key space larger than the cache.
            operand = i % 8 if i % 2 == 0 else 8 + (t * per_thread + i) % 100
            key = quantize_key("S", "mrt", operand, 0.0)
            hit, _ = cache.get(key)
            if not hit:
                cache.put(key, float(i))

        _hammer(n_threads, per_thread, work)
        stats = cache.stats()
        assert stats.requests == n_threads * per_thread
        assert stats.hits + stats.misses == stats.requests
        assert stats.hits > 0 and stats.misses > 0 and stats.evictions > 0
        assert len(cache) <= 32


class TestMetricsContention:
    def test_counter_and_histogram_account_every_event(self):
        registry = MetricsRegistry()
        n_threads, per_thread = 8, 1000
        _hammer(
            n_threads,
            per_thread,
            lambda t, i: (
                registry.counter("events").inc(),
                registry.histogram("latency").observe(0.001),
            ),
        )
        export = registry.export()
        assert export["events"] == n_threads * per_thread
        assert export["latency.count"] == n_threads * per_thread


class TestServiceUnderConcurrency:
    def test_coalescing_performs_exactly_one_solve(self):
        primary = StubPredictor(delay_s=0.2)
        service = PredictionService(primary, config=ServiceConfig(max_workers=16))
        results: list[float] = []
        lock = threading.Lock()

        def work(t: int, i: int) -> None:
            value = service.predict_mrt_ms("S", 700)
            with lock:
                results.append(value)

        with service:
            _hammer(12, 1, work)
        # Twelve concurrent identical requests, one underlying evaluation.
        assert primary.calls == 1
        assert results == [800.0] * 12
        pool = service.pool.stats()
        assert pool.executed == 1 and pool.coalesced >= 1

    def test_service_stats_consistent_from_many_threads(self):
        service = PredictionService(StubPredictor(), config=ServiceConfig(max_workers=8))
        n_threads, per_thread = 8, 200

        def work(t: int, i: int) -> None:
            service.predict_mrt_ms("S", 100 + (t * per_thread + i) % 50)

        with service:
            _hammer(n_threads, per_thread, work)
            total = n_threads * per_thread
            metrics = service.export_metrics()
            assert metrics["requests"] == total
            assert metrics["latency.count"] == total
            assert metrics["cache.hits"] + metrics["cache.misses"] == metrics["cache.requests"]
            # Only 50 distinct grid cells were requested: everything else
            # was a hit or a coalesced join.
            assert service.primary.calls <= 50 + metrics["pool.coalesced"]
            assert metrics["cache.hit_rate"] > 0.5

    def test_derived_totals_equal_one_histogram_of_every_request(self, monkeypatch):
        """requests and latency.* derive from the per-kind histograms, and
        agree with one histogram fed every observation."""
        observed: list[float] = []
        lock = threading.Lock()
        observe = LatencyHistogram.observe

        def recording_observe(histogram, elapsed_s):
            with lock:
                observed.append(elapsed_s)
            observe(histogram, elapsed_s)

        monkeypatch.setattr(LatencyHistogram, "observe", recording_observe)
        service = PredictionService(StubPredictor(), config=ServiceConfig(max_workers=4))
        methods = ("predict_mrt_ms", "predict_throughput", "max_clients")
        n_threads, per_thread = 4, 300
        rejected = [0] * n_threads

        def work(t: int, i: int) -> None:
            operand = float("nan") if i % 7 == 0 else 100 + (t + i) % 40
            try:
                getattr(service, methods[i % 3])("S", operand)
            except ValidationError:
                rejected[t] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the first-use registrations
        try:
            with service:
                _hammer(n_threads, per_thread, work)
        finally:
            sys.setswitchinterval(interval)
        total = n_threads * per_thread
        snapshot = service.metrics_snapshot()
        metrics = service.export_metrics()

        assert sum(rejected) > 0
        per_kind = [metrics[f"latency.{kind}.count"] for kind in ("mrt", "throughput", "capacity")]
        assert metrics["requests"] == metrics["latency.count"] == total
        assert metrics["latency.count"] == sum(per_kind) == total
        reference = LatencyHistogram()
        for elapsed_s in observed:
            observe(reference, elapsed_s)
        expected = reference.snapshot()
        merged = snapshot.histograms["latency"]
        assert (merged.counts, merged.count, merged.max_s) == (
            expected.counts,
            expected.count,
            expected.max_s,
        )
        assert merged.percentiles() == expected.percentiles()
        assert merged.total_s == pytest.approx(expected.total_s)
        assert metrics["latency.total_s"] == pytest.approx(expected.total_s)

    def test_fallback_on_timeout_returns_historical_answer_and_counts(self):
        primary = StubPredictor(delay_s=0.5, name="slow-lqn")
        fallback = StubPredictor(name="historical")
        config = ServiceConfig(
            max_workers=4, admission=AdmissionConfig(timeout_s=0.05)
        )
        results: list[float] = []
        lock = threading.Lock()
        service = PredictionService(primary, fallback=fallback, config=config)

        def work(t: int, i: int) -> None:
            value = service.predict_mrt_ms("S", 400 + t)
            with lock:
                results.append(value)

        with service:
            _hammer(4, 1, work)
            metrics = service.export_metrics()
        # Every caller got the fallback's (historical) answer...
        assert sorted(results) == [500.0, 501.0, 502.0, 503.0]
        assert all(r == 100.0 + 400 + t for t, r in enumerate(sorted(results)))
        # ...and the degradation counters say so.
        assert metrics["degraded"] == 4
        assert metrics["degraded.timeout"] == 4
        assert metrics["timeouts"] == 4

    def test_abandoned_solve_still_populates_cache(self):
        primary = StubPredictor(delay_s=0.2, name="slow")
        fallback = StubPredictor(name="fast")
        config = ServiceConfig(admission=AdmissionConfig(timeout_s=0.05))
        with PredictionService(primary, fallback=fallback, config=config) as service:
            service.predict_mrt_ms("S", 300)  # times out, degrades
            time.sleep(0.4)  # the abandoned solve finishes in the pool
            service.predict_mrt_ms("S", 300)  # now a cache hit
            assert service.cache.stats().hits == 1
            assert primary.calls == 1
