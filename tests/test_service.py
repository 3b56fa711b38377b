"""Tests for the prediction-serving subsystem (cache, pool, admission,
metrics, facade), mostly on fast deterministic stub predictors; the last
class drives the fast-profile layered predictor through the service."""

from __future__ import annotations

import math
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prediction.interface import Predictor
from repro.service import (
    AdmissionConfig,
    AdmissionController,
    BreakerConfig,
    BreakerState,
    CoalescingPool,
    HistogramSnapshot,
    LatencyHistogram,
    LoadGenConfig,
    LoadGenerator,
    MetricsRegistry,
    PredictionCache,
    PredictionService,
    PredictionTimeoutError,
    ServiceConfig,
    ServiceSaturatedError,
    bucket_quantile,
    call_with_retries,
    quantize_key,
)
from repro.service.metrics import DEFAULT_LATENCY_BUCKETS_S
from repro.util.errors import CalibrationError, ValidationError
from repro.util.rng import spawn_rng

NAN = float("nan")
INF = float("inf")


class StubPredictor:
    """A deterministic, optionally slow/flaky stand-in for a real method."""

    def __init__(self, *, delay_s: float = 0.0, fail_first: int = 0, name: str = "stub"):
        self.name = name
        self.delay_s = delay_s
        self.fail_first = fail_first
        self.calls = 0
        self._lock = threading.Lock()

    def _tick(self) -> None:
        with self._lock:
            self.calls += 1
            remaining = self.fail_first
            if remaining > 0:
                self.fail_first -= 1
        if self.delay_s:
            time.sleep(self.delay_s)
        if remaining > 0:
            raise CalibrationError("transient (stub)")

    def predict_mrt_ms(self, server, n_clients, *, buy_fraction=0.0):
        self._tick()
        return 100.0 + float(int(n_clients)) + 1000.0 * buy_fraction

    def predict_throughput(self, server, n_clients, *, buy_fraction=0.0):
        self._tick()
        return float(int(n_clients)) * 0.14

    def max_clients(self, server, rt_goal_ms, *, buy_fraction=0.0):
        self._tick()
        return int(rt_goal_ms) * 2


class TestQuantization:
    def test_nearby_floats_share_a_key(self):
        a = quantize_key("S", "mrt", 500.2, 0.101)
        b = quantize_key("S", "mrt", 499.9, 0.099)
        assert a == b

    def test_distinct_operating_points_do_not(self):
        assert quantize_key("S", "mrt", 500, 0.0) != quantize_key("S", "mrt", 501, 0.0)
        assert quantize_key("S", "mrt", 500, 0.0) != quantize_key("S", "tput", 500, 0.0)
        assert quantize_key("S", "mrt", 500, 0.0) != quantize_key("F", "mrt", 500, 0.0)

    def test_steps_must_be_positive(self):
        with pytest.raises(ValidationError):
            quantize_key("S", "mrt", 500, 0.0, operand_step=0.0)


class TestPredictionCache:
    def test_hit_miss_accounting(self):
        cache = PredictionCache(max_entries=8)
        key = quantize_key("S", "mrt", 500, 0.0)
        hit, _ = cache.get(key)
        assert not hit
        cache.put(key, 123.0)
        hit, value = cache.get(key)
        assert hit and value == 123.0
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.requests) == (1, 1, 2)

    def test_lru_eviction_order(self):
        cache = PredictionCache(max_entries=2)
        k1, k2, k3 = (quantize_key("S", "mrt", n, 0.0) for n in (1, 2, 3))
        cache.put(k1, 1.0)
        cache.put(k2, 2.0)
        cache.get(k1)  # freshen k1 so k2 is LRU
        cache.put(k3, 3.0)
        assert cache.get(k1)[0] and cache.get(k3)[0]
        assert not cache.get(k2)[0]
        assert cache.stats().evictions == 1

    def test_ttl_expiry_with_injected_clock(self):
        now = [0.0]
        cache = PredictionCache(max_entries=8, ttl_s=10.0, clock=lambda: now[0])
        key = quantize_key("S", "mrt", 500, 0.0)
        cache.put(key, 1.0)
        now[0] = 5.0
        assert cache.get(key)[0]
        now[0] = 20.0
        assert not cache.get(key)[0]
        assert cache.stats().expirations == 1
        assert len(cache) == 0

    def test_invalidate_one_server(self):
        cache = PredictionCache()
        cache.put(quantize_key("S", "mrt", 1, 0.0), 1.0)
        cache.put(quantize_key("S", "mrt", 2, 0.0), 2.0)
        cache.put(quantize_key("F", "mrt", 1, 0.0), 3.0)
        assert cache.invalidate("S") == 2
        assert len(cache) == 1
        assert cache.invalidate() == 1
        assert cache.stats().invalidated == 3


class TestMetrics:
    def test_histogram_percentiles_bracket_observations(self):
        histogram = LatencyHistogram()
        for _ in range(99):
            histogram.observe(0.001)
        histogram.observe(1.0)
        assert 0.0003 < histogram.quantile(0.5) < 0.003
        assert histogram.quantile(1.0) == pytest.approx(1.0)
        assert histogram.percentiles()["p99_s"] < 1.1

    def test_histogram_subsumes_timer_accounting(self):
        histogram = LatencyHistogram()
        histogram.observe(0.5)
        histogram.observe(1.5)
        assert histogram.count == 2
        assert histogram.total_s == pytest.approx(2.0)
        assert histogram.mean_s == pytest.approx(1.0)

    def test_empty_histogram_quantile_is_zero(self):
        assert LatencyHistogram().quantile(0.99) == 0.0

    def test_registry_shares_instruments_and_exports(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(3)
        assert registry.counter("x").value == 3
        registry.gauge("g").set(7.0)
        registry.histogram("h").observe(0.01)
        export = registry.export()
        assert export["x"] == 3 and export["g"] == 7.0
        assert export["h.count"] == 1 and export["h.p95_s"] > 0.0

    def test_snapshot_export_matches_live_registry_export(self):
        """registry.export() and registry.snapshot().export() are identical."""
        registry = MetricsRegistry()
        registry.counter("requests").inc(300)
        registry.gauge("pending").set(6.0)
        rng = spawn_rng(2004, "x")
        histogram = registry.histogram("latency")
        for _ in range(300):
            # Latencies spanning µs to seconds — many distinct buckets.
            histogram.observe(float(10.0 ** rng.uniform(-6.0, 0.5)))
        assert registry.export() == registry.snapshot().export()

    def test_merged_snapshots_equal_one_histogram_of_every_observation(self):
        rng = spawn_rng(2004, "merge")
        parts = [LatencyHistogram() for _ in range(3)]
        whole = LatencyHistogram()
        for i in range(300):
            elapsed_s = float(10.0 ** rng.uniform(-6.0, 1.6))
            parts[i % 3].observe(elapsed_s)
            whole.observe(elapsed_s)
        merged = HistogramSnapshot.merge([part.snapshot() for part in parts])
        expected = whole.snapshot()
        assert (merged.counts, merged.count, merged.max_s) == (
            expected.counts,
            expected.count,
            expected.max_s,
        )
        assert merged.percentiles() == expected.percentiles()
        assert merged.total_s == pytest.approx(expected.total_s)
        with pytest.raises(ValidationError):
            HistogramSnapshot.merge([expected, LatencyHistogram((1.0,)).snapshot()])

    def test_bucket_quantile_interpolates_and_handles_overflow(self):
        """The shared estimator: interpolation in-bucket, max_s for overflow."""
        bounds = (1.0, 2.0, 4.0)
        # 10 observations in (1,2], none elsewhere; overflow bucket empty.
        counts = (0, 10, 0, 0)
        assert bucket_quantile(bounds, counts, 10, 2.0, 0.0) == pytest.approx(1.0)
        assert bucket_quantile(bounds, counts, 10, 2.0, 1.0) == pytest.approx(2.0)
        mid = bucket_quantile(bounds, counts, 10, 2.0, 0.5)
        assert 1.0 < mid < 2.0
        # All mass in the overflow bucket: the observed max is the answer.
        overflow = (0, 0, 0, 5)
        assert bucket_quantile(bounds, overflow, 5, 7.5, 0.99) == 7.5


def _reference_bucket_index(bounds, elapsed_s):
    """Reference bucket search: the first bound ``>= elapsed_s``, by hand."""
    lo, hi = 0, len(bounds)
    while lo < hi:
        mid = (lo + hi) // 2
        if elapsed_s <= bounds[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _bucket_of(elapsed_s):
    """The bucket one observation lands in, read back from a snapshot."""
    histogram = LatencyHistogram()
    histogram.observe(elapsed_s)
    return histogram.snapshot().counts.index(1)


_BOUND_NEIGHBOURS = sorted(
    {
        value
        for bound in DEFAULT_LATENCY_BUCKETS_S
        for value in (math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.inf))
    }
    | {0.0}
)


class TestHistogramBuckets:
    @pytest.mark.parametrize("elapsed_s", _BOUND_NEIGHBOURS)
    def test_every_bound_and_its_neighbours_keep_their_bucket(self, elapsed_s):
        assert _bucket_of(elapsed_s) == _reference_bucket_index(
            DEFAULT_LATENCY_BUCKETS_S, elapsed_s
        )

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    def test_any_finite_non_negative_float_keeps_its_bucket(self, elapsed_s):
        assert _bucket_of(elapsed_s) == _reference_bucket_index(
            DEFAULT_LATENCY_BUCKETS_S, elapsed_s
        )

    @pytest.mark.parametrize("elapsed_s", [NAN, INF, -INF, -1e-9, -1.0])
    def test_nan_infinite_and_negative_observations_are_rejected(self, elapsed_s):
        histogram = LatencyHistogram()
        with pytest.raises(ValidationError):
            histogram.observe(elapsed_s)
        assert histogram.count == 0


class TestCoalescingPool:
    def test_concurrent_identical_work_executes_once(self):
        pool = CoalescingPool(max_workers=8)
        calls = []
        release = threading.Event()

        def work():
            calls.append(1)
            release.wait(timeout=5.0)
            return 42

        futures = [pool.submit("k", work) for _ in range(8)]
        release.set()
        assert all(f.result(timeout=5.0) == 42 for f in futures)
        assert len(calls) == 1
        stats = pool.stats()
        assert stats.submitted == 8 and stats.coalesced == 7 and stats.executed == 1
        pool.shutdown()

    def test_distinct_keys_do_not_coalesce(self):
        with CoalescingPool(max_workers=2) as pool:
            futures = [pool.submit(i, lambda i=i: i * 2) for i in range(4)]
            assert [f.result(timeout=5.0) for f in futures] == [0, 2, 4, 6]
            assert pool.stats().coalesced == 0

    def test_submit_or_join_reports_which_call_started_the_work(self):
        pool = CoalescingPool(max_workers=2)
        release = threading.Event()
        first, started_first = pool.submit_or_join(
            "k", lambda: release.wait(timeout=5.0)
        )
        second, started_second = pool.submit_or_join("k", lambda: None)
        release.set()
        assert started_first and not started_second
        assert second is first  # the join returned the in-flight future
        first.result(timeout=5.0)
        pool.shutdown()

    def test_key_released_after_completion(self):
        with CoalescingPool(max_workers=2) as pool:
            pool.submit("k", lambda: 1).result(timeout=5.0)
            for _ in range(100):
                if pool.inflight_count() == 0:
                    break
                time.sleep(0.01)
            assert pool.inflight_count() == 0
            # A later submission for the same key runs fresh.
            assert pool.submit("k", lambda: 2).result(timeout=5.0) == 2


class TestAdmission:
    def test_bounded_budget(self):
        admission = AdmissionController(AdmissionConfig(max_pending=2))
        assert admission.try_enter() and admission.try_enter()
        assert not admission.try_enter()
        assert admission.rejected_total == 1
        admission.exit()
        assert admission.try_enter()
        assert admission.admitted_total == 3

    def test_exit_without_enter_rejected(self):
        admission = AdmissionController()
        with pytest.raises(ValidationError):
            admission.exit()

    def test_retries_transient_then_succeeds(self):
        attempts = []
        sleeps = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise CalibrationError("transient")
            return "ok"

        config = AdmissionConfig(max_retries=2, backoff_initial_s=0.01, backoff_multiplier=4.0)
        result = call_with_retries(flaky, config, sleep=sleeps.append)
        assert result == "ok" and len(attempts) == 3
        assert sleeps == [0.01, 0.04]  # exponential backoff schedule

    def test_retry_budget_exhausted_raises(self):
        config = AdmissionConfig(max_retries=1, backoff_initial_s=0.0)

        def always_fails():
            raise CalibrationError("permanent")

        with pytest.raises(CalibrationError):
            call_with_retries(always_fails, config, sleep=lambda s: None)

    def test_non_transient_errors_not_retried(self):
        attempts = []

        def boom():
            attempts.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            call_with_retries(boom, AdmissionConfig(max_retries=5), sleep=lambda s: None)
        assert len(attempts) == 1


class TestPredictionService:
    def test_satisfies_predictor_protocol(self):
        with PredictionService(StubPredictor()) as service:
            assert isinstance(service, Predictor)

    def test_cache_hit_skips_primary(self):
        with PredictionService(StubPredictor()) as service:
            a = service.predict_mrt_ms("S", 500)
            b = service.predict_mrt_ms("S", 500.3)  # same grid cell
            assert a == b and service.primary.calls == 1
            assert service.cache.stats().hits == 1

    def test_all_three_operations_cached_independently(self):
        with PredictionService(StubPredictor()) as service:
            assert service.predict_mrt_ms("S", 500) == 600.0
            assert service.predict_throughput("S", 500) == pytest.approx(70.0)
            assert service.max_clients("S", 500.0) == 1000
            assert service.primary.calls == 3
            service.max_clients("S", 500.0)
            assert service.primary.calls == 3

    def test_timer_records_service_level_delays(self):
        with PredictionService(StubPredictor()) as service:
            service.predict_mrt_ms("S", 500)
            service.predict_mrt_ms("S", 500)
            metrics = service.export_metrics()
            assert metrics["latency.count"] == 2
            assert metrics["latency.mean_s"] > 0.0

    def test_invalidate_forces_recompute(self):
        with PredictionService(StubPredictor()) as service:
            service.predict_mrt_ms("S", 500)
            assert service.invalidate("S") == 1
            service.predict_mrt_ms("S", 500)
            assert service.primary.calls == 2

    def test_transient_errors_retried_to_success(self):
        primary = StubPredictor(fail_first=2)
        config = ServiceConfig(
            admission=AdmissionConfig(max_retries=2, backoff_initial_s=0.0)
        )
        with PredictionService(primary, config=config) as service:
            assert service.predict_mrt_ms("S", 500) == 600.0
            assert service.export_metrics()["retries"] == 2

    def test_persistent_transient_error_degrades_to_fallback(self):
        primary = StubPredictor(fail_first=100)
        fallback = StubPredictor(name="fb")
        config = ServiceConfig(admission=AdmissionConfig(max_retries=1, backoff_initial_s=0.0))
        with PredictionService(primary, fallback=fallback, config=config) as service:
            assert service.predict_mrt_ms("S", 500) == 600.0
            metrics = service.export_metrics()
            assert metrics["degraded.error"] == 1 and fallback.calls == 1

    def test_persistent_error_without_fallback_raises(self):
        primary = StubPredictor(fail_first=100)
        config = ServiceConfig(admission=AdmissionConfig(max_retries=0, backoff_initial_s=0.0))
        with PredictionService(primary, config=config) as service:
            with pytest.raises(CalibrationError):
                service.predict_mrt_ms("S", 500)

    def test_timeout_degrades_to_fallback(self):
        primary = StubPredictor(delay_s=0.5)
        fallback = StubPredictor(name="fb")
        config = ServiceConfig(admission=AdmissionConfig(timeout_s=0.05))
        with PredictionService(primary, fallback=fallback, config=config) as service:
            value = service.predict_mrt_ms("S", 500)
            assert value == 600.0  # the historical-style fallback's answer
            metrics = service.export_metrics()
            assert metrics["degraded.timeout"] == 1
            assert metrics["timeouts"] == 1
            assert fallback.calls == 1

    def test_timeout_without_fallback_raises(self):
        primary = StubPredictor(delay_s=0.5)
        config = ServiceConfig(admission=AdmissionConfig(timeout_s=0.05))
        with PredictionService(primary, config=config) as service:
            with pytest.raises(PredictionTimeoutError):
                service.predict_mrt_ms("S", 500)

    def test_saturation_degrades_immediately(self):
        primary = StubPredictor(delay_s=0.3)
        fallback = StubPredictor(name="fb")
        config = ServiceConfig(
            max_workers=1,
            admission=AdmissionConfig(max_pending=1, timeout_s=5.0),
        )
        with PredictionService(primary, fallback=fallback, config=config) as service:
            blocker = threading.Thread(
                target=lambda: service.predict_mrt_ms("S", 100), daemon=True
            )
            blocker.start()
            for _ in range(100):  # wait until the slow request holds the slot
                if service.admission.pending == 1:
                    break
                time.sleep(0.005)
            value = service.predict_mrt_ms("S", 200)
            blocker.join(timeout=5.0)
            assert value == 300.0
            assert service.export_metrics()["degraded.saturated"] == 1

    def test_saturation_without_fallback_raises(self):
        primary = StubPredictor(delay_s=0.3)
        config = ServiceConfig(max_workers=1, admission=AdmissionConfig(max_pending=1))
        with PredictionService(primary, config=config) as service:
            blocker = threading.Thread(
                target=lambda: service.predict_mrt_ms("S", 100), daemon=True
            )
            blocker.start()
            for _ in range(100):
                if service.admission.pending == 1:
                    break
                time.sleep(0.005)
            with pytest.raises(ServiceSaturatedError):
                service.predict_mrt_ms("S", 200)
            blocker.join(timeout=5.0)

    def test_clients_at_max_delegates(self):
        primary = StubPredictor()
        primary.clients_at_max = lambda server: 1234.0
        with PredictionService(primary) as service:
            assert service.clients_at_max("S") == 1234.0
        with PredictionService(StubPredictor()) as service:
            with pytest.raises(AttributeError):
                service.clients_at_max("S")

    def test_metrics_export_has_latency_percentiles(self):
        with PredictionService(StubPredictor()) as service:
            for n in range(20):
                service.predict_mrt_ms("S", 100 + n)
            metrics = service.export_metrics()
            assert metrics["latency.count"] == 20
            assert metrics["latency.p50_s"] > 0.0
            assert metrics["latency.p99_s"] >= metrics["latency.p50_s"]
            assert metrics["requests"] == 20

    @pytest.mark.parametrize(
        "operand, buy_fraction",
        [
            (NAN, 0.0),
            (INF, 0.0),
            (-INF, 0.0),
            (-1.0, 0.0),
            (500.0, NAN),
            (500.0, INF),
            (500.0, -INF),
        ],
    )
    @pytest.mark.parametrize("method", ["predict_mrt_ms", "predict_throughput", "max_clients"])
    def test_bad_operands_are_validation_errors_before_the_breaker(
        self, method, operand, buy_fraction
    ):
        """A non-finite/negative operand or non-finite buy fraction is typed.

        It is rejected before the cache, the pool or the breaker see it:
        the primary is never called and ten such requests leave the
        breaker CLOSED.
        """
        config = ServiceConfig(breaker=BreakerConfig(failure_threshold=2))
        with PredictionService(StubPredictor(), config=config) as service:
            for _ in range(10):
                with pytest.raises(ValidationError):
                    getattr(service, method)("S", operand, buy_fraction=buy_fraction)
            assert service.primary.calls == 0
            assert service.cache.stats().requests == 0
            assert service.breaker.state is BreakerState.CLOSED
            # Rejected calls are still requests, each counted exactly once.
            metrics = service.export_metrics()
            assert metrics["requests"] == metrics["latency.count"] == 10


class TestResourceManagerOnService:
    """The acceptance seam: Algorithm 1 and the runtime evaluation take a
    ``Predictor``; a ``PredictionService`` must slot in unchanged."""

    def test_algorithm1_and_runtime_run_on_the_service_unchanged(self):
        from repro.resource_manager.allocation import allocate
        from repro.resource_manager.runtime import evaluate_runtime
        from repro.resource_manager.sla import ClassWorkload
        from tests.test_resource_manager import CAPS, StepPredictor, servers_pool

        classes = [
            ClassWorkload(name="tight", n_clients=200, rt_goal_ms=150.0),
            ClassWorkload(name="lax", n_clients=300, rt_goal_ms=600.0),
        ]
        with PredictionService(StepPredictor(CAPS)) as service:
            allocation = allocate(classes, servers_pool(), service)
            outcome = evaluate_runtime(allocation, classes, servers_pool(), service)
            assert sum(v for a in allocation.per_server.values() for v in a.values()) == 500
            assert outcome.total_clients == 500
            assert outcome.sla_failure_pct == 0.0
            # The service actually served (and memoized) the model queries.
            metrics = service.export_metrics()
            assert metrics["requests"] > 0
            assert metrics["cache.hit_rate"] > 0.0

    def test_delay_experiment_style_timing_loop_works(self):
        # experiments/delay.py times predictors through _time_predictions-
        # style closures; the service supports the same call shape.
        with PredictionService(StubPredictor()) as service:
            for i in range(20):
                service.predict_mrt_ms("AppServS", 400 + i % 700)
            metrics = service.export_metrics()
            assert metrics["latency.count"] == 20
            assert metrics["latency.mean_s"] > 0.0


class TestLoadGenerator:
    def test_closed_loop_counts_and_metrics(self):
        with PredictionService(StubPredictor()) as service:
            report = LoadGenerator(
                service,
                LoadGenConfig(
                    threads=4,
                    requests_per_thread=25,
                    servers=("S",),
                    client_range=(100, 200),
                    operation_weights=(("mrt", 0.6), ("throughput", 0.3), ("capacity", 0.1)),
                ),
            ).run()
            assert report.requests == 100 and report.errors == 0
            assert report.per_thread_requests == [25, 25, 25, 25]
            assert report.throughput_rps > 0.0
            assert report.metrics["latency.count"] == 100

    def test_reproducible_across_runs(self):
        def run_once():
            service = PredictionService(StubPredictor())
            with service:
                LoadGenerator(
                    service,
                    LoadGenConfig(threads=2, requests_per_thread=30, servers=("S",), seed=7),
                ).run()
                return service.primary.calls  # distinct operating points hit

        assert run_once() == run_once()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            LoadGenConfig(threads=0)
        with pytest.raises(ValidationError):
            LoadGenConfig(operation_weights=(("bogus", 1.0),))


@pytest.mark.slow
class TestLayeredService:
    """The fast-profile layered predictor behind the service, with the
    historical predictor as its fallback."""

    @pytest.fixture(scope="class")
    def predictors(self):
        from repro.experiments.scenario import build_predictors

        historical, lqn, _, _ = build_predictors(fast=True)
        return historical, lqn

    def test_closed_loop_load_serves_every_request(self, predictors):
        historical, lqn = predictors
        # 10 client counts x 2 operations: every thread repeats an
        # operating point it has already had answered, so hits are certain.
        config = LoadGenConfig(
            threads=4, requests_per_thread=25, servers=("AppServS",), client_range=(100, 109)
        )
        with PredictionService(lqn, fallback=historical) as service:
            report = LoadGenerator(service, config).run()
        metrics = report.metrics
        assert report.errors == 0
        assert report.requests == metrics["requests"] == 100
        assert 0.0 < metrics["latency.p50_s"] <= metrics["latency.p95_s"]
        assert metrics["latency.p95_s"] <= metrics["latency.p99_s"]
        assert metrics["cache.hit_rate"] > 0.0

    def test_warm_cache_is_at_least_10x_faster_than_a_cold_solve(self, predictors):
        """Min-of-5 on both sides, in one process: the fastest cold solve
        (five distinct operating points) over the fastest warm batch.  OS
        noise only ever inflates a timing, so the minima are stable."""
        _, lqn = predictors
        with PredictionService(lqn) as service:
            cold_samples = []
            for n_clients in (907, 911, 919, 929, 937):
                start = time.perf_counter()
                service.predict_mrt_ms("AppServS", n_clients)
                cold_samples.append(time.perf_counter() - start)
            warm_samples = []
            batch = 100
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(batch):
                    service.predict_mrt_ms("AppServS", 911)
                warm_samples.append((time.perf_counter() - start) / batch)
        assert min(cold_samples) / min(warm_samples) >= 10.0, (cold_samples, warm_samples)
