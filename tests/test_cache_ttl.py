"""TTL-expiry boundary behaviour of the prediction cache, on a fake clock.

Pins the contract ``age > ttl_s`` (strict): an entry *exactly* at its
TTL is still served, one tick past it is recomputed.  Also pins LRU
eviction ordering when distinct raw operands quantize onto the same
grid cell — a refresh of the shared cell must protect it from eviction.
"""

from __future__ import annotations

import threading

import pytest

from repro.service.cache import PredictionCache, quantize_key
from repro.service.service import PredictionService, ServiceConfig
from repro.util.clock import FakeClock


class CountingPredictor:
    """Deterministic predictor that counts how often it actually computes."""

    def __init__(self):
        self.name = "counting"
        self.calls = 0
        self._lock = threading.Lock()

    def predict_mrt_ms(self, server, n_clients, *, buy_fraction=0.0):
        with self._lock:
            self.calls += 1
        return 100.0 + float(int(n_clients))

    def predict_throughput(self, server, n_clients, *, buy_fraction=0.0):
        with self._lock:
            self.calls += 1
        return float(int(n_clients)) * 0.1

    def max_clients(self, server, rt_goal_ms, *, buy_fraction=0.0):
        with self._lock:
            self.calls += 1
        return 900


class TestTtlBoundary:
    def test_entry_exactly_at_ttl_is_still_a_hit(self):
        clock = FakeClock()
        cache = PredictionCache(max_entries=8, ttl_s=10.0, clock=clock.monotonic_s)
        key = quantize_key("S", "mrt", 500, 0.0)
        cache.put(key, 1.5)
        clock.advance(10.0)  # age == ttl: the contract is strictly >
        hit, value = cache.get(key)
        assert (hit, value) == (True, 1.5)
        assert cache.stats().expirations == 0

    def test_entry_just_past_ttl_expires_and_counts(self):
        clock = FakeClock()
        cache = PredictionCache(max_entries=8, ttl_s=10.0, clock=clock.monotonic_s)
        key = quantize_key("S", "mrt", 500, 0.0)
        cache.put(key, 1.5)
        clock.advance(10.0 + 1e-9)
        hit, value = cache.get(key)
        assert (hit, value) == (False, None)
        stats = cache.stats()
        assert stats.expirations == 1 and stats.misses == 1
        assert len(cache) == 0  # the expired entry was dropped, not kept

    def test_put_refreshes_the_stored_at_time(self):
        clock = FakeClock()
        cache = PredictionCache(max_entries=8, ttl_s=10.0, clock=clock.monotonic_s)
        key = quantize_key("S", "mrt", 500, 0.0)
        cache.put(key, 1.0)
        clock.advance(8.0)
        cache.put(key, 2.0)  # re-put restarts the TTL window
        clock.advance(8.0)  # 16 s after the first put, 8 s after the second
        hit, value = cache.get(key)
        assert (hit, value) == (True, 2.0)


class TestNoTtlNoClock:
    @pytest.mark.parametrize("ttl_s, expected_reads", [(None, 0), (10.0, 5)])
    def test_get_and_put_read_the_clock_only_with_a_ttl(self, ttl_s, expected_reads):
        reads = []

        def counting_clock() -> float:
            reads.append(1)
            return 0.0

        cache = PredictionCache(max_entries=1, ttl_s=ttl_s, clock=counting_clock)
        k1 = quantize_key("S", "mrt", 100, 0.0)
        k2 = quantize_key("S", "mrt", 200, 0.0)
        assert cache.get(k1) == (False, None)  # miss
        cache.put(k1, 1.0)
        cache.put(k1, 2.0)  # refresh
        assert cache.get(k1) == (True, 2.0)  # hit
        cache.put(k2, 3.0)  # evicts k1
        assert len(reads) == expected_reads


class TestEvictionOrderingUnderQuantizedKeys:
    def test_quantized_aliases_share_one_entry_and_its_lru_slot(self):
        clock = FakeClock()
        cache = PredictionCache(max_entries=2, ttl_s=None, clock=clock.monotonic_s)
        # 500.2 and 499.9 land on the same grid cell; 600 and 700 differ.
        shared_a = quantize_key("S", "mrt", 500.2, 0.0)
        shared_b = quantize_key("S", "mrt", 499.9, 0.0)
        assert shared_a == shared_b
        other = quantize_key("S", "mrt", 600, 0.0)
        third = quantize_key("S", "mrt", 700, 0.0)

        cache.put(shared_a, 1.0)
        cache.put(other, 2.0)
        # Touch the shared cell through its alias: now `other` is the LRU.
        assert cache.get(shared_b) == (True, 1.0)
        cache.put(third, 3.0)  # capacity 2: must evict `other`, not the cell
        assert cache.get(shared_a) == (True, 1.0)
        assert cache.get(other) == (False, None)
        assert cache.stats().evictions == 1

    def test_expired_entry_frees_its_slot_for_new_cells(self):
        clock = FakeClock()
        cache = PredictionCache(max_entries=2, ttl_s=5.0, clock=clock.monotonic_s)
        k1 = quantize_key("S", "mrt", 100, 0.0)
        k2 = quantize_key("S", "mrt", 200, 0.0)
        cache.put(k1, 1.0)
        clock.advance(6.0)
        cache.put(k2, 2.0)
        assert cache.get(k1) == (False, None)  # expired on access
        cache.put(quantize_key("S", "mrt", 300, 0.0), 3.0)
        # k1's expiry already freed a slot, so k2 was never evicted.
        assert cache.get(k2) == (True, 2.0)
        assert cache.stats().evictions == 0


class TestServiceClockWiring:
    def test_service_ttl_runs_on_the_injected_clock(self):
        clock = FakeClock()
        predictor = CountingPredictor()
        with PredictionService(
            predictor,
            config=ServiceConfig(max_workers=1, cache_ttl_s=30.0),
            clock=clock,
        ) as service:
            assert service.predict_mrt_ms("S", 500) == 600.0
            clock.advance(30.0)  # exactly at TTL: still served from cache
            assert service.predict_mrt_ms("S", 500) == 600.0
            assert predictor.calls == 1
            clock.advance(0.001)  # now past it: recomputed
            assert service.predict_mrt_ms("S", 500) == 600.0
            assert predictor.calls == 2
            assert service.export_metrics()["cache.expirations"] == 1.0
