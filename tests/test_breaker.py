"""Unit tests for the circuit breaker's state machine, health score and
service integration."""

import pytest

from repro.service.breaker import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
)
from repro.util.clock import FakeClock
from repro.util.errors import ValidationError


def _breaker(clock, *, threshold=3, recovery=10.0, probes=1, alpha=0.5, on=None):
    return CircuitBreaker(
        BreakerConfig(
            failure_threshold=threshold,
            recovery_time_s=recovery,
            half_open_probes=probes,
            health_alpha=alpha,
        ),
        clock=clock,
        on_transition=on,
    )


def test_config_validation():
    with pytest.raises(ValidationError):
        BreakerConfig(failure_threshold=0)
    with pytest.raises(ValidationError):
        BreakerConfig(recovery_time_s=0.0)
    with pytest.raises(ValidationError):
        BreakerConfig(half_open_probes=0)
    with pytest.raises(ValidationError):
        BreakerConfig(health_alpha=0.0)
    with pytest.raises(ValidationError):
        BreakerConfig(health_alpha=1.5)


def test_closed_breaker_always_allows():
    breaker = _breaker(FakeClock())
    assert breaker.state is BreakerState.CLOSED
    assert all(breaker.allow() for _ in range(10))
    assert breaker.rejected_total == 0


def test_opens_after_consecutive_failures_only():
    breaker = _breaker(FakeClock(), threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()  # resets the consecutive count
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN


def test_open_rejects_until_recovery_time_elapses():
    clock = FakeClock()
    breaker = _breaker(clock, threshold=1, recovery=10.0)
    breaker.record_failure()
    assert not breaker.allow()
    assert breaker.rejected_total == 1
    clock.advance(9.999)
    assert not breaker.allow()
    clock.advance(0.001)
    assert breaker.allow()  # the probe
    assert breaker.state is BreakerState.HALF_OPEN


def test_half_open_probe_success_recloses():
    clock = FakeClock()
    breaker = _breaker(clock, threshold=1, recovery=5.0)
    breaker.record_failure()
    clock.advance(5.0)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert [(old, new) for _, old, new in breaker.transitions()] == [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "closed"),
    ]


def test_half_open_probe_failure_reopens_and_restarts_timer():
    clock = FakeClock()
    breaker = _breaker(clock, threshold=1, recovery=5.0)
    breaker.record_failure()  # open at t=0
    clock.advance(5.0)
    assert breaker.allow()  # probe at t=5
    breaker.record_failure()  # back to open at t=5
    assert breaker.state is BreakerState.OPEN
    clock.advance(4.0)
    assert not breaker.allow()  # t=9 < 5+5: timer restarted
    clock.advance(1.0)
    assert breaker.allow()


def test_half_open_caps_concurrent_probes():
    clock = FakeClock()
    breaker = _breaker(clock, threshold=1, recovery=1.0, probes=2)
    breaker.record_failure()
    clock.advance(1.0)
    assert breaker.allow()
    assert breaker.allow()
    assert not breaker.allow()  # both probe slots taken
    breaker.record_success()
    assert breaker.state is BreakerState.HALF_OPEN  # needs 2 successes
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED


def test_cancel_returns_the_half_open_probe_slot_without_an_outcome():
    clock = FakeClock()
    breaker = _breaker(clock, threshold=1, recovery=1.0, probes=1)
    breaker.record_failure()
    clock.advance(1.0)
    assert breaker.allow()  # the probe slot
    assert not breaker.allow()  # slot taken
    health_before = breaker.health_score
    breaker.cancel()  # the admitted attempt never ran: hand the slot back
    assert breaker.state is BreakerState.HALF_OPEN
    assert breaker.health_score == health_before  # no outcome was recorded
    assert breaker.allow()  # a fresh probe is admitted immediately
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED


def test_cancel_is_a_noop_outside_half_open():
    clock = FakeClock()
    breaker = _breaker(clock, threshold=2, recovery=1.0)
    breaker.cancel()  # CLOSED: nothing reserved, nothing changes
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure()
    breaker.record_failure()
    breaker.cancel()  # OPEN: probe accounting already reset
    assert breaker.state is BreakerState.OPEN
    assert breaker.health_score == pytest.approx(0.25)


def test_health_score_is_an_ewma_of_outcomes():
    breaker = _breaker(FakeClock(), alpha=0.5)
    assert breaker.health_score == 1.0
    breaker.record_failure()
    assert breaker.health_score == pytest.approx(0.5)
    breaker.record_success()
    assert breaker.health_score == pytest.approx(0.75)


def test_state_level_gauge_tracks_state():
    clock = FakeClock()
    breaker = _breaker(clock, threshold=1, recovery=1.0)
    assert breaker.state_level == 0.0
    breaker.record_failure()
    assert breaker.state_level == 2.0
    clock.advance(1.0)
    breaker.allow()
    assert breaker.state_level == 1.0


def test_transitions_carry_clock_timestamps_and_callback_fires():
    clock = FakeClock()
    seen = []
    breaker = _breaker(
        clock, threshold=1, recovery=2.0, on=lambda o, n, t: seen.append((o, n, t))
    )
    breaker.record_failure()
    clock.advance(2.0)
    breaker.allow()
    breaker.record_success()
    assert [t for t, _, _ in breaker.transitions()] == [0.0, 2.0, 2.0]
    assert seen == [
        (BreakerState.CLOSED, BreakerState.OPEN, 0.0),
        (BreakerState.OPEN, BreakerState.HALF_OPEN, 2.0),
        (BreakerState.HALF_OPEN, BreakerState.CLOSED, 2.0),
    ]


# -- service integration ------------------------------------------------------


class _FailingPredictor:
    """A predictor that fails until told to heal (transiently, so the
    service's retry/degrade machinery engages)."""

    def __init__(self):
        self.name = "failing"
        self.healthy = False
        self.calls = 0

    def _answer(self) -> float:
        from repro.util.errors import ConvergenceError

        self.calls += 1
        if not self.healthy:
            raise ConvergenceError("primary down")
        return 42.0

    def predict_mrt_ms(self, server, n_clients, *, buy_fraction=0.0):
        return self._answer()

    def predict_throughput(self, server, n_clients, *, buy_fraction=0.0):
        return self._answer()

    def max_clients(self, server, rt_goal_ms, *, buy_fraction=0.0):
        return int(self._answer())


class _ConstantPredictor:
    """An always-healthy fallback."""

    def __init__(self):
        self.name = "constant"

    def predict_mrt_ms(self, server, n_clients, *, buy_fraction=0.0):
        return 7.0

    def predict_throughput(self, server, n_clients, *, buy_fraction=0.0):
        return 7.0

    def max_clients(self, server, rt_goal_ms, *, buy_fraction=0.0):
        return 7


def _service(primary, fallback, clock, *, threshold=2, recovery=10.0):
    from repro.service.admission import AdmissionConfig
    from repro.service.service import PredictionService, ServiceConfig

    return PredictionService(
        primary,
        fallback=fallback,
        config=ServiceConfig(
            admission=AdmissionConfig(max_retries=0, backoff_initial_s=0.0),
            breaker=BreakerConfig(
                failure_threshold=threshold,
                recovery_time_s=recovery,
                half_open_probes=1,
            ),
        ),
        clock=clock,
    )


def test_service_opens_breaker_and_short_circuits_to_fallback():
    clock = FakeClock()
    primary = _FailingPredictor()
    with _service(primary, _ConstantPredictor(), clock) as service:
        # Two transient failures (distinct keys, so no cache interference).
        assert service.predict_mrt_ms("s", 1) == 7.0
        assert service.predict_mrt_ms("s", 2) == 7.0
        assert service.breaker.state is BreakerState.OPEN
        calls_when_opened = primary.calls
        # Open breaker: fallback answers without touching the primary.
        assert service.predict_mrt_ms("s", 3) == 7.0
        assert primary.calls == calls_when_opened
        metrics = service.export_metrics()
        assert metrics["degraded.breaker_open"] == 1
        assert metrics["breaker.state"] == 2.0
        assert metrics["breaker.rejected"] == 1


def test_service_breaker_recovers_after_primary_heals():
    clock = FakeClock()
    primary = _FailingPredictor()
    with _service(primary, _ConstantPredictor(), clock) as service:
        service.predict_mrt_ms("s", 1)
        service.predict_mrt_ms("s", 2)
        assert service.breaker.state is BreakerState.OPEN
        primary.healthy = True
        clock.advance(10.0)
        assert service.predict_mrt_ms("s", 4) == 42.0  # the successful probe
        assert service.breaker.state is BreakerState.CLOSED
        assert service.export_metrics()["breaker.to_closed"] == 1


def test_service_without_fallback_raises_circuit_open_error():
    clock = FakeClock()
    with _service(_FailingPredictor(), None, clock) as service:
        from repro.util.errors import ConvergenceError

        for n in (1, 2):
            with pytest.raises(ConvergenceError):
                service.predict_mrt_ms("s", n)
        with pytest.raises(CircuitOpenError):
            service.predict_mrt_ms("s", 3)


def test_service_cache_hits_bypass_an_open_breaker():
    clock = FakeClock()
    primary = _FailingPredictor()
    with _service(primary, _ConstantPredictor(), clock) as service:
        primary.healthy = True
        assert service.predict_mrt_ms("s", 1) == 42.0  # cached
        primary.healthy = False
        service.predict_mrt_ms("s", 2)
        service.predict_mrt_ms("s", 3)
        assert service.breaker.state is BreakerState.OPEN
        # The warm entry is still served even though the circuit is open.
        assert service.predict_mrt_ms("s", 1) == 42.0


def test_nontransient_primary_error_settles_the_breaker_bracket():
    """A primary failure outside TRANSIENT_ERRORS (a predictor bug, an
    injected non-transient fault) must still count as a breaker failure;
    a HALF_OPEN probe hitting one would otherwise leak its probe slot
    and wedge the breaker HALF_OPEN forever."""
    clock = FakeClock()
    primary = _FailingPredictor()

    def buggy_answer():
        raise ValueError("primary bug")

    primary._answer = buggy_answer
    with _service(primary, _ConstantPredictor(), clock, threshold=1) as service:
        with pytest.raises(ValueError):
            service.predict_mrt_ms("s", 1)
        assert service.breaker.state is BreakerState.OPEN
        clock.advance(10.0)
        # The HALF_OPEN probe fails non-transiently: back to OPEN, with
        # the probe slot released — not wedged HALF_OPEN.
        with pytest.raises(ValueError):
            service.predict_mrt_ms("s", 2)
        assert service.breaker.state is BreakerState.OPEN
        # Once the primary heals, the next probe re-closes the circuit.
        primary._answer = lambda: 42.0
        clock.advance(10.0)
        assert service.predict_mrt_ms("s", 3) == 42.0
        assert service.breaker.state is BreakerState.CLOSED


def test_coalesced_requests_charge_the_breaker_once_per_execution():
    """N requests sharing one coalesced execution must record one breaker
    outcome (the submitter's), not N."""
    import threading
    import time

    clock = FakeClock()
    primary = _FailingPredictor()
    entered = threading.Event()
    release = threading.Event()
    original = primary._answer

    def blocking_answer():
        entered.set()
        release.wait(timeout=5.0)
        return original()

    primary._answer = blocking_answer
    with _service(primary, _ConstantPredictor(), clock, threshold=2) as service:
        results = []
        first = threading.Thread(
            target=lambda: results.append(service.predict_mrt_ms("s", 1))
        )
        first.start()
        assert entered.wait(timeout=5.0)  # the primary execution is in flight
        second = threading.Thread(
            target=lambda: results.append(service.predict_mrt_ms("s", 1))
        )
        second.start()  # same key: coalesces onto the in-flight future
        for _ in range(500):  # hold the execution until the join happened
            if service.pool.stats().coalesced == 1:
                break
            time.sleep(0.01)
        assert service.pool.stats().coalesced == 1
        release.set()
        first.join(timeout=5.0)
        second.join(timeout=5.0)
        assert results == [7.0, 7.0]  # both degraded to the fallback
        # One execution failed, so the breaker saw ONE failure: below the
        # threshold of 2, the circuit must still be closed.
        assert service.breaker.state is BreakerState.CLOSED
        # A second (distinct-key) failing execution then opens it.
        assert service.predict_mrt_ms("s", 50) == 7.0
        assert service.breaker.state is BreakerState.OPEN


def test_service_without_breaker_config_has_no_breaker():
    from repro.service.service import PredictionService, ServiceConfig

    with PredictionService(_ConstantPredictor(), config=ServiceConfig()) as service:
        assert service.breaker is None
        assert service.predict_mrt_ms("s", 1) == 7.0
        assert "breaker.state" not in service.export_metrics()
