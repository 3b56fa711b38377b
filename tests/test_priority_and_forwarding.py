"""Tests for the remaining section-8.1/§5 system-model variations:
priority thread queuing (simulator) and forwarding calls (LQN)."""

import pytest

from repro.lqn.model import Call, CallKind, Entry, LqnModel, Processor, Scheduling, Task
from repro.lqn.solver import LqnSolver
from repro.servers.catalogue import APP_SERV_S
from repro.simulation.engine import Simulator
from repro.simulation.resources import ThreadPool
from repro.simulation.system import SimulationConfig, simulate_deployment
from repro.workload.trade import browse_class


class TestPriorityThreadPool:
    def test_default_priorities_are_fifo(self):
        sim = Simulator()
        pool = ThreadPool(sim, "t", capacity=1)
        order = []
        pool.acquire(lambda: order.append("holder"))
        pool.acquire(lambda: order.append("first"))
        pool.acquire(lambda: order.append("second"))
        pool.release()
        pool.release()
        assert order == ["holder", "first", "second"]

    def test_urgent_waiter_jumps_queue(self):
        sim = Simulator()
        pool = ThreadPool(sim, "t", capacity=1)
        order = []
        pool.acquire(lambda: order.append("holder"))
        pool.acquire(lambda: order.append("normal"), priority=1)
        pool.acquire(lambda: order.append("urgent"), priority=0)
        pool.release()
        pool.release()
        assert order == ["holder", "urgent", "normal"]

    def test_fifo_within_priority_level(self):
        sim = Simulator()
        pool = ThreadPool(sim, "t", capacity=1)
        order = []
        pool.acquire(lambda: order.append("holder"))
        pool.acquire(lambda: order.append("a"), priority=2)
        pool.acquire(lambda: order.append("b"), priority=2)
        pool.release()
        pool.release()
        assert order == ["holder", "a", "b"]

    @pytest.mark.slow
    def test_priority_class_sees_lower_response_at_saturation(self):
        """With a saturated server, the high-priority class's requests wait
        less in the thread queue than the low-priority class's."""
        hi = browse_class(name="hi", priority=0)
        lo = browse_class(name="lo", priority=1)
        config = SimulationConfig(duration_s=40.0, warmup_s=10.0, seed=13)
        result = simulate_deployment(APP_SERV_S, {hi: 500, lo: 500}, config)
        assert result.per_class_mean_ms["hi"] < result.per_class_mean_ms["lo"] * 0.8


def forwarding_model(kind: CallKind) -> LqnModel:
    """clients -> frontend -> (kind) backend, with a single-thread frontend
    so the frontend's holding time is the binding constraint."""
    model = LqnModel()
    model.add_processor(Processor(name="cl", scheduling=Scheduling.DELAY))
    model.add_processor(Processor(name="front_cpu"))
    model.add_processor(Processor(name="back_cpu"))
    model.add_task(
        Task(
            name="backend",
            processor="back_cpu",
            entries=(Entry("back_work", demand_ms=8.0),),
            multiplicity=100,
        )
    )
    model.add_task(
        Task(
            name="frontend",
            processor="front_cpu",
            entries=(
                Entry("front_work", demand_ms=2.0, calls=(Call("back_work", 1.0, kind=kind),)),
            ),
            multiplicity=1,  # a single worker: holding time gates throughput
        )
    )
    model.add_task(
        Task(
            name="clients",
            processor="cl",
            entries=(Entry("cycle", 0.0, calls=(Call("front_work", 1.0),)),),
            multiplicity=12,
            is_reference=True,
            think_time_ms=200.0,
        )
    )
    model.validate()
    return model


class TestForwardingCalls:
    def test_forwarded_work_stays_on_response_path(self):
        solver = LqnSolver()
        forwarded = solver.solve(forwarding_model(CallKind.FORWARDING))
        asynchronous = solver.solve(forwarding_model(CallKind.ASYNCHRONOUS))
        # Forwarding keeps the backend's 8ms on the client's response; the
        # async variant does not.
        assert forwarded.response_ms["clients"] > asynchronous.response_ms["clients"] + 5.0

    def test_forwarding_releases_the_callers_thread(self):
        solver = LqnSolver()
        synchronous = solver.solve(forwarding_model(CallKind.SYNCHRONOUS))
        forwarded = solver.solve(forwarding_model(CallKind.FORWARDING))
        # The single frontend thread holds 32ms per request when blocking
        # synchronously but only ~2ms when forwarding, so the forwarding
        # system sustains a much lower response under the same load: the
        # thread-queue wait collapses.
        assert forwarded.response_ms["clients"] < synchronous.response_ms["clients"] * 0.75

    def test_forwarding_loads_backend_like_sync(self):
        solver = LqnSolver()
        synchronous = solver.solve(forwarding_model(CallKind.SYNCHRONOUS))
        forwarded = solver.solve(forwarding_model(CallKind.FORWARDING))
        assert forwarded.processor_utilisation["back_cpu"] == pytest.approx(
            synchronous.processor_utilisation["back_cpu"], rel=0.5
        )
