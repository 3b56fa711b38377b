"""End-to-end tests of the span instrumentation in each layer.

Every test attaches a ring sink to the *global* ``TRACER`` (that is
what the instrumented code emits to) and detaches it in ``finally``, so
a failure can never leak an enabled tracer into other tests.
"""

from __future__ import annotations

import sys
import types

import pytest

from repro.lqn.builder import (
    RequestTypeParameters,
    TradeModelParameters,
    build_trade_model,
)
from repro.lqn.solver import LqnSolver, SolverOptions
from repro.servers.catalogue import APP_SERV_S
from repro.service.admission import AdmissionConfig
from repro.service.service import PredictionService, ServiceConfig
from repro.simulation.engine import EVENT_TRACE_SAMPLE, Simulator
from repro.trace import TRACER, RingBufferSink
from repro.trace.events import BEGIN, END, INSTANT
from repro.util.errors import CalibrationError
from repro.workload.trade import typical_workload

PARAMS = TradeModelParameters(
    request_types={
        "browse": RequestTypeParameters(
            name="browse",
            app_demand_ms=5.376,
            db_calls=1.14,
            db_cpu_per_call_ms=0.8294,
            db_disk_per_call_ms=1.2,
        )
    }
)


@pytest.fixture
def sink():
    """Attach a fresh ring sink to the global tracer for one test."""
    ring = RingBufferSink()
    TRACER.enable(ring)
    try:
        yield ring
    finally:
        TRACER.disable()


def spans_named(events, name):
    return [e for e in events if e.name == name and e.kind == END]


class TestSolverInstrumentation:
    def test_solve_emits_span_tree_and_iteration_instants(self, sink):
        model = build_trade_model(APP_SERV_S, typical_workload(200), PARAMS)
        LqnSolver(SolverOptions(convergence_criterion_ms=0.5)).solve(model)
        events = sink.events()

        (solve,) = spans_named(events, "lqn.solve")
        assert solve.attributes["classes"] >= 1
        assert solve.attributes["stations"] >= 1
        assert solve.attributes["iterations"] >= 1
        # The stage spans nest under the solve span.
        for stage in ("lqn.flatten", "lqn.build_network", "lqn.iterate"):
            (end,) = spans_named(events, stage)
            assert end.parent_id == solve.span_id

        iterations = [e for e in events if e.name == "lqn.mva.iteration"]
        assert iterations, "expected sampled per-MVA-iteration instants"
        assert all(e.kind == INSTANT for e in iterations)
        assert any(e.attributes["iteration"] == 1 for e in iterations)
        assert all("delta" in e.attributes for e in iterations)

        # One instant per tolerance-ladder rung crossed, all along one
        # trajectory: the last crossing is the step the solve stopped at.
        stages = [e for e in events if e.name == "lqn.solve.stage"]
        assert [e.attributes["stage"] for e in stages] == list(range(1, len(stages) + 1))
        steps = [e.attributes["iterations"] for e in stages]
        assert steps == sorted(steps)
        assert steps[-1] == solve.attributes["iterations"]
        assert stages[0].attributes["residual_ms"] is None
        assert all(e.attributes["residual_ms"] >= 0.0 for e in stages[1:])

    def test_sweep_emits_batch_span_tree_and_convergence_instants(self, sink):
        models = [
            build_trade_model(APP_SERV_S, typical_workload(n), PARAMS)
            for n in (100, 200, 300, 400, 500, 600)
        ]
        solver = LqnSolver(SolverOptions(convergence_criterion_ms=0.5))
        network = solver.prepare(models[0])
        solver.solve_networks([(network, *network.load_of(model)) for model in models])
        events = sink.events()

        (sweep,) = spans_named(events, "lqn.sweep")
        assert sweep.attributes["models"] == len(models)
        assert sweep.attributes["groups"] == 1  # one shared structure
        (iterate,) = spans_named(events, "lqn.iterate")
        assert iterate.parent_id == sweep.span_id
        assert iterate.attributes["points"] == len(models)

        stages = [e for e in events if e.name == "lqn.solve.stage"]
        assert stages and all(e.kind == INSTANT for e in stages)
        assert all(e.attributes["active"] >= 1 for e in stages)

        iterations = [e for e in events if e.name == "lqn.mva.iteration"]
        assert iterations, "expected sampled batch-convergence instants"
        assert any(e.attributes["iteration"] == 1 for e in iterations)
        # Each instant reports the batch residual and the straggler count.
        assert all("delta" in e.attributes for e in iterations)
        assert all(1 <= e.attributes["active"] <= len(models) for e in iterations)

    def test_untraced_solve_emits_nothing(self):
        assert not TRACER.enabled
        model = build_trade_model(APP_SERV_S, typical_workload(200), PARAMS)
        ring = RingBufferSink()  # never attached
        LqnSolver().solve(model)
        assert ring.events() == []


class _Stub:
    def __init__(self, *, fail=False):
        self.name = "stub"
        self.fail = fail

    def predict_mrt_ms(self, server, n_clients, *, buy_fraction=0.0):
        if self.fail:
            raise CalibrationError("always transient (stub)")
        return 123.0

    def predict_throughput(self, server, n_clients, *, buy_fraction=0.0):
        return 1.0

    def max_clients(self, server, rt_goal_ms, *, buy_fraction=0.0):
        return 9


class TestServiceInstrumentation:
    def test_request_span_links_cache_admission_and_pool_execution(self, sink):
        with PredictionService(_Stub(), config=ServiceConfig(max_workers=1)) as svc:
            svc.predict_mrt_ms("S", 500)  # miss: runs on the pool
            svc.predict_mrt_ms("S", 500)  # hit
        events = sink.events()

        miss, hit = spans_named(events, "service.request")
        assert miss.attributes["outcome"] == "computed"
        assert hit.attributes["outcome"] == "cache_hit"

        (execute,) = spans_named(events, "service.execute")
        assert execute.parent_id == miss.span_id  # nests across the pool

        cache_marks = [e for e in events if e.name == "service.cache"]
        assert [m.attributes["hit"] for m in cache_marks] == [False, True]
        admitted = [e for e in events if e.name == "service.admission"]
        assert [a.attributes["admitted"] for a in admitted] == [True]

    def test_degradation_emits_fallback_events(self, sink):
        config = ServiceConfig(
            max_workers=1,
            admission=AdmissionConfig(max_retries=0, backoff_initial_s=0.0),
        )
        with PredictionService(
            _Stub(fail=True), fallback=_Stub(), config=config
        ) as svc:
            assert svc.predict_mrt_ms("S", 700) == 123.0
        events = sink.events()

        (request,) = spans_named(events, "service.request")
        assert request.attributes["outcome"] == "degraded.error"
        (mark,) = [e for e in events if e.name == "service.fallback"]
        assert mark.attributes == {"reason": "error", "available": True}
        (call,) = spans_named(events, "service.fallback_call")
        assert call.parent_id == request.span_id


class TestHistoricalInstrumentation:
    def build_model(self):
        from repro.historical.datastore import HistoricalDataPoint, HistoricalDataStore
        from repro.historical.model import HistoricalModel

        mx = {"F": 186.0, "VF": 320.0}
        store = HistoricalDataStore()
        for server, max_tput in mx.items():
            for frac in (0.35, 0.66, 1.15, 1.6):
                n = int(frac * max_tput / 0.14)
                store.add(
                    HistoricalDataPoint(
                        server=server,
                        n_clients=n,
                        mean_response_ms=8.0 * (1.0 + 0.002 * n),
                        throughput_req_per_s=min(0.14 * n, max_tput),
                        n_samples=50,
                    )
                )
        return HistoricalModel.calibrate(
            store,
            mx,
            mix_observations=[(0.0, 186.0), (0.25, 160.0)],
            mix_server="F",
        )

    def test_mix_miss_refits_and_hit_is_an_instant(self, sink):
        model = self.build_model()
        model.predict_mrt_ms("F", 100, buy_fraction=0.1)  # cold: refit span
        model.predict_mrt_ms("F", 100, buy_fraction=0.1)  # warm: cache instant
        events = sink.events()

        predicts = spans_named(events, "historical.predict")
        assert [p.attributes["op"] for p in predicts] == ["mrt", "mrt"]
        (refit,) = spans_named(events, "historical.mix_refit")
        assert refit.parent_id == predicts[0].span_id
        assert refit.attributes["buy_fraction"] == 0.1
        (hit,) = [e for e in events if e.name == "historical.mix_cache"]
        assert hit.kind == INSTANT
        assert hit.attributes["hit"] is True
        assert hit.span_id == predicts[1].span_id

    def test_calibrate_span_counts_servers(self, sink):
        self.build_model()
        (calibrate,) = spans_named(sink.events(), "historical.calibrate")
        assert calibrate.attributes["servers"] == 2


class TestHybridInstrumentation:
    def test_predict_reports_which_sub_model_served(self, sink):
        from repro.hybrid.model import AdvancedHybridModel, HybridCalibrationReport

        class _Hist:
            def predict_mrt_ms(self, server, n, *, buy_fraction=0.0):
                return 42.0

        hybrid = AdvancedHybridModel(
            historical=_Hist(), report=HybridCalibrationReport(), parameters=None
        )
        assert hybrid.predict_mrt_ms("F", 100) == 42.0
        (mark,) = [e for e in sink.events() if e.name == "hybrid.predict"]
        assert mark.kind == INSTANT
        assert mark.attributes == {"op": "mrt", "served_by": "historical"}


class TestSimulationInstrumentation:
    def test_run_until_span_and_sampled_event_instants(self, sink):
        sim = Simulator()
        count = EVENT_TRACE_SAMPLE + 50

        def nop():
            pass

        for i in range(count):
            sim.schedule(float(i) * 0.001, nop)
        sim.run_until(10.0)
        events = sink.events()

        (run,) = spans_named(events, "sim.run_until")
        assert run.attributes == {"end_time_ms": 10.0}
        samples = [e for e in events if e.name == "sim.events"]
        assert len(samples) == 1  # one marker per EVENT_TRACE_SAMPLE events
        assert samples[0].attributes["processed"] == EVENT_TRACE_SAMPLE
        (counter,) = [e for e in events if e.name == "sim.events_processed"]
        assert counter.value == float(count)


class TestRunnerInstrumentation:
    def test_each_experiment_gets_a_root_span(self, sink, monkeypatch):
        from repro.experiments import runner

        module = types.ModuleType("repro.experiments._fake_traced")
        module.run = lambda fast=False: "ok"
        monkeypatch.setitem(sys.modules, module.__name__, module)
        monkeypatch.setitem(runner.EXPERIMENTS, "_fake", module.__name__)

        assert runner.run_experiment("_fake", fast=True) == "ok"
        (root,) = spans_named(sink.events(), "experiment")
        assert root.attributes == {"id": "_fake", "fast": True}
        assert root.parent_id == 0
