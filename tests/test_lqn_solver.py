"""Tests for the layered solver: flattening, builder, and solution quality
against both analytic expectations and the simulator."""

import pytest

from repro.lqn.builder import (
    RequestTypeParameters,
    TradeModelParameters,
    build_trade_model,
)
from repro.lqn.model import Call, CallKind, Entry, LqnModel, Processor, Scheduling, Task
from repro.lqn.solver import LqnSolver, SolverOptions
from repro.prediction.interface import LqnPredictor
from repro.servers.catalogue import APP_SERV_F, APP_SERV_S
from repro.util.errors import ValidationError
from repro.workload.trade import mixed_workload, typical_workload

BROWSE_PARAMS = RequestTypeParameters(
    name="browse",
    app_demand_ms=5.376,
    db_calls=1.14,
    db_cpu_per_call_ms=0.8294,
    db_disk_per_call_ms=1.2,
)
BUY_PARAMS = RequestTypeParameters(
    name="buy",
    app_demand_ms=10.455,
    db_calls=2.0,
    db_cpu_per_call_ms=1.613,
    db_disk_per_call_ms=1.5,
)
PARAMS = TradeModelParameters(
    request_types={"browse": BROWSE_PARAMS, "buy": BUY_PARAMS}
)


@pytest.fixture(scope="module")
def solver():
    return LqnSolver(SolverOptions(convergence_criterion_ms=0.5))


class TestBuilder:
    def test_model_validates(self):
        model = build_trade_model(APP_SERV_F, typical_workload(100), PARAMS)
        model.validate()

    def test_layers_are_client_app_db_disk(self):
        model = build_trade_model(APP_SERV_F, typical_workload(100), PARAMS)
        layers = [[t.name for t in layer] for layer in model.task_layers()]
        assert layers == [["browse"], ["app_server"], ["db_server"], ["disk"]]

    def test_app_processor_speed_scales_with_architecture(self):
        model = build_trade_model(APP_SERV_S, typical_workload(100), PARAMS)
        assert model.processors["app_cpu"].speed == pytest.approx(86 / 186)

    def test_mixed_workload_creates_two_reference_tasks(self):
        model = build_trade_model(APP_SERV_F, mixed_workload(100, 0.25), PARAMS)
        assert sorted(t.name for t in model.reference_tasks()) == ["browse", "buy"]

    def test_zero_clients_class_skipped(self):
        model = build_trade_model(APP_SERV_F, mixed_workload(100, 0.0), PARAMS)
        assert [t.name for t in model.reference_tasks()] == ["browse"]

    def test_uncalibrated_request_type_rejected(self):
        only_browse = TradeModelParameters(request_types={"browse": BROWSE_PARAMS})
        with pytest.raises(ValidationError, match="uncalibrated"):
            build_trade_model(APP_SERV_F, mixed_workload(100, 0.25), only_browse)

    def test_network_delay_adds_task(self):
        params = TradeModelParameters(
            request_types={"browse": BROWSE_PARAMS}, network_delay_ms=10.0
        )
        model = build_trade_model(APP_SERV_F, typical_workload(100), params)
        assert "network_link" in model.tasks

    def test_session_read_calls_add_db_session_entry(self):
        model = build_trade_model(
            APP_SERV_F,
            typical_workload(100),
            PARAMS,
            session_read_calls={"browse": 0.5},
        )
        assert model.entry("db_session").demand_ms == pytest.approx(0.8)
        client_entry = model.entry("client_browse")
        assert any(c.target_entry == "db_session" for c in client_entry.calls)


class TestSolverBasics:
    def test_low_load_response_equals_total_demand(self, solver):
        model = build_trade_model(APP_SERV_F, typical_workload(1), PARAMS)
        solution = solver.solve(model)
        expected = 5.376 + 1.14 * (0.8294 + 1.2)
        assert solution.response_ms["browse"] == pytest.approx(expected, rel=0.01)

    def test_throughput_obeys_cycle_law(self, solver):
        model = build_trade_model(APP_SERV_F, typical_workload(500), PARAMS)
        solution = solver.solve(model)
        x = solution.throughput_req_per_s["browse"]
        r = solution.response_ms["browse"]
        assert x == pytest.approx(500 / (7.0 + r / 1000.0), rel=0.01)

    def test_saturation_throughput_is_186(self, solver):
        model = build_trade_model(APP_SERV_F, typical_workload(3000), PARAMS)
        solution = solver.solve(model)
        assert solution.throughput_req_per_s["browse"] == pytest.approx(186.0, rel=0.02)

    def test_slow_server_scales(self, solver):
        model = build_trade_model(APP_SERV_S, typical_workload(2000), PARAMS)
        solution = solver.solve(model)
        assert solution.throughput_req_per_s["browse"] == pytest.approx(86.0, rel=0.02)

    def test_utilisations_reported_and_bounded(self, solver):
        model = build_trade_model(APP_SERV_F, typical_workload(1500), PARAMS)
        solution = solver.solve(model)
        for value in solution.processor_utilisation.values():
            assert 0.0 <= value <= 1.0 + 1e-9
        assert solution.processor_utilisation["app_cpu"] > 0.9

    def test_buy_class_has_longer_responses(self, solver):
        model = build_trade_model(APP_SERV_F, mixed_workload(800, 0.25), PARAMS)
        solution = solver.solve(model)
        assert solution.response_ms["buy"] > solution.response_ms["browse"]

    def test_mean_response_is_throughput_weighted(self, solver):
        model = build_trade_model(APP_SERV_F, mixed_workload(800, 0.25), PARAMS)
        solution = solver.solve(model)
        weighted = sum(
            solution.response_ms[c] * solution.throughput_req_per_s[c]
            for c in solution.response_ms
        ) / sum(solution.throughput_req_per_s.values())
        assert solution.mean_response_ms() == pytest.approx(weighted)

    def test_solve_count_increments(self):
        solver = LqnSolver()
        model = build_trade_model(APP_SERV_F, typical_workload(10), PARAMS)
        solver.solve(model)
        solver.solve(model)
        assert solver.solve_count == 2

    def test_network_delay_extension_adds_latency(self, solver):
        with_net = TradeModelParameters(
            request_types=dict(PARAMS.request_types), network_delay_ms=10.0
        )
        base = solver.solve(build_trade_model(APP_SERV_F, typical_workload(100), PARAMS))
        extended = solver.solve(
            build_trade_model(APP_SERV_F, typical_workload(100), with_net)
        )
        delta = extended.response_ms["browse"] - base.response_ms["browse"]
        assert delta == pytest.approx(10.0, rel=0.05)


class TestConvergenceCriterion:
    def test_tighter_criterion_more_iterations(self):
        model = build_trade_model(APP_SERV_F, typical_workload(1300), PARAMS)
        loose = LqnSolver(SolverOptions(convergence_criterion_ms=20.0)).solve(model)
        tight = LqnSolver(SolverOptions(convergence_criterion_ms=0.01)).solve(model)
        assert tight.iterations > loose.iterations

    def test_results_agree_when_converged(self):
        model = build_trade_model(APP_SERV_F, typical_workload(400), PARAMS)
        loose = LqnSolver(SolverOptions(convergence_criterion_ms=5.0)).solve(model)
        tight = LqnSolver(SolverOptions(convergence_criterion_ms=0.01)).solve(model)
        assert loose.response_ms["browse"] == pytest.approx(
            tight.response_ms["browse"], abs=10.0
        )


class TestMaxClientsSearch:
    """``LqnPredictor.max_clients``, the one layered capacity search."""

    @staticmethod
    def _predictor() -> LqnPredictor:
        return LqnPredictor(
            PARAMS,
            {APP_SERV_F.name: APP_SERV_F},
            solver_options=SolverOptions(convergence_criterion_ms=1.0),
        )

    def test_search_finds_capacity(self):
        predictor = self._predictor()
        before = predictor.solver.solve_count
        capacity = predictor.max_clients(APP_SERV_F.name, 100.0)
        assert predictor.solver.solve_count - before > 3  # a search, not a closed form
        # The boundary is exact: capacity meets the goal, one more client not.
        assert predictor.predict_mrt_ms(APP_SERV_F.name, capacity) <= 100.0
        assert predictor.predict_mrt_ms(APP_SERV_F.name, capacity + 1) > 100.0

    def test_goal_unreachable_returns_zero(self):
        assert self._predictor().max_clients(APP_SERV_F.name, 0.001) == 0

    def test_capacity_near_search_bound_is_bracketed(self):
        predictor = self._predictor()
        capacity = predictor.max_clients(APP_SERV_F.name, 3e6)
        assert 2**19 < capacity < 2**20  # found on the last doubling step
        assert predictor.predict_mrt_ms(APP_SERV_F.name, capacity) <= 3e6
        assert predictor.predict_mrt_ms(APP_SERV_F.name, capacity + 1) > 3e6

    def test_goal_met_at_search_bound_raises(self):
        # No probe fails the goal, so there is no capacity to bracket.
        with pytest.raises(ValidationError, match="1,048,576"):
            self._predictor().max_clients(APP_SERV_F.name, 1e8)


class TestAsyncAndPhase2:
    def _model(self, *, async_calls: bool = False, phase2: float = 0.0) -> LqnModel:
        model = LqnModel()
        model.add_processor(Processor(name="cl", scheduling=Scheduling.DELAY))
        model.add_processor(Processor(name="cpu"))
        model.add_processor(Processor(name="worker_cpu"))
        kind = CallKind.ASYNCHRONOUS if async_calls else CallKind.SYNCHRONOUS
        model.add_task(
            Task(
                name="worker",
                processor="worker_cpu",
                entries=(Entry("work", demand_ms=20.0),),
                multiplicity=100,
            )
        )
        model.add_task(
            Task(
                name="server",
                processor="cpu",
                entries=(
                    Entry(
                        "serve",
                        demand_ms=5.0,
                        calls=(Call("work", 1.0, kind=kind),),
                        phase2_demand_ms=phase2,
                    ),
                ),
                multiplicity=100,
            )
        )
        model.add_task(
            Task(
                name="clients",
                processor="cl",
                entries=(Entry("cycle", 0.0, calls=(Call("serve", 1.0),)),),
                multiplicity=20,
                is_reference=True,
                think_time_ms=1000.0,
            )
        )
        return model

    def test_async_call_off_response_path(self):
        solver = LqnSolver()
        sync = solver.solve(self._model(async_calls=False))
        asynch = solver.solve(self._model(async_calls=True))
        # The 20ms downstream work no longer blocks the caller.
        assert asynch.response_ms["clients"] < sync.response_ms["clients"] - 15.0
        # But it still loads the worker processor.
        assert asynch.processor_utilisation["worker_cpu"] > 0.0

    def test_phase2_off_response_path_but_loads_cpu(self):
        solver = LqnSolver()
        base = solver.solve(self._model())
        with_p2 = solver.solve(self._model(phase2=15.0))
        assert with_p2.response_ms["clients"] == pytest.approx(
            base.response_ms["clients"], rel=0.25
        )
        assert (
            with_p2.processor_utilisation["cpu"] > base.processor_utilisation["cpu"]
        )


class TestAgainstSimulator:
    @pytest.mark.slow
    def test_calibrated_model_tracks_simulator(self, lqn_calibration_fast, short_config):
        from repro.simulation.system import simulate_deployment

        params = lqn_calibration_fast.to_model_parameters()
        solver = LqnSolver(SolverOptions(convergence_criterion_ms=0.5))
        for n in (300, 900):
            model = build_trade_model(APP_SERV_F, typical_workload(n), params)
            solution = solver.solve(model)
            sim = simulate_deployment(APP_SERV_F, typical_workload(n), short_config)
            assert solution.throughput_req_per_s["browse"] == pytest.approx(
                sim.throughput_req_per_s, rel=0.05
            )
