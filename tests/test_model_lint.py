"""The LQN model linter and its two wiring points (solver, service)."""

import pytest

from repro.analysis import ModelLintError, check_model, lint_model, model_preflight
from repro.lqn.builder import (
    RequestTypeParameters,
    TradeModelParameters,
    build_trade_model,
)
from repro.lqn.model import Call, Entry, LqnModel, Processor, Task
from repro.lqn.serialization import model_to_dict
from repro.lqn.solver import LqnSolver, SolverOptions
from repro.servers.catalogue import APP_SERV_F
from repro.service.service import PredictionService, ServiceConfig
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


def good_model() -> LqnModel:
    return build_trade_model(APP_SERV_F, typical_workload(50), PARAMS)


def cyclic_model() -> LqnModel:
    """client -> a -> b -> a: a call cycle the dataclasses happily build."""
    model = LqnModel()
    model.add_processor(Processor("client_cpu"))
    model.add_processor(Processor("cpu"))
    model.add_task(
        Task(
            name="client",
            processor="client_cpu",
            entries=(Entry("browse", 0.0, (Call("a", 1.0),)),),
            is_reference=True,
            think_time_ms=1000.0,
        )
    )
    model.add_task(
        Task(
            name="A",
            processor="cpu",
            entries=(Entry("a", 1.0, (Call("b", 1.0),)),),
        )
    )
    model.add_task(
        Task(
            name="B",
            processor="cpu",
            entries=(Entry("b", 1.0, (Call("a", 0.5),)),),
        )
    )
    return model


class TestLintModel:
    def test_clean_model_has_no_findings(self):
        assert lint_model(good_model()) == []

    def test_clean_dict_form_has_no_findings(self):
        assert lint_model(model_to_dict(good_model())) == []

    def test_call_cycle_detected_with_path(self):
        found = lint_model(cyclic_model())
        cycles = [f for f in found if f.rule_id == "REPRO-LQN001"]
        assert cycles, found
        assert "A -> B -> A" in cycles[0].message

    def test_zero_multiplicity_server_in_dict_form(self):
        data = model_to_dict(good_model())
        server = next(t for t in data["tasks"] if t["name"] == "app_server")
        server["multiplicity"] = 0
        found = lint_model(data)
        assert any(
            f.rule_id == "REPRO-LQN004" and f.symbol == "app_server" for f in found
        )

    def test_negative_demand_in_dict_form(self):
        data = model_to_dict(good_model())
        data["tasks"][1]["entries"][0]["demand_ms"] = -1.0
        assert any(f.rule_id == "REPRO-LQN003" for f in lint_model(data))

    def test_unreachable_task_flagged(self):
        model = good_model()
        model.add_task(
            Task(
                name="orphan",
                processor="app_cpu",
                entries=(Entry("orphan_entry", 1.0),),
            )
        )
        found = lint_model(model)
        assert any(
            f.rule_id == "REPRO-LQN002" and f.symbol == "orphan" for f in found
        )

    def test_dangling_call_target_flagged(self):
        data = model_to_dict(good_model())
        data["tasks"][0]["entries"][0]["calls"][0]["target"] = "nowhere"
        assert any(f.rule_id == "REPRO-LQN006" for f in lint_model(data))

    def test_missing_reference_task_flagged(self):
        data = model_to_dict(good_model())
        for task in data["tasks"]:
            task["is_reference"] = False
            task["think_time_ms"] = 0.0
        assert any(f.rule_id == "REPRO-LQN005" for f in lint_model(data))


class TestCheckModel:
    def test_errors_raise_with_rule_ids(self):
        with pytest.raises(ModelLintError, match="REPRO-LQN001") as exc:
            check_model(cyclic_model())
        assert any(f.rule_id == "REPRO-LQN001" for f in exc.value.findings)

    def test_clean_model_returns_warnings_only(self):
        assert check_model(good_model()) == []


class TestSolverWiring:
    def test_lint_gate_rejects_cyclic_model_before_solving(self):
        solver = LqnSolver(SolverOptions(lint_models=True))
        with pytest.raises(ModelLintError, match="REPRO-LQN001"):
            solver.solve(cyclic_model())
        assert solver.solve_count == 0

    def test_lint_gate_passes_clean_model_through(self):
        gated = LqnSolver(SolverOptions(lint_models=True)).solve(good_model())
        plain = LqnSolver().solve(good_model())
        assert gated.mean_response_ms() == pytest.approx(plain.mean_response_ms())

    def test_lint_off_by_default(self):
        assert SolverOptions().lint_models is False


class _StubPredictor:
    """Minimal Predictor returning canned values."""

    def __init__(self):
        self.name = "stub"

    def predict_mrt_ms(self, server, n_clients, *, buy_fraction=0.0):
        return 42.0

    def predict_throughput(self, server, n_clients, *, buy_fraction=0.0):
        return 10.0

    def max_clients(self, server, rt_goal_ms, *, buy_fraction=0.0):
        return 7


class TestServicePreflight:
    def test_lint_rejection_blocks_admission_and_counts(self):
        preflight = model_preflight(lambda kind, server, operand, buy: cyclic_model())
        with PredictionService(
            _StubPredictor(), config=ServiceConfig(max_workers=1), preflight=preflight
        ) as service:
            with pytest.raises(ModelLintError, match="REPRO-LQN001"):
                service.predict_mrt_ms("AppServF", 100)
            assert service.export_metrics()["preflight.rejected"] == 1.0
            assert service.export_metrics()["admission.admitted"] == 0.0

    def test_clean_preflight_serves_normally(self):
        preflight = model_preflight(lambda kind, server, operand, buy: good_model())
        with PredictionService(
            _StubPredictor(), config=ServiceConfig(max_workers=1), preflight=preflight
        ) as service:
            assert service.predict_mrt_ms("AppServF", 100) == 42.0

    def test_cache_hits_skip_the_preflight(self):
        calls = []

        def preflight(kind, server, operand, buy):
            calls.append(kind)

        with PredictionService(
            _StubPredictor(), config=ServiceConfig(max_workers=1), preflight=preflight
        ) as service:
            service.predict_mrt_ms("AppServF", 100)
            service.predict_mrt_ms("AppServF", 100)
        assert calls == ["mrt"]
