"""Tests for the cross-method prediction API: accuracy metric, method
profiles, and the predictor wrappers."""

import pytest

from repro.prediction.accuracy import (
    AccuracyReport,
    accuracy,
    mean_accuracy,
    paper_overall_accuracy,
    region_of,
)
from repro.prediction.comparison import (
    METHOD_PROFILES,
    MeasuredQuantities,
    evaluation_matrix,
)
from repro.util.errors import ValidationError


class TestAccuracyMetric:
    def test_perfect_prediction(self):
        assert accuracy(100.0, 100.0) == 1.0

    def test_ten_percent_error(self):
        assert accuracy(90.0, 100.0) == pytest.approx(0.9)
        assert accuracy(110.0, 100.0) == pytest.approx(0.9)

    def test_can_be_negative(self):
        # The paper's figure 3 discussion allows accuracy below zero.
        assert accuracy(300.0, 100.0) == pytest.approx(-1.0)

    def test_zero_actual_rejected(self):
        with pytest.raises(ValidationError):
            accuracy(10.0, 0.0)

    def test_mean_accuracy(self):
        assert mean_accuracy([(90.0, 100.0), (100.0, 100.0)]) == pytest.approx(0.95)

    def test_mean_accuracy_empty_rejected(self):
        with pytest.raises(ValidationError):
            mean_accuracy([])

    def test_paper_overall(self):
        assert paper_overall_accuracy(0.8, 0.9) == pytest.approx(0.85)


class TestRegions:
    def test_lower_region(self):
        assert region_of(100, 1000.0) == "lower"
        assert region_of(659, 1000.0) == "lower"

    def test_transition_region(self):
        assert region_of(660, 1000.0) == "transition"
        assert region_of(1100, 1000.0) == "transition"

    def test_upper_region(self):
        assert region_of(1101, 1000.0) == "upper"


class TestAccuracyReport:
    def test_bucketing_and_aggregation(self):
        report = AccuracyReport(method="m", server="s")
        report.add(100, 1000.0, 90.0, 100.0)  # lower: 0.9
        report.add(2000, 1000.0, 100.0, 100.0)  # upper: 1.0
        report.add(800, 1000.0, 50.0, 100.0)  # transition: excluded
        assert report.lower_accuracy == pytest.approx(0.9)
        assert report.upper_accuracy == pytest.approx(1.0)
        assert report.overall_accuracy == pytest.approx(0.95)

    def test_all_points_accuracy_includes_transition(self):
        report = AccuracyReport(method="m", server="s")
        report.add(100, 1000.0, 100.0, 100.0)
        report.add(800, 1000.0, 50.0, 100.0)
        assert report.all_points_accuracy() == pytest.approx(0.75)

    def test_empty_region_raises(self):
        report = AccuracyReport(method="m", server="s")
        report.add(100, 1000.0, 90.0, 100.0)
        with pytest.raises(ValidationError):
            _ = report.upper_accuracy


class TestComparison:
    def test_profiles_cover_three_methods(self):
        assert set(METHOD_PROFILES) == {"historical", "layered_queuing", "hybrid"}

    def test_section_8_findings_encoded(self):
        assert METHOD_PROFILES["historical"].can_model_caching is True
        assert METHOD_PROFILES["layered_queuing"].can_model_caching is False
        assert METHOD_PROFILES["hybrid"].can_model_caching is False
        assert METHOD_PROFILES["historical"].can_predict_percentiles_directly is True
        assert METHOD_PROFILES["layered_queuing"].can_predict_percentiles_directly is False

    def test_matrix_merges_measured_quantities(self):
        rows = evaluation_matrix(
            {"historical": MeasuredQuantities(mrt_accuracy_established=0.891)}
        )
        by_method = {row["method"]: row for row in rows}
        assert by_method["historical"]["mrt_accuracy_established"] == 0.891
        assert by_method["hybrid"]["mrt_accuracy_established"] is None

    def test_matrix_without_measurements(self):
        rows = evaluation_matrix()
        assert len(rows) == 3


class TestPredictorWrappers:
    @pytest.fixture(scope="class")
    def predictors(self, lqn_calibration_fast):
        from repro.hybrid.model import AdvancedHybridModel
        from repro.prediction.interface import HybridPredictor, LqnPredictor
        from repro.servers.catalogue import ALL_APP_SERVERS, APP_SERV_F

        params = lqn_calibration_fast.to_model_parameters()
        lqn = LqnPredictor(params, {a.name: a for a in ALL_APP_SERVERS})
        hybrid = HybridPredictor.from_parameters(params, [APP_SERV_F])
        return lqn, hybrid

    def test_lqn_unknown_server(self, predictors):
        lqn, _ = predictors
        from repro.util.errors import CalibrationError

        with pytest.raises(CalibrationError):
            lqn.predict_mrt_ms("Mystery", 100)

    def test_hybrid_startup_recorded(self, predictors):
        _, hybrid = predictors
        assert hybrid.model.report.startup_delay_s > 0.0

    def test_clients_at_max_reads_the_throughput_model(self, predictors):
        from repro.prediction.interface import HistoricalPredictor

        _, hybrid = predictors
        historical = HistoricalPredictor(hybrid.model.historical)
        expected = hybrid.model.historical.throughput_model.clients_at_max("AppServF")
        assert expected > 0.0
        assert hybrid.clients_at_max("AppServF") == expected
        assert historical.clients_at_max("AppServF") == expected

    def test_hybrid_prediction_much_faster_than_lqn(self, predictors):
        lqn, hybrid = predictors
        import time

        start = time.perf_counter()
        for _ in range(50):
            hybrid.predict_mrt_ms("AppServF", 500)
        hybrid_time = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(5):
            lqn.predict_mrt_ms("AppServF", 500)
        lqn_time = (time.perf_counter() - start) * 10  # per-50 equivalent
        assert hybrid_time < lqn_time / 10

    def test_lqn_and_hybrid_agree_roughly(self, predictors):
        lqn, hybrid = predictors
        a = lqn.predict_mrt_ms("AppServF", 400)
        b = hybrid.predict_mrt_ms("AppServF", 400)
        assert a == pytest.approx(b, rel=0.5)

    def test_lqn_max_clients_searches(self, predictors):
        lqn, _ = predictors
        solves_before = lqn.solver.solve_count
        capacity = lqn.max_clients("AppServF", 100.0)
        assert capacity > 0
        assert lqn.solver.solve_count - solves_before > 3

    @pytest.mark.parametrize(
        "kind", ["historical", "layered_queuing", "hybrid", "service", "minimal"]
    )
    def test_satisfies_predictor_protocol(self, predictors, kind):
        from repro.prediction.interface import HistoricalPredictor, Predictor
        from repro.service import PredictionService

        lqn, hybrid = predictors
        with PredictionService(lqn) as service:
            candidate = {
                "historical": HistoricalPredictor(hybrid.model.historical),
                "layered_queuing": lqn,
                "hybrid": hybrid,
                "service": service,
                "minimal": _MinimalPredictor(),
            }[kind]
            assert isinstance(candidate, Predictor)


class _MinimalPredictor:
    """Only what the protocol asks for: a name and the three queries."""

    name = "minimal"

    def predict_mrt_ms(self, server, n_clients, *, buy_fraction=0.0):
        return 100.0

    def predict_throughput(self, server, n_clients, *, buy_fraction=0.0):
        return 10.0

    def max_clients(self, server, rt_goal_ms, *, buy_fraction=0.0):
        return 1


NAN = float("nan")
INF = float("inf")


class TestPredictorBoundary:
    """All three methods reject the same bad inputs with the same typed error."""

    @pytest.fixture(scope="class")
    def methods(self):
        from repro.experiments.scenario import build_predictors

        historical, lqn, hybrid, _ = build_predictors(fast=True)
        return {"historical": historical, "lqn": lqn, "hybrid": hybrid}

    @pytest.mark.parametrize(
        "query, operand",
        [
            ("predict_mrt_ms", -5.0),
            ("predict_mrt_ms", NAN),
            ("predict_mrt_ms", INF),
            ("predict_throughput", -5.0),
            ("predict_throughput", NAN),
            ("predict_throughput", INF),
            ("max_clients", -1.0),
            ("max_clients", 0.0),
            ("max_clients", NAN),
            ("max_clients", INF),
        ],
    )
    @pytest.mark.parametrize("method", ["historical", "lqn", "hybrid"])
    def test_bad_operand_is_a_validation_error(self, methods, method, query, operand):
        with pytest.raises(ValidationError):
            getattr(methods[method], query)("AppServS", operand)

    def test_lqn_solves_zero_clients_as_one(self, methods):
        lqn = methods["lqn"]
        assert lqn.predict_mrt_ms("AppServS", 0) == lqn.predict_mrt_ms("AppServS", 1)
