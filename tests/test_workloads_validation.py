"""The round-trip validation battery: fit, regenerate, compare."""

import pytest

from repro.util.errors import ValidationError
from repro.workload.modulators import MixSchedule
from repro.workload.scenario import ScenarioSpec, generate_records
from repro.workload.dists import lognormal_spec
from repro.workload.validation import (
    Tolerances,
    fit_scenario_from_records,
    validate_roundtrip,
)


def _source_records(n_clients=50, duration_s=240.0, seed=2024):
    spec = ScenarioSpec(
        name="source",
        n_clients=n_clients,
        duration_s=duration_s,
        think_time=lognormal_spec(8.3, 0.9),
        mix=MixSchedule.constant(0.15),
    )
    return generate_records(spec, seed=seed)


class TestFitScenario:
    def test_fitted_scenario_mirrors_source_shape(self):
        records = _source_records()
        spec, fit, tail_class = fit_scenario_from_records(records, name="refit")
        assert spec.name == "refit"
        assert spec.n_clients == records.n_clients
        assert spec.duration_s == pytest.approx(records.duration_ms / 1000.0)
        assert fit.spec.kind == "lognormal"
        assert tail_class in ("exponential", "heavy-tailed", "other")
        observed_buy = records.type_fractions().get("buy", 0.0)
        assert spec.mix.buy_fraction(0.0) == pytest.approx(observed_buy)


class TestRoundTrip:
    def test_self_generated_trace_validates(self):
        report = validate_roundtrip(_source_records(), seed=77)
        assert report.passed, report.to_dict()
        names = {check.name for check in report.checks}
        assert {"arrival_rate_req_per_s", "think_mean_ms", "think_cv2"} <= names
        assert any(name.startswith("mix_fraction:") for name in names)

    def test_report_is_deterministic(self):
        records = _source_records()
        first = validate_roundtrip(records, seed=77)
        second = validate_roundtrip(records, seed=77)
        assert first.to_dict() == second.to_dict()

    def test_impossible_tolerances_fail_with_diagnosis(self):
        tight = Tolerances(
            arrival_rate_rel=1e-9,
            think_mean_rel=1e-9,
            think_cv2_rel=1e-9,
            mix_fraction_abs=1e-9,
        )
        report = validate_roundtrip(_source_records(), seed=77, tolerances=tight)
        assert not report.passed
        failing = [check for check in report.checks if not check.passed]
        assert failing
        # Every failing check still carries both values for diagnosis.
        for check in failing:
            assert check.source != 0.0 or check.regenerated != 0.0

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValidationError):
            validate_roundtrip(_source_records(), seed=-1)

    def test_tolerances_must_be_positive(self):
        with pytest.raises(ValidationError):
            Tolerances(arrival_rate_rel=0.0)

    def test_payload_shape(self):
        payload = validate_roundtrip(_source_records(), seed=77).to_dict()
        assert set(payload) == {
            "scenario",
            "think_fit",
            "tail_class",
            "checks",
            "passed",
        }
        assert payload["scenario"]["name"] == "fitted"
