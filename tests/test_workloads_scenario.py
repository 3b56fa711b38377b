"""Scenario compilation: determinism, serialization, both backends."""

import numpy as np
import pytest

from repro.service.service import PredictionService, ServiceConfig
from repro.util.clock import FakeClock
from repro.util.errors import ValidationError
from repro.workloads.backends import ScenarioServiceDriver, run_scenario_simulation
from repro.workloads.dists import exponential_spec, lognormal_spec
from repro.workloads.modulators import (
    DiurnalCurve,
    FlashCrowd,
    MixSchedule,
    Ramp,
    compose_factor,
    modulator_from_dict,
)
from repro.workloads.records import classify_request_type
from repro.workloads.scenario import (
    ScenarioSpec,
    canonical_spec,
    generate_entries,
    generate_records,
)


def _spec(**overrides):
    base = dict(
        name="t",
        n_clients=12,
        duration_s=90.0,
        think_time=exponential_spec(4000.0),
        mix=MixSchedule.constant(0.25),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestModulators:
    def test_diurnal_swings_around_one(self):
        curve = DiurnalCurve(period_s=100.0, amplitude=0.4)
        assert curve.factor(25.0) == pytest.approx(1.4)
        assert curve.factor(75.0) == pytest.approx(0.6)
        assert curve.factor(0.0) == pytest.approx(1.0)

    def test_flash_crowd_spikes_then_decays(self):
        crowd = FlashCrowd(at_s=50.0, magnitude=2.0, decay_s=10.0)
        assert crowd.factor(49.9) == 1.0
        assert crowd.factor(50.0) == pytest.approx(3.0)
        assert crowd.factor(60.0) == pytest.approx(1.0 + 2.0 / np.e)

    def test_ramp_interpolates(self):
        ramp = Ramp(start_s=10.0, end_s=20.0, from_factor=1.0, to_factor=3.0)
        assert ramp.factor(0.0) == 1.0
        assert ramp.factor(15.0) == pytest.approx(2.0)
        assert ramp.factor(99.0) == 3.0

    def test_composition_is_a_product(self):
        mods = (
            Ramp(start_s=0.0, end_s=10.0, from_factor=2.0, to_factor=2.0),
            FlashCrowd(at_s=0.0, magnitude=1.0, decay_s=1e9),
        )
        assert compose_factor(mods, 5.0) == pytest.approx(4.0)

    def test_round_trip_through_dict(self):
        for modulator in (
            DiurnalCurve(period_s=60.0, amplitude=0.3, phase_s=5.0),
            FlashCrowd(at_s=10.0, magnitude=1.5, decay_s=20.0),
            Ramp(start_s=1.0, end_s=2.0, from_factor=0.5, to_factor=1.5),
        ):
            assert modulator_from_dict(modulator.to_dict()) == modulator

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValidationError):
            modulator_from_dict({"kind": "square_wave"})

    def test_mix_schedule_interpolates_and_clamps(self):
        mix = MixSchedule(points=((0.0, 0.1), (100.0, 0.3)))
        assert mix.buy_fraction(50.0) == pytest.approx(0.2)
        assert mix.buy_fraction(-5.0) == pytest.approx(0.1)
        assert mix.buy_fraction(500.0) == pytest.approx(0.3)

    def test_mix_schedule_requires_increasing_times(self):
        with pytest.raises(ValidationError):
            MixSchedule(points=((10.0, 0.1), (10.0, 0.2)))


class TestScenarioSpec:
    def test_json_file_round_trip(self, tmp_path):
        spec = canonical_spec(fast=True)
        path = spec.save_json(tmp_path / "scenario.json")
        assert ScenarioSpec.load_json(path) == spec

    def test_malformed_dict_is_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioSpec.from_dict({"name": "x"})

    def test_factor_floors_at_positive_value(self):
        spec = _spec(
            modulators=(Ramp(start_s=0.0, end_s=1.0, from_factor=0.0, to_factor=0.0),)
        )
        assert spec.factor(0.5) > 0.0


class TestGeneration:
    def test_same_seed_same_trace(self):
        spec = _spec()
        assert generate_entries(spec, seed=5) == generate_entries(spec, seed=5)

    def test_different_seed_different_trace(self):
        spec = _spec()
        assert generate_entries(spec, seed=5) != generate_entries(spec, seed=6)

    def test_entries_are_sorted_and_within_duration(self):
        entries = generate_entries(_spec(), seed=5)
        arrivals = [e.arrival_ms for e in entries]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] < 90.0 * 1000.0

    def test_adding_a_client_preserves_existing_timelines(self):
        """Common random numbers: client k's stream is independent of count."""
        small = generate_entries(_spec(n_clients=5), seed=9)
        large = generate_entries(_spec(n_clients=6), seed=9)
        small_by_client = {
            c: [e.arrival_ms for e in small if e.client_id == c]
            for c in {e.client_id for e in small}
        }
        for client, arrivals in small_by_client.items():
            assert [e.arrival_ms for e in large if e.client_id == client] == arrivals

    def test_mix_schedule_shapes_request_types(self):
        entries = generate_entries(
            _spec(n_clients=40, duration_s=300.0, mix=MixSchedule.constant(0.5)),
            seed=3,
        )
        buys = sum(1 for e in entries if classify_request_type(e.operation) == "buy")
        assert 0.35 < buys / len(entries) < 0.65

    def test_modulators_raise_offered_rate(self):
        base = generate_entries(_spec(), seed=4)
        boosted = generate_entries(
            _spec(
                modulators=(
                    Ramp(start_s=0.0, end_s=1.0, from_factor=3.0, to_factor=3.0),
                )
            ),
            seed=4,
        )
        assert len(boosted) > 1.5 * len(base)

    def test_generate_records_matches_entries(self):
        spec = _spec()
        entries = generate_entries(spec, seed=8)
        records = generate_records(spec, seed=8)
        assert len(records) == len(entries)


class _FixedPredictor:
    """Predictor stub: deterministic arithmetic, no model behind it."""

    name = "fixed"

    def predict_mrt_ms(self, server, n_clients, *, buy_fraction=0.0):
        return 10.0 + 0.5 * n_clients + 100.0 * buy_fraction

    def predict_throughput(self, server, n_clients, *, buy_fraction=0.0):
        return n_clients / 7.0

    def max_clients(self, server, rt_goal_ms, *, buy_fraction=0.0):
        return 500


class TestBackends:
    def test_one_spec_drives_both_backends_with_identical_entries(self):
        """The acceptance demonstration: one compiled trace, two consumers."""
        spec = _spec(n_clients=8, duration_s=60.0)
        entries = generate_entries(spec, seed=21)

        summary = run_scenario_simulation(spec, seed=21, entries=entries)
        assert summary.requests_injected == len(entries)
        assert summary.requests_completed == len(entries)
        assert summary.mean_response_ms > 0.0
        assert set(summary.per_class_requests) == {
            classify_request_type(e.operation) for e in entries
        }

        clock = FakeClock()
        with PredictionService(
            _FixedPredictor(), config=ServiceConfig(), clock=clock
        ) as service:
            report = ScenarioServiceDriver(
                service, spec, seed=21, server="AppServF", clock=clock, entries=entries
            ).run()
        assert report.requests == len(entries)
        assert report.errors == 0
        assert report.per_type_requests == summary.per_class_requests

    def test_simulation_compiles_when_entries_not_supplied(self):
        summary = run_scenario_simulation(_spec(n_clients=4, duration_s=30.0), seed=2)
        assert summary.requests_injected > 0

    def test_service_driver_is_deterministic_on_a_fake_clock(self):
        spec = _spec(n_clients=6, duration_s=45.0)

        def replay():
            clock = FakeClock()
            with PredictionService(
                _FixedPredictor(), config=ServiceConfig(), clock=clock
            ) as service:
                return ScenarioServiceDriver(
                    service, spec, seed=33, server="AppServF", clock=clock
                ).run()

        assert replay().to_dict() == replay().to_dict()

    def test_service_driver_tracks_modulated_client_count(self):
        spec = _spec(
            n_clients=10,
            duration_s=60.0,
            modulators=(
                Ramp(start_s=0.0, end_s=60.0, from_factor=1.0, to_factor=2.0),
            ),
        )
        clock = FakeClock()
        with PredictionService(
            _FixedPredictor(), config=ServiceConfig(), clock=clock
        ) as service:
            report = ScenarioServiceDriver(
                service, spec, seed=5, server="AppServF", clock=clock
            ).run()
        assert report.max_clients > 10
        assert report.min_clients >= 10

    def test_max_requests_truncates_the_replay(self):
        spec = _spec(n_clients=6, duration_s=45.0)
        clock = FakeClock()
        with PredictionService(
            _FixedPredictor(), config=ServiceConfig(), clock=clock
        ) as service:
            report = ScenarioServiceDriver(
                service,
                spec,
                seed=33,
                server="AppServF",
                clock=clock,
                max_requests=7,
            ).run()
        assert report.requests == 7
