"""Scenario compilation: determinism, modulators, and the think-time question."""

import numpy as np
import pytest

from repro.util.errors import ValidationError
from repro.workload.diagnostics import exponentiality
from repro.workload.dists import exponential_spec
from repro.workload.modulators import (
    DiurnalCurve,
    FlashCrowd,
    MixSchedule,
    compose_factor,
)
from repro.workload.records import classify_request_type, records_from_trace_entries
from repro.workload.scenario import (
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

    def test_composition_is_a_product(self):
        mods = (
            DiurnalCurve(period_s=100.0, amplitude=0.5),
            FlashCrowd(at_s=0.0, magnitude=1.0, decay_s=1e9),
        )
        assert compose_factor(mods, 25.0) == pytest.approx(3.0)

    def test_mix_schedule_interpolates_and_clamps(self):
        mix = MixSchedule(points=((0.0, 0.1), (100.0, 0.3)))
        assert mix.buy_fraction(50.0) == pytest.approx(0.2)
        assert mix.buy_fraction(-5.0) == pytest.approx(0.1)
        assert mix.buy_fraction(500.0) == pytest.approx(0.3)

    def test_mix_schedule_requires_increasing_times(self):
        with pytest.raises(ValidationError):
            MixSchedule(points=((10.0, 0.1), (10.0, 0.2)))


class TestScenarioSpec:
    def test_factor_floors_at_positive_value(self):
        spec = _spec(modulators=(DiurnalCurve(period_s=100.0, amplitude=1.0),))
        assert spec.factor(75.0) > 0.0


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
            _spec(modulators=(FlashCrowd(at_s=0.0, magnitude=2.0, decay_s=1e9),)),
            seed=4,
        )
        assert len(boosted) > 1.5 * len(base)

    def test_generate_records_matches_entries(self):
        spec = _spec()
        entries = generate_entries(spec, seed=8)
        records = generate_records(spec, seed=8)
        assert len(records) == len(entries)


class TestThinkTimeQuestion:
    """Does a trace's think time fit the paper's exp(7 s) assumption?

    Compile -> records -> per-client think times -> exponentiality screen:
    the path the ``workloads`` experiment answers the question with.
    """

    @staticmethod
    def _think_times_ms(spec, seed):
        records = records_from_trace_entries(generate_entries(spec, seed=seed))
        return records.think_times_ms()

    @pytest.mark.parametrize("seed", [1, 2, 3, 2004])
    def test_paper_workload_passes_the_screen(self, seed):
        paper = ScenarioSpec(
            name="paper",
            n_clients=60,
            duration_s=300.0,
            think_time=exponential_spec(7000.0),
        )
        thinks = self._think_times_ms(paper, seed)
        assert thinks.size > 2000
        verdict = exponentiality(thinks)
        assert verdict.is_exponential, verdict.to_dict()

    @pytest.mark.parametrize("seed", [1, 2, 3, 2004])
    def test_canonical_workload_fails_the_screen(self, seed):
        verdict = exponentiality(self._think_times_ms(canonical_spec(fast=True), seed))
        assert not verdict.is_exponential, verdict.to_dict()
