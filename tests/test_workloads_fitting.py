"""Distribution specs, MLE fitters, diagnostics: deterministic unit checks."""

import numpy as np
import pytest

from repro.util.errors import ValidationError
from repro.util.rng import spawn_rng
from repro.workload.diagnostics import (
    empirical_cv2,
    exponentiality,
    ks_p_value,
    ks_statistic,
)
from repro.workload.dists import (
    DistributionSpec,
    empirical_spec,
    exponential_spec,
    hyperexponential_spec,
    lognormal_spec,
    pareto_spec,
)
from repro.workload.fitting import (
    best_fit,
    discriminate_tail,
    fit_all,
    fit_exponential,
    fit_hyperexponential,
    fit_lognormal,
    fit_pareto,
)

RNG = spawn_rng(7, "test:workloads:fitting")


class TestDistributionSpec:
    def test_moments(self):
        assert exponential_spec(7000.0).mean_ms == pytest.approx(7000.0)
        assert exponential_spec(7000.0).cv2 == 1.0
        log = lognormal_spec(np.log(7000.0) - 0.5, 1.0)
        assert log.mean_ms == pytest.approx(7000.0, rel=1e-9)
        assert log.cv2 == pytest.approx(np.e - 1.0)
        assert pareto_spec(1000.0, 3.0).mean_ms == pytest.approx(1500.0)
        assert pareto_spec(1000.0, 3.0).cv2 == pytest.approx(1.0 / 3.0)
        assert pareto_spec(1000.0, 0.9).mean_ms == float("inf")
        assert pareto_spec(1000.0, 1.5).cv2 == float("inf")

    def test_quantile_inverts_cdf(self):
        q = np.array([0.1, 0.5, 0.9])
        for spec in (
            exponential_spec(5000.0),
            lognormal_spec(8.0, 0.8),
            pareto_spec(800.0, 2.5),
            hyperexponential_spec(0.6, 2000.0, 12000.0),
        ):
            x = spec.quantile(q)
            np.testing.assert_allclose(spec.cdf(x), q, atol=1e-6)

    def test_sampling_is_deterministic_per_stream(self):
        spec = lognormal_spec(8.0, 1.0)
        a = spec.sample(spawn_rng(3, "s"), 16)
        b = spec.sample(spawn_rng(3, "s"), 16)
        assert np.array_equal(a, b)

    def test_empirical_spec_tracks_sample_quantiles(self):
        samples = RNG.exponential(5000.0, 4000)
        spec = empirical_spec(samples)
        assert spec.mean_ms == pytest.approx(float(np.mean(samples)), rel=0.05)
        assert float(spec.quantile(0.5)) == pytest.approx(
            float(np.median(samples)), rel=0.05
        )

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValidationError):
            exponential_spec(-1.0)
        with pytest.raises(ValidationError):
            pareto_spec(0.0, 2.0)
        with pytest.raises(ValidationError):
            DistributionSpec.make("gamma", {"k": 2.0})


class TestFitters:
    def test_exponential_recovers_mean(self):
        samples = spawn_rng(11, "exp").exponential(7000.0, 6000)
        fit = fit_exponential(samples)
        assert fit.spec.mean_ms == pytest.approx(float(np.mean(samples)))
        assert fit.gof.verdict in ("good", "marginal")

    def test_lognormal_recovers_log_moments(self):
        rng = spawn_rng(11, "log")
        samples = np.exp(rng.normal(8.0, 0.7, 6000))
        fit = fit_lognormal(samples)
        params = fit.spec.param_dict()
        assert params["mu"] == pytest.approx(8.0, abs=0.05)
        assert params["sigma"] == pytest.approx(0.7, abs=0.05)

    def test_pareto_recovers_shape(self):
        spec = pareto_spec(1000.0, 2.5)
        samples = spec.sample(spawn_rng(11, "par"), 6000)
        fit = fit_pareto(samples)
        params = fit.spec.param_dict()
        assert params["alpha"] == pytest.approx(2.5, rel=0.1)
        assert params["xm"] == pytest.approx(1000.0, rel=0.01)

    def test_hyperexponential_matches_first_two_moments(self):
        spec = hyperexponential_spec(0.9, 1000.0, 20000.0)
        samples = spec.sample(spawn_rng(11, "h2"), 8000)
        fit = fit_hyperexponential(samples)
        assert fit.spec.mean_ms == pytest.approx(float(np.mean(samples)), rel=1e-6)
        assert fit.spec.cv2 == pytest.approx(empirical_cv2(samples), rel=1e-6)

    def test_hyperexponential_degrades_to_exponential_for_low_cv2(self):
        samples = np.full(100, 500.0) + spawn_rng(1, "c").normal(0.0, 5.0, 100)
        fit = fit_hyperexponential(samples)
        params = fit.spec.param_dict()
        assert params["p"] == 0.5
        assert params["lam1"] == params["lam2"]

    def test_fit_needs_two_positive_samples(self):
        with pytest.raises(ValidationError):
            fit_exponential(np.array([5.0]))
        with pytest.raises(ValidationError):
            fit_exponential(np.array([-1.0, -2.0]))

    def test_fit_all_ranks_true_family_first(self):
        samples = np.exp(spawn_rng(13, "rank").normal(8.5, 1.0, 5000))
        ranked = fit_all(samples)
        assert ranked[0].spec.kind == "lognormal"
        assert ranked[-1].spec.kind == "empirical"
        aics = [fit.aic for fit in ranked[:-1]]
        assert aics == sorted(aics)

    def test_best_fit_falls_back_to_empirical(self):
        # A bimodal sample no single parametric family fits well.
        rng = spawn_rng(13, "bimodal")
        samples = np.concatenate(
            [rng.normal(100.0, 1.0, 3000), rng.normal(9000.0, 1.0, 3000)]
        )
        samples = samples[samples > 0]
        assert best_fit(samples).spec.kind == "empirical"


class TestDiagnostics:
    def test_ks_statistic_zero_for_perfect_grid(self):
        spec = exponential_spec(1000.0)
        grid = spec.quantile(np.arange(0.5, 2000.0) / 2000.0)
        assert ks_statistic(grid, spec) < 0.005

    def test_ks_p_value_bounds(self):
        assert ks_p_value(0.0, 100) == 1.0
        assert ks_p_value(0.5, 1000) < 1e-6

    def test_exponentiality_accepts_exponential(self):
        samples = spawn_rng(17, "expo").exponential(7000.0, 4000)
        verdict = exponentiality(samples)
        assert verdict.is_exponential
        assert verdict.cv2_band[0] < verdict.cv2 < verdict.cv2_band[1]

    def test_exponentiality_rejects_heavy_tail(self):
        samples = np.exp(spawn_rng(17, "heavy").normal(8.0, 1.4, 4000))
        kind, verdict = discriminate_tail(samples)
        assert kind == "heavy-tailed"
        assert not verdict.is_exponential

    def test_exponentiality_rejects_regular_arrivals(self):
        samples = np.full(400, 7000.0) + spawn_rng(17, "reg").normal(0.0, 10.0, 400)
        kind, verdict = discriminate_tail(samples)
        assert kind == "other"
        assert verdict.cv2 < verdict.cv2_band[0]

    def test_gof_payload_is_json_ready(self):
        samples = spawn_rng(17, "json").exponential(5000.0, 500)
        fit = fit_exponential(samples)
        payload = fit.to_dict()
        assert set(payload) == {"spec", "log_likelihood", "n_samples", "aic", "gof"}
        assert len(payload["gof"]["qq_deciles"]) == 9
