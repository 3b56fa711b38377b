"""Seeded property tests for the workload-characterization fitting layer.

Two families of properties:

* **fit → generate → refit round-trips** per distribution family: draw
  true parameters, sample from the true spec through a named
  :func:`~repro.util.rng.spawn_rng` stream, refit, and require the
  recovered parameters (or matched moments) back within tolerance.
  Tolerances sit many standard errors above the estimators' sampling
  noise at n=2000, so the properties are stable under any drawn seed.
* **the exponential/heavy-tail discrimination boundary**, driven with
  *analytic quantile grids* instead of random samples: a grid is the
  distribution with sampling noise removed, so the screen's verdict is
  a deterministic function of the drawn parameters and the property
  probes the decision boundary itself, not the luck of a draw.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.util.rng import spawn_rng
from repro.workload.diagnostics import empirical_cv2, ks_p_value
from repro.workload.dists import (
    exponential_spec,
    hyperexponential_spec,
    lognormal_spec,
    pareto_spec,
)
from repro.workload.fitting import (
    discriminate_tail,
    fit_exponential,
    fit_hyperexponential,
    fit_lognormal,
    fit_pareto,
)

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

N_SAMPLES = 2000

seed_strategy = st.integers(min_value=0, max_value=2**31)
mean_strategy = st.floats(min_value=100.0, max_value=20000.0)
mu_strategy = st.floats(min_value=5.0, max_value=10.0)
sigma_strategy = st.floats(min_value=0.2, max_value=1.5)
alpha_strategy = st.floats(min_value=1.5, max_value=4.0)
xm_strategy = st.floats(min_value=100.0, max_value=5000.0)


def _grid(spec, n=N_SAMPLES) -> np.ndarray:
    """The distribution's analytic mid-quantile grid: a noise-free sample."""
    return np.asarray(spec.quantile((np.arange(n) + 0.5) / n))


# -- fit -> generate -> refit round-trips -------------------------------------


@SETTINGS
@given(mean_strategy, seed_strategy)
def test_exponential_roundtrip(mean_ms, seed):
    spec = exponential_spec(mean_ms)
    samples = spec.sample(spawn_rng(seed, "prop:exp"), N_SAMPLES)
    refit = fit_exponential(samples)
    # MLE mean == sample mean exactly; sample mean is within ~7 sigma here.
    assert refit.spec.mean_ms == pytest.approx(float(np.mean(samples)), rel=1e-9)
    assert refit.spec.mean_ms == pytest.approx(mean_ms, rel=0.15)


@SETTINGS
@given(mu_strategy, sigma_strategy, seed_strategy)
def test_lognormal_roundtrip(mu, sigma, seed):
    spec = lognormal_spec(mu, sigma)
    samples = spec.sample(spawn_rng(seed, "prop:log"), N_SAMPLES)
    params = fit_lognormal(samples).spec.param_dict()
    assert params["mu"] == pytest.approx(mu, abs=0.2)
    assert params["sigma"] == pytest.approx(sigma, rel=0.2)


@SETTINGS
@given(xm_strategy, alpha_strategy, seed_strategy)
def test_pareto_roundtrip(xm, alpha, seed):
    spec = pareto_spec(xm, alpha)
    samples = spec.sample(spawn_rng(seed, "prop:par"), N_SAMPLES)
    params = fit_pareto(samples).spec.param_dict()
    # xm-hat = min(sample): converges at rate 1/(n*alpha) from above.
    assert params["xm"] == pytest.approx(xm, rel=0.05)
    assert params["alpha"] == pytest.approx(alpha, rel=0.25)


@SETTINGS
@given(
    st.floats(min_value=0.55, max_value=0.95),
    st.floats(min_value=200.0, max_value=2000.0),
    st.floats(min_value=5000.0, max_value=50000.0),
    seed_strategy,
)
def test_hyperexponential_roundtrip_matches_sample_moments(p, mean1, mean2, seed):
    """Balanced-means H2 is a moment matcher: the refit reproduces the
    sample's first two moments exactly whenever sample CV² > 1."""
    spec = hyperexponential_spec(p, mean1, mean2)
    samples = spec.sample(spawn_rng(seed, "prop:h2"), N_SAMPLES)
    refit = fit_hyperexponential(samples).spec
    assert refit.mean_ms == pytest.approx(float(np.mean(samples)), rel=1e-9)
    cv2 = empirical_cv2(samples)
    if cv2 > 1.0:
        assert refit.cv2 == pytest.approx(cv2, rel=1e-6)
    else:  # degenerate draw: the fit degrades to the exponential limit
        assert refit.cv2 == pytest.approx(1.0)


# -- the discrimination boundary (analytic grids: no sampling noise) ----------


@SETTINGS
@given(mean_strategy)
def test_exponential_grid_is_classified_exponential(mean_ms):
    kind, verdict = discriminate_tail(_grid(exponential_spec(mean_ms)))
    assert kind == "exponential"
    assert verdict.is_exponential


@SETTINGS
@given(mu_strategy, st.floats(min_value=1.05, max_value=1.6))
def test_heavy_lognormal_grid_is_classified_heavy_tailed(mu, sigma):
    """CV² = e^(sigma²) - 1 >= 2.0 at sigma >= 1.05 — far above the CV²
    band's upper edge (~1.09 at n=2000), grid truncation included."""
    kind, verdict = discriminate_tail(_grid(lognormal_spec(mu, sigma)))
    assert kind == "heavy-tailed"
    assert verdict.cv2 > verdict.cv2_band[1]


@SETTINGS
@given(mean_strategy, st.floats(min_value=0.05, max_value=0.4))
def test_low_variability_grid_is_neither(mean_ms, sigma):
    """A near-deterministic lognormal (CV² << 1) must classify as 'other':
    sub-exponential, not heavy-tailed, not exponential."""
    kind, verdict = discriminate_tail(_grid(lognormal_spec(np.log(mean_ms), sigma)))
    assert kind == "other"
    assert verdict.cv2 < verdict.cv2_band[0]


@SETTINGS
@given(xm_strategy, st.floats(min_value=1.3, max_value=1.9))
def test_infinite_variance_pareto_grid_is_heavy_tailed(xm, alpha):
    """Pareto with alpha <= 2 has infinite variance; even the
    tail-truncated quantile grid keeps CV² >= 1.8 at alpha <= 1.9,
    well above the band's upper edge (~1.09 at n=2000)."""
    kind, _ = discriminate_tail(_grid(pareto_spec(xm, alpha)))
    assert kind == "heavy-tailed"


# -- diagnostics sanity under drawn parameters --------------------------------


@SETTINGS
@given(st.floats(min_value=0.01, max_value=0.5), st.integers(min_value=10, max_value=5000))
def test_ks_p_value_decreases_with_distance_and_sample_size(d, n):
    assert 0.0 <= ks_p_value(d, n) <= 1.0
    # Monotone in distance and sample size, up to series-truncation noise.
    assert ks_p_value(d, n) >= ks_p_value(d * 1.5, n) - 1e-9
    assert ks_p_value(d, n) >= ks_p_value(d, n * 4) - 1e-9


@SETTINGS
@given(mu_strategy, sigma_strategy)
def test_quantile_cdf_inversion_holds_for_drawn_parameters(mu, sigma):
    spec = lognormal_spec(mu, sigma)
    q = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
    np.testing.assert_allclose(spec.cdf(spec.quantile(q)), q, atol=1e-9)
