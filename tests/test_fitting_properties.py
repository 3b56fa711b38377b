"""Seeded property-based tests for the historical method's fitting layer.

Each property is a fit→generate→refit round-trip: draw true parameters,
generate data from the true curve (exactly, or with seeded multiplicative
noise from a named :func:`~repro.util.rng.spawn_rng` stream), refit, and
require the recovered parameters to match the truth within tolerance.
The piecewise properties cover the paper's 66 %–110 % transition band
explicitly: continuity at the band edges and capacity inversion inside
the band.

Tolerances: exact data round-trips to float precision (the fits are
closed-form least squares, so only LAPACK noise remains — 1e-6 relative
is generous); 1 % multiplicative noise on 12 points must recover the lower
equation's rate within 10 % and scale within 15 %, and the upper
equation's slope and intercept within 8 standard errors of the fit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.historical.datastore import HistoricalDataPoint
from repro.historical.fitting import (
    fit_exponential,
    fit_linear,
    fit_linear_through_origin,
    fit_power,
)
from repro.historical.relationships import (
    TRANSITION_LOWER_FRACTION,
    TRANSITION_UPPER_FRACTION,
    LowerEquation,
    PiecewiseResponseModel,
    UpperEquation,
)
from repro.util.rng import spawn_rng

EXACT_RTOL = 1e-6
NOISY_RATE_RTOL = 0.10  # lambda_l under 1% noise
NOISY_SCALE_RTOL = 0.15  # c_l under 1% noise
# The upper equation's slope and intercept, in standard errors of the fit.
# Each error over its standard error is Student-t with 10 degrees of
# freedom (12 points, 2 parameters) and P(|t| > 8) = 1.2e-5, so a correct
# fit fails at most ~2e-5 of examples (~1e-3 of 40-example runs).
NOISY_SE_MULTIPLE = 8.0

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Parameter ranges mirror the paper's table-1 scale: base response times of
# a few ms to a few hundred ms, exponents of order 1/n_at_max, saturation
# slopes of a few ms per client.
c_l_strategy = st.floats(min_value=1.0, max_value=300.0)
lambda_l_strategy = st.floats(min_value=1e-4, max_value=5e-3)
lambda_u_strategy = st.floats(min_value=0.5, max_value=20.0)
c_u_strategy = st.floats(min_value=-2000.0, max_value=2000.0)
n_at_max_strategy = st.floats(min_value=200.0, max_value=3000.0)
seed_strategy = st.integers(min_value=0, max_value=2**31)


def _client_grid(lo: float, hi: float, count: int) -> list[int]:
    """Distinct integer client counts spanning [lo, hi] — the datastore
    stores integer loads, so data must be generated at integers too."""
    return sorted({max(1, int(round(x))) for x in np.linspace(lo, hi, count)})


def _points(server, clients, mrts):
    return [
        HistoricalDataPoint(
            server=server,
            n_clients=int(n),
            mean_response_ms=float(m),
            throughput_req_per_s=1.0,
            n_samples=50,
        )
        for n, m in zip(clients, mrts)
    ]


# -- raw trend fits: exact round-trips ---------------------------------------


@SETTINGS
@given(c_l_strategy, lambda_l_strategy)
def test_fit_exponential_recovers_exact_parameters(c, lam):
    x = np.linspace(10.0, 800.0, 9)
    result = fit_exponential(x, c * np.exp(lam * x))
    fitted_c, fitted_lam = result.params
    assert fitted_c == pytest.approx(c, rel=EXACT_RTOL)
    assert fitted_lam == pytest.approx(lam, rel=EXACT_RTOL)
    assert result.r_squared == pytest.approx(1.0, abs=1e-9)


@SETTINGS
@given(lambda_u_strategy, c_u_strategy)
def test_fit_linear_recovers_exact_parameters(slope, intercept):
    x = np.linspace(100.0, 2000.0, 8)
    result = fit_linear(x, slope * x + intercept)
    fitted_slope, fitted_intercept = result.params
    assert fitted_slope == pytest.approx(slope, rel=EXACT_RTOL)
    assert fitted_intercept == pytest.approx(intercept, rel=EXACT_RTOL, abs=1e-6)


@SETTINGS
@given(st.floats(min_value=0.01, max_value=10.0))
def test_fit_through_origin_recovers_exact_gradient(slope):
    x = np.linspace(50.0, 1500.0, 7)
    (fitted,) = fit_linear_through_origin(x, slope * x).params
    assert fitted == pytest.approx(slope, rel=EXACT_RTOL)


@SETTINGS
@given(
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=-1.5, max_value=1.5),
)
def test_fit_power_recovers_exact_parameters(coefficient, exponent):
    x = np.geomspace(10.0, 500.0, 8)
    result = fit_power(x, coefficient * x**exponent)
    fitted_c, fitted_delta = result.params
    assert fitted_c == pytest.approx(coefficient, rel=1e-5)
    assert fitted_delta == pytest.approx(exponent, rel=1e-5, abs=1e-7)


# -- equation-level round-trips (fit -> generate -> refit) -------------------


@SETTINGS
@given(c_l_strategy, lambda_l_strategy, n_at_max_strategy, seed_strategy)
def test_lower_equation_roundtrip_with_seeded_noise(c_l, lam, n_at_max, seed):
    true = LowerEquation(c_l=c_l, lambda_l=lam)
    rng = spawn_rng(seed, "fitting:lower")
    # 12 points across the whole lower region INCLUDING the 66%-100%
    # stretch of the transition band (the calibration code fits the lower
    # equation on every point below n_at_max).
    clients = _client_grid(0.05 * n_at_max, 0.999 * n_at_max, 12)
    mrts = [
        true.predict_ms(n) * float(np.exp(rng.normal(0.0, 0.01))) for n in clients
    ]
    refit = LowerEquation.fit(_points("srv", clients, mrts))
    assert refit.c_l == pytest.approx(c_l, rel=NOISY_SCALE_RTOL)
    # The exponent is small (order 1/n_at_max), so compare on the scale of
    # its effect over the fitted range rather than raw relative error.
    assert refit.lambda_l * n_at_max == pytest.approx(
        lam * n_at_max, abs=NOISY_RATE_RTOL * max(1.0, lam * n_at_max)
    )


@SETTINGS
@given(
    lambda_u_strategy,
    st.floats(min_value=50.0, max_value=2000.0),
    n_at_max_strategy,
    seed_strategy,
)
# 3.4 standard errors out on the slope: past a fixed 10% tolerance.
@example(lambda_u=0.5, mrt_at_max=192.0, n_at_max=200.0, seed=47017)
def test_upper_equation_roundtrip_with_seeded_noise(
    lambda_u, mrt_at_max, n_at_max, seed
):
    # Parameterize by the (positive) response time at n_at_max rather than
    # drawing c_u directly: an independent c_u can put the whole sampled
    # range below zero, which no measured system produces.
    c_u = mrt_at_max - lambda_u * n_at_max
    true = UpperEquation(lambda_u=lambda_u, c_u=c_u)
    rng = spawn_rng(seed, "fitting:upper")
    # Points from max throughput out to 1.7x, spanning the 100%-110% tail
    # of the transition band.
    clients = _client_grid(n_at_max, 1.7 * n_at_max, 12)
    mrts = [
        true.predict_ms(n) * (1.0 + float(rng.normal(0.0, 0.01))) for n in clients
    ]
    refit = UpperEquation.fit(_points("srv", clients, mrts))
    # Bound each error by the fit's own standard error, from the residuals
    # of the points: a fixed relative tolerance is a few standard errors
    # on some draws and dozens on others.
    x, y = np.array(clients, dtype=float), np.array(mrts)
    residuals = y - (refit.c_u + refit.lambda_u * x)
    variance = residuals @ residuals / (len(x) - 2)
    sxx = float(((x - x.mean()) ** 2).sum())
    se_slope = np.sqrt(variance / sxx)
    se_intercept = np.sqrt(variance * (1.0 / len(x) + x.mean() ** 2 / sxx))
    assert refit.lambda_u == pytest.approx(lambda_u, abs=NOISY_SE_MULTIPLE * se_slope)
    assert refit.c_u == pytest.approx(c_u, abs=NOISY_SE_MULTIPLE * se_intercept)


@SETTINGS
@given(c_l_strategy, lambda_l_strategy, n_at_max_strategy)
def test_lower_equation_exact_roundtrip(c_l, lam, n_at_max):
    true = LowerEquation(c_l=c_l, lambda_l=lam)
    clients = _client_grid(0.1 * n_at_max, 0.99 * n_at_max, 6)
    refit = LowerEquation.fit(
        _points("srv", clients, [true.predict_ms(n) for n in clients])
    )
    assert refit.c_l == pytest.approx(c_l, rel=1e-4)
    assert refit.lambda_l == pytest.approx(lam, rel=1e-4, abs=1e-9)


# -- piecewise model: the transition band ------------------------------------


@SETTINGS
@given(c_l_strategy, lambda_l_strategy, lambda_u_strategy, n_at_max_strategy)
def test_piecewise_model_is_continuous_at_band_edges(c_l, lam, lambda_u, n_at_max):
    lower = LowerEquation(c_l=c_l, lambda_l=lam)
    # Choose c_u so the upper equation sits above the lower at the handover
    # (the non-degenerate case the paper's figures show).
    n2 = TRANSITION_UPPER_FRACTION * n_at_max
    c_u = lower.predict_ms(TRANSITION_LOWER_FRACTION * n_at_max) * 2.0 - lambda_u * n2
    model = PiecewiseResponseModel.assemble(
        "srv", lower, UpperEquation(lambda_u=lambda_u, c_u=c_u), n_at_max
    )
    n1 = TRANSITION_LOWER_FRACTION * n_at_max
    assert model.predict_ms(n1) == pytest.approx(lower.predict_ms(n1), rel=1e-9)
    assert model.predict_ms(n2) == pytest.approx(model.upper.predict_ms(n2), rel=1e-9)
    # Monotone through the band: the transition phases upward.
    band = np.linspace(n1, n2, 20)
    values = [model.predict_ms(n) for n in band]
    assert all(b >= a for a, b in zip(values, values[1:]))


@SETTINGS
@given(
    c_l_strategy,
    lambda_l_strategy,
    lambda_u_strategy,
    n_at_max_strategy,
    st.floats(min_value=0.05, max_value=1.65),
)
def test_piecewise_capacity_inverts_prediction_in_every_region(
    c_l, lam, lambda_u, n_at_max, fraction
):
    """max_clients(predict_ms(n)) recovers n in lower, transition and upper
    regions — the closed-form inversion the paper's section 8.2 relies on."""
    lower = LowerEquation(c_l=c_l, lambda_l=lam)
    n2 = TRANSITION_UPPER_FRACTION * n_at_max
    c_u = lower.predict_ms(TRANSITION_LOWER_FRACTION * n_at_max) * 2.0 - lambda_u * n2
    model = PiecewiseResponseModel.assemble(
        "srv", lower, UpperEquation(lambda_u=lambda_u, c_u=c_u), n_at_max
    )
    n = fraction * n_at_max
    goal = model.predict_ms(n)
    if not np.isfinite(goal) or goal <= 0:
        return  # saturated exponent: inversion has nothing to recover
    recovered = model.max_clients(goal)
    # int() truncation plus region-boundary rounding: within one client of
    # the operating point (or the region edge it was clamped to).
    assert recovered == pytest.approx(n, abs=1.5, rel=0.01)
