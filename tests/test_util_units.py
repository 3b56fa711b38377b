"""Unit tests for repro.util.units."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.errors import ValidationError
from repro.util.units import (
    MS_PER_S,
    ms_to_s,
    s_to_ms,
    throughput_req_per_s,
)


def test_constants():
    assert MS_PER_S == 1000.0


def test_seconds_round_trip():
    assert ms_to_s(s_to_ms(7.0)) == pytest.approx(7.0)


def test_s_to_ms_value():
    assert s_to_ms(7.0) == 7000.0


class TestThroughput:
    def test_basic(self):
        # 100 completions over 2 seconds => 50 req/s
        assert throughput_req_per_s(100, 2000.0) == pytest.approx(50.0)

    def test_zero_duration_gives_zero(self):
        assert throughput_req_per_s(10, 0.0) == 0.0

    def test_zero_completions(self):
        assert throughput_req_per_s(0, 1000.0) == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError):
            throughput_req_per_s(10, -1.0)

    def test_negative_completions_rejected(self):
        with pytest.raises(ValidationError):
            throughput_req_per_s(-1, 1000.0)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_time_conversions_are_inverse(x):
    assert ms_to_s(s_to_ms(x)) == pytest.approx(x, rel=1e-12)


@given(
    st.integers(min_value=0, max_value=10**9),
    st.floats(min_value=1.0, max_value=1e9),
)
def test_throughput_non_negative(completions, duration):
    assert throughput_req_per_s(completions, duration) >= 0.0
