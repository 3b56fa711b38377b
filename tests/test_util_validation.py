"""Unit tests for repro.util.validation."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.errors import ValidationError
from repro.util.validation import (
    check_finite,
    check_fraction,
    check_non_empty,
    check_non_negative,
    check_non_negative_int,
    check_non_negative_real,
    check_positive,
    check_positive_int,
    check_probabilities_sum_to_one,
    check_unique,
    require,
)


class TestRequire:
    def test_passes_silently_when_true(self):
        require(True, "never raised")

    def test_raises_with_message_when_false(self):
        with pytest.raises(ValidationError, match="boom"):
            require(False, "boom")

    def test_raised_error_is_value_error(self):
        with pytest.raises(ValueError):
            require(False, "compat")


class TestCheckFinite:
    def test_returns_float_value(self):
        assert check_finite(3, "x") == 3.0
        assert isinstance(check_finite(3, "x"), float)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            check_finite(bad, "x")

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            check_finite("hello", "x")

    def test_rejects_none(self):
        with pytest.raises(ValidationError):
            check_finite(None, "x")


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(0.5, "x") == 0.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e-300])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValidationError, match="> 0"):
            check_positive(bad, "x")

    def test_error_message_names_parameter(self):
        with pytest.raises(ValidationError, match="speed"):
            check_positive(-1, "speed")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match=">= 0"):
            check_non_negative(-0.1, "x")


class TestCheckNonNegativeReal:
    @pytest.mark.parametrize("ok", [0.0, 2, 3.5])
    def test_accepts_real_numbers(self, ok):
        assert check_non_negative_real(ok, "x") == float(ok)

    @pytest.mark.parametrize("bad", ["1", b"1", None, -0.1, float("nan"), float("inf")])
    def test_rejects_non_reals_that_float_would_parse(self, bad):
        with pytest.raises(ValidationError):
            check_non_negative_real(bad, "x")


class TestCheckFraction:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, ok):
        assert check_fraction(ok, "p") == ok

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0])
    def test_rejects_outside(self, bad):
        with pytest.raises(ValidationError):
            check_fraction(bad, "p")


class TestIntChecks:
    def test_positive_int_accepts_one(self):
        assert check_positive_int(1, "n") == 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_positive_int_rejects(self, bad):
        with pytest.raises(ValidationError):
            check_positive_int(bad, "n")

    def test_positive_int_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_positive_int(True, "n")

    def test_positive_int_rejects_float(self):
        with pytest.raises(ValidationError):
            check_positive_int(2.0, "n")

    def test_non_negative_int_accepts_zero(self):
        assert check_non_negative_int(0, "n") == 0

    def test_non_negative_int_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_non_negative_int(-1, "n")


class TestCollections:
    def test_non_empty_accepts_list(self):
        assert check_non_empty([1], "xs") == [1]

    def test_non_empty_rejects_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            check_non_empty([], "xs")

    def test_unique_accepts_distinct(self):
        check_unique(["a", "b"], "name")

    def test_unique_rejects_duplicates(self):
        with pytest.raises(ValidationError, match="duplicate"):
            check_unique(["a", "a"], "name")


class TestProbabilities:
    def test_accepts_exact_distribution(self):
        check_probabilities_sum_to_one([0.25, 0.75], "p")

    def test_accepts_within_tolerance(self):
        check_probabilities_sum_to_one([1 / 3, 1 / 3, 1 / 3], "p")

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            check_probabilities_sum_to_one([0.5, 0.4], "p")

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            check_probabilities_sum_to_one([-0.5, 1.5], "p")

    @given(st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=10))
    def test_normalised_lists_always_pass(self, raw):
        total = sum(raw)
        check_probabilities_sum_to_one([v / total for v in raw], "p")


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_check_finite_accepts_every_finite_float(value):
    assert check_finite(value, "x") == value


@given(st.floats(min_value=1e-12, max_value=1e12))
def test_positive_accepts_positive_range(value):
    assert check_positive(value, "x") == value


def test_nan_never_passes_fraction():
    with pytest.raises(ValidationError):
        check_fraction(math.nan, "p")
