"""Tests for per-class response-time deviation factors (section 4.3).

A class's factor is its per-request demand over the workload's mean demand;
``class_rt_factor`` computes it from the workload's buy fraction.
"""

import pytest

from repro.resource_manager.sla import class_rt_factor


class TestDemandRatioFactor:
    def test_pure_workload_factor_is_one(self):
        assert class_rt_factor(False, 0.0) == pytest.approx(1.0)
        assert class_rt_factor(True, 1.0) == pytest.approx(1.0)

    def test_buy_factor_above_one_in_mixed_load(self):
        assert class_rt_factor(True, 0.25) > 1.0
        assert class_rt_factor(False, 0.25) < 1.0

    def test_factors_mix_to_one(self):
        mixed = 0.75 * class_rt_factor(False, 0.25) + 0.25 * class_rt_factor(True, 0.25)
        assert mixed == pytest.approx(1.0)
