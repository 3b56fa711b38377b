"""Tests for the float helpers in :mod:`repro.util.floats`."""

from __future__ import annotations

from repro.util.floats import quantize_to_tick


def test_quantize_to_tick_recovers_exact_tick_multiples() -> None:
    """Accumulated tick sums snap back to the value the clock meant."""
    total = 0.0
    for _ in range(504):
        total += 0.05
    assert total != 25.2  # the raw sum carries noise
    assert quantize_to_tick(total, 0.05) == 25.2
    assert quantize_to_tick(75.09999999999788 - 25.200000000000223, 0.05) == 49.9
    assert quantize_to_tick(25.2, 0.05) == 25.2  # idempotent on clean values
