"""Shared infrastructure: errors, validation, RNG streams, units, tables."""

from repro.util.errors import (
    ReproError,
    ModelError,
    CalibrationError,
    ConvergenceError,
    SimulationError,
    ValidationError,
)
from repro.util.clock import SYSTEM_CLOCK, Clock, FakeClock
from repro.util.floats import DEFAULT_ABS_TOL, is_negligible
from repro.util.rng import RngStreams, spawn_rng
from repro.util.units import MS_PER_S, ms_to_s, s_to_ms

__all__ = [
    "ReproError",
    "ModelError",
    "CalibrationError",
    "ConvergenceError",
    "SimulationError",
    "ValidationError",
    "RngStreams",
    "spawn_rng",
    "Clock",
    "FakeClock",
    "SYSTEM_CLOCK",
    "DEFAULT_ABS_TOL",
    "is_negligible",
    "MS_PER_S",
    "ms_to_s",
    "s_to_ms",
]
