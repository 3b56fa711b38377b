"""Time-varying workload modulators: diurnal curves and flash crowds.

A modulator is a deterministic intensity multiplier over scenario time —
``factor(t_s) >= 0`` with 1.0 meaning "the base load".  The scenario
generator applies the composed factor to client think rates (a factor of
2 halves mean think time, doubling offered load), which is how one
declarative spec produces diurnal load curves and flash crowds without
touching the underlying distributions.

:class:`MixSchedule` plays the same role for the request mix: the buy
fraction as a deterministic piecewise-linear function of time, covering
the paper's static mixes (a single breakpoint) and shifting-mix
scenarios (e.g. buy share climbing through a sale) in one type.

Everything here is pure arithmetic on the scenario clock — no entropy,
no wall time — so a spec that embeds modulators stays byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    require,
)

__all__ = [
    "Modulator",
    "DiurnalCurve",
    "FlashCrowd",
    "compose_factor",
    "MixSchedule",
]


@dataclass(frozen=True)
class DiurnalCurve:
    """Sinusoidal day/night load swing around the base rate.

    ``factor = 1 + amplitude * sin(2π (t - phase_s) / period_s)``,
    clipped at zero.  ``amplitude`` in [0, 1] keeps the trough
    non-negative without clipping.
    """

    period_s: float
    amplitude: float
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.period_s, "period_s")
        check_fraction(self.amplitude, "amplitude")

    def factor(self, t_s: float) -> float:
        """The load multiplier at scenario time ``t_s``."""
        swing = self.amplitude * np.sin(2.0 * np.pi * (t_s - self.phase_s) / self.period_s)
        return float(max(0.0, 1.0 + swing))

    def to_dict(self) -> dict:
        """A JSON-serializable view (kind-tagged)."""
        return {
            "kind": "diurnal",
            "period_s": self.period_s,
            "amplitude": self.amplitude,
            "phase_s": self.phase_s,
        }


@dataclass(frozen=True)
class FlashCrowd:
    """A transient load spike: sharp onset, exponential decay.

    At ``at_s`` the factor jumps by ``magnitude`` and decays back with
    time constant ``decay_s`` — the canonical news-event/sale-start
    shape from web-workload studies.
    """

    at_s: float
    magnitude: float
    decay_s: float

    def __post_init__(self) -> None:
        check_non_negative(self.at_s, "at_s")
        check_positive(self.magnitude, "magnitude")
        check_positive(self.decay_s, "decay_s")

    def factor(self, t_s: float) -> float:
        """The load multiplier at scenario time ``t_s``."""
        if t_s < self.at_s:
            return 1.0
        return float(1.0 + self.magnitude * np.exp(-(t_s - self.at_s) / self.decay_s))

    def to_dict(self) -> dict:
        """A JSON-serializable view (kind-tagged)."""
        return {
            "kind": "flash_crowd",
            "at_s": self.at_s,
            "magnitude": self.magnitude,
            "decay_s": self.decay_s,
        }


#: The union the scenario spec composes; anything with factor()/to_dict().
Modulator = DiurnalCurve | FlashCrowd


def compose_factor(modulators: tuple[Modulator, ...], t_s: float) -> float:
    """The product of every modulator's factor at ``t_s`` (1.0 when empty)."""
    factor = 1.0
    for modulator in modulators:
        factor *= modulator.factor(t_s)
    return factor


@dataclass(frozen=True)
class MixSchedule:
    """The buy fraction as a piecewise-linear function of scenario time.

    ``points`` is a non-empty tuple of ``(t_s, buy_fraction)`` with
    strictly increasing times; the fraction is held flat before the
    first and after the last point.  A constant mix is one point.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        require(len(self.points) > 0, "a MixSchedule needs at least one point")
        times = [t for t, _ in self.points]
        require(
            all(b > a for a, b in zip(times, times[1:])),
            "MixSchedule times must be strictly increasing",
        )
        for _, fraction in self.points:
            check_fraction(fraction, "buy_fraction")

    @classmethod
    def constant(cls, buy_fraction: float) -> "MixSchedule":
        """A time-invariant mix."""
        return cls(points=((0.0, float(buy_fraction)),))

    def buy_fraction(self, t_s: float) -> float:
        """The buy fraction at scenario time ``t_s``."""
        times = np.array([t for t, _ in self.points])
        fractions = np.array([f for _, f in self.points])
        return float(np.interp(t_s, times, fractions))

    def to_dict(self) -> dict:
        """A JSON-serializable view."""
        return {"points": [[t, f] for t, f in self.points]}
