"""Tolerance-aware float comparisons for solver and fitting code.

Exact ``==``/``!=`` on floats is almost always wrong in the numerical
parts of this codebase: residuals that are mathematically zero come back
as ``1e-17`` after a least-squares solve, and a branch keyed on
``x == 0.0`` silently takes the wrong arm.  These helpers make the
intent — "is this quantity negligible?" / "are these two values the
same up to noise?" — explicit.
"""

from __future__ import annotations

import math

__all__ = ["DEFAULT_ABS_TOL", "floats_equal", "is_negligible", "quantize_to_tick"]

# Far below any physically meaningful demand, rate or residual in the
# models (which live around 1e-3 .. 1e3), far above float64 rounding
# noise from a handful of arithmetic ops.
DEFAULT_ABS_TOL = 1e-12


def is_negligible(x: float, *, tol: float = DEFAULT_ABS_TOL) -> bool:
    """Whether ``x`` is zero up to absolute tolerance ``tol``.

    The replacement for ``x == 0.0`` degenerate-case guards: a sum of
    squared residuals of ``1e-17`` is "zero" for every decision this
    codebase makes on it.
    """
    return abs(x) <= tol


def quantize_to_tick(value: float, tick_s: float) -> float:
    """Snap a virtual-time instant back onto its clock's tick grid.

    A fake clock advanced tick by tick accumulates binary rounding noise
    (``504 * 0.05`` ticks land on ``25.200000000000223``), and reports
    serialised from those instants carry the noise into published
    artifacts, where it churns diffs and defeats byte-identity checks.
    Every instant such a clock can produce is *by construction* a whole
    number of ticks, so rounding to the nearest tick — then discarding
    the sub-nanosecond representation tail — recovers the exact value
    the clock meant.  Use at the serialisation boundary only; internal
    arithmetic should keep the raw floats.
    """
    if tick_s <= 0:
        raise ValueError(f"tick_s must be positive, got {tick_s}")
    return round(round(value / tick_s) * tick_s, 9)


def floats_equal(a: float, b: float, *, rel_tol: float = 1e-9, abs_tol: float = DEFAULT_ABS_TOL) -> bool:
    """Whether ``a`` and ``b`` agree up to relative/absolute tolerance.

    Thin wrapper over :func:`math.isclose` with an absolute floor, so
    comparisons near zero behave (plain ``isclose`` has ``abs_tol=0``
    and calls nothing close to ``0.0``).
    """
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)
