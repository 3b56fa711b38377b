"""Small argument-validation helpers used across the library.

These keep validation messages consistent and raise
:class:`repro.util.errors.ValidationError` everywhere so calling code only
needs to catch one type.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable, Sequence, TypeVar

from repro.util.errors import ValidationError

T = TypeVar("T")


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ValidationError(message)


def check_finite(value: float, name: str) -> float:
    """Return ``value`` if it is a finite real number, else raise."""
    try:
        fval = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(fval):
        raise ValidationError(f"{name} must be finite, got {fval!r}")
    return fval


def check_positive(value: float, name: str) -> float:
    """Return ``value`` if it is finite and strictly positive, else raise."""
    fval = check_finite(value, name)
    if fval <= 0.0:
        raise ValidationError(f"{name} must be > 0, got {fval!r}")
    return fval


def check_non_negative(value: float, name: str) -> float:
    """Return ``value`` if it is finite and >= 0, else raise."""
    fval = check_finite(value, name)
    if fval < 0.0:
        raise ValidationError(f"{name} must be >= 0, got {fval!r}")
    return fval


def check_non_negative_real(value: float, name: str) -> float:
    """Like :func:`check_non_negative`, but also reject values that are not
    real numbers even where ``float()`` would parse them (``"1"``)."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return check_non_negative(value, name)


def check_fraction(value: float, name: str) -> float:
    """Return ``value`` if it lies in the closed interval [0, 1], else raise."""
    fval = check_finite(value, name)
    if not 0.0 <= fval <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {fval!r}")
    return fval


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is an integer >= 1, else raise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value!r}")
    return value


def check_non_negative_int(value: int, name: str) -> int:
    """Return ``value`` if it is an integer >= 0, else raise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_non_empty(seq: Sequence[T], name: str) -> Sequence[T]:
    """Return ``seq`` if it has at least one element, else raise."""
    if len(seq) == 0:
        raise ValidationError(f"{name} must not be empty")
    return seq


def check_unique(items: Iterable[T], name: str) -> None:
    """Raise if ``items`` contains duplicates (items must be hashable)."""
    seen: set[T] = set()
    for item in items:
        if item in seen:
            raise ValidationError(f"duplicate {name}: {item!r}")
        seen.add(item)


def check_probabilities_sum_to_one(values: Sequence[float], name: str, *, tol: float = 1e-9) -> None:
    """Raise unless ``values`` are all in [0, 1] and sum to 1 within ``tol``."""
    total = 0.0
    for i, v in enumerate(values):
        total += check_fraction(v, f"{name}[{i}]")
    if abs(total - 1.0) > tol:
        raise ValidationError(f"{name} must sum to 1, got {total!r}")
