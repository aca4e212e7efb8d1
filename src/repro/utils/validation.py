"""Input validation helpers shared across the library.

All validators raise ``ValueError`` (or ``TypeError`` for wrong types)
with a message that names the offending parameter, following the
"errors should never pass silently" principle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def check_positive_int(value, name: str, *, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer ``>= minimum`` and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_non_negative_int(value, name: str) -> int:
    """Validate that ``value`` is an integer ``>= 0`` and return it."""
    return check_positive_int(value, name, minimum=0)


def check_probability(value, name: str, *, allow_one: bool = False) -> float:
    """Validate that ``value`` is a probability in ``[0, 1)`` (or ``[0, 1]``)."""
    value = _as_float(value, name)
    upper_ok = value <= 1.0 if allow_one else value < 1.0
    if not (0.0 <= value and upper_ok):
        bound = "[0, 1]" if allow_one else "[0, 1)"
        raise ValueError(f"{name} must lie in {bound}, got {value}")
    return value


def check_fraction(value, name: str) -> float:
    """Validate that ``value`` lies strictly inside ``(0, 1)``."""
    value = _as_float(value, name)
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value}")
    return value


def check_positive(value, name: str) -> float:
    """Validate that ``value`` is a strictly positive real number."""
    value = _as_float(value, name)
    if not value > 0.0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(value, name: str) -> float:
    """Validate that ``value`` is a real number ``>= 0``."""
    value = _as_float(value, name)
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_in_range(
    value,
    name: str,
    *,
    low: Optional[float] = None,
    high: Optional[float] = None,
) -> float:
    """Validate that ``value`` lies in the closed interval ``[low, high]``."""
    value = _as_float(value, name)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return value


def _as_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if np.isnan(value):
        raise ValueError(f"{name} must not be NaN")
    return value


__all__ = [
    "check_positive_int",
    "check_non_negative_int",
    "check_probability",
    "check_fraction",
    "check_positive",
    "check_non_negative",
    "check_in_range",
]
