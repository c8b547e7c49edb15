"""Small shared helpers."""

from __future__ import annotations

import math
import numbers


def ceil_count(fraction: float, n: int) -> int:
    """ceil(fraction * n) with a 1e-9 slack so that products like 0.6*100
    that land a hair above an integer do not round up one too far."""
    if n <= 0:
        return 0
    return max(0, min(n, math.ceil(fraction * n - 1e-9)))


def check_count(name: str, value, low: int = 1) -> None:
    """ValueError naming `name` unless value is a non-bool integer >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


def check_positive(name: str, value) -> None:
    """ValueError naming `name` unless value is a non-bool finite real > 0."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0.0 < value < math.inf):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
