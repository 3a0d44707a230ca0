"""Input checks shared by the package.

A leaf module: it imports nothing from etclab, so every other module,
the noise streams included, can check its arguments with the same
messages.
"""

import math
import numbers

__all__ = ["check_positive", "check_count"]


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is positive and finite (NaN is not)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_count(name: str, value, minimum: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer, Python or NumPy,
    of at least ``minimum``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        wanted = "a non-negative integer" if minimum == 0 else f">= {minimum}"
        raise ValueError(f"{name} must be {wanted}, got {value}")
