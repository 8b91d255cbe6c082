"""The :class:`FixedBError` hierarchy and the integer check every
module uses for a count, size or rank."""

from __future__ import annotations

import numbers

__all__ = [
    "FixedBError",
    "InvalidInput",
    "InvalidIndices",
    "BudgetTooSmall",
    "DegenerateSpec",
    "CapacityExceeded",
    "NumericalFailure",
    "ConfigError",
]


class FixedBError(Exception):
    """Base class for all package errors."""


class InvalidInput(FixedBError, ValueError):
    """Malformed argument: empty sample, NaN, out-of-range value, bad shape."""


class InvalidIndices(FixedBError, ValueError):
    """Rank pair (a, b) violates 0 <= a < B - b <= B."""


class BudgetTooSmall(FixedBError, ValueError):
    """Budget B too small for the requested rule: the interval would be
    empty or cover the whole support.

    Attributes
    ----------
    min_b : int
        Smallest budget at which the rule produces an informative interval.
    """

    def __init__(self, message: str, min_b: int):
        super().__init__(message)
        self.min_b = min_b


class DegenerateSpec(FixedBError, ValueError):
    """Distribution spec degenerate for the requested quantity
    (e.g. mean success probability 0 or 1)."""


class CapacityExceeded(FixedBError, RuntimeError):
    """Exact enumeration would exceed the configured atom budget."""


class NumericalFailure(FixedBError, ArithmeticError):
    """Non-finite value encountered mid-computation.

    Attributes
    ----------
    step : int or None
        Iteration index at which the failure occurred, when applicable.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class ConfigError(FixedBError, ValueError):
    """Invalid experiment configuration; message carries the key path."""


def _is_integer(v) -> bool:
    """True for an int or a numpy integer, False for a bool."""
    # the exact-int test first: the numbers.Integral check costs about
    # 1 us, and seeds and stream ids pass through here once per replicate
    return type(v) is int or not isinstance(v, bool) and isinstance(v, numbers.Integral)


def _check_count(v, what: str, lo: int = 1) -> None:
    """InvalidInput unless v is an integer >= lo (a numpy integer too)
    and not a bool."""
    if not _is_integer(v) or v < lo:
        raise InvalidInput(f"{what} must be an integer >= {lo}, got {v!r}")
