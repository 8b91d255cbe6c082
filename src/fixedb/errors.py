"""The :class:`FixedBError` hierarchy and the two scalar checks every
module uses: :func:`_check_count` for a count, size or rank and
:func:`_check_real` for a level, rate or slack."""

from __future__ import annotations

import math
import numbers

import numpy as np

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


def _check_real(v, what: str, lo: float = -math.inf, hi: float = math.inf, strict: bool = False):
    """v, a 0-d array as its element; InvalidInput unless it is a finite
    real, not a bool, in [lo, hi] (in (lo, hi) when strict)."""
    x = v
    # the exact-type test first: levels and rates pass through here once
    # per cell and replicate
    if type(x) is not float and type(x) is not int:
        if isinstance(x, np.ndarray) and x.ndim == 0:
            x = x.item()
        if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real):
            x = math.nan
    # written so that a NaN, and so a non-real, fails the comparison
    if not (lo < x < hi if strict else lo <= x <= hi) or abs(x) == math.inf:
        left = "(" if strict or lo == -math.inf else "["
        right = ")" if strict or hi == math.inf else "]"
        raise InvalidInput(f"{what} must be a finite real in {left}{lo:g}, {hi:g}{right}, got {v!r}")
    return x
