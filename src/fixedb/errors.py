"""The :class:`FixedBError` hierarchy and the four checks every module
uses: :func:`_check_count` for a count, size or rank, :func:`_check_real`
for a level, rate or slack, :func:`_check_vector` for a sample, pmf or
probability vector, and :func:`_check_choice` for a named choice."""

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

    def __reduce__(self):
        # the constructor's arguments, so that the error survives a pickle
        # round trip (a replicate worker sends its error back in one)
        return type(self), (self.args[0], self.min_b), self.__dict__


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


def _check_type(v, what: str, cls: type) -> None:
    """InvalidInput naming ``cls`` unless v is an instance of it."""
    if not isinstance(v, cls):
        raise InvalidInput(f"{what} must be a {cls.__name__}, got {type(v).__name__}")


def _check_choice(v, what: str, choices) -> None:
    """InvalidInput unless v is one of choices: a str matches only a str,
    an integer (a numpy one too, not a bool) only an int, None only None."""
    # the type test keeps an array, which compares elementwise, out of ``in``
    if (type(v) is str or v is None or isinstance(v, str) or _is_integer(v)) and v in choices:
        return
    raise InvalidInput(f"{what} must be one of {', '.join(map(repr, choices))}, got {v!r}")


def _interval(lo: float, hi: float, strict: bool) -> str:
    """[lo, hi], or (lo, hi) when strict; an infinite end is always open."""
    left = "(" if strict or lo == -math.inf else "["
    right = ")" if strict or hi == math.inf else "]"
    return f"{left}{lo:.10g}, {hi:.10g}{right}"


def _check_real(v, what: str, lo: float = -math.inf, hi: float = math.inf, strict: bool = False):
    """v, a NumPy scalar or 0-d array as the Python scalar it holds;
    InvalidInput unless it is a finite real, not a bool, in [lo, hi] (in
    (lo, hi) when strict)."""
    x = v
    # the exact-type test first: levels and rates pass through here once
    # per cell and replicate
    if type(x) is not float and type(x) is not int:
        if isinstance(x, np.generic) or isinstance(x, np.ndarray) and x.ndim == 0:
            x = x.item()
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            x = math.nan
    # written so that a NaN, and so a non-real, fails the comparison
    if not (lo < x < hi if strict else lo <= x <= hi) or abs(x) == math.inf:
        raise InvalidInput(f"{what} must be a finite real in {_interval(lo, hi, strict)}, got {v!r}")
    return x


_FLOAT64 = np.dtype(np.float64)
_MIN, _MAX = np.minimum.reduce, np.maximum.reduce


def _check_vector(v, what: str, lo: float = -math.inf, hi: float = math.inf, strict: bool = False, ndim: int = 1):
    """v as a float64 array (v itself when it is one); InvalidInput unless
    it is an integer or floating array (not bool, complex, string, object
    or ragged) of ndim dimensions with a non-empty last axis, whose
    entries are finite and in [lo, hi] (in (lo, hi) when strict)."""
    arr = v
    # the float64 array first: every CI cell's resample roots pass through here
    if type(arr) is not np.ndarray or arr.dtype is not _FLOAT64:
        try:
            arr = np.asarray(v)
        except (TypeError, ValueError):  # a ragged nesting
            arr = None
        if arr is None or arr.dtype.kind not in "iuf":
            got = "a ragged sequence" if arr is None else f"dtype {arr.dtype}"
            raise InvalidInput(f"{what} must be a non-empty {ndim}-d array of reals, got {got}")
        arr = arr.astype(np.float64, copy=False)
    if arr.ndim != ndim or arr.shape[-1] == 0:
        raise InvalidInput(f"{what} must be a non-empty {ndim}-d array of reals, got shape {arr.shape}")
    if arr.size:
        low, high = _MIN(arr, axis=None), _MAX(arr, axis=None)
        # written so that a NaN, which min and max pass on, fails the comparison
        inside = lo < low and high < hi if strict else lo <= low and high <= hi
        if not inside or low == -math.inf or high == math.inf:
            ok = ((lo < arr) & (arr < hi) if strict else (lo <= arr) & (arr <= hi)) & np.isfinite(arr)
            at = tuple(int(i) for i in np.argwhere(~ok)[0])
            got = f"{float(arr[at])!r} at index {at[0] if ndim == 1 else at}"
            raise InvalidInput(f"{what} must hold finite reals in {_interval(lo, hi, strict)}, got {got}")
    return arr
