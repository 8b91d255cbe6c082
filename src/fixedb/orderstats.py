"""Order-statistic bookkeeping for fixed-budget resampling inference.

Everything downstream works with the sorted resample statistics
W_(1) <= ... <= W_(B): the rank-r order statistic resolves to -inf for
r <= 0 and to +inf for r >= B + 1.  This module owns that convention,
for one sample (:func:`order_stat`) and for a stack of them
(:func:`_sorted_stack`), every rank rule used by the
confidence-interval and test procedures, the minimum budgets at which
two- and one-sided rules stay informative, and the
external-randomization probability that makes the randomized
two-sided rule exact on average.

Rank arithmetic is exact: the level ``alpha`` is snapped to the nearest
rational with denominator at most 10**6 before any floor or ceiling is
taken, so floating-point noise can never flip an index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps

import numpy as np

from .errors import BudgetTooSmall, InvalidInput, _check_choice, _check_real, _check_vector, _is_integer

__all__ = [
    "SortedSample",
    "IntervalIndexRule",
    "BudgetSpec",
    "RULE_NAMES",
    "sorted_from",
    "order_stat",
    "index_rule",
    "min_budget",
    "tau_randomization",
]

#: Largest denominator kept when snapping alpha to a rational.
ALPHA_DENOMINATOR_CAP = 10**6

#: Every named rank rule.  See :func:`index_rule`.
RULE_NAMES = (
    "vanilla_two_sided",
    "mod_two_sided",
    "mod_two_sided_floor",
    "one_sided_upper_mod",
    "permutation_full",
    "permutation_sub",
    "randomization",
    "conformal_split",
    "conformal_mod",
    "ordering_symmetric",
    "dependent_two_sided",
)

#: Every interval kind a rule resolves to; the first three are two-sided.
_INTERVAL_KINDS = ("closed", "left_closed_right_open", "left_open_right_closed", "one_sided_upper")


@dataclass(frozen=True)
class SortedSample:
    """Sorted resample statistics W_(1) <= ... <= W_(B)."""

    values: np.ndarray

    @property
    def b(self) -> int:
        """The budget B (number of stored statistics)."""
        return int(self.values.shape[0])


@dataclass(frozen=True)
class IntervalIndexRule:
    """A resolved rank pair plus the interval kind that goes with it.

    ``lower_rank`` may be 0 and ``upper_rank`` may be B + 1; those ranks
    resolve to -inf and +inf.  For one-sided rules only ``upper_rank`` is
    meaningful and ``lower_rank`` is fixed at 0.
    """

    lower_rank: int
    upper_rank: int
    kind: str
    rule_name: str


@dataclass(frozen=True)
class BudgetSpec:
    """A Monte Carlo budget B and a miscoverage level alpha, stored as
    an ``int`` and a ``float`` so the rank caches can hash them."""

    B: int
    alpha: float

    def __post_init__(self):
        B = _check_real(self.B, "budget B")
        if B % 1 != 0 or B < 1:
            raise InvalidInput(f"budget B must be an integer >= 1, got {self.B!r}")
        alpha = float(_check_real(self.alpha, "alpha", 0, 1, strict=True))
        object.__setattr__(self, "B", int(B))
        object.__setattr__(self, "alpha", alpha)


@lru_cache(maxsize=256)
def _snap_alpha(alpha: float, what: str = "alpha") -> Fraction:
    """Snap a level in (0, 1), checked by the caller, to the nearest
    rational with a bounded denominator; one that snaps to 0 or 1
    (within about 5e-7 of it) raises, naming ``what``."""
    snap = Fraction(alpha).limit_denominator(ALPHA_DENOMINATOR_CAP)
    if not 0 < snap < 1:
        raise InvalidInput(f"{what}={alpha!r} snaps to {snap} on the lattice k/{ALPHA_DENOMINATOR_CAP}")
    return snap


def _conformal_mod_rank(m, alpha: Fraction):
    """The ``conformal_mod`` rank m + 1 - floor(2 m alpha / 3) at the
    snapped level alpha, in integer arithmetic, so m may also be an
    integer array."""
    return m + 1 - (2 * m * alpha.numerator) // (3 * alpha.denominator)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def sorted_from(values) -> SortedSample:
    """Sort raw resample statistics into a :class:`SortedSample`.

    Ties are kept as-is (stable sort, no jittering); the input is not
    modified.  Raises :class:`InvalidInput` on empty input, NaN, or a
    non-finite statistic.
    """
    return SortedSample(np.sort(_check_vector(values, "sample"), kind="stable"))


def order_stat(s: SortedSample, r: int) -> float:
    """The rank-r order statistic: ``values[r-1]`` for 1 <= r <= B,
    -inf for r <= 0 and +inf for r >= B + 1; r must be an integer."""
    if not _is_integer(r):
        raise InvalidInput(f"rank r must be an integer, got {r!r}")
    if r <= 0:
        return -math.inf
    if r >= s.b + 1:
        return math.inf
    return float(s.values[r - 1])


def _sorted_stack(values: np.ndarray) -> np.ndarray:
    """The stack form of :func:`order_stat`: each row of the (R, B)
    float stack ``values`` sorted stably between a -inf and a +inf
    column, so column r of the (R, B + 2) result holds each row's rank-r
    order statistic for every rank 0 .. B + 1."""
    R, B = values.shape
    out = np.empty((R, B + 2))
    out[:, 0], out[:, -1] = -math.inf, math.inf
    out[:, 1:-1] = values
    out[:, 1:-1].sort(axis=1, kind="stable")
    return out


def min_budget(alpha: float, sided: str = "two") -> int:
    """Smallest budget with an informative interval at level alpha.

    ``ceil(1/alpha - 1)`` for one-sided rules and ``ceil(2/alpha - 1)``
    for two-sided ones.
    """
    a = _snap_alpha(float(_check_real(alpha, "alpha", 0, 1, strict=True)))
    _check_choice(sided, "sided", ("one", "two"))
    return _ceil((1 if sided == "one" else 2) / a - 1)


def tau_randomization(spec: BudgetSpec) -> float:
    """Probability of taking the ceiling branch in the randomized rule.

    The fractional part of (B+1)(1-alpha) at the snapped alpha, or 1
    when (B+1)(1-alpha) is an integer.  Chosen so that
    ``tau * ceil((B+1)(1-alpha))/(B+1) + (1-tau) * floor(...)/(B+1)``
    equals 1 - alpha exactly.
    """
    t = (spec.B + 1) * (1 - _snap_alpha(spec.alpha))
    frac = t - _floor(t)
    return float(frac) if frac else 1.0


def _clamp(lower: int, upper: int, B: int) -> tuple[int, int]:
    return max(0, lower), min(B + 1, upper)


def index_rule(
    spec: BudgetSpec,
    rule_name: str,
    *,
    gamma: float | None = None,
    beta: float | None = None,
) -> IntervalIndexRule:
    """Resolve a named rank rule to explicit integer ranks.

    Parameters
    ----------
    spec : BudgetSpec
        Budget and level.  For the conformal rules B plays the role of
        the calibration-set size m.
    rule_name : str
        One of :data:`RULE_NAMES`.
    gamma, beta : float, optional
        Tail splits for ``dependent_two_sided``; both default to alpha.

    Raises
    ------
    BudgetTooSmall
        When the rule degenerates at this budget: the interval would be
        empty or span the full support (two-sided rules), or the
        threshold rank would exceed B (``randomization`` and
        ``one_sided_upper_mod``, whose callers need an informative
        threshold).  The permutation and conformal rules instead keep
        the out-of-range rank, which resolves to +inf (never reject /
        infinite threshold).  ``min_b`` is the smallest budget from
        which on every B is accepted.

    The outcome is cached per (B, alpha, rule_name, gamma, beta): the
    ranks, or a BudgetTooSmall's message and ``min_b``, from which each
    call raises a fresh BudgetTooSmall, so it raises every time.  Any
    other error is not cached.
    """
    if gamma is not None:
        gamma = float(_check_real(gamma, "gamma", 0, 1, strict=True))
    if beta is not None:
        beta = float(_check_real(beta, "beta", 0, 1, strict=True))
    _check_choice(rule_name, "rule_name", RULE_NAMES)
    return _index_rule(spec.B, spec.alpha, rule_name, gamma, beta)


def _cached_rule(resolve):
    """resolve, cached per arguments with its BudgetTooSmall outcomes: a
    call whose arguments once raised one raises a fresh BudgetTooSmall
    with the same message and ``min_b``.  ``cache_clear`` empties the
    cache; ``__wrapped__`` is the uncached resolve."""

    @lru_cache(maxsize=1024)
    def outcome(*args):
        try:
            return resolve(*args), None
        except BudgetTooSmall as exc:
            return None, (str(exc), exc.min_b)

    @wraps(resolve)
    def cached(*args):
        rule, too_small = outcome(*args)
        if too_small is not None:
            raise BudgetTooSmall(*too_small)
        return rule

    cached.cache_clear = outcome.cache_clear
    return cached


@_cached_rule
def _index_rule(B: int, alpha: float, rule_name: str, gamma, beta) -> IntervalIndexRule:
    """:func:`index_rule` on the budget's fields."""
    a = _snap_alpha(alpha)
    one = Fraction(1)

    if rule_name == "vanilla_two_sided":
        lower = _ceil(B * a / 2)
        upper = _ceil(B * (one - a / 2))
        kind = "left_closed_right_open"
    elif rule_name in ("mod_two_sided", "mod_two_sided_floor"):
        lower = _floor((B + 1) * a / 2)
        body = (B + 1) * (one - a)
        upper = (_ceil(body) if rule_name == "mod_two_sided" else _floor(body)) + lower
        kind = "left_closed_right_open"
    elif rule_name in ("one_sided_upper_mod", "randomization", "conformal_split"):
        lower = 0
        upper = _ceil((B + 1) * (one - a))
        kind = "one_sided_upper"
    elif rule_name == "permutation_full":
        lower = 0
        upper = _ceil(B * (one - a)) + 2
        kind = "one_sided_upper"
    elif rule_name == "permutation_sub":
        lower = 0
        upper = _ceil((B + 1) * (one - a)) + 1
        kind = "one_sided_upper"
    elif rule_name == "conformal_mod":
        lower = 0
        upper = _conformal_mod_rank(B, a)
        kind = "one_sided_upper"
    elif rule_name == "ordering_symmetric":
        half = _floor(B * a / 3 - Fraction(1, 2))
        lower = half
        upper = B - half
        kind = "closed"
        if half < 0:
            raise BudgetTooSmall(
                f"ordering_symmetric needs B >= 3/(2 alpha); got B={B}",
                min_b=_ceil(Fraction(3, 2) / a),
            )
    else:  # dependent_two_sided
        g = a if gamma is None else _snap_alpha(gamma, "gamma")
        bta = a if beta is None else _snap_alpha(beta, "beta")
        lower = _floor((B + 1) * g / 2) - 1
        upper = _ceil((B + 1) * (one - bta / 2))
        kind = "closed"
        lower, upper = _clamp(lower, upper, B)
        if lower <= 0 and upper >= B + 1:
            raise BudgetTooSmall(
                f"dependent_two_sided covers the full support at B={B}",
                min_b=int(min(_ceil(4 / g - 1), _ceil(2 / bta - 1))),
            )
        return IntervalIndexRule(lower, upper, kind, rule_name)

    lower, upper = _clamp(lower, upper, B)

    if lower >= upper:
        # only vanilla_two_sided (at odd B < 1/(1 - alpha)) and
        # mod_two_sided_floor (at B + 1 < 1/(1 - alpha)) get here
        c = _ceil(1 / (one - a))
        raise BudgetTooSmall(
            f"rule {rule_name} yields an empty interval at B={B}, alpha={alpha}",
            min_b=c - c % 2 if rule_name == "vanilla_two_sided" else c - 1,
        )
    if kind == "one_sided_upper":
        if rule_name in ("one_sided_upper_mod", "randomization") and upper >= B + 1:
            raise BudgetTooSmall(
                f"rule {rule_name} needs B >= ceil(1/alpha - 1); got B={B}",
                min_b=min_budget(alpha, "one"),
            )
    elif lower <= 0 and upper >= B + 1:
        raise BudgetTooSmall(
            f"rule {rule_name} covers the full support at B={B}, alpha={alpha}",
            min_b=min_budget(alpha, "one"),
        )
    return IntervalIndexRule(lower, upper, kind, rule_name)
