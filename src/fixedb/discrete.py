"""Exact discrete-distribution kernels behind the coverage guarantees.

The conditionally independent (non-identical) case reduces to comparing
a Poisson-binomial count of "resample below target" events with the
binomial count it would be if the success probabilities were averaged.
This module provides the exact Poisson-binomial and binomial pmfs,
the I_B constant that multiplies the heterogeneity term in the coverage
slack, the Ehm total-variation bound (Ehm 1991) and the Hoeffding
tail-ordering check (Hoeffding 1956) between the two counting laws.

Each formula is one kernel over a stack of rows, and the public
functions are their one-row calls:

* :func:`poisson_binomial_pmf_batch` folds one Bernoulli at a time into
  a stack of pmfs, starting from the point mass at 0 or from a given
  ``start`` stack, so ``fixedb verify`` builds the pmfs of grid^B from
  those of grid^(B-1) with one fold;
* :func:`_binom_rows` folds B Bernoulli(p) trials into a stack of
  binomial pmfs, one p per row.  It is a separate constant-p loop, not
  a call of :func:`poisson_binomial_pmf_batch`, so the sweep compares
  the Poisson-binomial kernel with a reference that does not share it;
* :func:`_ehm_rows` and :func:`_ordering_regimes` give Ehm's bound and
  the Hoeffding regimes over an (n, B) stack of probability rows.

``fixedb verify`` sweeps the same kernels, so it certifies the formulas
the library uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distances import FinitePmf
from .errors import DegenerateSpec, _check_count, _check_real, _check_vector

__all__ = [
    "PoiBinSpec",
    "OrderingReport",
    "binom_pmf",
    "poisson_binomial_pmf",
    "poisson_binomial_pmf_batch",
    "i_b",
    "ehm_tv_bound",
    "hoeffding_ordering_check",
]


@dataclass(frozen=True)
class PoiBinSpec:
    """Success probabilities p_1..p_B of independent Bernoulli trials."""

    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(_check_vector(self.probs, "probs", 0, 1).tolist()))

    @property
    def b(self) -> int:
        return len(self.probs)

    @property
    def p_bar(self) -> float:
        return math.fsum(self.probs) / self.b


@dataclass(frozen=True)
class OrderingReport:
    """Result of the Hoeffding tail-ordering check.

    ``worst_margin`` is the smallest signed slack over all checked tail
    indices (negative means a violation); ``n_checked`` counts the
    indices that fall under one of the two ordering regimes.
    """

    passed: bool
    worst_margin: float
    n_checked: int


def _binom_rows(B: int, p_bars) -> np.ndarray:
    """The Bin(B, p) pmfs on {0..B} for each p in ``p_bars``, as one
    (len(p_bars), B+1) stack.

    Folds B Bernoulli(p) trials into the point mass at 0, in place:
    pmf[k] <- pmf[k] q + pmf[k-1] p.  Every entry stays finite at any B
    (the closed form C(B, k) p^k q^(B-k) overflows its coefficient from
    B of about 1030), is exact at p in {0, 1}, and lies within 4e-16 of
    the exact pmf for B <= 40 on the decimal grid.
    """
    p = np.asarray(p_bars, dtype=float)[:, None]
    q = 1.0 - p
    pmf = np.zeros((p.shape[0], B + 1))
    pmf[:, 0] = 1.0
    for n in range(1, B + 1):
        moved = pmf[:, :n] * p
        pmf[:, :n] *= q
        pmf[:, 1 : n + 1] += moved
    return pmf


def binom_pmf(B: int, p: float) -> FinitePmf:
    """The Bin(B, p) pmf on {0..B} as a :class:`FinitePmf`.

    Raises InvalidInput unless B is an integer >= 1 (not a bool) and p
    a finite real in [0, 1]."""
    _check_count(B, "B")
    _check_real(p, "p", 0, 1)
    return FinitePmf(list(range(B + 1)), _binom_rows(B, [p])[0])


def poisson_binomial_pmf_batch(prob_rows: np.ndarray, start=None) -> np.ndarray:
    """Poisson-binomial pmfs for many specs at once.

    ``prob_rows`` has shape (n, B), or (B,) for one row; row j holds
    the success probabilities of spec j, finite reals in [0, 1].
    Returns shape (n, B+1).  Exact dynamic programming: fold one
    Bernoulli at a time.

    ``start``, if given, is a stack of pmfs on {0..K} to fold the
    columns into instead of the point mass at 0; its leading axes
    broadcast against those of ``prob_rows``, and the result is on
    {0..K+B}; it is not checked.
    """
    try:
        prob_rows = np.atleast_2d(prob_rows)
    except ValueError:  # a ragged nesting, which the check names
        pass
    prob_rows = _check_vector(prob_rows, "prob_rows", 0, 1, ndim=2)
    pmf = np.ones(prob_rows.shape[:-1] + (1,)) if start is None else np.asarray(start, dtype=float)
    for i in range(prob_rows.shape[-1]):
        p = prob_rows[..., i : i + 1]
        folded = np.empty(np.broadcast_shapes(pmf.shape[:-1], p.shape[:-1]) + (pmf.shape[-1] + 1,))
        np.multiply(pmf, 1.0 - p, out=folded[..., :-1])
        folded[..., -1] = 0.0
        folded[..., 1:] += pmf * p
        pmf = folded
    return pmf


def poisson_binomial_pmf(spec: PoiBinSpec) -> FinitePmf:
    """Exact pmf of a sum of independent Bernoulli(p_i) on {0..B}."""
    row = poisson_binomial_pmf_batch(np.asarray(spec.probs)[None, :])[0]
    return FinitePmf(list(range(spec.b + 1)), row)


def i_b(B: int) -> float:
    """The heterogeneity constant: 1 for B <= 4, else
    1 - sqrt(1 - 4/B) + (2/B) log((1 + sqrt(1 - 4/B)) / (1 - sqrt(1 - 4/B))).

    Evaluated through the identity 1 - s = 4 / (B (1 + s)) with
    s = sqrt(1 - 4/B), which removes the catastrophic cancellation of
    the literal formula for large B; no series fallback is needed.
    Asymptotically B * i_b(B) -> 2 log B + 2.  B must be an integer
    >= 1 and not a bool.
    """
    _check_count(B, "B")
    if B <= 4:
        return 1.0
    s = math.sqrt(1.0 - 4.0 / B)
    return 4.0 / (B * (1.0 + s)) + (2.0 / B) * math.log(B * (1.0 + s) ** 2 / 4.0)


def _ehm_rows(prob_rows: np.ndarray, p_bar) -> tuple[np.ndarray, np.ndarray]:
    """(r, upper) of Ehm's bound for each row of an (n, B) stack of
    success probabilities with means ``p_bar``:
    r = 1 - sum p_i (1 - p_i) / (B p_bar q_bar) and
    upper = (B / (B+1)) (1 - p_bar^{B+1} - q_bar^{B+1}) r."""
    B = prob_rows.shape[1]
    q_bar = 1.0 - p_bar
    r = 1.0 - (prob_rows * (1.0 - prob_rows)).sum(axis=1) / (B * p_bar * q_bar)
    upper = B / (B + 1.0) * (1.0 - p_bar ** (B + 1) - q_bar ** (B + 1)) * r
    return r, upper


def _ordering_regimes(B: int, p_bar) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (len(p_bar), B+1) masks of the k in 0..B under each
    Hoeffding regime, k <= B p_bar - 1 and k >= B p_bar, each widened by
    1e-9 so a B p_bar rounded just off an integer keeps that integer."""
    k = np.arange(B + 1)
    bp = B * np.asarray(p_bar, dtype=float)[:, None]
    return k <= bp - 1.0 + 1e-9, k >= bp - 1e-9


def ehm_tv_bound(spec: PoiBinSpec) -> tuple[float, float]:
    """Upper bound on d_TV(PoiBin(p_1..p_B), Bin(B, p_bar)).

    Returns ``(upper, r)``, the one-row call of :func:`_ehm_rows`.
    The matching lower bound has an unspecified universal constant, so
    only the upper bound is exposed; ``r`` alone is returned for callers
    who want the heterogeneity factor.
    """
    p_bar = spec.p_bar
    if p_bar <= 0.0 or p_bar >= 1.0:
        raise DegenerateSpec("mean success probability is 0 or 1; the TV distance is 0")
    r, upper = _ehm_rows(np.asarray(spec.probs)[None, :], p_bar)
    return float(upper[0]), float(r[0])


def hoeffding_ordering_check(spec: PoiBinSpec, tol: float = 1e-12) -> OrderingReport:
    """Verify the tail ordering between PoiBin and its mean binomial.

    For every integer k: P(PoiBin <= k) <= P(Bin(B, p_bar) <= k) when
    k <= B p_bar - 1, and >= when k >= B p_bar (the regimes of
    :func:`_ordering_regimes`).  Indices in the open gap
    (B p_bar - 1, B p_bar) are unconstrained and skipped.
    """
    p_bar = spec.p_bar
    diff = np.cumsum(poisson_binomial_pmf(spec).probs) - np.cumsum(binom_pmf(spec.b, p_bar).probs)
    le, ge = _ordering_regimes(spec.b, [p_bar])
    margins = np.concatenate([-diff[le[0]], diff[ge[0]]])
    worst = float(margins.min()) if margins.size else math.inf
    return OrderingReport(passed=worst >= -tol, worst_margin=worst, n_checked=int(margins.size))
