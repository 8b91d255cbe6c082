"""Closed-form coverage brackets for order-statistic intervals.

Every function takes a budget, a rank pair, and the relevant slack
inputs, and returns how much coverage the interval
[W_(a), W_(B-b)] (in one of its three open/closed variants) is
guaranteed to have.  The ideal "base" term is 1 - (a+b+1)/(B+1); the
interval kind decides whether the unavoidable 1/(B+1) discretization
term lands on the upper bound, and the distribution slacks widen the
bracket symmetrically.

Slack inputs are caller-supplied: exactly computable for finite
discrete instances (see :mod:`fixedb.oracle`), analytic or asymptotic
otherwise; each slack check is written so that a NaN fails it.
Outputs are clamped to [0, 1]; when clamping fires it is
recorded in ``slack_terms`` so tests can tell a vacuous bound from a
sharp one.

Each bracket has one formula, an array kernel over checked arguments
(:func:`_iid_ends`, :func:`_independent_ends`, :func:`_ordering_lower`,
:func:`_dependent_ends`, and the one :func:`_clamp`).  The public
functions are its one-check calls, and ``fixedb verify``'s bracket
suite (:func:`fixedb.oracle.bracket_suite`) runs it over every
(instance, a, b, kind) at once, so a broken formula fails verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discrete import i_b
from .errors import InvalidIndices, InvalidInput, _check_choice, _check_count, _check_real, _check_vector, _is_integer
from .orderstats import _INTERVAL_KINDS

__all__ = [
    "CoverageBound",
    "iid_bracket",
    "ks_slack_tail",
    "ks_slack_markov",
    "independent_bracket",
    "ordering_lower",
    "dependent_bracket",
]


@dataclass(frozen=True)
class CoverageBound:
    """A (lower, upper) coverage bracket with an itemized breakdown.

    ``upper`` may be ``math.inf`` when the theory provides no upper
    bound.  ``slack_terms`` lists (name, value) pairs: the base term,
    each distribution slack, the 1/(B+1) budget term when present, and
    any clamping that was applied.
    """

    lower: float
    upper: float
    base: float
    slack_terms: tuple = field(default_factory=tuple)


def _check_indices(B: int, a: int, b: int) -> None:
    _check_count(B, "B")
    for name, v in (("a", a), ("b", b)):
        if not _is_integer(v):
            raise InvalidInput(f"{name} must be an integer, got {v!r}")
    if not (0 <= a < B - b <= B):
        raise InvalidIndices(f"need 0 <= a < B - b <= B, got a={a}, b={b}, B={B}")


def _clamp(lower, upper) -> tuple:
    """Bracket ends clamped to [0, 1], elementwise over arrays; an
    infinite upper end stays infinite."""
    lower = np.where(lower < 0.0, 0.0, lower)
    upper = np.where((upper != math.inf) & (upper > 1.0), 1.0, upper)
    return np.minimum(lower, 1.0), upper


def _bound(base, lower, upper, terms: list) -> CoverageBound:
    """The CoverageBound of one check's unclamped ends, with each end
    :func:`_clamp` moved recorded in ``terms`` by how far it moved."""
    lower, upper = float(lower), float(upper)
    lo, hi = map(float, _clamp(lower, upper))
    if lo > lower:
        terms.append(("clamp_lower", lo - lower))
    if hi < upper:
        terms.append(("clamp_upper", upper - hi))
    return CoverageBound(lower=lo, upper=hi, base=float(base), slack_terms=tuple(terms))


def _base(B, a, b):
    """The ideal coverage 1 - (a+b+1)/(B+1) of ranks a and B-b."""
    return 1.0 - (a + b + 1) / (B + 1)


def iid_bracket(
    B: int,
    a: int,
    b: int,
    *,
    delta: float = 0.0,
    delta_tilde: float = 0.0,
    kind: str = "closed",
) -> CoverageBound:
    """Coverage bracket when the resamples are conditionally IID.

    ``delta`` is the interval-KS distance between the law of the
    conditional CDF evaluated at the target and U(0, 1); ``delta_tilde``
    the same with the strict-inequality CDF.  The three kinds bracket,
    with base = 1 - (a+b+1)/(B+1) and [a >= 1] one when a >= 1, else 0:

    * closed                 [W_(a), W_(B-b)] :
      [base - d, base + max(1/(B+1) + d, d~ + [a >= 1] d)]
    * left_closed_right_open [W_(a), W_(B-b)) : [base - d, base + d]
    * left_open_right_closed (W_(a), W_(B-b)] : [base - d~, base + d~]

    The closed upper end.  Let F = P(W <= psi | Z) and F~ = P(W < psi |
    Z); given Z the counts n_le = #{W_i <= psi} and n_lt = #{W_i < psi}
    are Binomial(B, F) and Binomial(B, F~).  For X in [0, 1] and G
    nonincreasing with values in [0, 1], E G(X) - E G(U) lies in
    [-D-(X), D+(X)], where D+(X) = sup_t P(X <= t) - t and D-(X) = sup_t
    t - P(X < t) sum to the interval-KS distance.  The closed interval
    covers iff n_le >= a and n_lt <= B-b-1, so

    * at a = 0 coverage is P(n_lt <= B-b-1) <= base + D+(F~) <= base + d~,
      since the lower side is no constraint;
    * at a >= 1 it is P(n_le >= a) - P(n_lt >= B-b)
      <= (1 - a/(B+1) + D-(F)) - ((b+1)/(B+1) - D+(F~)) <= base + d + d~.

    With no ties at the target F~ = F and this stays within the
    1/(B+1) + d allowance; when the target ties W with high probability
    F~ falls far below F and only the d~ bound holds (for example with
    W = psi with probability F(Z) ~ U(0, 1) and W > psi otherwise,
    coverage is 1 - a/(B+1)).  The upper end is the larger of the two,
    and a ``tie_excess`` term records how far the second raised it.
    """
    _check_indices(B, a, b)
    delta = _check_real(delta, "delta", lo=0)
    delta_tilde = _check_real(delta_tilde, "delta_tilde", lo=0)
    _check_choice(kind, "kind", _INTERVAL_KINDS[:3])
    base, lower, upper, excess = _iid_ends(B, a, b, delta, delta_tilde, _INTERVAL_KINDS.index(kind))
    slack = ("delta_tilde", delta_tilde) if kind == "left_open_right_closed" else ("delta", delta)
    terms = [("base", float(base)), slack]
    if kind == "closed":
        terms.append(("budget", float(1.0 / (B + 1))))
        if excess > 0.0:
            terms.append(("tie_excess", float(excess)))
    return _bound(base, lower, upper, terms)


def _iid_ends(B, a, b, delta, delta_tilde, kind) -> tuple:
    """The unclamped (base, lower, upper, tie_excess) of
    :func:`iid_bracket` for checked arguments, elementwise over arrays;
    ``kind`` indexes ``_INTERVAL_KINDS[:3]``.  tie_excess is how far the
    tie bound lies above the budget allowance of the closed upper end,
    which it raises when positive (0 for the half-open kinds)."""
    base = _base(B, a, b)
    closed = kind == 0
    # closed: the budget allowance or the tie bound, whichever is larger
    allowance = base + 1.0 / (B + 1) + delta
    tie_upper = base + delta_tilde + np.where(a >= 1, delta, 0.0)
    slack = np.where(kind == 2, delta_tilde, delta)
    upper = np.where(closed, np.where(tie_upper > allowance, tie_upper, allowance), base + slack)
    return base, base - slack, upper, np.where(closed, tie_upper - allowance, 0.0)


def ks_slack_tail(eps: float, p_exceed: float, eta: float = 0.0) -> float:
    """Upper bound on the KS slack from a tail split.

    If the resampling distribution tracks the target to within ``eps``
    except on an event of probability ``p_exceed``, and the target's
    atoms carry at most ``eta`` mass, the KS distance between the
    conditional-CDF law and U(0, 1) is at most eps + p_exceed + eta.
    """
    eps = _check_real(eps, "eps", 0, strict=True)
    p_exceed = _check_real(p_exceed, "p_exceed", 0, 1)
    eta = _check_real(eta, "eta", lo=0)
    return min(1.0, eps + p_exceed + eta)


def ks_slack_markov(p: float, lp_norm: float, eta: float = 0.0) -> float:
    """The tail split optimized via Markov's inequality.

    (p+1) (lp_norm / p)^{p/(p+1)} + eta, where ``lp_norm`` is the L^p
    norm of the consistency discrepancy; clamped to [0, 1].
    """
    p = _check_real(p, "p", lo=1)
    lp_norm = _check_real(lp_norm, "lp_norm", lo=0)
    eta = _check_real(eta, "eta", lo=0)
    if lp_norm == 0.0:
        return min(1.0, eta)
    return min(1.0, (p + 1.0) * (lp_norm / p) ** (p / (p + 1.0)) + eta)


def independent_bracket(B: int, a: int, b: int, d_tilde: float, kappas) -> CoverageBound:
    """Coverage bracket for conditionally independent, non-identical
    resamples and the closed interval [W_(a), W_(B-b)].

    ``d_tilde`` is the interval-KS distance between the law of the
    averaged conditional CDF at the target and U(0, 1); ``kappas`` are
    the per-resample sup-distances from the target's CDF.  The combined
    slack is d~ + (sum kappa_i^2) (I_B + d~), and the bracket is
    [base - slack, base + slack + 1/(B+1)].
    """
    _check_indices(B, a, b)
    d_tilde = _check_real(d_tilde, "d_tilde", lo=0)
    kappas = _check_vector(kappas, "kappas", 0, 1)
    if kappas.size != B:
        raise InvalidInput(f"need exactly B={B} kappa values, got {kappas.size}")
    kappa_term = _kappa_term(B, d_tilde, kappas.tolist())
    base, lower, upper = _independent_ends(B, a, b, d_tilde, kappa_term)
    budget = float(1.0 / (B + 1))
    terms = [("base", float(base)), ("d_tilde", d_tilde), ("kappa_sq_times_ib", kappa_term), ("budget", budget)]
    return _bound(base, lower, upper, terms)


def _kappa_term(B: int, d_tilde: float, kappas: list) -> float:
    """(sum kappa_i^2) (I_B + d~), the part of the independent bracket's
    slack that does not depend on (a, b), for checked arguments."""
    return math.fsum(k * k for k in kappas) * (i_b(B) + d_tilde)


def _independent_ends(B, a, b, d_tilde, kappa_term) -> tuple:
    """The unclamped (base, lower, upper) of :func:`independent_bracket`
    for checked arguments and the :func:`_kappa_term` of the kappas,
    elementwise over arrays."""
    base = _base(B, a, b)
    slack = d_tilde + kappa_term
    return base, base - slack, base + slack + 1.0 / (B + 1)


def ordering_lower(B: int, a: int, b: int, d_ks: float) -> float:
    """Lower coverage bound via the Hoeffding tail ordering, for
    conditionally independent resamples and the closed interval.

    1 - 3(a+b+1)/(2B) - 6 d_ks, clamped below at 0; ``d_ks`` is the KS
    distance between the law of the averaged conditional CDF at the
    target and U(0, 1).
    """
    _check_indices(B, a, b)
    return float(_ordering_lower(B, a, b, _check_real(d_ks, "d_ks", lo=0)))


def _ordering_lower(B, a, b, d_ks):
    """:func:`ordering_lower` of checked arguments, elementwise over arrays."""
    return _clamp(1.0 - 3.0 * (a + b + 1) / (2.0 * B) - 6.0 * d_ks, math.inf)[0]


def dependent_bracket(
    B: int,
    gamma: float,
    beta: float,
    gap: float,
    continuous: bool = False,
) -> CoverageBound:
    """Coverage bracket under arbitrary dependence.

    For the closed interval with ranks floor((B+1) gamma/2) - 1 and
    ceil((B+1)(1 - beta/2)), coverage is at least
    1 - (gamma+beta)/2 - gap where ``gap`` is the exchangeability gap of
    the joint law (see :func:`fixedb.distances.gamma_exact`).  The
    matching upper bound 1 - (gamma+beta)/2 + gap + 4/(B+1) requires the
    marginals to be continuous; without ``continuous`` the upper bound
    is +inf.
    """
    _check_count(B, "B")
    gamma = _check_real(gamma, "gamma", 0, 1, strict=True)
    beta = _check_real(beta, "beta", 0, 1, strict=True)
    gap = _check_real(gap, "gap", lo=0)
    if not isinstance(continuous, (bool, np.bool_)):
        raise InvalidInput(f"continuous must be True or False, got {continuous!r}")
    base, lower, upper = _dependent_ends(B, gamma, beta, gap, continuous)
    terms = [("base", float(base)), ("gamma_gap", gap)]
    if continuous:
        terms.append(("budget", float(4.0 / (B + 1))))
    return _bound(base, lower, upper, terms)


def _dependent_ends(B, gamma, beta, gap, continuous) -> tuple:
    """The unclamped (base, lower, upper) of :func:`dependent_bracket`
    for checked arguments, elementwise over arrays."""
    base = 1.0 - (gamma + beta) / 2.0
    return base, base - gap, np.where(continuous, base + gap + 4.0 / (B + 1), math.inf)
