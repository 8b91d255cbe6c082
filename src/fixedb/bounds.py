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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _clamped(lo: float, hi: float, base: float, terms: list) -> CoverageBound:
    if lo < 0.0:
        terms.append(("clamp_lower", -lo))
        lo = 0.0
    if hi != math.inf and hi > 1.0:
        terms.append(("clamp_upper", hi - 1.0))
        hi = 1.0
    lo = min(lo, 1.0)
    return CoverageBound(lower=lo, upper=hi, base=base, slack_terms=tuple(terms))


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
    base = 1.0 - (a + b + 1) / (B + 1)
    if kind == "closed":
        terms = [("base", base), ("delta", delta), ("budget", 1.0 / (B + 1))]
        upper = base + 1.0 / (B + 1) + delta
        tie_upper = base + delta_tilde + (delta if a >= 1 else 0.0)
        if tie_upper > upper:
            terms.append(("tie_excess", tie_upper - upper))
            upper = tie_upper
        return _clamped(base - delta, upper, base, terms)
    if kind == "left_closed_right_open":
        terms = [("base", base), ("delta", delta)]
        return _clamped(base - delta, base + delta, base, terms)
    terms = [("base", base), ("delta_tilde", delta_tilde)]
    return _clamped(base - delta_tilde, base + delta_tilde, base, terms)


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
    base = 1.0 - (a + b + 1) / (B + 1)
    kap_sq = math.fsum(k * k for k in kappas.tolist())
    slack = d_tilde + kap_sq * (i_b(B) + d_tilde)
    terms = [
        ("base", base),
        ("d_tilde", d_tilde),
        ("kappa_sq_times_ib", kap_sq * (i_b(B) + d_tilde)),
        ("budget", 1.0 / (B + 1)),
    ]
    return _clamped(base - slack, base + slack + 1.0 / (B + 1), base, terms)


def ordering_lower(B: int, a: int, b: int, d_ks: float) -> float:
    """Lower coverage bound via the Hoeffding tail ordering, for
    conditionally independent resamples and the closed interval.

    1 - 3(a+b+1)/(2B) - 6 d_ks, clamped below at 0; ``d_ks`` is the KS
    distance between the law of the averaged conditional CDF at the
    target and U(0, 1).
    """
    _check_indices(B, a, b)
    d_ks = _check_real(d_ks, "d_ks", lo=0)
    return max(0.0, 1.0 - 3.0 * (a + b + 1) / (2.0 * B) - 6.0 * d_ks)


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
    base = 1.0 - (gamma + beta) / 2.0
    terms = [("base", base), ("gamma_gap", gap)]
    if continuous:
        terms.append(("budget", 4.0 / (B + 1)))
        return _clamped(base - gap, base + gap + 4.0 / (B + 1), base, terms)
    bound = _clamped(base - gap, math.inf, base, terms)
    return bound
