"""Exact ground truth for the coverage guarantees.

Everything here is computed by an exact fold, exhaustive enumeration
or closed-form rank identities, never by Monte Carlo, so the bounds in
:mod:`fixedb.bounds` can be validated exactly on finite instances:

* finite discrete joints of (W_1..W_B, psi(Z)) with exact coverage of
  any order-statistic interval (:func:`exact_coverage_discrete`), by
  enumerating the joint's atoms;
* conditionally IID and conditionally independent instances with their
  exact slack inputs (interval-KS distances, kappa discrepancies)
  computed straight from the conditional pmfs, and their exact
  coverages by folding one resample coordinate at a time;
* the continuous-IID rank identity (:func:`exact_coverage_continuous_iid`);
* the deterministic conformal calibration grid
  (:func:`conformal_grid_example`);
* exhaustive sweeps used by the verification gate: randomized-instance
  bracket checks, the heterogeneous-Bernoulli TV bound and tail
  ordering over a full probability grid, and the conformal grid bound
  over a range of calibration sizes.

The sweeps call the formulas they certify (the Ehm bound and ordering
regimes of :mod:`fixedb.discrete`, the ``conformal_mod`` rank and alpha
snap of :mod:`fixedb.orderstats`), so a broken formula fails its sweep.

Interval membership is reduced to the pair (n_lt, n_le) = (number of
W_i strictly below psi, number weakly below): for the interval with
lower rank a and upper rank B-b,

* closed                 iff n_le >= a and n_lt <= B-b-1,
* left-closed right-open iff a <= n_le <= B-b-1,
* left-open right-closed iff a <= n_lt <= B-b-1,

so each instance yields a (B+1) x (B+1) joint mass matrix of the pair,
and one 2-D cumulative-sum table of it gives every (a, b, kind)
coverage in one or two lookups.  Rank 0 and rank B+1 act as -inf/+inf
sentinels (no constraint on that side).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import _check_indices, dependent_bracket, iid_bracket, independent_bracket, ordering_lower
from .discrete import _binom_rows, _ehm_rows, _ordering_regimes, _row_cumsums, _row_sums, poisson_binomial_pmf_batch
from .distances import ENUMERATION_CAP, FinitePmf, _check_prob_vector, _joint_width, dist_to_uniform, gamma_exact
from .errors import (
    BudgetTooSmall, CapacityExceeded, InvalidIndices, InvalidInput, _check_choice, _check_count, _check_real,
    _check_vector, _is_integer,
)
from .orderstats import ALPHA_DENOMINATOR_CAP, BudgetSpec, _INTERVAL_KINDS, _conformal_mod_rank, _snap_alpha, index_rule

__all__ = [
    "CondIIDInstance",
    "CondIndepInstance",
    "GridExample",
    "SweepReport",
    "iid_slacks",
    "indep_slacks",
    "exact_coverage_discrete",
    "exact_coverage_continuous_iid",
    "conformal_grid_example",
    "conformal_grid_sweep",
    "random_cond_iid",
    "random_cond_indep",
    "random_joint",
    "check_cond_iid",
    "check_cond_indep",
    "check_dependent",
    "bracket_suite",
    "ehm_hoeffding_sweep",
]

_TWO_SIDED_KINDS = _INTERVAL_KINDS[:3]
_TOL = 1e-9


@dataclass(frozen=True)
class SweepReport:
    """Outcome of an exhaustive verification sweep."""

    n_checked: int
    violations: tuple
    note: str = ""

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def _check_instance(inst, ndim: int) -> np.ndarray:
    """Checks shared by the conditional instance families; returns the
    ``w_cond`` stack of pmf rows on w_atoms, one per z atom: (|Z|, atoms)
    for the IID family (ndim 2), (B, |Z|, atoms) for the independent one."""
    _check_prob_vector(inst.z_probs, "z_probs")
    if _check_vector(inst.psi_vals, "psi_vals").size != len(inst.z_probs):
        raise InvalidInput("z_probs and psi_vals must align")
    atoms = _check_vector(inst.w_atoms, "w_atoms")
    if not np.all(np.diff(atoms) > 0):
        raise InvalidInput("w_atoms must be strictly increasing")
    w = _check_prob_vector(inst.w_cond, "w_cond rows", ndim)
    if w.shape[-2] != len(inst.z_probs):
        raise InvalidInput("w_cond needs one pmf row per z atom")
    if w.shape[-1] != atoms.size:
        raise InvalidInput("each conditional pmf row must match w_atoms")
    return w


@dataclass(frozen=True)
class CondIIDInstance:
    """A finite conditionally-IID instance.

    Z takes len(z_probs) values; psi_vals[j] is psi(z_j); given Z=z_j
    every W_i is an independent draw from the pmf ``w_cond[j]`` on the
    shared, strictly increasing atom grid ``w_atoms``.
    """

    z_probs: tuple
    psi_vals: tuple
    w_atoms: tuple
    w_cond: tuple

    def __post_init__(self) -> None:
        _check_instance(self, 2)


@dataclass(frozen=True)
class CondIndepInstance:
    """Conditionally independent, non-identical resamples.

    ``w_cond[i][j]`` is the pmf of W_{i+1} given Z = z_j on the shared
    grid ``w_atoms``; the number of resamples B is len(w_cond).
    """

    z_probs: tuple
    psi_vals: tuple
    w_atoms: tuple
    w_cond: tuple

    def __post_init__(self) -> None:
        if _check_instance(self, 3).shape[0] == 0:
            raise InvalidInput("need at least one resample coordinate")

    @property
    def b(self) -> int:
        return len(self.w_cond)


def _masses(inst, w: np.ndarray, rel) -> np.ndarray:
    """For every pmf row ``w[..., j, :]`` of a w_cond stack, the mass it
    puts on the atoms x with rel(x, psi(z_j)), as one masked sum over
    the rows; rel is a comparison ufunc such as ``np.less``."""
    psi = np.asarray(inst.psi_vals, dtype=float)[:, None]
    return (w * rel(np.asarray(inst.w_atoms, dtype=float), psi)).sum(axis=-1)


def iid_slacks(inst: CondIIDInstance) -> tuple[float, float]:
    """(delta, delta_tilde): exact interval-KS distances of the laws of
    F_0(Z) = P(W <= psi(Z) | Z) and its strict-inequality version from
    U(0, 1)."""
    w = np.asarray(inst.w_cond, dtype=float)
    delta = dist_to_uniform(_masses(inst, w, np.less_equal), inst.z_probs)[1]
    delta_tilde = dist_to_uniform(_masses(inst, w, np.less), inst.z_probs)[1]
    return delta, delta_tilde


def indep_slacks(inst: CondIndepInstance) -> tuple[float, float, list]:
    """(d_ks, d_tilde, kappas) for a conditionally independent instance.

    d_ks and d_tilde are the plain and interval KS distances of the law
    of the averaged conditional CDF at the target from U(0, 1); kappa_i
    is the sup over z of |F(psi(z)) - F_i(z)| with F the marginal CDF
    of psi(Z).  Each kappa_i is clamped to [0, 1] against round-off.
    """
    psi = np.asarray(inst.psi_vals, dtype=float)
    z_p = np.asarray(inst.z_probs, dtype=float)
    f = _masses(inst, np.asarray(inst.w_cond, dtype=float), np.less_equal)
    d_ks, d_tilde = dist_to_uniform(f.mean(axis=0), z_p)
    marg = (z_p * (psi <= psi[:, None])).sum(axis=1)
    return d_ks, d_tilde, np.minimum(np.abs(marg - f).max(axis=1), 1.0).tolist()


def _pair_matrix(inst, w: np.ndarray) -> np.ndarray:
    """Mass matrix of (n_lt, n_le) for a conditional instance whose
    W_1..W_B given Z = z_j are independent with the pmf rows ``w[:, j]``
    of a (B, |Z|, atoms) stack (the IID family broadcasts its rows).

    An exact fold, one coordinate at a time: S[j, l, k] is the mass of
    Z = z_j with l of the coordinates so far below psi(z_j) and k at or
    below it.  A coordinate moves (l, k) to (l+1, k+1) with its mass
    below psi(z_j), to (l, k+1) with its mass at psi(z_j), and keeps it
    with its mass above.  O(|Z| B^3) work at any B, no atoms^B outcomes.
    """
    p_lt, p_eq, p_gt = (_masses(inst, w, rel)[..., None, None] for rel in (np.less, np.equal, np.greater))
    B = w.shape[0]
    S = np.zeros((w.shape[1], B + 1, B + 1))
    S[:, 0, 0] = inst.z_probs
    # after n - 1 coordinates only the leading n x n corner holds mass
    for n, (lt, eq, gt) in enumerate(zip(p_lt, p_eq, p_gt), start=1):
        held = S[:, :n, :n].copy()
        S[:, :n, :n] *= gt
        S[:, 1 : n + 1, 1 : n + 1] += held * lt
        S[:, :n, 1 : n + 1] += held * eq
    return S.sum(axis=0)


def _pair_matrix_joint(joint: FinitePmf) -> tuple[np.ndarray, int]:
    B = _joint_width(joint) - 1
    if len(joint) > ENUMERATION_CAP:
        raise CapacityExceeded("joint support exceeds the atom budget")
    try:
        arr = np.asarray(joint.support, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or np.isnan(arr).any():  # a None coordinate converts to NaN
        raise InvalidInput("joint atoms must hold reals")
    w, psi = arr[:, :-1], arr[:, -1:]
    bins = (w < psi).sum(axis=1) * (B + 1) + (w <= psi).sum(axis=1)
    # bincount adds in input order, as np.add.at does
    return np.bincount(bins, weights=joint.probs, minlength=(B + 1) ** 2).reshape(B + 1, B + 1), B


def _coverage_table(M: np.ndarray) -> np.ndarray:
    """The (B+2, B+2) table C of a pair mass matrix with C[i, j] the
    mass of n_lt < i and n_le < j; it never decreases along an axis, so
    the differences :func:`_coverage_from_table` reads are >= 0."""
    C = np.zeros((M.shape[0] + 1, M.shape[1] + 1))
    np.cumsum(M.cumsum(axis=0), axis=1, out=C[1:, 1:])
    return C


def _coverage_from_table(C: np.ndarray, a: int, b: int, kind: str) -> float:
    """The coverage of one (a, b, kind), read off a :func:`_coverage_table`
    as one entry or the difference of two."""
    B = C.shape[0] - 2
    if not (_is_integer(a) and _is_integer(b)):
        raise InvalidInput(f"a and b must be integers, got a={a!r}, b={b!r}")
    if not (0 <= a <= B and -1 <= b and a < B - b <= B + 1):
        raise InvalidIndices(f"need 0 <= a < B - b <= B + 1, got a={a}, b={b}, B={B}")
    _check_choice(kind, "kind", _INTERVAL_KINDS)
    # n <= B-b-1 iff n < hi; the column or row ``end`` puts no bound on the other count
    hi, end = B - b, B + 1
    if kind == "closed":
        return float(C[hi, end] - C[hi, a])
    if kind == "left_closed_right_open":
        return float(C[end, hi] - C[end, a])
    if kind == "left_open_right_closed":
        return float(C[hi, end] - C[a, end])
    return float(C[hi, end])


def exact_coverage_discrete(joint: FinitePmf, a: int, b: int, kind: str) -> float:
    """Exact coverage of [W_(a), W_(B-b)] (in the given kind) under a
    finite joint law of (W_1..W_B, psi(Z)), by full enumeration.

    b = -1 addresses the rank-(B+1) sentinel (no upper constraint);
    a = 0 likewise leaves the lower side unconstrained.
    """
    return _coverage_from_table(_coverage_table(_pair_matrix_joint(joint)[0]), a, b, kind)


def exact_coverage_continuous_iid(B: int, a: int, b: int, kind: str) -> Fraction:
    """Rank-identity coverage for IID continuous (W_1..W_B, psi).

    The half-open kinds return the almost-sure coverage
    (B - a - b)/(B + 1).  The closed kind returns the inclusive rank
    count (B + 1 - a - b)/(B + 1): the ceiling of the closed-interval
    bracket, which the almost-surely tie-free closed interval attains
    only through the extra 1/(B+1) allowance; it requires a >= 1 so
    both endpoints are genuine order statistics.  B must be an integer
    >= 1 and a and b integers, none of them a bool.
    """
    _check_indices(B, a, b)
    _check_choice(kind, "kind", _TWO_SIDED_KINDS)
    if kind == "closed":
        if a < 1:
            raise InvalidIndices("closed-kind formula needs a >= 1")
        return Fraction(B + 1 - a - b, B + 1)
    return Fraction(B - a - b, B + 1)


@dataclass(frozen=True)
class GridExample:
    """The deterministic conformal calibration grid R_i = (i - 1/2)/m.

    ``coverage`` is the exact probability that a uniform test score
    falls below the rank-``rank`` calibration score (1.0 when the rank
    exceeds m and the +inf sentinel applies); ``bound`` is the
    guaranteed floor 1 - alpha - 3/(2m).
    """

    m: int
    alpha: float
    rank: int
    coverage: float
    bound: float
    sentinel: bool


def conformal_grid_example(m: int, alpha: float) -> GridExample:
    """Exact coverage of the budget-corrected conformal set on the
    half-spaced calibration grid, with its lower bound."""
    budget = BudgetSpec(B=m, alpha=alpha)
    rule = index_rule(budget, "conformal_mod")
    rank = rule.upper_rank
    sentinel = rank > m
    bound = 1 - _snap_alpha(budget.alpha) - Fraction(3, 2 * m)
    coverage = Fraction(1) if sentinel else Fraction(2 * rank - 1, 2 * m)
    return GridExample(
        m=m,
        alpha=alpha,
        rank=rank,
        coverage=float(coverage),
        bound=float(bound),
        sentinel=sentinel,
    )


def conformal_grid_sweep(
    m_lo: int = 5,
    m_hi: int = 10_000,
    alphas=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5),
) -> SweepReport:
    """Verify coverage >= bound on the calibration grid for every m in
    [m_lo, m_hi] and each alpha, in exact integer arithmetic."""
    _check_count(m_lo, "m_lo")
    _check_count(m_hi, "m_hi", lo=m_lo)
    m = np.arange(m_lo, m_hi + 1)
    violations = []
    for alpha in alphas:
        alpha = _check_real(alpha, "each alphas entry", 0, 1, strict=True)
        a = _snap_alpha(alpha)
        rank = _conformal_mod_rank(m, a)
        # coverage >= bound <=> (2 rank - 1) den >= 2 m (den - num) - 3 den;
        # a rank above m is the sentinel, whose coverage 1 always dominates
        den, num = a.denominator, a.numerator
        bad = (rank <= m) & ((2 * rank - 1) * den < 2 * m * (den - num) - 3 * den)
        violations += [
            {"m": int(mi), "alpha": alpha, "rank": int(ri)} for mi, ri in zip(m[bad], rank[bad])
        ]
    n = m.size * len(alphas)
    return SweepReport(n, tuple(violations), note=f"m in [{m_lo}, {m_hi}]")


def _random_instance(rng: np.random.Generator, family, draw_rows):
    """A random finite instance of ``family`` with <= 5 atoms per
    marginal; ``draw_rows(n_z, n_w)`` draws its w_cond between the atom
    and the target draws, and psi ties an atom with probability ~0.4."""
    n_z = int(rng.integers(1, 6))
    n_w = int(rng.integers(1, 6))
    atoms = np.sort(rng.choice(9, size=n_w, replace=False) + 1.0)
    w_cond = draw_rows(n_z, n_w)
    snap = rng.random(n_z) < 0.4
    psi = np.where(snap, atoms[rng.integers(0, n_w, size=n_z)], rng.uniform(0.5, 9.5, size=n_z))
    return family(
        z_probs=tuple(rng.dirichlet(np.ones(n_z))),
        psi_vals=tuple(psi),
        w_atoms=tuple(atoms),
        w_cond=w_cond,
    )


def random_cond_iid(rng: np.random.Generator) -> CondIIDInstance:
    """A random finite conditionally-IID instance (<= 5 atoms per
    marginal; psi ties an atom with probability ~0.4)."""

    def draw_rows(n_z: int, n_w: int) -> tuple:
        return tuple(map(tuple, rng.dirichlet(np.ones(n_w), size=n_z)))

    return _random_instance(rng, CondIIDInstance, draw_rows)


def random_cond_indep(rng: np.random.Generator, B: int | None = None) -> CondIndepInstance:
    """A random conditionally independent instance; the per-coordinate
    pmfs are correlated perturbations of one base row so the kappa
    discrepancies stay moderate."""
    B = int(rng.integers(1, 7)) if B is None else B
    _check_count(B, "B")

    def draw_rows(n_z: int, n_w: int) -> tuple:
        base = rng.dirichlet(np.ones(n_w), size=n_z)
        cond = []
        for _ in range(B):
            eps = rng.uniform(0.0, 0.3)
            noise = rng.dirichlet(np.ones(n_w), size=n_z)
            cond.append(tuple(map(tuple, (1.0 - eps) * base + eps * noise)))
        return tuple(cond)

    return _random_instance(rng, CondIndepInstance, draw_rows)


def random_joint(rng: np.random.Generator, B: int | None = None) -> FinitePmf:
    """A random finite joint law over (B+1)-tuples; with probability
    ~0.3 (and B <= 3) it is symmetrized over coordinates so the
    exchangeability gap is exactly zero."""
    B = int(rng.integers(1, 7)) if B is None else B
    _check_count(B, "B")
    n_at = int(rng.integers(2, 41))
    vals = rng.integers(1, 7, size=(n_at, B + 1)).astype(float)
    probs = rng.dirichlet(np.ones(n_at))
    acc: dict[tuple, float] = {}
    for row, p in zip(vals, probs):
        key = tuple(row)
        acc[key] = acc.get(key, 0.0) + float(p)
    if B <= 3 and rng.random() < 0.3:
        perms = list(itertools.permutations(range(B + 1)))
        sym: dict[tuple, float] = {}
        share = 1.0 / len(perms)
        for key, p in acc.items():
            for perm in perms:
                k2 = tuple(key[i] for i in perm)
                sym[k2] = sym.get(k2, 0.0) + p * share
        acc = sym
    support = list(acc.keys())
    return FinitePmf(support, [acc[k] for k in support])


class _Tally:
    """The checks of one instance: a count and the violations."""

    def __init__(self) -> None:
        self.n = 0
        self.violations: list = []

    def check(self, head: dict, cov: float, lower: float, upper=None, **tail) -> None:
        """Count one check of lower - _TOL <= cov (<= upper + _TOL); record
        a violation as head's keys, coverage, lower, upper, tail's keys."""
        self.n += 1
        if cov < lower - _TOL or (upper is not None and cov > upper + _TOL):
            bounds = {"lower": lower} if upper is None else {"lower": lower, "upper": upper}
            self.violations.append({**head, "coverage": cov, **bounds, **tail})

    @property
    def result(self) -> tuple:
        return self.n, self.violations


def check_cond_iid(inst: CondIIDInstance, B: int):
    """All (a, b, kind) coverage checks of the conditionally-IID bracket
    with exact slacks; returns (n_checked, violations).  B must be an
    integer >= 1 and not a bool."""
    _check_count(B, "B")
    w = np.asarray(inst.w_cond, dtype=float)
    C = _coverage_table(_pair_matrix(inst, np.broadcast_to(w, (B,) + w.shape)))
    delta, delta_tilde = iid_slacks(inst)
    tally = _Tally()
    for a in range(B):
        for b in range(B - a):
            for kind in _TWO_SIDED_KINDS:
                cov = _coverage_from_table(C, a, b, kind)
                br = iid_bracket(B, a, b, delta=delta, delta_tilde=delta_tilde, kind=kind)
                head = {"family": "cond_iid", "B": B, "a": a, "b": b, "kind": kind}
                tally.check(head, cov, br.lower, br.upper)
    return tally.result


def check_cond_indep(inst: CondIndepInstance):
    """Closed-interval checks of the independent-resample bracket and
    the tail-ordering lower bound with exact slacks."""
    B = inst.b
    C = _coverage_table(_pair_matrix(inst, np.asarray(inst.w_cond, dtype=float)))
    d_ks, d_tilde, kappas = indep_slacks(inst)
    tally = _Tally()
    for a in range(B):
        for b in range(B - a):
            cov = _coverage_from_table(C, a, b, "closed")
            br = independent_bracket(B, a, b, d_tilde, kappas)
            lo3 = ordering_lower(B, a, b, d_ks)
            tally.check({"family": "cond_indep", "B": B, "a": a, "b": b}, cov, br.lower, br.upper)
            tally.check({"family": "ordering", "B": B, "a": a, "b": b}, cov, lo3)
    return tally.result


_TAIL_PAIRS = ((0.2, 0.2), (0.3, 0.3), (0.5, 0.5), (0.2, 0.5), (0.7, 0.3))


def check_dependent(joint: FinitePmf):
    """Lower-bound checks for arbitrary dependence: exact coverage of
    the two-sided dependent rule must dominate 1 - (gamma+beta)/2 minus
    the exact exchangeability gap, at each (gamma, beta) of
    ``_TAIL_PAIRS`` whose budget allows the rule."""
    M, B = _pair_matrix_joint(joint)
    C = _coverage_table(M)
    gap = gamma_exact(joint).value
    tally = _Tally()
    for g, bt in _TAIL_PAIRS:
        try:
            rule = index_rule(BudgetSpec(B=B, alpha=g), "dependent_two_sided", gamma=g, beta=bt)
        except BudgetTooSmall:
            continue
        a = rule.lower_rank
        b = B - rule.upper_rank
        cov = _coverage_from_table(C, a, b, "closed")
        lower = dependent_bracket(B, g, bt, gap).lower
        tally.check({"family": "dependent", "B": B, "gamma": g, "beta": bt}, cov, lower, gap=gap)
    return tally.result


def bracket_suite(n_instances: int = 210, seed: int = 20260823) -> SweepReport:
    """Randomized-instance verification of every coverage bracket.

    Cycles through the three instance families (conditionally IID,
    conditionally independent, arbitrary joint), drawing finite
    instances with B <= 6 and at most 5 atoms per marginal, and checks
    exact coverage (folded for the conditional families, enumerated
    for the joints) against the brackets evaluated with exact slack
    inputs.  ``n_instances`` must be an integer >= 1 and
    ``seed`` one >= 0, neither a bool.
    """
    _check_count(n_instances, "n_instances")
    _check_count(seed, "seed", lo=0)
    rng = np.random.default_rng(seed)
    checks = 0
    violations: list = []
    for i in range(n_instances):
        fam = i % 3
        if fam == 0:
            B = int(rng.integers(1, 7))
            c, v = check_cond_iid(random_cond_iid(rng), B)
        elif fam == 1:
            c, v = check_cond_indep(random_cond_indep(rng))
        else:
            c, v = check_dependent(random_joint(rng))
        checks += c
        violations.extend(v)
    return SweepReport(
        checks,
        tuple(violations),
        note=f"{n_instances} randomized finite instances, seed {seed}",
    )


def _grid_lattice(grid) -> tuple[np.ndarray, np.ndarray, int]:
    """``(values, numerators, D)`` for a sweep grid: its values as floats
    and the integers N_i with values_i = N_i / D.

    Each value is snapped as alpha is (a rational with denominator at
    most 10**6) and D is the lcm of the denominators; a grid whose values
    are not within 1e-14 of their snaps, or whose D exceeds 10**6, does
    not lie on such a lattice and is rejected.
    """
    values = _check_vector(grid, "grid", 0, 1, strict=True)
    snaps = [_snap_alpha(v) for v in values.tolist()]
    D = math.lcm(*(f.denominator for f in snaps))
    if D > ALPHA_DENOMINATOR_CAP or any(abs(v - f) > 1e-14 for v, f in zip(values.tolist(), snaps)):
        raise InvalidInput(f"grid must lie on a lattice k/D with D <= {ALPHA_DENOMINATOR_CAP}")
    return values, np.array([f.numerator * (D // f.denominator) for f in snaps], dtype=np.int64), D


def _bad_rows(mask: np.ndarray) -> np.ndarray:
    """The rows of a boolean (n, K) mask with any True entry, in order;
    one pass over the flat mask, which is faster than ``any(axis=1)``
    over short rows when few entries are True."""
    return np.unique(np.flatnonzero(mask) // mask.shape[1])


# byte budget of one block's (rows, B+1) float64 pmf stack in the Ehm/Hoeffding
# sweep: about 2,080 parents at g = 9, B = 6, so a block's temporaries stay
# near cache size
_SWEEP_BLOCK_BYTES = 1 << 20


def ehm_hoeffding_sweep(b_values=(1, 2, 3, 4, 5, 6), grid=None) -> SweepReport:
    """Exhaustive check of the binomial-approximation TV bound and the
    tail ordering over a full probability grid.

    For every p in grid^B: exact d_TV(PoiBin(p), Bin(B, p_bar)) must
    not exceed the closed-form upper bound, and the tail ordering
    P(PoiBin <= k) <= / >= P(Bin <= k) must hold on its two regimes
    (k <= B p_bar - 1 and k >= B p_bar).

    grid^B is enumerated one coordinate at a time, last coordinate
    fastest: level B's probability rows and Poisson-binomial pmfs are
    level B-1's with each grid value appended and folded in.  A level
    is built and checked in blocks of consecutive parent rows, each
    block's pmf stack within ``_SWEEP_BLOCK_BYTES`` (1 MiB), and is
    kept whole only when a higher level still folds it, so the top
    level's g^B stack (about 30 MB at the default g = 9, B = 6) is
    never built.  Every row is computed on its own, so the reports do
    not depend on the block size.  The grid must lie on a lattice k/D
    with D <= 10**6 (see :func:`_grid_lattice`; the default decimal grid
    has D = 10): a row's p_bar is then key / (D B) with the integer key
    D * (row sum), and each row looks up the binomial pmf and CDF and
    the ordering regimes of its key.  Reports follow ``b_values`` order,
    with the first 20 violating rows of each check per B; ``b_values``
    must be a non-empty sequence of integers >= 1.
    """
    b_values = tuple(b_values)
    if not b_values:
        raise InvalidInput("b_values must be non-empty")
    for B in b_values:
        _check_count(B, "each b_values entry")
    b_values = tuple(map(int, b_values))
    values, numerators, D = _grid_lattice(np.arange(1, 10) / 10.0 if grid is None else grid)
    g = values.size
    top = max(b_values)
    found: dict = {}
    # level 0: one empty row, the point mass at 0, and its key 0
    rows, pmf = np.empty((1, 0)), np.ones((1, 1))
    keys, slot = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.intp)
    for B in range(1, top + 1):
        # the distinct keys of this level; child_slot[k, i] is the index
        # among them of parent key k with grid value i appended
        keys, inverse = np.unique(keys[:, None] + numerators, return_inverse=True)
        child_slot = inverse.reshape(-1, g)
        checked = B in b_values
        if checked:
            key_pbar = keys / float(D * B)
            key_pmf = _binom_rows(B, key_pbar)
            tables = (key_pbar, key_pmf, np.cumsum(key_pmf, axis=1), *_ordering_regimes(B, key_pbar))
            found[B] = {"tv": [], "order_le": [], "order_ge": []}
        step = max(1, _SWEEP_BLOCK_BYTES // (8 * (B + 1) * g))
        blocks = []
        for lo in range(0, rows.shape[0], step):
            parents = slice(lo, lo + step)
            blk_rows = np.empty((rows[parents].shape[0], g, B))
            blk_rows[:, :, :-1] = rows[parents, None, :]
            blk_rows[:, :, -1] = values
            blk_rows = blk_rows.reshape(-1, B)
            blk_pmf = poisson_binomial_pmf_batch(values[:, None], start=pmf[parents, None, :]).reshape(-1, B + 1)
            blk_slot = child_slot[slot[parents]].ravel()
            if B < top:
                blocks.append((blk_rows, blk_pmf, blk_slot))
            if checked:
                _check_ehm_block(found[B], blk_rows, blk_pmf, blk_slot, *tables)
        if B < top:
            rows, pmf, slot = (np.concatenate(parts) for parts in zip(*blocks))
    violations = [v for B in b_values for hits in found[B].values() for v in hits]
    n = sum(g**B for B in b_values)
    return SweepReport(n, tuple(violations), note=f"grid size {g}, B in {b_values}")


def _check_ehm_block(found, rows, pmf, slot, key_pbar, key_pmf, key_cdf, key_le, key_ge) -> None:
    """Check one block of a sweep level and append its violating rows to
    ``found`` (check label -> list), up to 20 per label."""
    B = rows.shape[1]
    upper = _ehm_rows(rows, key_pbar[slot])[1]
    # np.take gathers rows about twice as fast as fancy indexing
    dev = pmf - np.take(key_pmf, slot, axis=0)
    tv = 0.5 * _row_sums(np.abs(dev, out=dev))
    diff = _row_cumsums(pmf)
    diff -= np.take(key_cdf, slot, axis=0)
    bad = (
        ("tv", np.flatnonzero(tv > upper + 1e-12)),
        ("order_le", _bad_rows(np.take(key_le, slot, axis=0) & (diff > 1e-12))),
        ("order_ge", _bad_rows(np.take(key_ge, slot, axis=0) & (diff < -1e-12))),
    )
    for label, idx in bad:
        hits = found[label]
        hits.extend({"check": label, "B": B, "p": tuple(rows[row])} for row in idx[: 20 - len(hits)])
