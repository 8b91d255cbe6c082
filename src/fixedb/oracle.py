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
  bracket checks (each family's instances drawn straight into one stack
  of float arrays and checked in one batched pass, whose one-instance
  calls are the public checks), the
  heterogeneous-Bernoulli TV bound and tail ordering over a full
  probability grid (the ordered merge of one subtree per first
  coordinate), and the conformal grid bound over a range of calibration
  sizes.

The sweeps call the formulas they certify (the coverage brackets'
array kernels in :mod:`fixedb.bounds`, which the public brackets call
too, the Ehm bound and ordering regimes of :mod:`fixedb.discrete`, the
``conformal_mod`` rank and alpha snap of :mod:`fixedb.orderstats`), so
a broken formula fails its sweep.  The scalar references the batched
checks are tested against live in the tests.

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
from typing import NamedTuple

import numpy as np

from . import bounds
from .bounds import _check_indices, _kappa_term
from .discrete import _binom_rows, _ehm_rows, _ordering_regimes, _row_cumsums, _row_sums, poisson_binomial_pmf_batch
from .distances import ENUMERATION_CAP, FinitePmf, _dists_to_uniform, _joint_width, dist_to_uniform
from .errors import (
    BudgetTooSmall, CapacityExceeded, InvalidIndices, InvalidInput, _check_choice, _check_count, _check_real,
    _check_type, _check_vector, _is_integer,
)
from .orderstats import ALPHA_DENOMINATOR_CAP, BudgetSpec, _INTERVAL_KINDS, _conformal_mod_rank, _snap_alpha, index_rule

# imported only for bench/tracer.py, which rebinds them here; the bracket
# checks call the brackets' array kernels and the batched gaps
from .bounds import dependent_bracket, iid_bracket, independent_bracket, ordering_lower  # noqa: F401
from .distances import gamma_exact  # noqa: F401

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


def _check_instance(inst, ndim: int) -> None:
    """Checks shared by the conditional instance families: each field a
    real array that aligns with the others, w_cond a stack of pmf rows on
    w_atoms, one per z atom, (|Z|, atoms) for the IID family (ndim 2) and
    (B >= 1, |Z|, atoms) for the independent one; then the checks of the
    instance's one-instance stack (:func:`_check_cond_stack`)."""
    z_probs = _check_vector(inst.z_probs, "z_probs", lo=-1e-12)
    psi = _check_vector(inst.psi_vals, "psi_vals")
    if psi.size != z_probs.size:
        raise InvalidInput("z_probs and psi_vals must align")
    atoms = _check_vector(inst.w_atoms, "w_atoms")
    w = _check_vector(inst.w_cond, "w_cond rows", lo=-1e-12, ndim=ndim)
    if w.shape[-2] != z_probs.size:
        raise InvalidInput("w_cond needs one pmf row per z atom")
    if w.shape[-1] != atoms.size:
        raise InvalidInput("each conditional pmf row must match w_atoms")
    if w.shape[0] == 0:
        raise InvalidInput("need at least one resample coordinate")
    w = w.reshape((-1,) + w.shape[-2:])
    _check_cond_stack(_cond_stack([(len(w), z_probs, psi, atoms, w)]))


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
        _check_instance(self, 3)

    @property
    def b(self) -> int:
        return len(self.w_cond)


def _masses(w: np.ndarray, atoms: np.ndarray, psi: np.ndarray, rel) -> np.ndarray:
    """For every pmf row ``w[..., j, :]`` of a w_cond stack on ``atoms``,
    the mass it puts on the atoms x with rel(x, psi[..., j]), as one
    masked sum over the rows; rel is a comparison ufunc such as
    ``np.less``.  ``atoms`` and ``psi`` carry the stack's leading axes
    but its coordinate axis (a batch of instances has them)."""
    return (w * rel(atoms[..., None, :], psi[..., :, None])).sum(axis=-1)


def _fields(inst) -> tuple:
    """An instance's z_probs, targets, atoms and w_cond as float arrays,
    w_cond as a (C, |Z|, atoms) stack of pmf rows: C = 1 for the IID
    family, whose coordinates share their rows, B for the independent
    one."""
    w = np.asarray(inst.w_cond, dtype=float)
    z_probs, psi, atoms = (np.asarray(v, dtype=float) for v in (inst.z_probs, inst.psi_vals, inst.w_atoms))
    return z_probs, psi, atoms, w.reshape((-1,) + w.shape[-2:])


def iid_slacks(inst: CondIIDInstance) -> tuple[float, float]:
    """(delta, delta_tilde): exact interval-KS distances of the laws of
    F_0(Z) = P(W <= psi(Z) | Z) and its strict-inequality version from
    U(0, 1)."""
    _check_type(inst, "inst", CondIIDInstance)
    z_probs, psi, atoms, w = _fields(inst)
    delta = dist_to_uniform(_masses(w[0], atoms, psi, np.less_equal), z_probs)[1]
    delta_tilde = dist_to_uniform(_masses(w[0], atoms, psi, np.less), z_probs)[1]
    return delta, delta_tilde


def indep_slacks(inst: CondIndepInstance) -> tuple[float, float, list]:
    """(d_ks, d_tilde, kappas) for a conditionally independent instance.

    d_ks and d_tilde are the plain and interval KS distances of the law
    of the averaged conditional CDF at the target from U(0, 1); kappa_i
    is the sup over z of |F(psi(z)) - F_i(z)| with F the marginal CDF
    of psi(Z).  Each kappa_i is clamped to [0, 1] against round-off.
    """
    _check_type(inst, "inst", CondIndepInstance)
    z_p, psi, atoms, w = _fields(inst)
    f = _masses(w, atoms, psi, np.less_equal)
    d_ks, d_tilde = dist_to_uniform(f.mean(axis=0), z_p)
    marg = (z_p * (psi <= psi[:, None])).sum(axis=1)
    return d_ks, d_tilde, np.minimum(np.abs(marg - f).max(axis=1), 1.0).tolist()


def _fold(z_probs: np.ndarray, p_lt: np.ndarray, p_eq: np.ndarray, p_gt: np.ndarray) -> np.ndarray:
    """The (n_lt, n_le) mass matrices of a stack of conditional instances
    from each coordinate's masses below, at and above the target: p_*
    have shape (B, ..., |Z|) and ``z_probs`` (..., |Z|).

    An exact fold, one coordinate at a time: S[..., j, l, k] is the mass
    of Z = z_j with l of the coordinates so far below psi(z_j) and k at
    or below it.  A coordinate moves (l, k) to (l+1, k+1) with its mass
    below psi(z_j), to (l, k+1) with its mass at psi(z_j), and keeps it
    with its mass above; one with masses (0, 0, 1) leaves S as it is.
    O(|Z| B^3) work at any B, no atoms^B outcomes.
    """
    B = p_lt.shape[0]
    S = np.zeros(p_lt.shape[1:] + (B + 1, B + 1))
    S[..., 0, 0] = z_probs
    steps = zip(p_lt[..., None, None], p_eq[..., None, None], p_gt[..., None, None])
    # after n - 1 coordinates only the leading n x n corner holds mass
    for n, (lt, eq, gt) in enumerate(steps, start=1):
        held = S[..., :n, :n].copy()
        S[..., :n, :n] *= gt
        S[..., 1 : n + 1, 1 : n + 1] += held * lt
        S[..., :n, 1 : n + 1] += held * eq
    return S.sum(axis=-3)


def _pair_matrix_joint(joint: FinitePmf) -> tuple[np.ndarray, int]:
    B = _joint_width(joint) - 1
    if len(joint) > ENUMERATION_CAP:
        raise CapacityExceeded("joint support exceeds the atom budget")
    # real coordinates, none of them NaN (FinitePmf refuses NaN)
    arr = np.asarray(joint.support, dtype=float)
    w, psi = arr[:, :-1], arr[:, -1:]
    bins = (w < psi).sum(axis=1) * (B + 1) + (w <= psi).sum(axis=1)
    # bincount adds in input order, as np.add.at does
    return np.bincount(bins, weights=joint.probs, minlength=(B + 1) ** 2).reshape(B + 1, B + 1), B


def _coverage_table(M: np.ndarray) -> np.ndarray:
    """The (B+2, B+2) table C of a pair mass matrix with C[i, j] the
    mass of n_lt < i and n_le < j, or the stack of tables of a stack of
    matrices; it never decreases along an axis, so the differences
    :func:`_coverage_from_table` reads are >= 0."""
    C = np.zeros(M.shape[:-2] + (M.shape[-2] + 1, M.shape[-1] + 1))
    np.cumsum(M.cumsum(axis=-2), axis=-1, out=C[..., 1:, 1:])
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
    return _read_coverage(C, a, b, kind)


def _read_coverage(C: np.ndarray, a: int, b: int, kind: str) -> float:
    """:func:`_coverage_from_table` of checked arguments."""
    B = C.shape[0] - 2
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
    [m_lo, m_hi] and each alpha, in exact integer arithmetic; ``alphas``
    must be a non-empty sequence."""
    _check_count(m_lo, "m_lo")
    _check_count(m_hi, "m_hi", lo=m_lo)
    alphas = tuple(alphas)
    if not alphas:
        raise InvalidInput("alphas must be non-empty")
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


def _draw_cond(rng: np.random.Generator, draw_rows) -> tuple:
    """The (z_probs, psi, atoms, w_cond) float arrays of a random
    conditional instance with <= 5 atoms per marginal, w_cond a (C, |Z|,
    atoms) stack of pmf rows; ``draw_rows(n_z, n_w)`` draws it between
    the atom and the target draws, and psi ties an atom with probability
    ~0.4."""
    n_z = int(rng.integers(1, 6))
    n_w = int(rng.integers(1, 6))
    atoms = np.sort(rng.choice(9, size=n_w, replace=False) + 1.0)
    w_cond = draw_rows(n_z, n_w)
    snap = rng.random(n_z) < 0.4
    psi = np.where(snap, atoms[rng.integers(0, n_w, size=n_z)], rng.uniform(0.5, 9.5, size=n_z))
    return rng.dirichlet(np.ones(n_z)), psi, atoms, w_cond


def _draw_cond_iid(rng: np.random.Generator) -> tuple:
    """The draw of :func:`random_cond_iid` as :func:`_draw_cond`'s arrays."""
    return _draw_cond(rng, lambda n_z, n_w: rng.dirichlet(np.ones(n_w), size=n_z)[None])


def _draw_cond_indep(rng: np.random.Generator, B: int | None = None) -> tuple:
    """The draw of :func:`random_cond_indep` as :func:`_draw_cond`'s
    arrays, one stack of pmf rows per coordinate."""
    B = int(rng.integers(1, 7)) if B is None else B

    def draw_rows(n_z: int, n_w: int) -> np.ndarray:
        ones = np.ones(n_w)
        base = rng.dirichlet(ones, size=n_z)
        rows = np.empty((B, n_z, n_w))
        for row in rows:
            eps = rng.uniform(0.0, 0.3)
            row[...] = (1.0 - eps) * base + eps * rng.dirichlet(ones, size=n_z)
        return rows

    return _draw_cond(rng, draw_rows)


def _draw_joint(rng: np.random.Generator, B: int | None = None) -> tuple:
    """The draw of :func:`random_joint`: its (atoms, B + 1) support and
    its probabilities as float arrays.  Equal atoms merge in a dict keyed
    by tuples of Python floats, in order of first draw, their masses
    summed in draw order."""
    B = int(rng.integers(1, 7)) if B is None else B
    n_at = int(rng.integers(2, 41))
    vals = rng.integers(1, 7, size=(n_at, B + 1)).astype(float)
    probs = rng.dirichlet(np.ones(n_at))
    acc: dict[tuple, float] = {}
    for key, p in zip(map(tuple, vals.tolist()), probs.tolist()):
        acc[key] = acc.get(key, 0.0) + p
    if B <= 3 and rng.random() < 0.3:
        perms = list(itertools.permutations(range(B + 1)))
        sym: dict[tuple, float] = {}
        share = 1.0 / len(perms)
        # row k of the (atoms, perms, B + 1) stack holds atom k's permutations
        for keys, p in zip(np.array(list(acc))[:, perms].tolist(), acc.values()):
            p *= share
            for key in map(tuple, keys):
                sym[key] = sym.get(key, 0.0) + p
        acc = sym
    return np.array(list(acc)), np.array(list(acc.values()))


def _tuples(v):
    """Nested lists as nested tuples."""
    return tuple(map(_tuples, v)) if isinstance(v, list) else v


def random_cond_iid(rng: np.random.Generator) -> CondIIDInstance:
    """A random finite conditionally-IID instance (<= 5 atoms per
    marginal; psi ties an atom with probability ~0.4)."""
    _check_type(rng, "rng", np.random.Generator)
    z_probs, psi, atoms, w = _draw_cond_iid(rng)
    return CondIIDInstance(*_tuples([z_probs.tolist(), psi.tolist(), atoms.tolist(), w[0].tolist()]))


def random_cond_indep(rng: np.random.Generator, B: int | None = None) -> CondIndepInstance:
    """A random conditionally independent instance; the per-coordinate
    pmfs are correlated perturbations of one base row so the kappa
    discrepancies stay moderate."""
    _check_type(rng, "rng", np.random.Generator)
    if B is not None:
        _check_count(B, "B")
    return CondIndepInstance(*_tuples([v.tolist() for v in _draw_cond_indep(rng, B)]))


def random_joint(rng: np.random.Generator, B: int | None = None) -> FinitePmf:
    """A random finite joint law over (B+1)-tuples; with probability
    ~0.3 (and B <= 3) it is symmetrized over coordinates so the
    exchangeability gap is exactly zero."""
    _check_type(rng, "rng", np.random.Generator)
    if B is not None:
        _check_count(B, "B")
    support, probs = _draw_joint(rng, B)
    return FinitePmf(_tuples(support.tolist()), probs)


def check_cond_iid(inst: CondIIDInstance, B: int):
    """All (a, b, kind) coverage checks of the conditionally-IID bracket
    with exact slacks; returns (n_checked, violations).  B must be an
    integer >= 1 and not a bool.  The one-instance call of the family's
    batch (:func:`_cond_iid_batch`), which :func:`bracket_suite` runs."""
    _check_type(inst, "inst", CondIIDInstance)
    _check_count(B, "B")
    return _cond_iid_batch(_cond_stack([(B, *_fields(inst))]))[0]


def check_cond_indep(inst: CondIndepInstance):
    """Closed-interval checks of the independent-resample bracket and
    the tail-ordering lower bound with exact slacks; the one-instance
    call of :func:`_cond_indep_batch`."""
    _check_type(inst, "inst", CondIndepInstance)
    return _cond_indep_batch(_cond_stack([(inst.b, *_fields(inst))]))[0]


_TAIL_PAIRS = ((0.2, 0.2), (0.3, 0.3), (0.5, 0.5), (0.2, 0.5), (0.7, 0.3))


def check_dependent(joint: FinitePmf):
    """Lower-bound checks for arbitrary dependence: exact coverage of
    the two-sided dependent rule must dominate 1 - (gamma+beta)/2 minus
    the exact exchangeability gap, at each (gamma, beta) of
    ``_TAIL_PAIRS`` whose budget allows the rule; the one-instance call
    of :func:`_dependent_batch`."""
    _joint_width(joint)
    if len(joint) > ENUMERATION_CAP:
        raise CapacityExceeded("joint support exceeds the atom budget")
    # real coordinates, none of them NaN (FinitePmf refuses NaN)
    return _dependent_batch(_joint_stack([(np.asarray(joint.support, dtype=float), joint.probs)]))[0]


def bracket_suite(n_instances: int = 210, seed: int = 20260823) -> SweepReport:
    """Randomized-instance verification of every coverage bracket.

    Cycles through the three instance families (conditionally IID,
    conditionally independent, arbitrary joint), drawing finite
    instances with B <= 6 and at most 5 atoms per marginal, and checks
    exact coverage (folded for the conditional families, enumerated
    for the joints) against the brackets evaluated with exact slack
    inputs.  The instances are drawn first, in order, straight into one
    float-array stack per family, each validated once
    (:func:`_draw_instances`); then each family's stack is checked in
    one batched pass (:func:`_batched_checks`), whose one-instance calls
    are :func:`check_cond_iid`, :func:`check_cond_indep` and
    :func:`check_dependent`, and the violations come in instance order.
    The bracket ends are the array kernels of :mod:`fixedb.bounds` that
    the public brackets call, so a broken bracket fails the suite.
    ``n_instances`` must be an integer >= 1 and ``seed`` one >= 0,
    neither a bool.
    """
    _check_count(n_instances, "n_instances")
    _check_count(seed, "seed", lo=0)
    results = _batched_checks(_draw_instances(n_instances, seed))
    return SweepReport(
        sum(n for n, _ in results),
        tuple(v for _, violations in results for v in violations),
        note=f"{n_instances} randomized finite instances, seed {seed}",
    )


class _CondStack(NamedTuple):
    """Conditional instances padded to common shapes, the arrays a
    conditional family's batch reads: ``z_probs`` and ``psi`` (N, Z),
    ``atoms`` (N, A), the pmf rows ``w`` (N, C, Z, A), and per instance
    ``B`` (the budget of its checks, which for an independent instance is
    its number of coordinates), ``n_z`` and ``n_w`` (its numbers of z
    and w atoms).  C is 1 for the IID family, whose coordinates share
    their rows, and max B for the independent one.  A padded z atom
    copies z atom 0's target and rows at probability 0, so it puts no
    new value into a slack's law; a padded w atom copies the last atom
    at mass 0; a padded coordinate's rows are 0 (see
    :func:`_padded_steps`)."""

    B: np.ndarray
    z_probs: np.ndarray
    psi: np.ndarray
    atoms: np.ndarray
    w: np.ndarray
    n_z: np.ndarray
    n_w: np.ndarray


class _JointStack(NamedTuple):
    """Finite joint laws of (W_1..W_B, psi), atom by atom, the arrays
    :func:`_dependent_batch` reads: ``atoms`` (M, max B + 1) holds each
    atom's W_1..W_B, a NaN in each column past its B (below and at no
    target), and psi in the last column; ``probs`` (M,) their masses;
    ``B`` and ``sizes`` (N,) each joint's B and number of atoms."""

    B: np.ndarray
    sizes: np.ndarray
    atoms: np.ndarray
    probs: np.ndarray


def _cond_stack(draws: list) -> _CondStack:
    """The :class:`_CondStack` of conditional instances, each given as
    its B and the arrays of :func:`_fields`."""
    N = len(draws)
    n_z = np.array([d[2].size for d in draws])
    n_w = np.array([d[3].size for d in draws])
    z_probs, psi, atoms = np.zeros((N, n_z.max())), np.empty((N, n_z.max())), np.empty((N, n_w.max()))
    w = np.zeros((N, max(d[4].shape[0] for d in draws), n_z.max(), n_w.max()))
    for n, (_, inst_z, inst_psi, inst_atoms, rows) in enumerate(draws):
        nz, na, c = inst_psi.size, inst_atoms.size, rows.shape[0]
        z_probs[n, :nz] = inst_z
        psi[n, :nz], psi[n, nz:] = inst_psi, inst_psi[0]
        atoms[n, :na], atoms[n, na:] = inst_atoms, inst_atoms[-1]
        w[n, :c, :nz, :na] = rows
        w[n, :c, nz:, :na] = rows[:, :1]
    return _CondStack(np.array([d[0] for d in draws], dtype=np.int64), z_probs, psi, atoms, w, n_z, n_w)


def _joint_stack(draws: list) -> _JointStack:
    """The :class:`_JointStack` of joints, each given as its (atoms,
    B + 1) float support and its probabilities."""
    B = np.array([support.shape[1] - 1 for support, _ in draws], dtype=np.int64)
    sizes = np.array([len(support) for support, _ in draws], dtype=np.int64)
    atoms = np.full((int(sizes.sum()), int(B.max()) + 1), np.nan)
    lo = 0
    for support, _ in draws:
        hi = lo + len(support)
        atoms[lo:hi, : support.shape[1] - 1], atoms[lo:hi, -1] = support[:, :-1], support[:, -1]
        lo = hi
    return _JointStack(B, sizes, atoms, np.concatenate([probs for _, probs in draws]))


def _check_cond_stack(stack: _CondStack) -> None:
    """InvalidInput unless every instance of a conditional stack passes,
    within its own atoms and coordinates, the checks its class makes
    (:func:`_check_instance`), all instances at once: real, finite
    arrays that align; z_probs and each pmf row >= -1e-12 and summing
    to 1 within 1e-9; strictly increasing w_atoms."""
    z_probs = _check_vector(stack.z_probs, "z_probs", lo=-1e-12, ndim=2)
    _check_vector(stack.psi, "psi_vals", ndim=2)
    atoms = _check_vector(stack.atoms, "w_atoms", ndim=2)
    w = _check_vector(stack.w, "w_cond rows", lo=-1e-12, ndim=4)
    (N, Z), A, C = z_probs.shape, atoms.shape[1], w.shape[1]
    B, n_z, n_w = (np.asarray(v) for v in (stack.B, stack.n_z, stack.n_w))
    if (stack.psi.shape, atoms.shape[0], w.shape[::2], w.shape[3], B.shape, n_z.shape, n_w.shape) != (
        (N, Z), N, (N, Z), A, (N,), (N,), (N,)
    ):
        raise InvalidInput("z_probs, psi_vals, w_atoms and w_cond must align")
    if not (np.all((1 <= n_z) & (n_z <= Z) & (1 <= n_w) & (n_w <= A) & (B >= 1)) and C in (1, B.max())):
        raise InvalidInput("each instance's z atoms, w atoms and coordinates must fit the stack")
    off = np.abs(z_probs.sum(axis=1) - 1.0) > 1e-9
    if off.any():
        raise InvalidInput(f"z_probs must sum to 1 within 1e-9, got {float(z_probs[off][0].sum())!r}")
    # the rows of each instance's coordinates (of its one stack in the IID
    # family, C = 1); a padded z atom's rows copy z atom 0's
    sums = w.sum(axis=-1)
    off = (np.abs(sums - 1.0) > 1e-9) & (np.arange(C) < np.minimum(B, C)[:, None])[..., None]
    if off.any():
        raise InvalidInput(f"w_cond rows must sum to 1 within 1e-9, got {float(sums[off][0])!r}")
    if np.any((np.diff(atoms, axis=1) <= 0) & (np.arange(A - 1) < n_w[:, None] - 1)):
        raise InvalidInput("w_atoms must be strictly increasing")


def _check_joint_stack(stack: _JointStack) -> None:
    """InvalidInput unless every joint of a stack passes the checks of
    :class:`~fixedb.distances.FinitePmf` and ``_joint_width``, all joints
    at once: real atoms of one width B + 1 >= 2 per joint, none of their
    coordinates NaN, distinct within the joint; probabilities finite,
    >= -1e-15 and summing to 1 within 1e-9 per joint, one per atom."""
    probs = _check_vector(stack.probs, "probs", lo=-1e-15)
    atoms = np.asarray(stack.atoms)
    if atoms.dtype.kind not in "iuf":
        raise InvalidInput(f"joint atoms must hold reals, got dtype {atoms.dtype}")
    B, sizes = np.asarray(stack.B), np.asarray(stack.sizes)
    if not (
        atoms.ndim == 2 and B.shape == sizes.shape == (B.size,) and B.size and np.all((B >= 1) & (sizes >= 1))
        and atoms.shape == (probs.size, B.max() + 1) and sizes.sum() == probs.size
    ):
        raise InvalidInput("support and probs must have equal length, each joint's atoms one width >= 2")
    owner = np.repeat(np.arange(B.size), sizes)
    cols = np.arange(atoms.shape[1])
    real = (cols < B[owner, None]) | (cols == atoms.shape[1] - 1)
    if np.any(np.isnan(atoms) & real):
        raise InvalidInput("support atoms must not be NaN")
    sums = np.bincount(owner, weights=probs, minlength=B.size)
    off = np.abs(sums - 1.0) > 1e-9
    if off.any():
        raise InvalidInput(f"probabilities sum to {float(sums[off][0])!r}, not 1")
    # equal atoms of one joint are adjacent in lexicographic order, which sorts by joint first
    keyed = np.column_stack([owner, np.where(real, atoms, 0.0)])
    ordered = keyed[np.lexsort(keyed.T[::-1])]
    if np.any((ordered[1:] == ordered[:-1]).all(axis=1)):
        raise InvalidInput("support atoms must be distinct")


def _draw_instances(n_instances: int, seed: int) -> tuple:
    """The instances of :func:`bracket_suite` as the stacks its family
    batches read: (IID, independent, joint), a family with no instance
    None.  Instance i is conditionally IID when i % 3 == 0, its check's
    budget B drawn just before it, conditionally independent when it is
    1, a joint when it is 2.  Each is drawn as arrays by the draw its
    public ``random_*`` wraps, the family's draws are stacked in order
    (:func:`_cond_stack`, :func:`_joint_stack`), and each stack is
    validated once (:func:`_check_cond_stack`,
    :func:`_check_joint_stack`)."""
    rng = np.random.default_rng(seed)
    iid: list = []
    indep: list = []
    joints: list = []
    for i in range(n_instances):
        fam = i % 3
        if fam == 0:
            B = int(rng.integers(1, 7))
            iid.append((B, *_draw_cond_iid(rng)))
        elif fam == 1:
            fields = _draw_cond_indep(rng)
            indep.append((fields[3].shape[0], *fields))
        else:
            joints.append(_draw_joint(rng))
    stacks = (
        _cond_stack(iid) if iid else None,
        _cond_stack(indep) if indep else None,
        _joint_stack(joints) if joints else None,
    )
    for stack, check in zip(stacks, (_check_cond_stack, _check_cond_stack, _check_joint_stack)):
        if stack is not None:
            check(stack)
    return stacks


def _batched_checks(stacks: tuple) -> list:
    """(n_checked, violations) of every instance of
    :func:`_draw_instances`'s stacks, in instance order, each family's
    stack checked in one pass.

    The padding of a stack (:class:`_CondStack`, :class:`_JointStack`)
    leaves each instance's checks as they are alone: every sum the
    padding lengthens runs over at most 6 terms (B <= 6, at most 5
    atoms), which NumPy adds in order, so a padded 0.0 added last keeps
    the bits of the instance checked alone.  The coverages and slacks
    are read as arrays over every (instance, a, b, kind), and the
    bracket ends are the :mod:`fixedb.bounds` kernels
    (``bounds._iid_ends``, ``_independent_ends``, ``_ordering_lower``,
    ``_dependent_ends``, clamped by ``_clamp``) on those arrays, looked
    up in ``bounds`` at each call.  The tests hold the scalar reference:
    loops over the checked public brackets, check by check.
    """
    results: list = [None] * sum(len(stack.B) for stack in stacks if stack is not None)
    for fam, (batch, stack) in enumerate(zip((_cond_iid_batch, _cond_indep_batch, _dependent_batch), stacks)):
        if stack is not None:
            results[fam::3] = batch(stack)
    return results


def _stack_masses(stack: _CondStack) -> tuple:
    """The (N, C, Z) masses below, at, above and at or below each target
    of a conditional stack's pmf rows."""
    atoms, psi = stack.atoms[:, None], stack.psi[:, None]
    return tuple(_masses(stack.w, atoms, psi, rel) for rel in (np.less, np.equal, np.greater, np.less_equal))


def _checks_of(Bs: np.ndarray, per_pair: int) -> tuple:
    """Flat (owner, B, a, b, slot) arrays over every instance's (a, b)
    with 0 <= a < B - b <= B in the check loops' order, each pair
    repeated ``per_pair`` times with slot 0..per_pair-1."""
    pairs = {B: [(a, b) for a in range(B) for b in range(B - a)] for B in set(Bs.tolist())}
    counts = np.array([len(pairs[B]) for B in Bs.tolist()], dtype=np.intp)
    a, b = np.array([ab for B in Bs.tolist() for ab in pairs[B]], dtype=np.int64).reshape(-1, 2).T
    owner = np.repeat(np.arange(Bs.size), counts * per_pair)
    slot = np.tile(np.arange(per_pair), a.size)
    return owner, Bs[owner], np.repeat(a, per_pair), np.repeat(b, per_pair), slot


def _padded_steps(Bs: np.ndarray, lt, eq, gt) -> tuple:
    """The (max B, N, Z) fold inputs of :func:`_fold` for N instances from
    their (N, C, Z) masses, C = max B or 1 (one stack of rows for every
    coordinate): instance n's coordinates past ``Bs[n]`` fold as
    (0, 0, 1)."""
    active = np.arange(1, Bs.max() + 1)[:, None, None] <= Bs[:, None]
    lt, eq, gt = (np.moveaxis(m, 1, 0) for m in (lt, eq, gt))
    return np.where(active, lt, 0.0), np.where(active, eq, 0.0), np.where(active, gt, 1.0)


def _read_coverages(C: np.ndarray, owner, B, a, b, kind) -> np.ndarray:
    """:func:`_read_coverage` of every check at once: check k reads table
    ``C[owner[k]]`` at its B, a, b and kind (an index into
    ``_TWO_SIDED_KINDS``)."""
    hi, end = B - b, B + 1
    closed, lcro = kind == 0, kind == 1
    rows = np.where(lcro, end, hi), np.where(closed, hi, np.where(lcro, end, a))
    cols = np.where(lcro, hi, end), np.where(kind == 2, end, a)
    return C[owner, rows[0], cols[0]] - C[owner, rows[1], cols[1]]


def _flagged(counts, owner, cov, lower, upper, record) -> list:
    """Each instance's (n_checked, violations) from its family's flat
    checks: check k fails when cov < lower - _TOL or cov > upper + _TOL,
    and ``record(k)`` is its violation."""
    bad = (cov < lower - _TOL) | (cov > upper + _TOL)
    results = [(int(n), []) for n in counts]
    for k in np.flatnonzero(bad).tolist():
        results[owner[k]][1].append(record(k))
    return results


def _cond_iid_batch(stack: _CondStack) -> list:
    """:func:`check_cond_iid` of every instance of a stack in one pass,
    read from its arrays."""
    Bs, z_probs = stack.B, stack.z_probs
    lt, eq, gt, le = _stack_masses(stack)
    C = _coverage_table(_fold(z_probs, *_padded_steps(Bs, lt, eq, gt)))
    probs = np.clip(z_probs, 0.0, None)
    delta = _dists_to_uniform(le[:, 0], probs)[1]
    delta_tilde = _dists_to_uniform(lt[:, 0], probs)[1]
    owner, B, a, b, kind = _checks_of(Bs, len(_TWO_SIDED_KINDS))
    cov = _read_coverages(C, owner, B, a, b, kind)
    lower, upper = bounds._clamp(*bounds._iid_ends(B, a, b, delta[owner], delta_tilde[owner], kind)[1:3])

    def record(k: int) -> dict:
        head = {"family": "cond_iid", "B": int(B[k]), "a": int(a[k]), "b": int(b[k]), "kind": _TWO_SIDED_KINDS[kind[k]]}
        return {**head, "coverage": float(cov[k]), "lower": float(lower[k]), "upper": float(upper[k])}

    return _flagged(3 * Bs * (Bs + 1) // 2, owner, cov, lower, upper, record)


def _cond_indep_batch(stack: _CondStack) -> list:
    """:func:`check_cond_indep` of every instance of a stack in one pass,
    read from its arrays."""
    Bs, z_probs, psi = stack.B, stack.z_probs, stack.psi
    lt, eq, gt, le = _stack_masses(stack)
    C = _coverage_table(_fold(z_probs, *_padded_steps(Bs, lt, eq, gt)))
    # a padded coordinate has mass 0, so the sum over coordinates is the instance's own
    d_ks, d_tilde = _dists_to_uniform(le.sum(axis=1) / Bs[:, None], np.clip(z_probs, 0.0, None))
    marg = (z_probs[:, None, :] * (psi[:, None, :] <= psi[:, :, None])).sum(axis=2)
    kappas = np.minimum(np.abs(marg[:, None, :] - le).max(axis=2), 1.0)
    kappa_term = np.array([
        _kappa_term(B, dt, row[:B]) for B, dt, row in zip(Bs.tolist(), d_tilde.tolist(), kappas.tolist())
    ])
    owner, B, a, b, check = _checks_of(Bs, 2)
    cov = _read_coverages(C, owner, B, a, b, 0)
    lower, upper = bounds._clamp(*bounds._independent_ends(B, a, b, d_tilde[owner], kappa_term[owner])[1:])
    # check 1 of each pair is the tail-ordering floor, with no upper end
    lower = np.where(check == 0, lower, bounds._ordering_lower(B, a, b, d_ks[owner]))
    upper = np.where(check == 0, upper, math.inf)

    def record(k: int) -> dict:
        head = {"family": ("cond_indep", "ordering")[check[k]], "B": int(B[k]), "a": int(a[k]), "b": int(b[k])}
        ends = {"lower": float(lower[k])} if check[k] else {"lower": float(lower[k]), "upper": float(upper[k])}
        return {**head, "coverage": float(cov[k]), **ends}

    return _flagged(Bs * (Bs + 1), owner, cov, lower, upper, record)


def _dependent_batch(stack: _JointStack) -> list:
    """:func:`check_dependent` of every joint of a stack in one pass,
    read from its arrays: the pair matrices in one ``np.bincount``, the
    gaps in one grouping (:func:`_gaps`)."""
    # the masses clipped at 0, as FinitePmf keeps them
    stack = stack._replace(probs=np.clip(stack.probs, 0.0, None))
    Bs, atoms = stack.B, stack.atoms
    side = atoms.shape[1]
    owner = np.repeat(np.arange(Bs.size), stack.sizes)
    # a NaN pads a short atom, below and at no target
    w, psi = atoms[:, :-1], atoms[:, -1:]
    bins = (owner * side + (w < psi).sum(axis=1)) * side + (w <= psi).sum(axis=1)
    # bincount adds in input order, as each joint's own bincount does
    C = _coverage_table(np.bincount(bins, weights=stack.probs, minlength=Bs.size * side**2).reshape(-1, side, side))
    gaps = _gaps(stack)
    ranks = {B: _dependent_ranks(B) for B in set(Bs.tolist())}
    checks = [(n, B, *r) for n, B in enumerate(Bs.tolist()) for r in ranks[B]]
    owner, B, pair, a, b = np.array(checks, dtype=np.int64).reshape(-1, 5).T
    cov = _read_coverages(C, owner, B, a, b, 0)
    gamma, beta = np.array(_TAIL_PAIRS)[pair].T
    lower, upper = bounds._clamp(*bounds._dependent_ends(B, gamma, beta, gaps[owner], False)[1:])

    def record(k: int) -> dict:
        g, bt = _TAIL_PAIRS[pair[k]]
        head = {"family": "dependent", "B": int(B[k]), "gamma": g, "beta": bt}
        return {**head, "coverage": float(cov[k]), "lower": float(lower[k]), "gap": float(gaps[owner[k]])}

    return _flagged([len(ranks[B]) for B in Bs.tolist()], owner, cov, lower, upper, record)


def _gaps(stack: _JointStack) -> np.ndarray:
    """``gamma_exact(joint).value`` of every joint of a stack, in one
    pass: the swapped atoms of all joints, each tagged with its joint,
    grouped by value; each group's mixture mass summed in the order
    ``gamma_exact`` adds it (atom by atom, the swaps before the
    identity); and each joint's TV as its ``math.fsum``, whose value does
    not depend on the order of its terms."""
    width = stack.B + 1
    big = stack.sizes * width > ENUMERATION_CAP
    if big.any():
        j = int(np.argmax(big))
        raise CapacityExceeded(f"{stack.sizes[j]} atoms x {width[j]} swaps exceeds the cap of {ENUMERATION_CAP}")
    owner = np.repeat(np.arange(width.size), stack.sizes)
    swaps = width[owner]
    # each atom's swaps in order: swap i < B exchanges coordinate i with the
    # last, and swap B is the identity; a pad reads 0, as in every atom of its joint
    rows = np.repeat(np.where(np.isnan(stack.atoms), 0.0, stack.atoms), swaps, axis=0)
    identity = np.cumsum(swaps) - 1
    swap = np.arange(rows.shape[0]) - np.repeat(identity - swaps + 1, swaps)
    r = np.flatnonzero(swap < np.repeat(swaps - 1, swaps))
    last = rows[r, -1]
    rows[r, -1] = rows[r, swap[r]]
    rows[r, swap[r]] = last
    keyed = np.column_stack([np.repeat(owner, swaps), rows])
    # equal rows are adjacent in lexicographic order, which sorts by joint first
    order = np.lexsort(keyed.T[::-1])
    ordered = keyed[order]
    first = np.ones(len(keyed), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty(len(keyed), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    mixture = np.bincount(group, weights=np.repeat(1.0 / swaps * stack.probs, swaps))
    mass = np.zeros(mixture.size)
    mass[group[identity]] = stack.probs
    terms = np.abs(mass - mixture)
    ends = np.searchsorted(ordered[first, 0], np.arange(width.size + 1))
    return np.array([min(1.0, 0.5 * math.fsum(terms[a:b])) for a, b in zip(ends, ends[1:])])


def _dependent_ranks(B: int) -> list:
    """(index into _TAIL_PAIRS, a, b) of each tail pair whose budget
    allows the dependent rule at B, in order."""
    ranks = []
    for i, (g, bt) in enumerate(_TAIL_PAIRS):
        try:
            rule = index_rule(BudgetSpec(B=B, alpha=g), "dependent_two_sided", gamma=g, beta=bt)
        except BudgetTooSmall:
            continue
        ranks.append((i, rule.lower_rank, B - rule.upper_rank))
    return ranks


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
# sweep: 260 parents at g = 9, B = 6.  A block's arrays then stay below
# glibc's default 128 KiB mmap threshold, so the blocks of every subtree reuse
# heap pages; at 1 MiB each subtree's top level faulted in fresh pages
# (about 20,000 faults and a quarter more time per default sweep)
_SWEEP_BLOCK_BYTES = 1 << 17


class _EhmSweep(NamedTuple):
    """A checked Ehm/Hoeffding sweep: its ``b_values`` and the grid as
    ``values`` = ``numerators`` / ``D`` (see :func:`_grid_lattice`)."""

    b_values: tuple
    values: np.ndarray
    numerators: np.ndarray
    D: int


_EHM_LABELS = ("tv", "order_le", "order_ge")


def _ehm_sweep(b_values=(1, 2, 3, 4, 5, 6), grid=None) -> _EhmSweep:
    """The checked arguments of :func:`ehm_hoeffding_sweep`."""
    b_values = tuple(b_values)
    if not b_values:
        raise InvalidInput("b_values must be non-empty")
    for B in b_values:
        _check_count(B, "each b_values entry")
    return _EhmSweep(tuple(map(int, b_values)), *_grid_lattice(np.arange(1, 10) / 10.0 if grid is None else grid))


def ehm_hoeffding_sweep(b_values=(1, 2, 3, 4, 5, 6), grid=None) -> SweepReport:
    """Exhaustive check of the binomial-approximation TV bound and the
    tail ordering over a full probability grid.

    For every p in grid^B: exact d_TV(PoiBin(p), Bin(B, p_bar)) must
    not exceed the closed-form upper bound, and the tail ordering
    P(PoiBin <= k) <= / >= P(Bin <= k) must hold on its two regimes
    (k <= B p_bar - 1 and k >= B p_bar).

    grid^B is enumerated one coordinate at a time, last coordinate
    fastest, so it is the ordered concatenation of g subtrees, one per
    first coordinate (:func:`_ehm_subtree`).  Each subtree keeps its
    first 20 violating rows of each check per B, and the report keeps
    the first 20 of their concatenation (:func:`_ehm_report`), which
    are the first 20 of the whole level; ``fixedb verify`` runs the
    subtrees as tasks of their own.  The grid must lie on a lattice k/D
    with D <= 10**6 (see :func:`_grid_lattice`; the default decimal
    grid has D = 10).  Reports follow ``b_values`` order; ``b_values``
    must be a non-empty sequence of integers >= 1.
    """
    sweep = _ehm_sweep(b_values, grid)
    return _ehm_report(sweep, [_ehm_subtree(sweep, first) for first in range(sweep.values.size)])


def _ehm_report(sweep: _EhmSweep, subtrees: list) -> SweepReport:
    """The SweepReport of a sweep from its :func:`_ehm_subtree` results,
    in first-coordinate order."""
    g = sweep.values.size
    violations = [
        v
        for B in sweep.b_values
        for label in _EHM_LABELS
        for v in [hit for found in subtrees for hit in found[B][label]][:20]
    ]
    n = sum(g**B for B in sweep.b_values)
    return SweepReport(n, tuple(violations), note=f"grid size {g}, B in {sweep.b_values}")


def _ehm_subtree(sweep: _EhmSweep, first: int) -> dict:
    """The first 20 violating rows of each check (B -> label -> list)
    among the grid rows whose first coordinate is grid value ``first``.

    Level B's probability rows and Poisson-binomial pmfs are level
    B-1's with each grid value appended and folded in (level 1 is the
    one row of value ``first``).  A level is built and checked in blocks
    of consecutive parent rows, each block's pmf stack within
    ``_SWEEP_BLOCK_BYTES`` (128 KiB), and is kept whole only when a higher
    level still folds it, so the subtree's top level (g^(B-1) rows) is
    never built whole.  Every row is computed on its own, so the result
    depends neither on the block size nor on the other subtrees: a row's
    p_bar is key / (D B) with the integer key D * (row sum), and each
    row looks up the binomial pmf and CDF and the ordering regimes of
    its key.
    """
    values, numerators, D = sweep.values, sweep.numerators, sweep.D
    top = max(sweep.b_values)
    found: dict = {}
    # level 0: one empty row, the point mass at 0, and its key 0
    rows, pmf = np.empty((1, 0)), np.ones((1, 1))
    keys, slot = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.intp)
    for B in range(1, top + 1):
        # the grid values appended at this level: only ``first`` at level 1
        pick = slice(first, first + 1) if B == 1 else slice(None)
        vals, nums = values[pick], numerators[pick]
        g = vals.size
        # the distinct keys of this level; child_slot[k, i] is the index
        # among them of parent key k with value i appended
        keys, inverse = np.unique(keys[:, None] + nums, return_inverse=True)
        child_slot = inverse.reshape(-1, g)
        checked = B in sweep.b_values
        if checked:
            key_pbar = keys / float(D * B)
            key_pmf = _binom_rows(B, key_pbar)
            tables = (key_pbar, key_pmf, np.cumsum(key_pmf, axis=1), *_ordering_regimes(B, key_pbar))
            found[B] = {label: [] for label in _EHM_LABELS}
        step = max(1, _SWEEP_BLOCK_BYTES // (8 * (B + 1) * g))
        blocks = []
        for lo in range(0, rows.shape[0], step):
            parents = slice(lo, lo + step)
            blk_rows = np.empty((rows[parents].shape[0], g, B))
            blk_rows[:, :, :-1] = rows[parents, None, :]
            blk_rows[:, :, -1] = vals
            blk_rows = blk_rows.reshape(-1, B)
            blk_pmf = poisson_binomial_pmf_batch(vals[:, None], start=pmf[parents, None, :]).reshape(-1, B + 1)
            blk_slot = child_slot[slot[parents]].ravel()
            if B < top:
                blocks.append((blk_rows, blk_pmf, blk_slot))
            if checked:
                _check_ehm_block(found[B], blk_rows, blk_pmf, blk_slot, *tables)
        if B < top:
            rows, pmf, slot = (np.concatenate(parts) for parts in zip(*blocks))
    return found


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
