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
  bracket checks (each family's instances checked in one batched pass,
  whose one-instance calls are the public checks), the
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
from .distances import ENUMERATION_CAP, FinitePmf, _check_prob_vector, _dists_to_uniform, _joint_width, dist_to_uniform
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


def _masses(w: np.ndarray, atoms: np.ndarray, psi: np.ndarray, rel) -> np.ndarray:
    """For every pmf row ``w[..., j, :]`` of a w_cond stack on ``atoms``,
    the mass it puts on the atoms x with rel(x, psi[..., j]), as one
    masked sum over the rows; rel is a comparison ufunc such as
    ``np.less``.  ``atoms`` and ``psi`` carry the stack's leading axes
    but its coordinate axis (a batch of instances has them)."""
    return (w * rel(atoms[..., None, :], psi[..., :, None])).sum(axis=-1)


def _fields(inst) -> tuple:
    """An instance's w_cond stack, atoms and targets as float arrays."""
    w = np.asarray(inst.w_cond, dtype=float)
    return w, np.asarray(inst.w_atoms, dtype=float), np.asarray(inst.psi_vals, dtype=float)


def iid_slacks(inst: CondIIDInstance) -> tuple[float, float]:
    """(delta, delta_tilde): exact interval-KS distances of the laws of
    F_0(Z) = P(W <= psi(Z) | Z) and its strict-inequality version from
    U(0, 1)."""
    _check_type(inst, "inst", CondIIDInstance)
    fields = _fields(inst)
    delta = dist_to_uniform(_masses(*fields, np.less_equal), inst.z_probs)[1]
    delta_tilde = dist_to_uniform(_masses(*fields, np.less), inst.z_probs)[1]
    return delta, delta_tilde


def indep_slacks(inst: CondIndepInstance) -> tuple[float, float, list]:
    """(d_ks, d_tilde, kappas) for a conditionally independent instance.

    d_ks and d_tilde are the plain and interval KS distances of the law
    of the averaged conditional CDF at the target from U(0, 1); kappa_i
    is the sup over z of |F(psi(z)) - F_i(z)| with F the marginal CDF
    of psi(Z).  Each kappa_i is clamped to [0, 1] against round-off.
    """
    _check_type(inst, "inst", CondIndepInstance)
    psi = np.asarray(inst.psi_vals, dtype=float)
    z_p = np.asarray(inst.z_probs, dtype=float)
    f = _masses(*_fields(inst), np.less_equal)
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


def check_cond_iid(inst: CondIIDInstance, B: int):
    """All (a, b, kind) coverage checks of the conditionally-IID bracket
    with exact slacks; returns (n_checked, violations).  B must be an
    integer >= 1 and not a bool.  The one-instance call of the family's
    batch (:func:`_cond_iid_batch`), which :func:`bracket_suite` runs."""
    _check_type(inst, "inst", CondIIDInstance)
    _check_count(B, "B")
    return _cond_iid_batch([(inst, B)])[0]


def check_cond_indep(inst: CondIndepInstance):
    """Closed-interval checks of the independent-resample bracket and
    the tail-ordering lower bound with exact slacks; the one-instance
    call of :func:`_cond_indep_batch`."""
    _check_type(inst, "inst", CondIndepInstance)
    return _cond_indep_batch([(inst,)])[0]


_TAIL_PAIRS = ((0.2, 0.2), (0.3, 0.3), (0.5, 0.5), (0.2, 0.5), (0.7, 0.3))


def check_dependent(joint: FinitePmf):
    """Lower-bound checks for arbitrary dependence: exact coverage of
    the two-sided dependent rule must dominate 1 - (gamma+beta)/2 minus
    the exact exchangeability gap, at each (gamma, beta) of
    ``_TAIL_PAIRS`` whose budget allows the rule; the one-instance call
    of :func:`_dependent_batch`."""
    return _dependent_batch([(joint,)])[0]


def bracket_suite(n_instances: int = 210, seed: int = 20260823) -> SweepReport:
    """Randomized-instance verification of every coverage bracket.

    Cycles through the three instance families (conditionally IID,
    conditionally independent, arbitrary joint), drawing finite
    instances with B <= 6 and at most 5 atoms per marginal, and checks
    exact coverage (folded for the conditional families, enumerated
    for the joints) against the brackets evaluated with exact slack
    inputs.  The instances are drawn first, in order
    (:func:`_draw_instances`); then each family is checked in one
    batched pass (:func:`_batched_checks`), whose one-instance calls are
    :func:`check_cond_iid`, :func:`check_cond_indep` and
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


def _draw_instances(n_instances: int, seed: int) -> list:
    """The instances of :func:`bracket_suite`, in order, each as the
    arguments of its family's check: instance i is ``(inst, B)`` for
    :func:`check_cond_iid` when i % 3 == 0, ``(inst,)`` for
    :func:`check_cond_indep` when it is 1, ``(joint,)`` for
    :func:`check_dependent` when it is 2."""
    rng = np.random.default_rng(seed)
    draws: list = []
    for i in range(n_instances):
        fam = i % 3
        if fam == 0:
            B = int(rng.integers(1, 7))
            draws.append((random_cond_iid(rng), B))
        elif fam == 1:
            draws.append((random_cond_indep(rng),))
        else:
            draws.append((random_joint(rng),))
    return draws


def _batched_checks(draws: list) -> list:
    """(n_checked, violations) of every instance of
    :func:`_draw_instances`, in order, each family's instances checked
    in one pass.

    Each pass pads its instances to common shapes: a padded z atom
    copies z atom 0's target and pmf rows at probability 0, so it puts
    no new value into a slack's law; a padded w atom has mass 0; a
    padded resample coordinate folds as (lt, eq, gt) = (0, 0, 1).  Every
    sum the padding lengthens runs over at most 6 terms (B <= 6, at most
    5 atoms), which NumPy adds in order, so a padded 0.0 added last keeps
    the bits of the instance checked alone.  The coverages and slacks
    are read as arrays over every (instance, a, b, kind), and the
    bracket ends are the :mod:`fixedb.bounds` kernels
    (``bounds._iid_ends``, ``_independent_ends``, ``_ordering_lower``,
    ``_dependent_ends``, clamped by ``_clamp``) on those arrays, looked
    up in ``bounds`` at each call.  The tests hold the scalar reference:
    loops over the checked public brackets, check by check.
    """
    results: list = [None] * len(draws)
    for fam, batch in enumerate((_cond_iid_batch, _cond_indep_batch, _dependent_batch)):
        if draws[fam::3]:
            results[fam::3] = batch(draws[fam::3])
    return results


def _stacks(insts: list, coords: list) -> tuple:
    """Conditional instances padded into stacks (see
    :func:`_batched_checks`): z_probs (N, Z), psi (N, Z), and the
    (N, C, Z) masses below, at, above and at or below each target, from
    w_cond rows (N, C, Z, A) with instance n having ``coords[n]`` pmf row
    stacks (1 for the IID family)."""
    N = len(insts)
    Z = max(len(inst.z_probs) for inst in insts)
    A = max(len(inst.w_atoms) for inst in insts)
    z_probs, psi, atoms = np.zeros((N, Z)), np.empty((N, Z)), np.empty((N, A))
    w = np.zeros((N, max(coords), Z, A))
    for n, (inst, c) in enumerate(zip(insts, coords)):
        rows, inst_atoms, inst_psi = _fields(inst)
        nz, na = inst_psi.size, inst_atoms.size
        z_probs[n, :nz] = inst.z_probs
        psi[n, :nz], psi[n, nz:] = inst_psi, inst_psi[0]
        atoms[n, :na], atoms[n, na:] = inst_atoms, inst_atoms[-1]
        rows = rows.reshape(c, nz, na)
        w[n, :c, :nz, :na] = rows
        w[n, :c, nz:, :na] = rows[:, :1]
    masses = (_masses(w, atoms[:, None], psi[:, None], rel) for rel in (np.less, np.equal, np.greater, np.less_equal))
    return z_probs, psi, *masses


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


def _cond_iid_batch(draws: list) -> list:
    """:func:`check_cond_iid` of every ``(inst, B)`` in one pass."""
    insts = [inst for inst, _ in draws]
    Bs = np.array([B for _, B in draws], dtype=np.int64)
    z_probs, _, lt, eq, gt, le = _stacks(insts, [1] * len(insts))
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


def _cond_indep_batch(draws: list) -> list:
    """:func:`check_cond_indep` of every ``(inst,)`` in one pass."""
    insts = [inst for inst, in draws]
    Bs = np.array([inst.b for inst in insts], dtype=np.int64)
    z_probs, psi, lt, eq, gt, le = _stacks(insts, Bs.tolist())
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


def _dependent_batch(draws: list) -> list:
    """:func:`check_dependent` of every ``(joint,)`` in one pass: the
    pair matrices in one ``np.bincount``, the gaps in one grouping
    (:func:`_gaps`)."""
    joints = [joint for joint, in draws]
    Bs = np.array([_joint_width(joint) - 1 for joint in joints], dtype=np.int64)
    if max(map(len, joints)) > ENUMERATION_CAP:
        raise CapacityExceeded("joint support exceeds the atom budget")
    side = int(Bs.max()) + 1
    # real coordinates, none of them NaN (FinitePmf refuses NaN); a NaN
    # pads a short atom, below and at no target
    supports = [np.asarray(joint.support, dtype=float) for joint in joints]
    w = np.full((sum(map(len, joints)), side - 1), np.nan)
    psi = np.empty(w.shape[0])
    lo = 0
    for arr, B in zip(supports, Bs.tolist()):
        w[lo : lo + len(arr), :B], psi[lo : lo + len(arr)] = arr[:, :-1], arr[:, -1]
        lo += len(arr)
    owner = np.repeat(np.arange(len(joints)), list(map(len, joints)))
    bins = (owner * side + (w < psi[:, None]).sum(axis=1)) * side + (w <= psi[:, None]).sum(axis=1)
    # bincount adds in input order, as each joint's own bincount does
    probs = np.concatenate([joint.probs for joint in joints])
    C = _coverage_table(np.bincount(bins, weights=probs, minlength=len(joints) * side**2).reshape(-1, side, side))
    gaps = _gaps(supports, [joint.probs for joint in joints])
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


def _gaps(supports: list, probs: list) -> np.ndarray:
    """``gamma_exact(joint).value`` of every joint, given as its (atoms,
    B + 1) float support and its probabilities, in one pass: the swapped
    atoms of all joints, each tagged with its joint, grouped by value;
    each group's mixture mass summed in the order ``gamma_exact`` adds
    it (atom by atom, the swaps before the identity); and each joint's
    TV as its ``math.fsum``, whose value does not depend on the order of
    its terms."""
    top = max(arr.shape[1] for arr in supports)
    swaps = {}
    for width in {arr.shape[1] for arr in supports}:
        # swap i exchanges coordinate i with the last; swap width - 1 is the identity
        swaps[width] = np.tile(np.arange(width), (width, 1))
        swaps[width][np.arange(width - 1), np.arange(width - 1)] = width - 1
        swaps[width][np.arange(width - 1), width - 1] = np.arange(width - 1)
    rows = np.zeros((sum(arr.size for arr in supports), top + 1))
    weights, identity = [], []
    lo = 0
    for j, (arr, p) in enumerate(zip(supports, probs)):
        n, width = arr.shape
        if n * width > ENUMERATION_CAP:
            raise CapacityExceeded(f"{n} atoms x {width} swaps exceeds the cap of {ENUMERATION_CAP}")
        rows[lo : lo + n * width, 0] = j
        rows[lo : lo + n * width, 1 : width + 1] = arr[:, swaps[width]].reshape(-1, width)
        weights.append(np.repeat(1.0 / width * p, width))
        identity.append(lo + width * np.arange(n) + width - 1)
        lo += n * width
    # equal rows are adjacent in lexicographic order, which sorts by joint first
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty(len(rows), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    mixture = np.bincount(group, weights=np.concatenate(weights))
    mass = np.zeros(mixture.size)
    mass[group[np.concatenate(identity)]] = np.concatenate(probs)
    terms = np.abs(mass - mixture)
    ends = np.searchsorted(ordered[first, 0], np.arange(len(supports) + 1))
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
