"""Inference procedures built on order statistics of B resamples.

Confidence intervals (bootstrap, subsampling, averaged SGD) come in
three variants: "vanilla" uses the classical quantile ranks
ceil(B alpha/2) and ceil(B (1-alpha/2)); "modified" shifts to the
budget-corrected ranks floor((B+1) alpha/2) and
ceil((B+1)(1-alpha)) + floor((B+1) alpha/2), which are honest at any
fixed B; "randomized" draws one uniform to mix the ceil/floor upper
rank so the miscoverage bias cancels exactly.  Membership is always
the half-open bracket [W_(l), W_(u)) on the resample scale.

Tests (permutation, randomization) compare the observed statistic
against an order statistic of the B resampled statistics with >= as
the rejection comparison; ties with the threshold are flagged.

Seed plumbing: a procedure call with budget B consumes stream ids
seed.stream_id + 0 .. + B (one per resample, plus one for the
randomized branch draw), so callers should space replicate seeds via
:func:`fixedb.resampling.stream_for`.  The B resample streams are
drawn in one batched pass, which gives the same bits as B
single-stream calls; so are the randomized branch draws of all of a
call's cells.  Resample b always comes from stream
seed.stream_id + b, whatever B is, so a B-call's resamples are the
first B rows of any larger call on the same seed.  That is what lets
:func:`ci_cells` serve several (B, alpha, variant) cells from one
draw of max(B) resamples and one pass over their roots: each cell
reads the first B roots and draws its own rank rule, so it gets the
bits of its own :func:`ci_boot` or :func:`ci_subsample` call, which
are one-cell calls of it.  It is in turn the one-replicate call of
the block kernel :func:`_ci_block`, which the harness runs: it takes
R samples and R first stream ids, derives all R x max(B) resample
streams in one pass, keeps only the (R, max(B)) roots and sorts them
once per distinct B into the stack form of the orderstats rank
convention (:func:`~fixedb.orderstats._sorted_stack`), which the tests
read their thresholds from too.  Multiplier-SGD path b takes its
weights from stream seed.stream_id + b - 1 whatever B is, so
:func:`sgd_cells` likewise runs max(B) weighted paths once for all its
cells, and :func:`ci_sgd` is its one-cell call.  The tests block across
replicates too: :func:`rank_test_block` takes R samples and R first
stream ids, draws and scores all R x B resamples through one kernel
(``_RankTests.draws``, which serves resamples lo .. lo + n - 1 of any
subset of the tests) and sorts the (R, B) statistics once, and
:func:`permutation_test` and :func:`randomization_test` (sign flips or a
transform list) are its one-replicate calls.  The harness reads only
the decisions, so it runs :func:`_curtailed_rejects` instead, once for
all of a block's (B, alpha) cells: the same kernel, called in rounds
shared by the cells for the tests still open, each cell counting its
draws at or below and above the statistic below its own B until
:func:`_count_rule` fixes its decision.  Both batch hooks go through
one per-row loop, :func:`_per_row`, which checks the batch's exact
shape and runs the scalar callback instead when the batch raises.  An
``estimator_batch`` estimates a CI block's resamples a slab of index
rows at a time, through callbacks that gather them.  A
``statistic_batch`` scores all of a kernel call's resamples in one
call, each with its own test's data: the flipped (rows, m) stack of a
sign-flip test, or, for a permutation group, the test-major (rows, m)
permutation stack through the row-aligned hook statistic_batch(data,
tests, perms) that :func:`rank_test_block` and
:func:`_curtailed_rejects` take; :func:`permutation_test` adapts its
one-test hook statistic_batch(data, perms) to it.  The observed
statistics are one more such call.  Every draw takes the Philox keys
of its streams, derived once per kernel call
(:func:`~fixedb.resampling._stream_keys`).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    BudgetTooSmall, InvalidInput, NumericalFailure, _check_choice, _check_count, _check_real, _check_type, _check_vector,
)
from .orderstats import (
    BudgetSpec,
    IntervalIndexRule,
    SortedSample,
    _sorted_stack,
    index_rule,
    min_budget,
    order_stat,
    sorted_from,
    tau_randomization,
)
from .resampling import (
    PermutationGroup,
    SeedSpec,
    SgdSpec,
    _bounded_from,
    _shuffled_from,
    _stream_keys,
    _stream_rows,
    sgd_paths,
)
# imported only for bench/tracer.py, which rebinds them here
from .resampling import bootstrap_indices, generator, permutation_draw, signflip_transform, subsample_indices  # noqa: F401

__all__ = [
    "Interval",
    "RandomizedBranch",
    "CiResult",
    "TestDecision",
    "DecisionBlock",
    "PredictionSet",
    "ci_rule",
    "test_rule",
    "ci_cells",
    "ci_boot",
    "ci_subsample",
    "sgd_cells",
    "ci_sgd",
    "rank_test_block",
    "permutation_test",
    "randomization_test",
    "conformal_set",
]

_CI_VARIANTS = ("vanilla", "modified", "randomized")


def _child(seed: SeedSpec, offset: int) -> SeedSpec:
    return SeedSpec(seed.master_seed, seed.stream_id + offset)


@dataclass(frozen=True)
class Interval:
    """The scalar interval (lo, hi]: open below, closed above."""

    lo: float
    hi: float

    def contains(self, x: float) -> bool:
        return bool(self.lo < x <= self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class RandomizedBranch:
    """Record of the randomized upper-rank draw: took the ceil branch
    iff u <= tau."""

    u: float
    tau: float
    took_ceil: bool


@dataclass(frozen=True)
class CiResult:
    """A confidence set for one (scalar or vector) parameter.

    ``contains`` tests candidate parameters directly.  ``interval`` is
    populated only when the root is the scalar identity, in which case
    contains(theta) and interval.contains(theta) agree everywhere.
    ``span`` is the resample-scale threshold spread (W_(u) - W_(l))
    divided by the rate, which equals the interval width in the scalar
    case and is the reported width proxy otherwise.
    """

    contains: Callable[[object], bool]
    rule: IntervalIndexRule
    resample_stats: SortedSample
    budget: BudgetSpec
    span: float
    interval: Optional[Interval] = None
    randomized_branch: Optional[RandomizedBranch] = None


@dataclass(frozen=True)
class TestDecision:
    """Outcome of a resampling test; reject iff statistic >= threshold.

    ``tie`` marks an exact tie between statistic and threshold, where
    the >= comparison breaks toward rejection.
    """

    reject: bool
    statistic: float
    threshold: float
    rule: IntervalIndexRule
    budget: BudgetSpec
    tie: bool = False


@dataclass(frozen=True)
class PredictionSet:
    """A conformal set {y: score(y) <= threshold}."""

    threshold: float
    rule: IntervalIndexRule
    calibration: SortedSample

    def contains_score(self, score: float) -> bool:
        return bool(score <= self.threshold)


def ci_rule(budget: BudgetSpec, variant: str) -> IntervalIndexRule:
    """The rank rule of a CI variant at this budget; for "randomized",
    the ceiling branch of its draw, after its floor branch
    ("mod_two_sided_floor") has been resolved too.

    This is the budget check every CI procedure runs before it draws
    anything: it raises :class:`BudgetTooSmall` when the variant cannot
    run at (B, alpha), a randomized cell whose floor branch would be
    empty included, and :class:`InvalidInput` for an unknown variant.
    The harness runs it to skip such cells before its replicate loop.
    """
    _check_choice(variant, "variant", _CI_VARIANTS)
    if variant == "vanilla":
        return index_rule(budget, "vanilla_two_sided")
    need = min_budget(budget.alpha, "two")
    if budget.B < need:
        raise BudgetTooSmall(
            f"{variant} two-sided interval needs B >= {need} at alpha={budget.alpha}",
            min_b=need,
        )
    rule = index_rule(budget, "mod_two_sided")
    if variant == "randomized":
        try:
            index_rule(budget, "mod_two_sided_floor")
        except BudgetTooSmall as exc:
            raise BudgetTooSmall(
                f"randomized two-sided interval's floor branch needs B >= {exc.min_b} at alpha={budget.alpha}",
                min_b=exc.min_b,
            ) from None
    return rule


def test_rule(budget: BudgetSpec, group) -> IntervalIndexRule:
    """The rank rule of a resampling test at this budget: "randomization"
    for sign flips and explicit transform lists; for a PermutationGroup
    G, "permutation_full" when B = |G| and "permutation_sub" when B < |G|.

    The counterpart of :func:`ci_rule`, run by every test and by the
    harness before anything is drawn.  It raises :class:`BudgetTooSmall`
    when the randomization rule cannot run at (B, alpha), and
    :class:`InvalidInput` when B > |G|.
    """
    if not isinstance(group, PermutationGroup):
        return index_rule(budget, "randomization")
    if budget.B > group.size:
        raise InvalidInput(f"B={budget.B} exceeds |G|={group.size}; draws come from G")
    return index_rule(budget, "permutation_full" if budget.B == group.size else "permutation_sub")


test_rule.__test__ = False  # a library function, not a pytest test


@dataclass(frozen=True)
class _CellRules:
    """One CI cell's rank rule in each of R replicates: ``rule``, except
    that in a randomized cell a replicate whose uniform u exceeds
    ``tau`` takes ``floor``, the floor branch of the draw."""

    budget: BudgetSpec
    rule: IntervalIndexRule
    u: Optional[np.ndarray] = None
    tau: float = 1.0
    floor: Optional[IntervalIndexRule] = None

    def upper_ranks(self, R: int) -> np.ndarray:
        """(R,) upper ranks; the lower rank is ``rule.lower_rank`` in every
        replicate."""
        if self.u is None:
            return np.full(R, self.rule.upper_rank)
        return np.where(self.u <= self.tau, self.rule.upper_rank, self.floor.upper_rank)

    def pick(self, r: int) -> tuple:
        """Replicate r's (rule, RandomizedBranch or None)."""
        if self.u is None:
            return self.rule, None
        u = float(self.u[r])
        took_ceil = u <= self.tau
        return (self.rule if took_ceil else self.floor), RandomizedBranch(u=u, tau=self.tau, took_ceil=took_ceil)


def _cell_rules(cells: Sequence[tuple], master_seed: int, firsts: list) -> list:
    """The :class:`_CellRules` of each (B, alpha, variant) CI cell over
    the R replicates whose first resample streams are ``firsts``.

    Every budget is checked first.  A randomized cell at budget B draws
    replicate r's uniform from stream firsts[r] + B; all those draws
    share one batched pass and have the bits of
    ``generator(...).random()``.  Each cell's rules and tau are resolved
    once, the floor rule of a randomized cell whether or not a replicate
    takes it.
    """
    if not cells:
        raise InvalidInput("cells must be nonempty")
    budgets = [BudgetSpec(B=B, alpha=alpha) for B, alpha, _ in cells]
    out = [_CellRules(budget, ci_rule(budget, variant)) for budget, (_, _, variant) in zip(budgets, cells)]
    drawn = [i for i, (_, _, variant) in enumerate(cells) if variant == "randomized"]
    if drawn:
        sids = [first + budgets[i].B for first in firsts for i in drawn]
        us = _stream_rows(master_seed, sids, 1, np.random.Generator.random).reshape(len(firsts), len(drawn))
        for i, u in zip(drawn, us.T):
            floor = index_rule(budgets[i], "mod_two_sided_floor")
            out[i] = _CellRules(budgets[i], out[i].rule, u, tau_randomization(budgets[i]), floor)
    return out


# largest gathered resample block handed to an estimator_batch call
_GATHER_BYTES = 256 * 1024


def _per_row(
    rows,
    fn,
    batch: Optional[Callable],
    shape: tuple,
    what: str,
    steps: Optional[np.ndarray] = None,
    step: Optional[int] = None,
) -> np.ndarray:
    """fn(row) for each row of the array ``rows``, as one float array of
    shape (len(rows),) + shape: the one loop behind ``estimator_batch``
    and ``statistic_batch``.

    With ``batch`` the values come from one call batch(rows[i : i +
    step]) per ``step`` rows (all of them when None); each must give
    exactly its rows' shape, or :class:`InvalidInput` names the hook
    (``what`` + "_batch").  If a call raises, the scalar loop runs
    instead, over every row; fn failing on row j (from 0) raises
    :class:`NumericalFailure` with step steps[j], or j + 1 when
    ``steps`` is None.
    """
    n = len(rows)
    out = np.empty((n,) + shape)
    step = step or n
    if batch is not None:
        for i in range(0, n, step):
            try:
                got = np.asarray(batch(rows[i : i + step]), dtype=float)
            except Exception:
                break
            want = out[i : i + step].shape
            if got.shape != want:
                raise InvalidInput(f"{what}_batch gave shape {got.shape}, expected {want}")
            out[i : i + step] = got
        else:
            return out
    for j, row in enumerate(rows):
        try:
            out[j] = fn(row)
        except Exception as exc:
            at = j + 1 if steps is None else int(steps[j])
            raise NumericalFailure(f"{what} failed on resample {at}: {exc}", step=at) from exc
    return out


@dataclass(frozen=True)
class _CiBlock:
    """The CI cells of R replicates, as :func:`_ci_block` leaves them.

    ``stats[B]`` is the :func:`~fixedb.orderstats._sorted_stack` of each
    replicate's first B roots, so rank r of replicate i is
    ``stats[B][i, r]`` for every rank 0 .. B + 1.  ``w_l`` and ``w_u``
    are the (R, cells) thresholds W_(l) and W_(u).
    """

    theta_hat: np.ndarray
    root: Optional[Callable]
    tau_m: float
    rules: list
    stats: dict
    w_l: np.ndarray
    w_u: np.ndarray

    @property
    def span(self) -> np.ndarray:
        """(R, cells) spans (W_(u) - W_(l)) / tau_m."""
        return (self.w_u - self.w_l) / self.tau_m

    def covers(self, theta) -> np.ndarray:
        """(R, cells): whether each replicate's set for each cell contains
        theta, bit for bit ``result(r, i).contains(theta)``."""
        if self.root is None:
            center = self.theta_hat[:, None]
            return (center - self.w_u / self.tau_m < theta) & (theta <= center - self.w_l / self.tau_m)
        diffs = self.tau_m * (self.theta_hat - np.asarray(theta, dtype=float))
        s = np.array([float(self.root(d)) for d in diffs])[:, None]
        return (self.w_l <= s) & (s < self.w_u)

    def result(self, r: int, i: int) -> CiResult:
        """Replicate r's CiResult for cell i."""
        cell = self.rules[i]
        rule, branch = cell.pick(r)
        B = cell.budget.B
        stats = SortedSample(self.stats[B][r, 1 : B + 1])
        w_l, w_u = float(self.w_l[r, i]), float(self.w_u[r, i])
        theta_hat, tau_m, root = self.theta_hat[r], self.tau_m, self.root
        interval = None
        if root is None:
            center = float(theta_hat)
            interval = Interval(lo=center - w_u / tau_m, hi=center - w_l / tau_m)
            contains = interval.contains
        else:

            def contains(theta) -> bool:
                s = float(root(tau_m * (theta_hat - np.asarray(theta, dtype=float))))
                return bool(w_l <= s < w_u)

        return CiResult(contains, rule, stats, cell.budget, (w_u - w_l) / tau_m, interval, branch)


def _ci_block(
    data: np.ndarray,
    estimator: Callable,
    cells: Sequence[tuple],
    root: Optional[Callable],
    tau_m: float,
    master_seed: int,
    firsts: list,
    estimator_batch: Optional[Callable] = None,
    k: Optional[int] = None,
    tau_k: float = 1.0,
) -> _CiBlock:
    """The bootstrap (``k`` None) or subsampling CI cells of R replicates
    in one pass: replicate r's sample is data[r] and its resamples come
    from streams firsts[r] + b.  :func:`ci_cells` is its R = 1 call, and
    replicate r's results are bit for bit that call's with
    ``seed=SeedSpec(master_seed, firsts[r])``.

    The rules and tau of every cell are resolved once, with every
    randomized-branch uniform in one pass (:func:`_cell_rules`).  The
    R x max(B) stream keys are derived in one pass.  The index rows are
    drawn a slab at a time, and each slab goes to :func:`_per_row` with
    callbacks that gather its resamples from the R samples, about
    _GATHER_BYTES at a time, and estimate them; so only the
    (R, max(B)) roots are kept.  A failing estimator names the
    resample's number within its replicate.  The roots are sorted once
    per distinct B, and each cell's thresholds are read off as one
    lookup.
    """
    tau_m = _check_real(tau_m, "tau_m", 0, strict=True)
    tau_k = _check_real(tau_k, "tau_k", 0, strict=True)
    rules = _cell_rules(cells, master_seed, firsts)
    R, m = data.shape[:2]
    theta_hat = np.stack([np.asarray(estimator(one), dtype=float) for one in data])
    shape = theta_hat.shape[1:]
    if root is None and shape != ():
        raise InvalidInput(f"an estimate of shape {shape} needs a root, not the scalar identity")
    count = max(cell.budget.B for cell in rules)
    if k is not None:
        _check_count(k, "k")
        if k > m:
            raise InvalidInput(f"need 1 <= k <= m, got k={k}, m={m}")
    keys = _stream_keys(master_seed, firsts, count)
    if k is None:
        n, rate = m, tau_m

        def draw(rows: slice) -> np.ndarray:
            return _bounded_from(keys[rows], m, m)

    else:
        n, rate = k, tau_k

        def draw(rows: slice) -> np.ndarray:
            return np.sort(_shuffled_from(keys[rows], m)[:, :k], axis=1)

    # resamples are gathered and estimated ``step`` rows (about
    # _GATHER_BYTES) at a time, from index rows (full permutations, for
    # subsamples) drawn a slab of whole steps (about _GATHER_BYTES, or one
    # step) at a time, neither past one replicate's max(B) rows
    flat = data.reshape((R * m,) + data.shape[2:])
    step = max(1, min(count, _GATHER_BYTES // max(1, n * flat[:1].nbytes)))
    slab = step * max(1, min(count, _GATHER_BYTES // (8 * m)) // step)
    batch = None if estimator_batch is None else lambda i: estimator_batch(flat[i])
    stars = np.empty((R * count,) + shape)
    for lo in range(0, R * count, slab):
        hi = min(lo + slab, R * count)
        rows = np.arange(lo, hi)
        picks = draw(slice(lo, hi)) + (rows // count * m)[:, None]  # indices into all R samples
        stars[lo:hi] = _per_row(picks, lambda i: estimator(flat[i]), batch, shape, "estimator", rows % count + 1, step)
    diffs = rate * (stars.reshape((R, count) + shape) - theta_hat[:, None])
    if root is None:
        ws = diffs
    else:
        ws = np.array([float(root(d)) for d in diffs.reshape((R * count,) + shape)]).reshape(R, count)
    bad = np.flatnonzero(~np.isfinite(ws))
    if bad.size:
        b = int(bad[0]) % count + 1
        raise NumericalFailure(f"non-finite resample root on resample {b}", step=b)
    stats = {B: _sorted_stack(ws[:, :B]) for B in sorted({cell.budget.B for cell in rules})}
    w_l, w_u = np.empty((R, len(rules))), np.empty((R, len(rules)))
    replicates = np.arange(R)
    for i, cell in enumerate(rules):
        w_l[:, i] = stats[cell.budget.B][:, cell.rule.lower_rank]
        w_u[:, i] = stats[cell.budget.B][replicates, cell.upper_ranks(R)]
    return _CiBlock(theta_hat, root, tau_m, rules, stats, w_l, w_u)


def ci_cells(
    data,
    estimator: Callable,
    cells: Sequence[tuple],
    root: Optional[Callable] = None,
    tau_m: float = 1.0,
    seed: SeedSpec = SeedSpec(0),
    estimator_batch: Optional[Callable] = None,
    k: Optional[int] = None,
    tau_k: float = 1.0,
) -> list:
    """One confidence set per (B, alpha, variant) cell, all from one
    set of resamples.

    ``k`` None resamples with replacement (the bootstrap, roots at rate
    ``tau_m``); an integer k draws size-k subsets without replacement
    (subsampling, roots at rate ``tau_k``).  The routine computes
    theta_hat once, draws max(B) index rows once and forms their roots
    once; cell (B, alpha, variant) then reads the first B roots under
    its own rank rule and randomized branch (stream seed.stream_id + B).
    Entry i of the result is bit for bit the :func:`ci_boot` (or
    :func:`ci_subsample`) call for cell i on the same arguments.  Both
    rates must be finite and > 0, and every cell's budget is checked
    before anything is drawn; a non-finite root on any of the max(B)
    resamples raises, naming the resample.  ``root`` None needs a scalar
    estimate.  This is the one-replicate call of the block kernel
    :func:`_ci_block` that the harness runs.
    """
    data = np.asarray(data)
    if data.ndim == 0 or len(data) < 1:
        raise InvalidInput(f"data must be a nonempty sequence of observations, got shape {data.shape}")
    block = _ci_block(
        data[None], estimator, cells, root, tau_m, seed.master_seed, [seed.stream_id], estimator_batch, k, tau_k
    )
    return [block.result(0, i) for i in range(len(cells))]


def ci_boot(
    data,
    estimator: Callable,
    root: Optional[Callable] = None,
    tau_m: float = 1.0,
    B: int = 19,
    alpha: float = 0.1,
    variant: str = "modified",
    seed: SeedSpec = SeedSpec(0),
    estimator_batch: Optional[Callable] = None,
) -> CiResult:
    """Bootstrap confidence set from B with-replacement resamples.

    The resample roots are W_b = root(tau_m (theta*_b - theta_hat))
    and membership is root(tau_m (theta_hat - theta)) in
    [W_(l), W_(u)) under the variant's rank rule.  ``root`` None means
    the scalar identity, which also populates ``interval``.

    ``estimator_batch`` is the opt-in counterpart of ``estimator``: it
    maps a gathered stack ``data[indices]`` of shape (b, m, ...) to the
    (b,) + theta_hat.shape stack of its rows' estimates, called on
    blocks of at most 256 KiB (one row when a row is larger).  Its row b
    must have the bits of ``estimator(data[idx_b])`` (``s.mean(axis=1)``
    does for ``np.mean``); then the result is bit for bit the one
    without it.  Its shape check, its scalar fallback and how failures
    are named are the contract of README's "Opt-in batch hooks".

    This is the one-cell call of :func:`ci_cells`.
    """
    (ci,) = ci_cells(
        data, estimator, [(B, alpha, variant)], root, tau_m, seed, estimator_batch=estimator_batch
    )
    return ci


def ci_subsample(
    data,
    estimator: Callable,
    root: Optional[Callable] = None,
    tau_m: float = 1.0,
    tau_k: float = 1.0,
    k: int = 1,
    B: int = 19,
    alpha: float = 0.1,
    variant: str = "modified",
    seed: SeedSpec = SeedSpec(0),
    estimator_batch: Optional[Callable] = None,
) -> CiResult:
    """Subsampling confidence set from B without-replacement size-k draws.

    Resample roots use the subsample rate: W_b =
    root(tau_k (theta*_{k,b} - theta_hat)); membership tests
    root(tau_m (theta_hat - theta)) in [W_(l), W_(u)).
    ``estimator_batch`` is as in :func:`ci_boot`, over (b, k, ...)
    stacks, with the same bit-equality promise.  This is the one-cell
    call of :func:`ci_cells` with ``k`` given.
    """
    (ci,) = ci_cells(
        data,
        estimator,
        [(B, alpha, variant)],
        root,
        tau_m,
        seed,
        estimator_batch=estimator_batch,
        k=k,
        tau_k=tau_k,
    )
    return ci


def sgd_cells(
    stream,
    spec: SgdSpec,
    cells: Sequence[tuple],
    seed: SeedSpec = SeedSpec(0),
    theta0=None,
    gradient_batch: Optional[Callable] = None,
) -> list:
    """Per-coordinate multiplier-SGD intervals of every (B, alpha,
    variant) cell, from one unweighted averaged path theta_bar and
    max(B) weighted paths theta_bar*_b over the same stream.

    Path b's weights (stream seed.stream_id + b - 1) are its only
    randomness.  A cell reads the first B paths and inverts per
    coordinate j: (2 theta_bar_j - W_(u), 2 theta_bar_j - W_(l)] with W
    the sorted b-th coordinates, under its own rank rule.  Entry i is
    cell i's list of CiResults, bit for bit its own :func:`ci_sgd`
    call.  Budgets are checked before any path runs.
    """
    rules = _cell_rules(cells, seed.master_seed, [seed.stream_id])
    if theta0 is None:
        theta0 = np.zeros(spec.dim)
    count = max(cell.budget.B for cell in rules)
    seeds = [None] + [_child(seed, b - 1) for b in range(1, count + 1)]
    paths = sgd_paths(spec, stream, theta0, seeds, gradient_batch=gradient_batch)
    return [
        [_sgd_ci(paths[0, j], paths[1 : cell.budget.B + 1, j], cell.budget, *cell.pick(0)) for j in range(spec.dim)]
        for cell in rules
    ]


def _sgd_ci(theta_bar, stars, budget, rule, branch) -> CiResult:
    """One coordinate's (2 theta_bar - W_(u), 2 theta_bar - W_(l)]."""
    stats = sorted_from(stars)
    w_l = order_stat(stats, rule.lower_rank)
    w_u = order_stat(stats, rule.upper_rank)
    interval = Interval(lo=2.0 * theta_bar - w_u, hi=2.0 * theta_bar - w_l)
    return CiResult(interval.contains, rule, stats, budget, interval.width, interval, branch)


def ci_sgd(
    stream,
    spec: SgdSpec,
    B: int = 19,
    alpha: float = 0.1,
    variant: str = "modified",
    seed: SeedSpec = SeedSpec(0),
    theta0=None,
    gradient_batch: Optional[Callable] = None,
) -> list:
    """Per-coordinate confidence intervals from one unweighted and B
    weighted multiplier-SGD paths; one CiResult per coordinate.

    This is the one-cell call of :func:`sgd_cells`.
    """
    (cis,) = sgd_cells(stream, spec, [(B, alpha, variant)], seed, theta0, gradient_batch)
    return cis


@dataclass(frozen=True)
class DecisionBlock:
    """R resampling tests at one budget: test i rejects iff
    statistic[i] >= threshold[i], and ties when they are equal."""

    rule: IntervalIndexRule
    budget: BudgetSpec
    statistic: np.ndarray
    threshold: np.ndarray

    @property
    def reject(self) -> np.ndarray:
        return self.statistic >= self.threshold

    @property
    def tie(self) -> np.ndarray:
        return self.statistic == self.threshold

    def decision(self, i: int) -> TestDecision:
        """Test i as a :class:`TestDecision`."""
        return TestDecision(
            reject=bool(self.reject[i]),
            statistic=float(self.statistic[i]),
            threshold=float(self.threshold[i]),
            rule=self.rule,
            budget=self.budget,
            tie=bool(self.tie[i]),
        )


def _finite(stats: np.ndarray) -> np.ndarray:
    """stats, or :class:`InvalidInput` unless every entry is finite."""
    if not np.all(np.isfinite(stats)):
        raise InvalidInput("observed and resampled test statistics must all be finite")
    return stats


class _RankTests:
    """R sign-flip, permutation or explicit-transform tests at the
    (B, alpha) of each of ``cells``, checked before anything is drawn:
    the part that :func:`rank_test_block` and :func:`_curtailed_rejects`
    share.  The other arguments are theirs; ``B`` is the largest budget.
    An empty block, or a transform list that is empty or holds anything
    but callables, raises :class:`InvalidInput`."""

    def __init__(self, data, statistic, group, cells, master_seed, first_streams, statistic_batch) -> None:
        self.budgets = [BudgetSpec(B=B, alpha=alpha) for B, alpha, *_ in cells]
        self.B = max(budget.B for budget in self.budgets)
        self.firsts = [SeedSpec(master_seed, sid).stream_id for sid in first_streams]
        if len(self.firsts) != len(data):
            raise InvalidInput(f"{len(data)} samples but {len(self.firsts)} first streams")
        if not self.firsts:
            raise InvalidInput("a test block needs at least one sample")
        if isinstance(group, str) and group != "signflip" or not isinstance(group, (PermutationGroup, Iterable)):
            raise InvalidInput(f"group must be 'signflip', a PermutationGroup or a transform list, got {group!r}")
        self.rules = [test_rule(budget, group) for budget in self.budgets]
        if isinstance(group, str):
            data = _check_vector(data, "data (one 1-d sample per row)", ndim=2)
        elif not isinstance(group, PermutationGroup):
            group = list(group)
            if not group:
                raise InvalidInput("explicit transform list must be nonempty")
            for i, transform in enumerate(group):
                if not callable(transform):
                    raise InvalidInput(f"transform {i} of the list is not callable: {transform!r}")
        self.data, self.statistic, self.group = data, statistic, group
        self.master_seed, self.statistic_batch = master_seed, statistic_batch

    def observed(self) -> np.ndarray:
        """The (R,) observed statistics (a permutation statistic at the
        identity), scored as the resamples are: one ``statistic_batch``
        call on the (R, m) stack of samples or of identity permutations
        (none for a transform list), or the scalar loop if it raises.  A
        statistic that raises here raises its own error, as without a
        hook; :class:`InvalidInput` unless all are finite."""
        R, group = len(self.data), self.group
        try:
            if isinstance(group, PermutationGroup):
                return _finite(self._permuted(np.arange(R), np.broadcast_to(np.arange(group.m), (R, group.m)), None))
            batch = self.statistic_batch if isinstance(group, str) else None
            return _finite(_per_row(self.data, self.statistic, batch, (), "statistic"))
        except NumericalFailure as exc:
            raise exc.__cause__

    def _permuted(self, tests, perms, steps) -> np.ndarray:
        """statistic(data[tests[j]], perms[j]) for every row j of the
        (rows, m) stack ``perms``, from one row-aligned
        ``statistic_batch`` call, through :func:`_per_row`."""
        data, statistic, batch = self.data, self.statistic, self.statistic_batch
        return _per_row(
            np.arange(len(perms)),
            lambda j: statistic(data[tests[j]], perms[j]),
            None if batch is None else lambda js: batch(data, tests[js], perms[js]),
            (),
            "statistic",
            steps,
        )

    def draws(self, rows: np.ndarray, lo: int, n: int) -> np.ndarray:
        """The (len(rows), n) statistics of resamples lo .. lo + n - 1 of
        the tests whose indices are the int array ``rows``: resample b of test i comes from stream
        firsts[i] + b, whatever the other arguments.  The draw-and-score
        kernel of every test.

        The len(rows) x n stream keys are derived in one pass, and the
        resamples are drawn from them and scored test-major, row j * n + b
        for resample lo + b of test rows[j].  Sign flips draw all coin
        rows at once and call ``statistic_batch`` once on the stack of
        flipped samples.  Permutations are rows of one stack, each
        shuffled in place by its stream (or picked from an explicit list
        in one draw), and the row-aligned ``statistic_batch`` scores them
        all in one call, each with its own test's data.  A transform list
        draws all list indices at once and calls ``statistic`` once per
        transformed sample, never ``statistic_batch``.  A statistic that
        raises on resample b (from 1) of test i (from 0) in the scalar
        loop raises :class:`NumericalFailure` with step i * B + b, B the
        largest budget, as in :func:`rank_test_block`; a non-finite one
        raises :class:`InvalidInput`.
        """
        keys = _stream_keys(self.master_seed, [self.firsts[i] + lo for i in rows], n)
        steps = (rows[:, None] * self.B + lo + np.arange(1, n + 1)).reshape(-1)
        data, statistic, group = self.data, self.statistic, self.group
        tests = np.repeat(rows, n)
        if isinstance(group, str):
            xs = data[rows]
            m = xs.shape[1]
            signs = 1 - 2 * _bounded_from(keys, 2, m)
            flipped = (xs[:, None, :] * signs.reshape(len(rows), n, m)).reshape(-1, m)
            t_star = _per_row(flipped, statistic, self.statistic_batch, (), "statistic", steps)
        elif isinstance(group, PermutationGroup):
            if group.perms is None:
                perms = _shuffled_from(keys, group.m)
            else:
                perms = np.asarray(group.perms, dtype=np.int64)[_bounded_from(keys, len(group.perms), 1)[:, 0]]
            t_star = self._permuted(tests, perms, steps)
        else:
            # pick b of test i has the bits of generator(stream).integers(0, len(group))
            picks = _bounded_from(keys, len(group), 1)[:, 0]
            t_star = _per_row(
                np.arange(len(picks)), lambda j: statistic(group[picks[j]](data[tests[j]])), None, (), "statistic", steps
            )
        return _finite(t_star.reshape(len(rows), n))


def _decide(
    t_obs, t_star: np.ndarray, rule: IntervalIndexRule, budget: BudgetSpec
) -> DecisionBlock:
    """Test i rejects iff t_obs[i] >= the rule's order statistic of row i
    of the (R, B) stack t_star, read off :func:`_sorted_stack` (+inf for
    a rank beyond B).  The statistics must be finite."""
    return DecisionBlock(rule, budget, np.asarray(t_obs, dtype=float), _sorted_stack(t_star)[:, rule.upper_rank])


def _count_rule(le: np.ndarray, gt: np.ndarray, B, k) -> tuple:
    """The (reject, settled) arrays of fixed-B rank tests at threshold
    rank k, from counts of their drawn statistics: ``le`` of them at or
    below the observed statistic T and ``gt`` above it.  B and k may be
    (cells,) arrays against (R, cells) counts.

    T >= W_(k) iff #{T*_b <= T} >= k, so a test rejects once le >= k
    and accepts once gt > B - k; ties count toward rejection, as in
    :func:`_decide`.  Once all B are drawn every test is settled and
    ``reject`` is :func:`_decide`'s, for every k in 0 .. B + 1.
    """
    reject = le >= k
    return reject, reject | (gt > B - k)


def rank_test_block(
    data,
    statistic: Callable,
    group: Union[str, PermutationGroup, Sequence[Callable]],
    B: int,
    alpha: float,
    master_seed: int,
    first_streams,
    statistic_batch: Optional[Callable] = None,
) -> DecisionBlock:
    """R sign-flip, permutation or explicit-transform tests at one
    (B, alpha), in one pass.

    Test i runs on ``data[i]`` with its B resamples from streams
    ``first_streams[i] + b`` under ``master_seed``, and is bit for bit
    the one-replicate call with ``seed=SeedSpec(master_seed,
    first_streams[i])``: :func:`randomization_test` (centre 0) when
    ``group`` is "signflip" or a sequence of transforms,
    :func:`permutation_test` when it is a
    :class:`~fixedb.resampling.PermutationGroup`.  Those calls are the
    R = 1 case of this one.  ``statistic`` is as in those functions, and
    so is a sign-flip ``statistic_batch``; any other group, an empty
    block or a transform that is not callable raises
    :class:`InvalidInput`.

    A permutation ``statistic_batch`` is row-aligned across the tests:
    statistic_batch(data, tests, perms) gives statistic(data[tests[j]],
    perms[j]) for every row j of the (rows, m) int array perms.  It is
    called once on the (R, m) identity permutations for the observed
    statistics and once on the test-major (R * B, m) stack of drawn
    permutations, row i * B + b for resample b + 1 of test i.

    The observed statistics come first, then all R x B resampled ones
    from one call of the draw-and-score kernel (``_RankTests.draws``),
    which are sorted once.  A non-finite observed or resampled statistic
    raises :class:`InvalidInput`.  A statistic that raises on resample b
    (from 1) of test i (from 0) in the scalar loop raises
    :class:`NumericalFailure` with step i * B + b.
    """
    tests = _RankTests(data, statistic, group, [(B, alpha)], master_seed, first_streams, statistic_batch)
    t_obs = tests.observed()
    t_star = tests.draws(np.arange(len(t_obs)), 0, tests.B)
    return _decide(t_obs, t_star, tests.rules[0], tests.budgets[0])


def _curtailed_rejects(
    data,
    statistic: Callable,
    group: Union[str, PermutationGroup, Sequence[Callable]],
    cells: Sequence[tuple],
    master_seed: int,
    first_streams,
    statistic_batch: Optional[Callable] = None,
) -> np.ndarray:
    """The (R, cells) rejects of R tests at each (B, alpha, ...) cell:
    column i is bit for bit ``rank_test_block(...).reject`` at cell i's
    (B, alpha), drawing each test's resamples only until every cell's
    decision is fixed (Besag and Clifford's sequential Monte Carlo test,
    exact here because every resample has its own stream).  The
    harness's test kernel.  The arguments are :func:`rank_test_block`'s;
    its row-aligned permutation ``statistic_batch`` is called once per
    round on the test-major stack of all the open tests' permutations,
    and once at the identity for the observed statistics.

    Every cell is checked and the observed statistics computed once.
    Resamples are drawn by the kernel ``_RankTests.draws`` in rounds
    shared by the cells, each for the tests with a cell still open; a
    cell counts only its resamples below its own B, and
    :func:`_count_rule` decides every cell.  The first round draws
    min(B - k + 1) over the open cells (k the threshold rank), the
    fewest that can settle an accept, and each later one as many as all
    rounds before it, up to the largest B of an open cell; so the draws
    so far double each round and no stream is drawn twice.  A cell with
    k > B, which never rejects, is settled before any draw.

    Failures are those of :func:`rank_test_block` on the resamples that
    are drawn, raised at the first in round order (a raising statistic
    as :class:`NumericalFailure` with step i * max(B) + b, a non-finite
    one as :class:`InvalidInput`).  Resamples past every cell's decision
    are never drawn, so their failures cannot surface.
    """
    tests = _RankTests(data, statistic, group, cells, master_seed, first_streams, statistic_batch)
    t_obs = tests.observed()
    B = np.array([budget.B for budget in tests.budgets])
    k = np.array([rule.upper_rank for rule in tests.rules])
    le = np.zeros((len(t_obs), len(B)), dtype=np.int64)
    gt = np.zeros_like(le)
    reject, settled = _count_rule(le, gt, B, k)
    lo = 0
    while not settled.all():
        rows, cols = np.flatnonzero(~settled.all(axis=1)), ~settled.all(axis=0)
        n = int(min(lo or (B - k + 1)[cols].min(), B[cols].max() - lo))
        counted = np.arange(lo, lo + n)[:, None] < B  # (n, cells): which of the round's draws each cell reads
        below = np.matmul(tests.draws(rows, lo, n) <= t_obs[rows, None], counted, dtype=np.int64)
        le[rows] += below
        gt[rows] += counted.sum(axis=0) - below
        reject, settled = _count_rule(le, gt, B, k)
        lo += n
    return reject


def permutation_test(
    data,
    statistic: Callable,
    G: PermutationGroup,
    B: int,
    alpha: float,
    seed: SeedSpec = SeedSpec(0),
    statistic_batch: Optional[Callable] = None,
) -> TestDecision:
    """Fixed-budget permutation test, drawing with replacement from G.

    ``statistic`` is called as statistic(data, perm); the observed
    value uses the identity permutation.  The threshold rank is
    ceil(B(1-alpha)) + 2 when B equals |G| and
    ceil((B+1)(1-alpha)) + 1 otherwise; a rank beyond B yields the
    +inf sentinel and the test never rejects.

    ``statistic_batch`` is the opt-in counterpart of ``statistic``:
    called as statistic_batch(data, perms) on the (B, m) stack of drawn
    permutations, it returns the B statistics.  Its entry b must have
    the bits of statistic(data, perms[b]); then the decision is bit for
    bit the one without it.  Its (B,) shape check, its scalar fallback
    and how failures are named are the contract of README's "Opt-in
    batch hooks".

    This is the one-replicate call of :func:`rank_test_block`, whose
    row-aligned hook is this one on the call's one test.
    """
    _check_type(G, "G", PermutationGroup)
    rows = None if statistic_batch is None else lambda one, tests, perms: statistic_batch(one[0], perms)
    block = rank_test_block([data], statistic, G, B, alpha, seed.master_seed, [seed.stream_id], rows)
    return block.decision(0)


def randomization_test(
    data,
    statistic: Callable,
    group: Union[str, Sequence[Callable]] = "signflip",
    B: int = 19,
    alpha: float = 0.1,
    center: float = 0.0,
    seed: SeedSpec = SeedSpec(0),
    statistic_batch: Optional[Callable] = None,
) -> TestDecision:
    """Randomization test from B uniformly drawn transforms.

    ``group`` is "signflip" (IID sign flips of the centered data) or an
    explicit nonempty sequence of callables data -> data; any other
    string, or an entry that is not callable, raises
    :class:`InvalidInput`.  ``center`` is subtracted from the
    data first, so a point null about the mean becomes symmetry about
    zero.  Threshold rank is ceil((B+1)(1-alpha)); reject iff
    statistic(data) >= threshold.

    ``statistic_batch`` maps the (B, m) stack of sign-flipped samples to
    their B statistics, with the contract of README's "Opt-in batch
    hooks", as in :func:`permutation_test`.  The explicit-transform test
    does not use it.  Both are one-replicate calls of
    :func:`rank_test_block`.
    """
    x = _check_vector(data, "data") - center
    block = rank_test_block(
        x[None], statistic, group, B, alpha, seed.master_seed, [seed.stream_id], statistic_batch
    )
    return block.decision(0)


def conformal_set(calib_scores, alpha: float, variant: str = "split") -> PredictionSet:
    """Conformal prediction set from m calibration scores.

    "split" thresholds at rank ceil((m+1)(1-alpha)) with a +inf
    sentinel when the rank exceeds m; "modified" uses the
    budget-corrected rank m + 1 - floor(2 m alpha / 3).
    """
    scores = _check_vector(calib_scores, "calib_scores")
    _check_choice(variant, "variant", ("split", "modified"))
    budget = BudgetSpec(B=scores.size, alpha=alpha)
    name = "conformal_split" if variant == "split" else "conformal_mod"
    rule = index_rule(budget, name)
    stats = sorted_from(scores)
    threshold = order_stat(stats, rule.upper_rank)
    return PredictionSet(threshold=threshold, rule=rule, calibration=stats)
