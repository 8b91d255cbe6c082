"""Exact oracle: slacks, coverages, and the sweep suites."""

import dataclasses
import hashlib
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixedb import bounds, cli, discrete, distances, oracle, orderstats
from fixedb.distances import FinitePmf, ks_uniform, mod_ks_uniform
from fixedb.errors import BudgetTooSmall, InvalidIndices, InvalidInput
from fixedb.oracle import (
    CondIIDInstance,
    CondIndepInstance,
    bracket_suite,
    check_cond_iid,
    check_cond_indep,
    check_dependent,
    conformal_grid_example,
    conformal_grid_sweep,
    dist_to_uniform,
    ehm_hoeffding_sweep,
    exact_coverage_continuous_iid,
    exact_coverage_discrete,
    iid_slacks,
    indep_slacks,
    random_cond_iid,
    random_cond_indep,
    random_joint,
)


class TestDistToUniform:
    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=12, unique=True))
    def test_matches_empirical_metrics_on_uniform_weights(self, vals):
        # a discrete law with equal weights has the same jump structure
        # as the empirical CDF of the same points
        probs = np.full(len(vals), 1.0 / len(vals))
        ks, mod = dist_to_uniform(np.array(vals), probs)
        assert ks == pytest.approx(ks_uniform(vals).value, abs=1e-12)
        assert mod == pytest.approx(mod_ks_uniform(vals).value, abs=1e-12)

    def test_point_mass(self):
        ks, mod = dist_to_uniform(np.array([0.5]), np.array([1.0]))
        assert ks == 0.5
        assert mod == 1.0

    @pytest.mark.parametrize(
        "vals, probs",
        [([0.5, math.nan], [0.5, 0.5]), ([0.2, 0.7], [math.nan, 1.0]), ([0.2], [math.nan])],
    )
    def test_nan_raises(self, vals, probs):
        with pytest.raises(InvalidInput):
            dist_to_uniform(np.array(vals), np.array(probs))

    def test_degenerate_uniform_limit(self):
        # many equally spaced mid-grid atoms approach the uniform
        n = 1000
        vals = (np.arange(1, n + 1) - 0.5) / n
        ks, mod = dist_to_uniform(vals, np.full(n, 1.0 / n))
        assert ks == pytest.approx(1 / (2 * n), abs=1e-12)
        assert mod == pytest.approx(1 / n, abs=1e-12)


class TestExactCoverageDiscrete:
    def joint_uniform_ranks(self):
        # W = three of {1,2,3,4}, psi the remaining one, all placements
        # equally likely
        support = []
        for psi_rank in range(4):
            vals = [1.0, 2.0, 3.0, 4.0]
            psi = vals.pop(psi_rank)
            support.append((vals[0], vals[1], vals[2], psi))
        return FinitePmf(support, np.full(4, 0.25))

    def test_exchangeable_surrogate_quarter(self):
        # direct enumeration: only psi = 2 lands in [W_(1), W_(2)]
        joint = self.joint_uniform_ranks()
        for kind in ("closed", "left_closed_right_open", "left_open_right_closed"):
            assert exact_coverage_discrete(joint, 1, 1, kind) == pytest.approx(0.25)

    def test_iid_atoms_hand_count(self):
        # B = 2 IID uniform on {1,2,3}, psi = 2:
        # [W_(1), W_(2)] misses only (1,1) and (3,3) -> 7/9
        support = [(float(i), float(j), 2.0) for i in (1, 2, 3) for j in (1, 2, 3)]
        joint = FinitePmf(support, np.full(9, 1.0 / 9))
        assert exact_coverage_discrete(joint, 1, 0, "closed") == pytest.approx(7 / 9)
        # [W_(1), W_(2)) holds 2 iff exactly one W_i <= 2:
        # {(1,3),(3,1),(2,3),(3,2)} -> 4/9
        assert exact_coverage_discrete(joint, 1, 0, "left_closed_right_open") == pytest.approx(4 / 9)

    def test_one_sided(self):
        support = [(float(i), 1.5) for i in (1, 2)]
        joint = FinitePmf(support, np.array([0.5, 0.5]))
        # psi < W_(1) only when W = 2: coverage of (-inf, W_(1)] ... the
        # one-sided set {psi < W_(B-b)} with b = 0 keeps W = 2 only
        assert exact_coverage_discrete(joint, 0, 0, "one_sided_upper") == pytest.approx(0.5)

    def test_invalid_indices(self):
        joint = self.joint_uniform_ranks()
        with pytest.raises(InvalidIndices):
            exact_coverage_discrete(joint, 3, 1, "closed")

    def test_nan_target_is_rejected(self):
        # a NaN psi used to cover itself: coverage 1.0
        with pytest.raises(InvalidInput):
            exact_coverage_discrete(FinitePmf([(1.0, np.nan)], [1.0]), 0, 0, "closed")


class TestExactCoverageContinuous:
    def test_frozen_values(self):
        assert exact_coverage_continuous_iid(19, 1, 1, "closed") == Fraction(18, 20)
        assert exact_coverage_continuous_iid(19, 1, 1, "left_closed_right_open") == Fraction(17, 20)
        assert exact_coverage_continuous_iid(19, 1, 1, "left_open_right_closed") == Fraction(17, 20)
        assert exact_coverage_continuous_iid(39, 2, 2, "left_closed_right_open") == Fraction(35, 40)
        assert exact_coverage_continuous_iid(99, 5, 4, "left_closed_right_open") == Fraction(9, 10)

    def test_closed_requires_positive_a(self):
        with pytest.raises((InvalidInput, InvalidIndices)):
            exact_coverage_continuous_iid(19, 0, 1, "closed")

    @pytest.mark.parametrize("B", [19.0, 2.5, True, 0, "19"])
    def test_budget_must_be_an_integer(self, B):
        with pytest.raises(InvalidInput, match="B must be an integer >= 1"):
            exact_coverage_continuous_iid(B, 1, 1, "closed")
        assert exact_coverage_continuous_iid(np.int64(19), 1, 1, "closed") == Fraction(18, 20)

    @given(
        st.integers(1, 40),
        st.integers(0, 5),
        st.integers(0, 5),
    )
    def test_half_open_matches_rank_count(self, B, a, b):
        if a + b >= B:
            return
        val = exact_coverage_continuous_iid(B, a, b, "left_closed_right_open")
        assert val == Fraction(B - a - b, B + 1)


class TestInstanceChecks:
    def test_iid_slacks_bound_membership(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            inst = random_cond_iid(rng)
            delta, delta_tilde = iid_slacks(inst)
            assert 0.0 <= delta <= 1.0 and 0.0 <= delta_tilde <= 1.0
            n, viol = check_cond_iid(inst, B=3)
            assert viol == []
            assert n > 0

    @pytest.mark.parametrize("B", [0, -1])
    def test_cond_iid_needs_a_budget(self, B):
        inst = random_cond_iid(np.random.default_rng(2))
        with pytest.raises(InvalidInput):
            check_cond_iid(inst, B)

    def test_indep_slacks_and_bracket(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            inst = random_cond_indep(rng)
            d_ks, d_tilde, kappas = indep_slacks(inst)
            assert len(kappas) == inst.b
            assert all(0.0 <= k <= 1.0 for k in kappas)
            n, viol = check_cond_indep(inst)
            assert viol == []

    def test_dependent_check(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            joint = random_joint(rng)
            n, viol = check_dependent(joint)
            assert viol == []

    def test_bracket_suite(self):
        rep = bracket_suite(n_instances=45, seed=1)
        assert rep.passed
        assert rep.violations == ()
        assert rep.n_checked > 100

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "1", None])
    def test_bracket_suite_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidInput, match="seed must be an integer >= 0"):
            bracket_suite(n_instances=3, seed=seed)

    def test_bracket_suite_takes_numpy_and_zero_seeds(self):
        assert bracket_suite(n_instances=3, seed=np.int64(7)) == bracket_suite(n_instances=3, seed=7)
        assert bracket_suite(n_instances=3, seed=0).passed

    def test_default_bracket_suite_is_pinned(self):
        # the first PASS line of `fixedb verify`
        rep = bracket_suite()
        assert (rep.n_checked, rep.violations) == (3674, ())

    def test_bracket_suite_slacks_round_off(self):
        # seed 2 draws an instance whose kappas and d_tilde come out as
        # 1 + 2**-52 unless they are clamped to [0, 1]
        rep = bracket_suite(n_instances=90, seed=2)
        assert rep.violations == ()

    def test_closed_bracket_at_a_zero_prices_strict_ties(self):
        # seed 35 draws a cond_iid instance (B=6) whose closed [W_(0), W_(1)]
        # covers 0.7791, above base + 1/(B+1) + delta = 0.7755
        rep = bracket_suite(n_instances=210, seed=35)
        assert rep.violations == ()

    def test_closed_bracket_under_heavy_ties(self):
        # W ties psi with probability F(Z), spread over (0, 1), and never
        # falls below it: F~ = 0, so every closed upper end needs delta_tilde
        n = 5
        inst = CondIIDInstance(
            z_probs=(1 / n,) * n,
            psi_vals=(1.0,) * n,
            w_atoms=(1.0, 2.0),
            w_cond=tuple(((j + 0.5) / n, 1 - (j + 0.5) / n) for j in range(n)),
        )
        assert iid_slacks(inst) == pytest.approx((0.2, 1.0))
        n_checked, viol = check_cond_iid(inst, 6)
        assert n_checked == 63 and viol == []

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_checks_compare_with_the_public_brackets(self, monkeypatch, seed):
        # the checks evaluate the bracket kernels on arrays: each check must
        # still see the public functions' bracket; with every check failing,
        # each one's coverage and bracket ends are in its violation
        monkeypatch.setattr(oracle, "_TOL", -math.inf)
        draws = _public_draws(1500, seed)[0]
        checks = (check_cond_iid, check_cond_indep, check_dependent)
        results = [checks[i % 3](*args) for i, args in enumerate(draws)]
        assert _scalar_checks(draws) == results
        assert sum(len(vs) for _, vs in results) == sum(n for n, _ in results)


class _Tally:
    """The checks of one instance, counted and recorded as the batched
    checks do: a count and the violations."""

    def __init__(self) -> None:
        self.n = 0
        self.violations: list = []

    def check(self, head: dict, cov: float, lower: float, upper=None, **tail) -> None:
        """Count one check of lower - _TOL <= cov (<= upper + _TOL); record
        a violation as head's keys, coverage, lower, upper, tail's keys."""
        self.n += 1
        if cov < lower - oracle._TOL or (upper is not None and cov > upper + oracle._TOL):
            ends = {"lower": lower} if upper is None else {"lower": lower, "upper": upper}
            self.violations.append({**head, "coverage": cov, **ends, **tail})

    @property
    def result(self) -> tuple:
        return self.n, self.violations


def _pair_matrix(inst, w: np.ndarray) -> np.ndarray:
    """Mass matrix of (n_lt, n_le) for one conditional instance whose
    W_1..W_B given Z = z_j are independent with the pmf rows ``w[:, j]``
    of a (B, |Z|, atoms) stack (the IID family broadcasts its rows)."""
    z_probs, psi, atoms, _ = oracle._fields(inst)
    masses = (oracle._masses(w, atoms, psi, rel) for rel in (np.less, np.equal, np.greater))
    return oracle._fold(z_probs, *masses)


def _public_draws(n: int, seed: int) -> tuple:
    """bracket_suite's instances drawn by the public ``random_*`` as the
    arguments of their public checks, in instance order, and the rng
    the draws leave behind."""
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(n):
        if i % 3 == 0:
            B = int(rng.integers(1, 7))
            draws.append((random_cond_iid(rng), B))
        elif i % 3 == 1:
            draws.append((random_cond_indep(rng),))
        else:
            draws.append((random_joint(rng),))
    return draws, rng


def _stacked(draws: list) -> tuple:
    """The (IID, independent, joint) stacks of public draws, each family's
    built by oracle's stacker from its instances' arrays."""
    iid = [(B, *oracle._fields(inst)) for inst, B in draws[0::3]]
    indep = [(inst.b, *oracle._fields(inst)) for inst, in draws[1::3]]
    joints = [(np.asarray(joint.support, dtype=float), joint.probs) for joint, in draws[2::3]]
    return (
        oracle._cond_stack(iid) if iid else None,
        oracle._cond_stack(indep) if indep else None,
        oracle._joint_stack(joints) if joints else None,
    )


def _scalar_checks(draws):
    """(n_checked, violations) of each drawn instance by the scalar
    reference of its family's check: a loop over the public brackets."""
    checks = (_public_check_cond_iid, _public_check_cond_indep, _public_check_dependent)
    return [checks[i % 3](*args) for i, args in enumerate(draws)]


class TestBatchedChecks:
    """bracket_suite checks each family's instances in one padded pass;
    instance by instance it must give the counts and violations of the
    scalar reference, a loop over the public brackets, in its order and
    with its bits."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 210])
    @pytest.mark.parametrize("seed", [0, 2, 4177, 20260823])
    def test_equal_the_scalar_checks(self, seed, n):
        want = _scalar_checks(_public_draws(n, seed)[0])
        assert oracle._batched_checks(oracle._draw_instances(n, seed)) == want
        report = bracket_suite(n_instances=n, seed=seed)
        assert report.n_checked == sum(c for c, _ in want)
        assert report.violations == tuple(v for _, vs in want for v in vs)

    @staticmethod
    def _zero_slacks(monkeypatch):
        def zero(values, probs):
            return np.zeros(len(values)), np.zeros(len(values))

        for mod in (oracle, distances):
            monkeypatch.setattr(mod, "_dists_to_uniform", zero)

    @staticmethod
    def _rank_off(monkeypatch):
        read, reads = oracle._read_coverage, oracle._read_coverages
        monkeypatch.setattr(oracle, "_read_coverage", lambda C, a, b, kind: read(C, a, b + 1, kind))
        monkeypatch.setattr(oracle, "_read_coverages", lambda C, o, B, a, b, kind: reads(C, o, B, a, b + 1, kind))

    @staticmethod
    def _every_check_fails(monkeypatch):
        # every check a violation, so every coverage and bracket end is compared
        monkeypatch.setattr(oracle, "_TOL", -math.inf)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("seed", [0, 2, 4177, 20260823])
    @pytest.mark.parametrize("mutant", ["_zero_slacks", "_rank_off", "_every_check_fails"])
    def test_mutants_fail_the_same_checks(self, monkeypatch, mutant, seed):
        getattr(self, mutant)(monkeypatch)
        want = _scalar_checks(_public_draws(210, seed)[0])
        assert oracle._batched_checks(oracle._draw_instances(210, seed)) == want
        assert any(vs for _, vs in want)
        if mutant == "_every_check_fails":
            assert sum(len(vs) for _, vs in want) == sum(n for n, _ in want)
            assert {v["family"] for _, vs in want for v in vs} == {"cond_iid", "cond_indep", "ordering", "dependent"}

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_violations_keep_python_types(self, monkeypatch):
        # `fixedb verify` prints violations with repr, so a NumPy scalar would show
        self._every_check_fails(monkeypatch)
        batched = oracle._batched_checks(oracle._draw_instances(3, 5))
        for (_, got), (_, want) in zip(batched, _scalar_checks(_public_draws(3, 5)[0])):
            assert [[type(x) for x in v.values()] for v in got] == [[type(x) for x in v.values()] for v in want]
            assert repr(got) == repr(want)


def _same_bits(got, want) -> bool:
    """Two stacks of one family (or two Nones) with equal fields, dtype,
    shape and bytes, NaN pads included."""
    if got is None or want is None:
        return got is want
    return type(got) is type(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want)
    )


class TestDrawStacks:
    """_draw_instances draws each family straight into the arrays its
    batch reads, by the draws the public ``random_*`` wrap, and validates
    each family's stack once, as strictly as the classes check one
    instance."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 210, 1500])
    @pytest.mark.parametrize("seed", [0, 2, 4177, 20260823])
    def test_stacks_are_the_public_draws(self, monkeypatch, seed, n):
        made = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
        stacks = oracle._draw_instances(n, seed)
        monkeypatch.undo()
        draws, rng = _public_draws(n, seed)
        assert all(_same_bits(got, want) for got, want in zip(stacks, _stacked(draws)))
        assert [stack is None for stack in stacks] == [n <= fam for fam in range(3)]
        # the draws leave the rng where the public draws leave it
        assert made[0].bit_generator.state == rng.bit_generator.state

    @staticmethod
    def _small_stacks():
        # 10 instances of each family; every family has instances with 2 or more atoms
        return oracle._draw_instances(30, 2)

    @staticmethod
    def _edit(stack, field: str, edit):
        """``stack`` with ``field`` replaced by an edited copy."""
        arr = getattr(stack, field).copy()
        out = edit(arr)
        return stack._replace(**{field: arr if out is None else out})

    def test_drawn_stacks_pass(self):
        iid, indep, joints = self._small_stacks()
        for stack in (iid, indep):
            oracle._check_cond_stack(stack)
        oracle._check_joint_stack(joints)

    @staticmethod
    def _shift(arr, at, by, keep):
        """arr[at] moved by ``by``, arr[keep] by ``-by``, so a sum stays."""
        arr[at] += by
        arr[keep] -= by

    @pytest.mark.parametrize("family", [0, 1], ids=["iid", "indep"])
    @pytest.mark.parametrize(
        "field, edit, match",
        [
            ("z_probs", lambda a: a.__setitem__((0, 0), np.nan), "z_probs must hold finite reals"),
            ("psi", lambda a: a.__setitem__((1, 0), np.inf), "psi_vals must hold finite reals"),
            ("atoms", lambda a: a.__setitem__((2, 0), np.nan), "w_atoms must hold finite reals"),
            ("w", lambda a: a.__setitem__((3, 0, 0, 0), -np.inf), "w_cond rows must hold finite reals"),
            ("z_probs", "below_z", r"z_probs must hold finite reals in \[-1e-12"),
            ("w", "below_w", r"w_cond rows must hold finite reals in \[-1e-12"),
            ("z_probs", lambda a: a.__setitem__((4, 0), a[4, 0] + 2e-9), "z_probs must sum to 1 within 1e-9"),
            ("w", lambda a: a.__setitem__((5, 0, 0, 0), a[5, 0, 0, 0] + 2e-9), "w_cond rows must sum to 1"),
            ("psi", lambda a: a[:, :-1], "must align"),
            ("w", lambda a: a[..., :-1], "must align"),
            ("n_w", lambda a: a + 10, "must fit the stack"),
            ("n_z", lambda a: a * 0, "must fit the stack"),
            ("atoms", "unsorted", "w_atoms must be strictly increasing"),
            ("z_probs", lambda a: a.astype(complex), "array of reals"),
            ("w", lambda a: a.astype(object), "array of reals"),
        ],
        ids=[
            "nan_z_probs", "inf_psi", "nan_atom", "inf_w", "z_probs_below", "w_below", "z_probs_sum", "w_sum",
            "psi_short", "w_short", "n_w_past_stack", "n_z_zero", "atoms_unsorted", "complex_z_probs", "object_w",
        ],
    )
    def test_each_corrupted_conditional_stack_raises(self, family, field, edit, match):
        stack = self._small_stacks()[family]
        many_z = int(np.flatnonzero(stack.n_z >= 2)[0])
        many_w = int(np.flatnonzero(stack.n_w >= 2)[0])
        named = {
            "below_z": lambda a: self._shift(a, (many_z, 0), -a[many_z, 0] - 2e-12, (many_z, 1)),
            "below_w": lambda a: self._shift(a, (many_w, 0, 0, 0), -a[many_w, 0, 0, 0] - 2e-12, (many_w, 0, 0, 1)),
            "unsorted": lambda a: a.__setitem__((many_w, 1), a[many_w, 0]),
        }
        with pytest.raises(InvalidInput, match=match):
            oracle._check_cond_stack(self._edit(stack, field, named.get(edit, edit)))

    @pytest.mark.parametrize(
        "field, edit, match",
        [
            ("probs", lambda a: a.__setitem__(0, np.nan), "probs must hold finite reals"),
            ("probs", "below", r"probs must hold finite reals in \[-1e-15"),
            ("probs", lambda a: a.__setitem__(0, a[0] + 2e-9), "probabilities sum to"),
            ("probs", lambda a: a[:-1], "equal length"),
            ("sizes", lambda a: a + 1, "equal length"),
            ("B", lambda a: a * 0, "equal length"),
            ("atoms", lambda a: a[:, 1:], "equal length"),
            ("atoms", "duplicate", "support atoms must be distinct"),
            ("atoms", lambda a: a.__setitem__((0, 0), np.nan), "must not be NaN"),
            ("atoms", lambda a: a.__setitem__((0, -1), np.nan), "must not be NaN"),
            ("atoms", lambda a: a.astype(complex), "joint atoms must hold reals"),
            ("atoms", lambda a: a.astype(str), "joint atoms must hold reals"),
        ],
        ids=[
            "nan_prob", "prob_below", "probs_sum", "probs_short", "sizes_past_atoms", "B_zero", "atoms_narrow",
            "atom_repeated", "nan_coordinate", "nan_target", "complex_atoms", "str_atoms",
        ],
    )
    def test_each_corrupted_joint_stack_raises(self, field, edit, match):
        stack = self._small_stacks()[2]
        j = int(np.flatnonzero(stack.sizes >= 2)[0])
        lo = int(stack.sizes[:j].sum())
        named = {
            "below": lambda a: self._shift(a, lo, -a[lo] - 2e-15, lo + 1),
            "duplicate": lambda a: a.__setitem__(lo + 1, a[lo]),
        }
        with pytest.raises(InvalidInput, match=match):
            oracle._check_joint_stack(self._edit(stack, field, named.get(edit, edit)))

    # a malformed field of a conditional instance -> the message its class raises
    _BAD_FIELDS = {
        "z_probs_sum": (dict(z_probs=(0.5, 0.6)), "z_probs must sum to 1 within 1e-9"),
        "z_probs_below": (dict(z_probs=(1.1, -0.1)), r"z_probs must hold finite reals in \[-1e-12"),
        "psi_short": (dict(psi_vals=(0.0,)), "z_probs and psi_vals must align"),
        "atoms_unsorted": (dict(w_atoms=(1.0, 0.0)), "w_atoms must be strictly increasing"),
        "atoms_tied": (dict(w_atoms=(1.0, 1.0)), "w_atoms must be strictly increasing"),
        "row_sum": (dict(w_cond=((0.5, 0.5), (0.25, 0.65))), "w_cond rows must sum to 1 within 1e-9"),
        "row_below": (dict(w_cond=((0.5, 0.5), (1.1, -0.1))), r"w_cond rows must hold finite reals in \[-1e-12"),
        "rows_short": (dict(w_cond=((0.5, 0.5),)), "one pmf row per z atom"),
        "row_wide": (dict(w_cond=((0.5, 0.25, 0.25), (0.25, 0.5, 0.25))), "must match w_atoms"),
    }

    @pytest.mark.parametrize("family", [CondIIDInstance, CondIndepInstance], ids=["iid", "indep"])
    @pytest.mark.parametrize("fields, match", _BAD_FIELDS.values(), ids=_BAD_FIELDS.keys())
    def test_the_classes_reject_what_the_stack_check_rejects(self, family, fields, match):
        good = dict(z_probs=(0.5, 0.5), psi_vals=(0.0, 1.0), w_atoms=(0.0, 1.0), w_cond=((0.5, 0.5), (0.25, 0.75)))

        def make(**kw):
            made = {**good, **kw}
            if family is CondIndepInstance:  # the same rows for two coordinates
                made["w_cond"] = (made["w_cond"],) * 2
            return family(**made)

        make()
        with pytest.raises(InvalidInput, match=match):
            make(**fields)

    def test_an_independent_instance_needs_a_coordinate(self):
        with pytest.raises(InvalidInput, match="need at least one resample coordinate"):
            CondIndepInstance((0.5, 0.5), (0.0, 1.0), (0.0, 1.0), np.empty((0, 2, 2)))

    def test_bounds_within_round_off_pass(self):
        # as in the classes: pmf entries down to -1e-12, joint masses down to -1e-15
        iid, indep, joints = self._small_stacks()
        for stack in (iid, indep):
            n = int(np.flatnonzero(stack.n_z >= 2)[0])
            oracle._check_cond_stack(
                self._edit(stack, "z_probs", lambda a: self._shift(a, (n, 0), -a[n, 0] - 5e-13, (n, 1)))
            )
        j = int(np.flatnonzero(joints.sizes >= 2)[0])
        lo = int(joints.sizes[:j].sum())
        oracle._check_joint_stack(self._edit(joints, "probs", lambda a: self._shift(a, lo, -a[lo] - 5e-16, lo + 1)))


def _public_check_cond_iid(inst, B):
    """check_cond_iid as a loop over the checked public bracket and table read."""
    w = np.asarray(inst.w_cond, dtype=float)
    C = oracle._coverage_table(_pair_matrix(inst, np.broadcast_to(w, (B,) + w.shape)))
    delta, delta_tilde = iid_slacks(inst)
    tally = _Tally()
    for a in range(B):
        for b in range(B - a):
            for kind in oracle._TWO_SIDED_KINDS:
                cov = oracle._coverage_from_table(C, a, b, kind)
                br = bounds.iid_bracket(B, a, b, delta=delta, delta_tilde=delta_tilde, kind=kind)
                tally.check({"family": "cond_iid", "B": B, "a": a, "b": b, "kind": kind}, cov, br.lower, br.upper)
    return tally.result


def _public_check_cond_indep(inst):
    """check_cond_indep as a loop over the checked public brackets and table read."""
    B = inst.b
    C = oracle._coverage_table(_pair_matrix(inst, np.asarray(inst.w_cond, dtype=float)))
    d_ks, d_tilde, kappas = indep_slacks(inst)
    tally = _Tally()
    for a in range(B):
        for b in range(B - a):
            cov = oracle._coverage_from_table(C, a, b, "closed")
            br = bounds.independent_bracket(B, a, b, d_tilde, kappas)
            lo3 = bounds.ordering_lower(B, a, b, d_ks)
            tally.check({"family": "cond_indep", "B": B, "a": a, "b": b}, cov, br.lower, br.upper)
            tally.check({"family": "ordering", "B": B, "a": a, "b": b}, cov, lo3)
    return tally.result


def _public_check_dependent(joint):
    """check_dependent as a loop over index_rule's dependent ranks, the
    enumerated coverage, the exchangeability gap and the checked public
    bracket."""
    B = len(joint.support[0]) - 1
    gap = distances.gamma_exact(joint).value
    tally = _Tally()
    for g, bt in oracle._TAIL_PAIRS:
        try:
            rule = orderstats.index_rule(orderstats.BudgetSpec(B=B, alpha=g), "dependent_two_sided", gamma=g, beta=bt)
        except BudgetTooSmall:
            continue
        cov = exact_coverage_discrete(joint, rule.lower_rank, B - rule.upper_rank, "closed")
        lower = bounds.dependent_bracket(B, g, bt, gap).lower
        tally.check({"family": "dependent", "B": B, "gamma": g, "beta": bt}, cov, lower, gap=gap)
    return tally.result


def _joint_law(inst, B, rows_of) -> FinitePmf:
    """The law of (W_1..W_B, psi) of a conditional instance written out
    atom by atom; ``rows_of(j)`` lists the pmfs of W_1..W_B given z_j."""
    acc = {}
    for j, (pz, psi) in enumerate(zip(inst.z_probs, inst.psi_vals)):
        rows = rows_of(j)
        for ws in itertools.product(range(len(inst.w_atoms)), repeat=B):
            key = tuple(float(inst.w_atoms[w]) for w in ws) + (float(psi),)
            p = pz * math.prod(rows[i][w] for i, w in enumerate(ws))
            acc[key] = acc.get(key, 0.0) + p
    return FinitePmf(list(acc), list(acc.values()))


class TestPairMatrix:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_matches_enumerated_joint(self, seed, B):
        # the matrix check_cond_iid / check_cond_indep read their
        # coverages from must give exact_coverage_discrete of the joint
        # law at every (a, b, kind), sentinel ranks included
        rng = np.random.default_rng(seed)
        iid = random_cond_iid(rng)
        indep = random_cond_indep(rng, B)
        cases = (
            (lambda: check_cond_iid(iid, B), iid, lambda j: [iid.w_cond[j]] * B),
            (lambda: check_cond_indep(indep), indep, lambda j: [r[j] for r in indep.w_cond]),
        )
        for check, inst, rows_of in cases:
            real = oracle._coverage_table
            with mock.patch.object(oracle, "_coverage_table", wraps=real) as spy:
                check()
            # the one-instance batch's stack of one matrix
            M = spy.call_args.args[0][0]
            B_seen = M.shape[0] - 1
            assert B_seen == B
            joint = _joint_law(inst, B, rows_of)
            for a in range(B + 1):
                for b in range(-1, B - a):
                    for kind in ("one_sided_upper",) + oracle._TWO_SIDED_KINDS:
                        want = exact_coverage_discrete(joint, a, b, kind)
                        assert oracle._coverage_from_table(real(M), a, b, kind) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize(
        "psi, atoms",
        [((math.nan,), (1.0, 2.0)), ((math.inf,), (1.0, 2.0)), ((1.5,), (1.0, math.nan))],
    )
    def test_non_finite_instances_raise(self, psi, atoms):
        with pytest.raises(InvalidInput):
            CondIndepInstance((1.0,), psi, atoms, (((0.5, 0.5),),))
        with pytest.raises(InvalidInput):
            CondIIDInstance((1.0,), psi, atoms, ((0.5, 0.5),))


def _with_ties(rng, inst):
    """``inst`` with each psi(z_j) moved onto a random w atom with
    probability 0.8, so most z atoms put mass on a tie."""
    atoms = np.asarray(inst.w_atoms)
    n_z = len(inst.psi_vals)
    snap = rng.random(n_z) < 0.8
    psi = np.where(snap, atoms[rng.integers(0, atoms.size, size=n_z)], inst.psi_vals)
    return dataclasses.replace(inst, psi_vals=tuple(psi))


def _masked_coverage(M, a, b, kind):
    """``(M * mask).sum()`` over the (n_lt, n_le) pairs the interval covers."""
    B = M.shape[0] - 1
    lt = np.arange(B + 1)[:, None]
    le = np.arange(B + 1)[None, :]
    hi = B - b - 1
    mask = {
        "closed": (le >= a) & (lt <= hi),
        "left_closed_right_open": (le >= a) & (le <= hi),
        "left_open_right_closed": (lt >= a) & (lt <= hi),
        "one_sided_upper": lt <= hi,
    }[kind]
    return float((M * mask).sum())


class TestPairMatrixFold:
    """The fold behind check_cond_iid and check_cond_indep against the
    atoms^B enumeration it replaced, and the coverage table against one
    masked sum per (a, b, kind)."""

    @pytest.mark.parametrize("family", ["cond_iid", "cond_indep"])
    def test_matches_the_enumeration_on_tie_heavy_instances(self, family):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            B = int(rng.integers(1, 7))
            if family == "cond_iid":
                inst = _with_ties(rng, random_cond_iid(rng))
                w = np.asarray(inst.w_cond, dtype=float)
                stack = np.broadcast_to(w, (B,) + w.shape)
            else:
                inst = _with_ties(rng, random_cond_indep(rng, B))
                stack = np.asarray(inst.w_cond, dtype=float)
            want = _pair_matrix_enumerated(inst, lambda j: stack[:, j])
            got = _pair_matrix(inst, stack)
            assert got.shape == (B + 1, B + 1)
            assert np.abs(got - want).max() < 1e-12

    def test_table_reads_equal_masked_sums(self):
        rng = np.random.default_rng(22)
        for B in range(1, 9):
            for _ in range(20):
                M = rng.dirichlet(np.ones((B + 1) ** 2)).reshape(B + 1, B + 1)
                M[rng.random(M.shape) < 0.3] = 0.0
                C = oracle._coverage_table(M)
                for a in range(B + 1):
                    for b in range(-1, B - a):
                        for kind in ("one_sided_upper",) + oracle._TWO_SIDED_KINDS:
                            got = oracle._coverage_from_table(C, a, b, kind)
                            assert got >= 0.0
                            assert got == pytest.approx(_masked_coverage(M, a, b, kind), abs=1e-15)

    def test_table_read_rejects_an_unknown_kind(self):
        with pytest.raises(InvalidInput, match="kind must be one of"):
            oracle._coverage_from_table(oracle._coverage_table(np.eye(3) / 3), 0, 0, "open")

    def test_cond_iid_at_b_199_is_the_trinomial(self):
        # given z, (n_lt, n_le - n_lt) is Bin(B, p_lt) then Bin(B - n_lt, p_eq / (1 - p_lt));
        # the atoms^B enumeration (3^199 rows) could never reach this budget
        B = 199
        inst = CondIIDInstance(
            z_probs=(0.3, 0.7),
            psi_vals=(2.0, 2.5),
            w_atoms=(1.0, 2.0, 3.0),
            w_cond=((0.2, 0.3, 0.5), (0.45, 0.1, 0.45)),
        )
        atoms = np.asarray(inst.w_atoms)
        w = np.asarray(inst.w_cond)
        p_lt = np.array([row[atoms < psi].sum() for row, psi in zip(w, inst.psi_vals)])
        p_eq = np.array([row[atoms == psi].sum() for row, psi in zip(w, inst.psi_vals)])
        z_p = np.asarray(inst.z_probs)
        lt_pmf = discrete._binom_rows(B, p_lt)
        want = np.zeros((B + 1, B + 1))
        for n_lt in range(B + 1):
            eq_pmf = discrete._binom_rows(B - n_lt, p_eq / (1.0 - p_lt))
            want[n_lt, n_lt:] = (z_p * lt_pmf[:, n_lt]) @ eq_pmf
        got = _pair_matrix(inst, np.broadcast_to(w, (B,) + w.shape))
        assert np.abs(got - want).max() < 1e-12
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_check_cond_iid_runs_at_b_199(self):
        inst = CondIIDInstance(
            z_probs=(0.25, 0.25, 0.5),
            psi_vals=(1.0, 2.0, 2.5),
            w_atoms=(1.0, 2.0, 3.0),
            w_cond=((0.5, 0.25, 0.25), (0.2, 0.5, 0.3), (0.6, 0.1, 0.3)),
        )
        n_checked, violations = check_cond_iid(inst, 199)
        assert (n_checked, violations) == (3 * 199 * 200 // 2, [])


class TestConformalGrid:
    def test_frozen_examples(self):
        ex = conformal_grid_example(100, 0.1)
        assert (ex.rank, ex.sentinel) == (95, False)
        assert ex.coverage == pytest.approx(0.945, abs=1e-12)
        assert ex.bound == pytest.approx(0.885, abs=1e-12)
        ex2 = conformal_grid_example(10, 0.3)
        assert (ex2.rank, ex2.coverage, ex2.bound) == (9, 0.85, 0.55)
        ex3 = conformal_grid_example(5, 0.1)
        assert ex3.sentinel and ex3.coverage == 1.0

    def test_sweep_consistent_with_examples(self):
        sweep = conformal_grid_sweep(m_lo=5, m_hi=400)
        assert sweep.passed
        rng = np.random.default_rng(0)
        for _ in range(30):
            m = int(rng.integers(5, 400))
            alpha = float(rng.choice([0.05, 0.1, 0.2, 0.3, 0.5]))
            ex = conformal_grid_example(m, alpha)
            assert ex.coverage >= ex.bound - 1e-12

    def test_full_sweep(self):
        assert conformal_grid_sweep().passed

    def test_numpy_alpha_is_read_as_its_float(self):
        want = conformal_grid_sweep(5, 400, alphas=(float(np.float32(0.1)), 0.2))
        assert conformal_grid_sweep(5, 400, alphas=(np.float32(0.1), np.float64(0.2))) == want

    @pytest.mark.parametrize("alphas", [(), []])
    def test_alphas_must_be_non_empty(self, alphas):
        # no alpha is no check, not a pass
        with pytest.raises(InvalidInput, match="alphas must be non-empty"):
            conformal_grid_sweep(5, 10, alphas=alphas)


def _add_at_pairs(M, w, psi, pr):
    np.add.at(M, ((w < psi).sum(axis=1), (w <= psi).sum(axis=1)), pr)


def _cartesian(n: int, B: int) -> np.ndarray:
    """Every index row of {0..n-1}^B, last coordinate fastest."""
    grids = np.meshgrid(*[np.arange(n)] * B, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, B)


def _pair_matrix_enumerated(inst, rows_of):
    """The pair matrix of a conditional instance by enumerating its
    atoms^B outcomes per z atom, W_1..W_B given z_j having the pmf rows
    ``rows_of(j)``: the reference the fold in ``_pair_matrix`` is
    checked against."""
    atoms = np.asarray(inst.w_atoms, dtype=float)
    B = len(rows_of(0))
    idx = _cartesian(atoms.size, B)
    w = atoms[idx]
    bins, mass = [], []
    for j, (pz, psi) in enumerate(zip(inst.z_probs, inst.psi_vals)):
        pr = np.full(idx.shape[0], float(pz))
        for i, row in enumerate(rows_of(j)):
            pr *= np.asarray(row, dtype=float)[idx[:, i]]
        bins.append((w < psi).sum(axis=1) * (B + 1) + (w <= psi).sum(axis=1))
        mass.append(pr)
    return np.bincount(np.concatenate(bins), weights=np.concatenate(mass), minlength=(B + 1) ** 2).reshape(B + 1, B + 1)


def _pair_matrix_add_at(inst, rows_of):
    """The np.add.at accumulation the bincount pair matrix replaced."""
    atoms = np.asarray(inst.w_atoms, dtype=float)
    B = len(rows_of(0))
    idx = _cartesian(atoms.size, B)
    M = np.zeros((B + 1, B + 1))
    for j, (pz, psi) in enumerate(zip(inst.z_probs, inst.psi_vals)):
        pr = np.full(idx.shape[0], float(pz))
        for i, row in enumerate(rows_of(j)):
            pr *= np.asarray(row, dtype=float)[idx[:, i]]
        _add_at_pairs(M, atoms[idx], psi, pr)
    return M


class TestBincountMatchesAddAt:
    """One ``np.bincount`` adds in input order, so it gives the bits of
    the ``np.add.at`` accumulations it replaced."""

    @pytest.mark.parametrize("family", ["cond_iid", "cond_indep", "dependent"])
    def test_pair_matrix(self, family):
        rng = np.random.default_rng(20260823)
        for _ in range(100):
            if family == "dependent":
                joint = random_joint(rng)
                arr = np.asarray(joint.support, dtype=float)
                ref = np.zeros((arr.shape[1], arr.shape[1]))
                _add_at_pairs(ref, arr[:, :-1], arr[:, -1:], joint.probs)
                assert np.array_equal(oracle._pair_matrix_joint(joint)[0], ref)
                continue
            if family == "cond_iid":
                inst, B = random_cond_iid(rng), int(rng.integers(1, 7))
                rows = [[inst.w_cond[j]] * B for j in range(len(inst.z_probs))]
            else:
                inst = random_cond_indep(rng)
                rows = [[r[j] for r in inst.w_cond] for j in range(len(inst.z_probs))]
            assert np.array_equal(_pair_matrix_enumerated(inst, rows.__getitem__), _pair_matrix_add_at(inst, rows.__getitem__))

    def test_dist_to_uniform(self):
        rng = np.random.default_rng(20260823)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            v = rng.integers(0, 8, n) / 7.0  # ties, and atoms at 0 and 1
            p = rng.dirichlet(np.ones(n))
            uniq, inv = np.unique(v, return_inverse=True)
            mass = np.zeros(uniq.size)
            np.add.at(mass, inv, p)
            cum = np.cumsum(mass)
            d_plus = max(0.0, float(np.max(cum - uniq)))
            d_minus = max(0.0, float(np.max(uniq - (cum - mass))))
            assert dist_to_uniform(v, p) == (min(max(d_plus, d_minus), 1.0), min(d_plus + d_minus, 1.0))


def test_ehm_hoeffding_small_sweep():
    rep = ehm_hoeffding_sweep(b_values=(1, 2, 3))
    assert rep.passed
    assert rep.n_checked > 0


_DECIMAL_GRID = np.arange(1, 10) / 10.0
_LINSPACE_GRID = np.linspace(0.01, 0.99, 13)


class TestEhmHoeffdingSweep:
    @pytest.mark.parametrize("grid", [_DECIMAL_GRID, _LINSPACE_GRID], ids=["decimal", "linspace"])
    def test_level_pmfs_equal_the_meshgrid_batch(self, monkeypatch, grid):
        blocks = []
        real = oracle.poisson_binomial_pmf_batch

        def recording(*args, **kwargs):
            blocks.append(real(*args, **kwargs))
            return blocks[-1]

        monkeypatch.setattr(oracle, "poisson_binomial_pmf_batch", recording)
        ehm_hoeffding_sweep(b_values=(4,), grid=grid)
        # each block is (parents, g, B+1); the subtrees run in first-coordinate
        # order, and each builds its levels in order, so a level's blocks
        # follow in order
        assert sorted({blk.shape[-1] - 1 for blk in blocks}) == [1, 2, 3, 4]
        for B in range(1, 5):
            level = np.concatenate([blk.reshape(-1, B + 1) for blk in blocks if blk.shape[-1] == B + 1])
            combos = np.stack(np.meshgrid(*[grid] * B, indexing="ij"), axis=-1).reshape(-1, B)
            assert np.array_equal(level, real(combos))
        # one block per level in each of the g subtrees: g^2 parents at level 4 fit one
        assert len(blocks) == 4 * grid.size

    @staticmethod
    def _halved(prob_rows, p_bar):
        r, upper = discrete._ehm_rows(prob_rows, p_bar)
        return r, 0.5 * upper

    @staticmethod
    def _swapped(B, p_bar):
        le, ge = discrete._ordering_regimes(B, p_bar)
        return ge, le

    # block budgets of one parent, 7 parents, 100 parents (2 blocks) and every
    # parent (10**6 bytes) at level 4 of a subtree, which has 13^2 parents there
    @pytest.mark.parametrize("block_bytes", [1, 7 * 8 * 5 * 13, 100 * 8 * 5 * 13, 10**6])
    @pytest.mark.parametrize("mutation", [None, "_ehm_rows", "_ordering_regimes"])
    def test_reports_do_not_depend_on_the_block_size(self, monkeypatch, block_bytes, mutation):
        if mutation is not None:
            broken = self._halved if mutation == "_ehm_rows" else self._swapped
            monkeypatch.setattr(oracle, mutation, broken)
        monkeypatch.setattr(oracle, "_SWEEP_BLOCK_BYTES", 2**40)
        whole = ehm_hoeffding_sweep(b_values=(2, 3, 4), grid=_LINSPACE_GRID)
        assert len(whole.violations) == {None: 0, "_ehm_rows": 60, "_ordering_regimes": 120}[mutation]
        monkeypatch.setattr(oracle, "_SWEEP_BLOCK_BYTES", block_bytes)
        blocked = ehm_hoeffding_sweep(b_values=(2, 3, 4), grid=_LINSPACE_GRID)
        assert (blocked.n_checked, blocked.note) == (whole.n_checked, whole.note)
        assert blocked.violations == whole.violations

    def test_default_sweep_memory_stays_within_its_blocks(self):
        tracemalloc.start()
        try:
            assert ehm_hoeffding_sweep().passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # subtrees of 128 KiB blocks keep it near 2.3 MiB; a whole top level (531,441 rows) needs about 150
        assert peak < 32 * 2**20

    def test_reports_follow_b_values_order(self, monkeypatch):
        real = discrete._ehm_rows

        def halved(prob_rows, p_bar):
            r, upper = real(prob_rows, p_bar)
            return r, 0.5 * upper

        monkeypatch.setattr(oracle, "_ehm_rows", halved)
        rep = ehm_hoeffding_sweep(b_values=(3, 1, 2))
        # B = 1 has r = 0, so a halved bound is still met there
        assert [v["B"] for v in rep.violations] == [3] * 20 + [2] * 20
        assert all(len(v["p"]) == v["B"] for v in rep.violations)

    @pytest.mark.parametrize("b_values, grid", [((1, 2, 3, 4, 5, 6), None), ((2, 2, 1), _LINSPACE_GRID)])
    def test_n_checked_counts_every_grid_point(self, b_values, grid):
        g = 9 if grid is None else grid.size
        assert ehm_hoeffding_sweep(b_values=b_values, grid=grid).n_checked == sum(g**B for B in b_values)

    # rounding p_bar to tenths reports false violations on these grids
    @pytest.mark.parametrize("b_values, grid", [((1, 2, 3), _LINSPACE_GRID), ((4,), [1 / 3, 2 / 3, 0.5, 0.25])])
    def test_non_decimal_lattice_grid(self, b_values, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ehm_hoeffding_sweep(b_values=b_values, grid=grid).passed

    @pytest.mark.parametrize("b_values", [(0,), (2, -1), (2.0,), (True,), ()])
    def test_b_values_must_be_positive_integers(self, b_values):
        with pytest.raises(InvalidInput, match="b_values"):
            ehm_hoeffding_sweep(b_values=b_values)

    @pytest.mark.parametrize("grid", [[], [[0.1, 0.2]]], ids=["empty", "2-d"])
    def test_grid_must_be_non_empty_and_1d(self, grid):
        with pytest.raises(InvalidInput, match="grid must be a non-empty 1-d"):
            ehm_hoeffding_sweep(grid=grid)

    @pytest.mark.parametrize("grid", [[0.0, 0.5], [0.5, 1.0], [1.5, 0.5], [0.5, np.nan]])
    def test_grid_strictly_inside_unit_interval(self, grid):
        with pytest.raises(InvalidInput, match=r"grid must hold finite reals in \(0, 1\)"):
            ehm_hoeffding_sweep(b_values=(2,), grid=grid)

    @pytest.mark.parametrize("grid", [[0.5, 0.123456789], [1 / 999983, 1 / 999979]])
    def test_grid_off_the_lattice(self, grid):
        with pytest.raises(InvalidInput, match="grid must lie on a lattice"):
            ehm_hoeffding_sweep(b_values=(2,), grid=grid)


class TestColumnFolds:
    """The sweep's reductions along short rows run one column at a time
    and keep NumPy's bits."""

    @pytest.mark.parametrize("K", range(1, 13))
    def test_row_sums_and_cumsums_equal_numpy(self, K):
        x = np.random.default_rng(K).random((3000, K)) ** 3
        assert np.array_equal(discrete._row_sums(x), x.sum(axis=1))
        assert np.array_equal(discrete._row_cumsums(x), np.cumsum(x, axis=1))

    @pytest.mark.parametrize("B", range(1, 13))
    def test_ehm_rows_equal_the_row_sum_formula(self, B):
        rows = _DECIMAL_GRID[np.random.default_rng(B).integers(0, 9, size=(3000, B))]
        p_bar = rows.mean(axis=1)
        q_bar = 1.0 - p_bar
        r = 1.0 - (rows * (1.0 - rows)).sum(axis=1) / (B * p_bar * q_bar)
        upper = B / (B + 1.0) * (1.0 - p_bar ** (B + 1) - q_bar ** (B + 1)) * r
        got_r, got_upper = discrete._ehm_rows(rows, p_bar)
        assert np.array_equal(got_r, r) and np.array_equal(got_upper, upper)

    def test_sweep_blocks_reduce_as_numpy_does(self, monkeypatch):
        widths = set()

        def checked(fold, numpy_reduction):
            def call(x):
                out = fold(x)
                assert np.array_equal(out, numpy_reduction(x))
                widths.add(x.shape[1])
                return out

            return call

        for mod in (discrete, oracle):
            monkeypatch.setattr(mod, "_row_sums", checked(discrete._row_sums, lambda x: x.sum(axis=1)))
            monkeypatch.setattr(mod, "_row_cumsums", checked(discrete._row_cumsums, lambda x: np.cumsum(x, axis=1)))
        assert ehm_hoeffding_sweep(b_values=tuple(range(1, 8)), grid=[0.2, 0.5, 0.7]).passed
        # B = 1..7 for the Ehm sums, and B + 1 = 2..8 for the TV sums and the CDFs
        assert widths == set(range(1, 9))


def _instance_digest(seed: int) -> str:
    """Digest of the fields of four random instances drawn in a row
    from one rng, and of the rng state they leave behind."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    draws = (random_cond_iid(rng), random_cond_indep(rng), random_cond_iid(rng))
    for inst in draws + (random_cond_indep(rng, 2),):
        for field in (inst.z_probs, inst.psi_vals, inst.w_atoms, inst.w_cond):
            arr = np.asarray(field, dtype=float)
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
    h.update(rng.bytes(8))
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "24160df71e37c55b"),
        (1, "06c9760820618af4"),
        (7, "9ce19fd775384f7b"),
        (20260823, "335df02eb4281876"),
    ],
)
def test_random_instances_are_pinned(seed, digest):
    # bracket_suite's instances, and so its check count, rest on these draws
    assert _instance_digest(seed) == digest


def _joint_digest(seed: int) -> str:
    """Digest of the supports and masses of six random joints drawn in a
    row from one rng (four at given B <= 3, where a joint may be
    symmetrized), and of the rng state they leave behind."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for B in (None, 1, 2, 3, None, 3):
        joint = random_joint(rng, B)
        arr = np.asarray(joint.support, dtype=float)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
        h.update(joint.probs.tobytes())
    h.update(rng.bytes(8))
    return h.hexdigest()[:16]


# seeds 1, 7 and 20260823 draw symmetrized joints: two, two and one of the six
@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "c998f90f63fbaaa8"),
        (1, "2044483fa1f8c7fb"),
        (7, "45a1d18b1a99254a"),
        (20260823, "26e55144246f5150"),
    ],
)
def test_random_joints_are_pinned(seed, digest):
    # the joints' atoms merge in first-draw order with their masses summed in draw order
    assert _joint_digest(seed) == digest


class TestSweepsCertifyTheLibrary:
    """Each verify sweep checks the library's own formula, so a broken
    formula makes the sweep report violations."""

    def test_broken_ehm_bound(self, monkeypatch):
        real = discrete._ehm_rows

        def halved(prob_rows, p_bar):
            r, upper = real(prob_rows, p_bar)
            return r, 0.5 * upper

        for mod in (discrete, oracle):
            monkeypatch.setattr(mod, "_ehm_rows", halved)
        assert discrete.ehm_tv_bound(discrete.PoiBinSpec((0.2, 0.8)))[0] == pytest.approx(0.09)
        rep = ehm_hoeffding_sweep(b_values=(2, 3))
        assert {v["check"] for v in rep.violations} == {"tv"}

    def test_broken_ordering_regimes(self, monkeypatch):
        real = discrete._ordering_regimes

        def swapped(B, p_bar):
            le, ge = real(B, p_bar)
            return ge, le

        for mod in (discrete, oracle):
            monkeypatch.setattr(mod, "_ordering_regimes", swapped)
        assert not discrete.hoeffding_ordering_check(discrete.PoiBinSpec((0.1, 0.9, 0.5))).passed
        rep = ehm_hoeffding_sweep(b_values=(2, 3))
        assert {v["check"] for v in rep.violations} == {"order_le", "order_ge"}

    def test_broken_fold(self, monkeypatch):
        real = discrete.poisson_binomial_pmf_batch

        def mirrored(prob_rows, start=None):
            # folds Bernoulli(1 - p) where Bernoulli(p) belongs
            return real(1.0 - np.asarray(prob_rows, dtype=float), start)

        for mod in (discrete, oracle):
            monkeypatch.setattr(mod, "poisson_binomial_pmf_batch", mirrored)
        assert discrete.poisson_binomial_pmf(discrete.PoiBinSpec((0.2,))).probs == pytest.approx([0.2, 0.8])
        rep = ehm_hoeffding_sweep(b_values=(2, 3))
        assert {v["check"] for v in rep.violations} == {"tv", "order_le", "order_ge"}

    @staticmethod
    def _shifted(real, by):
        """A bracket kernel whose base and ends are ``by`` higher."""

        def kernel(*args):
            ends = real(*args)
            if isinstance(ends, tuple):  # (base, lower, upper[, tie_excess])
                return tuple(end + by for end in ends[:3]) + ends[3:]
            return ends + by

        return kernel

    @pytest.mark.parametrize(
        "kernel, by, family, public",
        [
            ("_iid_ends", 0.3, "cond_iid", lambda: bounds.iid_bracket(19, 1, 1, delta=0.01)),
            ("_independent_ends", 0.3, "cond_indep", lambda: bounds.independent_bracket(4, 0, 0, 0.01, [0.1] * 4)),
            ("_ordering_lower", 0.5, "ordering", lambda: bounds.ordering_lower(100, 9, 9, 0.01)),
            ("_dependent_ends", 0.5, "dependent", lambda: bounds.dependent_bracket(19, 0.2, 0.2, 0.05)),
        ],
        ids=["iid", "independent", "ordering", "dependent"],
    )
    def test_broken_bracket(self, monkeypatch, capsys, kernel, by, family, public):
        # the public bracket and the suite look the kernel up in one place,
        # so a shifted formula changes the one and fails the other
        want = public()
        monkeypatch.setattr(bounds, kernel, self._shifted(getattr(bounds, kernel), by))
        assert public() != want
        rep = bracket_suite()
        assert {v["family"] for v in rep.violations} == {family}
        assert cli.main(["verify", "--threads", "1"]) == 3
        assert "FAIL coverage brackets" in capsys.readouterr().out

    @pytest.fixture
    def fresh_ranks(self):
        orderstats._index_rule.cache_clear()
        yield
        orderstats._index_rule.cache_clear()

    def test_broken_conformal_rank(self, monkeypatch, fresh_ranks):
        def floor_of_2m_alpha(m, alpha):
            return m + 1 - (2 * m * alpha.numerator) // alpha.denominator

        for mod in (orderstats, oracle):
            monkeypatch.setattr(mod, "_conformal_mod_rank", floor_of_2m_alpha)
        budget = orderstats.BudgetSpec(100, 0.1)
        assert orderstats.index_rule(budget, "conformal_mod").upper_rank == 81
        assert conformal_grid_example(100, 0.1).rank == 81
        rep = conformal_grid_sweep(m_hi=200)
        assert rep.violations
        for v in rep.violations:
            assert v["rank"] == floor_of_2m_alpha(v["m"], orderstats._snap_alpha(v["alpha"]))
