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

from fixedb import discrete, oracle, orderstats
from fixedb.distances import FinitePmf, ks_uniform, mod_ks_uniform
from fixedb.errors import InvalidIndices, InvalidInput
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
            (M,) = spy.call_args.args
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
            got = oracle._pair_matrix(inst, stack)
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
        got = oracle._pair_matrix(inst, np.broadcast_to(w, (B,) + w.shape))
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


def _add_at_pairs(M, w, psi, pr):
    np.add.at(M, ((w < psi).sum(axis=1), (w <= psi).sum(axis=1)), pr)


def _cartesian(n: int, B: int) -> np.ndarray:
    """Every index row of {0..n-1}^B, last coordinate fastest."""
    grids = np.meshgrid(*[np.arange(n)] * B, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, B)


def _pair_matrix_enumerated(inst, rows_of):
    """The pair matrix of a conditional instance by enumerating its
    atoms^B outcomes per z atom, W_1..W_B given z_j having the pmf rows
    ``rows_of(j)``: the reference the fold in ``oracle._pair_matrix``
    is checked against."""
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
        # each block is (parents, g, B+1); a level's blocks follow in order
        assert sorted({blk.shape[-1] - 1 for blk in blocks}) == [1, 2, 3, 4]
        for B in range(1, 5):
            level = np.concatenate([blk.reshape(-1, B + 1) for blk in blocks if blk.shape[-1] == B + 1])
            combos = np.stack(np.meshgrid(*[grid] * B, indexing="ij"), axis=-1).reshape(-1, B)
            assert np.array_equal(level, real(combos))
        # 13^3 parents at level 4 of the linspace grid exceed one block
        assert len(blocks) == (4 if grid is _DECIMAL_GRID else 5)

    @staticmethod
    def _halved(prob_rows, p_bar):
        r, upper = discrete._ehm_rows(prob_rows, p_bar)
        return r, 0.5 * upper

    @staticmethod
    def _swapped(B, p_bar):
        le, ge = discrete._ordering_regimes(B, p_bar)
        return ge, le

    # block budgets of one parent, 7 parents at level 4 and 2 blocks at level 4
    @pytest.mark.parametrize("block_bytes", [1, 7 * 8 * 5 * 13, 10**6])
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
        # blocks keep it near 12 MiB; a whole top level (531,441 rows) needs about 150
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
