"""Confidence-interval, test, and conformal procedures."""

import math
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixedb import harness, procedures
from fixedb.errors import BudgetTooSmall, InvalidInput, NumericalFailure
from fixedb.harness import (
    _corr_statistic,
    _corr_statistic_batch,
    _corr_statistic_rows,
    _mean_statistic,
    _mean_statistic_batch,
    _sgd_gradient,
    _sgd_gradient_batch,
)
from fixedb.procedures import (
    Interval,
    ci_boot,
    ci_cells,
    ci_rule,
    ci_sgd,
    ci_subsample,
    conformal_set,
    permutation_test,
    randomization_test,
    rank_test_block,
    sgd_cells,
)
from fixedb.orderstats import BudgetSpec, IntervalIndexRule, order_stat
from fixedb.resampling import (
    _bounded_from,
    _bounded_rows,
    _philox_keys,
    _setting_draw,
    _shuffled_from,
    _stream_ids,
    PermutationGroup,
    SeedSpec,
    SgdSpec,
    bootstrap_indices,
    full_symmetric,
    generator,
    permutation_draw,
    setting_sampler,
    setting_truth,
    sgd_path,
    sgd_paths,
    signflip_transform,
    stream_for,
    subsample_indices,
)


def mean_stat(x):
    return float(np.mean(x))


class TestInterval:
    def test_default_membership_is_left_open_right_closed(self):
        iv = Interval(1.0, 2.0)
        assert not iv.contains(1.0)
        assert iv.contains(2.0)
        assert iv.contains(1.5)
        assert not iv.contains(2.5)
        assert iv.width == 1.0


class TestCiBoot:
    def data(self, m=60, seed=0):
        return setting_sampler(1, {"m": m}, SeedSpec(seed, 0))

    def test_half_open_membership_via_roots(self):
        x = self.data()
        ci = ci_boot(x, np.mean, tau_m=1.0, B=19, alpha=0.1, variant="vanilla", seed=SeedSpec(1, 1))
        # identity root: theta covered iff theta_hat - theta in (lo', hi']
        # translates to the stated interval
        lo, hi = ci.interval.lo, ci.interval.hi
        assert ci.contains(hi)
        assert not ci.contains(lo)
        mid = 0.5 * (lo + hi)
        assert ci.contains(mid)
        assert ci.span == pytest.approx(hi - lo)

    def test_location_equivariance(self):
        x = self.data()
        base = ci_boot(x, np.mean, tau_m=5.0, B=19, alpha=0.1, seed=SeedSpec(9, 1))
        shifted = ci_boot(x + 10.0, np.mean, tau_m=5.0, B=19, alpha=0.1, seed=SeedSpec(9, 1))
        assert shifted.interval.lo == pytest.approx(base.interval.lo + 10.0, abs=1e-9)
        assert shifted.interval.hi == pytest.approx(base.interval.hi + 10.0, abs=1e-9)
        assert shifted.span == pytest.approx(base.span, abs=1e-9)

    def test_alpha_monotone_width(self):
        x = self.data()
        spans = [
            ci_boot(x, np.mean, B=99, alpha=al, variant="vanilla", seed=SeedSpec(2, 1)).span
            for al in (0.5, 0.3, 0.1, 0.02)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(spans, spans[1:]))

    def test_modified_at_least_as_wide(self):
        x = self.data()
        for B in (21, 25, 47):
            van = ci_boot(x, np.mean, B=B, alpha=0.3, variant="vanilla", seed=SeedSpec(3, 1))
            mod = ci_boot(x, np.mean, B=B, alpha=0.3, variant="modified", seed=SeedSpec(3, 1))
            assert mod.span >= van.span - 1e-12

    def test_budget_gate(self):
        x = self.data()
        with pytest.raises(BudgetTooSmall) as ei:
            ci_boot(x, np.mean, B=5, alpha=0.1, variant="modified", seed=SeedSpec(0, 1))
        assert ei.value.min_b == 19
        with pytest.raises(BudgetTooSmall):
            ci_boot(x, np.mean, B=5, alpha=0.1, variant="randomized", seed=SeedSpec(0, 1))
        # vanilla is allowed to run undersized
        assert ci_boot(x, np.mean, B=5, alpha=0.1, variant="vanilla", seed=SeedSpec(0, 1)).span >= 0

    def test_randomized_branch_frequency(self):
        x = self.data(m=25)
        took = 0
        n = 600
        for s in range(n):
            ci = ci_boot(x, np.mean, B=20, alpha=0.1, variant="randomized", seed=SeedSpec(s, 0))
            br = ci.randomized_branch
            assert br.tau == pytest.approx(0.9)
            assert br.took_ceil == (br.u <= br.tau)
            took += br.took_ceil
        # Bin(600, 0.9): +-4 sigma is about +-0.049
        assert abs(took / n - 0.9) < 0.05

    def test_integer_tau_always_ceil(self):
        x = self.data(m=25)
        ci = ci_boot(x, np.mean, B=19, alpha=0.1, variant="randomized", seed=SeedSpec(5, 0))
        assert ci.randomized_branch.tau == 1.0
        assert ci.randomized_branch.took_ceil
        mod = ci_boot(x, np.mean, B=19, alpha=0.1, variant="modified", seed=SeedSpec(5, 0))
        assert ci.interval.lo == mod.interval.lo and ci.interval.hi == mod.interval.hi

    def test_sup_norm_root_membership(self):
        x = setting_sampler(2, {"m": 80, "d": 4}, SeedSpec(6, 0))
        tau = math.sqrt(80)
        ci = ci_boot(
            x,
            lambda a: a.mean(axis=0),
            root=lambda v: float(np.max(np.abs(v))),
            tau_m=tau,
            B=19,
            alpha=0.1,
            seed=SeedSpec(6, 1),
        )
        assert ci.interval is None
        assert ci.span > 0
        # the region is {theta: W_(l) <= ||tau (theta_hat - theta)||_inf
        # < W_(u)}: probe it along the first axis
        center = x.mean(axis=0)
        w_l, w_u = ci.resample_stats.values[0], ci.resample_stats.values[-1]
        e1 = np.eye(4)[0]
        assert ci.contains(center - 0.5 * (w_l + w_u) / tau * e1)
        assert not ci.contains(center - 0.5 * w_l / tau * e1)  # inside the hole
        assert not ci.contains(center - 2.0 * w_u / tau * e1)  # beyond the rim
        assert not ci.contains(center + 100.0)

    @pytest.mark.parametrize("alpha", [1e-9, 1 - 1e-9])
    @pytest.mark.parametrize("variant", ["vanilla", "modified"])
    def test_alpha_that_snaps_to_an_endpoint(self, alpha, variant):
        with pytest.raises(InvalidInput, match="alpha="):
            ci_boot(np.arange(1.0, 31.0), np.mean, B=19, alpha=alpha, variant=variant)


    @pytest.mark.parametrize("tau_m", [0.0, -1.0, math.inf, math.nan])
    def test_rate_must_be_finite_and_positive(self, tau_m):
        with pytest.raises(InvalidInput, match=r"tau_m must be a finite real in \(0, inf\)"):
            ci_boot(np.arange(1.0, 31.0), np.mean, tau_m=tau_m)


class TestCiSubsample:
    def test_full_subsample_collapses(self):
        x = np.arange(30.0)
        ci = ci_subsample(x, np.mean, tau_m=1.0, tau_k=1.0, k=30, B=19, alpha=0.1, seed=SeedSpec(0, 1))
        assert ci.span == 0.0

    def test_k_validation(self):
        with pytest.raises(InvalidInput):
            ci_subsample(np.arange(5.0), np.mean, k=9, B=19, alpha=0.1, seed=SeedSpec(0, 1))

    @pytest.mark.parametrize(
        "tau_m,tau_k", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -1.0), (1.0, math.inf), (1.0, math.nan)]
    )
    def test_rates_must_be_finite_and_positive(self, tau_m, tau_k):
        with pytest.raises(InvalidInput, match=r"tau_[mk] must be a finite real in \(0, inf\)"):
            ci_subsample(np.arange(30.0), np.mean, tau_m=tau_m, tau_k=tau_k, k=10, B=19, alpha=0.1)

    def test_max_setting_covers(self):
        x = setting_sampler(3, {"m": 200}, SeedSpec(8, 0))
        k = math.ceil(200 ** (2 / 3))
        ci = ci_subsample(
            x, np.max, tau_m=200.0, tau_k=float(k), k=k, B=19, alpha=0.1, seed=SeedSpec(8, 1)
        )
        assert ci.contains(1.0)
        assert ci.interval.hi >= 1.0 >= ci.interval.lo


class TestCiSgd:
    def test_per_coordinate_results(self):
        stream = setting_sampler(4, {"n": 900}, SeedSpec(10, 0))

        def grad(theta, point):
            x, y = point
            ind = 1.0 if (y - x @ theta) < 0.0 else 0.0
            return -(0.5 - ind) * x

        spec = SgdSpec(
            dim=3, gamma1=1.0, tau_exp=2 / 3, burn_in=200, n_total=900,
            gradient=grad, weight_law="exponential",
        )
        out = ci_sgd(stream, spec, B=19, alpha=0.1, seed=SeedSpec(10, 1))
        assert len(out) == 3
        for ci in out:
            assert ci.interval.hi > ci.interval.lo
            assert ci.contains(ci.interval.hi)
            assert not ci.contains(ci.interval.lo)
        # determinism
        out2 = ci_sgd(stream, spec, B=19, alpha=0.1, seed=SeedSpec(10, 1))
        assert out[0].interval.lo == out2[0].interval.lo


class TestSgdCells:
    """sgd_cells runs max(B) weighted paths once; each cell reads the
    first B and gets the bits of its own ci_sgd call."""

    CELLS = [
        (19, 0.1, "modified"),
        (29, 0.1, "vanilla"),
        (19, 0.1, "randomized"),
        (39, 0.05, "randomized"),
        (5, 0.2, "vanilla"),
    ]
    SEED = SeedSpec(10, stream_for(3, 1))

    @staticmethod
    def case():
        stream = setting_sampler(4, {"n": 600}, SeedSpec(10, stream_for(3, 0)))
        spec = SgdSpec(
            dim=3, gamma1=1.0, tau_exp=2 / 3, burn_in=100, n_total=600,
            gradient=_sgd_gradient, weight_law="exponential",
        )
        return stream, spec

    @pytest.mark.parametrize("batched", [False, True])
    def test_each_cell_is_its_own_call(self, batched):
        stream, spec = self.case()
        gb = _sgd_gradient_batch if batched else None
        grid = sgd_cells(stream, spec, self.CELLS, self.SEED, gradient_batch=gb)
        assert len(grid) == len(self.CELLS)
        for (B, alpha, variant), cis in zip(self.CELLS, grid):
            one = ci_sgd(stream, spec, B, alpha, variant, self.SEED, gradient_batch=gb)
            seeds = [None] + [SeedSpec(10, self.SEED.stream_id + b) for b in range(B)]
            paths = sgd_paths(spec, stream, np.zeros(3), seeds, gradient_batch=gb)
            assert len(cis) == len(one) == 3
            for j, (a, b) in enumerate(zip(cis, one)):
                assert np.array_equal(a.resample_stats.values, b.resample_stats.values)
                assert a.span == b.span and a.interval == b.interval and a.budget == b.budget
                assert a.rule == b.rule and a.randomized_branch == b.randomized_branch
                # the bits of a B+1-path run, inverted about 2 theta_bar
                assert np.array_equal(a.resample_stats.values, np.sort(paths[1:, j]))
                w_l = order_stat(a.resample_stats, a.rule.lower_rank)
                w_u = order_stat(a.resample_stats, a.rule.upper_rank)
                assert a.interval == Interval(2.0 * paths[0, j] - w_u, 2.0 * paths[0, j] - w_l)

    @pytest.mark.parametrize("B,alpha", [(19, 0.1), (19, 0.125), (59, 0.1), (59, 0.125)])  # TestCiBlock.PAPER_RANKS
    def test_thresholds_are_the_sorted_paths_at_the_papers_ranks(self, B, alpha):
        # each coordinate's W = the b-th scalar sgd_path, recomputed at a small n_total
        n, R = 40, 8
        spec = SgdSpec(
            dim=3, gamma1=1.0, tau_exp=2 / 3, burn_in=10, n_total=n,
            gradient=_sgd_gradient, weight_law="exponential",
        )
        master, firsts = TestCiBlock.MASTER, [stream_for(r, 1) for r in range(R)]
        variants = ("vanilla", "modified", "randomized")
        # per coordinate, replicate and cell: the ends 2 theta_bar - W_(l) and
        # 2 theta_bar - W_(u) of (2 theta_bar - W_(u), 2 theta_bar - W_(l)]
        hi, lo = np.empty((3, R, 3)), np.empty((3, R, 3))
        ends = [[] for _ in range(3)]  # 2 theta_bar - W_(i) for i = 1 .. B
        for r, first in enumerate(firsts):
            stream = setting_sampler(4, {"n": n}, SeedSpec(master, stream_for(r, 0)))
            cis = sgd_cells(stream, spec, [(B, alpha, v) for v in variants], SeedSpec(master, first))
            theta_bar = sgd_path(spec, stream, np.zeros(3))
            stars = np.array([sgd_path(spec, stream, np.zeros(3), SeedSpec(master, first + b)) for b in range(B)])
            for j in range(3):
                ends[j].append([2.0 * theta_bar[j] - w for w in np.sort(stars[:, j])])
                for i, ci in enumerate(cis):
                    hi[j, r, i], lo[j, r, i] = ci[j].interval.hi, ci[j].interval.lo
        for j in range(3):
            TestCiBlock.assert_paper_ranks(B, alpha, firsts, ends[j], hi[j], lo[j])

    def test_budget_checked_before_any_path(self, monkeypatch):
        stream, spec = self.case()
        monkeypatch.setattr(procedures, "sgd_paths", None)  # would raise if called
        with pytest.raises(BudgetTooSmall, match="randomized two-sided interval needs B >= 19"):
            sgd_cells(stream, spec, [(19, 0.1, "vanilla"), (5, 0.1, "randomized")])
        with pytest.raises(InvalidInput):
            sgd_cells(stream, spec, [])


class TestPermutation:
    def test_identity_observed_and_rules(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=8)

        def stat(d, perm):
            return float(d[perm][0])

        dec = permutation_test(data, stat, full_symmetric(8), B=50, alpha=0.1, seed=SeedSpec(1, 0))
        assert dec.statistic == pytest.approx(float(data[0]))
        assert dec.rule.rule_name == "permutation_sub"

    def test_full_group_sentinel_never_rejects(self):
        data = np.array([3.0, 1.0, 2.0, 0.5])
        G = full_symmetric(4)

        def stat(d, perm):
            return float(d[perm][0])

        dec = permutation_test(data, stat, G, B=24, alpha=0.05, seed=SeedSpec(2, 0))
        assert dec.rule.rule_name == "permutation_full"
        assert dec.threshold == math.inf
        assert not dec.reject

    def test_budget_cannot_exceed_group(self):
        with pytest.raises(InvalidInput):
            permutation_test(
                np.arange(3.0),
                lambda d, p: 0.0,
                full_symmetric(3),
                B=10,
                alpha=0.1,
                seed=SeedSpec(0, 0),
            )

    def test_type_one_matches_binomial_mixture(self):
        """With distinct exchangeable data the rejection probability is
        (1/|G|) sum_r P(Bin(B, r/|G|) >= k): rank of the observed value
        is uniform, and each with-replacement draw falls at or below it
        with probability r/|G|."""
        m, B, alpha = 3, 6, 0.5
        G = full_symmetric(m)
        k = math.ceil(B * (1 - alpha)) + 2  # = 5; full-group rule since B = |G|

        def stat(d, perm):
            # injective on S_3 for distinct data, so the observed rank is
            # uniform over {1..6}
            return float(d[perm][0] + 0.001 * d[perm][1])

        # P(Bin(B, r/6) >= k), averaged over the observed rank r
        exact = float(
            sum(
                math.comb(B, j) * Fraction(r, 6) ** j * (1 - Fraction(r, 6)) ** (B - j)
                for r in range(1, 7)
                for j in range(k, B + 1)
            )
            / 6
        )
        rejections = 0
        n = 4000
        for i in range(n):
            data = generator(SeedSpec(500 + i, 0)).normal(size=m)
            dec = permutation_test(data, stat, G, B=B, alpha=alpha, seed=SeedSpec(500 + i, 1))
            rejections += dec.reject
        rate = rejections / n
        sigma = math.sqrt(exact * (1 - exact) / n)
        assert abs(rate - exact) < 4.5 * sigma + 1e-9


class TestRandomization:
    def test_threshold_rank(self):
        x = generator(SeedSpec(3, 0)).normal(size=40)
        dec = randomization_test(x, mean_stat, "signflip", B=19, alpha=0.1, seed=SeedSpec(3, 1))
        assert dec.rule.upper_rank == 18
        assert dec.reject == (dec.statistic >= dec.threshold)

    def test_center_shift_equivalence(self):
        x = generator(SeedSpec(4, 0)).normal(size=30) + 2.0
        a = randomization_test(x, mean_stat, "signflip", B=19, alpha=0.1, center=2.0, seed=SeedSpec(4, 1))
        b = randomization_test(x - 2.0, mean_stat, "signflip", B=19, alpha=0.1, seed=SeedSpec(4, 1))
        assert a.statistic == b.statistic
        assert a.threshold == b.threshold
        assert a.reject == b.reject

    def test_explicit_transforms(self):
        x = np.arange(1.0, 9.0)
        dec = randomization_test(
            x, mean_stat, [lambda v: v, lambda v: -v], B=19, alpha=0.1, seed=SeedSpec(5, 1)
        )
        assert dec.threshold in (mean_stat(x), mean_stat(-x))
        with pytest.raises(InvalidInput):
            randomization_test(x, mean_stat, [], B=19, alpha=0.1, seed=SeedSpec(5, 1))

    def test_far_null_rejects(self):
        x = generator(SeedSpec(6, 0)).normal(size=50) + 5.0
        dec = randomization_test(x, mean_stat, "signflip", B=19, alpha=0.1, seed=SeedSpec(6, 1))
        assert dec.reject


class TestConformal:
    def test_split_rank_and_membership(self):
        scores = np.linspace(0.0, 1.0, 100)
        ps = conformal_set(scores, alpha=0.1, variant="split")
        assert ps.rule.upper_rank == 91
        assert ps.threshold == pytest.approx(float(np.sort(scores)[90]))
        assert ps.contains_score(ps.threshold)
        assert not ps.contains_score(ps.threshold + 1e-9)

    def test_modified_rank(self):
        scores = np.linspace(0.0, 1.0, 100)
        ps = conformal_set(scores, alpha=0.1, variant="modified")
        assert ps.rule.upper_rank == 95

    def test_sentinel_threshold(self):
        ps = conformal_set(np.arange(5.0), alpha=0.1, variant="split")
        assert ps.threshold == math.inf
        assert ps.contains_score(1e9)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            conformal_set(np.arange(5.0), alpha=0.1, variant="jackknife")
        with pytest.raises(InvalidInput):
            conformal_set([], alpha=0.1)


class TestResampleStreams:
    """Each procedure reads resample b from stream seed.stream_id + b,
    exactly as one single-stream draw per resample would."""

    SEED = SeedSpec(20260823, 2**32 - 7)  # the block crosses into two-word stream ids

    def child(self, b):
        return SeedSpec(self.SEED.master_seed, self.SEED.stream_id + b)

    def test_ci_boot_and_subsample_roots(self):
        x = generator(SeedSpec(1, 0)).exponential(size=40)
        B, k = 19, 12
        boot = [np.mean(x[bootstrap_indices(40, self.child(b))]) - np.mean(x) for b in range(B)]
        sub = [np.mean(x[subsample_indices(40, k, self.child(b))]) - np.mean(x) for b in range(B)]
        ci = ci_boot(x, np.mean, B=B, seed=self.SEED)
        assert np.array_equal(ci.resample_stats.values, np.sort(boot))
        ci = ci_subsample(x, np.mean, k=k, B=B, seed=self.SEED)
        assert np.array_equal(ci.resample_stats.values, np.sort(sub))

    def test_test_statistics(self):
        x = np.arange(1.0, 11.0)
        seen = []

        def first(v, perm=None):
            value = float(v[0] if perm is None else v[perm][0])
            seen.append(value)
            return value

        G = full_symmetric(10)
        permutation_test(x, first, G, B=19, alpha=0.1, seed=self.SEED)
        assert seen[1:] == [float(x[permutation_draw(G, self.child(b))][0]) for b in range(19)]
        seen.clear()
        randomization_test(x, first, "signflip", B=19, alpha=0.1, seed=self.SEED)
        assert seen[1:] == [float(signflip_transform(x, self.child(b))[0]) for b in range(19)]
        seen.clear()
        shifts = [lambda v, i=i: v + 100.0 * i for i in range(4)]
        randomization_test(x, first, shifts, B=19, alpha=0.1, seed=self.SEED)
        picks = [int(generator(self.child(b)).integers(0, 4)) for b in range(19)]
        assert seen[1:] == [1.0 + 100.0 * i for i in picks]


def _mean_rows(s):
    return s.mean(axis=1)


def _max_rows(s):
    return s.max(axis=1)


def _sup_norm(v):
    return float(np.max(np.abs(v)))


class TestEstimatorBatch:
    """ci_boot/ci_subsample with an estimator_batch give the bits of the
    scalar estimator loop."""

    # setting -> (sampler params, estimator, batched estimator, root)
    SETTINGS = {
        1: ({"m": 100}, np.mean, _mean_rows, None),
        2: ({"m": 400, "d": 20}, lambda a: a.mean(axis=0), _mean_rows, _sup_norm),
        3: ({"m": 100}, np.max, _max_rows, None),
    }

    def assert_same(self, a, b):
        assert np.array_equal(a.resample_stats.values, b.resample_stats.values)
        assert a.span == b.span
        assert a.interval == b.interval
        assert a.rule == b.rule and a.randomized_branch == b.randomized_branch

    @pytest.mark.parametrize("setting", [1, 2, 3])
    @pytest.mark.parametrize("B", [5, 19, 199])
    def test_bit_equal_to_scalar_loop(self, setting, B):
        params, est, batch, root = self.SETTINGS[setting]
        x = setting_sampler(setting, params, SeedSpec(20260823, stream_for(B, 0)))
        m = params["m"]
        k = math.ceil(m ** (2 / 3))
        rate = float(m) if setting == 3 else math.sqrt(m)
        sub_rate = float(k) if setting == 3 else math.sqrt(k)
        kw = dict(root=root, tau_m=rate, B=B, alpha=0.1, seed=SeedSpec(20260823, stream_for(B, 1)))
        kw["variant"] = "vanilla" if B == 5 else "randomized"
        theta = setting_truth(setting, params)
        for ci, extra in ((ci_boot, {}), (ci_subsample, {"tau_k": sub_rate, "k": k})):
            loop = ci(x, est, **kw, **extra)
            batched = ci(x, est, estimator_batch=batch, **kw, **extra)
            self.assert_same(loop, batched)
            assert loop.contains(theta) == batched.contains(theta)

    def test_blocks_stay_under_the_gather_cap(self, monkeypatch):
        x = setting_sampler(2, {"m": 50, "d": 3}, SeedSpec(3, 0))
        kw = dict(root=_sup_norm, tau_m=math.sqrt(50), B=19, seed=SeedSpec(3, 1))
        est = lambda a: a.mean(axis=0)
        want = ci_boot(x, est, **kw)
        sizes = []

        def batch(s):
            sizes.append(s.nbytes)
            return s.mean(axis=1)

        monkeypatch.setattr(procedures, "_GATHER_BYTES", 4 * 50 * 3 * 8)
        self.assert_same(ci_boot(x, est, estimator_batch=batch, **kw), want)
        assert len(sizes) == 5 and max(sizes) <= procedures._GATHER_BYTES

    def test_nan_row_names_its_resample(self):
        x = np.arange(1.0, 31.0)

        def batch(s):
            out = s.mean(axis=1)
            out[6] = np.nan
            return out

        with pytest.raises(NumericalFailure) as err:
            ci_boot(x, np.mean, B=19, seed=SeedSpec(4, 0), estimator_batch=batch)
        assert err.value.step == 7
        with pytest.raises(NumericalFailure) as err:
            ci_subsample(x, np.mean, k=10, B=19, seed=SeedSpec(4, 0), estimator_batch=batch)
        assert err.value.step == 7

    def test_raising_batch_falls_back_to_the_scalar_loop(self):
        x = np.arange(1.0, 31.0)
        calls = []

        def est(a):
            calls.append(1)
            if len(calls) == 4:  # theta_hat, then resamples 1, 2, 3
                raise ValueError("boom")
            return float(np.mean(a))

        def batch(s):
            raise RuntimeError("no batch today")

        with pytest.raises(NumericalFailure) as err:
            ci_boot(x, est, B=19, seed=SeedSpec(4, 0), estimator_batch=batch)
        assert err.value.step == 3
        ok = ci_boot(x, np.mean, B=19, seed=SeedSpec(4, 0), estimator_batch=batch)
        self.assert_same(ok, ci_boot(x, np.mean, B=19, seed=SeedSpec(4, 0)))

    def test_wrong_batch_length_is_rejected(self):
        # a scalar estimate wants exactly (B,): not (m,), (B, 2), (B, 1) or (B - 1,)
        wrong = [
            lambda s: s.mean(axis=0),
            lambda s: np.stack([s.mean(axis=1)] * 2, axis=1),
            lambda s: s.mean(axis=1)[:, None],
            lambda s: s.mean(axis=1)[1:],
        ]
        for batch in wrong:
            with pytest.raises(InvalidInput, match="estimator_batch"):
                ci_boot(np.arange(1.0, 31.0), np.mean, B=19, estimator_batch=batch)

    @pytest.mark.parametrize("wrong_from", [1, 2])
    def test_wrong_block_shape_is_rejected_in_every_block(self, monkeypatch, wrong_from):
        # four rows a block: blocks of 4, 4, 4, 4 and 3 resamples; block
        # wrong_from on gives a 0-d result, which the scalar loop must not hide
        monkeypatch.setattr(procedures, "_GATHER_BYTES", 4 * 30 * 8)
        calls = []

        def batch(s):
            calls.append(1)
            return s.mean() if len(calls) >= wrong_from else s.mean(axis=1)

        with pytest.raises(InvalidInput, match=r"estimator_batch gave shape \(\), expected \(4,\)"):
            ci_boot(np.arange(1.0, 31.0), np.mean, B=19, estimator_batch=batch)
        assert len(calls) == wrong_from


class TestCiCells:
    """ci_cells serves every cell from one draw of max(B) resamples;
    cell i has the bits of its own ci_boot / ci_subsample call."""

    CELLS = [
        (19, 0.1, "vanilla"),
        (199, 0.1, "modified"),
        (19, 0.2, "randomized"),
        (59, 0.1, "randomized"),
        (59, 0.05, "vanilla"),
        (19, 0.1, "modified"),
    ]

    def assert_same(self, a, b):
        assert np.array_equal(a.resample_stats.values, b.resample_stats.values)
        assert a.span == b.span and a.interval == b.interval and a.budget == b.budget
        assert a.rule == b.rule and a.randomized_branch == b.randomized_branch

    def test_first_rows_of_a_larger_draw(self):
        # the index rows as _ci_block draws them, from keys derived in one pass
        master, sid = 20260823, stream_for(3, 1)

        def keys(count):
            return _philox_keys(master, _stream_ids([sid], count))

        assert np.array_equal(
            _bounded_from(master, _stream_ids([sid], 199), keys(199), 100, 100)[:19],
            _bounded_rows(master, [sid], 19, 100, 100),
        )
        assert np.array_equal(
            np.sort(_shuffled_from(keys(59), 100)[:, :22], axis=1)[:19],
            np.sort(_shuffled_from(keys(19), 100)[:, :22], axis=1),
        )

    @pytest.mark.parametrize("setting", [1, 2, 3])
    @pytest.mark.parametrize("batched", [False, True])
    def test_each_cell_is_its_own_call(self, setting, batched):
        params, est, batch, root = TestEstimatorBatch.SETTINGS[setting]
        params = {**params, "m": 60}
        x = setting_sampler(setting, params, SeedSpec(5, stream_for(setting, 0)))
        seed = SeedSpec(5, stream_for(setting, 1))
        kw = dict(root=root, tau_m=7.0, seed=seed, estimator_batch=batch if batched else None)
        theta = setting_truth(setting, params)
        boot = ci_cells(x, est, self.CELLS, **kw)
        sub = ci_cells(x, est, self.CELLS, k=15, tau_k=3.0, **kw)
        for (B, alpha, variant), b, s in zip(self.CELLS, boot, sub):
            one = dict(B=B, alpha=alpha, variant=variant, **kw)
            self.assert_same(b, ci_boot(x, est, **one))
            self.assert_same(s, ci_subsample(x, est, k=15, tau_k=3.0, **one))
            assert b.contains(theta) == ci_boot(x, est, **one).contains(theta)

    def test_budget_checked_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(procedures, "bootstrap_indices", None)  # would raise if called
        x = np.arange(1.0, 31.0)
        with pytest.raises(BudgetTooSmall) as err:
            ci_cells(x, np.mean, [(19, 0.1, "vanilla"), (5, 0.1, "randomized")])
        assert str(err.value) == "randomized two-sided interval needs B >= 19 at alpha=0.1"

    def test_bad_cells(self):
        x = np.arange(1.0, 31.0)
        with pytest.raises(InvalidInput):
            ci_cells(x, np.mean, [])
        with pytest.raises(InvalidInput):
            ci_cells(x, np.mean, [(19, 0.1, "median")])
        with pytest.raises(InvalidInput):
            ci_cells(x, np.mean, [(19, 0.1, "vanilla")], k=31)

    def test_vector_estimate_needs_a_root(self):
        x = setting_sampler(2, {"m": 30, "d": 3}, SeedSpec(3, 0))
        for batch in (None, _mean_rows):
            with pytest.raises(InvalidInput, match="needs a root"):
                ci_cells(x, lambda a: a.mean(axis=0), [(19, 0.1, "modified")], estimator_batch=batch)

    def test_a_bad_root_beyond_a_small_cell_fails_the_call(self):
        # the roots are formed once for max(B): resample 31 breaks the
        # B=59 cell, and with it the call that also serves B=19
        def batch(s):
            out = s.mean(axis=1)
            if len(out) > 30:
                out[30] = np.nan
            return out

        x = np.arange(1.0, 31.0)
        cells = [(19, 0.1, "modified"), (59, 0.1, "modified")]
        with pytest.raises(NumericalFailure) as err:
            ci_cells(x, np.mean, cells, estimator_batch=batch)
        assert err.value.step == 31
        (ok,) = ci_cells(x, np.mean, cells[:1], estimator_batch=batch)
        self.assert_same(ok, ci_boot(x, np.mean, B=19))


class TestCiBlock:
    """The CI block kernel over R replicates: replicate r of every cell is
    bit for bit its own ci_cells call, and an error is the first failing
    replicate's."""

    MASTER = 20260823
    FIRSTS = [stream_for(r, 1) for r in (0, 1, 5, 6)] + [2**32 - 3]  # a two-word stream id too
    assert_same = TestCiCells.assert_same

    def data(self, setting, params):
        return [setting_sampler(setting, params, SeedSpec(self.MASTER, f - 1)) for f in self.FIRSTS]

    @pytest.mark.parametrize("setting", [1, 2, 3])
    @pytest.mark.parametrize("k", [None, 15])
    @pytest.mark.parametrize("batched", [False, True])
    def test_each_replicate_is_its_own_call(self, setting, k, batched):
        params, est, batch, root = TestEstimatorBatch.SETTINGS[setting]
        params = {**params, "m": 60}
        xs = self.data(setting, params)
        theta = setting_truth(setting, params)
        kw = dict(root=root, tau_m=7.0, estimator_batch=batch if batched else None, k=k, tau_k=3.0)
        cells = TestCiCells.CELLS
        block = procedures._ci_block(
            np.stack(xs), est, cells, root, 7.0, self.MASTER, self.FIRSTS, kw["estimator_batch"], k, 3.0
        )
        covers, span = block.covers(theta), block.span
        assert covers.shape == span.shape == (len(xs), len(cells))
        for r, (x, first) in enumerate(zip(xs, self.FIRSTS)):
            alone = ci_cells(x, est, cells, seed=SeedSpec(self.MASTER, first), **kw)
            for i, ci in enumerate(alone):
                self.assert_same(block.result(r, i), ci)
                assert covers[r, i] == ci.contains(theta) and span[r, i] == ci.span

    def test_rules_and_uniforms_are_resolved_once_per_block(self, monkeypatch):
        calls = {"tau": 0, "rows": 0}
        tau, rows = procedures.tau_randomization, procedures._stream_rows

        def counting_tau(budget):
            calls["tau"] += 1
            return tau(budget)

        def counting_rows(*args):
            calls["rows"] += 1
            return rows(*args)

        monkeypatch.setattr(procedures, "tau_randomization", counting_tau)
        monkeypatch.setattr(procedures, "_stream_rows", counting_rows)
        xs = np.stack(self.data(1, {"m": 40}))
        cells = [(19, 0.1, "randomized"), (21, 0.25, "randomized"), (59, 0.1, "modified")]
        block = procedures._ci_block(xs, np.mean, cells, None, 1.0, self.MASTER, self.FIRSTS)
        assert calls == {"tau": 2, "rows": 1}
        branches = [block.result(r, 1).randomized_branch for r in range(len(xs))]
        assert {b.took_ceil for b in branches} == {True, False}  # tau is 1/2 at B = 21, alpha = 1/4
        names = {block.result(r, 1).rule.rule_name for r in range(len(xs))}
        assert names == {"mod_two_sided", "mod_two_sided_floor"}
        for r, b in enumerate(branches):
            assert b.u == generator(SeedSpec(self.MASTER, self.FIRSTS[r] + 21)).random()

    # literal (lower, upper) ranks of the paper's formulas: vanilla
    # (ceil(B a / 2), ceil(B (1 - a / 2))); with l = floor((B + 1) a / 2),
    # modified and the randomized ceiling branch (l, ceil((B + 1)(1 - a)) + l),
    # the randomized floor branch (l, floor((B + 1)(1 - a)) + l)
    PAPER_RANKS = {
        (19, 0.1): {"vanilla": (1, 19), "ceil": (1, 19), "floor": (1, 19)},
        (59, 0.1): {"vanilla": (3, 57), "ceil": (3, 57), "floor": (3, 57)},
        (19, 0.125): {"vanilla": (2, 18), "ceil": (1, 19), "floor": (1, 18)},
        (59, 0.125): {"vanilla": (4, 56), "ceil": (3, 56), "floor": (3, 55)},
    }
    # the fractional part of (B + 1)(1 - a), or 1 when it is 0
    TAU = {0.1: 1.0, 0.125: 0.5}

    @pytest.mark.parametrize("B,alpha", sorted(PAPER_RANKS))
    def test_thresholds_are_the_sorted_roots_at_the_papers_ranks(self, B, alpha):
        # setting 1's bootstrap roots recomputed from scalar draws
        m, R = 40, 8
        firsts = [stream_for(r, 1) for r in range(R)]
        xs = np.stack([setting_sampler(1, {"m": m}, SeedSpec(self.MASTER, stream_for(r, 0))) for r in range(R)])
        variants = ("vanilla", "modified", "randomized")
        block = procedures._ci_block(
            xs, np.mean, [(B, alpha, v) for v in variants], None, math.sqrt(m), self.MASTER, firsts
        )
        roots = [
            sorted(
                math.sqrt(m) * (np.mean(x[bootstrap_indices(m, SeedSpec(self.MASTER, first + b))]) - np.mean(x))
                for b in range(B)
            )
            for x, first in zip(xs, firsts)
        ]
        self.assert_paper_ranks(B, alpha, firsts, roots, block.w_l, block.w_u)

    @classmethod
    def assert_paper_ranks(cls, B, alpha, firsts, roots, w_l, w_u):
        """Row r of the (R, 3) thresholds of the vanilla, modified and
        randomized cells is roots[r] (a value per rank 1 .. B) at the
        paper's ranks, under the branch of the uniform from stream
        firsts[r] + B; at tau < 1 both branches are taken."""
        ranks = cls.PAPER_RANKS[B, alpha]
        branches = set()
        for r, first in enumerate(firsts):
            u = generator(SeedSpec(cls.MASTER, first + B)).random()
            branch = "ceil" if u <= cls.TAU[alpha] else "floor"
            branches.add(branch)
            for i, key in enumerate(("vanilla", "ceil", branch)):
                lower, upper = ranks[key]
                assert (w_l[r, i], w_u[r, i]) == (roots[r][lower - 1], roots[r][upper - 1])
        assert branches == ({"ceil"} if cls.TAU[alpha] == 1.0 else {"ceil", "floor"})

    @pytest.mark.parametrize("setting, estimator", [(1, np.mean), (3, np.max)])
    @pytest.mark.parametrize("B,alpha", sorted(PAPER_RANKS))
    def test_subsample_thresholds_are_the_sorted_roots_at_the_papers_ranks(self, setting, estimator, B, alpha):
        # the subsample roots at rate tau_k recomputed from scalar draws
        m, k, R = 40, 9, 8
        tau_k = math.sqrt(k) if setting == 1 else float(k)
        firsts = [stream_for(r, 1) for r in range(R)]
        xs = np.stack(
            [setting_sampler(setting, {"m": m}, SeedSpec(self.MASTER, stream_for(r, 0))) for r in range(R)]
        )
        variants = ("vanilla", "modified", "randomized")
        block = procedures._ci_block(
            xs, estimator, [(B, alpha, v) for v in variants], None, 1.0, self.MASTER, firsts, k=k, tau_k=tau_k
        )
        roots = [
            sorted(
                tau_k * (estimator(x[subsample_indices(m, k, SeedSpec(self.MASTER, first + b))]) - estimator(x))
                for b in range(B)
            )
            for x, first in zip(xs, firsts)
        ]
        self.assert_paper_ranks(B, alpha, firsts, roots, block.w_l, block.w_u)

    def test_an_error_is_the_first_failing_replicates(self):
        # the block runner of the harness, on replicates 0, 1 and 5:
        # replicate 1's subsamples that hold -1000 have a NaN estimate;
        # replicate 5's estimate on its full sample raises, which the
        # block meets first, but a loop over replicates meets replicate 1
        def est(a):
            if a.size == 30 and a[0] == 999.0:
                raise ValueError("bad sample")
            return math.nan if -1000.0 in a else float(np.mean(a))

        def run_cells(data, cells, master, rs):
            for x, r in zip(data, rs):
                if r == 1:
                    x[4] = -1000.0
                elif r == 5:
                    x[0] = 999.0
            firsts = [stream_for(r, 1) for r in rs]
            block = procedures._ci_block(data, est, cells, None, 1.0, master, firsts, k=10)
            return block.covers(0.2), block.span

        x1 = self.data(1, {"m": 30})[1]
        x1[4] = -1000.0
        with pytest.raises(NumericalFailure) as want:
            ci_subsample(x1, est, k=10, B=19, seed=SeedSpec(self.MASTER, self.FIRSTS[1]))
        draw, cells = _setting_draw(1, {"m": 30}), [(19, 0.1, "modified")]
        with pytest.raises(NumericalFailure) as got:
            harness._replicate_block(self.MASTER, cells, [0, 1, 5], draw, run_cells)
        assert (str(got.value), got.value.step) == (str(want.value), want.value.step)
        assert str(got.value).startswith("non-finite resample root on resample ")
        with pytest.raises(ValueError, match="bad sample"):
            harness._replicate_block(self.MASTER, cells, [5], draw, run_cells)


class TestRandomizedBranchDraw:
    """A randomized cell at budget B draws its uniform from stream
    seed.stream_id + B; the batched draw keeps the bits of
    ``generator(...).random()``."""

    # (B, alpha) -> (u, tau, took_ceil) at SeedSpec(20260823, stream_for(3, 1))
    PINNED = {
        (19, 0.1): (0.6795100964773472, 1.0, True),
        (21, 0.1): (0.8295873312078923, 0.8, False),
        (199, 0.05): (0.7569584522216861, 1.0, True),
        (1000, 0.1): (0.19630886047571328, 0.9, True),
    }

    def test_pinned_uniforms(self):
        seed = SeedSpec(20260823, stream_for(3, 1))
        x = np.arange(1.0, 31.0)
        cells = [(B, alpha, "randomized") for B, alpha in self.PINNED]
        mixed = [cells[0], (59, 0.1, "modified"), *cells[1:], (19, 0.1, "vanilla")]
        cis = ci_cells(x, np.mean, mixed, seed=seed)
        got = [ci.randomized_branch for ci in cis if ci.randomized_branch is not None]
        assert [(b.u, b.tau, b.took_ceil) for b in got] == list(self.PINNED.values())
        for (B, alpha), branch in zip(self.PINNED, got):
            assert branch.u == generator(SeedSpec(seed.master_seed, seed.stream_id + B)).random()
            alone = ci_boot(x, np.mean, B=B, alpha=alpha, variant="randomized", seed=seed)
            assert alone.randomized_branch == branch
        assert cis[2].rule.rule_name == "mod_two_sided_floor"


class TestCiRule:
    def test_an_empty_floor_branch_fails_the_budget_check(self, monkeypatch):
        # at B = 3, alpha = 0.9 the ceiling branch is [1, 2) and the floor
        # branch is empty, so a randomized cell cannot run whatever its draw
        budget = BudgetSpec(3, 0.9)
        assert ci_rule(budget, "modified").rule_name == "mod_two_sided"
        with pytest.raises(BudgetTooSmall) as err:
            ci_rule(budget, "randomized")
        assert str(err.value) == "randomized two-sided interval's floor branch needs B >= 9 at alpha=0.9"
        assert err.value.min_b == 9
        with pytest.raises(BudgetTooSmall):
            ci_rule(BudgetSpec(8, 0.9), "randomized")
        assert ci_rule(BudgetSpec(9, 0.9), "randomized").rule_name == "mod_two_sided"
        monkeypatch.setattr(procedures, "_stream_rows", None)  # would raise if called
        monkeypatch.setattr(procedures, "_philox_keys", None)
        for sid in range(40):
            with pytest.raises(BudgetTooSmall) as alone:
                ci_boot(np.arange(1.0, 31.0), np.mean, B=3, alpha=0.9, variant="randomized", seed=SeedSpec(7, sid))
            assert (str(alone.value), alone.value.min_b) == (str(err.value), 9)

    def test_rules_and_skip_messages(self):
        from fixedb.orderstats import BudgetSpec, index_rule

        b19 = BudgetSpec(19, 0.1)
        assert ci_rule(b19, "vanilla") == index_rule(b19, "vanilla_two_sided")
        assert ci_rule(b19, "modified") == index_rule(b19, "mod_two_sided")
        assert ci_rule(b19, "randomized") == index_rule(b19, "mod_two_sided")
        for variant in ("modified", "randomized"):
            with pytest.raises(BudgetTooSmall) as err:
                ci_rule(BudgetSpec(18, 0.1), variant)
            assert err.value.min_b == 19
            with pytest.raises(BudgetTooSmall) as alone:
                ci_boot(np.arange(1.0, 31.0), np.mean, B=18, variant=variant)
            assert str(err.value) == str(alone.value)
        with pytest.raises(BudgetTooSmall):
            ci_rule(BudgetSpec(1, 0.1), "vanilla")
        with pytest.raises(InvalidInput):
            ci_rule(b19, "median")


class TestTestRule:
    def test_rules_and_errors(self):
        b19 = BudgetSpec(19, 0.1)
        assert procedures.test_rule(b19, "signflip").rule_name == "randomization"
        assert procedures.test_rule(b19, [abs]).rule_name == "randomization"
        G = full_symmetric(4)
        assert procedures.test_rule(b19, G).rule_name == "permutation_sub"
        assert procedures.test_rule(BudgetSpec(24, 0.1), G).rule_name == "permutation_full"
        with pytest.raises(InvalidInput, match=r"B=25 exceeds \|G\|=24; draws come from G"):
            procedures.test_rule(BudgetSpec(25, 0.1), G)
        with pytest.raises(BudgetTooSmall) as err:
            procedures.test_rule(BudgetSpec(5, 0.1), "signflip")
        with pytest.raises(BudgetTooSmall) as alone:
            randomization_test(np.ones(5), mean_stat, B=5)
        assert str(err.value) == str(alone.value)


class TestExplicitTransformDraw:
    """The explicit-transform randomization test picks transform
    generator(stream b).integers(0, len(transforms)) for resample b,
    one Lemire draw per stream."""

    @pytest.mark.parametrize("L", [1, 2, 3, 5, 7, 8, 100, 1000])
    def test_one_index_per_stream(self, L):
        seed = SeedSpec(11, 2**40)
        shifts = [partial(np.add, float(j)) for j in range(L)]
        seen = []

        def first_entry(x):
            seen.append(float(x[0]))
            return float(x.sum())

        real = procedures._bounded_rows
        with mock.patch.object(procedures, "_bounded_rows", wraps=real) as rows:
            randomization_test(np.zeros(4), first_entry, shifts, B=19, seed=seed)
        assert rows.call_args.args == (11, [2**40], 19, L, 1)
        want = [int(generator(SeedSpec(11, 2**40 + b)).integers(0, L)) for b in range(19)]
        assert seen == [0.0] + want

    @pytest.mark.parametrize("L", [7, 2**20 + 3])
    def test_wide_lists_match_the_scalar_draw(self, L):
        picks = procedures._bounded_rows(5, [2**40], 9, L, 1)[:, 0]
        want = [generator(SeedSpec(5, 2**40 + b)).integers(0, L) for b in range(9)]
        assert picks.tolist() == want


class TestStatisticBatch:
    """permutation_test and the sign-flip randomization_test with a
    statistic_batch give the bits of the scalar statistic loop."""

    @staticmethod
    def assert_same(a, b):
        assert a == b
        assert np.float64(a.threshold).tobytes() == np.float64(b.threshold).tobytes()

    @staticmethod
    def perm_case(m, seed):
        gen = generator(SeedSpec(seed, stream_for(m, 0)))
        data = (gen.standard_normal(m), gen.standard_normal(m))
        G = full_symmetric(m)
        return data, G, min(99, G.size), SeedSpec(seed, stream_for(m, 1))

    @pytest.mark.parametrize("m", [2, 7, 30, 129, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 20260823, 4177])
    def test_bit_equal_to_scalar_loop(self, m, seed):
        data, G, B, proc_seed = self.perm_case(m, seed)
        firsts = [proc_seed.stream_id]
        perms = procedures._permutation_rows(seed, firsts, B, G)
        want = np.array([_corr_statistic(data, perm) for perm in perms])
        assert _corr_statistic_batch(data, perms).tobytes() == want.tobytes()
        flips = data[0] * (1 - 2 * procedures._bounded_rows(seed, firsts, 99, 2, m))
        want = np.array([_mean_statistic(row) for row in flips])
        assert _mean_statistic_batch(flips).tobytes() == want.tobytes()
        loop = permutation_test(data, _corr_statistic, G, B, 0.1, seed=proc_seed)
        batched = permutation_test(
            data, _corr_statistic, G, B, 0.1, seed=proc_seed, statistic_batch=_corr_statistic_batch
        )
        self.assert_same(loop, batched)
        x = data[0] + 0.1
        for B in (19, 99):
            loop = randomization_test(x, _mean_statistic, "signflip", B, 0.1, seed=proc_seed)
            batched = randomization_test(
                x, _mean_statistic, "signflip", B, 0.1, seed=proc_seed,
                statistic_batch=_mean_statistic_batch,
            )
            self.assert_same(loop, batched)

    def test_raising_batch_falls_back_to_the_scalar_loop(self):
        data, G, B, proc_seed = self.perm_case(30, 5)
        calls = []

        def counted(*args):
            calls.append(1)
            return _corr_statistic(*args)

        def batch(*args):
            raise RuntimeError("no batch today")

        want = permutation_test(data, _corr_statistic, G, B, 0.1, seed=proc_seed)
        got = permutation_test(data, counted, G, B, 0.1, seed=proc_seed, statistic_batch=batch)
        self.assert_same(got, want)
        assert len(calls) == B + 1
        x = data[0]
        want = randomization_test(x, _mean_statistic, "signflip", 19, 0.1, seed=proc_seed)
        got = randomization_test(
            x, _mean_statistic, "signflip", 19, 0.1, seed=proc_seed, statistic_batch=batch
        )
        self.assert_same(got, want)

    @pytest.mark.parametrize("shape", [(18,), (19, 1), (1, 19), (), (19, 2)])
    def test_wrong_batch_shape_is_rejected(self, shape):
        data, G, _, proc_seed = self.perm_case(30, 5)

        def batch(*args):
            return np.zeros(shape)

        with pytest.raises(InvalidInput, match="statistic_batch"):
            permutation_test(data, _corr_statistic, G, 19, 0.1, seed=proc_seed, statistic_batch=batch)
        with pytest.raises(InvalidInput, match="statistic_batch"):
            randomization_test(data[0], _mean_statistic, "signflip", 19, 0.1, statistic_batch=batch)

    def test_observed_statistics_come_from_the_batch(self):
        # one sign-flip call on the (R, m) samples; a public permutation
        # hook once per test at its identity permutation, then on its B draws
        R, m, B = 5, 12, 19
        xs = generator(SeedSpec(3, 0)).standard_normal((R, m))
        firsts = [stream_for(r, 1) for r in range(R)]
        seen = []

        def batch(*args):
            seen.append(args[-1].shape)
            return (_mean_statistic_batch if len(args) == 1 else _corr_statistic_batch)(*args)

        want = rank_test_block(xs, _mean_statistic, "signflip", B, 0.1, 3, firsts)
        got = rank_test_block(xs, _mean_statistic, "signflip", B, 0.1, 3, firsts, batch)
        assert seen == [(R, m), (R * B, m)]
        assert got.threshold.tobytes() == want.threshold.tobytes()
        assert got.statistic.tobytes() == want.statistic.tobytes()
        seen.clear()
        data, G = [(x, x[::-1]) for x in xs], full_symmetric(m)
        want = rank_test_block(data, _corr_statistic, G, B, 0.1, 3, firsts)
        got = rank_test_block(data, _corr_statistic, G, B, 0.1, 3, firsts, batch)
        assert seen == [(1, m)] * R + [(B, m)] * R
        assert got.threshold.tobytes() == want.threshold.tobytes()
        assert got.statistic.tobytes() == want.statistic.tobytes()

    def test_explicit_transforms_ignore_the_batch(self):
        def never(*args):
            raise AssertionError("statistic_batch must not be called here")

        x = np.arange(1.0, 11.0) - 5.0
        shifts = [lambda v, i=i: v + 0.5 * i for i in range(4)] + [lambda v: -v]
        want = randomization_test(x, _mean_statistic, shifts, B=19, alpha=0.1, seed=SeedSpec(3, 0))
        got = randomization_test(
            x, _mean_statistic, shifts, B=19, alpha=0.1, seed=SeedSpec(3, 0), statistic_batch=never
        )
        self.assert_same(got, want)


class TestRowAlignedScoring:
    """The harness scores a round's permutations of all its open tests in
    one call of a row-aligned scorer, which pairs each row with its own
    test's data and gives the bits of the scalar statistic."""

    MASTER = 20260823

    @given(st.data())
    def test_row_aligned_scorer_is_the_scalar_statistic_on_every_row(self, data):
        m = data.draw(st.sampled_from([2, 3, 30, 129]))
        R = data.draw(st.integers(1, 44))
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):  # tied data, constant samples included
            xy = gen.integers(-1, 2, size=(R, 2, m)).astype(float)
        else:
            xy = gen.standard_normal((R, 2, m))
        # test-major rows: n resamples of each of some of the tests, in order
        tests = np.repeat(np.flatnonzero(gen.random(R) < 0.7), data.draw(st.integers(1, 5)))
        perms = np.argsort(gen.random((len(tests), m)), axis=1)
        with np.errstate(all="ignore"):
            got = _corr_statistic_rows(xy, tests, perms)
            want = np.array([_corr_statistic(xy[i], perm) for i, perm in zip(tests, perms)])
        assert got.shape == (len(tests),)
        assert got.tobytes() == want.tobytes()
        # the public hook is its one-test case
        if len(tests):
            with np.errstate(all="ignore"):
                one = _corr_statistic_batch((xy[tests[0], 0], xy[tests[0], 1]), perms)
                want = np.array([_corr_statistic(xy[tests[0]], perm) for perm in perms])
            assert one.tobytes() == want.tobytes()

    @staticmethod
    def block(R=4, m=8):
        data = generator(SeedSpec(TestRowAlignedScoring.MASTER, 7)).standard_normal((R, 2, m))
        return data, full_symmetric(m), [stream_for(r, 1) for r in range(R)]

    def test_raising_scorer_falls_back_to_the_scalar_loop(self):
        data, G, firsts = self.block()
        cells = [(19, 0.2), (39, 0.1)]
        calls, drawn = [], []

        def counted(*args):
            calls.append(1)
            return _corr_statistic(*args)

        def raising(*args):
            raise RuntimeError("no scorer today")

        real = procedures._RankTests.draws

        def recording(tests, rows, lo, n):
            drawn.append(len(rows) * n)
            return real(tests, rows, lo, n)

        want = procedures._curtailed_rejects(data, _corr_statistic, G, cells, self.MASTER, firsts, _corr_statistic_rows)
        with mock.patch.object(procedures._RankTests, "draws", recording):
            got = procedures._curtailed_rejects(data, counted, G, cells, self.MASTER, firsts, raising)
        assert np.array_equal(got, want)
        assert len(calls) == len(data) + sum(drawn)  # the observed values, then every drawn resample

    def test_scalar_failure_names_the_first_failing_row_in_round_order(self):
        # B 19 and 39 at alpha 0.2: k = 16 and 32, so the first round draws
        # resamples 1..4 of every test; tests 1 and 2 fail on a resample
        # that moves entry 0, and test 1's first such resample is named
        data, G, firsts = self.block()
        cells = [(19, 0.2), (39, 0.2)]
        data[1:3, 0, 0] = 7.0

        def statistic(d, perm):
            if d[0, 0] == 7.0 and perm[0] != 0:
                raise ValueError("boom")
            return _corr_statistic(d, perm)

        def raising(*args):
            raise RuntimeError("no scorer today")

        perms = procedures._permutation_rows(self.MASTER, [firsts[1]], 4, G)
        b = next(b for b in range(4) if perms[b, 0] != 0)
        with pytest.raises(NumericalFailure) as err:
            procedures._curtailed_rejects(data, statistic, G, cells, self.MASTER, firsts, raising)
        assert err.value.step == 1 * 39 + b + 1
        assert f"resample {39 + b + 1}:" in str(err.value)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_scorer_shape_is_rejected(self, extra):
        data, G, firsts = self.block()

        def wrong(data, tests, perms):
            return np.zeros(len(perms) + extra)

        with pytest.raises(InvalidInput, match="statistic_batch"):
            procedures._curtailed_rejects(data, _corr_statistic, G, [(19, 0.1)], self.MASTER, firsts, wrong)


class TestRankTestBlock:
    """rank_test_block over R replicates against R one-replicate public
    calls: statistics, thresholds, rejects and ties bit for bit."""

    MASTER = 20260823

    @staticmethod
    def assert_block_equals(block, decisions):
        assert np.array_equal(block.statistic, [d.statistic for d in decisions])
        assert np.array_equal(block.threshold, [d.threshold for d in decisions])
        assert np.array_equal(block.reject, [d.reject for d in decisions])
        assert np.array_equal(block.tie, [d.tie for d in decisions])
        assert [block.decision(i) for i in range(len(decisions))] == decisions

    def samples(self, R, m):
        return np.stack(
            [generator(SeedSpec(self.MASTER, stream_for(r, 0))).standard_normal(m) for r in range(R)]
        )

    @pytest.mark.parametrize("R", [1, 7])
    @pytest.mark.parametrize("B", [5, 19, 99])
    @pytest.mark.parametrize("batched", [False, True])
    def test_signflip_block_is_the_per_replicate_calls(self, R, B, batched):
        xs = self.samples(R, 50)
        firsts = [stream_for(r, 1) for r in range(R)]
        batch = _mean_statistic_batch if batched else None
        if B == 5:
            with pytest.raises(BudgetTooSmall):
                rank_test_block(xs, _mean_statistic, "signflip", B, 0.1, self.MASTER, firsts, batch)
            return
        block = rank_test_block(xs, _mean_statistic, "signflip", B, 0.1, self.MASTER, firsts, batch)
        one = [
            randomization_test(
                x, _mean_statistic, "signflip", B, 0.1, seed=SeedSpec(self.MASTER, f),
                statistic_batch=batch,
            )
            for x, f in zip(xs, firsts)
        ]
        self.assert_block_equals(block, one)

    def test_ties_and_the_sentinel_threshold(self):
        # two equal entries: every flipped sum is one of three values,
        # so the observed maximum often ties with the threshold
        xs = np.ones((40, 2))
        firsts = [stream_for(r, 1) for r in range(40)]
        block = rank_test_block(xs, _mean_statistic, "signflip", 19, 0.1, self.MASTER, firsts)
        one = [randomization_test(x, _mean_statistic, "signflip", 19, 0.1, seed=SeedSpec(self.MASTER, f))
               for x, f in zip(xs, firsts)]
        self.assert_block_equals(block, one)
        assert block.tie.any() and not block.tie.all()
        # rank 11 > B = 10 at |G| = 24: the +inf sentinel, never a rejection
        data = self.samples(3, 4)
        G = full_symmetric(4)
        block = rank_test_block(data, lambda d, p: float(d[p][0]), G, 10, 0.1, self.MASTER, [1, 2, 3])
        assert np.all(block.threshold == np.inf) and not block.reject.any()

    @pytest.mark.parametrize("R", [1, 6])
    @pytest.mark.parametrize("batched", [False, True])
    def test_permutation_block_is_the_per_replicate_calls(self, R, batched):
        data = self.samples(2 * R, 30).reshape(R, 2, 30)
        firsts = [stream_for(r, 1) for r in range(R)]
        G = full_symmetric(30)
        batch = _corr_statistic_batch if batched else None
        block = rank_test_block(data, _corr_statistic, G, 99, 0.1, self.MASTER, firsts, batch)
        one = [
            permutation_test(
                (d[0], d[1]), _corr_statistic, G, 99, 0.1, seed=SeedSpec(self.MASTER, f),
                statistic_batch=batch,
            )
            for d, f in zip(data, firsts)
        ]
        self.assert_block_equals(block, one)

    def test_explicit_group(self):
        G = PermutationGroup(4, perms=((0, 1, 2, 3), (1, 0, 3, 2), (3, 2, 1, 0), (0, 1, 3, 2)))

        def stat(d, perm):
            return float(np.dot(d, np.arange(4.0)[perm]))

        data = np.round(self.samples(5, 4) * 3)
        firsts = [stream_for(r, 1) for r in range(5)]
        for B in (3, 4):  # permutation_sub, then permutation_full at B = |G|
            block = rank_test_block(data, stat, G, B, 0.1, self.MASTER, firsts)
            one = [permutation_test(d, stat, G, B, 0.1, seed=SeedSpec(self.MASTER, f))
                   for d, f in zip(data, firsts)]
            self.assert_block_equals(block, one)
        with pytest.raises(InvalidInput, match="exceeds"):
            rank_test_block(data, stat, G, 5, 0.1, self.MASTER, firsts)

    @pytest.mark.parametrize("L", [1, 2, 5])
    def test_transform_block_is_the_per_replicate_calls(self, L):
        xs = self.samples(6, 20)
        firsts = [stream_for(r, 1) for r in range(6)]
        shifts = [lambda v, i=i: v + 0.25 * i for i in range(L - 1)] + [np.negative]
        real = procedures._bounded_rows
        with mock.patch.object(procedures, "_bounded_rows", wraps=real) as rows:
            block = rank_test_block(xs, _mean_statistic, shifts, 19, 0.1, self.MASTER, firsts)
        assert rows.call_args_list == [mock.call(self.MASTER, firsts, 19, L, 1)]
        one = [
            randomization_test(x, _mean_statistic, shifts, 19, 0.1, seed=SeedSpec(self.MASTER, f))
            for x, f in zip(xs, firsts)
        ]
        self.assert_block_equals(block, one)
        for x, f, threshold in zip(xs, firsts, block.threshold):
            picks = [generator(SeedSpec(self.MASTER, f + b)).integers(0, L) for b in range(19)]
            t_star = sorted(_mean_statistic(shifts[j](x)) for j in picks)
            assert threshold == t_star[block.rule.upper_rank - 1]

    def test_non_finite_statistic_raises_invalid_input(self):
        xs = self.samples(3, 20)
        firsts = [stream_for(r, 1) for r in range(3)]

        def batch(s):
            out = s.sum(axis=1)
            out[25] = np.inf  # replicate 1, resample 6
            return out

        with pytest.raises(InvalidInput, match="finite"):
            rank_test_block(xs, _mean_statistic, "signflip", 19, 0.1, self.MASTER, firsts, batch)
        with pytest.raises(InvalidInput, match="finite"):
            randomization_test(xs[0], lambda x: np.nan if x[0] < 0 else 1.0, "signflip", 19, 0.1)
        data = (xs[0], xs[1])
        with pytest.raises(InvalidInput, match="finite"):
            permutation_test(data, lambda d, p: np.nan, full_symmetric(20), 19, 0.1)

    @pytest.mark.parametrize("group", ["signflip", "permutation", "transforms"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observed_statistic_raises_invalid_input(self, group, bad):
        # nan >= threshold is False, so an unchecked NaN observed value would retain the null
        R, m = 3, 8
        xs = self.samples(R, m)
        calls = []

        def statistic(*args):
            calls.append(1)
            return bad if len(calls) == 2 else 1.0  # test 1's observed value

        if group == "permutation":
            data, group = [(x, x[::-1]) for x in xs], full_symmetric(m)
        elif group == "transforms":
            data, group = xs, [lambda v: v, lambda v: -v]
        else:
            data = xs
        firsts = [stream_for(r, 1) for r in range(R)]
        with pytest.raises(InvalidInput, match="observed and resampled test statistics"):
            rank_test_block(data, statistic, group, 19, 0.1, self.MASTER, firsts)
        # the one-replicate call, whose first statistic call is the observed value
        public = randomization_test if isinstance(group, (str, list)) else permutation_test
        calls[:] = [1]
        with pytest.raises(InvalidInput, match="observed and resampled test statistics"):
            public(data[1], statistic, group, 19, 0.1)

    @pytest.mark.parametrize("group", ["signflip", "permutation", "transforms"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_raising_statistic_names_its_resample(self, group, batched):
        # step i * B + b: resample b (from 1) of test i (from 0)
        R, B, m = 3, 19, 8
        xs = self.samples(R, m)
        firsts = [stream_for(r, 1) for r in range(R)]
        calls = []

        def raising(*args):
            calls.append(1)
            if len(calls) == R + B + 5:  # R observed values, then test 1's resample 5
                raise ValueError("boom")
            return 1.0

        def batch(*args):
            raise RuntimeError("no batch today")

        if group == "permutation":
            data, group = [(x, x[::-1]) for x in xs], full_symmetric(m)
        elif group == "transforms":
            data, group = xs, [lambda v: v, lambda v: -v]
        else:
            data = xs
        with pytest.raises(NumericalFailure, match="resample 24") as err:
            rank_test_block(
                data, raising, group, B, 0.1, self.MASTER, firsts, batch if batched else None
            )
        assert err.value.step == B + 5

    def test_bad_group_and_streams(self):
        xs = self.samples(2, 10)
        with pytest.raises(InvalidInput, match="group"):
            randomization_test(xs[0], _mean_statistic, "nope", 19, 0.1)
        with pytest.raises(InvalidInput, match="group"):
            rank_test_block(xs, _mean_statistic, "nope", 19, 0.1, 0, [1, 2])
        with pytest.raises(InvalidInput, match="group"):
            rank_test_block(xs, _mean_statistic, 5, 19, 0.1, 0, [1, 2])
        with pytest.raises(InvalidInput, match="nonempty"):
            rank_test_block(xs, _mean_statistic, [], 19, 0.1, 0, [1, 2])
        with pytest.raises(InvalidInput, match="first streams"):
            rank_test_block(xs, _mean_statistic, "signflip", 19, 0.1, 0, [1])
        with pytest.raises(InvalidInput):
            permutation_test(xs, _corr_statistic, "signflip", 19, 0.1)
        with pytest.raises(InvalidInput, match="1-d"):
            randomization_test(xs, _mean_statistic, "signflip", 19, 0.1)


class TestExactRanks:
    """rank_test_block's thresholds are the order statistics of the
    paper's formulas, recomputed from scalar signflip_transform and
    permutation_draw draws with np.sort at the literal ranks; the
    curtailed harness path reads the same rank."""

    MASTER = 4177

    # (rule, m, B, alpha, R): k = 18 and 16, then 91, then 24 = B at |G| = 24;
    # R is large enough that some tests have exactly k - 1 and k draws at or below T
    CASES = [
        ("randomization", 20, 19, Fraction(1, 10), 200),
        ("randomization", 20, 19, Fraction(1, 5), 200),
        ("permutation_sub", 30, 99, Fraction(1, 10), 300),
        ("permutation_full", 4, 24, Fraction(1, 10), 200),
    ]

    @pytest.mark.parametrize("rule, m, B, alpha, R", CASES)
    def test_thresholds_sit_at_the_literal_rank(self, rule, m, B, alpha, R):
        if rule == "randomization":
            k = math.ceil((B + 1) * (1 - alpha))
        elif rule == "permutation_sub":
            k = math.ceil((B + 1) * (1 - alpha)) + 1
        else:
            k = math.ceil(B * (1 - alpha)) + 2
        firsts = [stream_for(r, 1) for r in range(R)]
        gens = [generator(SeedSpec(self.MASTER, stream_for(r, 0))) for r in range(R)]
        if rule == "randomization":
            data = np.stack([g.standard_normal(m) for g in gens])
            group, statistic = "signflip", _mean_statistic
            t_obs = [statistic(x) for x in data]
            stars = [
                [statistic(signflip_transform(x, SeedSpec(self.MASTER, f + b))) for b in range(B)]
                for x, f in zip(data, firsts)
            ]
        else:
            data = np.stack([g.standard_normal((2, m)) for g in gens])
            group, statistic = full_symmetric(m), _corr_statistic
            assert (B == group.size) == (rule == "permutation_full")
            t_obs = [statistic(d, np.arange(m)) for d in data]
            stars = [
                [statistic(d, permutation_draw(group, SeedSpec(self.MASTER, f + b))) for b in range(B)]
                for d, f in zip(data, firsts)
            ]
        ranked = [np.concatenate([np.sort(s), [np.inf]]) for s in stars]  # rank B + 1 is +inf
        want = np.array([r[k - 1] for r in ranked])
        block = rank_test_block(data, statistic, group, B, float(alpha), self.MASTER, firsts)
        assert block.rule.rule_name == rule and block.rule.upper_rank == k
        assert np.array_equal(block.threshold, want)
        assert np.array_equal(block.reject, np.array(t_obs) >= want)
        cells = [(B, float(alpha))]
        curtailed = procedures._curtailed_rejects(data, statistic, group, cells, self.MASTER, firsts)[:, 0]
        assert np.array_equal(curtailed, block.reject)
        # a k - 1 or k + 1 rule decides otherwise in some test, sorted or counted
        below = np.sum(np.array(stars) <= np.array(t_obs)[:, None], axis=1)
        assert (below == k - 1).any() and (below == k).any()


class TestCurtailedTests:
    """The harness's curtailed tests decide as rank_test_block does, tied
    statistics included, and draw only until a decision is fixed."""

    MASTER = 20260823
    LATTICE = (-1.0, -0.0, 0.0, 0.5, 1.0)

    @given(st.data())
    def test_count_rule_is_the_sorted_decision(self, data):
        R = data.draw(st.integers(1, 4))
        B = data.draw(st.integers(1, 8))
        t_star = np.array(data.draw(st.lists(st.sampled_from(self.LATTICE), min_size=R * B, max_size=R * B)))
        t_star = t_star.reshape(R, B)
        t_obs = np.array(data.draw(st.lists(st.sampled_from(self.LATTICE), min_size=R, max_size=R)))
        for k in range(B + 2):
            rule = IntervalIndexRule(0, k, "one_sided_upper", "randomization")
            want = procedures._decide(t_obs, t_star, rule, BudgetSpec(B, 0.1)).reject
            # after any prefix of the draws a settled test already has its final decision
            for drawn in range(B + 1):
                le = (t_star[:, :drawn] <= t_obs[:, None]).sum(axis=1)
                gt = (t_star[:, :drawn] > t_obs[:, None]).sum(axis=1)
                reject, settled = procedures._count_rule(le, gt, B, k)
                assert np.array_equal(reject[settled], want[settled])
            assert settled.all()

    @given(st.data())
    def test_a_grid_decides_each_cell_as_its_own_block_and_draws_each_stream_once(self, data):
        # integer samples tie; on the 24 permutations of 4 points a small B
        # or alpha has a rank beyond B; budgets may repeat
        R = data.draw(st.integers(1, 12))
        gen = generator(SeedSpec(self.MASTER, data.draw(st.integers(0, 2**16))))
        if data.draw(st.booleans()):
            xs, group, stat = gen.choice([-2.0, -1.0, 1.0, 2.0], size=(R, 8)), "signflip", _mean_statistic
            budget = st.tuples(st.sampled_from([9, 19, 39, 99]), st.sampled_from([0.1, 0.2, 0.3, 0.5]))
        else:
            xs, group = gen.integers(-1, 2, size=(R, 2, 4)).astype(float), full_symmetric(4)

            def stat(d, perm):
                return float(np.dot(d[0], d[1][perm]))

            budget = st.tuples(st.integers(1, 24), st.sampled_from([0.05, 0.1, 0.3, 0.5]))
        cells = data.draw(st.lists(budget, min_size=1, max_size=5))
        firsts = [stream_for(r, 1) for r in range(R)]
        drawn = []
        real = procedures._RankTests.draws

        def recording(tests, rows, lo, n):
            drawn.extend((int(i), b) for i in rows for b in range(lo, lo + n))
            return real(tests, rows, lo, n)

        with mock.patch.object(procedures._RankTests, "draws", recording):
            got = procedures._curtailed_rejects(xs, stat, group, cells, self.MASTER, firsts)
        assert got.shape == (R, len(cells))
        for column, (B, alpha) in zip(got.T, cells):
            assert np.array_equal(column, rank_test_block(xs, stat, group, B, alpha, self.MASTER, firsts).reject)
        assert len(drawn) == len(set(drawn))
        assert all(b < max(B for B, _ in cells) for _, b in drawn)

    @pytest.mark.parametrize("B", [19, 99])
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("batched", [False, True])
    def test_signflip_ties_on_integer_samples(self, B, alpha, batched):
        R = 300
        gen = generator(SeedSpec(self.MASTER, 1))
        xs = gen.choice([-2.0, -1.0, 1.0, 2.0], size=(R, 8))
        firsts = [stream_for(r, 1) for r in range(R)]
        batch = _mean_statistic_batch if batched else None
        block = rank_test_block(xs, _mean_statistic, "signflip", B, alpha, self.MASTER, firsts, batch)
        assert block.tie.any()
        got = procedures._curtailed_rejects(xs, _mean_statistic, "signflip", [(B, alpha)], self.MASTER, firsts, batch)
        got = got[:, 0]
        assert got.dtype == bool and np.array_equal(got, block.reject)

    @pytest.mark.parametrize("B", [5, 10, 23, 24])
    @pytest.mark.parametrize("alpha", [0.1, 0.3])
    def test_small_permutation_group(self, B, alpha):
        def stat(d, perm):
            return float(np.dot(d[0], d[1][perm]))

        R = 60
        data = generator(SeedSpec(self.MASTER, 2)).integers(-1, 2, size=(R, 2, 4)).astype(float)
        firsts = [stream_for(r, 1) for r in range(R)]
        G = full_symmetric(4)
        block = rank_test_block(data, stat, G, B, alpha, self.MASTER, firsts)
        got = procedures._curtailed_rejects(data, stat, G, [(B, alpha)], self.MASTER, firsts)[:, 0]
        assert np.array_equal(got, block.reject)
        listed = PermutationGroup(4, perms=((0, 1, 2, 3), (1, 0, 3, 2), (3, 2, 1, 0), (0, 1, 3, 2)))
        for b in (3, 4):
            block = rank_test_block(data, stat, listed, b, alpha, self.MASTER, firsts)
            got = procedures._curtailed_rejects(data, stat, listed, [(b, alpha)], self.MASTER, firsts)[:, 0]
            assert np.array_equal(got, block.reject)

    def test_transform_list(self):
        xs = generator(SeedSpec(self.MASTER, 3)).standard_normal((40, 10))
        firsts = [stream_for(r, 1) for r in range(40)]
        shifts = [lambda v: v, np.negative, lambda v: v + 0.5]
        block = rank_test_block(xs, _mean_statistic, shifts, 39, 0.1, self.MASTER, firsts)
        got = procedures._curtailed_rejects(xs, _mean_statistic, shifts, [(39, 0.1)], self.MASTER, firsts)[:, 0]
        assert np.array_equal(got, block.reject)

    def test_rounds_double_and_shrink_to_the_open_tests(self):
        # randomization at B = 99, alpha = 0.1: k = 90, so rounds reach 10, 20, 40, 80, 99
        R = 50
        xs = generator(SeedSpec(self.MASTER, 4)).standard_normal((R, 20))
        firsts = [stream_for(r, 1) for r in range(R)]
        rounds = []
        real = procedures._RankTests.draws

        def recording(tests, rows, lo, n):
            rounds.append((list(rows), lo, n))
            return real(tests, rows, lo, n)

        with mock.patch.object(procedures._RankTests, "draws", recording):
            got = procedures._curtailed_rejects(xs, _mean_statistic, "signflip", [(99, 0.1)], self.MASTER, firsts)[:, 0]
        block = rank_test_block(xs, _mean_statistic, "signflip", 99, 0.1, self.MASTER, firsts)
        assert np.array_equal(got, block.reject)
        reach = [lo + n for _, lo, n in rounds]
        assert reach == [10, 20, 40, 80, 99][: len(rounds)]
        assert [lo for _, lo, _ in rounds] == [0] + reach[:-1]
        assert rounds[0][0] == list(range(R))
        for (before, _, _), (after, _, _) in zip(rounds, rounds[1:]):
            assert set(after) < set(before)
        assert sum(len(rows) * n for rows, _, n in rounds) < R * 99

    def test_a_rank_beyond_b_draws_nothing(self):
        data = generator(SeedSpec(self.MASTER, 5)).standard_normal((3, 2, 4))
        G = full_symmetric(4)
        with mock.patch.object(procedures._RankTests, "draws", None):  # would raise if called
            got = procedures._curtailed_rejects(data, _corr_statistic, G, [(10, 0.1)], self.MASTER, [1, 2, 3])[:, 0]
        assert not got.any()

    @staticmethod
    def marked_tests(group, m=8):
        """Three tests whose statistic fails (``bad``) on test 1's
        resamples that move its marked entry, and only there."""
        xs = generator(SeedSpec(TestCurtailedTests.MASTER, 6)).standard_normal((3, m))
        xs[1, 0] = 7.0
        if group == "permutation":
            return [(x, x) for x in xs], full_symmetric(m), lambda d, p: d[0][p][0] != 7.0 and d[0][0] == 7.0
        if group == "transforms":
            return xs, [lambda v: v, np.negative], lambda x: x[0] == -7.0
        return xs, "signflip", lambda x: x[0] == -7.0

    @pytest.mark.parametrize("group", ["signflip", "permutation", "transforms"])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("how", ["raise", "nan"])
    def test_failures_on_drawn_resamples(self, group, batched, how):
        # B = 19, alpha = 0.2: k = 16, so the first round draws resamples 1..4 of every test
        data, group, moved = self.marked_tests(group)
        firsts = [stream_for(r, 1) for r in range(3)]

        def statistic(*args):
            if moved(*args):
                if how == "raise":
                    raise ValueError("boom")
                return np.nan
            return _mean_statistic(args[0]) if len(args) == 1 else float(args[0][0] @ args[0][1][args[1]])

        def batch(*args):
            raise RuntimeError("no batch today")

        batch = batch if batched and not isinstance(group, list) else None
        want, got = NumericalFailure if how == "raise" else InvalidInput, []
        for run, budget in ((rank_test_block, (19, 0.2)), (procedures._curtailed_rejects, ([(19, 0.2)],))):
            with pytest.raises(want) as err:
                run(data, statistic, group, *budget, self.MASTER, firsts, batch)
            got.append(err.value)
        assert str(got[0]) == str(got[1])
        if how == "raise":
            assert got[0].step == got[1].step
            assert 19 < got[0].step <= 19 + 4  # test 1, within the first round
            # with a B = 39 cell beside it the first round is the same, and
            # the step counts 39 resamples per test
            with pytest.raises(NumericalFailure) as err:
                grid = [(19, 0.2), (39, 0.2)]
                procedures._curtailed_rejects(data, statistic, group, grid, self.MASTER, firsts, batch)
            assert err.value.step == got[0].step + 20
        else:
            assert str(got[0]) == "observed and resampled test statistics must all be finite"

    def test_failures_past_the_decision_never_surface(self):
        # every flip raises the sum of an all-negative sample, so test 0
        # accepts once 4 = B - k + 1 of its draws are above T
        x = -np.arange(1.0, 9.0)
        calls = []

        def statistic(v):
            calls.append(1)
            if len(calls) > 1 + 4:  # the observed value, then the first round
                raise ValueError("past the decision")
            return _mean_statistic(v)

        assert all(
            _mean_statistic(signflip_transform(x, SeedSpec(self.MASTER, 1 + b))) > _mean_statistic(x)
            for b in range(4)
        )
        assert not procedures._curtailed_rejects(x[None], statistic, "signflip", [(19, 0.2)], self.MASTER, [1])[0, 0]
        calls.clear()
        with pytest.raises(NumericalFailure) as err:
            rank_test_block(x[None], statistic, "signflip", 19, 0.2, self.MASTER, [1])
        assert err.value.step == 5
