"""Poisson-binomial kernels, the I_B constant, and the Ehm/Hoeffding
comparisons with the mean binomial."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixedb import discrete
from fixedb.discrete import (
    PoiBinSpec,
    binom_pmf,
    ehm_tv_bound,
    hoeffding_ordering_check,
    i_b,
    poisson_binomial_pmf,
    poisson_binomial_pmf_batch,
)
from fixedb.distances import tv_discrete
from fixedb.errors import DegenerateSpec, InvalidInput

probs_vec = st.lists(st.integers(1, 9).map(lambda k: k / 10), min_size=1, max_size=8)


def _cdf(B, p):
    """P(Bin(B, p) <= k) for k = 0..B: the running sum of binom_pmf."""
    return np.cumsum(binom_pmf(B, p).probs)


class TestBinomCdf:
    def test_frozen_against_fraction_sum(self):
        # exact: sum_{k<=6} C(20,k) (3/10)^k (7/10)^(20-k)
        p = Fraction(3, 10)
        exact = sum(math.comb(20, k) * p**k * (1 - p) ** (20 - k) for k in range(7))
        assert float(exact) == pytest.approx(0.608009812200924, abs=1e-15)
        assert _cdf(20, 0.3)[6] == pytest.approx(float(exact), abs=1e-12)

    def test_edges(self):
        cdf = _cdf(5, 0.3)
        assert cdf[0] == pytest.approx(0.7**5, abs=1e-15)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(InvalidInput):
            binom_pmf(0, 0.3)

    @given(st.integers(1, 40), st.integers(0, 10), st.integers(0, 40))
    def test_matches_exact_rational(self, B, num, k):
        p = Fraction(num, 10)
        exact = sum(
            math.comb(B, j) * p**j * (1 - p) ** (B - j) for j in range(min(k, B) + 1)
        )
        assert _cdf(B, float(p))[min(k, B)] == pytest.approx(float(exact), abs=1e-12)

    @given(st.integers(1, 60), st.floats(0.0, 1.0))
    def test_non_decreasing_in_k(self, B, p):
        cdf = _cdf(B, p)
        assert np.all(np.diff(cdf) >= 0.0)
        assert 0.0 <= cdf[0] and cdf[-1] == pytest.approx(1.0, abs=1e-12)


class TestBinomRows:
    def test_rows_equal_one_row_calls(self):
        p_bars = np.linspace(0.01, 0.99, 97)
        rows = discrete._binom_rows(6, p_bars)
        assert rows.shape == (97, 7)
        for row, p in zip(rows, p_bars):
            assert np.array_equal(row, binom_pmf(6, float(p)).probs)

    def test_matches_exact_fractions(self):
        ps = [Fraction(k, 10) for k in range(11)]
        for B in range(1, 41):
            rows = discrete._binom_rows(B, [float(p) for p in ps])
            for p, row in zip(ps, rows):
                exact = [math.comb(B, j) * p**j * (1 - p) ** (B - j) for j in range(B + 1)]
                err = max(abs(Fraction(v) - e) for v, e in zip(row.tolist(), exact))
                assert err < 1e-15, (B, p)

    def test_exact_at_zero_and_one(self):
        rows = discrete._binom_rows(50, [0.0, 1.0])
        assert rows[0].tolist() == [1.0] + [0.0] * 50
        assert rows[1].tolist() == [0.0] * 50 + [1.0]

    def test_rows_sum_to_one(self):
        p_bars = np.linspace(0.0, 1.0, 41)
        for B in (1, 2, 7, 40, 100):
            assert np.abs(discrete._binom_rows(B, p_bars).sum(axis=1) - 1.0).max() < 1e-14

    def test_close_to_scipy_at_large_budgets(self):
        # scipy is a test-only oracle here; the package never imports it.
        # B = 2000 is past where C(B, k) overflows a float (B ~ 1030)
        from scipy import stats

        p_bars = np.array([0.01, 0.1, 0.3, 0.5, 0.77, 0.99])
        for B in (100, 500, 2000):
            ref = stats.binom.pmf(np.arange(B + 1), B, p_bars[:, None])
            assert np.abs(discrete._binom_rows(B, p_bars) - ref).max() < 5e-15


class TestPoissonBinomial:
    def test_frozen_two_trials(self):
        pmf = poisson_binomial_pmf(PoiBinSpec((0.2, 0.8)))
        assert np.allclose(pmf.probs, [0.16, 0.68, 0.16], atol=1e-15)

    @given(st.integers(1, 25), st.integers(0, 10))
    def test_homogeneous_equals_binomial(self, B, num):
        p = num / 10
        ours = poisson_binomial_pmf(PoiBinSpec((p,) * B)).probs
        ref = binom_pmf(B, p).probs
        assert np.max(np.abs(ours - ref)) < 1e-12

    @given(probs_vec)
    def test_against_fraction_convolution(self, ps):
        fracs = [Fraction(round(p * 10), 10) for p in ps]
        dist = {0: Fraction(1)}
        for q in fracs:
            nxt = {}
            for k, w in dist.items():
                nxt[k] = nxt.get(k, Fraction(0)) + w * (1 - q)
                nxt[k + 1] = nxt.get(k + 1, Fraction(0)) + w * q
            dist = nxt
        ours = poisson_binomial_pmf(PoiBinSpec(tuple(ps))).probs
        for k in range(len(ps) + 1):
            assert ours[k] == pytest.approx(float(dist.get(k, Fraction(0))), abs=1e-12)

    def test_batch_shape(self):
        rows = np.array([[0.2, 0.8], [0.5, 0.5]])
        out = poisson_binomial_pmf_batch(rows)
        assert out.shape == (2, 3)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(out[1], [0.25, 0.5, 0.25], atol=1e-15)

    def test_batch_folds_into_a_start_stack(self):
        rows = np.random.default_rng(3).random((50, 5))
        head = poisson_binomial_pmf_batch(rows[:, :2])
        assert np.array_equal(poisson_binomial_pmf_batch(rows[:, 2:], start=head), poisson_binomial_pmf_batch(rows))

    def test_batch_broadcasts_start_against_rows(self):
        # three parent pmfs, each extended by each of two probabilities
        parents = poisson_binomial_pmf_batch(np.array([[0.1], [0.5], [0.7]]))
        grid = np.array([0.2, 0.9])
        out = poisson_binomial_pmf_batch(grid[:, None], start=parents[:, None, :])
        assert out.shape == (3, 2, 3)
        for i, a in enumerate((0.1, 0.5, 0.7)):
            for j, b in enumerate(grid):
                assert np.array_equal(out[i, j], poisson_binomial_pmf_batch(np.array([[a, b]]))[0])

    def test_spec_validation(self):
        with pytest.raises(InvalidInput):
            PoiBinSpec(())
        with pytest.raises(InvalidInput):
            PoiBinSpec((0.2, 1.4))


class TestIb:
    def test_small_budgets_are_one(self):
        for B in (1, 2, 3, 4):
            assert i_b(B) == 1.0

    def test_frozen_values(self):
        # 60-digit Decimal references: 0.937755864547724818716...,
        # 0.409343529416560440400...
        assert i_b(5) == pytest.approx(0.937755864547724818716, abs=1e-15)
        assert i_b(19) == pytest.approx(0.409343529416560440400, abs=1e-15)

    def test_monotone_decreasing(self):
        vals = [i_b(B) for B in range(4, 3000, 7)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_asymptotics(self):
        # B i_B - (2 log B + 2) -> 0-; at B = 1e6 the gap is ~ -2.0e-6
        gap = 1e6 * i_b(10**6) - (2 * math.log(1e6) + 2)
        assert gap == pytest.approx(-2.000002e-06, abs=1e-11)
        with pytest.raises(InvalidInput):
            i_b(0)

    @pytest.mark.parametrize("B", [2.5, math.nan, 19.0, True, math.inf])
    def test_budget_must_be_an_integer(self, B):
        with pytest.raises(InvalidInput, match="B must be an integer >= 1"):
            i_b(B)
        assert i_b(np.int64(19)) == i_b(19)


class TestEhm:
    def test_frozen_equality_case(self):
        # p = (0.2, 0.8): PoiBin (0.16, 0.68, 0.16) vs Bin(2, 0.5)
        # (0.25, 0.5, 0.25): TV = 0.18 and the bound is tight here
        spec = PoiBinSpec((0.2, 0.8))
        upper, r = ehm_tv_bound(spec)
        assert r == pytest.approx(0.36, abs=1e-15)
        assert upper == pytest.approx(0.18, abs=1e-15)
        tv = tv_discrete(poisson_binomial_pmf(spec), binom_pmf(2, 0.5)).value
        assert tv == pytest.approx(0.18, abs=1e-15)

    @given(probs_vec)
    def test_bound_dominates_tv(self, ps):
        spec = PoiBinSpec(tuple(ps))
        upper, r = ehm_tv_bound(spec)
        assert r >= -1e-15  # Jensen: mean variance <= p_bar q_bar
        tv = tv_discrete(
            poisson_binomial_pmf(spec), binom_pmf(spec.b, spec.p_bar)
        ).value
        assert tv <= upper + 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateSpec):
            ehm_tv_bound(PoiBinSpec((0.0, 0.0)))
        with pytest.raises(DegenerateSpec):
            ehm_tv_bound(PoiBinSpec((1.0,)))


class TestHoeffdingOrdering:
    @given(probs_vec)
    def test_ordering_holds(self, ps):
        rep = hoeffding_ordering_check(PoiBinSpec(tuple(ps)))
        assert rep.passed
        assert rep.worst_margin >= -1e-12
        assert rep.n_checked <= len(ps) + 1

    def test_one_binomial_pmf_call_and_no_cdf_call(self):
        assert not hasattr(discrete, "binom_cdf")
        with mock.patch.object(discrete, "_binom_rows", wraps=discrete._binom_rows) as rows:
            rep = hoeffding_ordering_check(PoiBinSpec((0.1, 0.4, 0.7, 0.9)))
        assert rows.call_count == 1
        assert rep.passed and rep.n_checked == 4

    def test_regimes_allow_for_rounding_of_b_p_bar(self):
        # B p_bar = 1 - 1e-12 still puts k = 1 in the >= regime
        for p_bar in (0.5, 0.5 - 5e-13):
            le, ge = discrete._ordering_regimes(2, [p_bar])
            assert le.tolist() == [[True, False, False]]
            assert ge.tolist() == [[False, True, True]]

    def test_homogeneous_margins_vanish(self):
        rep = hoeffding_ordering_check(PoiBinSpec((0.4,) * 6))
        assert rep.passed
        assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)


class TestBoundary:
    BAD_B = (0, -1, 2.5, True, "3", None)
    BAD_P = (1.5, -0.1, math.nan, math.inf, -math.inf, True, "0.5", None)

    @pytest.mark.parametrize("B", BAD_B)
    def test_bad_b_names_b(self, B):
        with pytest.raises(InvalidInput, match="B must"):
            binom_pmf(B, 0.5)

    @pytest.mark.parametrize("p", BAD_P)
    def test_bad_p_names_p(self, p):
        with pytest.raises(InvalidInput, match="p must"):
            binom_pmf(3, p)

    def test_rejected_before_scipy_is_imported(self):
        # with scipy unimportable the binomial helpers still work, and bad
        # input still ends in InvalidInput
        with mock.patch.dict("sys.modules", {"scipy": None}):
            assert binom_pmf(2, 0.5).probs.tolist() == [0.25, 0.5, 0.25]
            for call in (lambda: binom_pmf(3, math.nan), lambda: binom_pmf(0, 0.5)):
                with pytest.raises(InvalidInput):
                    call()

    def test_edges_and_numpy_scalars_accepted(self):
        assert binom_pmf(3, 0.0).probs.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert binom_pmf(3, 1.0).probs.tolist() == [0.0, 0.0, 0.0, 1.0]
        assert np.array_equal(binom_pmf(np.int64(20), np.float64(0.3)).probs, binom_pmf(20, 0.3).probs)
        assert binom_pmf(1, 0.5).probs[0] == 0.5

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_poibin_rejects_non_finite(self, bad):
        with pytest.raises(InvalidInput):
            PoiBinSpec((bad, 0.5))
