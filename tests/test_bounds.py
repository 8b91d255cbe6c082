"""Closed-form coverage brackets and KS slack transfers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixedb.bounds import (
    dependent_bracket,
    iid_bracket,
    independent_bracket,
    ks_slack_markov,
    ks_slack_tail,
    ordering_lower,
)
from fixedb.discrete import i_b
from fixedb.errors import InvalidIndices, InvalidInput

slack = st.floats(0, 0.4)
small_idx = st.tuples(st.integers(1, 60), st.integers(0, 6), st.integers(0, 6)).filter(
    lambda t: t[1] + t[2] < t[0]
)


class TestIidBracket:
    def test_frozen_closed(self):
        # base = 1 - 3/20 = 0.85; closed adds 1/(B+1) above
        b = iid_bracket(19, 1, 1)
        assert b.base == pytest.approx(0.85)
        assert b.lower == pytest.approx(0.85)
        assert b.upper == pytest.approx(0.90)
        names = [n for n, _ in b.slack_terms]
        assert "base" in names and "budget" in names

    def test_half_open_kinds(self):
        lcro = iid_bracket(19, 1, 1, delta=0.02, kind="left_closed_right_open")
        assert lcro.lower == pytest.approx(0.83)
        assert lcro.upper == pytest.approx(0.87)
        locr = iid_bracket(19, 1, 1, delta=0.5, delta_tilde=0.01, kind="left_open_right_closed")
        assert locr.lower == pytest.approx(0.84)
        assert locr.upper == pytest.approx(0.86)

    def test_zero_slack_closed_width_is_budget(self):
        b = iid_bracket(7, 2, 1)
        assert b.upper - b.lower == pytest.approx(1 / 8)

    def test_clamping_recorded(self):
        b = iid_bracket(4, 1, 1, delta=0.9, kind="left_closed_right_open")
        assert b.lower == 0.0
        assert b.upper == 1.0
        labels = [n for n, _ in b.slack_terms]
        assert "clamp_lower" in labels and "clamp_upper" in labels

    def test_invalid_indices(self):
        with pytest.raises(InvalidIndices):
            iid_bracket(5, 3, 2)  # a >= B - b
        with pytest.raises(InvalidIndices):
            iid_bracket(5, -1, 0)
        with pytest.raises(InvalidInput):
            iid_bracket(5, 1, 1, kind="one_sided_upper")

    @given(small_idx, slack, slack)
    def test_ordering_and_range(self, idx, delta, delta_tilde):
        B, a, b = idx
        for kind in ("closed", "left_closed_right_open", "left_open_right_closed"):
            br = iid_bracket(B, a, b, delta=delta, delta_tilde=delta_tilde, kind=kind)
            assert 0.0 <= br.lower <= br.upper <= 1.0
            base = 1 - (a + b + 1) / (B + 1)
            assert br.lower <= base + 1e-12


class TestKsSlack:
    def test_tail(self):
        assert ks_slack_tail(0.05, 0.01) == pytest.approx(0.06)
        assert ks_slack_tail(0.05, 0.01, eta=0.02) == pytest.approx(0.08)
        assert ks_slack_tail(0.9, 0.8) == 1.0
        with pytest.raises(InvalidInput):
            ks_slack_tail(0.0, 0.1)

    def test_markov(self):
        # p = 1: 2 sqrt(lp_norm); p = 2: 3 (lp/2)^(2/3)
        assert ks_slack_markov(1, 0.01) == pytest.approx(0.2)
        assert ks_slack_markov(2, 0.008) == pytest.approx(3 * (0.008 / 2) ** (2 / 3))
        assert ks_slack_markov(1, 9.0) == 1.0
        with pytest.raises(InvalidInput):
            ks_slack_markov(0.5, 0.01)

    @given(st.floats(1, 6), st.floats(0.0001, 0.2), st.floats(0, 0.1))
    def test_markov_monotone_in_norm(self, p, lp, eta):
        assert ks_slack_markov(p, lp, eta) <= ks_slack_markov(p, lp * 2, eta) + 1e-12


class TestIndependentBracket:
    def test_frozen(self):
        # slack = d~ + sum kappa^2 (I_B + d~)
        # = 0.05 + 19 * 0.02^2 * (i_b(19) + 0.05) = 0.05349101082356586
        br = independent_bracket(19, 1, 1, 0.05, [0.02] * 19)
        expected_slack = 0.05 + 19 * 0.02**2 * (i_b(19) + 0.05)
        assert expected_slack == pytest.approx(0.05349101082356586, abs=1e-15)
        assert br.lower == pytest.approx(0.85 - expected_slack)
        assert br.upper == pytest.approx(0.85 + expected_slack + 0.05)

    def test_float32_slack_computes_in_float64(self):
        # a float32 d_tilde is read as the Python float it holds
        got = independent_bracket(3, 0, 0, np.float32(0.1), [0.1] * 3)
        assert got == independent_bracket(3, 0, 0, float(np.float32(0.1)), [0.1] * 3)
        assert all(type(v) is float for v in (got.lower, got.upper, got.base))
        assert all(type(value) is float for _, value in got.slack_terms)

    def test_kappa_length_checked(self):
        with pytest.raises(InvalidInput):
            independent_bracket(19, 1, 1, 0.0, [0.01] * 5)

    def test_zero_slack_matches_iid_closed(self):
        a = independent_bracket(9, 1, 1, 0.0, [0.0] * 9)
        b = iid_bracket(9, 1, 1)
        assert a.lower == pytest.approx(b.lower)
        assert a.upper == pytest.approx(b.upper)

    @given(small_idx, slack, st.floats(0, 0.2))
    def test_contains_iid_bracket(self, idx, d, kap):
        B, a, b = idx
        br = independent_bracket(B, a, b, d, [kap] * B)
        plain = iid_bracket(B, a, b, delta=d)
        # extra heterogeneity slack can only widen the bracket
        assert br.lower <= plain.lower + 1e-12
        assert br.upper >= plain.upper - 1e-12


class TestOrderingLower:
    def test_frozen(self):
        assert ordering_lower(100, 9, 9, 0.01) == pytest.approx(1 - 3 * 19 / 200 - 0.06)
        assert ordering_lower(10, 4, 4, 0.5) == 0.0  # clamped

    @given(small_idx, st.floats(0, 0.3))
    def test_monotone_in_distance(self, idx, d):
        B, a, b = idx
        assert ordering_lower(B, a, b, d) >= ordering_lower(B, a, b, d + 0.05) - 1e-12


class TestDependentBracket:
    def test_frozen(self):
        br = dependent_bracket(19, 0.2, 0.2, 0.05)
        assert br.base == pytest.approx(0.8)
        assert br.lower == pytest.approx(0.75)
        assert br.upper == math.inf
        brc = dependent_bracket(19, 0.2, 0.2, 0.05, continuous=True)
        assert brc.upper == 1.0  # 0.8 + 0.05 + 4/20 clamps at 1

    def test_continuous_upper_below_one(self):
        br = dependent_bracket(99, 0.3, 0.3, 0.01, continuous=True)
        assert br.upper == pytest.approx(0.7 + 0.01 + 4 / 100)

    @pytest.mark.parametrize("continuous", ["no", "", math.nan, 0, 1, None, [True]])
    def test_continuous_must_be_a_bool(self, continuous):
        # a truthy non-bool used to give the continuous upper end
        with pytest.raises(InvalidInput, match="continuous must be True or False"):
            dependent_bracket(10, 0.1, 0.1, 0.0, continuous=continuous)
        for flag in (True, np.True_, False, np.False_):
            assert dependent_bracket(10, 0.1, 0.1, 0.0, continuous=flag) == dependent_bracket(10, 0.1, 0.1, 0.0, bool(flag))

    @given(st.integers(2, 200), st.floats(0.05, 0.45), st.floats(0.05, 0.45), st.floats(0, 0.3))
    def test_range(self, B, g, be, gap):
        br = dependent_bracket(B, g, be, gap, continuous=True)
        assert 0.0 <= br.lower <= br.upper <= 1.0
        assert br.lower <= 1 - (g + be) / 2 + 1e-12


class TestBudgetMustBeAnInteger:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: iid_bracket(19.5, 1, 1),
            lambda: iid_bracket(True, 0, 0),
            lambda: ordering_lower(4.5, 0, 0, 0.0),
            lambda: independent_bracket(2.5, 0, 0, 0.0, [0.1, 0.1]),
            lambda: dependent_bracket(19.5, 0.2, 0.2, 0.05),
        ],
        ids=["iid_float", "iid_bool", "ordering_float", "independent_float", "dependent_float"],
    )
    def test_non_integer_budget_names_b(self, call):
        with pytest.raises(InvalidInput, match="B must be an integer >= 1"):
            call()

    def test_numpy_integer_budget_accepted(self):
        assert iid_bracket(np.int64(19), 1, 1) == iid_bracket(19, 1, 1)
        assert ordering_lower(np.int32(100), 9, 9, 0.01) == ordering_lower(100, 9, 9, 0.01)


class TestRanksMustBeIntegers:
    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda: iid_bracket(19, 1.5, 0.5), "a"),
            (lambda: iid_bracket(19, 1, 0.5), "b"),
            (lambda: iid_bracket(19, True, 0), "a"),
            (lambda: iid_bracket(19, 0, False), "b"),
            (lambda: ordering_lower(19, 1.0, 1, 0.0), "a"),
            (lambda: independent_bracket(2, 0, 0.0, 0.0, [0.1, 0.1]), "b"),
        ],
        ids=["iid_a_float", "iid_b_float", "iid_a_bool", "iid_b_bool", "ordering_a_float", "independent_b_float"],
    )
    def test_non_integer_rank_is_named(self, call, name):
        with pytest.raises(InvalidInput, match=f"{name} must be an integer"):
            call()

    def test_numpy_integer_ranks_accepted(self):
        assert iid_bracket(19, np.int64(1), np.int32(1)) == iid_bracket(19, 1, 1)
        assert ordering_lower(100, np.int64(9), np.int64(9), 0.01) == ordering_lower(100, 9, 9, 0.01)


@pytest.mark.parametrize(
    "call",
    [
        lambda: iid_bracket(19, 1, 1, delta=math.nan),
        lambda: iid_bracket(19, 1, 1, delta_tilde=math.nan),
        lambda: independent_bracket(2, 0, 0, math.nan, [0.1, 0.1]),
        lambda: dependent_bracket(19, 0.2, 0.2, math.nan),
        lambda: ordering_lower(19, 1, 1, math.nan),
        lambda: ks_slack_tail(math.nan, 0.1),
        lambda: ks_slack_tail(0.1, 0.1, eta=math.nan),
        lambda: ks_slack_markov(math.nan, 0.1),
        lambda: ks_slack_markov(2.0, math.nan),
        lambda: ks_slack_markov(2.0, 0.1, eta=math.nan),
    ],
    ids=["iid_delta", "iid_delta_tilde", "independent", "dependent", "ordering", "tail_eps", "tail_eta",
         "markov_p", "markov_lp_norm", "markov_eta"],
)
def test_nan_slack_is_rejected(call):
    with pytest.raises(InvalidInput):
        call()
