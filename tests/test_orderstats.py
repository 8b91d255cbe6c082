"""Rank rules, sentinels, minimum budgets, and the randomization tau."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixedb import orderstats
from fixedb.errors import BudgetTooSmall, InvalidInput
from fixedb.orderstats import (
    RULE_NAMES,
    BudgetSpec,
    index_rule,
    min_budget,
    order_stat,
    sorted_from,
    tau_randomization,
)


def ranks(B, alpha, name, **kw):
    r = index_rule(BudgetSpec(B, alpha), name, **kw)
    return r.lower_rank, r.upper_rank


class TestFrozenRules:
    # hand-derived: vanilla (ceil(B a/2), ceil(B(1-a/2))), modified
    # (floor((B+1)a/2), ceil((B+1)(1-a)) + floor((B+1)a/2))
    @pytest.mark.parametrize(
        "B,alpha,vanilla,mod",
        [
            (19, 0.1, (1, 19), (1, 19)),
            (39, 0.1, (2, 38), (2, 38)),
            (99, 0.1, (5, 95), (5, 95)),
            (21, 0.1, (2, 20), (1, 21)),
            (9, 0.2, (1, 9), (1, 9)),
            (6, 0.3, (1, 6), (1, 6)),
            (3, 0.5, (1, 3), (1, 3)),
        ],
    )
    def test_two_sided(self, B, alpha, vanilla, mod):
        assert ranks(B, alpha, "vanilla_two_sided") == vanilla
        assert ranks(B, alpha, "mod_two_sided") == mod
        assert index_rule(BudgetSpec(B, alpha), "mod_two_sided").kind == "left_closed_right_open"

    def test_one_sided_and_tests(self):
        assert ranks(19, 0.1, "one_sided_upper_mod") == (0, 18)
        assert ranks(19, 0.1, "randomization") == (0, 18)
        assert ranks(9, 0.1, "one_sided_upper_mod") == (0, 9)
        # permutation: full-group rank ceil(B(1-a)) + 2, subset rank
        # ceil((B+1)(1-a)) + 1
        assert ranks(99, 0.1, "permutation_sub") == (0, 91)
        assert ranks(24, 0.05, "permutation_full") == (0, 25)  # sentinel, never rejects
        assert ranks(6, 0.5, "permutation_full") == (0, 5)

    def test_conformal(self):
        assert ranks(100, 0.1, "conformal_split") == (0, 91)
        assert ranks(100, 0.1, "conformal_mod") == (0, 95)
        assert ranks(10, 0.3, "conformal_mod") == (0, 9)
        # rank 11 > m resolves through the sentinel rather than raising
        assert ranks(10, 0.1, "conformal_mod") == (0, 11)
        assert ranks(5, 0.1, "conformal_split") == (0, 6)

    def test_ordering_symmetric(self):
        # a = b = floor(B alpha / 3 - 1/2)
        assert ranks(100, 0.3, "ordering_symmetric") == (9, 91)
        assert ranks(5, 0.3, "ordering_symmetric") == (0, 5)
        with pytest.raises(BudgetTooSmall) as ei:
            index_rule(BudgetSpec(4, 0.3), "ordering_symmetric")
        assert ei.value.min_b == 5  # ceil(3 / (2 * 0.3))

    def test_dependent_two_sided(self):
        assert ranks(19, 0.2, "dependent_two_sided", gamma=0.2, beta=0.2) == (1, 18)
        assert ranks(3, 0.5, "dependent_two_sided", gamma=0.5, beta=0.5) == (0, 3)
        with pytest.raises(BudgetTooSmall) as ei:
            index_rule(BudgetSpec(3, 0.2), "dependent_two_sided", gamma=0.2, beta=0.2)
        assert ei.value.min_b == 9  # min(ceil(4/gamma - 1), ceil(2/beta - 1))

    def test_unknown_rule(self):
        with pytest.raises(InvalidInput):
            index_rule(BudgetSpec(19, 0.1), "no_such_rule")


class TestBudgetTooSmall:
    def test_modified_full_support_raises(self):
        # the raw rank rule spans the full support until the one-sided
        # minimum B = 9; between 9 and the two-sided minimum 19 it is
        # legal but lower-degenerate (lower rank 0)
        with pytest.raises(BudgetTooSmall) as ei:
            index_rule(BudgetSpec(5, 0.1), "mod_two_sided")
        assert ei.value.min_b == 9
        assert ranks(10, 0.1, "mod_two_sided") == (0, 10)
        # vanilla stays legal at the same budget
        assert ranks(5, 0.1, "vanilla_two_sided") == (1, 5)

    def test_one_sided_threshold_rules_raise(self):
        for name in ("one_sided_upper_mod", "randomization"):
            with pytest.raises(BudgetTooSmall) as ei:
                index_rule(BudgetSpec(8, 0.1), name)
            assert ei.value.min_b == 9

    def test_empty_interval_reports_its_own_rule_budget(self):
        with pytest.raises(BudgetTooSmall) as ei:
            index_rule(BudgetSpec(1, 0.1), "vanilla_two_sided")
        assert ei.value.min_b == 2
        assert ranks(2, 0.1, "vanilla_two_sided") == (1, 2)
        with pytest.raises(BudgetTooSmall) as ei:
            index_rule(BudgetSpec(1, 0.6), "mod_two_sided_floor")
        assert ei.value.min_b == 2
        assert ranks(2, 0.6, "mod_two_sided_floor") == (0, 1)

    @pytest.mark.parametrize("name", RULE_NAMES)
    def test_min_b_is_where_every_budget_is_accepted(self, name):
        """Over alpha = k/20 and B <= 400, every raise's min_b is the
        smallest budget from which on each B is accepted.  That is the
        smallest accepted B, except for vanilla_two_sided at alpha >=
        0.7, which accepts every even B but rejects each odd B below
        1/(1 - alpha)."""
        top = 400
        for k in range(1, 20):
            alpha = k / 20
            raised = {}
            for B in range(1, top + 1):
                try:
                    index_rule(BudgetSpec(B, alpha), name)
                except BudgetTooSmall as exc:
                    raised[B] = exc.min_b
            if not raised:
                continue
            from_here = max(raised) + 1
            assert from_here <= top // 2, (name, alpha)
            assert set(raised.values()) == {from_here}, (name, alpha, raised)
            if name != "vanilla_two_sided" or alpha < 0.7:
                assert sorted(raised) == list(range(1, from_here)), (name, alpha)

    def test_min_budget_values(self):
        assert min_budget(0.1, "two") == 19
        assert min_budget(0.1, "one") == 9
        assert min_budget(0.05, "two") == 39
        assert min_budget(0.3, "two") == 6
        assert min_budget(0.5, "two") == 3
        with pytest.raises(InvalidInput):
            min_budget(0.1, "both")


class TestSortedSample:
    def test_sentinels(self):
        s = sorted_from([3.0, 1.0, 2.0])
        assert s.values.tolist() == [1.0, 2.0, 3.0]
        assert order_stat(s, 0) == -math.inf
        assert order_stat(s, -5) == -math.inf
        assert order_stat(s, 4) == math.inf
        assert order_stat(s, 2) == 2.0

    def test_validation(self):
        with pytest.raises(InvalidInput):
            sorted_from([])
        with pytest.raises(InvalidInput):
            sorted_from([1.0, math.nan])
        with pytest.raises(InvalidInput):
            sorted_from([1.0, math.inf])
        with pytest.raises(InvalidInput):
            sorted_from([[1.0, 2.0]])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=40), st.data())
    def test_order_stat_monotone(self, vals, data):
        s = sorted_from(vals)
        r1 = data.draw(st.integers(-1, len(vals) + 2))
        r2 = data.draw(st.integers(-1, len(vals) + 2))
        if r1 > r2:
            r1, r2 = r2, r1
        assert order_stat(s, r1) <= order_stat(s, r2)

    @given(st.integers(1, 6), st.integers(1, 12), st.data())
    def test_stack_reads_order_stat_at_every_rank(self, R, B, data):
        # few distinct values, so rows tie, -0.0 and 0.0 among them
        values = data.draw(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 2.0, 7.25]), min_size=R * B, max_size=R * B))
        stack = np.array(values).reshape(R, B)
        padded = orderstats._sorted_stack(stack)
        assert padded.shape == (R, B + 2)
        for row, got in zip(stack, padded):
            s = sorted_from(row)
            want = [order_stat(s, r) for r in range(B + 2)]
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestTau:
    def test_frozen(self):
        # (B+1)(1-alpha) integer -> 1.0 exactly
        assert tau_randomization(BudgetSpec(19, 0.1)) == 1.0
        assert tau_randomization(BudgetSpec(19, 0.05)) == 1.0
        # fractional-part cases, exact rationals
        assert tau_randomization(BudgetSpec(20, 0.1)) == 0.9
        assert tau_randomization(BudgetSpec(25, 0.1)) == 0.4

    @given(st.integers(1, 400), st.integers(1, 99))
    def test_mixture_identity(self, B, num):
        # tau ceil(t) + (1-tau) floor(t) == t == (B+1)(1-alpha), exactly
        alpha = Fraction(num, 100)
        tau = Fraction(tau_randomization(BudgetSpec(B, float(alpha)))).limit_denominator(10**6)
        t = (B + 1) * (1 - alpha)
        assert tau * math.ceil(t) + (1 - tau) * math.floor(t) == t

    def test_grid_matches_the_fraction_formula(self):
        # tau = t - floor(t), or 1 when t = (B+1)(1-alpha) is an integer
        for num in range(1, 200):
            alpha = Fraction(num, 200)
            for B in range(1, 1200, 7):
                t = (B + 1) * (1 - alpha)
                frac = t - math.floor(t)
                assert tau_randomization(BudgetSpec(B, num / 200)) == float(frac if frac else 1), (B, num)

    @given(st.integers(1, 300), st.integers(1, 19))
    def test_range(self, B, num):
        tau = tau_randomization(BudgetSpec(B, num / 20))
        assert 0.0 < tau <= 1.0


@given(st.integers(1, 500), st.integers(1, 199))
def test_rank_sanity_all_rules(B, num):
    """Every successfully resolved rule yields 0 <= lower < upper <= B+1."""
    spec = BudgetSpec(B, num / 200)
    for name in RULE_NAMES:
        try:
            r = index_rule(spec, name)
        except BudgetTooSmall as exc:
            assert exc.min_b is None or exc.min_b > 0
            continue
        assert 0 <= r.lower_rank < r.upper_rank, name
        if name not in ("permutation_full", "permutation_sub", "conformal_split", "conformal_mod"):
            assert r.upper_rank <= B + 1, name


@given(st.integers(19, 400), st.integers(1, 40))
def test_modified_at_least_as_wide_as_vanilla(B, num):
    alpha = num / 100
    if B < min_budget(alpha, "two"):
        return
    lv, uv = ranks(B, alpha, "vanilla_two_sided")
    lm, um = ranks(B, alpha, "mod_two_sided")
    assert lm <= lv
    assert um >= uv


def test_alpha_snapping_absorbs_float_noise():
    noisy = 0.1 + 3e-13
    assert ranks(99, noisy, "mod_two_sided") == ranks(99, 0.1, "mod_two_sided")
    assert tau_randomization(BudgetSpec(20, noisy)) == 0.9


class TestAlphaSnapEndpoints:
    """An alpha that snaps to 0 or 1 on the k/10**6 lattice raises
    InvalidInput naming alpha, not a ZeroDivisionError."""

    @pytest.mark.parametrize("alpha", [1e-9, 5e-7, 1 - 4e-7, 1 - 1e-9])
    def test_every_rank_entry_point(self, alpha):
        calls = [
            lambda: min_budget(alpha, "two"),
            lambda: min_budget(alpha, "one"),
            lambda: index_rule(BudgetSpec(19, alpha), "vanilla_two_sided"),
            lambda: tau_randomization(BudgetSpec(19, alpha)),
        ]
        for call in calls:
            with pytest.raises(InvalidInput, match=f"alpha={alpha!r} snaps to"):
                call()

    def test_the_smallest_level_on_the_lattice_still_resolves(self):
        assert min_budget(1e-6, "two") == 1_999_999
        assert min_budget(1 - 1e-6, "one") == 1


def test_budget_spec_validation():
    with pytest.raises(InvalidInput):
        BudgetSpec(0, 0.1)
    with pytest.raises(InvalidInput):
        BudgetSpec(2.5, 0.1)
    with pytest.raises(InvalidInput):
        BudgetSpec(19, 0.0)
    with pytest.raises(InvalidInput):
        BudgetSpec(19, 1.0)


class TestBudgetBoundary:
    """BudgetSpec and min_budget take real scalars only, and store a
    plain int B and float alpha so the rank caches can hash them."""

    @pytest.mark.parametrize(
        "B, alpha",
        [
            (True, 0.1),
            (False, 0.1),
            ("19", 0.1),
            (None, 0.1),
            (np.array([19]), 0.1),
            (math.nan, 0.1),
            (math.inf, 0.1),
            (19, "x"),
            (19, True),
            (19, None),
            (19, 0.1 + 0j),
            (19, np.array([0.1])),
            (19, np.array(True)),
            (19, math.nan),
        ],
    )
    def test_rejects_with_invalid_input(self, B, alpha):
        with pytest.raises(InvalidInput):
            BudgetSpec(B, alpha)

    @pytest.mark.parametrize("alpha", [np.array(0.1), np.float64(0.1), Fraction(1, 10)])
    def test_numpy_and_rational_alpha_match_float(self, alpha):
        spec = BudgetSpec(19, alpha)
        assert type(spec.alpha) is float and spec == BudgetSpec(19, 0.1)
        for name in ("mod_two_sided", "vanilla_two_sided", "randomization"):
            assert index_rule(spec, name) == index_rule(BudgetSpec(19, 0.1), name)
        assert min_budget(alpha) == min_budget(0.1) == 19
        assert min_budget(alpha, "one") == min_budget(0.1, "one") == 9

    @pytest.mark.parametrize("B", [np.int64(19), np.array(19), 19.0])
    def test_integral_budget_is_stored_as_int(self, B):
        spec = BudgetSpec(B, 0.1)
        assert type(spec.B) is int and spec == BudgetSpec(19, 0.1)

    @pytest.mark.parametrize("alpha", ["x", True, np.array([0.1]), None])
    def test_min_budget_rejects_non_real_alpha(self, alpha):
        with pytest.raises(InvalidInput):
            min_budget(alpha)

    def test_numpy_tail_splits_match_float(self):
        spec = BudgetSpec(39, 0.1)
        want = index_rule(spec, "dependent_two_sided", gamma=0.2, beta=0.1)
        got = index_rule(spec, "dependent_two_sided", gamma=np.array(0.2), beta=np.float64(0.1))
        assert got == want
        with pytest.raises(InvalidInput):
            index_rule(spec, "dependent_two_sided", gamma="x")


class TestRuleCache:
    """index_rule caches its ranks; the cache must give what the
    uncached resolution gives, and never cache a raise."""

    @staticmethod
    def outcome(fn, *args, **kw):
        try:
            return fn(*args, **kw)
        except (BudgetTooSmall, InvalidInput) as exc:
            return type(exc), str(exc), getattr(exc, "min_b", None)

    def test_cached_rules_equal_uncached(self):
        uncached = orderstats._index_rule.__wrapped__
        alphas = (0.01, 0.05, 0.1, 0.1 + 3e-13, 0.2, 0.25, 1 / 3, 0.5, 0.9)
        for B in list(range(1, 60)) + [99, 199, 999]:
            for alpha in alphas:
                spec = BudgetSpec(B, alpha)
                for name in RULE_NAMES:
                    want = self.outcome(uncached, B, alpha, name, None, None)
                    for _ in range(2):  # the second call is a cache hit
                        assert self.outcome(index_rule, spec, name) == want, (B, alpha, name)
                for g, b in ((0.05, 0.1), (0.1, 0.05), (alpha, None)):
                    want = self.outcome(uncached, B, alpha, "dependent_two_sided", g, b)
                    got = self.outcome(index_rule, spec, "dependent_two_sided", gamma=g, beta=b)
                    assert got == want, (B, alpha, g, b)
        assert index_rule(BudgetSpec(np.int64(19), 0.1), "mod_two_sided") == index_rule(
            BudgetSpec(19, 0.1), "mod_two_sided"
        )

    def test_a_budget_too_small_is_remembered_and_raised_afresh(self, monkeypatch):
        spec = BudgetSpec(5, 0.1)
        orderstats._index_rule.cache_clear()
        raised = []
        for _ in range(2):
            with pytest.raises(BudgetTooSmall) as err:
                index_rule(spec, "mod_two_sided")
            raised.append(err.value)
            # the second call reads the remembered outcome: no Fraction is formed
            monkeypatch.setattr(orderstats, "_snap_alpha", None)
        first, second = raised
        assert first is not second
        assert str(first) == str(second) == "rule mod_two_sided covers the full support at B=5, alpha=0.1"
        assert first.min_b == second.min_b == 9

    def test_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(BudgetTooSmall):
                index_rule(BudgetSpec(5, 0.1), "mod_two_sided")
            with pytest.raises(InvalidInput):
                index_rule(BudgetSpec(19, 0.1), "no_such_rule")
            with pytest.raises(InvalidInput):
                index_rule(BudgetSpec(19, 0.1), "dependent_two_sided", gamma=1.5)
