"""KS / interval-KS / TV / exchangeability-gap metrics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from fixedb.distances import (
    FinitePmf,
    concentration,
    gamma_exact,
    ks_two_sample,
    ks_uniform,
    mod_ks_uniform,
    tv_discrete,
)
from fixedb.errors import InvalidInput

unit_samples = st.lists(st.floats(0, 1), min_size=1, max_size=60)


class TestKsUniform:
    def test_hand_examples(self):
        # n=1 at 0.5: D+ = D- = 0.5
        assert ks_uniform([0.5]).value == 0.5
        assert mod_ks_uniform([0.5]).value == 1.0
        # n=2 at the first and third quartile
        assert ks_uniform([0.25, 0.75]).value == 0.25
        assert mod_ks_uniform([0.25, 0.75]).value == 0.5
        # a perfectly spread sample: D+ = 1/n at each point's right limit
        u = (np.arange(1, 11) - 0.5) / 10
        assert ks_uniform(u).value == pytest.approx(0.05)
        assert mod_ks_uniform(u).value == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            ks_uniform([])
        with pytest.raises(InvalidInput):
            ks_uniform([1.2])
        with pytest.raises(InvalidInput):
            mod_ks_uniform([-0.1])

    @given(unit_samples)
    def test_sandwich(self, u):
        ks = ks_uniform(u).value
        mod = mod_ks_uniform(u).value
        assert ks <= mod + 1e-12
        assert mod <= 2 * ks + 1e-12
        assert 0.0 <= ks <= 1.0 and 0.0 <= mod <= 1.0

    @given(unit_samples)
    def test_mod_ks_against_brute_grid(self, u):
        """sup over half-open intervals equals the max spread of
        g = F_n - id over both one-sided limits of every jump."""
        x = np.sort(np.asarray(u, dtype=float))
        n = x.size
        i = np.arange(1, n + 1)
        grid = np.concatenate([[0.0], i / n - x, (i - 1) / n - x, [0.0]])
        brute = float(grid.max() - grid.min())
        assert mod_ks_uniform(u).value == pytest.approx(brute, abs=1e-12)
        assert ks_uniform(u).value == pytest.approx(
            max(grid.max(), -grid.min()), abs=1e-12
        )


class TestTv:
    def test_examples(self):
        p = FinitePmf(["a", "b"], [0.5, 0.5])
        q = FinitePmf(["a"], [1.0])
        assert tv_discrete(p, q).value == 0.5
        assert tv_discrete(p, p).value == 0.0

    def test_disjoint_supports(self):
        p = FinitePmf([0], [1.0])
        q = FinitePmf([1], [1.0])
        assert tv_discrete(p, q).value == 1.0

    def test_pmf_validation(self):
        with pytest.raises(InvalidInput):
            FinitePmf([0, 0], [0.5, 0.5])
        with pytest.raises(InvalidInput):
            FinitePmf([0, 1], [0.7, 0.7])
        with pytest.raises(InvalidInput):
            FinitePmf([0, 1], [-0.2, 1.2])

    @pytest.mark.parametrize(
        "support, probs",
        [
            ([1.0], [np.nan]),
            ([1.0, 2.0], [np.nan, 1.0]),
            ([np.nan], [1.0]),
            ([(1.0, np.nan)], [1.0]),
            ([(0.0, 1.0), (np.nan, 0.0)], [0.5, 0.5]),
        ],
    )
    def test_nan_probabilities_and_atoms(self, support, probs):
        with pytest.raises(InvalidInput):
            FinitePmf(support, probs)


class TestGamma:
    def test_point_mass_pair(self):
        # V = (0, 1) a.s.; the swap mixture puts 1/2 on (1, 0), so the
        # gap is 0.5
        joint = FinitePmf([(0.0, 1.0)], [1.0])
        assert gamma_exact(joint).value == pytest.approx(0.5)

    def test_exchangeable_is_zero(self):
        rng = np.random.default_rng(4)
        atoms = [tuple(t) for t in rng.integers(0, 3, size=(6, 3))]
        weights = rng.dirichlet(np.ones(len(atoms)))
        # symmetrize over all coordinate permutations of each atom
        import itertools

        sym = {}
        for atom, w in zip(atoms, weights):
            perms = list(itertools.permutations(atom))
            for p in perms:
                sym[p] = sym.get(p, 0.0) + w / len(perms)
        joint = FinitePmf(list(sym), np.array(list(sym.values())))
        assert gamma_exact(joint).value == pytest.approx(0.0, abs=1e-12)

    def test_gamma_at_most_swap_average(self):
        # TV to a mixture is at most the average TV to its components
        rng = np.random.default_rng(11)
        atoms = [tuple(t) for t in rng.integers(0, 4, size=(8, 3))]
        atoms = list(dict.fromkeys(atoms))
        w = rng.dirichlet(np.ones(len(atoms)))
        joint = FinitePmf(atoms, w)
        gap = gamma_exact(joint).value
        width = 3
        avg = 0.0
        for i in range(width):
            swapped = {}
            for atom, p in zip(atoms, w):
                s = list(atom)
                s[i], s[-1] = s[-1], s[i]
                s = tuple(s)
                swapped[s] = swapped.get(s, 0.0) + p
            qi = FinitePmf(list(swapped), np.array(list(swapped.values())))
            avg += tv_discrete(joint, qi).value / width
        assert gap <= avg + 1e-12

    def test_validation(self):
        with pytest.raises(InvalidInput):
            gamma_exact(FinitePmf([1.0], [1.0]))
        with pytest.raises(InvalidInput):
            gamma_exact(FinitePmf([(1.0,)], [1.0]))


class TestConcentrationAndTwoSample:
    def test_concentration_examples(self):
        assert concentration([0.0, 0.0, 0.0, 1.0], 0.5) == 0.75
        assert concentration([0.0, 1.0, 2.0, 3.0], 0.5) == 0.25
        assert concentration([1.0, 1.0], 1e-9) == 1.0
        with pytest.raises(InvalidInput):
            concentration([1.0], 0.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: concentration([1.0, 2.0], np.nan),
            lambda: concentration([1.0, np.nan], 0.5),
            lambda: ks_two_sample([1.0, np.nan], [0.5]),
            lambda: ks_two_sample([0.5], [np.nan]),
        ],
    )
    def test_nan_is_rejected(self, call):
        with pytest.raises(InvalidInput):
            call()

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=30),
        st.lists(st.floats(-5, 5), min_size=1, max_size=30),
    )
    def test_two_sample_matches_scipy(self, x, y):
        ours = ks_two_sample(x, y).value
        ref = stats.ks_2samp(np.asarray(x), np.asarray(y), method="exact").statistic
        assert ours == pytest.approx(float(ref), abs=1e-12)
