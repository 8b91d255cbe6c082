"""One integer check for every count, size and rank, one real check for
every level, rate and slack, one vector check for every sample, pmf and
probability vector, and one choice check for every named choice: each
malformed one raises a typed FixedBError before NumPy computes on it,
and the coercions that stay on purpose (``BudgetSpec`` and the config
loader) still accept integral reals."""

import json
import math
import os
import pickle
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from fixedb import bounds, discrete, distances, errors, harness, oracle, orderstats, procedures, resampling
from fixedb.errors import FixedBError, InvalidInput
from fixedb.harness import CoverageRow, load_config, normalize_config
from fixedb.orderstats import BudgetSpec, index_rule, min_budget, order_stat, sorted_from
from fixedb.procedures import ci_boot, ci_subsample, conformal_set, permutation_test, randomization_test
from fixedb.resampling import PermutationGroup, SeedSpec, SgdSpec, full_symmetric, setting_sampler, setting_truth

# every malformed input must be rejected before NumPy computes on it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _sgd(**kw):
    base = dict(dim=1, gamma1=1.0, tau_exp=0.6, burn_in=1, n_total=10, gradient=lambda th, pt: th)
    return SgdSpec(**{**base, **kw})


def _joint():
    return oracle.random_joint(np.random.default_rng(0), 3)


def _cond_iid():
    return oracle.random_cond_iid(np.random.default_rng(0))


_MALFORMED = {
    "sgd_dim_bool": lambda: _sgd(dim=True),
    "sgd_dim_float": lambda: _sgd(dim=2.0),
    "sgd_n_total_float": lambda: _sgd(n_total=10.5),
    "sgd_burn_in_float": lambda: _sgd(burn_in=1.5),
    "sgd_burn_in_past_n_total": lambda: _sgd(burn_in=10),
    "setting_m_float": lambda: setting_sampler(1, {"m": 2.5}, SeedSpec(0)),
    "setting_m_bool": lambda: setting_sampler(1, {"m": True}, SeedSpec(0)),
    "setting_m_str": lambda: setting_sampler(3, {"m": "7"}, SeedSpec(0)),
    "setting_m_missing": lambda: setting_sampler(1, {}, SeedSpec(0)),
    "setting_d_float": lambda: setting_sampler(2, {"m": 3, "d": 2.5}, SeedSpec(0)),
    "setting_n_float": lambda: setting_sampler(4, {"n": 5.5}, SeedSpec(0)),
    "continuous_iid_float_ranks": lambda: oracle.exact_coverage_continuous_iid(19, 1.5, 0.5, "closed"),
    "continuous_iid_bool_rank": lambda: oracle.exact_coverage_continuous_iid(19, True, 0, "closed"),
    "discrete_float_rank": lambda: oracle.exact_coverage_discrete(_joint(), 0.5, 0, "closed"),
    "check_cond_iid_float_budget": lambda: oracle.check_cond_iid(_cond_iid(), 2.5),
    "grid_sweep_float": lambda: oracle.conformal_grid_sweep(1.5, 10),
    "grid_sweep_bool": lambda: oracle.conformal_grid_sweep(True, 10),
    "grid_sweep_empty": lambda: oracle.conformal_grid_sweep(10, 9),
    "random_joint_zero": lambda: oracle.random_joint(np.random.default_rng(0), B=0),
    "random_cond_indep_zero": lambda: oracle.random_cond_indep(np.random.default_rng(0), B=0),
    "order_stat_float_rank": lambda: order_stat(sorted_from([1.0, 2.0]), 1.5),
    "coverage_row_float_reps": lambda: CoverageRow(1, "modified", 19, 0.1, 40, 2.5, 0.9, 1.0, 0),
}


@pytest.mark.parametrize("call", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_count_raises_a_typed_error(call):
    with pytest.raises(FixedBError):
        call()


@pytest.mark.parametrize("module", [bounds, discrete, oracle, resampling], ids=lambda m: m.__name__)
def test_the_integer_check_is_the_one_in_errors(module):
    for name in ("_is_integer", "_check_count"):
        assert getattr(module, name, getattr(errors, name)) is getattr(errors, name)


def test_integral_budget_float_still_accepted():
    assert BudgetSpec(19.0, 0.1) == BudgetSpec(19, 0.1)
    assert type(BudgetSpec(19.0, 0.1).B) is int


def test_numpy_integer_counts_accepted():
    seed = SeedSpec(np.uint64(3), np.int64(1))
    assert np.array_equal(setting_sampler(1, {"m": np.int64(6)}, seed), setting_sampler(1, {"m": 6}, seed))
    assert _sgd(dim=np.int32(1), burn_in=np.int64(1), n_total=np.int64(10)).n_total == 10
    assert oracle.exact_coverage_continuous_iid(np.int64(19), np.int64(1), np.int64(1), "closed") == (
        oracle.exact_coverage_continuous_iid(19, 1, 1, "closed")
    )
    joint = _joint()
    assert oracle.exact_coverage_discrete(joint, np.int64(1), np.int64(-1), "closed") == (
        oracle.exact_coverage_discrete(joint, 1, -1, "closed")
    )


def test_json_integral_budget_still_accepted(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"procedure": "bootstrap", "B": [19.0], "m": 20.0}))
    cfg = normalize_config(load_config(str(path)))
    assert cfg["B"] == [19] and type(cfg["B"][0]) is int
    assert cfg["m"] == 20 and type(cfg["m"]) is int


class TestIntegralFloatBudgetInTests:
    """Every B-taking procedure accepts what BudgetSpec accepts."""

    def test_randomization(self):
        x = np.random.default_rng(1).standard_normal(12)
        for group in ("signflip", [lambda v: v, lambda v: -v[::-1]]):
            for seed in (SeedSpec(0), SeedSpec(7, 3)):
                got = randomization_test(x, np.mean, group, B=19.0, seed=seed)
                assert got == randomization_test(x, np.mean, group, B=19, seed=seed)

    def test_permutation(self):
        rng = np.random.default_rng(2)
        pair = (rng.standard_normal(8), rng.standard_normal(8))

        def corr(d, p):
            return float(np.corrcoef(d[0], d[1][p])[0, 1])

        for seed in (SeedSpec(0), SeedSpec(7, 3)):
            got = permutation_test(pair, corr, full_symmetric(8), 19.0, 0.1, seed)
            assert got == permutation_test(pair, corr, full_symmetric(8), 19, 0.1, seed)


# site -> (the argument its message names, a call taking that argument)
_REAL_SITES = {
    "ci_boot_tau_m": ("tau_m", lambda v: ci_boot(np.arange(1.0, 31.0), np.mean, tau_m=v)),
    "ci_subsample_tau_k": ("tau_k", lambda v: ci_subsample(np.arange(30.0), np.mean, tau_k=v, k=10)),
    "index_rule_gamma": (
        "gamma",
        lambda v: index_rule(BudgetSpec(99, 0.1), "dependent_two_sided", gamma=v, beta=0.1),
    ),
    "index_rule_beta": (
        "beta",
        lambda v: index_rule(BudgetSpec(99, 0.1), "dependent_two_sided", gamma=0.1, beta=v),
    ),
    "sgd_gamma1": ("gamma1", lambda v: _sgd(gamma1=v)),
    "sgd_tau_exp": ("tau_exp", lambda v: _sgd(tau_exp=v)),
    "iid_bracket_delta": ("delta", lambda v: bounds.iid_bracket(19, 1, 1, delta=v)),
    "iid_bracket_delta_tilde": ("delta_tilde", lambda v: bounds.iid_bracket(19, 1, 1, delta_tilde=v)),
    "dependent_bracket_gamma": ("gamma", lambda v: bounds.dependent_bracket(19, v, 0.1, 0.0)),
    "dependent_bracket_beta": ("beta", lambda v: bounds.dependent_bracket(19, 0.1, v, 0.0)),
    "dependent_bracket_gap": ("gap", lambda v: bounds.dependent_bracket(19, 0.1, 0.1, v, continuous=True)),
    "ks_slack_tail_eps": ("eps", lambda v: bounds.ks_slack_tail(v, 0.1)),
    "ks_slack_tail_p_exceed": ("p_exceed", lambda v: bounds.ks_slack_tail(0.1, v)),
    "ks_slack_tail_eta": ("eta", lambda v: bounds.ks_slack_tail(0.1, 0.1, v)),
    "ks_slack_markov_p": ("p", lambda v: bounds.ks_slack_markov(v, 0.1)),
    "ks_slack_markov_lp_norm": ("lp_norm", lambda v: bounds.ks_slack_markov(2.0, v)),
    "ks_slack_markov_eta": ("eta", lambda v: bounds.ks_slack_markov(2.0, 0.1, v)),
    "independent_bracket_d_tilde": ("d_tilde", lambda v: bounds.independent_bracket(3, 0, 0, v, [0.1] * 3)),
    "independent_bracket_kappas": ("kappas", lambda v: bounds.independent_bracket(3, 0, 0, 0.0, [v] * 3)),
    "ordering_lower_d_ks": ("d_ks", lambda v: bounds.ordering_lower(19, 1, 1, v)),
    "concentration_eps": ("eps", lambda v: distances.concentration([0.0, 1.0], v)),
    "grid_sweep_alphas": ("alphas", lambda v: oracle.conformal_grid_sweep(5, 10, alphas=(v,))),
    # the binomial CDF is the running sum of binom_pmf, which checks p
    "binom_cdf_p": ("p", lambda v: np.cumsum(discrete.binom_pmf(5, v).probs)),
    "coverage_row_coverage": ("coverage", lambda v: CoverageRow(1, "modified", 19, 0.1, 40, 10, v, 1.0, 0)),
    "budget_alpha": ("alpha", lambda v: BudgetSpec(19, v)),
    "budget_B": ("budget B", lambda v: BudgetSpec(v, 0.1)),
    "min_budget_alpha": ("alpha", lambda v: min_budget(v)),
}
_BAD_REALS = {
    "str": "0.1",
    "bool": True,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "pair": np.array([0.1, 0.2]),
}
_MALFORMED_REAL = {
    f"{site}-{label}": (what, partial(call, v))
    for site, (what, call) in _REAL_SITES.items()
    for label, v in _BAD_REALS.items()
}


@pytest.mark.parametrize("what,call", _MALFORMED_REAL.values(), ids=_MALFORMED_REAL.keys())
def test_malformed_real_raises_a_typed_error_naming_it(what, call):
    with pytest.raises(FixedBError) as err:
        call()
    assert isinstance(err.value, InvalidInput) and what in str(err.value)


def _ci_bits(ci):
    return ci.interval, ci.span, ci.resample_stats.values.tolist()


# site -> (a call taking a real, a valid value, how to compare two results)
_REAL_ACCEPTED = {
    "ci_boot_tau_m": (lambda v: ci_boot(np.arange(1.0, 31.0), np.mean, tau_m=v), 2.0, _ci_bits),
    "ci_subsample_tau_k": (lambda v: ci_subsample(np.arange(30.0), np.mean, tau_k=v, k=10), 3.0, _ci_bits),
    "index_rule_gamma": (
        lambda v: index_rule(BudgetSpec(99, 0.1), "dependent_two_sided", gamma=v, beta=0.1),
        0.2,
        None,
    ),
    "iid_bracket_delta": (lambda v: bounds.iid_bracket(19, 1, 1, delta=v, delta_tilde=v), 0.0, None),
    "dependent_bracket_gap": (lambda v: bounds.dependent_bracket(19, 0.1, 0.1, v, continuous=True), 0.0, None),
    "ks_slack_markov_p": (lambda v: bounds.ks_slack_markov(v, 0.1, 0.0), 2.0, None),
    "independent_bracket_kappas": (lambda v: bounds.independent_bracket(3, 0, 0, 0.0, [v] * 3), 1.0, None),
    "ordering_lower_d_ks": (lambda v: bounds.ordering_lower(19, 1, 1, v), 0.0, None),
    "concentration_eps": (lambda v: distances.concentration([0.0, 0.5, 1.0], v), 1.0, None),
    "grid_sweep_alphas": (lambda v: oracle.conformal_grid_sweep(5, 50, alphas=(v,)), 0.1, None),
    "binom_cdf_p": (lambda v: np.cumsum(discrete.binom_pmf(5, v).probs), 1.0, lambda cdf: cdf.tolist()),
    "coverage_row_coverage": (lambda v: CoverageRow(1, "modified", 19, 0.1, 40, 10, v, 1.0, 0), 1.0, None),
    "budget_alpha": (lambda v: BudgetSpec(19, v), 0.1, None),
    "min_budget_alpha": (lambda v: min_budget(v), 0.1, None),
}


@pytest.mark.parametrize("call,value,key", _REAL_ACCEPTED.values(), ids=_REAL_ACCEPTED.keys())
def test_numpy_and_integer_reals_accepted(call, value, key):
    key = key or (lambda out: out)
    want = key(call(value))
    inputs = [np.float64(value), np.array(value)] + ([int(value)] if value.is_integer() else [])
    for v in inputs:
        assert key(call(v)) == want, v


def test_integer_budget_stays_exact():
    assert BudgetSpec(2**60 + 1, 0.1).B == 2**60 + 1


@pytest.mark.parametrize(
    "module", [bounds, discrete, distances, harness, oracle, orderstats, procedures, resampling],
    ids=lambda m: m.__name__,
)
def test_the_real_check_is_the_one_in_errors(module):
    assert not hasattr(orderstats, "_real_scalar")
    assert module._check_real is errors._check_real


def test_infinite_slack_is_not_read_as_no_upper_bound():
    with pytest.raises(InvalidInput, match="delta must be a finite real"):
        bounds.iid_bracket(19, 1, 1, delta=math.inf)
    with pytest.raises(InvalidInput, match="gap must be a finite real"):
        bounds.dependent_bracket(19, 0.1, 0.1, math.inf, continuous=True)


@pytest.mark.parametrize("gamma", [math.nan, 1e-9])
def test_bad_gamma_is_named_gamma(gamma):
    with pytest.raises(InvalidInput, match="^gamma"):
        index_rule(BudgetSpec(99, 0.1), "dependent_two_sided", gamma=gamma, beta=0.1)


def _cond_iid_with(**kw):
    fields = dict(z_probs=(0.5, 0.5), psi_vals=(0.0, 1.0), w_atoms=(0.0, 1.0), w_cond=((0.5, 0.5), (0.25, 0.75)))
    return oracle.CondIIDInstance(**{**fields, **kw})


def _cond_indep_with(**kw):
    fields = dict(z_probs=(0.5, 0.5), psi_vals=(0.0, 1.0), w_atoms=(0.0, 1.0), w_cond=(((0.5, 0.5), (0.25, 0.75)),))
    return oracle.CondIndepInstance(**{**fields, **kw})


# input -> (what its message names, a call taking it)
_MALFORMED_VECTORS = {
    # a raw ValueError or TypeError at the parent
    "sorted_from_str": ("sample", lambda: sorted_from(["x", "y"])),
    "conformal_set_str": ("calib_scores", lambda: conformal_set(["x"] * 20, 0.1)),
    "signflip_transform_str": ("x must", lambda: resampling.signflip_transform(["x"], SeedSpec(0))),
    "ks_uniform_str": ("sample", lambda: distances.ks_uniform(["x"])),
    "dist_to_uniform_str": ("values", lambda: distances.dist_to_uniform(["x"], [1.0])),
    "poibin_spec_str": ("probs", lambda: discrete.PoiBinSpec(("x",))),
    "finite_pmf_str": ("probs", lambda: distances.FinitePmf([0], ["x"])),
    "cond_iid_psi_str": ("psi_vals", lambda: _cond_iid_with(psi_vals=("x", 1.0))),
    "cond_iid_atoms_str": ("w_atoms", lambda: _cond_iid_with(w_atoms=("x", 1.0))),
    "ehm_grid_str": ("grid", lambda: oracle.ehm_hoeffding_sweep(b_values=(2,), grid=["x"])),
    "sgd_paths_theta0_str": ("theta0", lambda: resampling.sgd_paths(_sgd(), [0.0] * 10, ["x"], [None])),
    "randomization_str": ("data", lambda: randomization_test(["x"] * 10, np.mean)),
    "concentration_2d": ("samples", lambda: distances.concentration([[0.0, 1.0], [2.0, 3.0]], 0.5)),
    "ks_two_sample_2d": ("x", lambda: distances.ks_two_sample([[0.0, 1.0]], [0.5])),
    "independent_bracket_kappas_none": ("kappas", lambda: bounds.independent_bracket(3, 0, 0, 0.0, None)),
    "independent_bracket_kappas_scalar": ("kappas", lambda: bounds.independent_bracket(3, 0, 0, 0.0, 0.3)),
    "prob_rows_ragged": ("prob_rows", lambda: discrete.poisson_binomial_pmf_batch([[0.5, 0.5], [0.5]])),
    "cond_iid_row_none": ("w_cond row", lambda: _cond_iid_with(w_cond=((0.5, 0.5), None))),
    "cond_iid_row_int": ("w_cond row", lambda: _cond_iid_with(w_cond=((0.5, 0.5), 3))),
    "cond_iid_w_cond_none": ("w_cond", lambda: _cond_iid_with(w_cond=None)),
    "cond_indep_row_none": ("w_cond", lambda: _cond_indep_with(w_cond=(None,))),
    "cond_indep_w_cond_int": ("w_cond", lambda: _cond_indep_with(w_cond=3)),
    # accepted at the parent
    "sorted_from_numeric_str": ("sample", lambda: sorted_from(["0.1", "0.2"])),
    "poibin_spec_numeric_str": ("probs", lambda: discrete.PoiBinSpec(("0.5",))),
    "concentration_inf": ("samples", lambda: distances.concentration([0.0, math.inf], 0.5)),
    "concentration_-inf": ("samples", lambda: distances.concentration([-math.inf, 0.0], 0.5)),
    "ks_two_sample_inf": ("y", lambda: distances.ks_two_sample([0.0, 1.0], [0.5, math.inf])),
    "cond_iid_atoms_inf": ("w_atoms", lambda: _cond_iid_with(w_atoms=(0.0, math.inf))),
    "signflip_transform_nan": ("x must", lambda: resampling.signflip_transform([1.0, math.nan], SeedSpec(0))),
    "signflip_transform_inf": ("x must", lambda: resampling.signflip_transform([math.inf, 1.0], SeedSpec(0))),
    "finite_pmf_2d": ("probs", lambda: distances.FinitePmf([0], [[1.0]])),
    "prob_rows_above_1": ("prob_rows", lambda: discrete.poisson_binomial_pmf_batch([[2.0, 0.5]])),
    "prob_rows_negative": ("prob_rows", lambda: discrete.poisson_binomial_pmf_batch([0.5, -0.5])),
    "prob_rows_nan": ("prob_rows", lambda: discrete.poisson_binomial_pmf_batch([[0.5, math.nan]])),
    # a sample with no leading axis, and malformed explicit permutations
    "ci_boot_data_none": ("data", lambda: ci_boot(None, np.mean)),
    "ci_boot_data_scalar": ("data", lambda: ci_boot(3.0, np.mean)),
    "ci_subsample_data_scalar": ("data", lambda: ci_subsample(3.0, np.mean, k=1)),
    "permutation_group_str_entry": ("permutation of range(2)", lambda: PermutationGroup(2, perms=((0, "a"),))),
    "permutation_group_int_perm": ("permutation of range(2)", lambda: PermutationGroup(2, perms=(5,))),
    "permutation_group_none_perm": ("permutation of range(2)", lambda: PermutationGroup(2, perms=((1, 0), None))),
}

_RAGGED_JOINT = ((1.0, 2.0, 3.0), (1.0, 2.0))
_BAD_JOINTS = {
    "ragged": ("one width", _RAGGED_JOINT),
    "ragged_reversed": ("one width", _RAGGED_JOINT[::-1]),
    "scalar_atom": ("one width", ((1.0, 2.0), 3.0)),
    "one_coordinate": ("one width", ((1.0,), (2.0,))),
    "str_coordinate": ("hold reals", ((1.0, "a"), (2.0, 1.0))),
    "none_coordinate": ("hold reals", ((1.0, None), (2.0, 1.0))),
    "nested_coordinate": ("hold reals", ((1.0, (2.0, 3.0)), (2.0, (1.0, 0.0)))),
    # NumPy would read "0.5" as 0.5, the swaps as a label of its own
    "numeric_str_coordinate": ("hold reals", ((1.0, "0.5"), (2.0, 1.0))),
    "numeric_str_target": ("hold reals", (("0.5", 1.0, 2.0), (2.0, 1.0, "1"))),
    "bytes_coordinate": ("hold reals", ((1.0, b"0.5"), (2.0, 1.0))),
    "none_target": ("hold reals", ((1.0, 2.0, None), (2.0, 1.0, 0.5))),
}
_JOINT_SITES = {
    "exact_coverage_discrete": lambda joint: oracle.exact_coverage_discrete(joint, 0, -1, "closed"),
    "check_dependent": oracle.check_dependent,
    "gamma_exact": distances.gamma_exact,
}
# unchecked, NumPy's float conversion of these atoms raises a raw ValueError
# or parses a numeric str, and gamma_exact swaps them as they are
_MALFORMED_JOINTS = {
    f"{site}-{label}": (what, partial(call, distances.FinitePmf(atoms, [0.5, 0.5])))
    for site, call in _JOINT_SITES.items()
    for label, (what, atoms) in _BAD_JOINTS.items()
}


_INDEP = partial(oracle.random_cond_indep, np.random.default_rng(0), 2)
# a call given an argument of the wrong class -> (the class its message names, the call);
# at the parent a bare AttributeError, or a message about the array shape
_WRONG_TYPES = {
    "check_cond_iid_none": ("CondIIDInstance", lambda: oracle.check_cond_iid(None, 2)),
    "check_cond_iid_indep": ("CondIIDInstance", lambda: oracle.check_cond_iid(_INDEP(), 3)),
    "check_cond_indep_iid": ("CondIndepInstance", lambda: oracle.check_cond_indep(_cond_iid())),
    "check_dependent_iid": ("FinitePmf", lambda: oracle.check_dependent(_cond_iid())),
    "iid_slacks_indep": ("CondIIDInstance", lambda: oracle.iid_slacks(_INDEP())),
    "indep_slacks_iid": ("CondIndepInstance", lambda: oracle.indep_slacks(_cond_iid())),
    "exact_coverage_discrete_dict": ("FinitePmf", lambda: oracle.exact_coverage_discrete({}, 0, -1, "closed")),
    "gamma_exact_list": ("FinitePmf", lambda: distances.gamma_exact([(1.0, 2.0)])),
}


@pytest.mark.parametrize("what,call", _WRONG_TYPES.values(), ids=_WRONG_TYPES.keys())
def test_wrong_argument_type_names_the_class(what, call):
    with pytest.raises(InvalidInput, match=f"must be a {what}, got "):
        call()


@pytest.mark.parametrize("what,call", _MALFORMED_VECTORS.values(), ids=_MALFORMED_VECTORS.keys())
def test_malformed_vector_raises_a_typed_error_naming_it(what, call):
    with pytest.raises(FixedBError) as err:
        call()
    assert isinstance(err.value, InvalidInput) and what in str(err.value)


@pytest.mark.parametrize("what,call", _MALFORMED_JOINTS.values(), ids=_MALFORMED_JOINTS.keys())
def test_malformed_joint_atoms_raise_a_typed_error(what, call):
    with pytest.raises(FixedBError) as err:
        call()
    assert isinstance(err.value, InvalidInput) and what in str(err.value)


def test_real_joint_coordinates_of_any_type_keep_their_results():
    # ints, numpy scalars and fractions are reals: read as the floats they equal
    atoms = [(1, np.int64(2), Fraction(1, 2)), (np.float32(0.5), True, 2.0), (3, 1, np.float64(1))]
    probs = [0.25, 0.25, 0.5]
    joint = distances.FinitePmf(atoms, probs)
    floats = distances.FinitePmf([tuple(map(float, t)) for t in atoms], probs)
    assert distances.gamma_exact(joint) == distances.gamma_exact(floats)
    assert oracle.check_dependent(joint) == oracle.check_dependent(floats)
    for a, b in ((0, -1), (0, 0), (1, -1)):
        assert oracle.exact_coverage_discrete(joint, a, b, "closed") == oracle.exact_coverage_discrete(floats, a, b, "closed")


def test_infinite_joint_atoms_keep_their_results():
    # +-inf order like +-1e300 against these atoms, so every count agrees
    atoms = [(-math.inf, 0.0, 0.5), (1.0, math.inf, 0.5), (0.5, -math.inf, math.inf), (0.0, 0.5, 0.0)]
    probs = [0.1, 0.2, 0.3, 0.4]
    joint = distances.FinitePmf(atoms, probs)
    finite = distances.FinitePmf([tuple(np.clip(t, -1e300, 1e300)) for t in atoms], probs)
    for a, b in ((0, -1), (0, 0), (1, -1), (1, 0)):
        for kind in orderstats._INTERVAL_KINDS:
            got = oracle.exact_coverage_discrete(joint, a, b, kind)
            assert got == oracle.exact_coverage_discrete(finite, a, b, kind)
    assert oracle.check_dependent(joint) == oracle.check_dependent(finite)


@pytest.mark.parametrize(
    "module", [bounds, discrete, distances, oracle, orderstats, procedures, resampling], ids=lambda m: m.__name__
)
def test_the_vector_check_is_the_one_in_errors(module):
    assert module._check_vector is errors._check_vector


# site -> (a call taking a vector, a valid float64 value, how to compare two results)
_VECTOR_ACCEPTED = {
    "sorted_from": (sorted_from, [3.0, 1.0, 2.0, 1.0], lambda s: s.values.tolist()),
    "conformal_set": (lambda v: conformal_set(v, 0.1), [float(i % 7) for i in range(20)], lambda p: p.threshold),
    "signflip_transform": (lambda v: resampling.signflip_transform(v, SeedSpec(5)), [1.0, -2.0, 3.0], list),
    "randomization_test": (lambda v: randomization_test(v, np.mean, seed=SeedSpec(5)), [1.0, -2.0, 3.0, 4.0], None),
    "sgd_paths_theta0": (
        lambda v: resampling.sgd_paths(_sgd(dim=2), [0.0] * 10, v, [None, SeedSpec(1)]),
        [1.0, -2.0],
        lambda out: out.tolist(),
    ),
    "finite_pmf": (lambda v: distances.FinitePmf([0, 1, 2], v), [0.0, 1.0, 0.0], lambda p: p.probs.tolist()),
    "ks_uniform": (distances.ks_uniform, [0.25, 0.5, 1.0], None),
    "dist_to_uniform": (lambda v: distances.dist_to_uniform(v, [0.5, 0.5]), [0.0, 0.75], None),
    "concentration": (lambda v: distances.concentration(v, 1.0), [0.0, 1.0, 3.0], None),
    "ks_two_sample": (lambda v: distances.ks_two_sample(v, [0.5, 2.5]), [0.0, 1.0, 3.0], None),
    "poibin_spec": (discrete.PoiBinSpec, [0.0, 1.0, 1.0], lambda s: s.probs),
    "prob_rows": (discrete.poisson_binomial_pmf_batch, [0.25, 0.5, 0.75], lambda pmf: pmf.tolist()),
    "cond_iid_atoms": (lambda v: oracle.iid_slacks(_cond_iid_with(w_atoms=v)), [0.0, 2.0], None),
    "ehm_grid": (lambda v: oracle.ehm_hoeffding_sweep(b_values=(2,), grid=v), [0.25, 0.5], None),
    "independent_bracket_kappas": (lambda v: bounds.independent_bracket(3, 0, 0, 0.0, v), [0.0, 1.0, 0.0], None),
}


@pytest.mark.parametrize("call,value,key", _VECTOR_ACCEPTED.values(), ids=_VECTOR_ACCEPTED.keys())
def test_integer_and_narrow_vectors_accepted(call, value, key):
    key = key or (lambda out: out)
    want = key(call(np.array(value, dtype=np.float64)))
    inputs = [list(value), tuple(value), np.array(value, dtype=np.float32)]
    if all(v.is_integer() for v in value):
        inputs += [[int(v) for v in value], np.array(value, dtype=np.int64)]
    for v in inputs:
        assert key(call(v)) == want, v


# site -> (the argument its message names, a call taking that argument, a valid value)
_CHOICE_SITES = {
    "iid_bracket": ("kind", lambda v: bounds.iid_bracket(19, 1, 1, kind=v), "closed"),
    "exact_coverage_discrete": ("kind", lambda v: oracle.exact_coverage_discrete(_joint(), 1, -1, v), "closed"),
    "exact_coverage_continuous_iid": ("kind", lambda v: oracle.exact_coverage_continuous_iid(19, 1, 1, v), "closed"),
    "index_rule": ("rule_name", lambda v: index_rule(BudgetSpec(19, 0.1), v), "mod_two_sided"),
    "min_budget": ("sided", lambda v: min_budget(0.1, v), "two"),
    "ci_rule": ("variant", lambda v: procedures.ci_rule(BudgetSpec(19, 0.1), v), "modified"),
    "conformal_set": ("variant", lambda v: conformal_set(np.arange(20.0), 0.1, v), "split"),
    "sgd_weight_law": ("weight_law", lambda v: _sgd(weight_law=v), "exponential"),
    "setting_sampler": ("setting", lambda v: setting_sampler(v, {"m": 5, "n": 5}, SeedSpec(0)), 1),
    "setting_truth": ("setting", setting_truth, 1),
    # the check comes before the file is opened
    "emit": ("fmt", lambda v: harness.emit(harness.CoverageTable(), v, os.devnull), "csv"),
}
_BAD_CHOICES = {
    "wrong_str": lambda ok: "nope",
    "list": lambda ok: [ok],
    "pair": lambda ok: np.array([ok, ok]),
    "bool": lambda ok: True,
}
_MALFORMED_CHOICES = {
    f"{site}-{label}": (what, partial(call, bad(ok)))
    for site, (what, call, ok) in _CHOICE_SITES.items()
    for label, bad in _BAD_CHOICES.items()
}


@pytest.mark.parametrize("what,call", _MALFORMED_CHOICES.values(), ids=_MALFORMED_CHOICES.keys())
def test_malformed_choice_raises_a_typed_error_naming_it(what, call):
    with pytest.raises(FixedBError) as err:
        call()
    assert isinstance(err.value, InvalidInput) and f"{what} must be one of" in str(err.value)


@pytest.mark.parametrize("module", [bounds, harness, oracle, orderstats, procedures, resampling], ids=lambda m: m.__name__)
def test_the_choice_check_is_the_one_in_errors(module):
    assert module._check_choice is errors._check_choice


@pytest.mark.parametrize("setting", [1, 2, 3, 4])
def test_numpy_integer_settings_accepted(setting):
    params = {"m": 5, "n": 5, "d": 3}
    def arrays(data):
        return (data.x, data.y) if setting == 4 else (data,)

    want = arrays(setting_sampler(setting, params, SeedSpec(0)))
    for v in (np.int64(setting), np.int32(setting), np.uint8(setting)):
        got = arrays(setting_sampler(v, params, SeedSpec(0)))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert np.array_equal(setting_truth(v, {"d": 3}), setting_truth(setting, {"d": 3}))


@pytest.mark.parametrize("name", errors.__all__)
def test_every_error_survives_a_pickle_round_trip(name):
    """A replicate worker sends its error back pickled."""
    cls = getattr(errors, name)
    extra = {"BudgetTooSmall": {"min_b": 19}, "NumericalFailure": {"step": 7}}.get(name, {})
    err = cls("the message", **extra)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls and str(back) == "the message" and back.args == err.args
    for attr in ("min_b", "step"):
        assert getattr(back, attr, None) == extra.get(attr)
