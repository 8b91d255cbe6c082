"""One integer check for every count, size and rank and one real check
for every level, rate and slack: each malformed one raises a typed
FixedBError, and the coercions that stay on purpose (``BudgetSpec`` and
the config loader) still accept integral reals."""

import json
import math
from functools import partial

import numpy as np
import pytest

from fixedb import bounds, discrete, distances, errors, harness, oracle, orderstats, procedures, resampling
from fixedb.errors import FixedBError, InvalidInput
from fixedb.harness import CoverageRow, load_config, normalize_config
from fixedb.orderstats import BudgetSpec, index_rule, min_budget, order_stat, sorted_from
from fixedb.procedures import ci_boot, ci_subsample, permutation_test, randomization_test
from fixedb.resampling import SeedSpec, SgdSpec, full_symmetric, setting_sampler


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
