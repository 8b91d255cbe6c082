"""One integer check for every count, size and rank: each malformed
one raises a typed FixedBError, and the coercions that stay on purpose
(``BudgetSpec`` and the config loader) still accept integral reals."""

import json

import numpy as np
import pytest

from fixedb import bounds, discrete, errors, oracle, resampling
from fixedb.errors import FixedBError
from fixedb.harness import CoverageRow, load_config, normalize_config
from fixedb.orderstats import BudgetSpec, order_stat, sorted_from
from fixedb.procedures import permutation_test, randomization_test
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
