"""Experiment driver, config normalization, and CSV/SVG emission."""

import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixedb import cli, harness, procedures
from fixedb.errors import ConfigError, InvalidInput, NumericalFailure
from fixedb.cli import main
from fixedb.harness import (
    _corr_statistic,
    _corr_statistic_rows,
    _mean_statistic,
    _mean_statistic_batch,
    _KNOWN_KEYS,
    CSV_HEADER,
    CoverageRow,
    CoverageTable,
    emit,
    load_config,
    normalize_config,
    read_table,
    run_experiment,
    sup_norm,
)
from fixedb.procedures import ci_boot, ci_sgd, ci_subsample, permutation_test, randomization_test
from conftest import corr_statistic_batch
from fixedb.resampling import (
    RESAMPLE_STRIDE,
    SeedSpec,
    SgdSpec,
    full_symmetric,
    generator,
    permutation_draw,
    setting_sampler,
    setting_truth,
    signflip_transform,
    stream_for,
)


def tiny_config(**kw):
    cfg = {
        "procedure": "bootstrap",
        "setting": 1,
        "B": [5, 19],
        "alpha": [0.1],
        "methods": ["vanilla", "modified"],
        "reps": 60,
        "seed": 11,
        "threads": 1,
        "m": 40,
    }
    cfg.update(kw)
    return cfg


class TestConfig:
    def test_defaults(self):
        cfg = normalize_config({"procedure": "sgd"})
        assert cfg["setting"] == 4
        assert cfg["n"] == 5000 and cfg["burn_in"] == 1000
        assert cfg["B"] == [19] and cfg["alpha"] == [0.1]

    def test_paper_scale(self):
        cfg = normalize_config({"procedure": "bootstrap", "setting": 2, "paper_scale": True})
        assert cfg["d"] == 100 and cfg["m"] == 1000

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="config.bogus"):
            normalize_config({"bogus": 1})

    def test_value_errors(self):
        with pytest.raises(ConfigError, match="config.B"):
            normalize_config(tiny_config(B=[0]))
        with pytest.raises(ConfigError, match="config.alpha"):
            normalize_config(tiny_config(alpha=[1.5]))
        with pytest.raises(ConfigError, match="config.methods"):
            normalize_config(tiny_config(methods=["bayes"]))
        with pytest.raises(ConfigError, match="config.setting"):
            normalize_config(tiny_config(setting=3))
        with pytest.raises(ConfigError, match="config.burn_in"):
            normalize_config({"procedure": "sgd", "n": 100, "burn_in": 100})
        with pytest.raises(ConfigError, match="config.k"):
            normalize_config({"procedure": "subsample", "m": 40, "k": 99})
        with pytest.raises(ConfigError, match="config.burn_in"):
            normalize_config({"procedure": "sgd", "burn_in": -1})

    @pytest.mark.parametrize(
        "config",
        [
            # k and burn_in are checked against m and n only where the procedure reads both
            {"procedure": "sgd", "k": 200, "reps": 1, "n": 300, "burn_in": 100},
            {"procedure": "bootstrap", "n": 10, "burn_in": 20, "reps": 1},
            {"procedure": "sgd", "n": 50, "burn_in": 0, "reps": 1},
        ],
    )
    def test_keys_checked_only_against_what_the_procedure_reads(self, config):
        table = run_experiment(config)
        assert len(table.rows) == 1 and not table.skipped
        reads = harness._STUDIES[config["procedure"]].reads
        assert set(normalize_config(config)) == {"procedure", "setting", *reads}

    def test_an_unread_key_is_checked_then_dropped(self):
        with pytest.raises(ConfigError, match="config.reps"):
            normalize_config({"procedure": "conformal", "reps": "abc"})
        assert normalize_config({"procedure": "conformal", "reps": 5, "k": 3}) == normalize_config(
            {"procedure": "conformal"}
        )

    @pytest.mark.parametrize(
        "cmd,key",
        [("bootstrap", "B"), ("bootstrap", "alpha"), ("bootstrap", "methods"), ("conformal", "m")],
    )
    @pytest.mark.parametrize("form", ["config", "flag"])
    def test_empty_grids_are_config_errors(self, tmp_path, capsys, cmd, key, form):
        out = tmp_path / "x.csv"
        if form == "config":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({key: []}))
            args = ["--config", str(path)]
        else:
            args = ["--" + key, ","]
        assert main([cmd, *args, "--out", str(out)]) == 2
        assert f"config error: config.{key}: expected at least one value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("paper_scale", "no"),
            ("paper_scale", 1),
            ("reps", "abc"),
            ("reps", float("nan")),
            ("reps", float("inf")),
            ("B", ["x"]),
            ("B", [19.5]),
            ("alpha", "x"),
            ("alpha", [None]),
            ("m", [40, 50]),
            ("k", "3"),
            pytest.param("alpha", "0.1", id="alpha-str"),
            pytest.param("alpha", ["0.2"], id="alpha-str-list"),
            pytest.param("alpha", b"0.1", id="alpha-bytes"),
            pytest.param("seed", 2**64, id="seed-2**64"),
            pytest.param("seed", 2**70, id="seed-2**70"),
        ],
    )
    def test_malformed_values_name_their_key(self, key, value):
        with pytest.raises(ConfigError, match=f"config.{key}"):
            normalize_config(tiny_config(**{key: value}))

    @pytest.mark.parametrize(
        "key,value", [("reps", True), ("B", [True]), ("setting", True), ("threads", False)]
    )
    def test_booleans_are_not_numbers(self, key, value):
        with pytest.raises(ConfigError, match=f"config.{key}"):
            normalize_config(tiny_config(**{key: value}))

    @pytest.mark.parametrize(
        "key,value,repeated",
        [
            ("B", [19, 39, 19], "19"),
            ("B", [19, 19.0], "19"),
            ("alpha", [0.1, 0.1], "0.1"),
            ("methods", ["modified", "vanilla", "modified"], "'modified'"),
        ],
    )
    def test_repeated_grid_values(self, key, value, repeated):
        with pytest.raises(ConfigError) as err:
            normalize_config(tiny_config(**{key: value}))
        assert str(err.value) == f"config.{key}: {repeated} is repeated"

    def test_repeated_conformal_sizes_and_cli_budgets(self, capsys):
        with pytest.raises(ConfigError, match=r"config.m: 10 is repeated"):
            normalize_config({"procedure": "conformal", "m": [10, 100, 10]})
        assert main(["randomization", "--B", "19,19", "--reps", "1"]) == 2
        assert "config error: config.B: 19 is repeated" in capsys.readouterr().err

    def test_setting_is_stored_as_an_int(self):
        assert type(normalize_config(tiny_config(setting=2.0))["setting"]) is int

    def test_paper_scale_false_is_the_default(self):
        assert normalize_config(tiny_config(paper_scale=False)) == normalize_config(tiny_config())

    def test_budget_stays_inside_the_replicate_stream_block(self, capsys):
        # at B = 2**16 - 1 the randomized branch draw of replicate r reads
        # stream_for(r + 1, 0), replicate r + 1's data
        top = RESAMPLE_STRIDE - 2
        assert normalize_config(tiny_config(B=[top]))["B"] == [top]
        assert stream_for(4, 1) + top == stream_for(4, RESAMPLE_STRIDE - 1) < stream_for(5, 0)
        assert stream_for(0, 1) + top + 1 == stream_for(1, 0)
        for B in (top + 1, top + 2, 10**6):
            with pytest.raises(ConfigError, match="config.B"):
                normalize_config(tiny_config(B=[19, B]))
        assert main(["randomization", "--B", str(top + 1), "--reps", "1"]) == 2
        assert "config.B" in capsys.readouterr().err

    def test_seed_stays_inside_the_64_bit_stream_key(self, capsys, tmp_path):
        assert normalize_config(tiny_config(seed=2**64 - 1))["seed"] == 2**64 - 1
        out = str(tmp_path / "out.csv")
        assert main(["randomization", "--seed", str(2**64), "--reps", "1", "--out", out]) == 2
        assert "config error: config.seed" in capsys.readouterr().err

    def test_procedure_table_messages_and_defaults(self):
        procs = "('bootstrap', 'subsample', 'sgd', 'permutation', 'randomization', 'conformal')"
        for bad in ("nope", ["bootstrap"]):
            with pytest.raises(ConfigError) as err:
                normalize_config({"procedure": bad})
            assert str(err.value) == f"config.procedure: expected one of {procs}, got {bad!r}"
        with pytest.raises(ConfigError) as err:
            normalize_config({"procedure": "subsample", "setting": 4})
        assert str(err.value) == "config.setting: procedure 'subsample' supports (1, 2, 3), got 4"
        with pytest.raises(ConfigError) as err:
            normalize_config(tiny_config(methods=["bayes"]))
        assert str(err.value) == (
            "config.methods: expected one of ('vanilla', 'modified', 'randomized'), got 'bayes'"
        )
        defaults = {p: normalize_config({"procedure": p})["setting"] for p in harness._STUDIES}
        assert defaults == {
            "bootstrap": 1,
            "subsample": 3,
            "sgd": 4,
            "permutation": 0,
            "randomization": 0,
            "conformal": 0,
        }

    def test_conformal_m_list(self):
        cfg = normalize_config({"procedure": "conformal", "m": [10, 100]})
        assert cfg["m"] == [10, 100]

    @pytest.mark.parametrize("procedure", ["bootstrap", "randomization"])
    def test_one_element_m_list_is_the_number(self, tmp_path, procedure):
        one = tiny_config(procedure=procedure, setting=1 if procedure == "bootstrap" else 0, reps=5)
        paths = [
            emit(run_experiment({**one, "m": m}), "csv", str(tmp_path / f"{i}.csv"))
            for i, m in enumerate((40, [40]))
        ]
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
        for m in ([40, 50], []):
            with pytest.raises(ConfigError, match="config.m"):
                normalize_config({**one, "m": m})

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(p))
        p2 = tmp_path / "ok.json"
        p2.write_text(json.dumps({"procedure": "bootstrap"}))
        assert load_config(str(p2)) == {"procedure": "bootstrap"}


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12,
)
# a plausible value per known key, so that drawn objects get past the
# first checks and reach the later, cross-key ones
_PLAUSIBLE = {
    "procedure": st.sampled_from(["bootstrap", "subsample", "sgd", "permutation", "randomization", "conformal"]),
    "setting": st.integers(0, 4),
    "methods": st.lists(st.sampled_from(["vanilla", "modified", "randomized"]), min_size=1, max_size=3),
    "B": st.integers(1, 300) | st.lists(st.integers(1, 300), min_size=1, max_size=3),
    "alpha": st.floats(0.01, 0.5) | st.lists(st.floats(0.01, 0.5), min_size=1, max_size=3),
    "reps": st.integers(1, 50),
    "seed": st.integers(0, 2**65),
    "threads": st.integers(1, 4),
    "m": st.integers(1, 300) | st.lists(st.integers(1, 300), min_size=1, max_size=3),
    "d": st.integers(1, 30),
    "k": st.integers(1, 300),
    "n": st.integers(1, 6000),
    "burn_in": st.integers(0, 6000),
    "paper_scale": st.booleans(),
}
assert set(_PLAUSIBLE) == _KNOWN_KEYS
_CONFIG_LIKE = st.fixed_dictionaries({}, optional=_PLAUSIBLE) | st.fixed_dictionaries(
    {}, optional={key: value | _JSON_VALUES for key, value in _PLAUSIBLE.items()}
)


class TestConfigProperty:
    @settings(max_examples=400, deadline=None)
    @given(_JSON_VALUES | _CONFIG_LIKE)
    @example([1])
    @example({"procedure": "conformal", "k": 5})  # k used to be compared with the m list
    @example({"reps": True})  # booleans used to pass as integers
    @example({"B": [True]})
    @example({"setting": True})
    @example({"procedure": "sgd", "k": 200, "reps": 1, "n": 300, "burn_in": 100})  # k was compared with an unread m
    @example({"procedure": "bootstrap", "n": 10, "burn_in": 20})  # as were the unread n and burn_in
    def test_any_json_value_is_a_config_or_a_config_error(self, value):
        fd, path = tempfile.mkstemp(suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(value, fh)
            try:
                cfg = normalize_config(load_config(path))
            except ConfigError:
                return
            assert isinstance(cfg, dict)
        finally:
            os.unlink(path)


class TestReplicateBlocks:
    """The test procedures run blocks of replicates through the curtailed
    test kernel, one call per block for all its cells; every block size
    gives the outcomes of the per-replicate public calls."""

    CONFIGS = {
        "randomization": {"procedure": "randomization", "m": 12, "B": [19, 39], "alpha": [0.1, 0.2],
                          "reps": 10, "seed": 3},
        "permutation": {"procedure": "permutation", "m": 6, "B": [99, 5], "alpha": [0.1],
                        "reps": 10, "seed": 3},
    }

    @staticmethod
    def per_replicate_coverage(cfg):
        """Coverage of each (alpha, B) cell from one public call per replicate."""
        cfg = normalize_config(cfg)
        m, master = cfg["m"], cfg["seed"]
        out = []
        for alpha in cfg["alpha"]:
            for B in cfg["B"]:
                kept = []
                for r in range(cfg["reps"]):
                    gen = generator(SeedSpec(master, stream_for(r, 0)))
                    seed = SeedSpec(master, stream_for(r, 1))
                    if cfg["procedure"] == "randomization":
                        dec = randomization_test(
                            gen.standard_normal(m), _mean_statistic, "signflip", B, alpha,
                            seed=seed, statistic_batch=_mean_statistic_batch,
                        )
                    else:
                        data = (gen.standard_normal(m), gen.standard_normal(m))
                        dec = permutation_test(
                            data, _corr_statistic, full_symmetric(m), B, alpha, seed=seed,
                            statistic_batch=corr_statistic_batch,
                        )
                    kept.append(not dec.reject)
                out.append(float(np.array(kept, dtype=float).mean()))
        return out

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("reps", [1, 10])
    @pytest.mark.parametrize("block", [1, 3, None])  # None: the default byte budget
    def test_blocks_give_the_per_replicate_outcomes(self, monkeypatch, name, reps, block):
        cfg = {**self.CONFIGS[name], "reps": reps}
        if block is not None:
            # a permutation sample is an (x, y) pair, 2m floats
            row_bytes = 8 * (2 if name == "permutation" else 1) * cfg["m"] * max(cfg["B"])
            monkeypatch.setattr(harness, "_BLOCK_BYTES", block * row_bytes)
        sizes = []
        real = harness._curtailed_rejects

        def recording(data, *args):
            sizes.append(len(data))
            return real(data, *args)

        monkeypatch.setattr(harness, "_curtailed_rejects", recording)
        table = run_experiment(cfg)
        assert [row.coverage for row in table.rows] == self.per_replicate_coverage(cfg)
        step = reps if block is None else block
        want = [min(step, reps - start) for start in range(0, reps, step)]
        assert sizes == want


class TestCiBlocks:
    """Bootstrap and subsample run blocks of replicates through one CI
    block kernel call; every block size gives the rows of a loop of
    per-replicate ci_boot / ci_subsample calls."""

    BASE = {"B": [19, 39], "alpha": [0.1, 0.2], "methods": ["vanilla", "modified", "randomized"],
            "reps": 7, "seed": 20260823}
    CONFIGS = {
        "boot-s1": {"procedure": "bootstrap", "setting": 1, "m": 30},
        "boot-s2": {"procedure": "bootstrap", "setting": 2, "m": 24, "d": 3},
        "sub-s1": {"procedure": "subsample", "setting": 1, "m": 30, "k": 7},
        "sub-s2": {"procedure": "subsample", "setting": 2, "m": 24, "d": 3, "k": 9},
        "sub-s3": {"procedure": "subsample", "setting": 3, "m": 30, "k": 11},
    }

    @staticmethod
    def per_replicate_rows(cfg):
        """(coverage, mean_width) of each (alpha, B, method) cell from one
        public ci_boot or ci_subsample call per replicate."""
        cfg = normalize_config(cfg)
        setting, m, master = cfg["setting"], cfg["m"], cfg["seed"]
        params = {"m": m, "d": cfg["d"]} if setting == 2 else {"m": m}
        estimator, batch, root = harness._ESTIMATORS[setting]
        theta = setting_truth(setting, params)
        kw = {"root": root, "tau_m": harness._rate(setting, m), "estimator_batch": batch}
        ci = ci_boot
        if cfg["procedure"] == "subsample":
            ci = ci_subsample
            kw.update(k=cfg["k"], tau_k=harness._rate(setting, cfg["k"]))
        data = [setting_sampler(setting, params, SeedSpec(master, stream_for(r, 0))) for r in range(cfg["reps"])]
        out = []
        for alpha in cfg["alpha"]:
            for B in cfg["B"]:
                for method in cfg["methods"]:
                    cis = [
                        ci(x, estimator, B=B, alpha=alpha, variant=method,
                           seed=SeedSpec(master, stream_for(r, 1)), **kw)
                        for r, x in enumerate(data)
                    ]
                    covered = np.array([c.contains(theta) for c in cis], dtype=float)
                    widths = [c.span for c in cis if math.isfinite(c.span)]
                    out.append((float(covered.mean()), float(np.mean(widths)) if widths else None))
        return out

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("block", [1, 3, None])  # None: the default byte budget
    def test_blocks_give_the_per_replicate_rows(self, monkeypatch, name, block):
        cfg = {**self.BASE, **self.CONFIGS[name]}
        if block is not None:
            # a replicate keeps its sample and max(B) estimates, d floats each in setting 2
            width = cfg.get("d", 1)
            monkeypatch.setattr(harness, "_GATHER_BYTES", block * 8 * width * (cfg["m"] + max(cfg["B"])))
        sizes = []
        real = procedures._ci_block

        def recording(data, *args):
            sizes.append(len(data))
            return real(data, *args)

        monkeypatch.setattr(harness, "_ci_block", recording)
        table = run_experiment(cfg)
        assert [(row.coverage, row.mean_width) for row in table.rows] == self.per_replicate_rows(cfg)
        assert len(table.rows) == 12 and not table.skipped
        step = cfg["reps"] if block is None else block
        assert sizes == [min(step, cfg["reps"] - start) for start in range(0, cfg["reps"], step)]

    @staticmethod
    def picky_mean(a):
        # fails on a resample with many repeated observations, never on the data
        if len(np.unique(a)) < 14:
            raise ValueError("too many ties")
        return float(np.mean(a))

    @staticmethod
    def nan_on_ties(a):
        return math.nan if len(np.unique(a)) < 14 else float(np.mean(a))

    def failing_bootstrap(self, monkeypatch, estimator):
        """A bootstrap study whose estimator fails first on replicate 8
        (the second share at threads 2), on a resample beyond B = 19,
        and that replicate's own error."""
        est = getattr(self, estimator)
        monkeypatch.setitem(harness._ESTIMATORS, 1, (est, None, None))
        cfg = {"procedure": "bootstrap", "setting": 1, "m": 30, "B": [19, 59], "reps": 12,
               "methods": ["modified", "vanilla"], "seed": 26}
        want = None
        for r in range(cfg["reps"]):
            x = setting_sampler(1, {"m": 30}, SeedSpec(26, stream_for(r, 0)))
            try:
                for B in cfg["B"]:
                    ci_boot(x, est, tau_m=math.sqrt(30), B=B, seed=SeedSpec(26, stream_for(r, 1)))
            except NumericalFailure as exc:
                want = r, exc
                break
        assert want[0] == 8 and want[1].step > 19
        return cfg, want[1]

    @staticmethod
    def failing_test(monkeypatch, procedure):
        """A test study whose statistic raises on replicate 30's second
        resample only, and that replicate's own error, step 2.  Read off
        the block, it would be step 30 * 19 + 2 = 572 at threads 1 and
        10 * 19 + 2 = 192 in the second share's block at threads 2."""
        cfg = {"procedure": procedure, "m": 8, "B": [19], "reps": 40, "seed": 7}
        gen = generator(SeedSpec(7, stream_for(30, 0)))
        seed, second = SeedSpec(7, stream_for(30, 1)), SeedSpec(7, stream_for(30, 1) + 1)
        if procedure == "randomization":
            x = gen.standard_normal(8)
            bad = signflip_transform(x, second)

            def statistic(s):
                if np.array_equal(s, bad):
                    raise ValueError("a bad resample")
                return _mean_statistic(s)

            monkeypatch.setattr(harness, "_mean_statistic", statistic)
            monkeypatch.setattr(harness, "_mean_statistic_batch", None)
            call = partial(randomization_test, x, statistic, "signflip")
        else:
            x, y = gen.standard_normal(8), gen.standard_normal(8)
            bad = permutation_draw(full_symmetric(8), second)

            def statistic(data, perm):
                if np.array_equal(data[0], x) and np.array_equal(perm, bad):
                    raise ValueError("a bad resample")
                return _corr_statistic(data, perm)

            monkeypatch.setattr(harness, "_corr_statistic", statistic)
            monkeypatch.setattr(harness, "_corr_statistic_rows", None)
            call = partial(permutation_test, (x, y), statistic, full_symmetric(8))
        with pytest.raises(NumericalFailure) as want:
            call(19, 0.1, seed=seed)
        assert want.value.step == 2
        return cfg, want.value

    @staticmethod
    def failing_sgd(monkeypatch):
        """An SGD study whose gradient turns non-finite on path 3 at step
        50 of replicate 4 only (the second share at threads 2), and that
        replicate's own error."""
        cfg = {"procedure": "sgd", "n": 400, "burn_in": 100, "B": [19], "reps": 6, "seed": 7}
        stream = setting_sampler(4, {"n": 400}, SeedSpec(7, stream_for(4, 0)))
        real = harness._sgd_gradient_batch

        def gradient_batch(thetas, point):
            g = real(thetas, point)
            if np.array_equal(point[0], stream.x[49]):
                g[3, 0] = np.inf
            return g

        monkeypatch.setattr(harness, "_sgd_gradient_batch", gradient_batch)
        spec = SgdSpec(dim=3, gamma1=1.0, tau_exp=2.0 / 3.0, burn_in=100, n_total=400,
                       gradient=harness._sgd_gradient, weight_law="exponential")
        with pytest.raises(NumericalFailure) as want:
            ci_sgd(stream, spec, B=19, seed=SeedSpec(7, stream_for(4, 1)), gradient_batch=gradient_batch)
        assert (str(want.value), want.value.step) == ("non-finite gradient on path 3", 50)
        return cfg, want.value

    @pytest.mark.parametrize("case", ["picky_mean", "nan_on_ties", "randomization", "permutation", "sgd"])
    def test_a_failing_replicate_gives_the_per_replicate_error(self, monkeypatch, fresh_workers, case):
        if case in ("randomization", "permutation"):
            cfg, want = self.failing_test(monkeypatch, case)
        elif case == "sgd":
            cfg, want = self.failing_sgd(monkeypatch)
        else:
            cfg, want = self.failing_bootstrap(monkeypatch, case)
        for threads in (1, 2):
            with pytest.raises(NumericalFailure) as err:
                run_experiment({**cfg, "threads": threads})
            assert (str(err.value), err.value.step) == (str(want), want.step)


class TestRunExperiment:
    def test_rows_and_skips(self):
        table = run_experiment(tiny_config())
        methods = [(r.method, r.B) for r in table.rows]
        assert ("bootstrap_vanilla", 5) in methods
        assert ("bootstrap_vanilla", 19) in methods
        assert ("bootstrap_modified", 19) in methods
        assert [(s.method, s.B) for s in table.skipped] == [("bootstrap_modified", 5)]
        assert "19" in table.skipped[0].reason or "B" in table.skipped[0].reason
        for r in table.rows:
            assert 0.0 <= r.coverage <= 1.0
            assert r.mean_width is not None and r.mean_width > 0
            assert r.reps == 60

    def test_thread_count_invariance(self):
        rows1 = run_experiment(tiny_config(threads=1)).rows
        rows4 = run_experiment(tiny_config(threads=4)).rows
        assert rows1 == rows4

    def test_test_rows_have_na_width(self):
        table = run_experiment(
            {"procedure": "randomization", "reps": 40, "B": [19], "m": 20, "seed": 5}
        )
        (row,) = table.rows
        assert row.method == "randomization"
        assert row.mean_width is None
        assert row.setting == 0

    def test_conformal_rows_exact(self):
        table = run_experiment({"procedure": "conformal", "m": [100], "alpha": [0.1]})
        (row,) = table.rows
        assert row.coverage == pytest.approx(0.945, abs=1e-12)
        assert row.mean_width is None

    def test_subsample_setting3(self):
        table = run_experiment(
            {
                "procedure": "subsample",
                "setting": 3,
                "B": [19],
                "reps": 50,
                "m": 60,
                "seed": 2,
            }
        )
        (row,) = table.rows
        assert row.coverage > 0.6


# multi-cell configs whose rows must be those of their cells run alone
GRID_CONFIGS = {
    "boot-s1": {
        "procedure": "bootstrap",
        "setting": 1,
        "B": [5, 19, 59, 199],
        "methods": ["vanilla", "modified", "randomized"],
        "reps": 25,
        "seed": 20260823,
        "m": 100,
    },
    "boot-s2": {
        "procedure": "bootstrap",
        "setting": 2,
        "B": [9, 19],
        "methods": ["vanilla", "modified", "randomized"],
        "reps": 8,
        "seed": 7,
        "m": 120,
        "d": 6,
    },
    "sub-s2": {
        "procedure": "subsample",
        "setting": 2,
        "B": [19, 59],
        "methods": ["vanilla", "modified", "randomized"],
        "reps": 8,
        "seed": 7,
        "m": 120,
        "d": 6,
    },
    "sub-s3": {
        "procedure": "subsample",
        "setting": 3,
        "B": [19, 59],
        "alpha": [0.1, 0.2],
        "methods": ["vanilla", "modified", "randomized"],
        "reps": 20,
        "seed": 3,
        "m": 100,
    },
    "randomization": {
        "procedure": "randomization",
        "B": [5, 19, 99],
        "alpha": [0.1, 0.05],
        "reps": 20,
        "seed": 9,
        "m": 30,
    },
    "permutation": {"procedure": "permutation", "B": [24, 5], "reps": 20, "seed": 9, "m": 4},
    "sgd": {
        "procedure": "sgd",
        "B": [5, 9],
        "methods": ["vanilla", "modified"],
        "reps": 2,
        "seed": 4,
        "n": 400,
        "burn_in": 100,
    },
    "sgd-all-methods": {
        "procedure": "sgd",
        "B": [19, 29],
        "methods": ["vanilla", "modified", "randomized"],
        "reps": 2,
        "seed": 4,
        "n": 400,
        "burn_in": 100,
    },
}


class TestCellGrid:
    """The replicate-major loop shares data and resamples across cells;
    every cell must still get the bits it gets when run alone."""

    @pytest.mark.parametrize("name", sorted(GRID_CONFIGS))
    def test_rows_equal_single_cell_runs(self, name):
        cfg = normalize_config(GRID_CONFIGS[name])
        grid = run_experiment(cfg)
        rows, skipped = [], []
        # a test reads no methods, so its normalized config has none
        methods = [{"methods": [method]} for method in cfg["methods"]] if "methods" in cfg else [{}]
        for alpha in cfg["alpha"]:
            for B in cfg["B"]:
                for method in methods:
                    alone = run_experiment({**cfg, "alpha": [alpha], "B": [B], **method})
                    rows += alone.rows
                    skipped += alone.skipped
        assert grid.rows == rows  # dataclass ==: mean_width compared exactly
        assert [r.mean_width for r in grid.rows] == [r.mean_width for r in rows]
        assert grid.skipped == skipped
        assert len(grid.rows) > 1

    def test_boot_s1_skips_and_reasons(self):
        table = run_experiment(GRID_CONFIGS["boot-s1"])
        assert [(s.method, s.B) for s in table.skipped] == [
            ("bootstrap_modified", 5),
            ("bootstrap_randomized", 5),
        ]
        assert [s.reason for s in table.skipped] == [
            "modified two-sided interval needs B >= 19 at alpha=0.1",
            "randomized two-sided interval needs B >= 19 at alpha=0.1",
        ]
        assert len(table.rows) == 10

    def test_each_replicate_draws_its_data_and_resamples_once(self, monkeypatch):
        # a block draws its replicates' data in one pass and derives their
        # resample streams' keys in one pass of the CI block kernel
        calls = {"data": [], "keys": []}
        data_rows, stream_keys = harness._stream_rows, procedures._stream_keys

        def counting_data(master, firsts, count, draw):
            calls["data"].append(len(firsts) * count)
            return data_rows(master, firsts, count, draw)

        def counting_keys(master, firsts, count):
            calls["keys"].append((len(firsts), count))
            return stream_keys(master, firsts, count)

        monkeypatch.setattr(harness, "_stream_rows", counting_data)
        monkeypatch.setattr(procedures, "_stream_keys", counting_keys)
        run_experiment(GRID_CONFIGS["boot-s1"])
        assert sum(calls["data"]) == 25
        # one derivation per block, of max(B) rows for each of its replicates
        assert calls["keys"] == [(R, 199) for R in calls["data"]]

    def test_each_sgd_replicate_runs_its_paths_once(self, monkeypatch):
        counts = []
        real = procedures.sgd_paths

        def counting_paths(spec, data, theta0, seeds, gradient_batch=None):
            counts.append(len(seeds))
            return real(spec, data, theta0, seeds, gradient_batch=gradient_batch)

        monkeypatch.setattr(procedures, "sgd_paths", counting_paths)
        table = run_experiment(GRID_CONFIGS["sgd-all-methods"])
        assert len(table.rows) == 6
        assert counts == [29 + 1] * 2

    def test_permutation_budget_beyond_the_group_fails_before_any_replicate(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(harness, "_stream_rows", None)  # would raise if called
        cfg = {"procedure": "permutation", "m": 3, "B": [5, 7], "reps": 4}
        with pytest.raises(InvalidInput) as err:
            run_experiment(cfg)
        assert str(err.value) == "B=7 exceeds |G|=6; draws come from G"
        assert main(["permutation", "--m", "3", "--B", "5,7", "--reps", "4"]) == 2
        assert capsys.readouterr().err == "error: B=7 exceeds |G|=6; draws come from G\n"

    def test_all_cells_skipped_runs_no_replicate(self, monkeypatch):
        monkeypatch.setattr(harness, "_replicate_block", None)  # would raise if called
        table = run_experiment(tiny_config(B=[5], methods=["modified", "randomized"]))
        assert table.rows == [] and len(table.skipped) == 2

    def test_criterion_10_csv_bytes_are_pinned(self, tmp_path):
        cfg = {
            "procedure": "bootstrap",
            "setting": 1,
            "B": [19],
            "alpha": [0.1],
            "methods": ["vanilla", "modified", "randomized"],
            "reps": 60,
            "seed": 20260823,
            "m": 100,
        }
        path = emit(run_experiment(cfg), "csv", str(tmp_path / "c10.csv"))
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert digest == "272dc14a5f14a9ae79fd032f81791d2b18cff2dac24cc1fa5ab7f7e5ecd87f4d"

    # the test studies' CSV bytes, one-cell and multi-cell, at two seeds
    TEST_STUDIES = {
        "permutation": {"procedure": "permutation", "m": 30, "B": [99], "reps": 30},
        "randomization": {"procedure": "randomization", "m": 50, "B": [19], "reps": 100},
        "permutation-grid": {"procedure": "permutation", "m": 30, "B": [19, 39, 99],
                             "alpha": [0.05, 0.1, 0.2], "reps": 30},
        "randomization-grid": {"procedure": "randomization", "m": 50, "B": [19, 39, 99],
                               "alpha": [0.05, 0.1, 0.2], "reps": 60},
    }
    TEST_STUDY_DIGESTS = {
        ("permutation", 20260823): "434ce56fe75349976f1f6921ac6984cea571272937b34a84af614aa3925cff64",
        ("permutation", 4177): "f28a1e0841d2effa02855f87fb2d1a7d5b815f7a1875cdcd93b197cde73f369e",
        ("randomization", 20260823): "6495e6bd97fa43cd829f1f4326af5d0a487fa50cd37389c0606c9d4be5d1d111",
        ("randomization", 4177): "7086c2a2ff140bcb4812548ffba5f677b2d5ef362857ce67cb9237b59f1b2741",
        ("permutation-grid", 20260823): "981d2a6d3f32e2367e03ca2377a67df2521d33406c7aee8e32505502149e716b",
        ("permutation-grid", 4177): "e819eeaab87793c563c63490062e613984eded156979109a1f69059d6d3a73b4",
        ("randomization-grid", 20260823): "879e90d06c6ba44cb3862172de5f6c0c1f6c88f035bc71cb6c238db36c5fe0ac",
        ("randomization-grid", 4177): "7e9f808cb15346269230d45e6643d3d71f19ada769d76313794d46db51d4d09e",
    }

    @pytest.mark.parametrize("name, seed", sorted(TEST_STUDY_DIGESTS))
    def test_test_study_csv_bytes_are_pinned(self, tmp_path, name, seed):
        table = run_experiment({**self.TEST_STUDIES[name], "seed": seed})
        assert table.skipped == []
        path = emit(table, "csv", str(tmp_path / "t.csv"))
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert digest == self.TEST_STUDY_DIGESTS[name, seed]

    # resamples drawn at seed 20260823; a grid's cells run one at a time
    # draw 4726 and 10725, on 1749 and 3549 distinct streams
    TEST_STUDY_DRAWS = {"permutation": 1017, "randomization": 665,
                        "permutation-grid": 1717, "randomization-grid": 3431}

    @pytest.mark.parametrize("name", sorted(TEST_STUDY_DRAWS))
    def test_test_study_draws(self, monkeypatch, name):
        drawn = []
        real = procedures._RankTests.draws

        def counting(tests, rows, lo, n):
            drawn.append(len(rows) * n)
            return real(tests, rows, lo, n)

        monkeypatch.setattr(procedures._RankTests, "draws", counting)
        run_experiment({**self.TEST_STUDIES[name], "seed": 20260823})
        assert sum(drawn) == self.TEST_STUDY_DRAWS[name]

    @pytest.mark.parametrize("name", ["permutation-grid", "randomization-grid"])
    @pytest.mark.parametrize("seed", [20260823, 4177])
    def test_test_study_bytes_without_the_batch_hooks(self, tmp_path, monkeypatch, name, seed):
        # the scalar np.corrcoef and x.sum() statistics give the pinned bytes
        cfg = {**self.TEST_STUDIES[name], "seed": seed, "threads": 1}
        scalar = []
        statistic = harness._corr_statistic if name == "permutation-grid" else harness._mean_statistic

        def counted(*args):
            scalar.append(1)
            return statistic(*args)

        monkeypatch.setattr(harness, statistic.__name__, counted)
        with_hooks = emit(run_experiment(cfg), "csv", str(tmp_path / "hooks.csv"))
        assert scalar == []
        monkeypatch.setattr(harness, "_corr_statistic_rows", None)
        monkeypatch.setattr(harness, "_mean_statistic_batch", None)
        without = emit(run_experiment(cfg), "csv", str(tmp_path / "scalar.csv"))
        assert scalar
        assert open(without, "rb").read() == open(with_hooks, "rb").read()
        digest = hashlib.sha256(open(without, "rb").read()).hexdigest()
        assert digest == self.TEST_STUDY_DIGESTS[name, seed]

    # the rows of each scorer call in tests-study-2t's configs at seed
    # 20260823, run as its two shares: one call for a block's observed
    # statistics, then one per round (scored one test at a time, the
    # permutation config made 44 + 32 batch calls and 30 scalar ones)
    SHARE_SCORING_CALLS = {"permutation": ([15, 135, 108, 126, 216, 108], [15, 135, 117, 72]),
                           "randomization": ([50, 100, 52, 56, 64, 15], [50, 100, 72, 76, 112, 18])}

    @pytest.mark.parametrize("name", sorted(SHARE_SCORING_CALLS))
    def test_one_scoring_call_per_round(self, monkeypatch, name):
        cfg = normalize_config({**self.TEST_STUDIES[name], "alpha": [0.1], "threads": 1, "seed": 20260823})
        hook = "_corr_statistic_rows" if name == "permutation" else "_mean_statistic_batch"
        real, rows = getattr(harness, hook), []

        def counted(*args):
            rows.append(len(args[-1]))
            return real(*args)

        monkeypatch.setattr(harness, hook, counted)
        cells, reps = [(cfg["B"][0], 0.1, name)], cfg["reps"]
        for (lo, hi), want in zip([(0, reps // 2), (reps // 2, reps)], self.SHARE_SCORING_CALLS[name]):
            rows.clear()
            harness._share(cfg, cells, lo, hi, reps)
            assert rows == want


# replicates split over worker processes must give the serial bytes
WORKER_CONFIGS = {
    "bootstrap": tiny_config(reps=30),
    "subsample": {"procedure": "subsample", "setting": 3, "m": 60, "B": [19], "reps": 20, "seed": 7},
    "sgd": {"procedure": "sgd", "n": 300, "burn_in": 100, "B": [19], "reps": 5, "seed": 7},
    "permutation": {"procedure": "permutation", "m": 10, "B": [99, 19], "reps": 15, "seed": 7},
    "randomization": {"procedure": "randomization", "m": 12, "B": [19, 39], "reps": 25, "seed": 7},
}

_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_PARALLEL = hasattr(os, "fork") and _CPUS > 1


@pytest.fixture
def fresh_workers():
    """Workers forked inside the test, so that they see its monkeypatches,
    and stopped after it, so that no other test meets them.  Every other
    test that monkeypatches library code runs at threads 1: a worker
    keeps the library as it was when it was forked."""
    harness._drop(list(harness._WORKERS))
    yield
    harness._drop(list(harness._WORKERS))


def _alive(pid: int) -> bool:
    """Whether pid runs; an exited process not yet reaped counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def _rows(cfg):
    return run_experiment(cfg).rows


class TestWorkers:
    @pytest.mark.parametrize("name", sorted(WORKER_CONFIGS))
    def test_csv_bytes_do_not_depend_on_threads(self, tmp_path, name):
        blobs = []
        for threads in (1, 2, 8):
            table = run_experiment({**WORKER_CONFIGS[name], "threads": threads})
            with open(emit(table, "csv", str(tmp_path / f"{threads}.csv")), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("bad", [(7, 8), (3, 7)], ids=["share-1", "shares-0-and-1"])
    def test_a_raising_replicate_gives_the_serial_error(self, monkeypatch, fresh_workers, bad):
        real = harness._replicate_block

        def raising(master, cells, rs, draw, run_cells):
            for r in rs:
                if master == 99 and r in bad:
                    raise NumericalFailure(f"replicate {r}", step=r)
            return real(master, cells, rs, draw, run_cells)

        monkeypatch.setattr(harness, "_replicate_block", raising)
        got = []
        for threads in (1, 2):  # shares 0..4 and 5..9 at threads 2
            with pytest.raises(NumericalFailure) as err:
                run_experiment(tiny_config(reps=10, seed=99, threads=threads))
            got.append((str(err.value), err.value.step))
        assert got == [(f"replicate {bad[0]}", bad[0])] * 2
        assert len(harness._WORKERS) == _PARALLEL
        # the next call reads no stale reply
        assert run_experiment(tiny_config(threads=2)).rows == run_experiment(tiny_config()).rows

    def test_an_interrupt_stops_the_busy_workers(self, monkeypatch, fresh_workers):
        parent = os.getpid()
        real = harness._replicate_block

        def interrupted(master, cells, rs, draw, run_cells):
            if master == 99 and os.getpid() == parent:
                raise KeyboardInterrupt
            return real(master, cells, rs, draw, run_cells)

        monkeypatch.setattr(harness, "_replicate_block", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(tiny_config(reps=10, seed=99, threads=2))
        assert harness._WORKERS == [] and multiprocessing.active_children() == []
        assert run_experiment(tiny_config(threads=2)).rows == run_experiment(tiny_config()).rows

    def test_a_worker_dying_mid_call_is_an_error_and_is_replaced(self, monkeypatch, fresh_workers):
        parent = os.getpid()
        real = harness._replicate_block

        def dying(master, cells, rs, draw, run_cells):
            if master == 99 and os.getpid() != parent:
                os._exit(1)
            return real(master, cells, rs, draw, run_cells)

        monkeypatch.setattr(harness, "_replicate_block", dying)
        if _PARALLEL:
            with pytest.raises(RuntimeError, match="exited before it replied"):
                run_experiment(tiny_config(reps=10, seed=99, threads=2))
        assert harness._WORKERS == []
        assert run_experiment(tiny_config(threads=2)).rows == run_experiment(tiny_config()).rows

    @pytest.mark.skipif(not _PARALLEL, reason="needs os.fork and two usable CPUs")
    def test_a_dead_worker_is_replaced(self, fresh_workers):
        want = run_experiment(tiny_config()).rows
        assert run_experiment(tiny_config(threads=2)).rows == want
        ((proc, _),) = harness._WORKERS
        os.kill(proc.pid, signal.SIGINT)  # an interrupt is the parent's to handle
        assert run_experiment(tiny_config(threads=2)).rows == want
        assert harness._WORKERS[0][0] is proc and proc.is_alive()
        proc.kill()
        proc.join(10)
        assert not proc.is_alive()
        assert run_experiment(tiny_config(threads=2)).rows == want
        ((replacement, _),) = harness._WORKERS
        assert replacement.pid != proc.pid and replacement.is_alive()

    @pytest.mark.skipif(not _PARALLEL, reason="needs os.fork and two usable CPUs")
    def test_a_worker_killed_mid_verify_is_an_error_and_is_replaced(self, monkeypatch, capsys, fresh_workers):
        real = cli.bracket_suite

        def killing(n_instances, seed):
            # runs here while the worker runs the fixed sweeps
            ((proc, _),) = harness._WORKERS
            proc.kill()
            proc.join(10)
            return real(n_instances=n_instances, seed=seed)

        monkeypatch.setattr(cli, "bracket_suite", killing)
        with pytest.raises(RuntimeError, match="exited before it replied"):
            main(["verify", "--instances", "3", "--threads", "2"])
        assert harness._WORKERS == [] and capsys.readouterr().out == ""
        monkeypatch.undo()
        assert main(["verify", "--instances", "3", "--threads", "2"]) == 0
        assert capsys.readouterr().out.count("PASS") == 3 and len(harness._WORKERS) == 1

    def test_concurrent_callers_each_get_their_own_rows(self):
        seeds = [21, 22, 23, 24]
        want = {seed: run_experiment(tiny_config(reps=20, seed=seed)).rows for seed in seeds}
        got = {}

        def call(seed):
            got[seed] = run_experiment(tiny_config(reps=20, seed=seed, threads=2)).rows

        callers = [threading.Thread(target=call, args=(seed,)) for seed in seeds]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
        assert not any(t.is_alive() for t in callers)
        assert got == want

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_daemonic_process_runs_its_replicates_serially(self):
        # a daemonic process may not fork workers
        with multiprocessing.get_context("fork").Pool(1) as pool:
            rows = pool.apply(_rows, (tiny_config(threads=2),))
        assert rows == run_experiment(tiny_config()).rows

    @pytest.mark.skipif(not _PARALLEL, reason="needs os.fork and two usable CPUs")
    def test_a_forked_child_starts_its_own_workers(self):
        run_experiment(tiny_config(threads=2))  # a worker for the child to inherit
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send(_rows(tiny_config(threads=2))))
        child.start()
        send.close()
        rows = recv.recv()
        child.join(60)
        assert child.exitcode == 0
        assert rows == run_experiment(tiny_config()).rows

    @pytest.mark.parametrize("end", ["exit", "kill"])
    def test_no_worker_outlives_its_interpreter(self, end):
        if end == "kill" and not hasattr(os, "fork"):
            pytest.skip("no workers without os.fork")
        script = (
            "import multiprocessing, os, sys\n"
            "from fixedb.harness import run_experiment\n"
            "run_experiment({'procedure': 'randomization', 'm': 12, 'reps': 8, 'threads': 2})\n"
            "print(*[p.pid for p in multiprocessing.active_children()], flush=True)\n"
            + ("os.kill(os.getpid(), 9)\n" if end == "kill" else "")
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == (-9 if end == "kill" else 0), proc.stderr
        pids = [int(p) for p in proc.stdout.split()]
        assert len(pids) == _PARALLEL
        deadline = time.monotonic() + 10
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids))


class TestEmit:
    def table(self):
        return CoverageTable(
            rows=[
                CoverageRow(1, "bootstrap_modified", 19, 0.1, 100, 10, 0.9, 0.25, 7),
                CoverageRow(1, "bootstrap_vanilla", 19, 0.1, 100, 10, 0.8, 0.2, 7),
                CoverageRow(1, "bootstrap_vanilla", 39, 0.1, 100, 10, 0.85, None, 7),
                CoverageRow(1, "bootstrap_modified", 39, 0.1, 100, 10, 0.95, 0.3, 7),
                CoverageRow(1, "bootstrap_randomized", 19, 0.1, 100, 10, 0.9, 0.26, 7),
                CoverageRow(1, "bootstrap_randomized", 39, 0.1, 100, 10, 0.9, 0.3, 7),
            ]
        )

    def test_csv_layout(self, tmp_path):
        path = str(tmp_path / "t.csv")
        emit(self.table(), "csv", path)
        raw = open(path, "rb").read()
        assert b"\r" not in raw
        lines = raw.decode().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1] == "1,bootstrap_modified,19,0.1,100,10,0.9,0.25,7"
        assert lines[3].endswith(",NA,7")
        assert lines[-1] == ""  # trailing LF

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        emit(self.table(), "csv", path)
        back = read_table(path)
        assert len(back.rows) == 6
        assert back.rows[0].coverage == 0.9
        assert back.rows[2].mean_width is None

    @pytest.mark.parametrize(
        "config",
        [
            tiny_config(reps=20),
            tiny_config(setting=2, m=30, d=3, reps=10, B=[19], methods=["modified"]),
            {"procedure": "randomization", "reps": 10, "m": 12, "seed": 3},
            {"procedure": "conformal", "m": [10, 100]},
        ],
    )
    def test_roundtrip_of_run_tables(self, tmp_path, config):
        table = run_experiment(config)
        path = emit(table, "csv", str(tmp_path / "t.csv"))
        assert read_table(path).rows == table.rows

    def test_read_rejects_foreign_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInput):
            read_table(str(p))

    def test_svg_structure(self, tmp_path):
        path = str(tmp_path / "t.svg")
        emit(self.table(), "svg", path)
        svg = open(path).read()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 3
        assert svg.count("stroke-dasharray") == 1
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")

    def test_svg_draws_one_line_per_method_and_level(self, tmp_path):
        rows = [
            CoverageRow(0, "randomization", B, alpha, 50, 10, cov, None, 7)
            for (B, alpha), cov in zip([(19, 0.05), (19, 0.2), (99, 0.05), (99, 0.2)], [0.95, 0.85, 0.9, 0.8])
        ]
        svg = open(emit(CoverageTable(rows=rows), "svg", str(tmp_path / "t.svg"))).read()
        assert svg.count("stroke-dasharray") == 2
        lines = [line for line in svg.split("\n") if line.startswith("<polyline")]
        assert len(lines) == 2
        for line in lines:  # each level's points run left to right
            xs = [float(p.split(",")[0]) for p in line.split('"')[1].split()]
            assert xs == sorted(xs) and len(xs) == 2
        assert ">randomization, alpha 0.05<" in svg and ">randomization, alpha 0.2<" in svg

    def test_svg_empty_table_raises(self, tmp_path):
        with pytest.raises(InvalidInput):
            emit(CoverageTable(), "svg", str(tmp_path / "e.svg"))

    def test_bad_format(self, tmp_path):
        with pytest.raises(InvalidInput):
            emit(self.table(), "pdf", str(tmp_path / "t.pdf"))


class TestRowValidation:
    def test_coverage_range(self):
        with pytest.raises(InvalidInput):
            CoverageRow(1, "x", 19, 0.1, 100, 10, 1.2, None, 7)
        with pytest.raises(InvalidInput):
            CoverageRow(1, "x", 19, 0.1, 100, 0, 0.5, None, 7)


def test_sup_norm():
    assert sup_norm(np.array([0.1, -0.7, 0.3])) == pytest.approx(0.7)
