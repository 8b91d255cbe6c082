"""Command line interface: subcommands, flags, exit codes."""

import json

import pytest

from fixedb.cli import build_parser, main
from fixedb.oracle import SweepReport


class TestExperiments:
    def test_bootstrap_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "boot.csv")
        rc = main(["bootstrap", "--B", "19", "--reps", "30", "--m", "30", "--seed", "3", "--out", out])
        assert rc == 0
        text = open(out).read()
        assert text.startswith("setting,method,B,alpha,m,reps,coverage,mean_width,seed\n")
        assert "bootstrap_modified" in text
        assert "wrote" in capsys.readouterr().out

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"reps": 10, "seed": 1, "m": 25, "B": [5]}))
        out = str(tmp_path / "o.csv")
        rc = main(
            ["bootstrap", "--config", str(cfg), "--methods", "vanilla", "--B", "7", "--out", out]
        )
        assert rc == 0
        lines = open(out).read().strip().split("\n")
        assert len(lines) == 2  # header + the single B=7 vanilla row
        assert lines[1].split(",")[2] == "7"

    def test_conformal_and_plot(self, tmp_path):
        out = str(tmp_path / "conf.csv")
        assert main(["conformal", "--m", "10,100", "--alpha", "0.1", "--out", out]) == 0
        svg = str(tmp_path / "conf.svg")
        assert main(["plot", out, "--out", svg]) == 0
        body = open(svg).read()
        assert body.count("<polyline") == 1
        assert body.count("stroke-dasharray") == 1

    def test_randomization_runs(self, tmp_path):
        out = str(tmp_path / "r.csv")
        rc = main(["randomization", "--reps", "25", "--m", "15", "--seed", "2", "--out", out])
        assert rc == 0
        assert ",NA," in open(out).read().split("\n")[1]


class TestExitCodes:
    def test_bad_flag_value(self, capsys):
        assert main(["bootstrap", "--B", "0"]) == 2
        assert "config" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mystery": True}))
        assert main(["bootstrap", "--config", str(cfg)]) == 2
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config,key",
        [
            ('{"paper_scale": "no"}', "paper_scale"),
            ('{"reps": "abc"}', "reps"),
            ('{"reps": NaN}', "reps"),
            ('{"B": ["x"]}', "B"),
            ('{"alpha": "x"}', "alpha"),
        ],
    )
    def test_malformed_config_values(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(config)
        assert main(["bootstrap", "--config", str(cfg)]) == 2
        assert f"config.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config,key", [('{"reps": true}', "reps"), ('{"B": [true]}', "B"), ('{"setting": true}', "setting")]
    )
    def test_boolean_config_values(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(config)
        assert main(["bootstrap", "--config", str(cfg)]) == 2
        assert f"config.{key}" in capsys.readouterr().err

    def test_alpha_that_snaps_to_zero(self, capsys):
        assert main(["bootstrap", "--alpha", "1e-9", "--B", "19", "--reps", "2"]) == 2
        err = capsys.readouterr().err
        assert "alpha=1e-09" in err and "Traceback" not in err

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{")
        assert main(["bootstrap", "--config", str(cfg)]) == 2

    def test_top_level_array_config(self, tmp_path, capsys):
        cfg = tmp_path / "array.json"
        cfg.write_text("[1]")
        assert main(["bootstrap", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "JSON object" in err and "Traceback" not in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["bootstrap", "--config", str(tmp_path / "missing.json")]) == 2
        assert "missing.json" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        out = str(tmp_path / "no" / "such" / "x.csv")
        assert main(["bootstrap", "--reps", "3", "--m", "10", "--out", out]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "x.csv" in err

    def test_plot_missing_table(self, tmp_path, capsys):
        assert main(["plot", str(tmp_path / "missing.csv")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "missing.csv" in err

    def test_plot_malformed_table(self, tmp_path, capsys):
        table = tmp_path / "short.csv"
        table.write_text("setting,method,B,alpha,m,reps,coverage,mean_width,seed\n1,x\n")
        assert main(["plot", str(table)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_verify_pass(self, capsys):
        assert main(["verify", "--instances", "6"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    @pytest.mark.parametrize("seed", ["-1", "-20260823"])
    def test_verify_negative_seed(self, capsys, seed):
        assert main(["verify", "--seed", seed, "--instances", "3"]) == 2
        captured = capsys.readouterr()
        assert "seed must be an integer >= 0" in captured.err and "Traceback" not in captured.err
        assert "PASS" not in captured.out

    def test_verify_failure_exits_three(self, monkeypatch, capsys):
        import fixedb.cli as cli

        def broken(n_instances, seed):
            return SweepReport(n_checked=1, violations=(("synthetic", 0.0),))

        monkeypatch.setattr(cli, "bracket_suite", broken)
        assert main(["verify", "--instances", "2"]) == 3
        assert "FAIL" in capsys.readouterr().out


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("bootstrap", "subsample", "sgd", "permutation", "randomization",
                "conformal", "verify", "plot"):
        assert cmd in text


def test_experiment_subcommands_are_the_harness_procedures(monkeypatch):
    from fixedb import cli, harness

    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    assert list(sub.choices) == list(harness._PROCEDURES) + ["verify", "plot"]

    # each given flag whose dest is a config key lands in the config as
    # parsed (normalize_config unwraps the one-element --m list), and no
    # other flag does
    class Captured(Exception):
        pass

    seen = []

    def capture(cfg):
        seen.append(cfg)
        raise Captured

    monkeypatch.setattr(cli, "run_experiment", capture)
    argv = [
        "sgd", "--seed", "5", "--threads", "2", "--B", "7,9", "--alpha", "0.2", "--reps", "3",
        "--m", "40", "--d", "4", "--k", "6", "--n", "50", "--burn-in", "10", "--setting", "4",
        "--methods", "vanilla", "--paper-scale", "--format", "svg", "--out", "x.svg",
    ]
    for args in (argv, ["bootstrap"]):
        with pytest.raises(Captured):
            main(args)
    assert seen == [
        {
            "procedure": "sgd", "seed": 5, "threads": 2, "B": [7, 9], "alpha": [0.2], "reps": 3,
            "m": [40], "d": 4, "k": 6, "n": 50, "burn_in": 10, "setting": 4,
            "methods": ["vanilla"], "paper_scale": True,
        },
        {"procedure": "bootstrap"},
    ]
    assert set(seen[0]) <= harness._KNOWN_KEYS
