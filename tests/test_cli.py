"""Command line interface: subcommands, flags, exit codes."""

import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

import fixedb
from fixedb import cli, harness
from fixedb.cli import build_parser, main
from fixedb.oracle import SweepReport

_PARALLEL = hasattr(os, "fork") and harness._usable_cpus() > 1


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

    def test_a_randomized_cell_with_an_empty_floor_branch_is_skipped(self, tmp_path, capsys):
        out = str(tmp_path / "r.csv")
        argv = ["bootstrap", "--alpha", "0.9", "--B", "3", "--methods", "randomized", "--reps", "20"]
        assert main(argv + ["--out", out]) == 0
        assert open(out).read() == "setting,method,B,alpha,m,reps,coverage,mean_width,seed\n"
        assert capsys.readouterr().err == (
            "skipped bootstrap_randomized B=3 alpha=0.9: "
            "randomized two-sided interval's floor branch needs B >= 9 at alpha=0.9\n"
        )

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--instances", "0"], "n_instances must be an integer >= 1, got 0"),
            (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
        ],
    )
    def test_verify_checks_its_flags_before_any_task(self, monkeypatch, capsys, flags, message):
        def no_tasks(tasks, threads):
            raise AssertionError("a task was sent")

        monkeypatch.setattr(cli, "_run_tasks", no_tasks)
        assert main(["verify", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    @pytest.mark.parametrize("threads", ["0", "-1", "-20260823"])
    def test_verify_threads_below_one(self, capsys, threads):
        assert main(["verify", "--threads", threads, "--instances", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: threads must be an integer >= 1, got {threads}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("threads", ["1.5", "two", ""])
    def test_verify_threads_not_an_integer(self, capsys, threads):
        # argparse's own exit, as for the experiment subcommands
        for cmd in ("verify", "bootstrap"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--threads", threads])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines()[-1].endswith(f"argument --threads: invalid int value: {threads!r}")
            assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        [["--config", "/nonexistent.json"], ["--out", "/nonexistent/x"], ["--reps", "3"], ["--format", "csv"]],
    )
    def test_verify_takes_only_its_flags(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--instances", "3", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1].endswith(f"unrecognized arguments: {' '.join(flags)}")
        assert captured.out == ""
        assert main(["verify", "--seed", "4177", "--threads", "1", "--instances", "3"]) == 0
        assert capsys.readouterr().out.count("PASS") == 3

    @pytest.mark.parametrize(
        "flags", [["--threads", "0"], ["--seed", "3"], ["--config", "c.json"], ["--format", "svg"]]
    )
    def test_plot_takes_only_its_table_and_out(self, tmp_path, capsys, flags):
        table = str(tmp_path / "conf.csv")
        assert main(["conformal", "--m", "10", "--out", table]) == 0
        capsys.readouterr()
        svg = str(tmp_path / "conf.svg")
        with pytest.raises(SystemExit) as exc:
            main(["plot", table, "--out", svg, *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1].endswith(f"unrecognized arguments: {' '.join(flags)}")
        assert captured.out == "" and not os.path.exists(svg)
        assert main(["plot", table, "--out", svg]) == 0 and os.path.exists(svg)

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
    assert list(sub.choices) == list(harness._STUDIES) + ["verify", "plot"]

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
        "--n", "50", "--burn-in", "10", "--setting", "4",
        "--methods", "vanilla", "--paper-scale", "--format", "svg", "--out", "x.svg",
    ]
    for args in (argv, ["subsample", "--m", "40", "--d", "4", "--k", "6"], ["bootstrap"]):
        with pytest.raises(Captured):
            main(args)
    assert seen == [
        {
            "procedure": "sgd", "seed": 5, "threads": 2, "B": [7, 9], "alpha": [0.2], "reps": 3,
            "n": 50, "burn_in": 10, "setting": 4, "methods": ["vanilla"], "paper_scale": True,
        },
        {"procedure": "subsample", "m": [40], "d": 4, "k": 6},
        {"procedure": "bootstrap"},
    ]
    assert set(seen[0]) <= harness._KNOWN_KEYS


def test_the_readme_table_lists_the_keys_each_procedure_reads():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    table = {}
    with open(readme, encoding="utf-8") as fh:
        for line in fh:
            cells = [cell.strip() for cell in line.split("|")[1:-1]]
            if len(cells) == 3 and cells[0].strip("`") in harness._STUDIES:
                table[cells[0].strip("`")] = (cells[1], re.findall(r"`(\w+)`", cells[2]))
    assert table == {
        cmd: (", ".join(map(str, study.settings)), list(study.reads))
        for cmd, study in harness._STUDIES.items()
    }


# flags of config keys a procedure does not read
_REFUSED = {
    "bootstrap": ["--k 2", "--n 9", "--burn-in 3"],
    "subsample": ["--n 9", "--burn-in 3"],
    "sgd": ["--m 40", "--d 4", "--k 6"],
    "permutation": ["--d 4", "--k 2", "--n 9", "--burn-in 3", "--methods vanilla", "--paper-scale"],
    "randomization": ["--d 4", "--k 2", "--n 9", "--burn-in 3", "--methods vanilla", "--paper-scale"],
    "conformal": ["--reps 5", "--B 7", "--methods vanilla", "--threads 4", "--n 9", "--burn-in 3",
                  "--k 2", "--d 4", "--paper-scale"],
}


@pytest.mark.parametrize("cmd, flag", [(cmd, flag) for cmd, flags in _REFUSED.items() for flag in flags])
def test_a_subcommand_refuses_the_flags_its_procedure_does_not_read(tmp_path, capsys, cmd, flag):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main([cmd, *flag.split(), "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].endswith(f"unrecognized arguments: {flag}")
    assert captured.out == "" and not out.exists()


class TestParallelVerify:
    @pytest.mark.parametrize("instances", [[], ["--instances", "6"]], ids=["default", "6"])
    @pytest.mark.parametrize("seed", ["0", "2", "4177", "20260823"])
    def test_stdout_does_not_depend_on_threads(self, capsys, seed, instances):
        outs = []
        for threads in (["--threads", "1"], ["--threads", "2"], []):
            assert main(["verify", "--seed", seed, *instances, *threads]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].count("PASS") == 3
        assert outs[0] == outs[1] == outs[2]

    def test_one_thread_forks_no_worker(self, capsys):
        harness._drop(list(harness._WORKERS))
        assert main(["verify", "--instances", "3", "--threads", "1"]) == 0
        assert harness._WORKERS == [] and multiprocessing.active_children() == []

    @pytest.mark.skipif(not _PARALLEL, reason="needs os.fork and two usable CPUs")
    def test_verify_and_the_studies_share_the_workers(self, capsys):
        harness._drop(list(harness._WORKERS))
        harness.run_experiment({"procedure": "randomization", "m": 12, "reps": 8, "threads": 2})
        ((proc, _),) = harness._WORKERS
        assert main(["verify", "--instances", "3", "--threads", "2"]) == 0
        assert harness._WORKERS[0][0] is proc and multiprocessing.active_children() == [proc]

    @pytest.mark.parametrize("how", ["fails", "raises"])
    def test_a_sweep_broken_on_the_worker_reads_as_at_one_thread(self, how):
        # a fresh interpreter, so that the worker is forked after the patch
        src = os.path.dirname(os.path.dirname(os.path.abspath(fixedb.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", _BROKEN_SWEEP, how], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs, workers = json.loads(proc.stdout)
        assert workers == _PARALLEL
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        if how == "fails":
            assert code == 3 and "FAIL conformal grid coverage floor" in out and err == ""
        else:
            assert code == 2 and out == "" and err == "error: synthetic sweep error\n"


# Run in a fresh interpreter: verify at threads 1, then at threads 2 with
# the fixed sweeps on a worker, after a patch that breaks one of them
_BROKEN_SWEEP = r"""
import contextlib, io, json, sys

import numpy as np

from fixedb import cli, harness, oracle
from fixedb.errors import InvalidInput

if sys.argv[1] == "fails":
    oracle._conformal_mod_rank = lambda m, alpha: np.ones_like(m)
else:
    def raising(rows, p_bar):
        raise InvalidInput("synthetic sweep error")

    oracle._ehm_rows = raising
runs = []
for threads in ("1", "2"):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--instances", "6", "--threads", threads])
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps([runs, len(harness._WORKERS)]))
"""
