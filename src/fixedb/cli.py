"""Command line front end.

Subcommands run replication experiments (bootstrap, subsample, sgd,
permutation, randomization, conformal), verify the finite-budget
guarantees against exact enumeration (verify), or re-render a saved
table (plot).  Exit codes: 0 on success, 2 on bad flags or config or
a file that cannot be read or written, 3 when verification finds a
violation.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Optional

from .errors import ConfigError, FixedBError, _check_count
from .harness import _KNOWN_KEYS, _STUDIES, _run_tasks, emit, load_config, read_table, run_experiment
from .oracle import bracket_suite, conformal_grid_sweep, ehm_hoeffding_sweep


def _int_list(text: str) -> list:
    return [int(t) for t in text.split(",") if t]


def _float_list(text: str) -> list:
    return [float(t) for t in text.split(",") if t]


def _str_list(text: str) -> list:
    return [t for t in text.split(",") if t]


# argparse keywords of the flags whose dest is a config key, each flag
# the key with "-" for "_"
_CONFIG_FLAGS = {
    "B": dict(type=_int_list, help="budgets, comma separated"),
    "alpha": dict(type=_float_list, help="levels, comma separated"),
    "reps": dict(type=int, help="replicates per cell"),
    "m": dict(type=_int_list, help="sample size(s)"),
    "d": dict(type=int, help="dimension (vector-mean setting)"),
    "k": dict(type=int, help="subsample size"),
    "n": dict(type=int, help="total SGD steps"),
    "burn_in": dict(type=int),
    "setting": dict(type=int, help="benchmark setting id"),
    "methods": dict(type=_str_list, help="interval variants"),
    "paper_scale": dict(action="store_true"),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``fixedb`` parser: each subcommand takes only the flags of the
    config keys its procedure reads (``harness._STUDIES``), spelled in
    full, and any other flag is argparse's usage error (exit 2)."""
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="master seed")
    threaded = argparse.ArgumentParser(add_help=False)
    threaded.add_argument(
        "--threads",
        type=int,
        default=None,
        help="processes that share the work, forked workers beside this one: a study's replicates "
        "(default 1, up to the usable CPUs), or verify's bracket suite and its two fixed sweeps "
        "(default the usable CPUs, at most 2); the output bytes do not depend on it",
    )
    written = argparse.ArgumentParser(add_help=False)
    written.add_argument("--out", default=None, help="output path")

    parser = argparse.ArgumentParser(
        prog="fixedb",
        description="Resampling inference with guarantees at a fixed simulation budget.",
    )
    # no subcommand takes an abbreviated flag: --m is not --methods
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=partial(argparse.ArgumentParser, allow_abbrev=False)
    )
    for cmd, study in _STUDIES.items():
        parents = [seeded, threaded, written] if "threads" in study.reads else [seeded, written]
        p = sub.add_parser(cmd, parents=parents, help=f"run the {cmd} experiment")
        p.add_argument("--config", default=None, help="JSON config file; flags override it")
        p.add_argument("--format", choices=("csv", "svg"), default="csv")
        for key, kw in _CONFIG_FLAGS.items():
            if key == "setting" or key in study.reads:
                p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, **kw)
        p.set_defaults(func=_cmd_experiment)
    v = sub.add_parser(
        "verify", parents=[seeded, threaded], help="check the guarantees against exact enumeration"
    )
    v.add_argument("--instances", type=int, default=210, help="random bracket instances")
    v.set_defaults(func=_cmd_verify)
    pl = sub.add_parser("plot", parents=[written], help="render a saved CSV table as SVG")
    pl.add_argument("table", help="CSV file written by an experiment subcommand")
    pl.set_defaults(func=_cmd_plot)
    return parser


def _cmd_experiment(args) -> int:
    cfg = dict(load_config(args.config)) if args.config else {}
    cfg["procedure"] = args.command
    # a flag whose dest is a config key overrides it, when it was given
    for key, val in vars(args).items():
        if key in _KNOWN_KEYS and val is not None:
            cfg[key] = val
    table = run_experiment(cfg)
    out = args.out or f"{args.command}.{args.format}"
    emit(table, args.format, out)
    for row in table.rows:
        width = "NA" if row.mean_width is None else f"{row.mean_width:.4f}"
        print(
            f"{row.method} B={row.B} alpha={row.alpha} reps={row.reps}: "
            f"coverage={row.coverage:.4f} width={width}"
        )
    for skip in table.skipped:
        print(f"skipped {skip.method} B={skip.B} alpha={skip.alpha}: {skip.reason}", file=sys.stderr)
    print(f"wrote {out}")
    return 0


def _fixed_sweeps() -> tuple:
    """verify's two sweeps that take no flag; a worker's task."""
    return ehm_hoeffding_sweep(), conformal_grid_sweep()


_VERIFY_CHECKS = (
    "coverage brackets vs exact enumeration",
    "binomial surrogate distance and ordering",
    "conformal grid coverage floor",
)


def _cmd_verify(args) -> int:
    seed = 20260823 if args.seed is None else args.seed
    threads = 2 if args.threads is None else args.threads
    _check_count(threads, "threads")

    def brackets() -> tuple:
        return (bracket_suite(n_instances=args.instances, seed=seed),)

    # the fixed sweeps on a worker while the bracket suite runs here, given two processes
    parts = _run_tasks([(brackets, ()), (_fixed_sweeps, ())], threads)
    reports = [report for part in parts for report in part]
    ok = True
    for name, report in zip(_VERIFY_CHECKS, reports):
        if report.passed:
            print(f"PASS {name} ({report.n_checked} checks)")
        else:
            print(f"FAIL {name} ({len(report.violations)} violations of {report.n_checked} checks)")
            for v in report.violations[:5]:
                print(f"  {v}")
            ok = False
    return 0 if ok else 3


def _cmd_plot(args) -> int:
    table = read_table(args.table)
    out = args.out or (args.table.rsplit(".", 1)[0] + ".svg")
    emit(table, "svg", out)
    print(f"wrote {out}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FixedBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
