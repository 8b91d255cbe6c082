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
from typing import Optional

from .errors import ConfigError, FixedBError
from .harness import _KNOWN_KEYS, _PROCEDURES, emit, load_config, read_table, run_experiment
from .oracle import bracket_suite, conformal_grid_sweep, ehm_hoeffding_sweep


def _int_list(text: str) -> list:
    return [int(t) for t in text.split(",") if t]


def _float_list(text: str) -> list:
    return [float(t) for t in text.split(",") if t]


def _str_list(text: str) -> list:
    return [t for t in text.split(",") if t]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master seed")
    common.add_argument(
        "--threads", type=int, default=None, help="validated but ignored; replicates run in order"
    )
    common.add_argument("--out", default=None, help="output path")
    common.add_argument("--config", default=None, help="JSON config file; flags override it")

    exp = argparse.ArgumentParser(add_help=False)
    exp.add_argument("--format", choices=("csv", "svg"), default="csv")
    exp.add_argument("--B", type=_int_list, default=None, help="budgets, comma separated")
    exp.add_argument("--alpha", type=_float_list, default=None, help="levels, comma separated")
    exp.add_argument("--reps", type=int, default=None, help="replicates per cell")
    exp.add_argument("--m", type=_int_list, default=None, help="sample size(s)")
    exp.add_argument("--d", type=int, default=None, help="dimension (vector-mean setting)")
    exp.add_argument("--k", type=int, default=None, help="subsample size")
    exp.add_argument("--n", type=int, default=None, help="total SGD steps")
    exp.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    exp.add_argument("--setting", type=int, default=None, help="benchmark setting id")
    exp.add_argument("--methods", type=_str_list, default=None, help="interval variants")
    exp.add_argument("--paper-scale", action="store_true", default=None, dest="paper_scale")

    parser = argparse.ArgumentParser(
        prog="fixedb",
        description="Resampling inference with guarantees at a fixed simulation budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _PROCEDURES:
        p = sub.add_parser(cmd, parents=[common, exp], help=f"run the {cmd} experiment")
        p.set_defaults(func=_cmd_experiment)
    v = sub.add_parser(
        "verify", parents=[common], help="check the guarantees against exact enumeration"
    )
    v.add_argument("--instances", type=int, default=210, help="random bracket instances")
    v.set_defaults(func=_cmd_verify)
    pl = sub.add_parser("plot", parents=[common], help="render a saved CSV table as SVG")
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


def _cmd_verify(args) -> int:
    seed = 20260823 if args.seed is None else args.seed
    checks = (
        ("coverage brackets vs exact enumeration", bracket_suite(n_instances=args.instances, seed=seed)),
        ("binomial surrogate distance and ordering", ehm_hoeffding_sweep()),
        ("conformal grid coverage floor", conformal_grid_sweep()),
    )
    ok = True
    for name, report in checks:
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
