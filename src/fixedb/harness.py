"""Experiment driver: coverage tables over replicated draws, CSV and
SVG emission, and JSON config handling.

A config names a procedure (bootstrap / subsample / sgd / permutation /
randomization / conformal), a benchmark setting, budget and level
grids, and a replication count.  The grid's cells are its (alpha, B,
method) triples; cells whose budget cannot support their rule are
skipped before any replicate runs.  The loop is block-major: it hands
the procedure consecutive blocks of replicate indices, in order.  A
test block holds as many replicates R as keep R x max(B) sample-sized
float64 rows within ``_BLOCK_BYTES`` (1 MiB), a permutation test's
sample being its (x, y) pair, 2m floats; an SGD block, R (X, Y)
streams of n x 4 floats; a bootstrap or subsample block, R samples and
R x max(B) estimates within one gathered slice of resamples, 256 KiB
(in setting 2 an observation and an estimate are d floats).  Replicate
r draws its data from stream (r, 0) and its resamples from stream
(r, 1) on, so the blocking never changes a bit.
Every procedure runs a block through one runner
(:func:`_replicate_block`): one batched draw of the block's data, then
one call for all the cells.  For tests it is
:func:`~fixedb.procedures._curtailed_rejects`, which draws each test's
resamples in rounds shared by the cells only until every cell's
decision is fixed, each bit for bit as
:func:`~fixedb.procedures.rank_test_block`, and scores each round's
resamples of all the open tests in one call (the permutation test's
row-aligned :func:`_corr_statistic_rows` pairs each permutation with
its own test's data).  For bootstrap and subsample it is the CI block
kernel :func:`~fixedb.procedures._ci_block`, which derives the block's
R x max(B) resample streams in one pass, forms their roots a slab at a
time and sorts them once per distinct B; a B-cell reads each
replicate's first B roots, the bits its own call would draw.  For SGD
it is one :func:`~fixedb.procedures.sgd_cells` call per replicate
(:func:`_ci_replicate`), which runs max(B) weighted paths once for
every cell.  A block that raises is rerun one replicate at a time, so
the error is the first failing replicate's own.  So every cell's
outcome is the one it would get run alone, and the output table
depends only on the config.  Every block's outcomes are two
(R, cells) arrays, ``covered`` and ``width`` (NaN for a test, which
has none); the blocks are concatenated in replicate order and each
cell's row averages its columns.

The ``threads`` key sets how many processes share the replicates:
min(threads, reps, usable CPUs) contiguous shares of replicates 0..reps,
each run block by block as above.  The calling process runs share 0;
persistent forked workers (:func:`_serve`), started by the first call
that needs them and reused by later ones, run the others, and the
outcomes are merged in share order.  The bytes do not depend on the
split, since replicate r reads only its own streams.  A share's error
is the serial loop's, raised once every worker has replied.  The
workers run tasks, a module-level function and its arguments
(:func:`_run_tasks`): study shares here, one per process, and
``fixedb verify``'s bracket suite, conformal sweep and Poisson-binomial
sweep subtrees, more tasks than processes, which the processes pull
from the two ends of the task list.  A worker keeps the library as
it was when it was forked: a later change to a module's names (a
monkeypatch, a tracer) does not reach it.  Where ``os.fork`` is
missing, or in a daemonic process (which may not fork), the tasks run
serially in the calling process.

Budgets above 2**16 - 2 are rejected, because a replicate's resamples
would run into the next replicate's streams.

Width reporting: scalar confidence intervals report the interval
width; sup-norm (set-valued) intervals report the threshold span
(W_(u) - W_(l)) / tau_m; hypothesis-test rows carry no width (NA in
the CSV).
"""

from __future__ import annotations

import collections
import csv
import io
import json
import math
import numbers
import os
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import BudgetTooSmall, ConfigError, InvalidInput, _check_choice, _check_count, _check_real
from .oracle import conformal_grid_example
from .orderstats import BudgetSpec
from .procedures import _CI_VARIANTS, _GATHER_BYTES, _ci_block, _curtailed_rejects, ci_rule, sgd_cells, test_rule
from .resampling import (
    RESAMPLE_STRIDE,
    PairStream,
    SeedSpec,
    SgdSpec,
    _setting_draw,
    _stream_rows,
    full_symmetric,
    setting_truth,
    stream_for,
)

# imported only for bench/tracer.py, which rebinds them here
from .procedures import ci_boot, ci_sgd, ci_subsample, permutation_test, randomization_test  # noqa: F401
from .resampling import generator, setting_sampler  # noqa: F401

__all__ = [
    "CoverageRow",
    "SkippedRow",
    "CoverageTable",
    "sup_norm",
    "normalize_config",
    "load_config",
    "run_experiment",
    "emit",
    "read_table",
]

CSV_HEADER = ("setting", "method", "B", "alpha", "m", "reps", "coverage", "mean_width", "seed")


def sup_norm(x) -> float:
    """The l-infinity norm, the root used by the vector-mean setting."""
    return float(np.abs(x).max())


@dataclass(frozen=True)
class CoverageRow:
    """One aggregated (setting, method, B, alpha) result."""

    setting: int
    method: str
    B: int
    alpha: float
    m: int
    reps: int
    coverage: float
    mean_width: Optional[float]
    seed: int

    def __post_init__(self) -> None:
        _check_count(self.reps, "reps")
        _check_real(self.coverage, "coverage", 0, 1)


@dataclass(frozen=True)
class SkippedRow:
    """A (method, B) cell that could not run, with the reason."""

    setting: int
    method: str
    B: int
    alpha: float
    reason: str


@dataclass
class CoverageTable:
    rows: list = field(default_factory=list)
    skipped: list = field(default_factory=list)


# a replicate's B resamples and branch draw stay in its stream block (see resampling.stream_for)
_MAX_B = RESAMPLE_STRIDE - 2


def _as_list(v) -> list:
    return list(v) if isinstance(v, (list, tuple)) else [v]


def _integer(key: str, v, lo: int, hi: float = math.inf) -> int:
    """v as an int in [lo, hi]; a ConfigError naming the key otherwise.

    A JSON boolean is not an integer here, although Python's bool is.
    """
    try:
        ok = not isinstance(v, bool) and int(v) == v and lo <= v <= hi
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        most = "" if hi == math.inf else f" and <= {hi}"
        raise ConfigError(f"config.{key}: expected an integer >= {lo}{most}, got {v!r}")
    return int(v)


def _level(key: str, v) -> float:
    """v as a float in (0, 1); a ConfigError naming the key unless v is a
    real number (a JSON boolean or string is not) in that range."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool) and 0 < v < 1:
        return float(v)
    raise ConfigError(f"config.{key}: expected a level in (0, 1), got {v!r}")


def _flag(key: str, v) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"config.{key}: expected true or false, got {v!r}")
    return v


def _variant(key: str, v) -> str:
    if v not in _CI_VARIANTS:
        raise ConfigError(f"config.{key}: expected one of {_CI_VARIANTS}, got {v!r}")
    return v


def _size(key: str, v) -> int:
    """One sample size, given as a number or a one-element list."""
    if len(_as_list(v)) != 1:
        raise ConfigError(f"config.{key}: expected one sample size, got {v!r}")
    return _integer(key, _as_list(v)[0], 1)


def _grid(check: Callable) -> Callable:
    """The check of a grid key: a value or a list of values, each passing
    ``check``, at least one, and none twice (a grid runs each once)."""

    def grid(key: str, v) -> list:
        values = [check(key, x) for x in _as_list(v)]
        if not values:
            raise ConfigError(f"config.{key}: expected at least one value")
        for i, x in enumerate(values):
            if x in values[:i]:
                raise ConfigError(f"config.{key}: {x!r} is repeated")
        return values

    return grid


_count = partial(_integer, lo=1)
_budgets = _grid(partial(_integer, lo=1, hi=_MAX_B))

# every config key but procedure and setting -> (its default, a value or a
# function of (setting, paper_scale); its check, a function of (key, value)
# that gives the value as a study reads it or raises a ConfigError naming
# the key), in the order they are checked
_KEYS = {
    "paper_scale": (False, _flag),
    "B": ([19], _budgets),
    "alpha": ([0.1], _grid(_level)),
    "methods": (["modified"], _grid(_variant)),
    "m": (lambda setting, paper: (1000 if paper else 400) if setting == 2 else 100, _size),
    "reps": (1000, _count),
    "threads": (1, _count),
    "d": (lambda setting, paper: 100 if paper else 20, _count),
    "n": (lambda setting, paper: 10_000 if paper else 5_000, _count),
    "burn_in": (lambda setting, paper: 2_000 if paper else 1_000, partial(_integer, lo=0)),
    "seed": (20260823, partial(_integer, lo=0, hi=2**64 - 1)),
    "k": (None, lambda key, v: None if v is None else _count(key, v)),  # None: ceil(m ** (2/3))
}

_KNOWN_KEYS = {"procedure", "setting", *_KEYS}


class _Study(NamedTuple):
    settings: tuple  # the benchmark settings it supports, its default first
    reads: dict  # the keys it reads beside procedure and setting -> (default, check)


def _reads(keys: str, **changed) -> dict:
    """The (default, check) of each of these keys, as in _KEYS unless changed."""
    return {key: changed.get(key, _KEYS[key]) for key in keys.split()}


# procedure -> what its study reads; the CLI's subcommands and their flags come from here
_STUDIES = {
    "bootstrap": _Study((1, 2), _reads("paper_scale B alpha methods m reps threads d seed")),
    "subsample": _Study((3, 1, 2), _reads("paper_scale B alpha methods m reps threads d seed k")),
    "sgd": _Study((4,), _reads("paper_scale B alpha methods reps threads n burn_in seed")),
    "permutation": _Study((0,), _reads("B alpha m reps threads seed", B=([99], _budgets), m=(30, _size))),
    "randomization": _Study((0,), _reads("B alpha m reps threads seed", m=(50, _size))),
    "conformal": _Study((0,), _reads("alpha m seed", m=(100, _grid(_count)))),
}


def normalize_config(config: dict) -> dict:
    """Validate a config dict; the result holds the procedure, its
    setting and the keys it reads (``_STUDIES``), defaults filled.

    A known key that the procedure does not read is checked on its own,
    then dropped.  A check between two keys (k <= m, burn_in < n) runs
    only when the procedure reads both.  Grids (B, alpha, methods,
    conformal's m) must not be empty; burn_in may be 0.  Raises
    :class:`ConfigError` naming the offending key path.
    """
    if not isinstance(config, dict):
        raise ConfigError("config: expected a JSON object")
    for key in config:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"config.{key}: unknown key")
    proc = config.get("procedure", "bootstrap")
    procs = tuple(_STUDIES)
    if proc not in procs:
        raise ConfigError(f"config.procedure: expected one of {procs}, got {proc!r}")
    study = _STUDIES[proc]
    setting = _integer("setting", config.get("setting", study.settings[0]), 0)
    if setting not in study.settings:
        raise ConfigError(f"config.setting: procedure {proc!r} supports {tuple(sorted(study.settings))}, got {setting!r}")

    cfg = {"procedure": proc, "setting": setting}
    for key, (default, check) in _KEYS.items():
        if key in study.reads:
            default, check = study.reads[key]
            if callable(default):  # paper_scale is checked first, where read
                default = default(setting, cfg.get("paper_scale", False))
            cfg[key] = check(key, config.get(key, default))
        elif key in config:
            check(key, config[key])
    if cfg.get("k") is not None and cfg["k"] > cfg["m"]:
        raise ConfigError(f"config.k: expected an integer in [1, m], got {cfg['k']!r}")
    if "burn_in" in cfg and not cfg["burn_in"] < cfg["n"]:
        raise ConfigError("config.burn_in: must be smaller than config.n")
    return cfg


def load_config(path: str) -> dict:
    """Read a JSON config file holding one JSON object.

    Raises :class:`ConfigError` when the file cannot be read, is not
    JSON, or holds some other JSON value.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: cannot read it ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: expected a JSON object, got {type(raw).__name__}")
    return raw


def _rate(setting: int, n: int) -> float:
    return float(n) if setting == 3 else math.sqrt(n)


def _sgd_gradient(theta, point):
    x, y = point
    ind = 1.0 if (y - x @ theta) < 0.0 else 0.0
    return -(0.5 - ind) * x


def _sgd_gradient_batch(thetas, point):
    x, y = point
    ind = (y - thetas @ x < 0.0).astype(float)
    return -(0.5 - ind)[:, None] * x[None, :]


def _corr_statistic(data, perm):
    x, y = data
    return abs(float(np.corrcoef(x, y[perm])[0, 1]))


def _corr_statistic_rows(data, tests, perms):
    """_corr_statistic(data[tests[j]], perms[j]) for each row j of the
    (rows, m) stack perms, ``data`` an (R, 2, m) stack of (x, y) pairs:
    the row-aligned scorer of a round's permutations across a block's
    tests.  It follows np.corrcoef's arithmetic step for step on the
    (rows, 2, m) stack of (x, y[perm]) pairs: centre, X X^T, times
    1/(m-1), divide by the root diagonal, clip."""
    m = perms.shape[1]
    z = np.empty((len(perms), 2, m))
    z[:, 0] = data[tests, 0]
    z[:, 1] = data[tests[:, None], 1, perms]
    z -= z.mean(axis=2)[:, :, None]
    c = z @ z.transpose(0, 2, 1)
    c *= 1.0 / (m - 1)
    sd = np.sqrt(c[:, [0, 1], [0, 1]])
    return np.abs(np.clip(c[:, 0, 1] / sd[:, 0] / sd[:, 1], -1.0, 1.0))


def _mean_statistic(x):
    return float(x.sum() / math.sqrt(x.size))


def _mean_statistic_batch(s):
    return s.sum(axis=1) / math.sqrt(s.shape[1])


def _mean_rows(s):
    return s.mean(axis=1)


def _max_rows(s):
    return s.max(axis=1)


# setting -> (estimator, its batched form over (B, m, ...) stacks, root)
_ESTIMATORS = {
    1: (np.mean, _mean_rows, None),
    2: (lambda a: a.mean(axis=0), _mean_rows, sup_norm),
    3: (np.max, _max_rows, None),
}


def _plan(cfg: dict) -> tuple:
    """run_block(master, cells, rs) and the budget check
    rule(budget, method) of the configured procedure.

    The check is :func:`ci_rule` or :func:`test_rule`.  run_block gives
    the outcomes of replicates rs in every (B, alpha, method) cell as two
    (len(rs), cells) arrays: ``covered`` (for a test, whether it retains
    the null) and ``width``, NaN for tests.  Every procedure runs the
    block through :func:`_replicate_block`, with one
    :func:`_curtailed_rejects` or :func:`_ci_block` call for all its
    cells, or for SGD one :func:`_ci_replicate` per replicate, where all
    cells share one :func:`sgd_cells` call.  A failing study raises what
    its first failing replicate's own call raises on the resamples it
    draws; a test's failure past every cell's decision is never drawn,
    so it cannot surface.  The statistics here are the library's own.
    """
    proc = cfg["procedure"]
    setting = cfg["setting"]
    m = cfg.get("m")  # SGD reads n instead
    if proc == "sgd":
        spec = SgdSpec(
            dim=3,
            gamma1=1.0,
            tau_exp=2.0 / 3.0,
            burn_in=cfg["burn_in"],
            n_total=cfg["n"],
            gradient=_sgd_gradient,
            weight_law="exponential",
        )
        truth = setting_truth(4)[0]
        pairs = _setting_draw(4, {"n": cfg["n"]})

        def draw(gen):  # an SGD replicate's (X, Y) stream, as (n, 4) rows
            stream = pairs(gen)
            return np.column_stack((stream.x, stream.y))

        def run_sgd_cells(stream, cells, seed):
            cis = [ci[0] for ci in sgd_cells(stream, spec, cells, seed, gradient_batch=_sgd_gradient_batch)]
            return [ci.contains(truth) for ci in cis], [ci.span for ci in cis]  # coordinate 0

        def run_cells(data, cells, master, rs):
            streams = (PairStream(rows[:, :3], rows[:, 3]) for rows in data)
            covered, width = zip(*(_ci_replicate(master, cells, s, run_sgd_cells, r) for s, r in zip(streams, rs)))
            return np.array(covered), np.array(width)

        rule = ci_rule

    elif proc in ("permutation", "randomization"):
        if proc == "permutation":
            statistic, group, statistic_batch = _corr_statistic, full_symmetric(m), _corr_statistic_rows
        else:
            statistic, group, statistic_batch = _mean_statistic, "signflip", _mean_statistic_batch

        def draw(gen):  # a test replicate's data: an (x, y) pair, or one sample
            x = gen.standard_normal(m)
            return (x, gen.standard_normal(m)) if proc == "permutation" else x

        def run_cells(data, cells, master, rs):
            firsts = [stream_for(r, 1) for r in rs]
            rejects = _curtailed_rejects(data, statistic, group, cells, master, firsts, statistic_batch)
            return ~rejects, np.full(rejects.shape, np.nan)

        def rule(budget, _method):
            return test_rule(budget, group)

    else:
        params = {"m": m, "d": cfg["d"]} if setting == 2 else {"m": m}
        theta0 = setting_truth(setting, params)
        estimator, batch, root = _ESTIMATORS[setting]
        tau_m = _rate(setting, m)
        k, tau_k = None, 1.0
        if proc == "subsample":
            k = cfg["k"] or math.ceil(m ** (2.0 / 3.0))
            tau_k = _rate(setting, k)

        def run_cells(data, cells, master, rs):
            firsts = [stream_for(r, 1) for r in rs]
            block = _ci_block(data, estimator, cells, root, tau_m, master, firsts, batch, k, tau_k)
            return block.covers(theta0), block.span

        draw = _setting_draw(setting, params)
        rule = ci_rule

    def run_block(master: int, cells: list, rs) -> tuple:
        return _replicate_block(master, cells, rs, draw, run_cells)

    return run_block, rule


def _replicate_block(master: int, cells: list, rs, draw: Callable, run_cells: Callable) -> tuple:
    """Replicates rs of every cell: their data drawn in one batched pass
    from streams (r, 0), then run_cells(data, cells, master, rs) on the
    block, each replicate's resamples from streams (r, 1) on.  The block
    runner of every study procedure.  If the block raises, its
    replicates run again one at a time, so the error is the first
    failing replicate's, as its own call raises it (a test's failing
    resample b is step b), whatever the block or share split; if none
    of them raises, the block's own error is raised."""
    data = _stream_rows(master, [stream_for(r, 0) for r in rs], 1, draw)
    try:
        return run_cells(data, cells, master, rs)
    except Exception:
        if len(rs) > 1:
            for i in range(len(rs)):
                run_cells(data[i : i + 1], cells, master, rs[i : i + 1])
        raise


def _ci_replicate(master: int, cells: list, stream, run: Callable, r: int) -> tuple:
    """run(stream, cells, seed) for replicate r, its resamples from
    stream (r, 1) on: SGD's per-replicate step on its drawn data."""
    return run(stream, cells, SeedSpec(master, stream_for(r, 1)))


# kept for bench/tracer.py, which rebinds it beside _ci_replicate
_test_replicate = _ci_replicate

# a test block holds as many replicates R as keep one float64
# (R, max(B)) stack of samples within this many bytes, a sample being m
# floats, or 2m for a permutation test's (x, y) pair; each array of a
# round (the flipped samples, or the (rows, 2, m) stack that scores the
# permutations) is at most that size.  An SGD block keeps its (R, n, 4)
# (X, Y) streams within it.  A bootstrap or subsample block keeps its R
# samples and R x max(B) estimates within one slice (_GATHER_BYTES)
_BLOCK_BYTES = 1 << 20


def _skip_reason(rule: Callable, B: int, alpha: float, method: str) -> Optional[str]:
    """Why the cell cannot run at its budget (the BudgetTooSmall text the
    procedure's budget check ``rule`` raises), or None.  Any other error
    of the check, such as a permutation budget beyond |G|, propagates."""
    try:
        rule(BudgetSpec(B, alpha), method)
    except BudgetTooSmall as exc:
        return str(exc)
    return None


def _share(cfg: dict, cells: list, lo: int, hi: int, block: int) -> list:
    """The (covered, width) outcomes of replicates lo..hi-1 of the
    configured study, one pair per block of ``block`` replicates from
    lo: a task of :func:`_run_tasks`."""
    run_block = _plan(cfg)[0]
    return [run_block(cfg["seed"], cells, range(start, min(start + block, hi))) for start in range(lo, hi, block)]


def _serve(conn, parent_end) -> None:
    """A worker: for each task (fn, args) it receives, with fn a
    module-level function, send back (fn(*args), None) or (None, the
    error).  The tasks are study shares (:func:`_share`) or
    ``fixedb verify``'s sweeps and sweep subtrees.  It exits when the
    parent's end of the pipe closes."""
    import signal

    # an interrupt is the parent's to handle: it terminates busy workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = fn(*args), None
        except Exception as exc:  # sent back for the parent to raise
            reply = None, exc
        conn.send(reply)


# the workers, as (process, the parent's end of its pipe) pairs: started
# by _workers, reused by later calls, and used by one call at a time
# (_WORKERS_LOCK)
_WORKERS: list = []
_WORKERS_LOCK = threading.Lock()


def _forget_workers() -> None:
    """In a forked child: close the inherited pipe ends of the parent's
    workers, so that they see EOF when the parent exits, and never use
    them."""
    for _, conn in _WORKERS:
        conn.close()
    _WORKERS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _workers(n: int) -> list:
    """n running workers, forking the missing ones (a worker that died
    is replaced); none in a daemonic process, which may not have
    children."""
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return []
    _drop([w for w in _WORKERS if not w[0].is_alive()])
    ctx = multiprocessing.get_context("fork")
    while len(_WORKERS) < n:
        conn, child_end = ctx.Pipe()
        proc = ctx.Process(target=_serve, args=(child_end, conn), daemon=True)
        proc.start()
        child_end.close()
        _WORKERS.append((proc, conn))
    return _WORKERS[:n]


def _drop(workers: list) -> None:
    """Terminate and forget workers whose replies will not be read."""
    for proc, conn in workers:
        proc.terminate()
        proc.join()
        conn.close()
        _WORKERS.remove((proc, conn))


def _run_tasks(tasks: list, threads: int) -> list:
    """fn(*args) of every task (fn, args), in task order, on
    min(threads, usable CPUs, tasks) processes: this one and persistent
    forked workers, to which a task's fn must be a module-level function
    (a worker receives it by name).  The first task runs here.  With no
    more tasks than processes each other task runs on a worker of its
    own.  With more, the processes pull the tasks as they free up: this
    one from the front, each worker from the back, with one more task
    queued behind the one it runs, so that it need not wait for this
    process to finish a task before it starts its next
    (:func:`_pull`).  Where no worker can be had (no ``os.fork``, a
    daemonic process, or another call using the workers), every task
    runs here, in order.  The first failing task's error, in task
    order, is raised once every sent task's reply is read; an interrupt
    terminates the workers still busy."""
    processes = min(threads, _usable_cpus(), len(tasks))
    if processes < 2 or not hasattr(os, "fork") or not _WORKERS_LOCK.acquire(blocking=False):
        return [fn(*args) for fn, args in tasks]
    try:
        workers = _workers(processes - 1)
        if not workers:
            return [fn(*args) for fn, args in tasks]
        replies = _pull(tasks, workers)
    finally:
        _WORKERS_LOCK.release()
    for _, error in replies:
        if error is not None:
            raise error
    return [result for result, _ in replies]


def _pull(tasks: list, workers: list) -> list:
    """The (result, error) reply of every task, in task order: this
    process runs tasks from the front, and whenever it is between tasks
    it sends each worker tasks from the back until the worker holds two
    (one at first, round the workers, so that with no more tasks than
    processes worker i runs task i + 1).  A worker that exits before it
    replies is a RuntimeError; on an error or an interrupt the workers
    with unread replies are terminated."""
    from multiprocessing.connection import wait

    replies: list = [None] * len(tasks)
    # the tasks sent to each worker, oldest first; tasks lo..hi-1 are not taken yet
    queued = {conn: collections.deque() for _, conn in workers}
    lo, hi = 0, len(tasks)

    def feed(depth: int) -> None:
        nonlocal hi
        for _, conn in reversed(workers):
            # the front task stays here
            while len(queued[conn]) < depth and hi - lo > 1:
                hi -= 1
                queued[conn].append(hi)
                try:
                    conn.send(tasks[hi])
                except (BrokenPipeError, ConnectionResetError):
                    raise RuntimeError("a worker exited before it replied") from None

    try:
        feed(1)
        while lo < hi or any(queued.values()):
            busy = [conn for conn, sent in queued.items() if sent]
            # block for a reply only when no task is left to run here
            for conn in wait(busy) if lo == hi else [conn for conn in busy if conn.poll()]:
                try:
                    reply = conn.recv()
                # a worker that died before it read its task resets the connection
                except (EOFError, ConnectionResetError):
                    raise RuntimeError("a worker exited before it replied") from None
                replies[queued[conn].popleft()] = reply
            feed(2)
            if lo < hi:
                fn, args = tasks[lo]
                lo += 1
                try:
                    replies[lo - 1] = fn(*args), None
                except Exception as exc:  # raised by _run_tasks, after the workers' replies
                    replies[lo - 1] = None, exc
    finally:
        _drop([worker for worker in workers if queued[worker[1]]])
    return replies


def _replicates(cfg: dict, cells: list, block: int) -> tuple:
    """The (reps, cells) arrays ``covered`` and ``width`` of every
    replicate, in order, from min(threads, reps, usable CPUs) contiguous
    shares: share 0 here, the others on the workers (:func:`_run_tasks`;
    see the module docstring)."""
    reps, threads = cfg["reps"], cfg["threads"]
    n = min(threads, reps, _usable_cpus())
    bounds = [reps * i // n for i in range(n + 1)]
    tasks = [(_share, (cfg, cells, lo, hi, block)) for lo, hi in zip(bounds, bounds[1:])]
    blocks = [outcomes for share in _run_tasks(tasks, threads) for outcomes in share]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def run_experiment(config: dict) -> CoverageTable:
    """Run the configured replication study and aggregate coverage.

    Coverage is the fraction of replicates whose confidence set
    contains the true parameter (for CI procedures) or that retain the
    null (for tests); the conformal procedure tabulates the exact grid
    coverage instead of replicating.  Cells whose budget cannot
    support the requested rule become skipped rows with the reason.
    The other cells run block-major (see the module docstring):
    replicate r draws its data (and, for the CI procedures, its
    resamples or SGD paths) once for all of them.  Rows and skips come
    in (alpha, B, method) order.

    ``threads`` above 1 splits the replicates into min(threads, reps,
    usable CPUs) contiguous shares: this process runs the first, forked
    worker processes the others (started by the first such call and
    reused).  The table is the same whatever the split.  Workers keep
    the library as it was when they were forked; without ``os.fork``
    the replicates run serially here.
    """
    cfg = normalize_config(config)
    proc = cfg["procedure"]
    table = CoverageTable()
    if proc == "conformal":
        for alpha in cfg["alpha"]:
            for m in cfg["m"]:
                coverage = conformal_grid_example(m, alpha).coverage
                table.rows.append(CoverageRow(setting=0, method="conformal_modified", B=m, alpha=alpha, m=m, reps=1,
                                              coverage=coverage, mean_width=None, seed=cfg["seed"]))
        return table

    rule = _plan(cfg)[1]
    is_test = proc in ("permutation", "randomization")
    methods = [proc] if is_test else cfg["methods"]

    def label(method: str) -> str:
        return proc if is_test else f"{proc}_{method}"

    cells = []
    for alpha in cfg["alpha"]:
        for B in cfg["B"]:
            for method in methods:
                reason = _skip_reason(rule, B, alpha, method)
                if reason is None:
                    cells.append((B, alpha, method))
                else:
                    table.skipped.append(
                        SkippedRow(cfg["setting"], label(method), B, alpha, reason=reason)
                    )
    if not cells:
        return table
    max_b = max(B for B, _, _ in cells)
    # a sample is m observations, and an estimate one float, or d of each in
    # setting 2; a permutation test's sample is m (x, y) pairs, 2m floats
    dim = cfg["d"] if cfg["setting"] == 2 else 2 if proc == "permutation" else 1
    if proc in ("bootstrap", "subsample"):
        block = max(1, _GATHER_BYTES // (8 * dim * (cfg["m"] + max_b)))
    elif proc == "sgd":
        block = max(1, _BLOCK_BYTES // (8 * 4 * cfg["n"]))
    else:
        block = max(1, _BLOCK_BYTES // (8 * dim * cfg["m"] * max_b))
    covered, width = _replicates(cfg, cells, block)
    for (B, alpha, method), hit, widths in zip(cells, covered.T, width.T):
        widths = widths[np.isfinite(widths)]
        table.rows.append(
            CoverageRow(
                setting=cfg["setting"],
                method=label(method),
                B=B,
                alpha=alpha,
                m=cfg["n"] if proc == "sgd" else cfg["m"],
                reps=cfg["reps"],
                coverage=float(hit.mean()),
                mean_width=float(widths.mean()) if widths.size else None,
                seed=cfg["seed"],
            )
        )
    return table


def _csv_text(table: CoverageTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in table.rows:
        writer.writerow(
            [
                row.setting,
                row.method,
                row.B,
                row.alpha,
                row.m,
                row.reps,
                row.coverage,
                "NA" if row.mean_width is None else row.mean_width,
                row.seed,
            ]
        )
    return buf.getvalue()


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _svg_text(table: CoverageTable) -> str:
    if not table.rows:
        raise InvalidInput("cannot plot an empty table")
    width, height = 640, 420
    ml, mr, mt, mb = 62, 20, 24, 48
    pw, ph = width - ml - mr, height - mt - mb
    bs = sorted({row.B for row in table.rows})
    b_lo, b_hi = bs[0], bs[-1]
    if b_lo == b_hi:
        b_lo, b_hi = b_lo - 1, b_hi + 1

    def sx(b: float) -> float:
        return ml + (b - b_lo) / (b_hi - b_lo) * pw

    def sy(c: float) -> float:
        return mt + (1.0 - c) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(tick)
        parts.append(f'<line x1="{ml - 4}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{ml - 8}" y="{y + 4:.2f}" font-size="11" text-anchor="end" '
            f'font-family="sans-serif">{tick:g}</text>'
        )
    for b in bs[: 12]:
        x = sx(b)
        parts.append(f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" y2="{mt + ph + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{mt + ph + 18}" font-size="11" text-anchor="middle" '
            f'font-family="sans-serif">{b}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.2f}" y="{height - 10}" font-size="12" text-anchor="middle" '
        f'font-family="sans-serif">budget B</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.2f}" font-size="12" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {mt + ph / 2:.2f})">coverage</text>'
    )
    for alpha in sorted({row.alpha for row in table.rows}):
        y_nom = sy(1.0 - alpha)
        parts.append(
            f'<line x1="{ml}" y1="{y_nom:.2f}" x2="{ml + pw}" y2="{y_nom:.2f}" '
            f'stroke="#555555" stroke-dasharray="6,4"/>'
        )
    series = sorted({(row.method, row.alpha) for row in table.rows})
    for mi, (method, alpha) in enumerate(series):
        pts = sorted(
            ((row.B, row.coverage) for row in table.rows if (row.method, row.alpha) == (method, alpha)),
            key=lambda t: t[0],
        )
        color = _PALETTE[mi % len(_PALETTE)]
        coords = " ".join(f"{sx(b):.2f},{sy(c):.2f}" for b, c in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{ml + pw - 6}" y="{mt + 16 + 14 * mi}" font-size="11" text-anchor="end" '
            f'font-family="sans-serif" fill="{color}">{method}, alpha {alpha:g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit(table: CoverageTable, fmt: str, path: str) -> str:
    """Write the table as CSV (fixed header, LF endings) or a
    self-contained SVG coverage plot; returns the path."""
    _check_choice(fmt, "fmt", ("csv", "svg"))
    text = _csv_text(table) if fmt == "csv" else _svg_text(table)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def read_table(path: str) -> CoverageTable:
    """Parse a CSV produced by :func:`emit` back into a table.

    A foreign header or a malformed row raises :class:`InvalidInput`.
    """
    table = CoverageTable()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if tuple(header or ()) != CSV_HEADER:
                raise InvalidInput(f"unexpected CSV header {header!r}")
            for rec in reader:
                if len(rec) != len(CSV_HEADER):
                    raise InvalidInput(f"expected {len(CSV_HEADER)} fields, got {len(rec)}")
                table.rows.append(
                    CoverageRow(
                        setting=int(rec[0]),
                        method=rec[1],
                        B=int(rec[2]),
                        alpha=float(rec[3]),
                        m=int(rec[4]),
                        reps=int(rec[5]),
                        coverage=float(rec[6]),
                        mean_width=None if rec[7] == "NA" else float(rec[7]),
                        seed=int(rec[8]),
                    )
                )
        except (ValueError, csv.Error) as exc:
            raise InvalidInput(f"{path}, line {reader.line_num}: {exc}") from exc
    return table
