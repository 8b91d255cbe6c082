"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side only: :func:`install`
rebinds public names of the ``fixedb`` layers in the modules that import
them (and in the defining module, for calls made inside it), and puts
them back on :meth:`Tracer.uninstall`.  Nothing in the package itself is
edited, and the untraced run never calls :func:`install`.

Each span carries a name, start and end (``perf_counter_ns``), its own
id, the id of the span that caused it, the replicate id it ran under
(-1 outside a replicate) and an optional integer of work done (the
budget B of a procedure call, the steps of an SGD run, the checks of a
sweep; ``RAISED`` when the call raised).  Spans stay in per-thread arrays until :meth:`Tracer.spans`
collects them after the run.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from array import array

import numpy as np

_FIELDS = ("name", "start", "end", "sid", "parent", "rep", "units")
RAISED = -1  # the units of a span whose call raised


class _Buffer:
    """Span columns written by one thread only."""

    def __init__(self) -> None:
        self.cols = {f: array("q") for f in _FIELDS}
        self.stack: list = []
        self.rep = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list = []
        self._lock = threading.Lock()
        self._main = self._buffer()
        self._undo: list = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name_id: int, fn, args, kwargs, units=None, rep=None):
        """Run fn(*args, **kwargs) inside a span.

        A span opened on a thread with nothing open (a pool worker) is
        parented to the span open on the main thread.
        """
        buf = self._buffer()
        stack = buf.stack
        main = self._main.stack
        parent = stack[-1] if stack else (main[-1] if main else 0)
        sid = next(self._ids)
        stack.append(sid)
        outer_rep = buf.rep
        if rep is not None:
            buf.rep = rep
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._record(buf, name_id, start, sid, parent, RAISED, outer_rep)
            raise
        n = 0 if units is None else int(units(args, kwargs, result))
        self._record(buf, name_id, start, sid, parent, n, outer_rep)
        return result

    @staticmethod
    def _record(buf, name_id, start, sid, parent, units, outer_rep) -> None:
        end = time.perf_counter_ns()
        buf.stack.pop()
        cols = buf.cols
        cols["name"].append(name_id)
        cols["start"].append(start)
        cols["end"].append(end)
        cols["sid"].append(sid)
        cols["parent"].append(parent)
        cols["rep"].append(buf.rep)
        cols["units"].append(units)
        buf.rep = outer_rep

    def span(self, name: str, fn, *args, units=None, **kwargs):
        """Call fn under a span named ``name``."""
        return self.call(self.name_id(name), fn, args, kwargs, units=units)

    def wrap(self, modules, attr: str, name: str, units=None, rep_arg=None):
        """Rebind ``attr`` in each module to a span-recording wrapper."""
        original = getattr(modules[0], attr)
        nid = self.name_id(name)
        call = self.call

        if rep_arg is None:

            def wrapper(*args, **kwargs):
                return call(nid, original, args, kwargs, units=units)

        else:

            def wrapper(*args, **kwargs):
                return call(nid, original, args, kwargs, units=units, rep=args[rep_arg])

        wrapper.__wrapped__ = original
        for mod in modules:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} is not {name}")
            self._undo.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    def spans(self) -> dict:
        """All recorded spans as numpy columns, ordered by start time."""
        cols = {f: np.concatenate([np.frombuffer(b.cols[f], dtype=np.int64) for b in self._buffers])
                for f in _FIELDS}
        order = np.argsort(cols["start"], kind="stable")
        return {f: c[order] for f, c in cols.items()}


def _arg_units(fn, arg: str):
    """Units taken from a named argument of fn, defaults included."""
    sig = inspect.signature(fn)

    def units(args, kwargs, _result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[arg]

    return units


def _n_total(args, kwargs, _result):
    return args[0].n_total


def _n_checked(_args, _kwargs, result):
    return result.n_checked


def install(tracer: Tracer) -> None:
    """Rebind every traced public name of every layer."""
    # bounds, distances and orderstats names are traced where imported
    from fixedb import cli, discrete, harness, oracle, procedures, resampling

    w = tracer.wrap
    w([resampling, procedures, harness], "generator", "resampling.generator")
    for fn in ("bootstrap_indices", "subsample_indices", "signflip_transform", "permutation_draw"):
        w([procedures], fn, f"resampling.{fn}")
    w([procedures], "sgd_paths", "resampling.sgd_paths", units=_n_total)
    w([harness], "setting_sampler", "resampling.setting_sampler")
    for fn in ("ci_boot", "ci_subsample", "ci_sgd", "permutation_test", "randomization_test"):
        w([harness], fn, f"procedures.{fn}", units=_arg_units(getattr(procedures, fn), "B"))
    for fn in ("sorted_from", "order_stat", "min_budget", "tau_randomization"):
        w([procedures], fn, f"orderstats.{fn}")
    w([procedures, oracle], "index_rule", "orderstats.index_rule")
    # replicate bodies are private, but they are where the replicate id lives
    w([harness], "_ci_replicate", "harness.replicate", rep_arg=4)
    w([harness], "_test_replicate", "harness.replicate", rep_arg=3)
    w([harness], "conformal_grid_example", "oracle.conformal_grid_example")
    for fn in ("bracket_suite", "ehm_hoeffding_sweep", "conformal_grid_sweep"):
        w([cli], fn, f"oracle.{fn}", units=_n_checked)
    w([oracle, discrete], "poisson_binomial_pmf_batch", "discrete.poisson_binomial_pmf_batch")
    w([oracle], "gamma_exact", "distances.gamma_exact")
    for fn in ("iid_bracket", "independent_bracket", "dependent_bracket", "ordering_lower"):
        w([oracle], fn, "bounds.bracket")


def self_times(sp: dict) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children on one thread never overlap; children on pool threads can,
    so coverage is the union of the child intervals, clipped to the
    parent.
    """
    dur = sp["end"] - sp["start"]
    out = dur.astype(np.int64).copy()
    index = {int(s): i for i, s in enumerate(sp["sid"])}
    children: dict = {}
    for i, p in enumerate(sp["parent"].tolist()):
        if p in index:
            children.setdefault(index[p], []).append(i)
    start, end = sp["start"].tolist(), sp["end"].tolist()
    for pi, kids in children.items():
        lo, hi = start[pi], end[pi]
        covered = 0
        run_lo = run_hi = None
        for k in kids:  # already ordered by start
            a, b = max(start[k], lo), min(end[k], hi)
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[pi] -= covered
    return out
