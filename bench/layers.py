"""Per-layer metrics of the traced run, computed from its spans.

Counts are per pass (every pass of a run does the same work), so they
repeat exactly from run to run.  Replicates that raise -- the expected
``BudgetTooSmall`` skips -- and everything under them are left out: the
harness cancels a varying number of a skipped cell's replicates, so
their spans do not repeat.  Timings are summarized over every span
of the run as the median plus the highest percentile with at least ten
samples beyond it (see :mod:`stats`).
"""

from __future__ import annotations

import numpy as np

import micro
from stats import summarize
from tracer import RAISED

_SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}

# span name, statistic, unit, median suffix, tail suffix.  "dur" is the
# span's duration, "self" its duration minus what its children cover,
# "step" the self time divided by the span's steps.
TIMINGS = (
    ("resampling.generator", "dur", "us", "p50_us", "tail_us"),
    ("resampling.bootstrap_indices", "self", "us", "self_us", "self_tail_us"),
    ("resampling.subsample_indices", "self", "us", "self_us", "self_tail_us"),
    ("resampling.signflip_transform", "self", "us", "self_us", "self_tail_us"),
    ("resampling.permutation_draw", "self", "us", "self_us", "self_tail_us"),
    ("resampling.setting_sampler", "dur", "us", "p50_us", "tail_us"),
    ("resampling.sgd_paths", "step", "us", "step_us", "step_tail_us"),
    ("procedures.ci_boot", "self", "us", "self_us", "self_tail_us"),
    ("procedures.ci_subsample", "self", "us", "self_us", "self_tail_us"),
    ("procedures.ci_sgd", "self", "ms", "self_ms", "self_tail_ms"),
    ("procedures.randomization_test", "self", "us", "self_us", "self_tail_us"),
    ("procedures.permutation_test", "self", "us", "self_us", "self_tail_us"),
    ("orderstats.sorted_from", "dur", "us", "p50_us", "tail_us"),
    ("orderstats.index_rule", "dur", "us", "p50_us", "tail_us"),
    ("harness.run_experiment", "self", "s", "self_s", "self_tail_s"),
    ("harness.replicate", "dur", "ms", "ms", "tail_ms"),
    ("harness.emit", "dur", "ms", "ms", "tail_ms"),
    ("oracle.bracket_suite", "dur", "s", "s", "tail_s"),
    ("oracle.ehm_hoeffding_sweep", "dur", "s", "s", "tail_s"),
    ("oracle.conformal_grid_sweep", "dur", "s", "s", "tail_s"),
    ("discrete.poisson_binomial_pmf_batch", "dur", "ms", "ms", "tail_ms"),
    ("distances.gamma_exact", "dur", "us", "us", "tail_us"),
    ("bounds.bracket", "dur", "us", "us", "tail_us"),
    ("cli.main", "self", "ms", "self_ms", "self_tail_ms"),
)

# name, unit, better
OTHERS = (
    ("resampling.sgd_paths.share", "ratio", "lower"),
    ("procedures.resamples", "count", "lower"),
    ("orderstats.share", "ratio", "lower"),
    ("harness.pool.busy_ratio", "ratio", "higher"),
    ("oracle.checks", "count", "higher"),
    ("oracle.spans", "count", "lower"),
    ("layers.separation_holds", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def metric_specs() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for span, _, unit, p50, tail in TIMINGS:
        out += [(f"{span}.{p50}", unit, "lower"), (f"{span}.{tail}", unit, "lower"),
                (f"{span}.calls", "count", "lower")]
    out += list(OTHERS)
    for name in micro.NAMES:
        out += [(f"micro.{name}.p50_us", "us", "lower"), (f"micro.{name}.tail_us", "us", "lower"),
                (f"micro.{name}.samples", "count", "higher")]
    return out


def _under_raised_replicate(names: list, sp: dict) -> np.ndarray:
    """Mask of replicate spans that raised and of their descendants."""
    rep_id = names.index("harness.replicate") if "harness.replicate" in names else -1
    out = np.zeros(len(sp["sid"]), dtype=bool)
    dropped: set = set()
    # spans are ordered by start, so a parent is seen before its children
    for i, (sid, parent, name, units) in enumerate(zip(sp["sid"].tolist(), sp["parent"].tolist(),
                                                       sp["name"].tolist(), sp["units"].tolist())):
        if parent in dropped or (name == rep_id and units == RAISED):
            dropped.add(sid)
            out[i] = True
    return out


def _sum(values, mask) -> float:
    return float(values[mask].sum())


def from_spans(names: list, sp: dict, self_ns: np.ndarray, passes: int, threads: int,
               workload: str) -> tuple:
    """(metrics, notes) of one traced run; notes say which percentile
    each tail is and how many samples it rests on."""
    metrics, notes = {}, {}
    keep = ~_under_raised_replicate(names, sp)
    sp = {f: c[keep] for f, c in sp.items()}
    self_ns = self_ns[keep]
    span_of = np.asarray(names + [""], dtype=object)[sp["name"]]
    layer_of = np.asarray([n.split(".")[0] for n in names] + [""], dtype=object)[sp["name"]]
    dur = sp["end"] - sp["start"]
    units = sp["units"]

    for span, stat, unit, p50, tail in TIMINGS:
        mask = span_of == span
        values = dur[mask] if stat == "dur" else self_ns[mask]
        if stat == "step":
            values = values / np.maximum(units[mask], 1)
        med, hi, label, n = summarize(values / _SCALE[unit])
        metrics[f"{span}.{p50}"] = med
        metrics[f"{span}.{tail}"] = hi
        metrics[f"{span}.calls"] = n / passes
        notes[f"{span}.{tail}"] = f"{label} of {n} samples"

    run_total = _sum(dur, span_of == "harness.run_experiment")

    def share(ns: float) -> float:
        return ns / run_total if run_total else 0.0

    oracle_spans = int((layer_of == "oracle").sum())
    resampling_spans = int((layer_of == "resampling").sum())
    metrics["resampling.sgd_paths.share"] = share(_sum(dur, span_of == "resampling.sgd_paths"))
    metrics["procedures.resamples"] = _sum(units, layer_of == "procedures") / passes
    metrics["orderstats.share"] = share(_sum(dur, layer_of == "orderstats"))
    metrics["harness.pool.busy_ratio"] = share(_sum(dur, span_of == "harness.replicate")) / threads
    metrics["oracle.checks"] = _sum(units, layer_of == "oracle") / passes
    metrics["oracle.spans"] = oracle_spans / passes
    metrics["trace.spans"] = len(dur) / passes

    # the layer separation the benchmark's predictions rest on
    self_total = {n: _sum(self_ns, span_of == n) for n in names}
    gen_share = share(self_total.get("resampling.generator", 0.0))
    holds, why = True, []
    if workload == "boot-study":
        top = max(self_total, key=self_total.get)
        holds = top == "resampling.generator"
        why.append(f"largest self time is {top}")
    if workload == "sgd-study":
        holds = gen_share < 0.02
        why.append(f"resampling.generator self time is {100 * gen_share:.2f}% of run_experiment")
    if workload == "verify":
        holds = holds and oracle_spans > 0 and resampling_spans == 0
        why.append(f"resampling spans {resampling_spans}")
    else:
        holds = holds and oracle_spans == 0
    why.append(f"oracle spans {oracle_spans}")
    metrics["layers.separation_holds"] = 1.0 if holds else 0.0
    notes["layers.separation_holds"] = "; ".join(why)
    return metrics, notes
