"""Isolated per-call timings of the per-resample building blocks.

Each function is called on fixed inputs after a warm-up, one call per
sample, and each sample is timed on its own with ``perf_counter_ns``.
The SGD entry times ``sgd_paths`` over a short run at P=20 paths and
divides by its steps, since one step is not a public call.
"""

from __future__ import annotations

import time

import numpy as np

from stats import summarize

SAMPLES = 2000
SGD_STEPS = 200
NAMES = ("generator", "bootstrap_indices", "subsample_indices", "signflip_transform",
         "permutation_draw", "sorted_from_order_stat", "sgd_paths_step")


def _median_regression_gradients(thetas, point):
    x, y = point
    ind = (y - thetas @ x < 0.0).astype(float)
    return -(0.5 - ind)[:, None] * x[None, :]


def _time(fn, n: int, per: int = 1) -> list:
    for _ in range(min(n, 50)):
        fn()
    out = []
    for _ in range(n):
        t0 = time.perf_counter_ns()
        fn()
        out.append((time.perf_counter_ns() - t0) / 1e3 / per)
    return out


def cases(seed: int, samples: int = SAMPLES) -> dict:
    """name -> (callable, samples, calls per sample)."""
    from fixedb import orderstats, resampling as rs

    spec = rs.SeedSpec(seed, rs.stream_for(3, 7))
    rng = np.random.default_rng(seed)
    x50 = rng.standard_normal(50)
    ws = rng.standard_normal(19)
    G = rs.full_symmetric(30)
    stream = rs.setting_sampler(4, {"n": SGD_STEPS}, rs.SeedSpec(seed, 1))
    sgd = rs.SgdSpec(dim=3, gamma1=1.0, tau_exp=2.0 / 3.0, burn_in=SGD_STEPS // 2,
                     n_total=SGD_STEPS, weight_law=None)
    paths = [None] * 20

    def sorted_order():
        s = orderstats.sorted_from(ws)
        orderstats.order_stat(s, 1)
        orderstats.order_stat(s, 19)

    return {
        "generator": (lambda: rs.generator(spec), samples, 1),
        "bootstrap_indices": (lambda: rs.bootstrap_indices(100, spec), samples, 1),
        "subsample_indices": (lambda: rs.subsample_indices(100, 22, spec), samples, 1),
        "signflip_transform": (lambda: rs.signflip_transform(x50, spec), samples, 1),
        "permutation_draw": (lambda: rs.permutation_draw(G, spec), samples, 1),
        "sorted_from_order_stat": (sorted_order, samples, 1),
        "sgd_paths_step": (
            lambda: rs.sgd_paths(sgd, stream, np.zeros(3), paths,
                                 gradient_batch=_median_regression_gradients),
            max(1, samples // 50),
            SGD_STEPS,
        ),
    }


def run(seed: int, samples: int = SAMPLES) -> dict:
    """name -> (p50_us, tail_us, tail label, samples)."""
    return {name: summarize(_time(fn, n, per)) for name, (fn, n, per) in cases(seed, samples).items()}
