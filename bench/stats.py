"""Summaries of timing samples: the median and a tail percentile."""

from __future__ import annotations

import numpy as np

_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_label(n: int) -> str:
    """The highest percentile with at least ten of ``n`` samples beyond
    it, or ``max`` when even the median has fewer."""
    for p in _LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return f"p{p:g}"
    return "max"


def summarize(samples) -> tuple:
    """(p50, tail, tail label, sample count); zeros for no samples."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        return 0.0, 0.0, "none", 0
    label = tail_label(x.size)
    tail = float(x.max()) if label == "max" else float(np.percentile(x, float(label[1:])))
    return float(np.median(x)), tail, label, int(x.size)
