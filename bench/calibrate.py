"""Reference kernels that gauge the machine's speed for each workload.

On a shared machine the same pass can run at half speed for a minute
while the process keeps its CPU the whole time (co-tenants share the
cores' caches and execution units).  Each kernel does a fixed amount of
the same kind of work as its workload -- the same NumPy calls on the
same shapes, from Python loops of the same grain -- without calling
fixedb, so no change to the package can move it.  Set-up has its own
kernel: a fresh interpreter that imports fixedb's dependencies.

A pass's throughput times ``kernel time / REFERENCE_S`` is its
throughput at the speed the machine had when the reference kernel times
were taken; a set-up time is scaled the other way.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# median kernel times on the machine recorded in reference.json
REFERENCE_S = {"boot-study": 0.011, "sgd-study": 0.011, "tests-study-2t": 0.012, "verify": 0.031,
               "setup": 1.02}

_RNG = np.random.default_rng(20260823)
_X = _RNG.exponential(0.2, size=100)
_XY = _RNG.standard_normal((2, 30))
_Z = _RNG.standard_normal(50)
_SGD_X = _RNG.standard_normal((1500, 3))
_GRID = np.arange(1, 10) / 10.0


def _philox(i: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(7, spawn_key=(i,))))


def _boot() -> float:
    ws = np.empty(19)
    acc = 0.0
    for r in range(24):
        for b in range(19):
            idx = _philox(19 * r + b).integers(0, 100, size=100)
            ws[b] = 10.0 * (float(np.mean(_X[idx])) - 0.2)
        acc += float(np.sort(ws, kind="stable")[9])
    return acc


def _sgd() -> float:
    w = -np.log1p(-_philox(1).random((1500, 20)))
    theta = np.zeros((20, 3))
    for n in range(1, 1501):
        x = _SGD_X[n - 1]
        ind = (0.1 - theta @ x < 0.0).astype(float)
        g = -(0.5 - ind)[:, None] * x[None, :]
        theta = theta - n ** (-2.0 / 3.0) * w[n - 1][:, None] * g
    return float(np.abs(theta).sum())


def _test_draws(b: int) -> float:
    perm = _philox(b).permutation(30)
    t = abs(float(np.corrcoef(_XY[0], _XY[1][perm])[0, 1]))
    signs = 1 - 2 * _philox(1000 + b).integers(0, 2, size=50)
    return t + float((_Z * signs).sum() / np.sqrt(50))


def _tests() -> float:
    # as many threads as the workload's replicate pool has
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        return sum(pool.map(_test_draws, range(120)))


def _verify() -> float:
    combos = np.stack(np.meshgrid(*[_GRID] * 5, indexing="ij"), axis=-1).reshape(-1, 5)
    n = combos.shape[0]
    pmf = np.zeros((n, 6))
    pmf[:, 0] = 1.0
    for i in range(5):
        p = combos[:, i : i + 1]
        shifted = np.concatenate([np.zeros((n, 1)), pmf[:, :-1]], axis=1)
        pmf = pmf * (1.0 - p) + shifted * p
    return float(np.abs(np.cumsum(pmf, axis=1) - 0.5).sum())


KERNELS = {"boot-study": _boot, "sgd-study": _sgd, "tests-study-2t": _tests, "verify": _verify}


def kernel(workload: str) -> float:
    """Seconds taken by one run of the workload's reference kernel."""
    fn = KERNELS[workload]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def setup_kernel(env: dict) -> float:
    """Seconds for a fresh interpreter to import NumPy and SciPy's stats."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.stats"], check=True, env=env,
                   timeout=120)
    return time.perf_counter() - t0
