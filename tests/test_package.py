"""The package surface: every submodule's public names, each once, and
what a cold import loads."""

import os
import subprocess
import sys

import pytest

import fixedb
from fixedb import (
    bounds,
    discrete,
    distances,
    errors,
    harness,
    oracle,
    orderstats,
    procedures,
    resampling,
)

MODULES = (bounds, discrete, distances, errors, harness, oracle, orderstats, procedures, resampling)


def test_all_has_no_duplicates():
    assert len(fixedb.__all__) == len(set(fixedb.__all__))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_package_names_are_the_submodule_objects(module):
    # catches a star import shadowing a name another submodule exports
    for name in module.__all__:
        assert name in fixedb.__all__
        assert getattr(fixedb, name) is getattr(module, name), name


# Run in a fresh interpreter: no entry point loads scipy, not the
# studies, not ``fixedb verify`` and not the binomial helpers.
_COLD_START = r"""
import math
import sys
from fractions import Fraction

import fixedb
import fixedb.cli
from fixedb.harness import _STUDIES, run_experiment

for proc in _STUDIES:
    run_experiment({"procedure": proc, "reps": 1})
assert fixedb.cli.main(["bootstrap", "--reps", "2", "--out", sys.argv[1]]) == 0
assert fixedb.cli.main(["verify"]) == 0

from fixedb.discrete import binom_pmf
from fixedb.oracle import SweepReport, ehm_hoeffding_sweep

p = Fraction(3, 10)
exact = sum(math.comb(20, k) * p**k * (1 - p) ** (20 - k) for k in range(7))
assert abs(Fraction(math.fsum(binom_pmf(20, 0.3).probs[:7])) - exact) < 1e-15
assert ehm_hoeffding_sweep(b_values=(1, 2)) == SweepReport(90, (), note="grid size 9, B in (1, 2)")
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_cold_start_leaves_scipy_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(fixedb.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path / "boot.csv")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "boot.csv").exists()


def test_resampling_takes_nothing_from_discrete():
    # the draw layer needs only the integer check, which lives in errors
    with open(resampling.__file__, encoding="utf-8") as fh:
        source = fh.read()
    assert "from .discrete" not in source and "import discrete" not in source
