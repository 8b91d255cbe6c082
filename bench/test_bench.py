"""Smoke test of the benchmark itself; run from the repository root:

    python3 -m pytest -q bench/test_bench.py

Each workload runs at its tiny size, traced and untraced, and must
report exactly the metrics BENCHMARK.json names, with their units.  The
output check must count a CSV with one flipped byte as failed, and the
benchmark must refuse to run where there is no fixedb source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, PassResult, Tally, Workload, check_pass, digest  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {s["name"]: s["unit"] for s in specs}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["layers.separation_holds"]["value"] == 1.0


def test_flipped_byte_counts_as_failed(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    wl = Workload("sgd-study", 5, True, str(tmp_path))
    good = wl.run_pass()
    expected = digest(good.output)
    flipped = bytearray(good.output)
    flipped[len(flipped) // 2] ^= 0x01
    tally = Tally()
    check_pass(good, expected, tally)
    check_pass(PassResult(bytes(flipped), good.items, good.ops, []), expected, tally)
    assert (tally.attempted, tally.failed) == (2 * good.ops, good.ops)
    assert tally.fail_ratio == 0.5


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("boot-study", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
