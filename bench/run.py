"""fixedb benchmark: coverage-study throughput and verify time.

Run from the root of a checkout:

    python3 bench/run.py --workload boot-study --seed 7 --seconds 15 --trace 0
    python3 bench/run.py --workload all            # every workload, both recorded seeds

Workloads (``workloads.py``; why each was chosen is in BENCHMARK.json and
``reference.json``): ``boot-study``, ``sgd-study``, ``tests-study-2t`` drive
``fixedb.harness.run_experiment`` and ``emit``; ``verify`` drives
``fixedb.cli.main(["verify"])``.  Each runs in fresh interpreters
(``worker.py``) that import ``fixedb`` from ``src/`` of the checkout.
BENCHMARK.json drives all but ``sgd-study``, whose throughput does not
hold steady enough on a shared machine to carry a bound.

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
Times are scaled to a reference machine speed: on a shared machine the
same pass can take twice as long a minute later, so each pass is scaled
by its workload's calibration kernel timed just before and just after
it, and each set-up by the set-up kernel (``calibrate.py``).  The
unscaled figures are printed too.

* ``setup_s``: fresh interpreter start until ``import fixedb`` and the
  workload's untimed warm-up call are done; the median of several
  interpreters.
* ``items_per_ref_s``: the median over timed passes of work done per
  second of pass wall time, at reference speed.  Work is replicates on
  a study (expected skipped cells count none) and
  ``SweepReport.n_checked`` summed over the three sweeps on ``verify``;
  unscaled it is printed as ``reps_per_s`` or ``checks_per_s``.
* ``peak_rss_mb``: ``ru_maxrss`` of the measuring process.

Every operation's output is checked (``workloads.py``); ``fail_ratio``
(failed / attempted operations) is printed with its base and goes into
the ``attempted`` and ``failed`` keys of the result.

``--trace 1`` reports the per-layer metrics (``layers.py``): an untraced
run that also takes the isolated micro-timings (``micro.py``), then a
traced run whose spans give each layer's times and counts.  Tracing
overhead is the traced minus the untraced median pass wall time, both
at reference speed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``src/fixedb`` in the current directory the benchmark prints no result
and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
REFERENCE_JSON = os.path.join(HERE, "reference.json")
END_TO_END = (("setup_s", "s"), ("items_per_ref_s", "1/s"), ("peak_rss_mb", "MiB"))
# one thread per BLAS pool, so a workload uses only the threads it asks for
_CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts workers one at a time and waits for each to end."""

    def __init__(self, workload: str, seed: int, seconds: float, tiny: bool, out_dir: str):
        self.base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--out-dir", out_dir] + (["--tiny"] if tiny else [])
        self.timeout = 120 + 3 * seconds
        self.env = {**os.environ, **_CHILD_ENV}

    def spawn(self, mode: str, micro: bool = False) -> dict:
        argv = self.base + ["--mode", mode] + (["--micro"] if micro else [])
        t0 = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=self.timeout,
                              env=self.env)
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - t0
        return result


def _speed(run: dict, workload: str) -> list:
    """Per pass, the mean of the kernel times just before and just after
    it over the reference kernel time."""
    cals = run["cals"]
    return [(a + b) / 2 / calibrate.REFERENCE_S[workload] for a, b in zip(cals, cals[1:])]


def _rates(run: dict, workload: str) -> tuple:
    """Median unscaled and scaled work per second over the timed passes."""
    raw = [i / w for i, w in zip(run["items"], run["walls"])]
    scaled = [r * f for r, f in zip(raw, _speed(run, workload))]
    return statistics.median(raw), statistics.median(scaled)


def _scaled_wall(run: dict, workload: str) -> float:
    """Median pass wall time at reference speed."""
    return statistics.median(w / f for w, f in zip(run["walls"], _speed(run, workload)))


def measure(runner: Runner, workload: str, tiny: bool) -> tuple:
    """End-to-end metrics: (metrics, attempted, failed, reasons).

    Set-up is timed in interpreters that stop after it, with the set-up
    kernel before the first and after each one; a set-up is scaled by
    the mean of the kernel times around it."""
    raw_setups, setups = [], []
    before = calibrate.setup_kernel(runner.env)
    for _ in range(1 if tiny else SETUP_SAMPLES):
        setup = runner.spawn("setup")["setup_s"]
        after = calibrate.setup_kernel(runner.env)
        raw_setups.append(setup)
        setups.append(setup * 2 * calibrate.REFERENCE_S["setup"] / (before + after))
        before = after
    run = runner.spawn("measure")
    raw_rate, rate = _rates(run, workload)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_ref_s": rate,
        "peak_rss_mb": run["rss_mb"],
    }
    alias = "checks_per_s" if workload == "verify" else "reps_per_s"
    print(f"{workload}: {len(run['walls'])} timed passes, {len(setups)} set-ups; "
          f"output sha256 {run['digest']}")
    print(f"{workload}: unscaled {alias} = {raw_rate:.6g} 1/s, unscaled setup_s = "
          f"{statistics.median(raw_setups):.6g} s")
    return metrics, run["attempted"], run["failed"], run["reasons"]


def trace(runner: Runner, workload: str) -> tuple:
    """Per-layer metrics: (metrics, attempted, failed, reasons, notes)."""
    plain = runner.spawn("measure", micro=True)
    traced = runner.spawn("trace")
    metrics, notes = traced["layers"], traced["notes"]
    base = _scaled_wall(plain, workload)
    overhead = _scaled_wall(traced, workload) - base
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / base
    notes["trace.overhead_s"] = (f"median pass at reference speed {base:.4f} s untraced "
                                 f"({len(plain['walls'])} passes), {base + overhead:.4f} s traced "
                                 f"({len(traced['walls'])} passes)")
    for name, (p50, tail, label, n) in plain["micro"].items():
        metrics[f"micro.{name}.p50_us"] = p50
        metrics[f"micro.{name}.tail_us"] = tail
        metrics[f"micro.{name}.samples"] = n
        notes[f"micro.{name}.tail_us"] = f"{label} of {n} samples"
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return metrics, attempted, failed, plain["reasons"] + traced["reasons"], notes


def run_one(workload: str, seed: int, seconds: float, trace_on: bool, tiny: bool,
            out_root: str) -> dict:
    out_dir = os.path.join(out_root, f"{workload}-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    runner = Runner(workload, seed, seconds, tiny, out_dir)
    if trace_on:
        metrics, attempted, failed, reasons, notes = trace(runner, workload)
        specs = [(n, u) for n, u, _ in layers.metric_specs()]
    else:
        (metrics, attempted, failed, reasons), notes = measure(runner, workload, tiny), {}
        specs = list(END_TO_END)
    for name, unit in specs:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload} seed={seed} {name} = {metrics[name]:.6g} {unit}{note}")
    print(f"{workload} seed={seed} fail_ratio = {failed}/{attempted} = "
          f"{failed / attempted:.4g} (operations: study cells or verify sweeps)")
    for reason in reasons:
        print(f"{workload} seed={seed} failure: {reason}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in specs},
        "notes": notes,
    }


def machine() -> str:
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"NumPy {metadata.version('numpy')}, SciPy {metadata.version('scipy')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed; 'all' runs the recorded seeds when omitted")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed is None and args.workload != "all":
        ap.error("--seed is required for a single workload")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fixedb", "__init__.py")):
        print(f"no fixedb source under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_root = os.path.join(root, ".bench_out", str(os.getpid()))
    print(f"machine: {machine()}")
    try:
        if args.workload != "all":
            res = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny,
                          out_root)
            del res["notes"]
            print(json.dumps(res))
            return 0
        with open(REFERENCE_JSON, encoding="utf-8") as fh:
            seeds = list(json.load(fh)["seeds"].values()) if args.seed is None else [args.seed]
        results = {}
        for seed in seeds:
            for wl in WORKLOADS:
                results[f"{wl}/{seed}"] = run_one(wl, seed, args.seconds, bool(args.trace),
                                                  args.tiny, out_root)
        if args.trace:
            holds = all(r["metrics"]["layers.separation_holds"]["value"] == 1.0
                        for r in results.values())
            print(f"layer separation holds on every workload: {'yes' if holds else 'no'}")
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "runs": {k: {"failed": r["failed"], "attempted": r["attempted"],
                         "metrics": r["metrics"]} for k, r in results.items()},
        }))
        return 0
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_root))
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
