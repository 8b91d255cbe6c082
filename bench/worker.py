"""One workload in one fresh interpreter; started by ``run.py``.

    python3 bench/worker.py --workload NAME --seed N --seconds S \\
        --mode setup|measure|trace [--micro] [--tiny] --out-dir DIR

Set-up is the import of ``fixedb`` from ``src/`` of the current
directory plus the workload's untimed warm-up call; the moment it ends
is reported as ``time.monotonic()`` so that the parent can subtract its
own clock reading taken before the start.  ``setup`` mode stops there.
``measure`` repeats passes for ``--seconds``, with the workload's
calibration kernel (``calibrate.py``) between passes, runs the
cross-check pass and checks every pass's output; ``trace`` does the
same with every layer's public names rebound to span-recording
wrappers.  The result is one JSON object on the last line of standard
output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _import_fixedb(root: str) -> None:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import fixedb

    where = os.path.dirname(os.path.abspath(fixedb.__file__))
    if where != os.path.join(os.path.abspath(src), "fixedb"):
        raise SystemExit(f"fixedb imported from {where}, not from {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--micro", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    _import_fixedb(os.getcwd())
    import calibrate
    from workloads import Tally, Workload, check_pass, digest

    wl = Workload(args.workload, args.seed, args.tiny, args.out_dir)
    wl.warm_up()
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    recorder = span = None
    if args.mode == "trace":
        import tracer

        recorder = tracer.Tracer()
        tracer.install(recorder)
        span = recorder.span

    # the workload's calibration kernel runs before the first pass and after each one
    passes, walls, cals = [], [], [calibrate.kernel(wl.name)]
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        p = wl.run_pass(span=span)
        walls.append(time.perf_counter() - t0)
        passes.append(p)
        cals.append(calibrate.kernel(wl.name))

    if recorder is not None:
        recorder.uninstall()
        import layers

        sp = recorder.spans()
        metrics, notes = layers.from_spans(recorder.names, sp, tracer.self_times(sp), len(passes),
                                           wl.threads, wl.name)
        result.update(layers=metrics, notes=notes)

    cross = wl.run_pass(cross=True) if wl.name != "verify" else None
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"),
              encoding="utf-8") as fh:
        reference = json.load(fh)
    expected = wl.expected(reference, passes[0], cross)
    tally = Tally()
    for p in passes + ([cross] if cross else []):
        check_pass(p, expected, tally)

    result.update(
        digest=digest(passes[0].output),
        walls=walls,
        cals=cals,
        items=[p.items for p in passes],
        attempted=tally.attempted,
        failed=tally.failed,
        reasons=tally.reasons,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.micro:
        import micro

        result["micro"] = micro.run(args.seed, 100 if args.tiny else micro.SAMPLES)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
