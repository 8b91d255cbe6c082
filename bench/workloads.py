"""The four benchmark workloads, their passes and their output checks.

A workload is a fixed list of operations run through fixedb's public
entry points.  One pass runs every operation once; the timed part of a
run repeats passes.  A study's inputs depend only on the seed, the
master seed of every study config.  ``verify`` is ``fixedb verify`` at
its defaults whatever the seed: at some other ``--seed`` values its
bracket suite raises ``InvalidInput`` (an open defect of the package,
reproduced by ``fixedb verify --seed 2``).  Every pass of a run must
emit the same bytes.

An operation is one study cell (one (setting, method, B) row of a CSV)
or one verify sweep.  It fails if its call raises, if it is skipped when
no skip is expected (the modified and randomized cells at B=5 are
expected ``BudgetTooSmall`` skips), or if the pass's output differs from
the reference (see :meth:`Workload.expected`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass, field

# (setting, procedure, extra config); every study row below is one cell
_BOOT_S1 = {"procedure": "bootstrap", "setting": 1, "m": 100, "alpha": [0.1],
            "B": [5, 19, 59, 199], "methods": ["vanilla", "modified", "randomized"]}
_BOOT_S2 = {"setting": 2, "m": 400, "d": 20, "alpha": [0.1], "B": [19], "methods": ["modified"]}
_BOOT_S3 = {"procedure": "subsample", "setting": 3, "m": 100, "alpha": [0.1], "B": [19],
            "methods": ["modified"]}
_SGD = {"procedure": "sgd", "setting": 4, "n": 5000, "burn_in": 1000, "alpha": [0.1],
        "B": [19], "methods": ["modified"]}
_RAND = {"procedure": "randomization", "m": 50, "alpha": [0.1], "B": [19]}
_PERM = {"procedure": "permutation", "m": 30, "alpha": [0.1], "B": [99]}

# study workload -> (threads, cross-check threads, [(config, reps, tiny reps)])
STUDIES = {
    "boot-study": (1, 2, [
        (_BOOT_S1, 8, 2),
        ({**_BOOT_S2, "procedure": "bootstrap"}, 8, 2),
        ({**_BOOT_S2, "procedure": "subsample"}, 8, 2),
        (_BOOT_S3, 8, 2),
    ]),
    "sgd-study": (1, 2, [(_SGD, 4, 1)]),
    # the criterion-10 property: threads=2 must emit the threads=1 bytes
    "tests-study-2t": (2, 1, [(_RAND, 100, 4), (_PERM, 30, 2)]),
}
EXPECTED_SKIPS = {("bootstrap_modified", 5), ("bootstrap_randomized", 5)}
VERIFY_TINY_INSTANCES = 3
WORKLOADS = ("boot-study", "sgd-study", "tests-study-2t", "verify")


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def add(self, n: int, failed: int = 0, reason: str = "") -> None:
        self.attempted += n
        self.failed += failed
        if failed and len(self.reasons) < 5:
            self.reasons.append(reason)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class PassResult:
    """What one pass produced: its output, its work and its operations."""

    output: bytes
    items: int
    ops: int
    errors: list


def _threads(n: int) -> int:
    return max(1, min(n, os.cpu_count() or 1))


class Workload:
    """One workload bound to a seed, a size and a scratch directory."""

    def __init__(self, name: str, seed: int, tiny: bool, out_dir: str) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.out_dir = out_dir
        self.threads = self.cross_threads = 1
        if name != "verify":
            threads, cross, cells = STUDIES[name]
            self.threads, self.cross_threads = _threads(threads), _threads(cross)
            self.configs = [{**cfg, "reps": tiny_reps if tiny else reps, "seed": seed}
                            for cfg, reps, tiny_reps in cells]

    def warm_up(self) -> None:
        """The untimed call that ends set-up: the same code paths at one
        replicate per cell, or the three oracle sweeps at small sizes."""
        if self.name == "verify":
            from fixedb import oracle

            oracle.bracket_suite(n_instances=3)
            oracle.ehm_hoeffding_sweep(b_values=(1, 2))
            oracle.conformal_grid_sweep(m_hi=50)
            return
        from fixedb import harness

        for cfg in self.configs:
            harness.run_experiment({**cfg, "reps": 1, "threads": self.threads})

    def run_pass(self, cross: bool = False, span=None) -> PassResult:
        """Run every operation once; ``cross`` swaps in the cross-check
        thread count.  ``span(name, fn, *args)`` wraps the entry calls
        in the traced run."""
        if span is None:
            span = _call
        if self.name == "verify":
            return self._verify_pass(span)
        from fixedb import harness

        threads = self.cross_threads if cross else self.threads
        out, items, ops, errors = [], 0, 0, []
        for i, cfg in enumerate(self.configs):
            n_cells = len(cfg["B"]) * len(cfg.get("methods", [None]))
            ops += n_cells
            try:
                table = span("harness.run_experiment", harness.run_experiment,
                             {**cfg, "threads": threads})
                path = os.path.join(self.out_dir, f"{self.name}-{i}.csv")
                span("harness.emit", harness.emit, table, "csv", path)
            except Exception as exc:  # any raise fails every cell of the call
                errors.append((n_cells, f"{cfg['procedure']}: {type(exc).__name__}: {exc}"))
                continue
            with open(path, "rb") as fh:
                out.append(fh.read())
            items += sum(row.reps for row in table.rows)
            skipped = {(s.method, s.B) for s in table.skipped}
            unexpected = skipped - EXPECTED_SKIPS
            if unexpected:
                errors.append((len(unexpected), f"unexpected skips {sorted(unexpected)}"))
        return PassResult(b"".join(out), items, ops, errors)

    def _verify_pass(self, span) -> PassResult:
        from fixedb import cli

        argv = ["verify", "--instances", str(VERIFY_TINY_INSTANCES)] if self.tiny else ["verify"]
        buf = io.StringIO()
        errors = []
        try:
            with contextlib.redirect_stdout(buf):
                code = span("cli.main", cli.main, argv)
        except Exception as exc:
            return PassResult(b"", 0, 3, [(3, f"verify: {type(exc).__name__}: {exc}")])
        lines = buf.getvalue().splitlines()
        passes = [ln for ln in lines if ln.startswith("PASS ")]
        if code != 0 or len(passes) != 3:
            errors.append((max(1, 3 - len(passes)), f"verify exit {code}: {lines[:4]}"))
        items = sum(int(ln.rsplit("(", 1)[1].split()[0]) for ln in passes)
        return PassResult(_lines(lines), items, 3, errors)

    def expected(self, reference: dict, first: PassResult, cross) -> str:
        """The digest every pass must emit.

        A study at a recorded seed has a golden digest; at any other
        seed it must emit what its cross-check pass emitted.  Verify
        runs at its default seed and instances whatever the workload
        seed, so it must print its three recorded PASS lines; at the
        tiny size the bracket line (fewer instances) is taken from the
        first pass, whose status the pass check already counts.
        """
        golden = reference["golden"][self.name]
        if self.name == "verify":
            lines = golden
            if self.tiny:
                lines = first.output.decode().splitlines()[:1] + lines[1:]
            return digest(_lines(lines))
        if not self.tiny and str(self.seed) in golden:
            return golden[str(self.seed)]
        return digest(cross.output)


def _lines(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def _call(_name, fn, *args):
    return fn(*args)


def digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()


def check_pass(result: PassResult, expected: str, tally: Tally) -> None:
    """Count a pass's operations in ``tally``; all of them fail when the
    output digest is not ``expected``."""
    failed = sum(n for n, _ in result.errors)
    reason = result.errors[0][1] if result.errors else ""
    got = digest(result.output)
    if got != expected:
        failed, reason = result.ops, f"output digest {got[:16]} != expected {expected[:16]}"
    tally.add(result.ops, min(failed, result.ops), reason)
