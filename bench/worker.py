"""Child process of the benchmark: the in-process workloads, and one traced
CLI call.

    python3 bench/worker.py cli OUT.json -- ARGV...
        runs spinorlab.cli.main(ARGV) with the tracer installed, writes the
        per-layer totals to OUT.json and exits with the CLI's exit code.

    python3 bench/worker.py inproc WORKLOAD SEED SECONDS TRACE WORKDIR OUT.json
        runs passes of verify-acceptance or scalar-api for SECONDS (with
        TRACE 1: half untraced, then half traced) and writes the pass times,
        the median and 90th percentile operation latency of each window of
        operations, failures and per-layer totals to OUT.json.

The parent sets PYTHONPATH to the checkout's src/ and the thread variables.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

import corpus
from stats import percentile
from tracer import Tracer

# Trial counts pinned by tests/test_acceptance.py, suite by suite.
ACCEPTANCE = (
    ("clifford", 1000),
    ("fpk", 10000),
    ("props", 10000),
    ("rim", 10000),
    ("plane", 1000),
    ("homotopy", 1000),
    ("mdo", 1000),
)
SCALAR_OPS = 20000
MIN_PASSES = 2


def _suite_ok(path: Path) -> bool:
    report = json.loads(path.read_text())
    suites = report.get("suites", [])
    return bool(report.get("pass")) and len(suites) == 1 and all(
        check["pass"] for s in suites for check in s["checks"]
    )


class Verify:
    """One operation is one suite at its acceptance trial count, through
    ``spinorlab.cli.main`` in this process."""

    window = len(ACCEPTANCE)  # latency percentiles are taken per pass
    names = tuple(suite for suite, _ in ACCEPTANCE)  # each suite's time is kept

    def __init__(self, seed: int, workdir: Path) -> None:
        from spinorlab import cli

        self.cli = cli
        self.seed = corpus.suite_seed(seed)
        self.workdir = workdir

    def run_pass(self, log) -> tuple[list[float], int]:
        times, failed = [], 0
        for suite, trials in ACCEPTANCE:
            out = self.workdir / f"verify-{suite}.json"
            out.unlink(missing_ok=True)
            argv = ["verify", "--suite", suite, "--trials", str(trials), "--seed", str(self.seed), "--output", str(out)]
            t0 = perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:
                rc = None
                log(traceback.format_exc())
            times.append(perf_counter() - t0)
            if rc != 0 or not out.exists() or not _suite_ok(out):
                failed += 1
                log(f"suite {suite}: exit {rc}")
        return times, failed


class ScalarApi:
    """One operation is one row through the scalar API: covariants, class,
    constraint residuals, then plane coordinates and the coefficient class."""

    # Latency percentiles are taken over windows of consecutive operations
    # (a quarter second or so), leaving 200 samples beyond the 90th; the
    # harness reports the median over windows, so a burst of contention
    # from outside spoils a few windows, not the figure.
    window = 2000
    names = None

    def __init__(self, seed: int) -> None:
        import numpy as np
        from spinorlab import bilinear, lounesto, plane

        self.np = np
        self.bilinear, self.lounesto, self.plane = bilinear, lounesto, plane
        self.data = corpus.scalar_corpus(seed, SCALAR_OPS)
        self.A, self.B = corpus.base_scalars(self.data.base)
        self.want = [corpus.EXPECTED[k][0] for k in self.data.kinds]
        self.quartic = np.maximum(1.0, np.sum(np.abs(self.data.psis) ** 2, axis=1) ** 2)

    def run_pass(self, log) -> tuple[list[float], int]:
        bilinear, lounesto, plane = self.bilinear, self.lounesto, self.plane
        base, A, B = self.data.base, self.A, self.B
        times, failed = [], 0
        for i, psi in enumerate(self.data.psis):
            t0 = perf_counter()
            try:
                b = bilinear.compute(psi)
                cls = lounesto.classify(b)
                res = bilinear.fpk_residuals(b)
                coords = plane.decompose(psi, base)
                cls2 = lounesto.classify_by_coefficients(coords.r1, coords.r2, A, B)
            except Exception as exc:
                times.append(perf_counter() - t0)
                failed += 1
                log(f"row {i}: {type(exc).__name__}: {exc}")
                continue
            times.append(perf_counter() - t0)
            ok = (
                cls == cls2 == self.want[i]
                and float(self.np.max(res)) <= corpus.FPK_TOL * self.quartic[i]
                and abs(coords.r1 - self.data.r1[i]) <= corpus.DECOMPOSE_TOL * max(1.0, abs(self.data.r1[i]))
                and abs(coords.r2 - self.data.r2[i]) <= corpus.DECOMPOSE_TOL * max(1.0, abs(self.data.r2[i]))
            )
            if not ok:
                failed += 1
                log(f"row {i} ({self.data.kinds[i]}): class {cls}/{cls2}, want {self.want[i]}")
        return times, failed


def run_inproc(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    messages: list[str] = []

    def log(msg: str) -> None:
        if len(messages) < 20:
            messages.append(msg)

    job = Verify(seed, workdir) if workload == "verify-acceptance" else ScalarApi(seed)
    phases = [(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]
    passes, attempted, failed = [], 0, 0
    tracer = Tracer()
    for traced, budget in phases:
        if traced:
            tracer.install()
        start = perf_counter()
        done = 0
        while done < MIN_PASSES or perf_counter() - start < budget:
            tracer.reset()
            t0 = perf_counter()
            times, bad = job.run_pass(log)
            wall = perf_counter() - t0
            entry = {"wall_s": wall, "traced": traced, "ops": len(times)}
            if traced:
                entry["layers"] = tracer.aggregate()
            else:
                windows = [times[k : k + job.window] for k in range(0, len(times), job.window)]
                entry["op_p50_s"] = [percentile(w, 50) for w in windows]
                entry["op_p90_s"] = [percentile(w, 90) for w in windows]
                if job.names:
                    entry["op_s"] = dict(zip(job.names, times))
            passes.append(entry)
            attempted += len(times)
            failed += bad
            done += 1
        if traced:
            tracer.uninstall()
    return {"passes": passes, "attempted": attempted, "failed": failed, "messages": messages}


def run_traced_cli(out: Path, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from spinorlab import cli

    rc = cli.main(argv)
    out.write_text(json.dumps({"layers": tracer.aggregate()}))
    return rc


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"] and len(argv) >= 3 and argv[2] == "--":
        return run_traced_cli(Path(argv[1]), argv[3:])
    if argv[:1] == ["inproc"] and len(argv) == 7:
        workload, seed, seconds, trace, workdir, out = argv[1:]
        result = run_inproc(workload, int(seed), float(seconds), trace == "1", Path(workdir))
        Path(out).write_text(json.dumps(result))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
