"""spinorlab benchmark: four closed-loop workloads, each one caller in one
process, measured from outside through spinorlab's CLI and public functions.

One run (the last line of output is the JSON result):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--save FILE]

Every workload, seeds N .. N+K-1 untraced plus one traced run each, then a
table of every metric by workload, name and unit:

    python3 bench/run.py --workload all --runs K [--seed N] [--seconds S] [--save FILE]

Ratio of each (workload, metric) pair of a change against its parent, from
two files written with --save:

    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

Workloads:
  classify-mixed     spinorlab classify on a 10^4-row CSV corpus of generic
                     rows over six decades plus constructed boundary, type-5,
                     type-6, near-degenerate and tiny-norm rows
  decompose-plane    spinorlab decompose on a 10^4-row CSV corpus against one
                     base: generic, one-zero-coordinate, type-2/3 surface,
                     near-surface and 10% off-plane rows
  verify-acceptance  the seven verify suites at the trial counts
                     tests/test_acceptance.py pins, through cli.main
  scalar-api         2*10^4 rows, each through bilinear.compute,
                     lounesto.classify, bilinear.fpk_residuals,
                     plane.decompose and lounesto.classify_by_coefficients
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import monotonic

import corpus
from stats import quartiles, spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
LAYER_MAP = BENCH / "layers.json"
WORK = BENCH / ".work"

WORKLOADS = ("classify-mixed", "decompose-plane", "verify-acceptance", "scalar-api")
CORPUS_ROWS = 10_000
CORPUS_EXIT = 1  # the corpora hold near-degenerate rows, so the CLI exits "flagged"
SETUP_SPAWNS = 7
MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # children still running this long after the start are killed
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# provenance


def _git_head() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinorlab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cache_bytes(level: int) -> int | None:
    try:
        out = subprocess.run(
            ["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
        return int(out)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def machine(env: dict[str, str], seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {k: env.get(k) for k in THREAD_VARS},
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "git_head": _git_head(),
        "src_sha256": _src_sha256(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    wall_s: float
    code: int
    rss_mb: float


class Context:
    """Private work directory, environment and deadline of one run."""

    def __init__(self, workload: str, seed: int) -> None:
        # A fixed directory, named by relative path on the command line, keeps
        # the paths a report records, and so its bytes, the same across runs.
        self.dir = WORK / f"{workload}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.deadline = monotonic() + RUN_LIMIT_S
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env.pop("SPINORLAB_TOL", None)
        for var in THREAD_VARS:
            env[var] = "1"
        self.env = env

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def stderr_tail(self) -> str:
        path = self.dir / "stderr.txt"
        return path.read_text(errors="replace")[-2000:] if path.exists() else ""

    def spawn(self, argv: list[str]) -> Child:
        """Run a command to its exit through launch.py, which times it from
        spawn to exit and reads its own peak resident memory.  The launcher
        and the command share a new session, killed whole at the deadline."""
        launcher = [sys.executable, str(BENCH / "launch.py"), "--", *argv]
        with open(self.dir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                launcher, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=err, start_new_session=True,
            )
            try:
                out, _ = proc.communicate(timeout=max(1.0, self.deadline - monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return Child(float("nan"), -signal.SIGKILL, float("nan"))
        if proc.returncode != 0:
            raise BenchError(f"launcher failed (exit {proc.returncode}):\n{self.stderr_tail()}")
        got = json.loads(out)
        return Child(got["wall_s"], got["code"], got["rss_mb"])


def measure_setup(ctx: Context) -> list[float]:
    """Fresh interpreters importing spinorlab.cli; the first one, which may
    compile bytecode in a fresh checkout, is not counted."""
    argv = [sys.executable, "-c", "import spinorlab.cli"]
    walls = []
    for i in range(SETUP_SPAWNS + 1):
        child = ctx.spawn(argv)
        if child.code != 0:
            raise BenchError(f"import spinorlab.cli failed (exit {child.code}):\n{ctx.stderr_tail()}")
        if i:
            walls.append(child.wall_s)
    return walls


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Passes:
    """What a workload measured: untraced pass times, the median and 90th
    percentile operation latency of each window of operations of the
    untraced passes, peak memory, per-layer totals of traced passes, and the
    operation counts."""

    walls: list[float]
    op_p50_s: list[float]
    op_p90_s: list[float]
    ops: int
    rss_mb: list[float]
    traced_walls: list[float]
    layers: list[dict]
    attempted: int
    failed: int
    info: dict


def _phases(seconds: float, trace: bool):
    return [(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


class CorpusChecker:
    """Wrong rows of one corpus pass: every row when the exit code is not the
    expected one or no report was written, else the rows the generator's
    checks reject.  A report already seen (same sha256) keeps its verdict."""

    def __init__(self, data, check) -> None:
        self.data, self.check = data, check
        self.verdicts: dict[str, int] = {}
        self.info: dict = {}

    def wrong_rows(self, code: int, report: Path) -> int:
        if code != CORPUS_EXIT or not report.exists():
            return len(self.data.kinds)
        blob = report.read_bytes()
        sha = hashlib.sha256(blob).hexdigest()
        if sha not in self.verdicts:
            parsed = json.loads(blob)
            self.verdicts[sha] = len(self.check(parsed, self.data))
            self.info.setdefault("report_sha256", sha)
            self.info.setdefault("report_bytes", len(blob))
            self.info.setdefault("observed", corpus.histogram(parsed))
        return self.verdicts[sha]


def run_corpus(ctx: Context, workload: str, seed: int, seconds: float, trace: bool) -> Passes:
    if workload == "classify-mixed":
        data, check, command = corpus.classify_corpus(seed, CORPUS_ROWS), corpus.check_classify, "classify"
    else:
        data, check, command = corpus.plane_corpus(seed, CORPUS_ROWS), corpus.check_decompose, "decompose"
    csv, base = corpus.write_corpus(ctx.dir / "corpus", data)
    report = ctx.dir / "report.json"
    argv = [command, "--input", _rel(csv)] + (["--base", _rel(base)] if base else []) + ["--output", _rel(report)]
    layers_out = ctx.dir / "layers.json"
    commands = {
        False: [sys.executable, "-m", "spinorlab.cli", *argv],
        True: [sys.executable, str(BENCH / "worker.py"), "cli", str(layers_out), "--", *argv],
    }
    n = len(data.kinds)
    checker = CorpusChecker(data, check)
    info = {"rows": n, "row_shares": data.shares(), "expected_exit": CORPUS_EXIT}
    out = Passes(
        walls=[], op_p50_s=[], op_p90_s=[], ops=0, rss_mb=[], traced_walls=[], layers=[], attempted=0, failed=0, info=info
    )
    for traced, budget in _phases(seconds, trace):
        start = monotonic()
        done = 0
        while done < (2 if trace else MIN_PASSES) or monotonic() - start < budget:
            report.unlink(missing_ok=True)
            child = ctx.spawn(commands[traced])
            wrong = checker.wrong_rows(child.code, report)
            if wrong:
                info.setdefault("errors", []).append(f"exit {child.code}, {wrong} wrong rows: {ctx.stderr_tail()[-300:]}")
            out.attempted += n
            out.failed += wrong
            if traced:
                out.traced_walls.append(child.wall_s)
                out.layers.append(json.loads(layers_out.read_text())["layers"] if layers_out.exists() else {})
            else:
                # one CLI call is the pass's only operation
                out.walls.append(child.wall_s)
                out.op_p50_s.append(child.wall_s)
                out.op_p90_s.append(child.wall_s)
                out.ops += 1
                out.rss_mb.append(child.rss_mb)
            done += 1
            if monotonic() > ctx.deadline:
                break
    info.update(checker.info, distinct_reports=len(checker.verdicts))
    return out


def run_inproc(ctx: Context, workload: str, seed: int, seconds: float, trace: bool) -> Passes:
    result_path = ctx.dir / "result.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "inproc", workload, str(seed), repr(seconds)]
    argv += ["1" if trace else "0", str(ctx.dir), str(result_path)]
    child = ctx.spawn(argv)
    if child.code != 0 or not result_path.exists():
        raise BenchError(f"{workload} worker failed (exit {child.code}):\n{ctx.stderr_tail()}")
    result = json.loads(result_path.read_text())
    info = {"messages": result["messages"]} if result["messages"] else {}
    if workload == "verify-acceptance":
        info["suite_seed"] = corpus.suite_seed(seed)
    plain = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    if plain and "op_s" in plain[0]:
        info["op_median_s"] = {k: statistics.median(p["op_s"][k] for p in plain) for k in plain[0]["op_s"]}
    return Passes(
        walls=[p["wall_s"] for p in plain],
        op_p50_s=[x for p in plain for x in p["op_p50_s"]],
        op_p90_s=[x for p in plain for x in p["op_p90_s"]],
        ops=sum(p["ops"] for p in plain),
        rss_mb=[child.rss_mb],
        traced_walls=[p["wall_s"] for p in traced],
        layers=[p["layers"] for p in traced],
        attempted=result["attempted"],
        failed=result["failed"],
        info=info,
    )


# ---------------------------------------------------------------------------
# one run


def load_spec() -> dict:
    if not SPEC.is_file():
        raise BenchError(f"missing {SPEC.name} at the checkout root")
    return json.loads(SPEC.read_text())


def _metric(value: float, unit: str, samples: int, **extra) -> dict:
    return {"value": value, "unit": unit, "samples": samples, **extra}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "spinorlab" / "cli.py").is_file():
        raise BenchError("no spinorlab source under src/ in this checkout")
    if not 0 <= seed < corpus.SEED_LIMIT:
        raise BenchError(f"seed must be in [0, 2**112), got {seed}")
    spec = load_spec()
    ctx = Context(workload, seed)
    try:
        setup = [] if trace else measure_setup(ctx)
        runner = run_corpus if workload in ("classify-mixed", "decompose-plane") else run_inproc
        got = runner(ctx, workload, seed, seconds, trace)
        env = ctx.env
    finally:
        ctx.close()

    metrics: dict[str, dict] = {}
    if trace:
        plain, traced = statistics.median(got.walls), statistics.median(got.traced_walls)
        for entry in spec["per_layer"]:
            name = entry["name"]
            if name == "trace.overhead_s":
                value = traced - plain
            else:
                if any(name not in layers for layers in got.layers):
                    raise BenchError(f"per-layer metric {name} is not produced by the tracer")
                value = statistics.median(layers[name] for layers in got.layers)
            metrics[name] = _metric(value, entry["unit"], len(got.layers))
        self_times = json.loads(LAYER_MAP.read_text())["self_times"]
        got.info["self_s"] = {name: statistics.median(layers[name] for layers in got.layers) for name in self_times}
    else:
        q1, med, q3 = quartiles(got.walls)
        measured = {
            "setup_s": _metric(statistics.median(setup), "s", len(setup)),
            "wall_s": _metric(med, "s", len(got.walls), q1=q1, q3=q3),
            "peak_rss_mb": _metric(statistics.median(got.rss_mb), "MB", len(got.rss_mb)),
            # median over windows of each window's percentile
            "call_p50_us": _metric(statistics.median(got.op_p50_s) * 1e6, "us", got.ops),
            "call_p90_us": _metric(statistics.median(got.op_p90_s) * 1e6, "us", got.ops),
        }
        for entry in spec["end_to_end"]:
            if entry["name"] not in measured:
                raise BenchError(f"end-to-end metric {entry['name']} is not measured")
            metrics[entry["name"]] = measured[entry["name"]]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "correct": got.failed == 0,
        "attempted": got.attempted,
        "failed": got.failed,
        "failed_ops_frac": got.failed / got.attempted,
        "metrics": metrics,
        "info": got.info,
        "machine": machine(env, seed),
    }


def print_run(record: dict) -> None:
    w = record["workload"]
    print(f"# workload {w} seed {record['seed']} trace {record['trace']} seconds {record['seconds']}")
    print(f"# machine {json.dumps(record['machine'], sort_keys=True)}")
    for key, value in record["info"].items():
        print(f"# {key} {json.dumps(value, sort_keys=True)}")
    for name, m in record["metrics"].items():
        extra = "".join(f" {k}={m[k]:.6g}" for k in ("q1", "q3") if k in m)
        print(f"{w} {name} {m['value']:.6g} {m['unit']} n={m['samples']}{extra}")
    print(f"{w} failed_ops_frac {record['failed_ops_frac']:.6g} ({record['failed']}/{record['attempted']})")


def result_line(record: dict) -> str:
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()}
    return json.dumps(
        {"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}
    )


def save(path: str | None, record: dict) -> None:
    if path:
        with open(path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# all workloads, and compare


def run_all(runs: int, seed: int, seconds: float, save_path: str | None) -> None:
    spec = load_spec()
    records = []
    for workload in WORKLOADS:
        for trace, seeds in ((False, range(seed, seed + runs)), (True, [seed])):
            for s in seeds:
                record = run_one(workload, s, seconds, trace)
                print_run(record)
                save(save_path, record)
                records.append(record)
    print()
    print_table(records, spec)


def _bounds(spec: dict) -> dict[str, float]:
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def print_table(records: list[dict], spec: dict) -> None:
    bounds = _bounds(spec)
    print(f"{'workload':18} {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'unit':6} {'runs':>4} {'samples':>8} spread/bound")
    for workload in WORKLOADS:
        mine = [r for r in records if r["workload"] == workload]
        if not mine:
            continue
        for trace in (0, 1):
            group = [r for r in mine if r["trace"] == trace]
            for name in group[0]["metrics"] if group else ():
                values = [r["metrics"][name]["value"] for r in group]
                q1, med, q3 = quartiles(values)
                unit = group[0]["metrics"][name]["unit"]
                samples = statistics.median(r["metrics"][name]["samples"] for r in group)
                sp = spread(values)
                note = f"{sp:.4f}/{bounds[name]}" if name in bounds and sp is not None else ""
                print(f"{workload:18} {name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {unit:6} {len(values):4d} {samples:8g} {note}")
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        print(f"{workload:18} {'failed_ops_frac':28} {failed / attempted:12.6g} ({failed}/{attempted})")


def load_records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(parent_path: str, change_path: str) -> None:
    """Ratio change/parent of each (workload, metric) median.  A pair whose
    parent runs spread wider than the bound is unresolved unless every change
    run reads better than every parent run."""
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = _bounds(spec)
    parent, change = load_records(parent_path), load_records(change_path)
    print(f"{'workload':18} {'metric':28} {'parent':>12} {'change':>12} {'ratio':>8} {'spread':>7} {'bound':>6} verdict")
    for workload in WORKLOADS:
        for trace in (0, 1):
            old = [r for r in parent if r["workload"] == workload and r["trace"] == trace]
            new = [r for r in change if r["workload"] == workload and r["trace"] == trace]
            if not old or not new:
                continue
            for name in old[0]["metrics"]:
                a = [r["metrics"][name]["value"] for r in old]
                b = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
                if not b:
                    continue
                ma, mb = statistics.median(a), statistics.median(b)
                ratio = mb / ma if ma else float("nan")
                sign = 1 if better[name] == "lower" else -1
                worse_by = sign * (mb - ma) / abs(ma) if ma else float("nan")
                sp = spread(a)
                bound = bounds.get(name)
                all_better = all(sign * (y - x) < 0 for x in a for y in b)
                if bound is None:
                    verdict = "per-layer, no bound"
                elif sp is None or sp > bound:
                    verdict = "every run better" if all_better else "unresolved"
                elif worse_by > bound:
                    verdict = "regressed"
                else:
                    verdict = "within bound"
                sp_text = f"{sp:.3f}" if sp is not None else "-"
                bound_text = f"{bound}" if bound is not None else "-"
                print(f"{workload:18} {name:28} {ma:12.6g} {mb:12.6g} {ratio:8.4f} {sp_text:>7} {bound_text:>6} {verdict}")


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload with --workload all")
    parser.add_argument("--save", help="append each run's full record to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    try:
        if args.compare:
            compare(*args.compare)
        elif args.workload == "all":
            run_all(args.runs, args.seed, args.seconds, args.save)
        elif args.workload:
            record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            print_run(record)
            save(args.save, record)
            print(result_line(record))
        else:
            parser.error("give --workload or --compare")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
