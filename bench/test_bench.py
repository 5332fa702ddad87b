"""Tests of the benchmark's own code: seeded corpora, the correctness checks,
self-time arithmetic and where the tracer patches.

Run from the repository root: PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _files(tmp_path: Path, name: str, data: corpus.Corpus) -> bytes:
    csv, base = corpus.write_corpus(tmp_path / name, data)
    return csv.read_bytes() + (base.read_bytes() if base else b"")


@pytest.mark.parametrize("make", [corpus.classify_corpus, corpus.plane_corpus])
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, make):
    first = _files(tmp_path, "a", make(5, 400))
    again = _files(tmp_path, "b", make(5, 400))
    other = _files(tmp_path, "c", make(6, 400))
    assert first == again
    assert first != other


def test_row_shares_follow_the_mix():
    data = corpus.plane_corpus(3, 1000)
    assert data.shares() == pytest.approx(corpus.PLANE_MIX)


def test_streams_stay_clear_of_the_suite_streams():
    from spinorlab import rng

    assert not set(corpus.STREAMS.values()) & set(rng.STREAMS.values())
    with pytest.raises(ValueError):
        corpus.stream(-1, "classify-mixed")
    with pytest.raises(ValueError):
        corpus.stream(corpus.SEED_LIMIT, "classify-mixed")


def _span(name, parent, start, end):
    return tracer.Span(name, name.split(".")[0], parent, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("bilinear.compute", 0, 1.0, 4.0),
        _span("lounesto.classify", 0, 3.0, 6.0),  # overlaps its sibling
        _span("clifford.build", 1, 2.0, 3.0),
        _span("io.write_report", 0, 9.0, 12.0),  # runs past its parent
    ]
    assert tracer.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])
    totals = tracer.aggregate(spans)
    assert totals["cli.self_s"] == pytest.approx(4.0)
    assert totals["bilinear.calls"] == 1
    assert totals["plane.calls"] == 0 and totals["plane.self_s"] == 0.0


def test_tracer_patches_every_binding_and_restores_them():
    import spinorlab.homotopy as homotopy
    import spinorlab.mdo as mdo
    import spinorlab.plane as plane
    import spinorlab.suites as suites
    from spinorlab import cli

    originals = (plane.decompose, homotopy.decompose, mdo.compute, cli.run_suites, suites.SUITES["fpk"])
    t = tracer.Tracer()
    t.install()
    try:
        assert homotopy.decompose is plane.decompose is not originals[0]
        assert suites.SUITES["fpk"] is suites.suite_fpk is not originals[4]
        cli.run_suites(["clifford"], suites.SuiteConfig(trials=3))
        totals = t.aggregate()
    finally:
        t.uninstall()
    assert (plane.decompose, homotopy.decompose, mdo.compute, cli.run_suites, suites.SUITES["fpk"]) == originals
    assert totals["suites.calls"] == 1 and totals["suites.clifford.calls"] == 1
    assert totals["suites.clifford.self_s"] > 0 and totals["clifford.calls"] > 0
    layer_map = json.loads((BENCH / "layers.json").read_text())
    assert set(layer_map["metrics"]) - {"trace.overhead_s"} <= set(totals)
    assert set(layer_map["self_times"]) <= set(totals)


def _decompose(tmp_path: Path, data: corpus.Corpus, base_of: corpus.Corpus) -> tuple[float, int]:
    """Failed share of one decompose pass, and the rows the checks reject."""
    csv, _ = corpus.write_corpus(tmp_path, data)
    base = tmp_path / "base-used.json"
    corpus.write_spinor_json(base, base_of.base)
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SPINORLAB_TOL", None)
    argv = [sys.executable, "-m", "spinorlab.cli", "decompose", "--input", str(csv), "--base", str(base), "--output", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    checker = run.CorpusChecker(data, corpus.check_decompose)
    rejected = len(corpus.check_decompose(json.loads(out.read_text()), data))
    return checker.wrong_rows(proc.returncode, out) / len(data.kinds), rejected


def test_wrong_base_fails_rows_and_right_base_fails_none(tmp_path):
    data = corpus.plane_corpus(4, 300)
    assert _decompose(tmp_path / "right", data, data) == (0.0, 0)
    # another seed's base: rows leave the plane, nothing is flagged, exit 0
    failed, rejected = _decompose(tmp_path / "wrong", data, corpus.plane_corpus(5, 10))
    assert failed == 1.0 and rejected > 0


def test_layer_map_covers_the_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapping = json.loads((BENCH / "layers.json").read_text())["metrics"]
    assert [m["name"] for m in spec["per_layer"]] == list(mapping)
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    every = {**mapping, **json.loads((BENCH / "layers.json").read_text())["self_times"]}
    for entry in every.values():
        assert set(entry["moves"]) <= end_to_end
        assert {w for ws in entry["moves"].values() for w in ws} | set(entry["flat_on"]) <= workloads


def test_launcher_reports_the_commands_memory_not_its_spawners(tmp_path):
    import numpy as np

    ballast = np.ones(100 * 2**20 // 8)  # 100 MB held by this process
    argv = [sys.executable, str(BENCH / "launch.py"), "--", sys.executable, "-c", "pass"]
    got = json.loads(subprocess.run(argv, capture_output=True, check=True, timeout=60).stdout)
    assert got["code"] == 0 and 0 < got["wall_s"] < 60
    assert got["rss_mb"] < 50 < ballast.nbytes / 2**20
