"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; trial counts, tolerances and runtime ceilings are pinned here.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spinorlab
from spinorlab.suites import SuiteConfig, run_suites

SEED = 42


def _run(names, trials):
    t0 = time.perf_counter()
    report = run_suites(names, SuiteConfig(trials=trials, seed=SEED))
    return report, time.perf_counter() - t0


def _named(report, *check_names):
    rows = {c["name"]: c for s in report["suites"] for c in s["checks"]}
    return [rows[n] for n in check_names]


def _emit(number, label, ok, detail):
    print(f"ACCEPTANCE {number:2d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_clifford_suite():
    report, dt = _run(["clifford"], trials=1000)
    checks = report["suites"][0]["checks"]
    worst = max(c["value"] for c in checks)
    ok = report["pass"] and dt < 1.0
    _emit(1, "clifford algebra", ok, f"max residual {worst:.2e}, tol 1e-12, {dt:.2f}s")


def test_criterion_02_fpk_suite():
    report, dt = _run(["fpk"], trials=10000)
    rows = _named(report, "fpk_j2_ab", "fpk_axial_tensor", "fpk_jk_orthogonal", "fpk_j2_k2")
    worst = max(r["value"] for r in rows)
    ok = all(r["pass"] for r in rows) and dt < 5.0
    _emit(2, "constraint identities", ok, f"max rel residual {worst:.2e}, tol 1e-10, {dt:.2f}s")


def test_criterion_03_fast_oracle_equivalence():
    report, dt = _run(["fpk"], trials=10000)
    row = _named(report, "fast_vs_matrix")[0]
    ok = row["pass"] and row["trials"] == 10000 and dt < 10.0
    _emit(3, "component formulas vs matrix route", ok, f"max rel delta {row['value']:.2e}, tol 1e-10, {dt:.2f}s")


def test_criterion_04_proposition_suite():
    report, dt = _run(["props"], trials=10000)
    rows = _named(
        report,
        "coefficient_vs_brute",
        "no_type4_type5",
        "constructed_type2",
        "constructed_type2_Bpsi",
        "constructed_type3",
        "constructed_type3_Apsi",
    )
    ok = all(r["pass"] for r in rows) and dt < 10.0
    detail = (
        f"mismatches {int(rows[0]['value'])}/{rows[0]['trials']}, "
        f"type4/5 {int(rows[1]['value'])}, "
        f"B_psi {rows[3]['value']:.2e}, A_psi {rows[5]['value']:.2e}, {dt:.2f}s"
    )
    _emit(4, "coefficient classification", ok, detail)


def test_criterion_05_base_validation():
    report, dt = _run(["props"], trials=10000)
    rows = _named(report, "valid_bases_type1", "synthetic_rejections")
    ok = all(r["pass"] for r in rows) and rows[0]["trials"] >= 1000
    detail = (
        f"type1 failures {int(rows[0]['value'])}/{rows[0]['trials']}, "
        f"rejection failures {int(rows[1]['value'])}/{rows[1]['trials']}, {dt:.2f}s"
    )
    _emit(5, "base validation (regularity)", ok, detail)


def test_criterion_06_pointwise_identities():
    report, dt = _run(["rim"], trials=10000)
    rows = _named(report, "heisenberg_pointwise", "del_A_identity", "del_B_identity", "heisenberg_control")
    ok = all(r["pass"] for r in rows)
    control_margin = 1e-3 / rows[3]["value"] if rows[3]["value"] > 0 else float("inf")
    detail = (
        f"max rel residual {max(r['value'] for r in rows[:3]):.2e}, tol 1e-10; "
        f"perturbed-s control min {control_margin:.2e} > 1e-3, {dt:.2f}s"
    )
    _emit(6, "pointwise derivative identities", ok, detail)


def test_criterion_07_plane_suite():
    report, dt = _run(["plane"], trials=1000)
    rows = _named(
        report,
        "chi_roundtrip",
        "mn_identity",
        "lq_inversion",
        "coords_roundtrip",
        "map_consistency",
    )
    ok = report["pass"] and all(r["trials"] == 1000 for r in rows)
    worst = max(r["value"] for r in rows)
    _emit(7, "coordinate-space maps", ok, f"max rel residual {worst:.2e}, tol 1e-10, {dt:.2f}s")


def test_criterion_08_homotopy_suite():
    report, dt = _run(["homotopy"], trials=1000)
    rows = _named(
        report,
        "endpoint_exactness",
        "straight_line",
        "degenerate_detection",
        "intermediate_ratio_one",
        "class_transition_bisection",
        "sweep_interior_regular",
    )
    ok = all(r["pass"] for r in rows) and dt < 2.0
    detail = (
        f"endpoint error {rows[0]['value']:.1e} (exact), ratio {rows[3]['value']:.2e}, "
        f"transition failures {int(rows[4]['value'])}, {dt:.2f}s"
    )
    _emit(8, "homotopy deformations", ok, detail)


def test_criterion_09_mdo_suite():
    report, dt = _run(["mdo"], trials=1000)
    rows = _named(
        report,
        "xi_involution",
        "xi_slash_commutator",
        "elko_structure",
        "dual_helicity",
        "diraclike_residual",
        "diraclike_sign_fixture",
        "chirality_current_relations",
        "fg_raw_vs_simplified",
    )
    ok = report["pass"]
    detail = (
        f"xi {max(rows[0]['value'], rows[1]['value']):.2e} (tol 1e-11), "
        f"structure {rows[2]['value']:.1e} (exact), dirac-like {rows[4]['value']:.2e}, "
        f"chirality {rows[6]['value']:.2e}, fg {rows[7]['value']:.2e}, {dt:.2f}s"
    )
    _emit(9, "mass-dimension-one suite", ok, detail)


def test_criterion_10_determinism(tmp_path):
    # the child imports the package these tests imported
    env = dict(os.environ, PYTHONPATH=str(Path(spinorlab.__file__).parents[1]))
    t0 = time.perf_counter()
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "spinorlab.cli",
                "verify",
                "--suite",
                "all",
                "--seed",
                "42",
                "--output",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    dt = time.perf_counter() - t0
    ok = outs[0] == outs[1] and dt < 60.0
    _emit(10, "byte-identical reports", ok, f"{len(outs[0])} bytes each, two runs in {dt:.2f}s")
