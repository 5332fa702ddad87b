"""Seeded faults that the ``verify`` oracle must catch.

Each mutant replaces one function at every binding the package holds and
runs ``spinorlab verify`` on one suite at small trials: at least one check
must fail.  ``spinor.chiral_overlaps`` is read by the component route
(``bilinear.compute_fast_batch``), by ``rim``'s base checks and by ``fpk``'s
``chiral_overlap_split``, so these mutants show that the ``fpk`` suite still
guards A1 and A2 against the matrix route when one formula feeds both sides.
``plane.m_operator`` holds the chi factors that ``map_dirac_mdo`` and the
``plane`` suite's chi checks read, so its mutants must fail ``plane``, and
``mn_identity`` among its checks.  A ``homotopy._root`` that moves every
root by a relative 1e-6 must fail ``crossing_classes``, and types 4 and 5
swapped in the Lounesto decision must fail ``mdo``, whose Elko spinors are
flagpoles.  Types 2 and 3 swapped in both class tables must fail ``props``'
constructed spinors and ``homotopy``'s crossings, a negated Xi must fail
``mdo``'s Dirac-like sign, and one flipped sign of the Hodge table must fail
``fpk``'s axial-tensor identity.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

from spinorlab import bilinear, cli, homotopy, lounesto, mdo, plane, spinor

ORIGINAL = spinor.chiral_overlaps


def _swapped(psi):
    A1, A2 = ORIGINAL(psi)
    return A2, A1


def _one_conj_dropped(psi):
    c = np.conj(psi)
    return psi[..., 2] * psi[..., 0] + c[..., 3] * psi[..., 1], c[..., 0] * psi[..., 2] + c[..., 1] * psi[..., 3]


def _a2_is_a1(psi):
    A1, _ = ORIGINAL(psi)
    return A1, A1


MUTANTS = {"outputs swapped": _swapped, "one conj dropped": _one_conj_dropped, "A2 := A1": _a2_is_a1}

M_OPERATOR = plane.m_operator


def _chi_swapped(c):
    m = M_OPERATOR(c)
    return dataclasses.replace(m, c1=m.c2, c2=m.c1)


def _chi2_is_chi1(c):
    m = M_OPERATOR(c)
    return dataclasses.replace(m, c2=m.c1)


CHI_MUTANTS = {"c1, c2 swapped": _chi_swapped, "chi2 := chi1": _chi2_is_chi1}


def patch_every_binding(monkeypatch, original, mutant) -> set[str]:
    """Replace ``original`` wherever a spinorlab module binds it; the modules."""
    patched = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "spinorlab":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, mutant)
                patched.add(name)
    return patched


def failed_checks(tmp_path, suite: str, trials: int) -> tuple[int, list[str]]:
    out = tmp_path / f"{suite}.json"
    code = cli.main(["verify", "--suite", suite, "--trials", str(trials), "--output", str(out)])
    report = json.loads(out.read_text())
    return code, [c["name"] for s in report["suites"] for c in s["checks"] if not c["pass"]]


def test_unmutated_fpk_passes(tmp_path):
    assert failed_checks(tmp_path, "fpk", 200) == (cli.EXIT_OK, [])


@pytest.mark.parametrize("name", list(MUTANTS))
def test_chiral_overlaps_mutant_fails_fpk(name, monkeypatch, tmp_path):
    patched = patch_every_binding(monkeypatch, ORIGINAL, MUTANTS[name])
    # the component route and the split check both read the mutant
    assert {"spinorlab.spinor", "spinorlab.bilinear"} <= patched
    code, failed = failed_checks(tmp_path, "fpk", 200)
    assert code == cli.EXIT_SUITE_FAILURE
    assert failed, name


def test_unmutated_plane_passes(tmp_path):
    assert failed_checks(tmp_path, "plane", 200) == (cli.EXIT_OK, [])


@pytest.mark.parametrize("name", list(CHI_MUTANTS))
def test_m_operator_mutant_fails_plane(name, monkeypatch, tmp_path):
    assert patch_every_binding(monkeypatch, M_OPERATOR, CHI_MUTANTS[name]) == {"spinorlab.plane"}
    code, failed = failed_checks(tmp_path, "plane", 200)
    assert code == cli.EXIT_SUITE_FAILURE
    # mn_identity composes m with an inverse built from the coefficients, so it sees a wrong chi
    assert "mn_identity" in failed, name


ROOT = homotopy._root


def test_unmutated_homotopy_and_mdo_pass(tmp_path):
    assert failed_checks(tmp_path, "homotopy", 200) == (cli.EXIT_OK, [])
    assert failed_checks(tmp_path, "mdo", 200) == (cli.EXIT_OK, [])


def test_shifted_roots_fail_crossing_classes(monkeypatch, tmp_path):
    assert patch_every_binding(monkeypatch, ROOT, lambda v0, v1: ROOT(v0, v1) * (1.0 + 1e-6)) == {"spinorlab.homotopy"}
    code, failed = failed_checks(tmp_path, "homotopy", 200)
    assert code == cli.EXIT_SUITE_FAILURE
    assert "crossing_classes" in failed


def swap_classes(monkeypatch, one, other) -> set[str]:
    """Swap two Lounesto classes in the covariant decision, its class codes
    and the coefficient class table; the modules patched."""
    decision = tuple({one: other, other: one}.get(e, e) for e in lounesto.DECISION)
    assert decision != lounesto.DECISION
    codes = np.array([0 if isinstance(e, tuple) else int(e) for e in decision])
    swap = {int(one): int(other), int(other): int(one)}
    coefficient_classes = np.array([swap.get(c, c) for c in lounesto._COEFFICIENT_CLASSES.tolist()])
    return (
        patch_every_binding(monkeypatch, lounesto.DECISION, decision)
        | patch_every_binding(monkeypatch, lounesto._CLASS_CODES, codes)
        | patch_every_binding(monkeypatch, lounesto._COEFFICIENT_CLASSES, coefficient_classes)
    )


def test_type4_type5_swap_fails_mdo(monkeypatch, tmp_path):
    assert swap_classes(monkeypatch, lounesto.LounestoClass.TYPE4, lounesto.LounestoClass.TYPE5) == {"spinorlab.lounesto"}
    code, failed = failed_checks(tmp_path, "mdo", 200)
    assert code == cli.EXIT_SUITE_FAILURE
    assert "elko_flagpole" in failed


def test_unmutated_props_passes(tmp_path):
    assert failed_checks(tmp_path, "props", 200) == (cli.EXIT_OK, [])


@pytest.mark.parametrize(
    "suite, checks", [("props", {"constructed_type2", "constructed_type3"}), ("homotopy", {"crossing_classes"})]
)
def test_type2_type3_swap_fails_props_and_homotopy(suite, checks, monkeypatch, tmp_path):
    assert swap_classes(monkeypatch, lounesto.LounestoClass.TYPE2, lounesto.LounestoClass.TYPE3) == {"spinorlab.lounesto"}
    code, failed = failed_checks(tmp_path, suite, 200)
    assert code == cli.EXIT_SUITE_FAILURE
    assert checks <= set(failed)


XI = mdo.xi


def test_negated_xi_fails_diraclike_sign_fixture(monkeypatch, tmp_path):
    # the package root re-exports xi; mdo's own binding is the one its checks read
    assert "spinorlab.mdo" in patch_every_binding(monkeypatch, XI, lambda mom: -XI(mom))
    code, failed = failed_checks(tmp_path, "mdo", 200)
    assert code == cli.EXIT_SUITE_FAILURE
    assert "diraclike_sign_fixture" in failed


HODGE = bilinear._HODGE


def test_one_flipped_hodge_sign_fails_fpk_axial_tensor(monkeypatch, tmp_path):
    flipped = HODGE.copy()
    flipped[0, 1] = -flipped[0, 1]
    assert patch_every_binding(monkeypatch, HODGE, flipped) == {"spinorlab.bilinear"}
    code, failed = failed_checks(tmp_path, "fpk", 200)
    assert code == cli.EXIT_SUITE_FAILURE
    assert "fpk_axial_tensor" in failed
