"""Seeded faults that the ``verify`` oracle must catch, as one table.

Each row of ``MUTANTS`` replaces one function or table at every binding the
package holds, names every module the replacement reaches, and maps each
suite it runs at ``TRIALS`` trials (seed 0) to the checks that must fail
there: the kill matrix.  ``test_mutant_fails_its_checks`` asserts every row;
the tests named after one mutated object predate the table and keep their
names, each running its rows again.  ``SURVIVORS`` are the faults that pass
every ``verify`` check, each with the reason and the tier-1 test that kills
it.

``spinor.chiral_overlaps`` is read by the component route
(``bilinear.compute_fast_batch``), by ``rim``'s base checks and by ``fpk``'s
``chiral_overlap_split``, so its mutants show that ``fpk`` still guards A1
and A2 against the matrix route when one formula feeds both sides.
``plane.m_operator`` holds the chi factors that ``mn_identity`` composes
with an inverse built from the coefficients.  Only ``fast_vs_matrix`` sees
a fault in the component route's S03 or K0, and only ``props``' Lemma 4
check, whose one-zero rows are type 6, sees types 4 and 6 swapped.
"""

import dataclasses
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from spinorlab import bilinear, cli, clifford, homotopy, lounesto, mdo, plane, spinor

import test_classify_batch
import test_homotopy
from conftest import strict_json

TRIALS = 200


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
    report = strict_json(out.read_text())
    return code, [c["name"] for s in report["suites"] for c in s["checks"] if not c["pass"]]


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


def replaced(original, mutant):
    """The patch that puts ``mutant`` at every binding of ``original``."""
    return lambda monkeypatch: patch_every_binding(monkeypatch, original, mutant)


def swapped(one, other):
    return lambda monkeypatch: swap_classes(monkeypatch, lounesto.LounestoClass(one), lounesto.LounestoClass(other))


OVERLAPS = spinor.chiral_overlaps


def _one_conj_dropped(psi):
    c = np.conj(psi)
    return psi[..., 2] * psi[..., 0] + c[..., 3] * psi[..., 1], c[..., 0] * psi[..., 2] + c[..., 1] * psi[..., 3]


M_OPERATOR = plane.m_operator


def _chi(c1, c2):
    """An m_operator whose chi factors are picked from the true (chi1, chi2)."""
    def mutant(c):
        m = M_OPERATOR(c)
        return dataclasses.replace(m, c1=(m.c1, m.c2)[c1], c2=(m.c1, m.c2)[c2])
    return mutant


TABLES = bilinear._sandwich_tables


def _s01_coefficient_flipped():
    """``_sandwich_tables`` with the row-0 coefficient of S^{01} negated."""
    xor, coef, at = TABLES()
    coef = coef.copy()
    s, g = divmod(int(at[10]), 4)
    coef[s, g, 0] = -coef[s, g, 0]
    return xor, coef, at


FAST = bilinear.compute_fast_batch


def _fast(key, change):
    def mutant(*args):
        out = FAST(*args)
        out[key] = change(out[key])
        return out
    return mutant


DECOMPOSE = plane.decompose_batch


def _biased_decompose(psis, base):
    coords, residuals, failures = DECOMPOSE(psis, base)
    return coords * (1.0 + 1e-7), residuals, failures


BETWEEN = homotopy._between
SLASH = clifford.slash


def _slash_v1_flipped(v):
    v = np.array(v, dtype=complex)
    v[..., 1] = -v[..., 1]
    return SLASH(v)


ROOT = homotopy._root
XI = mdo.xi
HODGE = bilinear._HODGE
HODGE_FLIPPED = HODGE.copy()
HODGE_FLIPPED[0, 1] = -HODGE_FLIPPED[0, 1]


@dataclass(frozen=True)
class Mutant:
    patch: Callable[[pytest.MonkeyPatch], set[str]]
    reaches: set[str]  # every module patched
    kills: dict[str, set[str]]  # suite -> every check that fails there at TRIALS trials


MUTANTS = {
    "outputs swapped": Mutant(
        replaced(OVERLAPS, lambda psi: OVERLAPS(psi)[::-1]),
        {"spinorlab.spinor", "spinorlab.bilinear", "spinorlab.rim"},
        {"fpk": {"chiral_overlap_split", "fast_vs_matrix"}},
    ),
    "one conj dropped": Mutant(
        replaced(OVERLAPS, _one_conj_dropped),
        {"spinorlab.spinor", "spinorlab.bilinear", "spinorlab.rim"},
        {"fpk": {"chiral_overlap_split", "fast_vs_matrix"}},
    ),
    "A2 := A1": Mutant(
        replaced(OVERLAPS, lambda psi: (OVERLAPS(psi)[0],) * 2),
        {"spinorlab.spinor", "spinorlab.bilinear", "spinorlab.rim"},
        {"fpk": {"chiral_overlap_split", "fast_vs_matrix"}, "props": {"valid_bases_type1"}},
    ),
    "c1, c2 swapped": Mutant(
        replaced(M_OPERATOR, _chi(1, 0)),
        {"spinorlab.plane"},
        {"plane": {"chi_closed_form", "map_consistency", "mn_identity"}},
    ),
    "chi2 := chi1": Mutant(
        replaced(M_OPERATOR, _chi(0, 0)), {"spinorlab.plane"}, {"plane": {"map_consistency", "mn_identity"}}
    ),
    "roots shifted by 1e-6": Mutant(
        replaced(ROOT, lambda v0, v1: ROOT(v0, v1) * (1.0 + 1e-6)),
        {"spinorlab.homotopy"},
        {"homotopy": {"class_transition_bisection", "crossing_classes", "degenerate_detection"}},
    ),
    "types 4 and 5 swapped": Mutant(swapped(4, 5), {"spinorlab.lounesto"}, {"mdo": {"elko_flagpole"}}),
    "types 2 and 3 swapped": Mutant(
        swapped(2, 3),
        {"spinorlab.lounesto"},
        {"props": {"constructed_type2", "constructed_type3"}, "homotopy": {"crossing_classes"}},
    ),
    "Xi negated": Mutant(
        replaced(XI, lambda mom: -XI(mom)), {"spinorlab", "spinorlab.mdo"}, {"mdo": {"diraclike_sign_fixture"}}
    ),
    "one Hodge sign flipped": Mutant(
        replaced(HODGE, HODGE_FLIPPED), {"spinorlab.bilinear"}, {"fpk": {"fpk_axial_tensor"}}
    ),
    "one sandwich coefficient flipped": Mutant(
        replaced(TABLES, _s01_coefficient_flipped),
        {"spinorlab.bilinear"},
        {"fpk": {"dirac_dual_reality", "fast_vs_matrix", "fpk_axial_tensor"}},
    ),
    "fast S03 negated": Mutant(
        replaced(FAST, _fast("S03", np.negative)), {"spinorlab.bilinear"}, {"fpk": {"fast_vs_matrix"}}
    ),
    "fast K0 off by 1e-6": Mutant(
        replaced(FAST, _fast("K0", lambda k0: k0 * (1.0 + 1e-6))), {"spinorlab.bilinear"}, {"fpk": {"fast_vs_matrix"}}
    ),
    "types 4 and 6 swapped": Mutant(swapped(4, 6), {"spinorlab.lounesto"}, {"props": {"one_zero_type6_lemma4"}}),
    "decompose biased by 1e-7": Mutant(
        replaced(DECOMPOSE, _biased_decompose),
        {"spinorlab.plane", "spinorlab.homotopy"},
        {"plane": {"decompose_roundtrip", "dirac_coords_table"}},
    ),
    "path at t squared": Mutant(
        replaced(BETWEEN, lambda fx, gx, t: BETWEEN(fx, gx, t**2)),
        {"spinorlab.homotopy"},
        {"homotopy": {"crossing_classes", "degenerate_detection", "path_symmetry"}},
    ),
    "one slash sign flipped": Mutant(
        replaced(SLASH, _slash_v1_flipped),
        {"spinorlab", "spinorlab.clifford", "spinorlab.mdo", "spinorlab.rim"},
        {
            "mdo": {
                "chirality_current_relations",
                "diraclike_flipped_sign",
                "diraclike_residual",
                "diraclike_sign_fixture",
                "xi_slash_commutator",
            }
        },
    ),
}


CLASS_TRANSITION = homotopy.class_transition


def _type2_type3_crossings_dropped(*args, **kwargs):
    crossings, grid = CLASS_TRANSITION(*args, **kwargs)
    crossings[:, :2] = np.nan
    return crossings, grid


@dataclass(frozen=True)
class Survivor:
    patch: Callable[[pytest.MonkeyPatch], object]
    reason: str  # why no verify check sees it
    killed_by: Callable[[], None]  # the tier-1 test that fails under it


SURVIVORS = {
    "NEAR_BAND = 1": Survivor(
        lambda monkeypatch: monkeypatch.setattr(lounesto, "NEAR_BAND", 1.0),
        "no verify check reads a near flag: the band is a reporting convention, not an identity of the paper",
        lambda: test_classify_batch.test_near_degenerate_band_edges(0, 1.0),
    ),
    "class_transition drops every type-2/3 crossing": Survivor(
        replaced(CLASS_TRANSITION, _type2_type3_crossings_dropped),
        "crossing_classes tests only the crossings reported, and its grid steps over the dropped ones;"
        " a check that a path crosses exactly when its endpoints' sectors differ would see it",
        test_homotopy.test_every_crossing_is_a_sign_change_on_a_dense_grid,
    ),
}


def assert_killed(name, monkeypatch, tmp_path, suites=None):
    """Mutant ``name`` reaches its modules and fails its checks in ``suites`` (all of its kills by default)."""
    mutant = MUTANTS[name]
    assert mutant.patch(monkeypatch) == mutant.reaches
    for suite in suites or mutant.kills:
        code, failed = failed_checks(tmp_path, suite, TRIALS)
        assert code == cli.EXIT_SUITE_FAILURE, (name, suite)
        assert mutant.kills[suite] <= set(failed), (name, suite, failed)


def test_unmutated_fpk_passes(tmp_path):
    assert failed_checks(tmp_path, "fpk", TRIALS) == (cli.EXIT_OK, [])


def test_unmutated_plane_passes(tmp_path):
    assert failed_checks(tmp_path, "plane", TRIALS) == (cli.EXIT_OK, [])


def test_unmutated_homotopy_and_mdo_pass(tmp_path):
    assert failed_checks(tmp_path, "homotopy", TRIALS) == (cli.EXIT_OK, [])
    assert failed_checks(tmp_path, "mdo", TRIALS) == (cli.EXIT_OK, [])


def test_unmutated_props_passes(tmp_path):
    assert failed_checks(tmp_path, "props", TRIALS) == (cli.EXIT_OK, [])


@pytest.mark.parametrize("name, suite", [(n, s) for n, m in MUTANTS.items() for s in m.kills])
def test_mutant_fails_its_checks(name, suite, monkeypatch, tmp_path):
    assert_killed(name, monkeypatch, tmp_path, [suite])


@pytest.mark.parametrize("name", ["outputs swapped", "one conj dropped", "A2 := A1"])
def test_chiral_overlaps_mutant_fails_fpk(name, monkeypatch, tmp_path):
    assert_killed(name, monkeypatch, tmp_path)


@pytest.mark.parametrize("name", ["c1, c2 swapped", "chi2 := chi1"])
def test_m_operator_mutant_fails_plane(name, monkeypatch, tmp_path):
    assert_killed(name, monkeypatch, tmp_path)


def test_shifted_roots_fail_crossing_classes(monkeypatch, tmp_path):
    assert_killed("roots shifted by 1e-6", monkeypatch, tmp_path)


def test_type4_type5_swap_fails_mdo(monkeypatch, tmp_path):
    assert_killed("types 4 and 5 swapped", monkeypatch, tmp_path)


@pytest.mark.parametrize("suite, checks", MUTANTS["types 2 and 3 swapped"].kills.items())
def test_type2_type3_swap_fails_props_and_homotopy(suite, checks, monkeypatch, tmp_path):
    assert_killed("types 2 and 3 swapped", monkeypatch, tmp_path, [suite])


def test_negated_xi_fails_diraclike_sign_fixture(monkeypatch, tmp_path):
    assert_killed("Xi negated", monkeypatch, tmp_path)


def test_one_flipped_hodge_sign_fails_fpk_axial_tensor(monkeypatch, tmp_path):
    assert_killed("one Hodge sign flipped", monkeypatch, tmp_path)


@pytest.mark.parametrize("name", list(SURVIVORS))
def test_accepted_survivor_passes_verify_and_fails_its_tier1_test(name, monkeypatch, tmp_path):
    survivor = SURVIVORS[name]
    survivor.patch(monkeypatch)
    assert failed_checks(tmp_path, "all", TRIALS) == (cli.EXIT_OK, []), survivor.reason
    with pytest.raises(AssertionError):
        survivor.killed_by()
