"""Every suite keeps its checks and their draw counts.

For each suite at the trial count ``tests/test_acceptance.py`` runs it
with, the ordered (check name, trials) pairs of its report, as the suites
gave them while their randomised checks still looped over draws one by one.
A rewrite of a suite may change how a check computes its value, but not
drop a check, rename it or shrink its draws.
"""

import warnings

import numpy as np
import pytest

from spinorlab.suites import SUITES, SuiteConfig, run_suites

SEED = 42

# trial counts of tests/test_acceptance.py, suite by suite
ACCEPTANCE_TRIALS = {"clifford": 1000, "fpk": 10000, "props": 10000, "rim": 10000, "plane": 1000, "homotopy": 1000, "mdo": 1000}

PINNED = {
    "clifford": [
        ("anticommutators", 0),
        ("gamma5_product", 0),
        ("gamma5_square", 0),
        ("gamma5_anticommute", 0),
        ("hermiticity", 0),
        ("projectors", 0),
        ("slash_contraction", 1000),
    ],
    "fpk": [
        ("fpk_j2_ab", 10000),
        ("fpk_axial_tensor", 10000),
        ("fpk_jk_orthogonal", 10000),
        ("fpk_j2_k2", 10000),
        ("dirac_dual_reality", 10000),
        ("chiral_overlap_split", 10000),
        ("fast_vs_matrix", 10000),
        ("phase_invariance", 2000),
        ("quadratic_scaling", 2000),
    ],
    "props": [
        ("coefficient_vs_brute", 10000),
        ("no_type4_type5", 10000),
        ("real_pairs_type1", 10000),
        ("one_zero_type6_lemma4", 10000),
        ("constructed_type2", 200),
        ("constructed_type2_Bpsi", 200),
        ("constructed_type3", 200),
        ("constructed_type3_Apsi", 200),
        ("valid_bases_type1", 1000),
        ("synthetic_rejections", 2000),
    ],
    "rim": [
        ("coupling_s_relation", 10000),
        ("coupling_rho_relation", 10000),
        ("domain_samples", 14),
        ("domain_disjointness", 100000),
        ("heisenberg_pointwise", 10000),
        ("heisenberg_control", 1000),
        ("del_A_identity", 10000),
        ("del_B_identity", 10000),
        ("vartheta_unit_modulus", 1000),
        ("potentials_scaling", 1000),
        ("restriction_trace", 1000),
        ("restriction_zero_k", 1),
    ],
    "plane": [
        ("chi_roundtrip", 1000),
        ("mn_identity", 1000),
        ("lq_inversion", 1000),
        ("map_consistency", 1000),
        ("coords_roundtrip", 1000),
        ("dirac_coords_table", 1000),
        ("beta_two_forms", 1000),
        ("delta_invariants", 1000),
        ("omega_zeta_product", 1000),
        ("chi_closed_form", 1000),
        ("decompose_roundtrip", 1000),
        ("dirac_image_type1", 1000),
        ("base_phase_invariance", 1000),
    ],
    "homotopy": [
        ("endpoint_exactness", 500),
        ("straight_line", 500),
        ("path_symmetry", 500),
        ("reflexivity", 500),
        ("degenerate_detection", 2),
        ("intermediate_ratio_one", 1000),
        ("induced_operator_invertible", 1000),
        ("sweep_interior_regular", 1000),
        ("class_transition_bisection", 200),
        ("crossing_classes", 200),
    ],
    "mdo": [
        ("xi_involution", 1000),
        ("xi_slash_commutator", 1000),
        ("elko_structure", 1000),
        ("dual_helicity", 1000),
        ("diraclike_residual", 1000),
        ("diraclike_sign_fixture", 1000),
        ("diraclike_flipped_sign", 1000),
        ("dirac_dual_singular", 1000),
        ("elko_flagpole", 1000),
        ("conjugacy_pair_structure", 250),
        ("chirality_current_relations", 250),
        ("mdo_dual_j2", 250),
        ("rest_frame_reduction", 1),
        ("dual_norms_differ", 1),
        ("fg_raw_vs_simplified", 300),
        ("fg_theta_zero", 300),
        ("fg_product_identity", 300),
    ],
}


@pytest.fixture(scope="module")
def reports():
    return {name: SUITES[name](SuiteConfig(trials=trials, seed=SEED)) for name, trials in ACCEPTANCE_TRIALS.items()}


def test_every_suite_is_pinned():
    assert list(PINNED) == list(ACCEPTANCE_TRIALS)
    assert set(PINNED) == set(SUITES)


@pytest.mark.parametrize("name", list(PINNED))
def test_suite_keeps_its_checks_and_draw_counts(name, reports):
    report = reports[name]
    assert [(c["name"], c["trials"]) for c in report["checks"]] == PINNED[name]
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("trials", [17, 1025])
def test_no_floating_point_warning_escapes_the_suites(trials, seed):
    """The ``verify`` command ignores numpy's floating-point errors and every
    warning for its whole run; called from Python under numpy's default error
    state and warnings-as-errors, every suite still runs and passes."""
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_suites(["all"], SuiteConfig(trials=trials, seed=seed))["pass"]
