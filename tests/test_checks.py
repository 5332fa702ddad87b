"""A check row is derived from its per-trial arrays, and a NaN fails it.

``suites._check`` counts a check's trials as the rows of its arrays and
takes its value as their largest |value|, or their number of set failure
flags.  Both reductions run in numpy: Python's ``max`` would drop a NaN
that is not its first argument and let a broken trial pass.  A value that
is not finite is reported as None, JSON null, so the report can be written.
"""

import dataclasses

import numpy as np
import pytest

from spinorlab import mdo, plane
from spinorlab.suites import SuiteConfig, _check, suite_mdo, suite_plane


def test_trials_are_rows_and_value_is_the_largest_magnitude():
    row = _check("c", 1e-10, np.array([1e-12, -3e-11]), np.array([[2e-11, 0.0], [0.0, 1e-11j]]))
    assert row == {"name": "c", "trials": 2, "value": 3e-11, "tol": 1e-10, "pass": True}


def test_flags_count_their_failures():
    row = _check("c", 0, np.array([True, False, True]), np.array([False, False, True]))
    assert (row["trials"], row["value"], row["pass"]) == (3, 3.0, False)


def test_a_fixed_identity_has_no_trials():
    assert _check("c", 1e-12, np.eye(4) - np.eye(4), fixed=True)["trials"] == 0


def test_no_trials_give_value_zero():
    assert _check("c", 0.0, np.zeros((0, 4)))["value"] == 0.0


@pytest.mark.parametrize("at", [0, 1, 5])
def test_a_nan_in_any_trial_fails_the_check(at):
    values = np.full(6, 1e-13)
    values[at] = np.nan
    row = _check("c", 1e-10, np.zeros(6), values)
    assert row["value"] is None and row["pass"] is False


def _checks(report) -> dict:
    return {c["name"]: c for c in report["checks"]}


def test_a_nan_in_chi2_inv_fails_chi_roundtrip(monkeypatch):
    inverse_operator = plane.inverse_operator
    calls = []

    def with_nan(op):
        inv = inverse_operator(op)
        calls.append(op)
        if len(calls) == 1:  # the suite's inverse of m_operator: 1/chi1, 1/chi2
            chi2_inv = np.array(inv.c2)
            chi2_inv[3] = np.nan
            inv = dataclasses.replace(inv, c2=chi2_inv)
        return inv

    monkeypatch.setattr(plane, "inverse_operator", with_nan)
    checks = _checks(suite_plane(SuiteConfig(trials=100)))
    assert checks["chi_roundtrip"]["value"] is None and checks["chi_roundtrip"]["pass"] is False
    # mn_identity composes m with the coefficients' closed-form inverse, not this one
    assert checks["mn_identity"]["pass"] is True


def test_a_nan_in_the_second_elko_pass_fails_dual_helicity(monkeypatch):
    eigenvalues = mdo.dual_helicity_eigenvalues
    calls = []

    def with_nan(e, mom):
        top, bottom = eigenvalues(e, mom)
        calls.append(e)
        if len(calls) == 2:  # the (S, -1) pass
            bottom = np.array(bottom)
            bottom[0] = np.nan
        return top, bottom

    monkeypatch.setattr(mdo, "dual_helicity_eigenvalues", with_nan)
    check = _checks(suite_mdo(SuiteConfig(trials=100)))["dual_helicity"]
    assert check["value"] is None and check["pass"] is False
