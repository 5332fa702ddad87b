"""Scalar calls of ``rim``, ``mdo`` and ``homotopy`` return Python values.

Every function there computes over rows, and ``errors.one_row`` unwraps the
one row of a scalar call.  These cases pin what a scalar call returns, leaf
by leaf: ``float``, ``int``, ``complex``, ``bool``, ``None`` for a path
without ``degenerate_t``, enum tags, and arrays of one row's shape.
"""

import dataclasses

import numpy as np
import pytest

from spinorlab import bilinear, homotopy, mdo, plane, rim
from spinorlab.rim import OmegaDomain


def kinds(value):
    """The types of a result leaf by leaf; an array as ("ndarray", shape)."""
    if dataclasses.is_dataclass(value):
        return {f.name: kinds(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return tuple(kinds(v) for v in value)
    if isinstance(value, dict):
        return {key: kinds(v) for key, v in value.items()}
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape)
    return type(value)


V2, V4, M2, M4 = ("ndarray", (2,)), ("ndarray", (4,)), ("ndarray", (2, 2)), ("ndarray", (4, 4))
PSI = np.array([0.3, -1.1j, 0.8, 0.2 + 0.4j])
BASE = np.array([1.0, 0.2, 0.9 * np.exp(0.4j), -0.1 + 0.3j])
PARAMS = rim.validate(0.5 + 0.2j, 0.5 - 0.9j)
BIL = bilinear.compute(BASE)
POTS = rim.potentials(BIL, PARAMS)
MOM = mdo.Momentum(1.0, 0.7, 1.1, 0.6)
ELKO = mdo.elko(MOM, 1, "S")
F, G = homotopy.CoordFunction(1.0 + 0j), homotopy.CoordFunction(0.2 - 0.4j)
PATH = homotopy.basis_homotopy(F, G)
ANTIPODAL = homotopy.basis_homotopy(homotopy.CoordFunction(1.0 + 0j), homotopy.CoordFunction(-1.0 + 0j))
SPINOR_PATH = homotopy.spinor_homotopy(plane.PlaneCoords(1.0 + 0j, 0.5 + 0j), plane.PlaneCoords(1.0 + 0j, 2.0 + 0j))
COMPLEX4 = {"raw_F": complex, "raw_G": complex, "simplified_F": complex, "simplified_G": complex}
COORDS = {"r1": complex, "r2": complex, "basis": str}

CASES = {
    "rim.domain_of": (lambda: rim.domain_of(0.7, 0.7), OmegaDomain),
    "rim.validate": (
        lambda: rim.validate(0.5 + 0.2j, 0.5 - 0.9j),
        {"a": complex, "b": complex, "s": float, "rho": float, "domain": OmegaDomain},
    ),
    "rim.potentials": (lambda: rim.potentials(BIL, PARAMS), {"S": float, "R": float}),
    "rim.vartheta": (lambda: rim.vartheta(PARAMS, POTS), complex),
    "rim.rim_derivative": (lambda: rim.rim_derivative(PSI, PARAMS), M4),
    "rim.pointwise_residuals": (lambda: rim.pointwise_residuals(PSI, PARAMS), (float, float, float)),
    "rim.heisenberg_residual": (lambda: rim.heisenberg_residual(PSI, PARAMS), float),
    "rim.del_ab_residuals": (lambda: rim.del_ab_residuals(PSI, PARAMS), (float, float)),
    "rim.validate_rim_base": (
        lambda: rim.validate_rim_base(BASE),
        {"ok": bool, "failed": ("ndarray", (6,)), "A": float, "B": float, "A1": complex, "A2": complex},
    ),
    "rim.restriction_operator": (lambda: rim.restriction_operator(BIL), M4),
    "mdo.Momentum": (lambda: MOM, {"m": float, "p": float, "theta": float, "phi": float, "E": float}),
    "mdo.helicity_spinor": (lambda: mdo.helicity_spinor(1.1, 0.6, 1), V2),
    "mdo.sigma_phat": (lambda: mdo.sigma_phat(1.1, 0.6), M2),
    "mdo.boosted_left": (lambda: mdo.boosted_left(MOM, 1), V2),
    "mdo.elko": (lambda: mdo.elko(MOM, 1, "S"), {"spinor": V4, "conj": str, "helicity": int, "sign": int}),
    "mdo.charge_conjugate": (lambda: mdo.charge_conjugate(ELKO.spinor), V4),
    "mdo.four_momentum": (lambda: mdo.four_momentum(MOM), V4),
    "mdo.xi": (lambda: mdo.xi(MOM), M4),
    "mdo.diraclike_residual": (lambda: mdo.diraclike_residual(ELKO, MOM), (float, int)),
    "mdo.chirality_current_residuals": (lambda: mdo.chirality_current_residuals(ELKO, MOM), V4),
    "mdo.mdo_norm": (lambda: mdo.mdo_norm(ELKO, MOM), complex),
    "mdo.fg_functions": (lambda: mdo.fg_functions(POTS.S, POTS.R, PARAMS, BIL, MOM, -1), (complex, complex)),
    "mdo.fg_exponential_forms": (lambda: mdo.fg_exponential_forms(POTS.S, POTS.R, PARAMS, BIL, MOM, -1), COMPLEX4),
    "mdo.xi_checks": (lambda: mdo.xi_checks(MOM), (float, float)),
    "mdo.dual_helicity_eigenvalues": (lambda: mdo.dual_helicity_eigenvalues(ELKO, MOM), (float, float)),
    "homotopy.CoordFunction.w": (lambda: G.w, complex),
    "homotopy.CoordFunction.__call__": (lambda: (G(1.0 + 0j), G(0.5 + 0j)), (complex, complex)),
    "homotopy.basis_homotopy": (lambda: (PATH.degenerate_t, ANTIPODAL.degenerate_t), (type(None), float)),
    "homotopy.spinor_homotopy": (lambda: SPINOR_PATH.degenerate_t, type(None)),
    "homotopy.multiplier_at": (lambda: homotopy.multiplier_at(PATH, 0.3), complex),
    "homotopy.eval_path": (lambda: homotopy.eval_path(SPINOR_PATH, 1.0 + 0j, 0.3), COORDS),
    "homotopy.degenerate_at": (lambda: (homotopy.degenerate_at(ANTIPODAL, 0.5), homotopy.degenerate_at(PATH, 0.5)), (bool, bool)),
    "homotopy.sample_basis": (lambda: homotopy.sample_basis(PATH, BASE, 0.3), ((V4, V4), COORDS)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_scalar_call_returns_python_values(name):
    call, expected = CASES[name]
    assert kinds(call()) == expected
