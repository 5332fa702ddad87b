"""Clifford bilinears, Lounesto classification, spinor-plane maps and
homotopic deformations for block-decomposable spinors."""

from . import bilinear, clifford, homotopy, lounesto, mdo, plane, rim, spinor
from .bilinear import Bilinears, compute, fpk_residuals
from .clifford import GammaSet, build, projector, slash
from .homotopy import CoordFunction, HomotopyPath, basis_homotopy, eval_path, spinor_homotopy
from .lounesto import LounestoClass, classify, classify_by_coefficients
from .mdo import ElkoSpinor, Momentum, elko, wigner_theta, xi
from .plane import CoefficientSet, MOperator, PlaneCoords, coefficient_set, decompose
from .rim import OmegaDomain, Potentials, RimParams, validate, validate_rim_base
from .spinor import DualKind, chiral_parts, dirac_dual, mdo_dual

__version__ = "0.1.0"

__all__ = [
    "Bilinears",
    "CoefficientSet",
    "CoordFunction",
    "DualKind",
    "ElkoSpinor",
    "GammaSet",
    "HomotopyPath",
    "LounestoClass",
    "MOperator",
    "Momentum",
    "OmegaDomain",
    "PlaneCoords",
    "Potentials",
    "RimParams",
    "basis_homotopy",
    "bilinear",
    "build",
    "chiral_parts",
    "classify",
    "classify_by_coefficients",
    "clifford",
    "coefficient_set",
    "compute",
    "decompose",
    "dirac_dual",
    "elko",
    "eval_path",
    "fpk_residuals",
    "homotopy",
    "lounesto",
    "mdo",
    "mdo_dual",
    "plane",
    "projector",
    "rim",
    "slash",
    "spinor",
    "spinor_homotopy",
    "validate",
    "validate_rim_base",
    "wigner_theta",
    "xi",
    "__version__",
]
