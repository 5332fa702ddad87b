"""Lounesto classification from covariants, and the fast coefficient rules.

Classes 1-3 are regular (A or B nonzero), 4-6 singular (A = B = 0, told
apart by which of K, S vanish).  J must never vanish.  One decision table
serves the scalar ``classify``, which raises, and ``classify_batch``, which
returns per-row class and error codes.  The coefficient route
classifies psi = r1*block1(base) + r2*block2(base) straight from (r1, r2)
and the base scalars (A, B) without building any covariant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .bilinear import Bilinears
from .errors import AmbiguousScale, InconsistentBilinears, InvalidBase, NullCurrent, ZeroDecomposition
from .spinor import DEFAULT_TOL, DualKind


class LounestoClass(enum.IntEnum):
    TYPE1 = 1
    TYPE2 = 2
    TYPE3 = 3
    TYPE4 = 4
    TYPE5 = 5
    TYPE6 = 6

    @property
    def regular(self) -> bool:
        return self.value <= 3


@dataclass(frozen=True)
class ClassifyOptions:
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")


_AMBIGUOUS_SCALE = (AmbiguousScale, "spinor norm below threshold")
_NULL_CURRENT = (NullCurrent, "all current components below threshold")
_REGULAR_KS = (InconsistentBilinears, "regular class requires K != 0 and S != 0")
_SINGULAR_KS = (InconsistentBilinears, "A = B = 0 with K = S = 0 but J != 0")

# The Lounesto decision, indexed by 8*(A=0) + 4*(B=0) + 2*(K=0) + (S=0);
# each entry is a class or the (exception type, message) that row raises.
# AmbiguousScale and then NullCurrent take precedence over the table.
DECISION = (
    LounestoClass.TYPE1, _REGULAR_KS, _REGULAR_KS, _REGULAR_KS,  # A != 0, B != 0
    LounestoClass.TYPE2, _REGULAR_KS, _REGULAR_KS, _REGULAR_KS,  # A != 0, B = 0
    LounestoClass.TYPE3, _REGULAR_KS, _REGULAR_KS, _REGULAR_KS,  # A = 0, B != 0
    LounestoClass.TYPE4, LounestoClass.TYPE6, LounestoClass.TYPE5, _SINGULAR_KS,  # A = B = 0
)

# Row error codes of classify_batch: 0 is no error, code c is ROW_ERRORS[c - 1].
ROW_ERRORS = (_AMBIGUOUS_SCALE, _NULL_CURRENT, _REGULAR_KS, _SINGULAR_KS)
_CLASS_CODES = np.array([0 if isinstance(e, tuple) else int(e) for e in DECISION])
_ERROR_CODES = np.array([1 + ROW_ERRORS.index(e) if isinstance(e, tuple) else 0 for e in DECISION])


def _raise(entry: tuple[type, str]) -> NoReturn:
    exc, message = entry
    raise exc(message)


def classify(b: Bilinears, opt: ClassifyOptions = ClassifyOptions()) -> LounestoClass:
    """Assign the unique class; covariants must come from the Dirac dual."""
    if b.dual is not DualKind.DIRAC:
        raise ValueError("classification is defined for the Dirac dual only")
    if b.scale < opt.tol:
        _raise(_AMBIGUOUS_SCALE)
    thr = opt.tol * max(1.0, b.scale)
    if np.abs(b.J).max() < thr:
        _raise(_NULL_CURRENT)
    entry = DECISION[
        8 * (abs(b.A) < thr)
        + 4 * (abs(b.B) < thr)
        + 2 * (float(np.abs(b.K).max()) < thr)
        + (float(np.abs(b.S).max()) < thr)
    ]
    if isinstance(entry, tuple):
        _raise(entry)
    return entry


def _magnitudes(cov: dict[str, np.ndarray]) -> np.ndarray:
    """|A|, |B|, max|K|, max|S| per row: the inputs of the four zero-tests."""
    return np.stack(
        [
            np.abs(cov["A"]),
            np.abs(cov["B"]),
            np.max(np.abs(cov["K"]), axis=1),
            np.max(np.abs(cov["S"]), axis=(1, 2)),
        ],
        axis=1,
    )


def classify_batch(
    cov: dict[str, np.ndarray],
    opt: ClassifyOptions = ClassifyOptions(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify every row of a Dirac-dual ``bilinear.compute_batch`` dict.

    Returns (n,) arrays: class codes (1-6, 0 on an error row), error codes
    (0, or c for ``ROW_ERRORS[c - 1]``, the exception ``classify`` would
    raise) and near-degenerate flags (False on error rows).
    """
    scale = cov["scale"]
    thr = opt.tol * np.maximum(1.0, scale)
    index = (_magnitudes(cov) < thr[:, None]) @ np.array([8, 4, 2, 1])
    classes = _CLASS_CODES[index]
    errors = _ERROR_CODES[index]
    errors[np.max(np.abs(cov["J"]), axis=1) < thr] = 1 + ROW_ERRORS.index(_NULL_CURRENT)
    errors[scale < opt.tol] = 1 + ROW_ERRORS.index(_AMBIGUOUS_SCALE)
    classes[errors != 0] = 0
    return classes, errors, bilinears_near_degenerate(cov, opt) & (errors == 0)


def _check_base_scalars(A: float, B: float, tol: float) -> None:
    s = max(1.0, abs(A), abs(B))
    if abs(A) <= tol * s or abs(B) <= tol * s:
        raise InvalidBase("base must have A != 0 and B != 0")


def classify_by_coefficients(
    r1: complex,
    r2: complex,
    A: float,
    B: float,
    opt: ClassifyOptions = ClassifyOptions(),
) -> LounestoClass:
    """Class of r1*block1 + r2*block2 of a regular base with scalars (A, B).

    Only classes 1, 2, 3 and 6 are reachable; the ratio conditions
    A = -iB (w+/w-) and A = -iB (w-/w+) with w+- = r1 r2* +- r1* r2 select
    types 2 and 3, one vanishing coordinate selects type 6.
    """
    tol = opt.tol
    _check_base_scalars(A, B, tol)
    rs = max(1.0, abs(r1), abs(r2))
    r1_zero = abs(r1) <= tol * rs
    r2_zero = abs(r2) <= tol * rs
    if r1_zero and r2_zero:
        raise ZeroDecomposition("r1 = r2 = 0 is not a decomposition")
    if r1_zero or r2_zero:
        return LounestoClass.TYPE6

    z = r1 * np.conj(r2)
    guard = abs(z.real * z.imag) > tol * (abs(r1) * abs(r2)) ** 2
    if guard:
        w_plus = 2.0 * z.real
        w_minus = 2j * z.imag
        margin = tol * max(abs(A), abs(B), 1.0)
        if abs(A + 1j * B * (w_plus / w_minus)) <= margin:
            return LounestoClass.TYPE2
        if abs(A + 1j * B * (w_minus / w_plus)) <= margin:
            return LounestoClass.TYPE3
    # boundary-straddling inputs fall through to the generic class
    return LounestoClass.TYPE1


def coefficient_margins(r1: complex, r2: complex, A: float, B: float) -> dict[str, float]:
    """Distances to the type-2/3 decision surfaces (scaled like classify)."""
    z = r1 * np.conj(r2)
    scale = max(abs(A), abs(B), 1.0)
    out = {
        "guard": abs(z.real * z.imag) / max((abs(r1) * abs(r2)) ** 2, 1e-300),
        "type2": float("inf"),
        "type3": float("inf"),
    }
    if z.real != 0.0 and z.imag != 0.0:
        w_plus = 2.0 * z.real
        w_minus = 2j * z.imag
        out["type2"] = abs(A + 1j * B * (w_plus / w_minus)) / scale
        out["type3"] = abs(A + 1j * B * (w_minus / w_plus)) / scale
    return out


def bilinears_near_degenerate(
    cov: dict[str, np.ndarray],
    opt: ClassifyOptions = ClassifyOptions(),
    band: float = 10.0,
) -> np.ndarray:
    """(n,) flags: a zero-test input sits just above its threshold, i.e. the
    assigned class would flip under a ``band``-fold tolerance change."""
    thr = opt.tol * np.maximum(1.0, cov["scale"])[:, None]
    mags = _magnitudes(cov)
    return np.any((thr < mags) & (mags <= band * thr), axis=1)


def near_degenerate(
    r1: complex,
    r2: complex,
    A: float,
    B: float,
    opt: ClassifyOptions = ClassifyOptions(),
    band: float = 10.0,
) -> bool:
    """True when the input sits within ``band`` tolerances of a decision
    boundary (ratio conditions or a vanishing coordinate)."""
    tol = opt.tol
    rs = max(1.0, abs(r1), abs(r2))
    small = min(abs(r1), abs(r2))
    if tol * rs < small <= band * tol * rs:
        return True
    m = coefficient_margins(r1, r2, A, B)
    lo = min(m["type2"], m["type3"])
    return tol < lo <= band * tol
