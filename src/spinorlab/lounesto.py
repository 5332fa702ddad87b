"""Lounesto classification from covariants, and the fast coefficient rules.

Classes 1-3 are regular (A or B nonzero), 4-6 singular (A = B = 0, told
apart by which of K, S vanish).  J must never vanish.  One decision table
serves the scalar ``classify``, which raises, and ``classify_batch``, which
returns per-row class and error codes.  The coefficient route classifies
psi = r1*block1(base) + r2*block2(base) straight from (r1, r2) and the base
scalars (A, B) without building any covariant: ``_coefficient_row`` does the
arithmetic of ``classify_by_coefficients_batch`` on one row of Python
numbers, and ``classify_by_coefficients`` and ``near_degenerate`` are views
of it.  Every zero test reads one tolerance, the float ``tol`` (``DEFAULT_TOL``).

``classify`` and ``_coefficient_row`` stay scalar code: they are the tests'
reference for the batch routes, and a one-row batch call costs several times
as much (the ``scalar-api`` benchmark workload measures both).
"""

from __future__ import annotations

import enum
import math
from typing import NoReturn

import numpy as np

from .bilinear import Bilinears
from .errors import AmbiguousScale, InconsistentBilinears, InvalidBase, NullCurrent, ZeroDecomposition
from .spinor import DEFAULT_TOL, DualKind, row_max_abs


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


def classify(b: Bilinears, tol: float = DEFAULT_TOL) -> LounestoClass:
    """Assign the unique class; covariants must come from the Dirac dual."""
    if b.dual is not DualKind.DIRAC:
        raise ValueError("classification is defined for the Dirac dual only")
    if b.scale < tol:
        _raise(_AMBIGUOUS_SCALE)
    thr = tol * max(1.0, b.scale)
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


def classify_batch(
    cov: dict[str, np.ndarray],
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify every row of a Dirac-dual ``bilinear.compute_batch`` dict.

    Returns (n,) arrays: class codes (1-6, 0 on an error row), error codes
    (0, or c for ``ROW_ERRORS[c - 1]``, the exception ``classify`` would
    raise) and near-degenerate flags (False on error rows).
    """
    scale = cov["scale"]
    thr = tol * np.maximum(1.0, scale)[:, None]
    # |A|, |B|, max|K|, max|S| per row: the inputs of the four zero-tests
    mags = np.stack(
        [
            np.abs(cov["A"]),
            np.abs(cov["B"]),
            row_max_abs(cov["K"]),
            row_max_abs(cov["S"]),
        ],
        axis=1,
    )
    index = (mags < thr) @ np.array([8, 4, 2, 1])
    classes = _CLASS_CODES[index]
    errors = _ERROR_CODES[index]
    errors[row_max_abs(cov["J"]) < thr[:, 0]] = 1 + ROW_ERRORS.index(_NULL_CURRENT)
    errors[scale < tol] = 1 + ROW_ERRORS.index(_AMBIGUOUS_SCALE)
    classes[errors != 0] = 0
    # near: a zero-test input within NEAR_BAND thresholds above its threshold
    near = np.any((thr < mags) & (mags <= NEAR_BAND * thr), axis=1)
    return classes, errors, near & (errors == 0)


_INVALID_BASE = (InvalidBase, "base must have A != 0 and B != 0")
_ZERO_DECOMPOSITION = (ZeroDecomposition, "r1 = r2 = 0 is not a decomposition")

# Row error codes of classify_by_coefficients_batch: 0 is no error, code c is
# COEFFICIENT_ERRORS[c - 1].  InvalidBase takes precedence.
COEFFICIENT_ERRORS = (_INVALID_BASE, _ZERO_DECOMPOSITION)

# The coefficient class code, indexed by 4*(r1 = 0 or r2 = 0) + 2*(type-2
# surface) + (type-3 surface): a vanishing coordinate, then type 2, then 3.
_COEFFICIENT_CLASSES = np.array([1, 3, 2, 2, 6, 6, 6, 6])

# A row is near-degenerate when a decision input lies within this many
# tolerances of its boundary.
NEAR_BAND = 10.0


def _conj_product(r1, r2, s):
    """(Re z, Im z) of z = (s r1) conj(s r2), in real arithmetic, so Python
    complex numbers and complex arrays give the same bits."""
    x1, y1, x2, y2 = r1.real * s, r1.imag * s, r2.real * s, r2.imag * s
    return x1 * x2 + y1 * y2, y1 * x2 - x1 * y2


def _coefficient_row(r1: complex, r2: complex, A: float, B: float, tol: float):
    """One row of ``classify_by_coefficients_batch`` in Python numbers, as (entry, near):
    the class or ``COEFFICIENT_ERRORS`` entry, and the near flag (False on an error row)."""
    A, B = complex(A), complex(B)
    scale = max(abs(A), abs(B), 1.0)
    if abs(A) <= tol * scale or abs(B) <= tol * scale:
        return _INVALID_BASE, False
    r1, r2 = complex(r1), complex(r2)
    a1, a2 = abs(r1), abs(r2)
    rs = max(1.0, a1, a2)
    if max(a1, a2) <= tol * rs:
        return _ZERO_DECOMPOSITION, False
    # every test is homogeneous in (r1, r2), so an exact power-of-two rescale keeps g^2 finite
    s = math.ldexp(1.0, 1 - math.frexp(rs)[1])
    zr, zi = _conj_product(r1, r2, s)
    near = tol * rs < min(a1, a2) <= NEAR_BAND * tol * rs
    if zr != 0.0 and zi != 0.0:  # the batch tests this band on type-6 rows too
        type2 = abs(A + B * (zr / zi))
        type3 = abs(A - B * (zi / zr))
        near = near or tol < min(type2, type3) / scale <= NEAR_BAND * tol
    if min(a1, a2) <= tol * rs:
        return LounestoClass.TYPE6, near
    g = (a1 * s) * (a2 * s)
    if abs(zr * zi) > tol * (g * g):  # so zr and zi are nonzero, and type2 and type3 set
        if type2 <= tol * scale:
            return LounestoClass.TYPE2, near
        if type3 <= tol * scale:
            return LounestoClass.TYPE3, near
    return LounestoClass.TYPE1, near  # boundary-straddling inputs fall through to the generic class


def classify_by_coefficients(
    r1: complex,
    r2: complex,
    A: float,
    B: float,
    tol: float = DEFAULT_TOL,
) -> LounestoClass:
    """Class of r1*block1 + r2*block2 of a regular base with scalars (A, B).

    Only classes 1, 2, 3 and 6 are reachable; the ratio conditions
    A = -iB (w+/w-) and A = -iB (w-/w+) with w+- = r1 r2* +- r1* r2 select
    types 2 and 3, one vanishing coordinate selects type 6.  With
    z = r1 r2* they read A + B Re z / Im z = 0 and A - B Im z / Re z = 0.
    """
    entry, _ = _coefficient_row(r1, r2, A, B, tol)
    if isinstance(entry, tuple):
        _raise(entry)
    return entry


def classify_by_coefficients_batch(
    r1: np.ndarray,
    r2: np.ndarray,
    A,
    B,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``classify_by_coefficients`` and ``near_degenerate`` of every row.

    r1, r2 are (n,) coordinates; A and B are scalars or (n,) arrays.
    Returns (n,) arrays: class codes (1, 2, 3 or 6; 0 on an error row),
    error codes (0, or c for ``COEFFICIENT_ERRORS[c - 1]``, the exception
    ``classify_by_coefficients`` would raise) and near-degenerate flags
    (False on error rows).  Row for row the same as the scalar route.
    """
    r1 = np.asarray(r1, dtype=complex)
    r2 = np.asarray(r2, dtype=complex)
    a1, a2 = np.hypot(r1.real, r1.imag), np.hypot(r2.real, r2.imag)
    rs = np.maximum(np.maximum(1.0, a1), a2)
    r1_zero = a1 <= tol * rs
    r2_zero = a2 <= tol * rs
    s = np.ldexp(1.0, 1 - np.frexp(rs)[1])
    zr, zi = _conj_product(r1, r2, s)
    g = (a1 * s) * (a2 * s)
    scale = np.maximum(np.maximum(np.abs(A), np.abs(B)), 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        type2 = np.abs(A + B * (zr / zi))
        type3 = np.abs(A - B * (zi / zr))
    guard = np.abs(zr * zi) > tol * (g * g)
    margin = tol * scale
    index = 4 * (r1_zero | r2_zero) + 2 * (guard & (type2 <= margin)) + (guard & (type3 <= margin))
    classes = _COEFFICIENT_CLASSES[index]
    errors = np.zeros(r1.shape, dtype=classes.dtype)
    errors[r1_zero & r2_zero] = 1 + COEFFICIENT_ERRORS.index(_ZERO_DECOMPOSITION)
    invalid = (np.abs(A) <= margin) | (np.abs(B) <= margin)
    errors[np.broadcast_to(invalid, r1.shape)] = 1 + COEFFICIENT_ERRORS.index(_INVALID_BASE)
    classes[errors != 0] = 0

    small = np.minimum(a1, a2)
    defined = (zr != 0.0) & (zi != 0.0)
    lo = np.where(defined, np.minimum(type2 / scale, type3 / scale), np.inf)
    near = ((tol * rs < small) & (small <= NEAR_BAND * tol * rs)) | ((tol < lo) & (lo <= NEAR_BAND * tol))
    return classes, errors, near & (errors == 0)


def near_degenerate(
    r1: complex,
    r2: complex,
    A: float,
    B: float,
    tol: float = DEFAULT_TOL,
) -> bool:
    """True within ``NEAR_BAND`` tolerances of a decision boundary (a vanishing
    coordinate or a type-2/3 ratio); False where ``classify_by_coefficients`` raises."""
    return _coefficient_row(r1, r2, A, B, tol)[1]
