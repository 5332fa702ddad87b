"""Spinor values, duals and chiral parts.

A spinor is a plain complex ndarray of shape (4,), components ordered
(P11, P12, P21, P22): the top pair is block 1, the bottom pair block 2.
Dual spinors are row arrays of shape (4,); right-multiply them onto columns.
"""

from __future__ import annotations

import enum
import json

import numpy as np

from .clifford import projector
from .errors import DegenerateXi, raise_first

DEFAULT_TOL = 1e-9


class DualKind(enum.Enum):
    DIRAC = "dirac"
    MDO = "mdo"


def as_spinor(values) -> np.ndarray:
    psi = np.asarray(values, dtype=complex).reshape(4)
    if not np.all(np.isfinite(psi.view(float))):
        raise ValueError("spinor components must be finite")
    return psi


def norm_sq(psi: np.ndarray) -> float | np.ndarray:
    """Sum of |c_i|^2 over the last axis; the quadratic scale of every
    bilinear.  A (4,) spinor gives a scalar, an (n, 4) stack an (n,) array."""
    return (np.abs(np.asarray(psi)) ** 2).sum(axis=-1)  # the method skips np.sum's Python wrapper


def quad_scale(psi: np.ndarray) -> float | np.ndarray:
    """Floor-at-one scale for zero-testing quantities quadratic in psi."""
    return np.maximum(1.0, norm_sq(psi))


def quartic_scale(psi: np.ndarray) -> float | np.ndarray:
    """Floor-at-one scale for residuals quartic in psi (identity checks)."""
    return np.maximum(1.0, norm_sq(psi) ** 2)


def dirac_dual(psi: np.ndarray) -> np.ndarray:
    """psi^dag gamma^0 as a row, or one row per spinor of an (n, 4) stack:
    gamma^0 swaps the two blocks, so this is the exact swap, with no matmul."""
    return np.conj(np.asarray(psi, dtype=complex).take((2, 3, 0, 1), axis=-1))


def mdo_dual(psi: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """(Xi psi)^dag gamma^0 as a row, or one row per spinor of an (n, 4)
    stack, with one Xi or an (n, 4, 4) stack of them; Xi must square to
    the identity within DEFAULT_TOL * max(1, max|Xi|^2), the size of the
    rounding in Xi^2."""
    xi = np.asarray(xi, dtype=complex)
    bound = DEFAULT_TOL * np.maximum(1.0, np.max(np.abs(xi), axis=(-2, -1)) ** 2)
    raise_first(np.max(np.abs(xi @ xi - np.eye(4)), axis=(-2, -1)) > bound, DegenerateXi, "Xi^2 != 1 beyond tolerance")
    return dirac_dual((np.asarray(psi)[..., None, :] @ np.swapaxes(xi, -1, -2))[..., 0, :])


def chiral_overlaps(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A1, A2) over the last axis: A1 = P21* P11 + P22* P12 and
    A2 = P11* P21 + P12* P22.  Under the Dirac dual A = A1 + A2 and
    B = i(-A1 + A2), with A2 = conj(A1)."""
    c = np.conj(psi)
    return c[..., 2] * psi[..., 0] + c[..., 3] * psi[..., 1], c[..., 0] * psi[..., 2] + c[..., 1] * psi[..., 3]


def row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm over the last axis of a complex array, bit for bit:
    one dot product per row, the call the 1-D norm makes, where a reduction
    over an axis would add in another order.  The equality rests on how
    numpy dispatches the stacked matmul of the strided ``.real``/``.imag``
    views (the same product on contiguous copies differs in the last ulp);
    it was checked on numpy 2.4, and ``tests/test_plane.py`` guards it."""
    re, im = x.real, x.imag
    sq = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(sq[..., 0, 0])


def complex_view(pairs: np.ndarray) -> np.ndarray:
    """The (n, 2k) float ``pairs`` of re/im columns as their (n, k) complex
    view, with no copy.  re += 0 im - 0 and then im += 0, in place, give the
    bits of ``re + 1j * im`` (numpy's complex product and sum), signed zeros
    included, for finite values."""
    re, im = pairs[:, 0::2], pairs[:, 1::2]
    re += 0.0 * im - 0.0
    im += 0.0
    return pairs.view(complex)


def block1(psi: np.ndarray) -> np.ndarray:
    return np.asarray(psi)[:2]


def block2(psi: np.ndarray) -> np.ndarray:
    return np.asarray(psi)[2:]


def assemble(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """The spinor with blocks ``top`` and ``bottom``, or row by row for
    (n, 2) stacks."""
    return np.concatenate([np.asarray(top, dtype=complex), np.asarray(bottom, dtype=complex)], axis=-1)


def chiral_parts(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P1 psi, P2 psi), row by row for an (n, 4) stack; the parts always
    recombine to psi exactly."""
    return psi @ projector(1), psi @ projector(2)


def to_json(psi: np.ndarray) -> dict:
    """Round-trip-exact JSON form {"re": [...], "im": [...]}."""
    psi = np.asarray(psi, dtype=complex)
    return {"re": [float(x) for x in psi.real], "im": [float(x) for x in psi.imag]}


def from_json(obj: dict) -> np.ndarray:
    """The spinor of a ``to_json`` object; ValueError naming the missing
    field or the expected shape for anything else."""
    shape = '{"re": [4 numbers], "im": [4 numbers]}'
    if not isinstance(obj, dict):
        raise ValueError(f"expected {shape}, got {type(obj).__name__}")
    for key in ("re", "im"):
        if key not in obj:
            raise ValueError(f"missing field {key!r}; expected {shape}")
        part = obj[key]
        if not isinstance(part, (list, tuple)) or len(part) != 4 or not all(is_number(x) for x in part):
            raise ValueError(f"{key!r} must be a list of 4 numbers; expected {shape}")
    return as_spinor(np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float))


def is_number(x) -> bool:
    """An int or float, not a bool (json reads true as one), a string or an
    int from _FLOAT_OVERFLOW up, which float() rounds past the largest float."""
    return isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool) and abs(x) < _FLOAT_OVERFLOW)


_FLOAT_OVERFLOW = 2**1024 - 2**970  # the largest float plus half its ulp


def complex_to_json(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def complex_from_json(obj: dict, name: str = "z") -> complex:
    """The number of a ``complex_to_json`` object; TypeError naming the part
    of ``name`` that is not a number."""
    re, im = obj["re"], obj["im"]
    return complex(as_number(re, f"{name}.re"), as_number(im, f"{name}.im"))


def as_number(x, name: str) -> float:
    """x as a float, or TypeError naming ``name`` unless ``is_number(x)``; an
    integer beyond float range is shown by its first digits and its length."""
    if is_number(x):
        return float(x)
    huge = isinstance(x, int) and not isinstance(x, bool)
    got = f"{str(x)[:6 + (x < 0)]}... ({len(str(abs(x)))} digits)" if huge else json.dumps(x)
    raise TypeError(f"{name} must be a number{' in float range' if huge else ''}, got {got}")

