"""Spinor values, duals and chiral parts.

A spinor is a plain complex ndarray of shape (4,), components ordered
(P11, P12, P21, P22): the top pair is block 1, the bottom pair block 2.
Dual spinors are row arrays of shape (4,); right-multiply them onto columns.
"""

from __future__ import annotations

import enum

import numpy as np

from .clifford import build, projector
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
    return np.sum(np.abs(np.asarray(psi)) ** 2, axis=-1)


def quad_scale(psi: np.ndarray) -> float | np.ndarray:
    """Floor-at-one scale for zero-testing quantities quadratic in psi."""
    return np.maximum(1.0, norm_sq(psi))


def quartic_scale(psi: np.ndarray) -> float | np.ndarray:
    """Floor-at-one scale for residuals quartic in psi (identity checks)."""
    return np.maximum(1.0, norm_sq(psi) ** 2)


def dirac_dual(psi: np.ndarray) -> np.ndarray:
    """psi^dag gamma^0 as a row, or one row per spinor of an (n, 4) stack."""
    return np.conj(psi) @ build().gamma[0]


def mdo_dual(psi: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """(Xi psi)^dag gamma^0 as a row, or one row per spinor of an (n, 4)
    stack, with one Xi or an (n, 4, 4) stack of them; Xi must square to
    the identity within DEFAULT_TOL * max(1, max|Xi|^2), the size of the
    rounding in Xi^2."""
    xi = np.asarray(xi, dtype=complex)
    bound = DEFAULT_TOL * np.maximum(1.0, np.max(np.abs(xi), axis=(-2, -1)) ** 2)
    raise_first(np.max(np.abs(xi @ xi - np.eye(4)), axis=(-2, -1)) > bound, DegenerateXi, "Xi^2 != 1 beyond tolerance")
    xi_psi = (np.asarray(psi)[..., None, :] @ np.swapaxes(xi, -1, -2))[..., 0, :]
    return np.conj(xi_psi) @ build().gamma[0]


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
    re = obj["re"]
    im = obj["im"]
    if len(re) != 4 or len(im) != 4:
        raise ValueError("spinor JSON needs 4 're' and 4 'im' entries")
    return as_spinor(np.array(re, dtype=float) + 1j * np.array(im, dtype=float))


def complex_to_json(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def complex_from_json(obj: dict) -> complex:
    return complex(float(obj["re"]), float(obj["im"]))

