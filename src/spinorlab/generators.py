"""Random inputs for suites and tests (all draws from a passed Generator).

Draw order is fixed: complex arrays take real parts first, then imaginary
parts, each as standard normals of the stated shape.
"""

from __future__ import annotations

import numpy as np

from .bilinear import by_row_blocks, dirac_ab
from .spinor import complex_view, norm_sq


def random_spinors(rng: np.random.Generator, n: int) -> np.ndarray:
    """n spinors from one draw of 8n normals: the real parts, then the imaginary."""
    pairs = np.empty((n, 8))
    pairs[:, 0::2], pairs[:, 1::2] = rng.standard_normal((2, n, 4))
    return complex_view(pairs)


def random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


BASE_MARGIN = 1e-2


def random_rim_bases(rng: np.random.Generator, n: int) -> np.ndarray:
    """Valid reference spinors with |A|, |B| and ||A|-|B|| above
    ``BASE_MARGIN`` times the squared norm |psi|^2, the covariants' scale.

    The last margin keeps the Dirac image away from the type-3 surface,
    which is hit exactly when A^2 = B^2.
    """
    out = np.empty((n, 4), dtype=complex)
    have = 0
    while have < n:
        cand = random_spinors(rng, 2 * (n - have) + 8)
        took = cand[by_row_blocks(_clear_of_margin, cand)[0]][: n - have]
        out[have : have + took.shape[0]] = took
        have += took.shape[0]
    return out


def _clear_of_margin(cand: np.ndarray) -> tuple[np.ndarray]:
    """Whether each candidate's |A|, |B| and ||A| - |B|| exceed BASE_MARGIN * |psi|^2."""
    A, B = dirac_ab(cand)
    a, b, s = np.abs(A.real), np.abs(B.real), BASE_MARGIN * norm_sq(cand)
    return ((a > s) & (b > s) & (np.abs(a - b) > s),)


def random_valid_params(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coupling pairs with Re(a) = Re(b) exactly and Im(b) away from zero."""
    re = rng.uniform(0.2, 1.5, n)
    im_a = rng.uniform(-1.0, 1.0, n)
    im_b = rng.uniform(0.2, 1.5, n) * np.where(rng.uniform(0.0, 1.0, n) < 0.5, -1.0, 1.0)
    return re + 1j * im_a, re + 1j * im_b


def random_momenta(rng: np.random.Generator, n: int):
    """(m, p, theta, phi) tuples with positive mass."""
    m = rng.uniform(0.5, 2.0, n)
    p = rng.uniform(0.0, 3.0, n)
    theta = rng.uniform(0.05, np.pi - 0.05, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.stack([m, p, theta, phi], axis=1)
