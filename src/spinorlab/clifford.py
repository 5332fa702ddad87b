"""Fixed chiral-basis gamma matrices, projectors and Clifford contractions.

Conventions used by the whole package:

  gamma^0 = [[0, I], [I, 0]]            gamma^k = [[0, sigma^k], [-sigma^k, 0]]
  gamma5  = i gamma^0 gamma^1 gamma^2 gamma^3 = diag(-1, -1, +1, +1)
  eta     = diag(+1, -1, -1, -1)

Spinor components are laid out as (top block, bottom block) = (block 1,
block 2); block 1 carries the first plane coordinate everywhere.  Inputs to
``slash`` are contravariant components v^mu and the contraction goes through
eta: slash(v) = v^0 gamma^0 - sum_k v^k gamma^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
ETA = np.array([1.0, -1.0, -1.0, -1.0])  # the metric's diagonal, which lowers an index
ETA.setflags(write=False)
GAMMA5_DIAG = np.array([-1.0, -1.0, 1.0, 1.0])  # gamma5's diagonal: a product with gamma5 is a sign per component
GAMMA5_DIAG.setflags(write=False)


def _frozen(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m, dtype=complex)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class GammaSet:
    """Immutable bundle of the representation matrices."""

    gamma: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    gamma5: np.ndarray
    metric: np.ndarray


@lru_cache(maxsize=1)
def build() -> GammaSet:
    """Construct the fixed chiral representation (cached singleton)."""
    z = np.zeros((2, 2), dtype=complex)
    i2 = np.eye(2, dtype=complex)
    g0 = np.block([[z, i2], [i2, z]])
    gk = [np.block([[z, s], [-s, z]]) for s in SIGMA]
    g5 = 1j * g0 @ gk[0] @ gk[1] @ gk[2]
    metric = np.diag(ETA)
    metric.setflags(write=False)
    return GammaSet(
        gamma=tuple(_frozen(g) for g in (g0, *gk)),
        gamma5=_frozen(g5),
        metric=metric,
    )


def projector(block: int) -> np.ndarray:
    """Chiral block projector: 1 selects the top block, 2 the bottom.

    With gamma5 = diag(-1,-1,1,1), projector(2) equals (1 + gamma5)/2.
    """
    if block == 1:
        return _frozen(np.diag([1.0, 1.0, 0.0, 0.0]))
    if block == 2:
        return _frozen(np.diag([0.0, 0.0, 1.0, 1.0]))
    raise ValueError(f"block must be 1 or 2, got {block!r}")


def slash(v: np.ndarray) -> np.ndarray:
    """eta-contracted gamma product v^mu gamma_mu for contravariant v; an
    (n, 4) stack of vectors gives the (n, 4, 4) stack of products."""
    g = build().gamma
    v = np.asarray(v, dtype=complex)[..., None, None]
    return v[..., 0, :, :] * g[0] - v[..., 1, :, :] * g[1] - v[..., 2, :, :] * g[2] - v[..., 3, :, :] * g[3]


def minkowski_dot(u: np.ndarray, v: np.ndarray):
    """u.v with signature (+,-,-,-); inputs are contravariant components.

    Two (4,) vectors give a complex; (n, 4) stacks give one value per row,
    and a vector's value has the bits of its row in a stack.
    """
    u = np.asarray(u)[..., None, :]  # a vector takes the array loop too
    v = np.asarray(v)[..., None, :]
    dot = (u[..., 0] * v[..., 0] - u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2] - u[..., 3] * v[..., 3])[..., 0]
    return complex(dot) if dot.ndim == 0 else dot


def anticommutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y + y @ x

