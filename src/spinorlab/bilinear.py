"""Bilinear covariants: generic matrix route and the fast component route.

Stored components are contravariant: J[mu] = dual . gamma^mu . psi,
K[mu] = dual . gamma5 gamma^mu . psi, S[mu][nu] = dual . i gamma^mu gamma^nu . psi
(antisymmetric, zero diagonal).  Under the Dirac dual A, B, J, K, S are all
real and A = A1 + A2, B = i(-A1 + A2) with A1 = P21* P11 + P22* P12,
A2 = conj(A1).

``compute`` and ``fpk_residuals`` stay as they are: one-row calls of the
batch routes that the ``scalar-api`` benchmark workload measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import build, levi_civita, minkowski_dot
from .spinor import DualKind, dirac_dual, mdo_dual

_S_INDEX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class Bilinears:
    """All covariants of one spinor, plus the chiral-overlap scalars A1, A2."""

    A: complex
    B: complex
    J: np.ndarray
    K: np.ndarray
    S: np.ndarray
    A1: complex
    A2: complex
    dual: DualKind
    scale: float  # sum |c_i|^2 of the source spinor

    def j_squared(self) -> complex:
        return minkowski_dot(self.J, self.J)

    def k_squared(self) -> complex:
        return minkowski_dot(self.K, self.K)

    def as_batch(self) -> dict[str, np.ndarray]:
        """This record as the one-row dict ``compute_batch`` returns."""
        return {k: np.asarray(getattr(self, k))[None] for k in ("A", "B", "J", "K", "S", "A1", "A2", "scale")}


@dataclass(frozen=True)
class FastBilinears:
    """Component-formula covariants of diag(r1,r1,r2,r2) . base.

    Only the printed components exist on this route: K1..K3 are absent by
    construction and must come from the matrix route.
    """

    A: complex
    B: complex
    J: np.ndarray
    K0: complex
    S01: complex
    S02: complex
    S03: complex
    S12: complex
    S13: complex
    S23: complex
    scale: float

    def s_items(self):
        return zip(_S_INDEX, (self.S01, self.S02, self.S03, self.S12, self.S13, self.S23))


@lru_cache(maxsize=1)
def _form_stack() -> np.ndarray:
    """Stacked sandwich matrices: value_f = dual . F[f] . psi.

    Order: identity (A), gamma5 (B/i), gamma^mu (J), gamma5 gamma^mu (K),
    i gamma^mu gamma^nu for the six mu<nu pairs (S).
    """
    g = build()
    forms = [np.eye(4, dtype=complex), g.gamma5]
    forms += [g.gamma[mu] for mu in range(4)]
    forms += [g.gamma5 @ g.gamma[mu] for mu in range(4)]
    forms += [1j * g.gamma[mu] @ g.gamma[nu] for mu, nu in _S_INDEX]
    out = np.stack(forms)
    out.setflags(write=False)
    return out


def _duals_for(psis: np.ndarray, dual: DualKind, xi: np.ndarray | None) -> np.ndarray:
    if dual is DualKind.DIRAC:
        return dirac_dual(psis)
    if xi is None:
        raise ValueError("MDO dual requires the Xi operator")
    return mdo_dual(psis, xi)


def compute_batch(
    psis: np.ndarray,
    dual: DualKind = DualKind.DIRAC,
    xi: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Vectorized covariants for a (n, 4) stack of spinors.

    Returns arrays keyed "A", "B", "J" (n,4), "K" (n,4), "S" (n,4,4),
    "A1", "A2", "scale".
    """
    psis = np.atleast_2d(np.asarray(psis, dtype=complex))
    duals = _duals_for(psis, dual, xi)
    vals = np.einsum("ni,fij,nj->nf", duals, _form_stack(), psis)
    n = psis.shape[0]
    S = np.zeros((n, 4, 4), dtype=complex)
    for f, (mu, nu) in enumerate(_S_INDEX):
        S[:, mu, nu] = vals[:, 10 + f]
        S[:, nu, mu] = -vals[:, 10 + f]
    A = vals[:, 0]
    B = 1j * vals[:, 1]
    if dual is DualKind.DIRAC:
        A1 = np.conj(psis[:, 2]) * psis[:, 0] + np.conj(psis[:, 3]) * psis[:, 1]
        A2 = np.conj(psis[:, 0]) * psis[:, 2] + np.conj(psis[:, 1]) * psis[:, 3]
    else:
        # component formulas are a Dirac-dual statement; fall back to the
        # equivalent scalar combinations
        A1 = (A + 1j * B) / 2.0
        A2 = (A - 1j * B) / 2.0
    return {
        "A": A,
        "B": B,
        "J": vals[:, 2:6],
        "K": vals[:, 6:10],
        "S": S,
        "A1": A1,
        "A2": A2,
        "scale": np.sum(np.abs(psis) ** 2, axis=1),
    }


def compute(
    psi: np.ndarray,
    dual: DualKind = DualKind.DIRAC,
    xi: np.ndarray | None = None,
) -> Bilinears:
    """All bilinear covariants of a single spinor."""
    out = compute_batch(np.asarray(psi, dtype=complex).reshape(1, 4), dual, xi)
    return Bilinears(
        A=complex(out["A"][0]),
        B=complex(out["B"][0]),
        J=out["J"][0],
        K=out["K"][0],
        S=out["S"][0],
        A1=complex(out["A1"][0]),
        A2=complex(out["A2"][0]),
        dual=dual,
        scale=float(out["scale"][0]),
    )


def compute_fast_batch(bases: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> dict[str, np.ndarray]:
    """Component-formula route for psi = diag(r1,r1,r2,r2) . base, vectorized.

    The S^03 formula carries a corrected relative sign between its two
    groups; the uncorrected form is not real under the Dirac dual.
    """
    bases = np.atleast_2d(np.asarray(bases, dtype=complex))
    r1 = np.asarray(r1, dtype=complex)
    r2 = np.asarray(r2, dtype=complex)
    p11, p12, p21, p22 = (bases[:, i] for i in range(4))
    n1 = np.abs(p11) ** 2 + np.abs(p12) ** 2
    n2 = np.abs(p21) ** 2 + np.abs(p22) ** 2
    m1 = np.abs(r1) ** 2
    m2 = np.abs(r2) ** 2

    a1 = np.conj(p21) * p11 + np.conj(p22) * p12
    a2 = np.conj(p11) * p21 + np.conj(p12) * p22
    w = r1 * np.conj(r2)   # pairs with a1
    wc = np.conj(r1) * r2  # pairs with a2
    A = w * a1 + wc * a2
    B = 1j * (-w * a1 + wc * a2)

    J = np.empty((bases.shape[0], 4), dtype=complex)
    J[:, 0] = n1 * m1 + n2 * m2
    J[:, 1] = -m1 * (np.conj(p12) * p11 + np.conj(p11) * p12) + m2 * (
        np.conj(p22) * p21 + np.conj(p21) * p22
    )
    J[:, 2] = 1j * (
        -m1 * (np.conj(p12) * p11 - np.conj(p11) * p12)
        + m2 * (np.conj(p22) * p21 - np.conj(p21) * p22)
    )
    J[:, 3] = -m1 * (np.abs(p11) ** 2 - np.abs(p12) ** 2) + m2 * (
        np.abs(p21) ** 2 - np.abs(p22) ** 2
    )
    K0 = n1 * m1 - n2 * m2

    S01 = -1j * (w * (np.conj(p22) * p11 + np.conj(p21) * p12) - wc * (np.conj(p12) * p21 + np.conj(p11) * p22))
    S02 = w * (np.conj(p22) * p11 - np.conj(p21) * p12) - wc * (np.conj(p12) * p21 - np.conj(p11) * p22)
    S03 = -1j * (w * (np.conj(p21) * p11 - np.conj(p22) * p12) + wc * (-np.conj(p11) * p21 + np.conj(p12) * p22))
    S12 = w * (np.conj(p21) * p11 - np.conj(p22) * p12) + wc * (np.conj(p11) * p21 - np.conj(p12) * p22)
    S13 = -1j * (w * (np.conj(p22) * p11 - np.conj(p21) * p12) + wc * (np.conj(p12) * p21 - np.conj(p11) * p22))
    S23 = w * (np.conj(p22) * p11 + np.conj(p21) * p12) + wc * (np.conj(p12) * p21 + np.conj(p11) * p22)

    return {
        "A": A,
        "B": B,
        "J": J,
        "K0": K0,
        "S01": S01,
        "S02": S02,
        "S03": S03,
        "S12": S12,
        "S13": S13,
        "S23": S23,
        "scale": n1 * m1 + n2 * m2,
    }


def compute_fast(base: np.ndarray, r1: complex, r2: complex) -> FastBilinears:
    """Single-spinor wrapper around the component-formula route."""
    out = compute_fast_batch(np.asarray(base, dtype=complex).reshape(1, 4), [r1], [r2])
    return FastBilinears(
        A=complex(out["A"][0]),
        B=complex(out["B"][0]),
        J=out["J"][0],
        K0=complex(out["K0"][0]),
        S01=complex(out["S01"][0]),
        S02=complex(out["S02"][0]),
        S03=complex(out["S03"][0]),
        S12=complex(out["S12"][0]),
        S13=complex(out["S13"][0]),
        S23=complex(out["S23"][0]),
        scale=float(np.real(out["scale"][0])),
    )


def fpk_residuals_batch(b: dict[str, np.ndarray]) -> np.ndarray:
    """The four constraint residuals for batched covariants; shape (n, 4).

    Residual 2 uses the combination that vanishes identically in this
    representation: J_mu K_nu - K_mu J_nu + B S_{mu nu}
    - (A/2) eps_{mu nu alpha beta} S^{alpha beta}, where eps is the
    permutation symbol with eps_0123 = +1 (equivalently the tensor with
    eps^0123 = +1) and lower indices come from eta.
    """
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    J, K, S, A, B = b["J"], b["K"], b["S"], b["A"], b["B"]
    Jl = J @ eta
    Kl = K @ eta
    Sl = np.einsum("ma,nab,bv->nmv", eta, S, eta)
    Seps = np.einsum("mnab,qab->qmn", levi_civita(), S)

    j2 = np.einsum("nm,nm->n", J, Jl)
    k2 = np.einsum("nm,nm->n", K, Kl)
    jk = np.einsum("nm,nm->n", J, Kl)

    r1 = np.abs(j2 - A**2 - B**2)
    comb = (
        Jl[:, :, None] * Kl[:, None, :]
        - Kl[:, :, None] * Jl[:, None, :]
        + B[:, None, None] * Sl
        - (A / 2.0)[:, None, None] * Seps
    )
    r2 = np.max(np.abs(comb), axis=(1, 2))
    r3 = np.abs(jk)
    r4 = np.abs(j2 + k2)
    return np.stack([r1, r2, r3, r4], axis=1)


def fpk_residuals(b: Bilinears) -> np.ndarray:
    """Raw residuals of the four constraints for one covariant record."""
    batch = {
        "J": b.J.reshape(1, 4),
        "K": b.K.reshape(1, 4),
        "S": b.S.reshape(1, 4, 4),
        "A": np.array([b.A]),
        "B": np.array([b.B]),
    }
    return np.real(fpk_residuals_batch(batch)[0])


def from_scalars(
    A: complex,
    B: complex,
    J,
    K,
    S,
    dual: DualKind = DualKind.DIRAC,
    scale: float = 1.0,
) -> Bilinears:
    """Assemble a covariant record by hand (for tests and fixed examples)."""
    S = np.asarray(S, dtype=complex)
    return Bilinears(
        A=complex(A),
        B=complex(B),
        J=np.asarray(J, dtype=complex),
        K=np.asarray(K, dtype=complex),
        S=S,
        A1=(A + 1j * B) / 2.0,
        A2=(A - 1j * B) / 2.0,
        dual=dual,
        scale=float(scale),
    )

