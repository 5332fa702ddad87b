"""Bilinear covariants: generic matrix route and the fast component route.

Stored components are contravariant: J[mu] = dual . gamma^mu . psi,
K[mu] = dual . gamma5 gamma^mu . psi, S[mu][nu] = dual . i gamma^mu gamma^nu . psi
(antisymmetric, zero diagonal).  Under the Dirac dual A, B, J, K, S are all
real and A = A1 + A2, B = i(-A1 + A2) with A1 = P21* P11 + P22* P12,
A2 = conj(A1).

The matrix sandwich dual . F[f] . psi is the oracle route.  Each of the 16
``_form_stack`` matrices is monomial (one entry +-1 or +-i per row i, in
column i XOR s), so ``compute_batch`` sums only the nonzero products, in the
same order and einsum kernel, and ``fpk_residuals_batch`` uses a sign vector
and a Hodge table: both keep every bit of the full formulas (signed zeros
and inf/NaN placement too), which ``tests/test_bilinear.py`` keeps as references.

Both batch kernels run a corpus in blocks of ``_BLOCK`` = 1024 rows, written
into outputs allocated once, so a pass holds its results plus one block of
(m, 16)-sized temporaries instead of n-row ones whose fresh pages it would pay
for.  Up to 1024 rows, n = 1 included, are one pass with no added allocation
or copy.  Why 1024: over the acceptance verify suites in one process (medians
of 8 alternating passes, 2-vCPU host), 512-row blocks were about 9% slower
than one pass, as numpy's per-call cost outweighs the smaller temporaries,
and 1024- and 2048-row blocks 7-14% faster; on a 10^4-row ``classify``,
4096-row blocks raised the traced peak from 6.4 to 8.0 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import build, minkowski_dot
from .errors import one_row
from .spinor import DualKind, dirac_dual, mdo_dual

_S_INDEX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_MU, _NU = np.array(_S_INDEX).T
_ETA = np.array([1.0, -1.0, -1.0, -1.0])  # the metric's diagonal
_ETA2 = _ETA[:, None] * _ETA  # eta_mm eta_nn, which lowers both indices of S
# Seps_mn = 2 eps_{m n a b} S^{a b} (eps_0123 = +1) of an antisymmetric S, over the
# complementary a < b, is _HODGE[m, n] * S^{a b} with 4 a + b = _HODGE_AT[m, n]
_HODGE_AT = np.array([[0, 11, 7, 6], [11, 0, 3, 2], [7, 3, 0, 1], [6, 2, 1, 0]])
_HODGE = np.array([[0.0, 2.0, -2.0, 2.0], [-2.0, 0.0, 2.0, -2.0], [2.0, -2.0, 0.0, 2.0], [-2.0, 2.0, -2.0, 0.0]])
_BLOCK = 1024  # rows per block of a batch kernel (see the module docstring)


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
        """This record as the one-row dict ``compute_batch`` returns: a copy
        of the dict ``compute`` kept, or rebuilt from the fields."""
        rows = self.__dict__.get("_rows")
        if rows is not None:
            return dict(rows)
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


@lru_cache(maxsize=1)
def _sandwich_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_form_stack`` as tables (xor, coef, at): the form at flat place
    at[f] = 4 s + g holds coef[s, g, i] in row i, column xor[s, i] = i ^ s."""
    forms = _form_stack()
    f, i, j = (a.tolist() for a in np.nonzero(forms))
    assert (f, i) == ([k // 4 for k in range(64)], [0, 1, 2, 3] * 16), "a form is not monomial"
    shift = [{i[k] ^ j[k] for k in range(4 * g, 4 * g + 4)} for g in range(16)]
    flat = [g for s in range(4) for g in range(16) if shift[g] == {s}]
    assert [shift[g] for g in flat] == [{k // 4} for k in range(16)], "the forms are not four shifts of four"
    coef = [[forms[g, r, r ^ (k // 4)] for r in range(4)] for k, g in enumerate(flat)]
    xor = [[r ^ s for r in range(4)] for s in range(4)]
    return np.array(xor), np.array(coef).reshape(4, 4, 4), np.array([flat.index(g) for g in range(16)])


def _sandwich(psis: np.ndarray, dual: DualKind, xi: np.ndarray | None, abjk: np.ndarray) -> np.ndarray:
    """dual . F[f] . psi for every row and form: A, B/i, J and K written into
    the (n, 10) ``abjk``, and the (n, 6) S^{mu nu} with mu < nu returned.  Each
    value sums the four nonzero products (dual_i F[f]_{i, i^s}) psi_{i^s}
    over i = 0..3 from +0."""
    if dual is DualKind.MDO and xi is None:
        raise ValueError("MDO dual requires the Xi operator")
    duals = dirac_dual(psis) if dual is DualKind.DIRAC else mdo_dual(psis, xi)
    xor, coef, at = _sandwich_tables()
    vals = np.einsum("in,sgi,sin->sgn", duals.T, coef, psis.T.take(xor, axis=0)).reshape(16, -1)
    abjk[...] = vals.take(at[:10], axis=0).T
    return vals.take(at[10:], axis=0).T


def _covariants(
    psis: np.ndarray, dual: DualKind, xi: np.ndarray | None, abjk: np.ndarray, S: np.ndarray
) -> dict[str, np.ndarray]:
    """``compute_batch`` of one block of rows: A, J and K are views of its
    (n, 10) ``abjk`` and S is its zeroed (n, 4, 4) ``S``, both filled here."""
    s_upper = _sandwich(psis, dual, xi, abjk)
    S[:, _MU, _NU] = s_upper
    S[:, _NU, _MU] = np.negative(s_upper, out=s_upper)
    A = abjk[:, 0]
    B = 1j * abjk[:, 1]
    if dual is DualKind.DIRAC:
        c = np.conj(psis)
        A1 = c[:, 2] * psis[:, 0] + c[:, 3] * psis[:, 1]
        A2 = c[:, 0] * psis[:, 2] + c[:, 1] * psis[:, 3]
    else:
        # component formulas are a Dirac-dual statement; fall back to the
        # equivalent scalar combinations
        A1 = (A + 1j * B) / 2.0
        A2 = (A - 1j * B) / 2.0
    return {
        "A": A,
        "B": B,
        "J": abjk[:, 2:6],
        "K": abjk[:, 6:10],
        "S": S,
        "A1": A1,
        "A2": A2,
        "scale": (np.abs(psis) ** 2).sum(axis=1),
    }


def _blocks(n: int):
    """Row slices of the blocks of an n-row pass."""
    return (slice(start, start + _BLOCK) for start in range(0, n, _BLOCK))


def compute_batch(
    psis: np.ndarray,
    dual: DualKind = DualKind.DIRAC,
    xi: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Vectorized covariants for a (n, 4) stack of spinors.

    Returns arrays keyed "A", "B", "J" (n,4), "K" (n,4), "S" (n,4,4),
    "A1", "A2", "scale"; A, J and K are views of one (n, 10) array.  ``xi``
    is one Xi for every row or an (n, 4, 4) stack, sliced with the blocks.
    """
    psis = np.atleast_2d(np.asarray(psis, dtype=complex))
    n = psis.shape[0]
    abjk = np.empty((n, 10), dtype=complex)
    S = np.zeros((n, 4, 4), dtype=complex)
    if n <= _BLOCK:
        return _covariants(psis, dual, xi, abjk, S)
    out = {"A": abjk[:, 0], "B": np.empty(n, complex), "J": abjk[:, 2:6], "K": abjk[:, 6:10], "S": S}
    out.update(A1=np.empty(n, complex), A2=np.empty(n, complex), scale=np.empty(n))
    for rows in _blocks(n):
        block = _covariants(psis[rows], dual, xi if np.ndim(xi) < 3 else xi[rows], abjk[rows], S[rows])
        for key in ("B", "A1", "A2", "scale"):  # A, J, K and S are written in place
            out[key][rows] = block[key]
    return out


def compute(
    psi: np.ndarray,
    dual: DualKind = DualKind.DIRAC,
    xi: np.ndarray | None = None,
) -> Bilinears:
    """All bilinear covariants of a single spinor: row 0 of ``compute_batch``,
    with the Python numbers and row views ``errors.one_row`` would give.  The
    record keeps the one-row dict, outside its fields, for ``as_batch``."""
    rows = compute_batch(np.asarray(psi, dtype=complex).reshape(1, 4), dual, xi)
    item = {k: rows[k].item() for k in ("A", "B", "A1", "A2", "scale")}
    b = Bilinears(J=rows["J"][0], K=rows["K"][0], S=rows["S"][0], dual=dual, **item)
    object.__setattr__(b, "_rows", rows)
    return b


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
    return FastBilinears(**one_row(compute_fast_batch(np.asarray(base, dtype=complex).reshape(1, 4), [r1], [r2]), True))


def fpk_residuals_batch(b: dict[str, np.ndarray]) -> np.ndarray:
    """The four constraint residuals for batched covariants; shape (n, 4).

    Residual 2 uses the combination that vanishes identically in this
    representation: J_mu K_nu - K_mu J_nu + B S_{mu nu}
    - (A/2) eps_{mu nu alpha beta} S^{alpha beta}, where eps is the
    permutation symbol with eps_0123 = +1 (equivalently the tensor with
    eps^0123 = +1) and lower indices come from eta, for an antisymmetric S.
    """
    J, K, S, A, B = b["J"], b["K"], b["S"], b["A"], b["B"]
    n = J.shape[0]
    out = np.empty((n, 4))
    if n <= _BLOCK:
        _fpk_residuals(J, K, S, A, B, out)
    else:
        for rows in _blocks(n):
            _fpk_residuals(J[rows], K[rows], S[rows], A[rows], B[rows], out[rows])
    return out


def _fpk_residuals(J, K, S, A, B, out: np.ndarray) -> None:
    """``fpk_residuals_batch`` of one block of rows, written into its (n, 4) ``out``."""
    Jl = J * _ETA
    Kl = K * _ETA

    j2 = np.einsum("nm,nm->n", J, Jl)
    k2 = np.einsum("nm,nm->n", K, Kl)
    jk = np.einsum("nm,nm->n", J, Kl)

    np.abs(j2 - A**2 - B**2, out=out[:, 0])
    # every entry, not the upper half: numpy's complex multiply may fuse, so
    # for complex J, K the product x y can differ from y x in the last bit;
    # each product keeps its operand order, into the one scratch stack
    comb = Jl[:, :, None] * Kl[:, None, :]
    term = np.multiply(Kl[:, :, None], Jl[:, None, :])
    comb -= term
    comb += np.multiply(B[:, None, None], np.multiply(S, _ETA2, out=term), out=term)
    # "clip" leaves the in-range table as it is; a "raise" take buffers its out
    hodge = np.multiply(S.reshape(-1, 16).take(_HODGE_AT, axis=1, out=term, mode="clip"), _HODGE, out=term)
    comb -= np.multiply((A / 2.0)[:, None, None], hodge, out=term)
    np.abs(comb, out=term.real).max(axis=(1, 2), out=out[:, 1])
    np.abs(jk, out=out[:, 2])
    np.abs(j2 + k2, out=out[:, 3])


def fpk_residuals(b: Bilinears) -> np.ndarray:
    """Raw residuals of the four constraints for one covariant record."""
    return fpk_residuals_batch(b.as_batch())[0]


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

