"""Bilinear covariants: generic matrix route and the fast component route.

Stored components are contravariant: J[mu] = dual . gamma^mu . psi,
K[mu] = dual . gamma5 gamma^mu . psi, S[mu][nu] = dual . i gamma^mu gamma^nu . psi
(antisymmetric, zero diagonal).  Under the Dirac dual A, B, J, K, S are all
real; the chiral overlaps A1, A2 behind A and B are
``spinor.chiral_overlaps``, which the component route reads.

The matrix sandwich dual . F[f] . psi is the oracle route.  Each of the 16
``_form_stack`` matrices is monomial (one entry +-1 or +-i per row i, in
column i XOR s), so ``compute_batch`` sums only the nonzero products, in the
same order and einsum kernel, and ``fpk_residuals_batch`` uses a sign vector
and a Hodge table: both keep every bit of the full formulas (signed zeros
and inf/NaN placement too), which ``tests/test_bilinear.py`` keeps as references.

Both batch kernels are one pass over their rows, so they hold n-row
temporaries.  A large stack goes through ``by_row_blocks``, the one helper
that cuts rows into blocks; each row's values have the same bits in any block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .clifford import ETA, build
from .spinor import DualKind, chiral_overlaps, dirac_dual, mdo_dual, norm_sq

_S_INDEX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_MU, _NU = np.array(_S_INDEX).T
_ETA2 = ETA[:, None] * ETA  # eta_mm eta_nn, which lowers both indices of S
# Seps_mn = 2 eps_{m n a b} S^{a b} (eps_0123 = +1) of an antisymmetric S, over the
# complementary a < b, is _HODGE[m, n] * S^{a b} with 4 a + b = _HODGE_AT[m, n]
_HODGE_AT = np.array([[0, 11, 7, 6], [11, 0, 3, 2], [7, 3, 0, 1], [6, 2, 1, 0]])
_HODGE = np.array([[0.0, 2.0, -2.0, 2.0], [-2.0, 0.0, 2.0, -2.0], [2.0, -2.0, 0.0, 2.0], [-2.0, 2.0, -2.0, 0.0]])
# Rows per block of ``by_row_blocks`` and of the CLI's corpus passes: a
# block's (m, 16)-sized kernel temporaries stand in for n-row ones whose
# fresh pages a pass would pay for.  Why 1024: over the acceptance verify
# suites in one process (medians of 8 alternating passes, 2-vCPU host),
# 512-row blocks were about 9% slower than one pass, as numpy's per-call
# cost outweighs the smaller temporaries, and 1024- and 2048-row blocks
# 7-14% faster; on a 10^4-row ``classify``, 4096-row blocks raised the
# traced peak from 6.4 to 8.0 MiB.
_BLOCK = 1024


@dataclass(frozen=True)
class Bilinears:
    """All covariants of one spinor, read from ``rows``, the one-row dict
    ``compute_batch`` returns: A, B and scale as Python numbers, and J, K
    and S as row views, so the fields cannot disagree with the rows.  The
    chiral overlaps A1, A2 are ``spinor.chiral_overlaps`` of the spinor."""

    rows: dict[str, np.ndarray] = field(repr=False, compare=False)
    A: complex = field(init=False)
    B: complex = field(init=False)
    J: np.ndarray = field(init=False)
    K: np.ndarray = field(init=False)
    S: np.ndarray = field(init=False)
    dual: DualKind
    scale: float = field(init=False)  # sum |c_i|^2 of the source spinor

    def __post_init__(self):
        for key in ("A", "B", "scale"):
            object.__setattr__(self, key, self.rows[key].item())
        for key in ("J", "K", "S"):
            object.__setattr__(self, key, self.rows[key][0])


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


def _blocks(n: int):
    """Row slices of the blocks of an n-row pass."""
    return (slice(start, start + _BLOCK) for start in range(0, n, _BLOCK))


def by_row_blocks(fn, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """fn(*arrays) on the ``_BLOCK``-row blocks of its n-row arrays: each of
    the per-row arrays fn returns is written into an n-row output allocated
    once, so a pass holds those and one block's temporaries.  Up to
    ``_BLOCK`` rows are one call, returned as it is.  This is the one helper
    that cuts rows into blocks for the batch kernels."""
    n = len(arrays[0])
    if n <= _BLOCK:
        return fn(*arrays)
    outs = None
    for rows in _blocks(n):
        part = fn(*(a[rows] for a in arrays))
        if outs is None:
            outs = tuple(np.empty((n,) + p.shape[1:], p.dtype) for p in part)
        for out, p in zip(outs, part):
            out[rows] = p
    return outs


def compute_batch(
    psis: np.ndarray,
    dual: DualKind = DualKind.DIRAC,
    xi: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Vectorized covariants for a (n, 4) stack of spinors, in one pass.

    Returns arrays keyed "A", "B", "J" (n,4), "K" (n,4), "S" (n,4,4) and
    "scale"; A, B, J and K are views of one (n, 10) array.  ``xi``
    is one Xi for every row or an (n, 4, 4) stack.
    """
    psis = np.atleast_2d(np.asarray(psis, dtype=complex))
    abjk = np.empty((psis.shape[0], 10), dtype=complex)
    S = np.zeros((psis.shape[0], 4, 4), dtype=complex)
    s_upper = _sandwich(psis, dual, xi, abjk)
    B = abjk[:, 1]
    B *= 1j  # B/i -> B in place
    S[:, _MU, _NU] = s_upper
    S[:, _NU, _MU] = np.negative(s_upper, out=s_upper)
    return {
        "A": abjk[:, 0],
        "B": B,
        "J": abjk[:, 2:6],
        "K": abjk[:, 6:10],
        "S": S,
        "scale": norm_sq(psis),
    }


def compute(
    psi: np.ndarray,
    dual: DualKind = DualKind.DIRAC,
    xi: np.ndarray | None = None,
) -> Bilinears:
    """All bilinear covariants of a single spinor: the record of row 0 of
    ``compute_batch``, with the Python numbers and row views
    ``errors.one_row`` would give."""
    return Bilinears(compute_batch(np.asarray(psi, dtype=complex).reshape(1, 4), dual, xi), dual)


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

    a1, a2 = chiral_overlaps(bases)
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


def fpk_residuals_batch(b: dict[str, np.ndarray]) -> np.ndarray:
    """The four constraint residuals for batched covariants; shape (n, 4).

    Residual 2 uses the combination that vanishes identically in this
    representation: J_mu K_nu - K_mu J_nu + B S_{mu nu}
    - (A/2) eps_{mu nu alpha beta} S^{alpha beta}, where eps is the
    permutation symbol with eps_0123 = +1 (equivalently the tensor with
    eps^0123 = +1) and lower indices come from eta, for an antisymmetric S.
    """
    J, K, S, A, B = b["J"], b["K"], b["S"], b["A"], b["B"]
    out = np.empty((J.shape[0], 4))
    Jl = J * ETA
    Kl = K * ETA

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
    return out


def fpk_residuals(b: Bilinears) -> np.ndarray:
    """Raw residuals of the four constraints for one covariant record."""
    return fpk_residuals_batch(b.rows)[0]


def from_scalars(
    A: complex,
    B: complex,
    J,
    K,
    S,
    dual: DualKind = DualKind.DIRAC,
    scale: float = 1.0,
) -> Bilinears:
    """Assemble a covariant record by hand (for tests and fixed examples):
    the one-row dict of the given values, as complex rows and a float scale."""
    values = {"A": A, "B": B, "J": J, "K": K, "S": S}
    rows = {key: np.asarray(value, dtype=complex)[None] for key, value in values.items()}
    rows["scale"] = np.array([float(scale)])
    return Bilinears(rows, dual)
