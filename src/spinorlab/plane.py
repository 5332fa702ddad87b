"""Two-dimensional coordinate space of block-decomposable spinors.

A reference spinor with nonzero chiral blocks spans the plane; any member is
r1*block1(base) + r2*block2(base) = (r1, r2) in the base's own basis "B".
The Dirac- and MDO-image bases "D" and "M" are reached through block-scalar
operators built from the six map coefficients; every change of basis is an
invertible block-scalar operator (c1 on block 1, c2 on block 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilinear import Bilinears
from .errors import (
    BasisMismatch,
    DegenerateBasis,
    DegenerateRealPart,
    InvalidBase,
    NonInvertible,
    NotInPlane,
    SpinorlabError,
    ZeroCoefficient,
)
from .rim import RimParams
from .spinor import DEFAULT_TOL, block1, block2

DECOMPOSE_TOL = 1e-8


@dataclass(frozen=True)
class PlaneCoords:
    r1: complex
    r2: complex
    basis: str = "B"


@dataclass(frozen=True)
class MOperator:
    """Block-scalar operator diag(c1, c1, c2, c2); c1 acts on block 1."""

    c1: complex
    c2: complex


@dataclass(frozen=True)
class CoefficientSet:
    """The six complex map coefficients and the inputs that fixed them.

    alpha, beta, delta depend on the base scalars and the couplings; epsilon
    is delta**rho; omega and zeta carry the mass/angle exponentials with an
    explicit overall sign choice.
    """

    alpha: complex
    beta: complex
    delta: complex
    epsilon: complex
    omega: complex
    zeta: complex
    M_dirac: float
    m_mdo: float
    theta: float
    sign: int
    rho: float
    J: float
    beta_exponent: complex  # beta = exp(beta_exponent)


@dataclass(frozen=True)
class ChiFactors:
    chi1: complex
    chi2: complex
    chi1_inv: complex
    chi2_inv: complex


def coefficient_set(
    params: RimParams,
    bil: Bilinears,
    M_dirac: float,
    m_mdo: float,
    theta: float,
    sign: int = +1,
    tol: float = DEFAULT_TOL,
) -> CoefficientSet:
    """Evaluate the six coefficients from a valid base's scalars.

    All powers and roots are principal-branch.  Requires A != 0, B != 0 and
    Re(a) != 0.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    A = complex(bil.A)
    B = complex(bil.B)
    s = max(1.0, abs(A), abs(B))
    if abs(A) <= tol * s or abs(B) <= tol * s:
        raise InvalidBase("coefficients need a base with A != 0 and B != 0")
    re_a = params.a.real
    if abs(re_a) <= tol * max(1.0, abs(params.a)):
        raise DegenerateRealPart("Re(a) = 0")
    j = np.sqrt((A - 1j * B) * (A + 1j * B)).real
    alpha = np.exp(1j * M_dirac / (2.0 * re_a * j))
    beta_exponent = -1j * (params.a.imag / (2.0 * re_a)) * np.log(j)
    beta = np.exp(beta_exponent)
    delta = np.sqrt(j / (A - 1j * B))
    epsilon = delta**params.rho
    omega = np.exp(sign * m_mdo * np.sin(theta) / (4.0 * re_a * (A - 1j * B)))
    zeta = np.exp(sign * m_mdo * np.sin(theta) / (4.0 * re_a * (A + 1j * B)))
    return CoefficientSet(
        alpha=complex(alpha),
        beta=complex(beta),
        delta=complex(delta),
        epsilon=complex(epsilon),
        omega=complex(omega),
        zeta=complex(zeta),
        M_dirac=float(M_dirac),
        m_mdo=float(m_mdo),
        theta=float(theta),
        sign=int(sign),
        rho=float(params.rho),
        J=float(j),
        beta_exponent=complex(beta_exponent),
    )


def chi_factors(c: CoefficientSet, tol: float = DEFAULT_TOL) -> ChiFactors:
    """chi1 = eps*omega/(delta*beta*alpha), chi2 = zeta*delta/(eps*beta*alpha)."""
    coeffs = (c.alpha, c.beta, c.delta, c.epsilon, c.omega, c.zeta)
    if any(abs(x) <= tol for x in coeffs):
        raise ZeroCoefficient("all six coefficients must be nonzero")
    chi1 = c.epsilon * c.omega / (c.delta * c.beta * c.alpha)
    chi2 = c.zeta * c.delta / (c.epsilon * c.beta * c.alpha)
    return ChiFactors(chi1=chi1, chi2=chi2, chi1_inv=1.0 / chi1, chi2_inv=1.0 / chi2)


def make_operator(c1: complex, c2: complex) -> MOperator:
    return MOperator(c1=complex(c1), c2=complex(c2))


def block_scale(psi: np.ndarray, c1, c2) -> np.ndarray:
    """c1*block1(psi) + c2*block2(psi) for a (4,) spinor, or row by row for
    an (n, 4) stack with scalar or (n,) coefficients."""
    psi = np.asarray(psi)
    c1 = np.asarray(c1)[..., None]
    c2 = np.asarray(c2)[..., None]
    return np.concatenate([c1 * psi[..., :2], c2 * psi[..., 2:]], axis=-1, dtype=complex)


def apply_operator(op: MOperator, psi: np.ndarray) -> np.ndarray:
    return block_scale(psi, op.c1, op.c2)


def operator_matrix(op: MOperator) -> np.ndarray:
    return np.diag([op.c1, op.c1, op.c2, op.c2]).astype(complex)


def inverse_operator(op: MOperator, tol: float = DEFAULT_TOL) -> MOperator:
    if abs(op.c1) <= tol or abs(op.c2) <= tol:
        raise NonInvertible("block scalar vanishes")
    return MOperator(c1=1.0 / op.c1, c2=1.0 / op.c2)


def compose_operators(left: MOperator, right: MOperator) -> MOperator:
    return MOperator(c1=left.c1 * right.c1, c2=left.c2 * right.c2)


def l_operator(c: CoefficientSet) -> MOperator:
    """Base -> Dirac image: (alpha beta delta, alpha beta delta^-1)."""
    abd = c.alpha * c.beta * c.delta
    return MOperator(c1=abd, c2=c.alpha * c.beta / c.delta)


def q_operator(c: CoefficientSet) -> MOperator:
    """Base -> MDO image: (epsilon omega, epsilon^-1 zeta)."""
    return MOperator(c1=c.epsilon * c.omega, c2=c.zeta / c.epsilon)


def m_operator(c: CoefficientSet) -> MOperator:
    """Dirac image -> MDO image: the chi factors blockwise."""
    chi = chi_factors(c)
    return MOperator(c1=chi.chi1, c2=chi.chi2)


def dirac_from_base(base: np.ndarray, c: CoefficientSet) -> np.ndarray:
    return apply_operator(l_operator(c), base)


def mdo_from_base(base: np.ndarray, c: CoefficientSet) -> np.ndarray:
    return apply_operator(q_operator(c), base)


def map_dirac_mdo(psi: np.ndarray, c: CoefficientSet, direction: str = "dirac-to-mdo") -> np.ndarray:
    """Bijective block-scalar map between the Dirac and MDO images."""
    op = m_operator(c)
    if direction == "dirac-to-mdo":
        return apply_operator(op, psi)
    if direction == "mdo-to-dirac":
        return apply_operator(inverse_operator(op), psi)
    raise ValueError(f"unknown direction {direction!r}")


_VANISHING_BLOCK = "base block vanishes; coordinate unrecoverable"


def _not_in_plane(resid: float, denom: float, tol: float = DECOMPOSE_TOL) -> NotInPlane:
    """The error of a row whose first failing block has residual ``resid``
    at scale ``denom``."""
    return NotInPlane(f"block residual {resid:.3e} exceeds {tol:.1e} x {denom:.3e}")


def decompose(
    psi: np.ndarray,
    base: np.ndarray,
    basis: str = "B",
    tol: float = DECOMPOSE_TOL,
) -> PlaneCoords:
    """Blockwise least-squares coordinates of psi against a base spinor.

    Each coordinate solves min_r ||psi_blk - r*base_blk||; a residual above
    ``tol`` (relative) means psi is not in the base's plane.  A vanishing
    base block makes that coordinate unrecoverable.
    """
    coords = []
    base_norm = float(np.linalg.norm(np.asarray(base)))
    psi_norm = float(np.linalg.norm(np.asarray(psi)))
    for extract in (block1, block2):
        pb = np.asarray(extract(psi), dtype=complex)
        bb = np.asarray(extract(base), dtype=complex)
        bb_sq = float(np.real(np.vdot(bb, bb)))
        if np.sqrt(bb_sq) <= tol * max(base_norm, 1e-300):
            raise DegenerateBasis(_VANISHING_BLOCK)
        r = complex(np.vdot(bb, pb) / bb_sq)
        resid = float(np.linalg.norm(pb - r * bb))
        denom = max(float(np.linalg.norm(pb)), abs(r) * np.sqrt(bb_sq))
        # blocks that are negligible at the spinor's own scale count as zero
        # coordinates; only blocks that matter must be proportional
        if denom > tol * psi_norm and resid > tol * denom:
            raise _not_in_plane(resid, denom, tol)
        coords.append(r)
    return PlaneCoords(r1=coords[0], r2=coords[1], basis=basis)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a complex stack, bit for bit: one dot
    product per row, the call the 1-D norm makes, where a reduction over
    an axis would add in another order.  The equality rests on how numpy
    dispatches the stacked matmul of the strided ``.real``/``.imag`` views
    (the same product on contiguous copies differs in the last ulp); it was
    checked on numpy 2.4, and ``tests/test_plane.py`` guards it."""
    re, im = x.real, x.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(sq[:, 0, 0])


def decompose_batch(psis: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, SpinorlabError]]:
    """``decompose`` of every row of an (n, 4) stack against one base.

    Returns (coords, residuals, failures): (n, 2) coordinates (r1, r2);
    (n, 2) block residuals ||psi_blk - r*base_blk||; and, by row index, the
    exception ``decompose`` raises on each row that fails.  Coordinates and
    residuals equal ``decompose``'s bit for bit; on a failed row they are
    not meaningful.
    """
    tol = DECOMPOSE_TOL
    psis = np.ascontiguousarray(psis, dtype=complex)
    base = np.asarray(base, dtype=complex)
    n = psis.shape[0]
    coords = np.zeros((n, 2), dtype=complex)
    residuals = np.zeros((n, 2))
    failed = np.zeros(n, dtype=bool)
    misfit = np.zeros((n, 2))
    degenerate = False
    base_norm = float(np.linalg.norm(base))
    # the squares of finite rows above ~1e154 overflow to inf, as in decompose
    with np.errstate(over="ignore"):
        psi_norm = _row_norms(psis)
        for k, block in enumerate((slice(0, 2), slice(2, 4))):
            bb = base[block]
            bb_sq = float(np.real(np.vdot(bb, bb)))
            if np.sqrt(bb_sq) <= tol * max(base_norm, 1e-300):
                degenerate = True
                break
            pb = psis[:, block]
            r = (np.conj(bb) @ pb[:, :, None])[:, 0] / bb_sq
            resid = _row_norms(pb - r[:, None] * bb)
            denom = np.maximum(_row_norms(pb), np.hypot(r.real, r.imag) * np.sqrt(bb_sq))
            bad = ~failed & (denom > tol * psi_norm) & (resid > tol * denom)
            failed |= bad
            misfit[bad, 0] = resid[bad]
            misfit[bad, 1] = denom[bad]
            coords[:, k] = r
            residuals[:, k] = resid
    rows = np.flatnonzero(failed)
    failures = {i: _not_in_plane(resid, denom) for i, (resid, denom) in zip(rows.tolist(), misfit[rows].tolist())}
    if degenerate:
        failures.update((i, DegenerateBasis(_VANISHING_BLOCK)) for i in np.flatnonzero(~failed).tolist())
    return coords, residuals, failures


def basis_scalars(basis: str, c: CoefficientSet) -> tuple[complex, complex]:
    """Blockwise scalars relating a named basis to the base's own basis."""
    if basis == "B":
        return 1.0 + 0j, 1.0 + 0j
    if basis == "D":
        op = l_operator(c)
        return op.c1, op.c2
    if basis == "M":
        op = q_operator(c)
        return op.c1, op.c2
    raise BasisMismatch(f"unknown basis {basis!r}")


def convert_coords(coords: PlaneCoords, to_basis: str, c: CoefficientSet) -> PlaneCoords:
    """Re-express coordinates in another named basis of the same plane."""
    s_from = basis_scalars(coords.basis, c)
    s_to = basis_scalars(to_basis, c)
    return PlaneCoords(
        r1=coords.r1 * s_from[0] / s_to[0],
        r2=coords.r2 * s_from[1] / s_to[1],
        basis=to_basis,
    )
