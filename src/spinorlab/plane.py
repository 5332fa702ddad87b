"""Two-dimensional coordinate space of block-decomposable spinors.

A reference spinor with nonzero chiral blocks spans the plane; any member is
r1*block1(base) + r2*block2(base) = (r1, r2) in the base's own basis "B".
The Dirac- and MDO-image bases "D" and "M" are reached through block-scalar
operators built from the six map coefficients; every change of basis is an
invertible block-scalar operator (c1 on block 1, c2 on block 2).  The
chi factors of the Dirac -> MDO map are ``m_operator``'s c1 and c2, and their
reciprocals are those of its ``inverse_operator``.

The coefficient set, the operators, the maps and ``convert_coords`` take
scalars or (n,) arrays, one row each, and a scalar call has the bits of the
same row of an array call: numpy's array loop fuses the multiply-adds of a
complex product where its scalar multiply does not, so each complex product
has a real factor or is taken between arrays (0-d for a scalar).

``decompose`` stays scalar code, the tests' reference for ``decompose_batch``
and measured by the ``scalar-api`` benchmark workload: a one-row batch call
costs 101 us against its 20 us (best of 10x3000 calls, 2-vCPU host).  It
slices its blocks and takes each norm as two dot products and a
``math.sqrt`` (``_norm``, bit for bit ``np.linalg.norm``), without numpy's
dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisMismatch,
    DegenerateBasis,
    DegenerateRealPart,
    InvalidBase,
    NonInvertible,
    NotInPlane,
    SpinorlabError,
    ZeroCoefficient,
    raise_first,
)
from .rim import RimParams
from .spinor import DEFAULT_TOL, row_norms

DECOMPOSE_TOL = 1e-8


@dataclass(frozen=True)
class PlaneCoords:
    r1: complex
    r2: complex
    basis: str = "B"


@dataclass(frozen=True)
class MOperator:
    """Block-scalar operator diag(c1, c1, c2, c2); c1 acts on block 1.
    c1 and c2 are scalars, or (n,) arrays for one operator per row."""

    c1: complex
    c2: complex


@dataclass(frozen=True)
class CoefficientSet:
    """The six complex map coefficients and J = sqrt(A^2 + B^2).

    alpha, beta, delta depend on the base scalars and the couplings; epsilon
    is delta**rho; omega and zeta carry the mass/angle exponentials with an
    explicit overall sign choice.  Each field is a scalar, or an (n,) array
    in a set for n rows.
    """

    alpha: complex
    beta: complex
    delta: complex
    epsilon: complex
    omega: complex
    zeta: complex
    J: float


def coefficient_set(
    params: RimParams,
    A,
    B,
    M_dirac,
    m_mdo,
    theta,
    sign=+1,
    tol: float = DEFAULT_TOL,
) -> CoefficientSet:
    """Evaluate the six coefficients from a valid base's real scalars A, B.

    The couplings, A, B, the masses, theta and sign are scalars or (n,)
    arrays, and so are the fields of the set.  All powers and roots are
    principal-branch.  Requires A != 0, B != 0 and Re(a) != 0; an array
    raises at its first failing row.
    """
    raise_first((sign != 1) & (sign != -1), ValueError, "sign must be +1 or -1")
    s = np.fmax(1.0, np.fmax(np.abs(A), np.abs(B)))  # fmax skips a NaN, as Python's max did
    raise_first(
        (np.abs(A) <= tol * s) | (np.abs(B) <= tol * s),
        InvalidBase,
        "coefficients need a base with A != 0 and B != 0",
    )
    re_a = params.a.real
    raise_first(np.abs(re_a) <= tol * np.fmax(1.0, np.abs(params.a)), DegenerateRealPart, "Re(a) = 0")
    j = np.sqrt(A * A + B * B)
    amib = A - 1j * B
    alpha = np.exp(1j * (M_dirac / (2.0 * re_a * j)))
    beta = np.exp(-1j * (params.a.imag / (2.0 * re_a) * np.log(j)))
    delta = np.sqrt(j / amib)
    epsilon = delta**params.rho
    omega = np.exp(sign * m_mdo * np.sin(theta) / (4.0 * re_a * amib))
    zeta = np.exp(sign * m_mdo * np.sin(theta) / (4.0 * re_a * (A + 1j * B)))
    return CoefficientSet(
        alpha=alpha,
        beta=beta,
        delta=delta,
        epsilon=epsilon,
        omega=omega,
        zeta=zeta,
        J=j,
    )


def block_scale(psi: np.ndarray, c1, c2) -> np.ndarray:
    """c1*block1(psi) + c2*block2(psi) for a (4,) spinor, or row by row for
    an (n, 4) stack with scalar or (n,) coefficients."""
    psi = np.asarray(psi)
    c1 = np.asarray(c1)[..., None]
    c2 = np.asarray(c2)[..., None]
    return np.concatenate([c1 * psi[..., :2], c2 * psi[..., 2:]], axis=-1, dtype=complex)


def apply_operator(op: MOperator, psi: np.ndarray) -> np.ndarray:
    return block_scale(psi, op.c1, op.c2)


def inverse_operator(op: MOperator) -> MOperator:
    raise_first((np.abs(op.c1) <= DEFAULT_TOL) | (np.abs(op.c2) <= DEFAULT_TOL), NonInvertible, "block scalar vanishes")
    return MOperator(c1=1.0 / op.c1, c2=1.0 / op.c2)


def compose_operators(left: MOperator, right: MOperator) -> MOperator:
    c1, c2 = np.broadcast_arrays(left.c1, left.c2)
    return MOperator(c1=c1 * right.c1, c2=c2 * right.c2)


def l_operator(c: CoefficientSet) -> MOperator:
    """Base -> Dirac image: (alpha beta delta, alpha beta delta^-1)."""
    alpha, beta, delta = np.broadcast_arrays(c.alpha, c.beta, c.delta)
    return MOperator(c1=alpha * beta * delta, c2=alpha * beta / delta)


def q_operator(c: CoefficientSet) -> MOperator:
    """Base -> MDO image: (epsilon omega, epsilon^-1 zeta)."""
    epsilon, omega = np.broadcast_arrays(c.epsilon, c.omega)
    return MOperator(c1=epsilon * omega, c2=c.zeta / epsilon)


def m_operator(c: CoefficientSet) -> MOperator:
    """Dirac image -> MDO image: the chi factors blockwise,
    chi1 = eps*omega/(delta*beta*alpha) and chi2 = zeta*delta/(eps*beta*alpha);
    ``inverse_operator`` of it holds 1/chi1 and 1/chi2."""
    # one shape for all six: a set may mix scalar and (n,) fields
    coeffs = np.broadcast_arrays(c.alpha, c.beta, c.delta, c.epsilon, c.omega, c.zeta)
    raise_first(np.any(np.abs(coeffs) <= DEFAULT_TOL, axis=0), ZeroCoefficient, "all six coefficients must be nonzero")
    alpha, beta, delta, epsilon, omega, zeta = coeffs
    return MOperator(c1=epsilon * omega / (delta * beta * alpha), c2=zeta * delta / (epsilon * beta * alpha))


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


def _not_in_plane(resid: float, denom: float) -> NotInPlane:
    """The error of a row whose first failing block has residual ``resid``
    at scale ``denom``."""
    return NotInPlane(f"block residual {resid:.3e} exceeds {DECOMPOSE_TOL:.1e} x {denom:.3e}")


def _unit_powers(x: np.ndarray) -> np.ndarray:
    """Per row of x, the power of two that brings its largest real or
    imaginary part into [1, 2), so that x divided by it has a finite norm."""
    top = np.maximum(np.abs(x.real).max(axis=-1), np.abs(x.imag).max(axis=-1))
    return np.ldexp(1.0, np.frexp(top)[1] - 1)


# below this norm a base block's squared norm can leave the normal range
# (a block counts as vanishing only below DECOMPOSE_TOL times the norm)
_SMALL_BASE = 2.0**-450


def _divided(x: np.ndarray, p) -> np.ndarray:
    """x / p with each real part divided apart (exact for a power of two)."""
    return (np.ascontiguousarray(x, dtype=complex).view(float) / np.asarray(p)[..., None]).view(complex)


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a float or complex vector, bit for bit: the
    ravel and the two dot products it makes, and a correctly rounded root."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _in_range(x: np.ndarray, small: float = 0.0) -> tuple[np.ndarray, float, float]:
    """(x, ||x||, 1.0); or, when ||x|| overflows or falls below ``small``,
    (x / p, ||x / p||, p) for p = ``_unit_powers(x)``; x as a complex vector,
    its norm taken on the dtype it came in."""
    x = np.asarray(x)
    if x.dtype.kind not in "fc":
        x = x.astype(float)  # as np.linalg.norm measures an integer vector
    norm = _norm(x)
    if small <= norm != np.inf:
        return x.astype(complex, copy=False), norm, 1.0
    p = float(_unit_powers(x))
    x = _divided(x, p)
    return x, _norm(x), p


def _rows_in_range(x: np.ndarray, small: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_in_range`` of each row of an (n, 4) stack: (x, norms, p) with p 1
    on the rows left as they are."""
    norm = row_norms(x)
    scaled = (norm < small) | (norm == np.inf)
    if not scaled.any():
        return x, norm, np.ones(norm.shape)
    p = np.where(scaled, _unit_powers(x), 1.0)
    x = _divided(x, p)
    return x, row_norms(x), p


def decompose(psi: np.ndarray, base: np.ndarray) -> PlaneCoords:
    """Blockwise least-squares coordinates of psi against a base spinor.

    Each coordinate solves min_r ||psi_blk - r*base_blk||; a residual above
    ``DECOMPOSE_TOL`` (relative) means psi is not in the base's plane.  A
    vanishing base block makes that coordinate unrecoverable.  A psi or base
    whose norm overflows, or a base whose blocks' squared norms could
    underflow, is first divided by a power of two, and the results are
    scaled back.
    """
    tol = DECOMPOSE_TOL
    coords = []
    base, base_norm, down = _in_range(base, _SMALL_BASE)
    psi, psi_norm, up = _in_range(psi)
    f = up / down  # 1 unless a norm was out of range
    for block in (slice(0, 2), slice(2, 4)):
        pb, bb = psi[block], base[block]
        bb_sq = float(np.vdot(bb, bb).real)
        bb_norm = math.sqrt(bb_sq)
        if bb_norm <= tol * max(base_norm, 1e-300):
            raise DegenerateBasis(_VANISHING_BLOCK)
        r = complex(np.vdot(bb, pb) / bb_sq)
        resid = _norm(pb - r * bb)
        denom = max(_norm(pb), abs(r) * bb_norm)
        # blocks that are negligible at the spinor's own scale count as zero
        # coordinates; only blocks that matter must be proportional
        if denom > tol * psi_norm and resid > tol * denom:
            raise _not_in_plane(resid * up, denom * up)
        coords.append(complex(r.real * f, r.imag * f))
    return PlaneCoords(r1=coords[0], r2=coords[1])


def decompose_batch(psis: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, SpinorlabError]]:
    """``decompose`` of every row of an (n, 4) stack against one base, or
    against its own row of an (n, 4) stack of bases.

    Returns (coords, residuals, failures): (n, 2) coordinates (r1, r2);
    (n, 2) block residuals ||psi_blk - r*base_blk||; and, by row index, the
    exception ``decompose`` raises on each row that fails.  Coordinates and
    residuals equal ``decompose``'s bit for bit, on rows and bases whose
    norms are out of range too; on a failed row they are not meaningful.
    """
    tol = DECOMPOSE_TOL
    psis = np.ascontiguousarray(psis, dtype=complex)
    n = psis.shape[0]
    coords = np.zeros((n, 2), dtype=complex)
    residuals = np.zeros((n, 2))
    failed = np.zeros(n, dtype=bool)
    degenerate = np.zeros(n, dtype=bool)
    misfit = np.zeros((n, 2))
    # out-of-range norms (finite rows above ~1e154, bases below _SMALL_BASE)
    # are brought into range; a vanishing block divides by zero
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bases, base_norm, down = _rows_in_range(np.atleast_2d(np.asarray(base, dtype=complex)), _SMALL_BASE)
        psis, psi_norm, up = _rows_in_range(psis)
        for k, block in enumerate((slice(0, 2), slice(2, 4))):
            bb = bases[:, block]
            bb_sq = (np.conj(bb)[:, None, :] @ bb[:, :, None])[:, 0, 0].real
            degenerate |= ~failed & (np.sqrt(bb_sq) <= tol * np.maximum(base_norm, 1e-300))
            failed |= degenerate
            pb = psis[:, block]
            r = (np.conj(bb)[:, None, :] @ pb[:, :, None])[:, 0, 0] / bb_sq
            resid = row_norms(pb - r[:, None] * bb)
            denom = np.maximum(row_norms(pb), np.hypot(r.real, r.imag) * np.sqrt(bb_sq))
            bad = ~failed & (denom > tol * psi_norm) & (resid > tol * denom)
            failed |= bad
            misfit[bad, 0] = resid[bad]
            misfit[bad, 1] = denom[bad]
            coords[:, k] = r
            residuals[:, k] = resid
    coords = (coords.view(float) * (up / down)[:, None]).view(complex)
    residuals *= up[:, None]
    misfit *= up[:, None]
    rows = np.flatnonzero(failed & ~degenerate)
    failures = {i: _not_in_plane(resid, denom) for i, (resid, denom) in zip(rows.tolist(), misfit[rows].tolist())}
    failures.update((i, DegenerateBasis(_VANISHING_BLOCK)) for i in np.flatnonzero(degenerate).tolist())
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
    """Re-express coordinates in another named basis of the same plane;
    elementwise for (n,) coordinates and a set for n rows."""
    s_from = basis_scalars(coords.basis, c)
    s_to = basis_scalars(to_basis, c)
    r1, r2 = np.broadcast_arrays(coords.r1, coords.r2)
    return PlaneCoords(
        r1=r1 * s_from[0] / s_to[0],
        r2=r2 * s_from[1] / s_to[1],
        basis=to_basis,
    )
