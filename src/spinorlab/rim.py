"""Coupling validation over the s-space, potentials, and the pointwise
derivative-condition identities.

Every function computes over rows; a scalar call (one (4,) spinor, one
Bilinears, scalar angles) is one row, unwrapped by ``errors.one_row``.
``pointwise_residuals`` and ``validate_rim_base`` run in row blocks.

The derivative condition reads d_mu psi = (a J_mu - b K_mu gamma5) psi.
Sign constraint: with the stored K^mu = psibar gamma5 gamma^mu psi one has
slash(K) gamma5 psi = +(A + iB gamma5) psi, so the axial coupling must carry
the minus sign for solutions to satisfy the cubic field equation
i gamma^mu d_mu psi = 2s (A + iB gamma5) psi with 2s = i(a - b).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bilinear import Bilinears, by_row_blocks, compute_batch
from .clifford import ETA, build, minkowski_dot, slash
from .errors import DegenerateB, InconsistentBilinears, IntegrabilityViolation, NullCurrent, one_row, raise_first
from .spinor import DEFAULT_TOL, chiral_overlaps

_TWO_PI = 2.0 * math.pi
# edges of the (open) quarter-turn intervals for the polar angles of a and b
_EDGES = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0, _TWO_PI)
# admissible (W_i, Z_j) quarter pairs, numbered domains 1..6
DOMAIN_PAIRS = {(1, 1): 1, (4, 1): 2, (4, 4): 3, (2, 2): 4, (3, 2): 5, (3, 3): 6}
# domain number by (W, Z) quarter numbers; quarter 0 (an edge) is outside
_DOMAIN_TABLE = np.zeros((5, 5), dtype=int)
_DOMAIN_TABLE[tuple(zip(*DOMAIN_PAIRS))] = list(DOMAIN_PAIRS.values())


class OmegaDomain(enum.Enum):
    OMEGA_1 = 1
    OMEGA_2 = 2
    OMEGA_3 = 3
    OMEGA_4 = 4
    OMEGA_5 = 5
    OMEGA_6 = 6
    OUTSIDE = 0


@dataclass(frozen=True)
class RimParams:
    a: complex
    b: complex
    s: float
    rho: float
    domain: OmegaDomain


@dataclass(frozen=True)
class Potentials:
    S: float
    R: float


# the base constraints of ``validate_rim_base``, in the order of ``failed``
BASE_CONSTRAINTS = ("A=0", "B=0", "A1=0", "A2=0", "A1=+A2", "A1=-A2")


@dataclass(frozen=True)
class BaseValidation:
    """One base's verdict, or (n,) verdicts; ``failed`` flags each of
    ``BASE_CONSTRAINTS`` along its last axis."""

    ok: bool
    failed: np.ndarray


def _quarter(phi):
    """Number 1..4 of the open quarter that holds an angle in [0, 2 pi), or 0
    on a quarter edge; elementwise on arrays."""
    return sum(i * ((lo < phi) & (phi < hi)) for i, (lo, hi) in enumerate(zip(_EDGES, _EDGES[1:]), start=1))


def domain_of(phi1, phi2):
    """Domain tag of a polar-angle pair; boundaries classify outside.

    On (n,) arrays of angles it returns the (n,) array of the tags' values.
    """
    code = _DOMAIN_TABLE[_quarter(np.atleast_1d(phi1) % _TWO_PI), _quarter(np.atleast_1d(phi2) % _TWO_PI)]
    return one_row(code, np.ndim(phi1) == np.ndim(phi2) == 0, OmegaDomain)


def validate(a, b, tol: float = DEFAULT_TOL) -> RimParams:
    """Check the coupling pair and derive (s, rho, domain).

    a and b are complex scalars or (n,) arrays; on arrays every field of the
    result is an (n,) array (the domain holds the tags' values).  Raises
    IntegrabilityViolation when Re(a) != Re(b) and DegenerateB when
    Im(b) = 0, naming the first failing row of an array.  An angle pair
    outside every domain is a tag, not an error.
    """
    scale = np.fmax(1.0, np.fmax(np.abs(a), np.abs(b)))  # fmax skips a NaN, as Python's max did
    unequal = np.abs(a.real - b.real) > tol * scale
    raise_first(unequal, IntegrabilityViolation, "Re(a)={!r} != Re(b)={!r}", a.real, b.real)
    raise_first(np.abs(b.imag) <= tol * scale, DegenerateB, "Im(b) = 0 makes the axial potential diverge")
    s = 0.5 * (b.imag - a.imag)  # real part of i(a - b)/2
    rho = (a.imag - b.imag) / b.imag
    return RimParams(a=a, b=b, s=s, rho=rho, domain=domain_of(np.angle(a) % _TWO_PI, np.angle(b) % _TWO_PI))


def potentials(cov, params: RimParams) -> Potentials:
    """Scalar potentials S = ln(J)/(2 Re a), R = ln((A-iB)/J)/(2i Im b).

    ``cov`` is one spinor's Bilinears with scalar couplings, or a
    ``compute_batch`` dict with (n,) couplings, giving (n,) potentials.
    Principal branch for both logarithms; R is real whenever A and B are.
    Raises NullCurrent unless J is timelike, naming the first such row.
    """
    one = isinstance(cov, Bilinears)
    rows = cov.rows if one else cov
    j2 = minkowski_dot(rows["J"], rows["J"]).real
    null = j2 <= DEFAULT_TOL * np.maximum(1.0, rows["scale"] ** 2)
    raise_first(one_row(null, one), NullCurrent, "J^2 <= 0: potentials need a timelike current")
    j = np.sqrt(j2)
    s_pot = np.log(j) / (2.0 * np.real(params.a))
    r_pot = (np.log((rows["A"] - 1j * rows["B"]) / j) / (2j * np.imag(params.b))).real
    return Potentials(*one_row((s_pot, r_pot), one))


def vartheta(params: RimParams, pots: Potentials):
    """Phase factor exp(2 i s R); unit modulus for real s and R.  A complex,
    or (n,) phases for (n,) couplings and potentials."""
    return one_row(np.exp(2j * np.atleast_1d(params.s) * pots.R), np.ndim(params.s) == np.ndim(pots.R) == 0)


def pointwise_residuals(psi: np.ndarray, params: RimParams):
    """(Heisenberg, d_mu A, d_mu B) residuals from one pass over the spinors.

    Heisenberg: the norm of i gamma^mu D_mu psi - 2s (A + iB gamma5) psi,
    which vanishes identically for any spinor and any valid coupling pair;
    this is the pointwise statement that condition solutions solve the
    cubic equation.  The max-over-mu residuals of
    d_mu A = (a+abar) A J_mu + i(b-bbar) B K_mu and
    d_mu B = (a+abar) B J_mu - i(b-bbar) A K_mu; the sign of the K-term in
    the B identity is the one that closes algebraically in this
    representation, and the dual derivative is (D_mu psi)^dag gamma0.
    Floats for one (4,) spinor, (n,) arrays for an (n, 4) stack, whose
    couplings may be scalars or (n,) arrays.
    """
    psis = np.atleast_2d(np.asarray(psi, dtype=complex))
    couplings = (np.broadcast_to(np.atleast_1d(c), len(psis)) for c in (params.a, params.b, params.s))
    return one_row(by_row_blocks(_residuals, psis, *couplings), np.ndim(psi) == 1)


def _residuals(psis: np.ndarray, a: np.ndarray, b: np.ndarray, s: np.ndarray) -> tuple:
    """``pointwise_residuals`` of one block and its (m,) couplings, from the
    (m, 4mu, 4) stack D_mu psi = (a J_mu - b K_mu gamma5) psi, J_mu and K_mu lowered by eta."""
    cov = compute_batch(psis)
    g = build()
    g5psi = psis @ g.gamma5.T
    a, b = a.astype(complex), b.astype(complex)
    jl = cov["J"] * ETA
    kl = cov["K"] * ETA
    d = a[:, None, None] * jl[:, :, None] * psis[:, None, :] - b[:, None, None] * kl[:, :, None] * g5psi[:, None, :]
    lhs = 1j * np.einsum("mij,nmj->ni", np.stack(g.gamma), d)
    rhs = 2.0 * s[:, None] * (cov["A"][:, None] * psis + 1j * cov["B"][:, None] * g5psi)
    heisenberg = np.linalg.norm(lhs - rhs, axis=1)
    g0 = g.gamma[0]
    dbar = np.conj(d) @ g0  # (n, 4mu, 4)
    dual = np.conj(psis) @ g0
    da = np.einsum("nmj,nj->nm", dbar, psis) + np.einsum("nj,nmj->nm", dual, d)
    g5d = np.einsum("ij,nmj->nmi", g.gamma5, d)
    db = 1j * (np.einsum("nmj,nj->nm", dbar, g5psi) + np.einsum("nj,nmj->nm", dual, g5d))
    two_re_a = (a + np.conj(a))[:, None]
    i_two_im_b = (1j * (b - np.conj(b)))[:, None]
    rhs_a = two_re_a * cov["A"][:, None] * jl + i_two_im_b * cov["B"][:, None] * kl
    rhs_b = two_re_a * cov["B"][:, None] * jl - i_two_im_b * cov["A"][:, None] * kl
    del_a = np.max(np.abs(da - rhs_a), axis=1)
    del_b = np.max(np.abs(db - rhs_b), axis=1)
    return heisenberg, del_a, del_b


def validate_rim_base(psi: np.ndarray, tol: float = DEFAULT_TOL) -> BaseValidation:
    """Accept a base iff A, B, A1, A2 are all nonzero and A1 != +-A2.

    Under the Dirac dual A2 = conj(A1), so the essential content is
    A != 0 and B != 0 (type 1); the remaining constraints are reported
    individually so a rejection names what failed.  An (n, 4) stack gives
    an (n,) ``ok`` and an (n, 6) ``failed``, computed in row blocks.  The
    scalars themselves are ``compute_batch``'s A, B and
    ``spinor.chiral_overlaps``' A1, A2.
    """
    psis = np.atleast_2d(np.asarray(psi, dtype=complex))
    fields = by_row_blocks(lambda rows: _base_checks(rows, compute_batch(rows), tol), psis)
    return BaseValidation(*one_row(fields, np.ndim(psi) == 1))


def _base_checks(psis: np.ndarray, cov: dict[str, np.ndarray], tol: float) -> tuple:
    """``validate_rim_base`` of one block of rows and their covariants."""
    thr = tol * np.maximum(1.0, cov["scale"])
    A1, A2 = chiral_overlaps(psis)
    zero = np.stack([cov["A"], cov["B"], A1, A2, A1 - A2, A1 + A2], axis=-1)
    failed = np.abs(zero) <= thr[:, None]
    return ~failed.any(axis=-1), failed


def restriction_operator(cov, tol: float = DEFAULT_TOL) -> np.ndarray:
    """G = (1/2 J^2) J^mu K^alpha [gamma_alpha, gamma_mu] gamma5.

    Also evaluates the unreduced form (1/J^2) slash(K) slash(J) gamma5 and
    checks the two agree (they differ by (J.K/J^2) gamma5, zero by the
    orthogonality constraint).  ``cov`` is one spinor's Bilinears, or a
    ``compute_batch`` dict giving the (n, 4, 4) stack of operators; a
    failing row is named.
    """
    one = isinstance(cov, Bilinears)
    rows = cov.rows if one else cov
    j2 = minkowski_dot(rows["J"], rows["J"])[:, None, None]
    bound = tol * np.maximum(1.0, rows["scale"] ** 2)[:, None, None]
    null = (np.abs(j2) <= bound)[:, 0, 0]
    raise_first(one_row(null, one), NullCurrent, "J^2 = 0: restriction operator undefined")
    g5 = build().gamma5
    sk = slash(rows["K"])
    sj = slash(rows["J"])
    g_comm = (sk @ sj - sj @ sk) @ g5 / (2.0 * j2)
    g_raw = sk @ sj @ g5 / j2
    # the forms differ by (J.K / J^2) gamma5, so this bounds |J.K|
    apart = (np.max(np.abs(g_comm - g_raw), axis=(1, 2), keepdims=True) > bound / np.abs(j2))[:, 0, 0]
    raise_first(one_row(apart, one), InconsistentBilinears, "J.K != 0: the two operator forms disagree")
    return one_row(g_comm, one)
