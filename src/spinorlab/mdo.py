"""Mass-dimension-one (Elko-type) spinors, the Xi involution and their
momentum-space identities.

Construction: lambda = (sign * i * Theta conj(phi_L), phi_L) with phi_L the
boosted helicity spinor sqrt(E - h p) * phi_unit^h, where E - h p is formed
as m^2 / (E + h p) when h p > 0, because the difference cancels for
p >> m.  The charge-conjugation operator is gamma^2 composed with complex
conjugation (phase exactly 1 in this representation); self-conjugate
spinors carry sign = +1, anti-self-conjugate sign = -1.

Every function here takes a ``Momentum`` whose fields are scalars, or
(n,) arrays for n momenta at once, with stacked results (an (n, 4) spinor,
an (n, 4, 4) Xi).  A scalar momentum is computed as the one-row array and
its results are unwrapped by ``errors.one_row``, so they have the bits of
its row in a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# ``compute`` stays importable from here: bench/test_bench.py checks that
# the benchmark's tracer patches this binding
from .bilinear import Bilinears, compute, compute_batch  # noqa: F401
from .clifford import build, slash
from .errors import NonFiniteMomentum, one_row, raise_first
from .rim import RimParams
from .spinor import DualKind, assemble, mdo_dual, row_norms

# realized eigenvalue of slash(p) Xi on a constructed spinor, by conjugacy
DIRACLIKE_SIGN = {"S": +1, "A": -1}
# math.hypot elementwise: np.hypot rounds about 1% of energies differently
_HYPOT = np.frompyfunc(math.hypot, 2, 1)


@dataclass(frozen=True)
class Momentum:
    """(m, p, theta, phi) and E = hypot(p, m); scalars or (n,) arrays."""

    m: float
    p: float
    theta: float
    phi: float
    E: float = field(init=False)

    def __post_init__(self):
        raise_first(np.asarray(self.m) <= 0, ValueError, "mass must be positive")
        raise_first(np.asarray(self.p) < 0, ValueError, "|p| must be non-negative")
        E = _HYPOT(*np.atleast_1d(self.p, self.m)).astype(float)
        object.__setattr__(self, "E", one_row(E, self.one))

    @property
    def one(self) -> bool:
        return np.ndim(self.m) == np.ndim(self.p) == np.ndim(self.theta) == np.ndim(self.phi) == 0

    def rows(self) -> tuple[np.ndarray, ...]:
        """(m, p, theta, phi, E) as (n,) arrays, one row for a scalar momentum."""
        return tuple(np.atleast_1d(v) for v in (self.m, self.p, self.theta, self.phi, self.E))


@dataclass(frozen=True)
class ElkoSpinor:
    spinor: np.ndarray
    sign: int


def _check_finite(mom: Momentum, value: np.ndarray, what: str) -> None:
    """NonFiniteMomentum naming the first momentum whose ``value`` rows
    hold an inf or NaN."""
    bad = ~np.isfinite(value.reshape(len(value), -1).view(float)).all(axis=1)
    raise_first(
        one_row(bad, mom.one),
        NonFiniteMomentum,
        "momentum m={!r}, p={!r}, theta={!r}, phi={!r}: " + what,
        mom.m, mom.p, mom.theta, mom.phi,
    )


def wigner_theta() -> np.ndarray:
    """2x2 time-reversal matrix [[0,-1],[1,0]]; Theta sigma Theta^-1 = -sigma*."""
    return np.array([[0.0, -1.0], [1.0, 0.0]])


def helicity_spinor(theta, phi, h) -> np.ndarray:
    """Unit eigenvector of sigma.phat with eigenvalue h, half-angle phases
    e^{-+ i phi/2} on the upper/lower components; (n, 2) for (n,) angles
    or helicities."""
    raise_first((np.asarray(h) != 1) & (np.asarray(h) != -1), ValueError, "helicity must be +1 or -1")
    up = np.exp(-0.5j * np.asarray(phi))
    dn = np.exp(+0.5j * np.asarray(phi))
    c, s = np.cos(np.asarray(theta) / 2.0), np.sin(np.asarray(theta) / 2.0)
    plus = np.asarray(h) > 0
    return np.stack([np.where(plus, c, -s) * up, np.where(plus, s, c) * dn], axis=-1)


def sigma_phat(theta, phi) -> np.ndarray:
    st, ct = np.sin(theta), np.cos(theta)
    rows = [[ct, st * np.exp(-1j * np.asarray(phi))], [st * np.exp(1j * np.asarray(phi)), -ct]]
    return np.stack([np.stack(np.broadcast_arrays(*row), axis=-1) for row in rows], axis=-2).astype(complex)


def boosted_left(mom: Momentum, h) -> np.ndarray:
    """Left-handed block sqrt(E - h p) * phi_unit^h.

    The scalar is the helicity eigenvalue of the canonical left boost acting
    on the sqrt(m)-normalized rest spinor; at p = 0 it reduces to sqrt(m).
    Where h p > 0, E - h p is formed as m^2 / (E + h p), which does not
    cancel when E rounds to p.
    """
    m, p, theta, phi, E = mom.rows()
    hp = h * p
    # E + |h p| >= E > 0, so neither branch divides by zero
    left = np.where(hp > 0, m / (E + np.abs(hp)) * m, E - hp)
    return one_row(np.sqrt(left)[:, None] * helicity_spinor(theta, phi, h), mom.one)


def elko(mom: Momentum, helicity, conj: str) -> ElkoSpinor:
    """Construct a dual-helicity spinor and certify its conjugation eigenvalue.

    The conjugacy class fixes the top-block sign: C lambda = +lambda
    ("S") needs +i, C lambda = -lambda ("A") needs -i; the record's ``sign``
    holds it.  The helicity is +-1 or an (n,) array of them; a spinor that
    is not finite raises NonFiniteMomentum.
    """
    if conj not in ("S", "A"):
        raise ValueError("conj must be 'S' or 'A'")
    sign = +1 if conj == "S" else -1
    phi_l = np.atleast_2d(boosted_left(mom, helicity))
    top = (sign * 1j * wigner_theta() @ np.conj(phi_l)[:, :, None])[:, :, 0]
    lam = assemble(top, phi_l)
    _check_finite(mom, lam, "the spinor is not finite: E = hypot(p, m) overflows")
    if np.any(np.max(np.abs(charge_conjugate(lam) - sign * lam), axis=-1) > 1e-12 * row_norms(lam)):
        raise AssertionError("charge-conjugation eigenvalue check failed")
    return ElkoSpinor(spinor=one_row(lam, mom.one), sign=sign)


def charge_conjugate(psi: np.ndarray) -> np.ndarray:
    """gamma^2 conj(psi), row by row for an (n, 4) stack."""
    return (build().gamma[2] @ np.conj(psi)[..., None])[..., 0]


def four_momentum(mom: Momentum) -> np.ndarray:
    _, p, theta, phi, E = mom.rows()
    st, ct = np.sin(theta), np.cos(theta)
    return one_row(np.stack([E, p * st * np.cos(phi), p * st * np.sin(phi), p * ct], axis=-1), mom.one)


def xi(mom: Momentum) -> np.ndarray:
    """Momentum-space involution; Xi^2 = 1 and [Xi, slash(p)] = 0.

    The 2x2 blocks are the standard ones; their placement on the diagonal
    follows this package's chiral layout (swapping them is what makes the
    commutator vanish with sigma^k sitting upper-right in gamma^k).  Raises
    NonFiniteMomentum where an entry overflows.
    """
    m, p, theta, phi, E = mom.rows()
    s, c = np.sin(theta), np.cos(theta)
    em, ep = np.exp(-1j * phi), np.exp(1j * phi)
    # p s / m has no phase: real arithmetic gives the bits of the complex
    # quotient (i p s) / m, whose real part is zero
    ps = p * s / m
    out = np.zeros((len(m), 4, 4), dtype=complex)
    out[:, 0, 0] = -1j * ps
    out[:, 0, 1] = -1j * (E - p * c) * em / m
    out[:, 1, 0] = 1j * (E + p * c) * ep / m
    out[:, 1, 1] = 1j * ps
    out[:, 2, 2] = 1j * ps
    out[:, 2, 3] = -1j * (E + p * c) * em / m
    out[:, 3, 2] = 1j * (E - p * c) * ep / m
    out[:, 3, 3] = -1j * ps
    _check_finite(mom, out, "Xi is not finite: p sin(theta)/m or (E +- p cos(theta))/m overflows")
    return one_row(out, mom.one)


def diraclike_residual(e: ElkoSpinor, mom: Momentum):
    """Residual of (slash(p) Xi - eta m) lambda minimized over eta = +-1.

    Returns (residual, realized eta), (n,) arrays for n momenta; the
    realized sign must match DIRACLIKE_SIGN[conj].  The two residuals lie
    2 m |lambda| apart, so eta is 0, unresolved, unless the smaller one and
    its rounding floor eps |slash(p)| |Xi| |lambda| (Frobenius norms) stay
    below m |lambda|: slash(p) and Xi have entries ~ p and p/m that cancel
    to m, so that floor reaches m |lambda| near p/m = 2e7.
    """
    lam = np.atleast_2d(e.spinor)
    m = mom.rows()[0][:, None]
    sp, x = slash(four_momentum(mom)), xi(mom)
    v = (sp @ x @ lam[..., None])[..., 0].reshape(lam.shape)
    plus = row_norms(v - m * lam)
    minus = row_norms(v + m * lam)
    flip = minus < plus
    res = np.where(flip, minus, plus)
    nrm = row_norms(lam)
    floor = np.finfo(float).eps * np.linalg.norm(sp, axis=(-2, -1)) * np.linalg.norm(x, axis=(-2, -1)) * nrm
    resolved = np.maximum(res, floor) < m[:, 0] * nrm
    return one_row((res, np.where(resolved, np.where(flip, -1, +1), 0)), mom.one)


def chirality_current_residuals(e: ElkoSpinor, mom: Momentum) -> np.ndarray:
    """Residuals of the four current-chirality relations under the Xi dual.

    With lambda_L = (1 + gamma5)/2 lambda (the bottom block here) and all
    covariants from the same dual:
        slash(J) lambda_L = (A - iB) lambda_R
        slash(J) lambda_R = (A + iB) lambda_L
        slash(K) lambda_L = (A - iB) lambda_R
        slash(K) lambda_R = -(A + iB) lambda_L
    The axial pair carries the opposite relative sign pattern to the vector
    pair in this gamma5 convention.  (n, 4) for n momenta.
    """
    lam = np.atleast_2d(e.spinor)
    cov = compute_batch(lam, DualKind.MDO, xi(mom))
    zero = np.zeros_like(lam[:, :2])
    lam_l = assemble(zero, lam[:, 2:])
    lam_r = assemble(lam[:, :2], zero)
    sj = slash(cov["J"])
    sk = slash(cov["K"])
    amib = (cov["A"] - 1j * cov["B"])[:, None]
    apib = (cov["A"] + 1j * cov["B"])[:, None]

    def times(op, v):
        return (op @ v[..., None])[..., 0]

    res = np.stack(
        [
            row_norms(times(sj, lam_l) - amib * lam_r),
            row_norms(times(sj, lam_r) - apib * lam_l),
            row_norms(times(sk, lam_l) - amib * lam_r),
            row_norms(times(sk, lam_r) + apib * lam_l),
        ],
        axis=-1,
    )
    return one_row(res, mom.one)


def mdo_norm(e: ElkoSpinor, mom: Momentum):
    """Dual contraction with the Xi dual (nonzero, unlike the Dirac one)."""
    lam = np.atleast_2d(e.spinor)
    dual = mdo_dual(lam, xi(mom))
    return one_row((dual[:, None, :] @ lam[:, :, None])[:, 0, 0], mom.one)


def _fg_rows(S, R, params: RimParams, bil, mom: Momentum, sign) -> tuple[np.ndarray, ...]:
    """(A, B, F, G) over rows, a Bilinears record ``bil`` taken as one row."""
    raise_first((np.asarray(sign) != 1) & (np.asarray(sign) != -1), ValueError, "sign must be +1 or -1")
    rows = bil.as_batch() if isinstance(bil, Bilinears) else bil
    A, B = rows["A"], rows["B"]
    two_re_a = 2.0 * np.real(params.a)
    common = sign * mom.p * np.sin(mom.theta) * np.exp(-2.0 * two_re_a * S) / (2.0 * two_re_a)
    f = -2j * params.s * R + (A + 1j * B) * common
    g = +2j * params.s * R + (A - 1j * B) * common
    return A, B, f, g


def fg_functions(
    S,
    R,
    params: RimParams,
    bil,
    mom: Momentum,
    sign=-1,
):
    """Decomposition exponents for the two chiral blocks.

    F = -2isR + sign * p sin(theta) (A+iB) e^{-2(a+abar)S} / (2(a+abar)),
    G = +2isR + sign * p sin(theta) (A-iB) e^{-2(a+abar)S} / (2(a+abar)).
    ``bil`` is one spinor's Bilinears with scalar potentials, couplings,
    momentum and sign, giving complex exponents, or a ``compute_batch``
    dict, giving (n,) arrays, where the other inputs may be (n,) arrays.
    """
    return one_row(_fg_rows(S, R, params, bil, mom, sign)[2:], isinstance(bil, Bilinears))


def fg_exponential_forms(
    S,
    R,
    params: RimParams,
    bil,
    mom: Momentum,
    sign=-1,
) -> dict:
    """Raw e^F, e^G next to their J^2 = e^{2(a+abar)S} simplifications.

    When S comes from the potentials of the same covariants, the raw and
    simplified values agree; the simplified pair is
    e^F = vartheta^-1 exp[sign p sin(theta) / (2(a+abar)(A-iB))] and
    e^G = vartheta   exp[sign p sin(theta) / (2(a+abar)(A+iB))].
    Each value is a complex, or an (n,) array as for ``fg_functions``.
    """
    A, B, f, g = _fg_rows(S, R, params, bil, mom, sign)
    two_re_a = 2.0 * np.real(params.a)
    # a 1-d phase takes numpy's array loop for its product, as in a stack
    theta_phase = np.atleast_1d(np.exp(2j * params.s * R))
    x = sign * mom.p * np.sin(mom.theta) / (2.0 * two_re_a)
    forms = {
        "raw_F": np.exp(f),
        "raw_G": np.exp(g),
        "simplified_F": np.exp(x / (A - 1j * B)) / theta_phase,
        "simplified_G": theta_phase * np.exp(x / (A + 1j * B)),
    }
    return one_row(forms, isinstance(bil, Bilinears))


def xi_checks(mom: Momentum):
    """(max |Xi^2 - 1|, max |[Xi, slash(p)]|) for one momentum, or (n,)
    arrays of them."""
    x = np.reshape(xi(mom), (-1, 4, 4))
    sp = np.reshape(slash(four_momentum(mom)), (-1, 4, 4))
    inv = np.max(np.abs(x @ x - np.eye(4)), axis=(1, 2))
    comm = np.max(np.abs(x @ sp - sp @ x), axis=(1, 2))
    return one_row((inv, comm), mom.one)


def dual_helicity_eigenvalues(e: ElkoSpinor, mom: Momentum):
    """Rayleigh quotients of sigma.phat on the two blocks (must be opposite);
    (n,) arrays for n momenta."""
    _, _, theta, phi, _ = mom.rows()
    sp = sigma_phat(theta, phi)
    lam = np.atleast_2d(e.spinor)

    def dot(u, v):
        return (np.conj(u)[:, None, :] @ v[:, :, None])[:, 0, 0]

    ev = []
    for blk in (lam[:, :2], lam[:, 2:]):
        n = np.real(dot(blk, blk))
        ev.append(np.real(dot(blk, (sp @ blk[:, :, None])[:, :, 0])) / n)
    return one_row(tuple(ev), mom.one)
