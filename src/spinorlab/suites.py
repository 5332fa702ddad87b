"""Randomized verification suites behind ``verify`` and the acceptance tests.

Each suite returns {"suite", "checks": [...], "pass"}.  ``_check`` makes
each check row from the check's per-trial arrays: its ``trials`` are their
rows, and its ``value`` is their largest |value|, or the number of set
flags where they hold failure flags, against a pinned tolerance.  Both are
numpy reductions, so a NaN in any trial fails the check.  All randomness
flows from per-suite Philox streams keyed by the run seed, so reports are
reproducible byte for byte.

Scale conventions: quantities quadratic in the spinor are measured against
max(1, |psi|^2), quartic residuals against max(1, |psi|^4).

Every randomised check is one array pass over its draws.  Draws that a
check once took trial by trial are taken in bulk in the same order, except
the synthetic rejections of ``props``, which draw all coordinates and then
all scales.  The large covariant passes of ``fpk``, ``props`` and ``rim``,
the base scalars of ``plane`` and ``homotopy`` and ``clifford``'s
slash_contraction run in row blocks (``bilinear.by_row_blocks``) and keep
only the per-trial arrays their checks read.

``trials`` is the number of draws of every randomised check but these,
which cap their draws below it (README lists the caps) and report the
count they ran: ``fpk`` phase_invariance and quadratic_scaling; ``props``
constructed_type*, valid_bases_type1 and synthetic_rejections; ``rim``
heisenberg_control, vartheta_unit_modulus, potentials_scaling and
restriction_trace; every randomised ``homotopy`` and ``mdo`` check.
``rim`` domain_disjointness draws at least 10^5 angle pairs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import bilinear, clifford, generators, homotopy, lounesto, mdo, plane, rim, rng, spinor
from .errors import DegenerateParameter
from .spinor import DEFAULT_TOL, DualKind, assemble, block2, dirac_dual, quad_scale, quartic_scale


@dataclass(frozen=True)
class SuiteConfig:
    trials: int = 1000
    seed: int = 0
    tol: float = DEFAULT_TOL


def _check(name: str, tol: float, *per_trial: np.ndarray, fixed: bool = False) -> dict:
    """The report row of one check, from its per-trial arrays.

    The arrays share a leading axis, one row per trial, and ``trials`` is
    its length; the arrays of a ``fixed`` identity hold residuals of
    constant matrices, not draws, and report 0 trials.  ``value`` is the
    number of set flags over bool arrays, else the largest |value| (0 over
    no rows).  Both are numpy reductions, so a NaN anywhere fails the check;
    a value that is not finite is reported as None (JSON null).
    """
    arrays = [np.asarray(a) for a in per_trial]
    trials = 0 if fixed else len(arrays[0])
    assert fixed or all(len(a) == trials for a in arrays), f"{name}: the arrays disagree on the trial count"
    if all(a.dtype == bool for a in arrays):
        value = float(sum(np.count_nonzero(a) for a in arrays))
    else:
        value = float(np.max([np.max(np.abs(a), initial=0.0) for a in arrays]))
    row = {"name": name, "trials": trials, "value": value, "tol": float(tol), "pass": bool(value <= tol)}
    return row if math.isfinite(value) else {**row, "value": None}


def _report(suite: str, checks: list[dict]) -> dict:
    return {"suite": suite, "checks": checks, "pass": all(c["pass"] for c in checks)}


def _per_row(x, like) -> np.ndarray:
    """``x`` shaped to broadcast over ``like``: an (n,) x scales each row of an
    (n, ...) array; an x of like's shape is left as it is."""
    x = np.asarray(x)
    return x.reshape(x.shape + (1,) * (np.ndim(like) - x.ndim))


def _rel(diff, scale) -> np.ndarray:
    """|diff| / max(1, |scale|), with the scale ``_per_row`` over diff."""
    return np.abs(diff) / _per_row(np.maximum(1.0, np.abs(scale)), diff)


def _row_max(*arrays) -> np.ndarray:
    """Each row's largest |value| over (n, ...) arrays, NaN where one is NaN."""
    return np.max([np.max(np.abs(a), axis=tuple(range(1, a.ndim))) for a in arrays], axis=0)


def _cov_rows(fn, psis: np.ndarray) -> tuple[np.ndarray, ...]:
    """fn's per-row arrays of the covariants of a spinor stack, in row blocks."""
    return bilinear.by_row_blocks(lambda rows: fn(bilinear.compute_batch(rows)), psis)


def _base_scalars(bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real A and B of each base, in row blocks."""
    return _cov_rows(lambda cov: (cov["A"].real, cov["B"].real), bases)


# ---------------------------------------------------------------------------
# clifford


def suite_clifford(cfg: SuiteConfig) -> dict:
    g = clifford.build()
    eye = np.eye(4)
    p1, p2 = clifford.projector(1), clifford.projector(2)
    product = 1j * g.gamma[0] @ g.gamma[1] @ g.gamma[2] @ g.gamma[3]
    identities = {
        "anticommutators": [
            clifford.anticommutator(g.gamma[mu], g.gamma[nu]) - 2.0 * g.metric[mu, nu] * eye
            for mu in range(4)
            for nu in range(4)
        ],
        "gamma5_product": [g.gamma5 - product],
        "gamma5_square": [g.gamma5 @ g.gamma5 - eye],
        "gamma5_anticommute": [clifford.anticommutator(g.gamma5, g.gamma[mu]) for mu in range(4)],
        "hermiticity": [g.gamma[0] - g.gamma[0].conj().T] + [g.gamma[k] + g.gamma[k].conj().T for k in (1, 2, 3)],
        "projectors": [p1 + p2 - eye, p1 @ p2, p1 @ p1 - p1, p2 @ p2 - p2, p2 - 0.5 * (eye + g.gamma5)],
    }
    checks = [_check(name, 1e-12, *diffs, fixed=True) for name, diffs in identities.items()]

    gen = rng.stream(cfg.seed, "clifford")
    n = cfg.trials
    # per trial: u then v, each real parts then imaginary parts
    draws = gen.standard_normal((n, 2, 2, 4))
    u, v = (draws[:, k, 0] + 1j * draws[:, k, 1] for k in range(2))

    def contraction_rows(u, v):
        su, sv = clifford.slash(u), clifford.slash(v)
        target = 2.0 * clifford.minkowski_dot(u, v)[:, None, None] * np.eye(4)
        err = np.max(np.abs(su @ sv + sv @ su - target), axis=(1, 2))
        return (err / np.maximum(1.0, spinor.row_norms(u) * spinor.row_norms(v)),)

    checks.append(_check("slash_contraction", 1e-12, *bilinear.by_row_blocks(contraction_rows, u, v)))
    return _report("clifford", checks)


# ---------------------------------------------------------------------------
# fpk (covariants: constraint identities, fast/matrix agreement)


def suite_fpk(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "fpk")
    n = cfg.trials
    checks = []

    def covariant_rows(psis):
        cov = bilinear.compute_batch(psis)
        quad = quad_scale(psis)
        A1, A2 = spinor.chiral_overlaps(psis)
        a_split = _rel(cov["A"] - (A1 + A2), quad)
        b_split = _rel(cov["B"] - 1j * (-A1 + A2), quad)
        reality = _row_max(*(_rel(cov[k].imag, quad) for k in "ABJKS"))
        return bilinear.fpk_residuals_batch(cov) / quartic_scale(psis)[:, None], reality, _row_max(a_split, b_split)

    def fast_vs_matrix_rows(bases, r1, r2):
        psis2 = plane.block_scale(bases, r1, r2)
        oracle = bilinear.compute_batch(psis2)
        fast = bilinear.compute_fast_batch(bases, r1, r2)
        scale2 = quad_scale(psis2)
        diffs = (
            [fast[k] - oracle[k] for k in "ABJ"]
            + [fast["K0"] - oracle["K"][:, 0]]
            + [fast[f"S{mu}{nu}"] - oracle["S"][:, mu, nu] for mu in range(4) for nu in range(mu + 1, 4)]
        )
        return (_row_max(*(_rel(d, scale2) for d in diffs)),)

    psis = generators.random_spinors(gen, n)
    res, reality, split = bilinear.by_row_blocks(covariant_rows, psis)
    for i, name in enumerate(["fpk_j2_ab", "fpk_axial_tensor", "fpk_jk_orthogonal", "fpk_j2_k2"]):
        checks.append(_check(name, 1e-10, res[:, i]))
    checks.append(_check("dirac_dual_reality", 1e-10, reality))
    checks.append(_check("chiral_overlap_split", 1e-10, split))

    bases = generators.random_spinors(gen, n)
    r1 = generators.random_complex(gen, n)
    r2 = generators.random_complex(gen, n)
    checks.append(_check("fast_vs_matrix", 1e-10, *bilinear.by_row_blocks(fast_vs_matrix_rows, bases, r1, r2)))

    def invariance_rows(sub, theta, c):
        base_cov = bilinear.compute_batch(sub)
        rotated = bilinear.compute_batch(np.exp(1j * theta)[:, None] * sub)
        subquad = quad_scale(sub)
        phase = _row_max(*(_rel(rotated[k] - base_cov[k], subquad) for k in "ABJKS"))
        scaled_cov = bilinear.compute_batch(c[:, None] * sub)
        c2 = c**2
        scaling = [np.abs(scaled_cov[k] - _per_row(c2, base_cov[k]) * base_cov[k]) for k in "AJS"]
        return phase, _row_max(*(d / _per_row(c2 * subquad, d) for d in scaling))

    m = min(n, 2000)
    theta = gen.uniform(0.0, 2.0 * np.pi, m)
    c = gen.uniform(0.3, 2.5, m)
    phase, scaling = bilinear.by_row_blocks(invariance_rows, psis[:m], theta, c)
    checks.append(_check("phase_invariance", 1e-10, phase))
    checks.append(_check("quadratic_scaling", 1e-10, scaling))
    return _report("fpk", checks)


# ---------------------------------------------------------------------------
# props (classification rules vs brute force, base validation)


def _classes(psis: np.ndarray, tol: float) -> np.ndarray:
    """Brute-force class codes of a spinor stack; 0 where classify would raise."""
    return _cov_rows(lambda cov: lounesto.classify_batch(cov, tol)[:1], psis)[0]


def suite_props(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "props")
    n = cfg.trials
    checks = []
    T1, T2, T3, T4, T5, T6 = lounesto.LounestoClass

    def coefficient_classes(r1, r2, A, B) -> np.ndarray:
        """Class codes of the coefficient route, 0 on an error row."""
        return lounesto.classify_by_coefficients_batch(r1, r2, A, B, cfg.tol)[0]

    def lemma4_rows(cov6):  # brute-force type 6 with K nonzero and S zero
        thr6 = cfg.tol * np.maximum(1.0, cov6["scale"])
        type6 = lounesto.classify_batch(cov6, cfg.tol)[0] == T6
        return (type6 & (np.max(np.abs(cov6["K"]), axis=1) > thr6) & (np.max(np.abs(cov6["S"]), axis=(1, 2)) <= thr6),)

    def valid_rows(rows):  # one covariant pass for the base checks and the class
        cov = bilinear.compute_batch(rows)
        return (rim._base_checks(rows, cov, cfg.tol)[0] & (lounesto.classify_batch(cov, cfg.tol)[0] == T1),)

    bases = generators.random_rim_bases(gen, n)
    a_vals, b_vals = _base_scalars(bases)

    r1 = generators.random_complex(gen, n)
    r2 = generators.random_complex(gen, n)
    brute = _classes(plane.block_scale(bases, r1, r2), cfg.tol)
    fast = coefficient_classes(r1, r2, a_vals, b_vals)
    checks.append(_check("coefficient_vs_brute", 0, fast != brute))
    checks.append(_check("no_type4_type5", 0, (fast == T4) | (fast == T5)))

    rr1 = gen.uniform(0.2, 2.0, n) * np.where(gen.uniform(size=n) < 0.5, -1, 1)
    rr2 = gen.uniform(0.2, 2.0, n) * np.where(gen.uniform(size=n) < 0.5, -1, 1)
    brute = _classes(plane.block_scale(bases, rr1 + 0j, rr2 + 0j), cfg.tol)
    fast = coefficient_classes(rr1, rr2, a_vals, b_vals)
    checks.append(_check("real_pairs_type1", 0, (fast != T1) | (brute != T1)))

    (lemma4,) = _cov_rows(lemma4_rows, plane.block_scale(bases, r1, np.zeros(n, dtype=complex)))
    fast = coefficient_classes(r1, np.zeros(n), a_vals, b_vals)
    checks.append(_check("one_zero_type6_lemma4", 0, ~((fast == T6) & lemma4)))

    # constructed boundary solutions: z = r1 conj(r2) with A y = -B x (type 2)
    # or A x = B y (type 3)
    m = min(n, 200)
    A, B = a_vals[:m], b_vals[:m]
    s = 1.0 + gen.uniform(0.0, 1.0, m)
    ones = np.ones(m, dtype=complex)
    r2sol = np.conj(-A * s + 1j * B * s)  # r1 = 1, z on the surface A*Im(z) = -B*Re(z)
    r3sol = np.conj(B * s + 1j * A * s)  # z on the surface A*Re(z) = B*Im(z)
    cov2 = bilinear.compute_batch(plane.block_scale(bases[:m], ones, r2sol))
    cov3 = bilinear.compute_batch(plane.block_scale(bases[:m], ones, r3sol))
    brute2 = lounesto.classify_batch(cov2, cfg.tol)[0]
    brute3 = lounesto.classify_batch(cov3, cfg.tol)[0]
    ok2 = (brute2 == T2) & (np.abs(cov2["A"]) > cfg.tol) & (coefficient_classes(ones, r2sol, A, B) == T2)
    ok3 = (brute3 == T3) & (np.abs(cov3["B"]) > cfg.tol) & (coefficient_classes(ones, r3sol, A, B) == T3)
    checks.append(_check("constructed_type2", 0, ~ok2))
    checks.append(_check("constructed_type2_Bpsi", 1e-10, _rel(cov2["B"], cov2["scale"])))
    checks.append(_check("constructed_type3", 0, ~ok3))
    checks.append(_check("constructed_type3_Apsi", 1e-10, _rel(cov3["A"], cov3["scale"])))

    nb = min(n, max(cfg.trials // 10, 100))
    (valid,) = bilinear.by_row_blocks(valid_rows, generators.random_rim_bases(gen, nb))
    checks.append(_check("valid_bases_type1", 0, ~valid))

    u = generators.random_complex(gen, (nb, 2))
    t = gen.uniform(0.3, 1.5, nb)[:, None]
    a_zero, b_zero = (rim.BASE_CONSTRAINTS.index(name) for name in ("A=0", "B=0"))
    val_a = rim.validate_rim_base(assemble(u, 1j * t * u), cfg.tol)  # A1 pure imaginary -> A = 0
    val_b = rim.validate_rim_base(assemble(u, t * u), cfg.tol)  # A1 real -> B = 0
    missed = np.concatenate([val_a.ok | ~val_a.failed[:, a_zero], val_b.ok | ~val_b.failed[:, b_zero]])
    checks.append(_check("synthetic_rejections", 0, missed))
    return _report("props", checks)


# ---------------------------------------------------------------------------
# rim (couplings, domains, potentials, pointwise identities)


def suite_rim(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "rim")
    n = cfg.trials
    checks = []

    a_arr, b_arr = generators.random_valid_params(gen, n)
    p = rim.validate(a_arr, b_arr, cfg.tol)
    checks.append(_check("coupling_s_relation", 1e-12, 2.0 * p.s - 1j * (p.a - p.b)))
    checks.append(_check("coupling_rho_relation", 1e-12, p.rho + 2.0 * p.s / p.b.imag))

    # each domain's representative angle pair, then the four boundary angles on either axis
    D = rim.OmegaDomain
    boundaries = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
    samples = [(0.7, 0.7, D.OMEGA_1), (5.5, 0.7, D.OMEGA_2), (5.5, 5.5, D.OMEGA_3)]
    samples += [(2.0, 2.0, D.OMEGA_4), (4.0, 2.0, D.OMEGA_5), (4.0, 4.0, D.OMEGA_6)]
    samples += [(x, 0.7, D.OUTSIDE) for x in boundaries] + [(0.7, x, D.OUTSIDE) for x in boundaries]
    phi1, phi2, expected = zip(*samples)
    tags = rim.domain_of(np.array(phi1), np.array(phi2))
    checks.append(_check("domain_samples", 0, tags != [dom.value for dom in expected]))

    nd = max(n, 100000)
    phi1 = gen.uniform(0.0, 2.0 * np.pi, nd)
    phi2 = gen.uniform(0.0, 2.0 * np.pi, nd)
    tags = rim.domain_of(phi1, phi2)
    # the bounding box of each domain's samples may hold no other domain's
    membership = np.zeros(nd, dtype=int)
    for dom in set(rim.DOMAIN_PAIRS.values()):
        x, y = phi1[tags == dom], phi2[tags == dom]
        membership += (x.min() <= phi1) & (phi1 <= x.max()) & (y.min() <= phi2) & (phi2 <= y.max())
    checks.append(_check("domain_disjointness", 0, membership > 1))
    del phi1, phi2, tags, membership  # at least 10^5 rows each

    psis = generators.random_spinors(gen, n)
    quartic = quartic_scale(psis)
    res, res_a, res_b = rim.pointwise_residuals(psis, rim.validate(*generators.random_valid_params(gen, n)))
    checks.append(_check("heisenberg_pointwise", 1e-10, res / quartic))

    m = min(n, 1000)
    vbases = generators.random_rim_bases(gen, m)
    vbases = vbases / np.linalg.norm(vbases, axis=1)[:, None]  # unit scale for the margin bound
    params = rim.validate(*generators.random_valid_params(gen, m))
    broken = dataclasses.replace(params, s=params.s + 0.1)  # broken balance
    control = rim.pointwise_residuals(vbases, broken)[0] / quartic_scale(vbases)
    checks.append(_check("heisenberg_control", 1.0, 1e-3 / np.maximum(control, 1e-300)))

    checks.append(_check("del_A_identity", 1e-10, res_a / quartic))
    checks.append(_check("del_B_identity", 1e-10, res_b / quartic))

    pb = generators.random_rim_bases(gen, m)
    pa, pbb = generators.random_valid_params(gen, m)
    params = rim.validate(pa, pbb, cfg.tol)
    cov = bilinear.compute_batch(pb)
    pots = rim.potentials(cov, params)
    phase = np.abs(rim.vartheta(params, pots)) - 1.0
    c = 1.0 + gen.uniform(0.2, 1.5, m)
    pots_c = rim.potentials(bilinear.compute_batch(c[:, None] * pb), params)
    shift = (pots_c.S - pots.S - np.log(c * c) / (2.0 * params.a.real), pots_c.R - pots.R)
    g = rim.restriction_operator(cov, cfg.tol)  # raises if the forms disagree
    checks.append(_check("vartheta_unit_modulus", 1e-10, phase))
    checks.append(_check("potentials_scaling", 1e-10, *shift))

    zero_k = bilinear.from_scalars(1.0, 0.0, [1.0, 0, 0, 0], [0.0, 0, 0, 0], np.zeros((4, 4)))
    checks.append(_check("restriction_trace", 1e-10, np.trace(g, axis1=1, axis2=2)))
    checks.append(_check("restriction_zero_k", 1e-12, rim.restriction_operator(zero_k, cfg.tol)[None]))
    return _report("rim", checks)


# ---------------------------------------------------------------------------
# plane (coefficients, operators, maps, coordinates)


def suite_plane(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "plane")
    n = cfg.trials
    checks = []

    bases = generators.random_rim_bases(gen, n)
    a_arr, b_arr = generators.random_valid_params(gen, n)
    masses_m = gen.uniform(0.0, 2.0, n)
    masses_mm = gen.uniform(0.0, 2.0, n)
    thetas = gen.uniform(0.0, np.pi, n)
    signs = np.where(gen.uniform(size=n) < 0.5, -1, 1)
    coords_r = generators.random_complex(gen, n)
    coords_r2 = generators.random_complex(gen, n)
    phases = np.exp(1j * gen.uniform(0.0, 2.0 * np.pi, n))

    params = rim.validate(a_arr, b_arr, cfg.tol)
    A, B = _base_scalars(bases)
    c = plane.coefficient_set(params, A, B, masses_m, masses_mm, thetas, signs, cfg.tol)
    m = plane.m_operator(c)
    m_inv = plane.inverse_operator(m)
    checks.append(_check("chi_roundtrip", 1e-12, m.c1 * m_inv.c1 - 1.0, m.c2 * m_inv.c2 - 1.0))

    # N = 1/chi from the coefficients' closed form, not inverse_operator(m), so a wrong chi shows
    n_chi = (c.delta * c.beta * c.alpha / (c.epsilon * c.omega), c.epsilon * c.beta * c.alpha / (c.zeta * c.delta))
    mn = plane.compose_operators(m, plane.MOperator(*n_chi))
    checks.append(_check("mn_identity", 1e-10, mn.c1 - 1.0, mn.c2 - 1.0))

    nsb = np.linalg.norm(bases, axis=1)
    ops = (plane.l_operator(c), plane.q_operator(c))
    backs = [plane.apply_operator(plane.inverse_operator(op), plane.apply_operator(op, bases)) for op in ops]
    checks.append(_check("lq_inversion", 1e-10, *(np.linalg.norm(back - bases, axis=1) / nsb for back in backs)))

    psi_d = plane.dirac_from_base(bases, c)
    psi_m = plane.mdo_from_base(bases, c)
    mapped = plane.map_dirac_mdo(psi_d, c, "dirac-to-mdo")
    back = plane.map_dirac_mdo(mapped, c, "mdo-to-dirac")
    to_mdo = _rel(np.linalg.norm(mapped - psi_m, axis=1), np.linalg.norm(psi_m, axis=1))
    to_dirac = _rel(np.linalg.norm(back - psi_d, axis=1), np.linalg.norm(psi_d, axis=1))
    checks.append(_check("map_consistency", 1e-10, to_mdo, to_dirac))

    start = plane.PlaneCoords(coords_r, coords_r2, "B")
    through = plane.convert_coords(plane.convert_coords(plane.convert_coords(start, "D", c), "M", c), "B", c)
    cscale = np.maximum(np.abs(coords_r), np.abs(coords_r2))
    roundtrip = (_rel(through.r1 - coords_r, cscale), _rel(through.r2 - coords_r2, cscale))
    checks.append(_check("coords_roundtrip", 1e-10, *roundtrip))

    r1, r2 = plane.decompose_batch(psi_d, bases)[0].T  # each row against its own base
    abd = c.alpha * c.beta * c.delta
    abdinv = c.alpha * c.beta / c.delta
    checks.append(_check("dirac_coords_table", 1e-10, _rel(r1 - abd, abd), _rel(r2 - abdinv, abdinv)))

    log_j = np.log(c.J)
    beta_alt = np.exp((2j * params.s - 1j * params.b.imag) * log_j / (2.0 * params.a.real))
    checks.append(_check("beta_two_forms", 1e-12, c.beta - beta_alt))

    amib = A - 1j * B
    invariants = (c.delta**2 - c.J / amib, c.epsilon - c.delta**params.rho, np.abs(c.delta) - 1.0)
    checks.append(_check("delta_invariants", 1e-12, *invariants))

    mass_term = signs * masses_mm * np.sin(thetas)
    wz = np.exp(mass_term * A / (2.0 * params.a.real * c.J**2))
    checks.append(_check("omega_zeta_product", 1e-12, _rel(c.omega * c.zeta - wz, wz)))

    closed = c.delta ** (params.rho - 1.0) * np.exp(
        (1.0 / (2.0 * params.a.real))
        * (mass_term / (2.0 * amib) + 1j * (params.a.imag * log_j - masses_m / c.J))
    )
    checks.append(_check("chi_closed_form", 1e-10, _rel(m.c1 - closed, closed)))

    made = plane.block_scale(bases, coords_r, coords_r2)
    r1, r2 = plane.decompose_batch(made, bases)[0].T
    checks.append(_check("decompose_roundtrip", 1e-10, _rel(r1 - coords_r, cscale), _rel(r2 - coords_r2, cscale)))

    type1 = _classes(psi_d, cfg.tol) == lounesto.LounestoClass.TYPE1
    checks.append(_check("dirac_image_type1", 0, ~type1))

    rotated = plane.block_scale(phases[:, None] * bases, coords_r, coords_r2)
    checks.append(_check("base_phase_invariance", 0, _classes(rotated, cfg.tol) != _classes(made, cfg.tol)))
    return _report("plane", checks)


# ---------------------------------------------------------------------------
# homotopy


def suite_homotopy(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "homotopy")
    n = min(cfg.trials, 500)
    checks = []

    # per trial: four complex coordinates, real parts then imaginary parts
    draws = gen.standard_normal((n, 2, 4))
    r = draws[:, 0] + 1j * draws[:, 1]
    psi_c = plane.PlaneCoords(r[:, 0], r[:, 1], "B")
    phi_c = plane.PlaneCoords(r[:, 2], r[:, 3], "B")
    path = homotopy.spinor_homotopy(psi_c, phi_c)
    e0 = homotopy.eval_path(path, psi_c.r1, 0.0)
    e1 = homotopy.eval_path(path, phi_c.r1, 1.0)
    ends = (e0.r1 - psi_c.r1, e0.r2 - psi_c.r2, e1.r1 - phi_c.r1, e1.r2 - phi_c.r2)
    # grids of t run down the rows of an evaluation, so its transpose has one row per path
    t = np.array([0.25, 0.5, 0.75])[:, None]
    fwd, seg = homotopy.eval_path(path, psi_c.r1, t), homotopy.multiplier_at(path, t)
    line = _rel(fwd.r2 / fwd.r1 - seg, seg).T
    sym = (fwd.r2 - homotopy.eval_path(homotopy.spinor_homotopy(phi_c, psi_c), psi_c.r1, 1.0 - t).r2).T
    same = homotopy.spinor_homotopy(psi_c, psi_c)
    refl = (homotopy.eval_path(same, psi_c.r1, np.array([0.3, 0.7])[:, None]).r2 - psi_c.r2).T
    checks.append(_check("endpoint_exactness", 0.0, *ends))
    checks.append(_check("straight_line", 1e-12, line))
    checks.append(_check("path_symmetry", 1e-12, sym))
    checks.append(_check("reflexivity", 1e-12, refl))

    antipodal = homotopy.basis_homotopy(homotopy.CoordFunction(1.0), homotopy.CoordFunction(-1.0))
    base = generators.random_rim_bases(gen, 1)[0]
    try:
        homotopy.sample_basis(antipodal, base, 0.5)
        undetected = True
    except DegenerateParameter:
        undetected = False
    checks.append(_check("degenerate_detection", 0, np.array([antipodal.degenerate_t != 0.5, undetected])))

    m = min(n, 200)
    hb = generators.random_rim_bases(gen, m)
    A, B = _base_scalars(hb)
    # per path: wf then wg, real parts then imaginary parts
    draws = gen.standard_normal((m, 2, 2))
    wf, wg = (draws[:, 0, k] + 1j * draws[:, 1, k] for k in range(2))
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])[:, None]
    paths = homotopy.basis_homotopy(homotopy.CoordFunction(wf), homotopy.CoordFunction(wg))
    # the classifier gives each surface's class at its closed-form crossing, and type 1 on the grid
    crossings, swept = homotopy.class_transition(paths, A, B, cfg.tol)
    met = homotopy.eval_path(paths, 1.0, crossings.T)  # NaN points where a path meets no surface
    wrong = (homotopy._classify(met.r1, met.r2, A, B, cfg.tol).T != homotopy.SURFACES) & ~np.isnan(crossings)
    near = np.abs(t - paths.degenerate_t) < 1e-6  # NaN (no interior zero) is never near
    vanishing = homotopy.degenerate_at(paths, t)
    at, i = np.nonzero(~(vanishing | near))  # the (t, path) pairs sampled; the others hold 0 below
    paths = homotopy.basis_homotopy(homotopy.CoordFunction(wf[i]), homotopy.CoordFunction(wg[i]))
    _, coords = homotopy.sample_basis(paths, hb[i], t[at, 0])
    ratio = np.zeros(vanishing.shape, dtype=complex)
    ratio[at, i] = coords.r2 / coords.r1 - 1.0
    noninvertible = vanishing & ~near
    noninvertible[at, i] = homotopy.multiplier_at(paths, t[at, 0]) == 0.0
    checks.append(_check("intermediate_ratio_one", 1e-10, ratio.ravel()))
    checks.append(_check("induced_operator_invertible", 0, noninvertible.ravel()))

    # one path against the m bases, whose one crossing is type 6 at its end; grid
    # rows 1, 3, ..., 9 are t = 0.1, 0.3, ..., 0.9
    path = homotopy.spinor_homotopy(plane.PlaneCoords(1.0 + 0j, 0.8 + 0j), plane.PlaneCoords(1.0 + 0j, 0.0 + 0j))
    end, grid = homotopy.class_transition(path, A, B, cfg.tol)
    found = np.isnan(end[:, 0]) & np.isnan(end[:, 1]) & (end[:, 2] == 1.0)
    checks.append(_check("sweep_interior_regular", 0, (grid[1::2] != lounesto.LounestoClass.TYPE1).ravel()))
    checks.append(_check("class_transition_bisection", 0, ~found))
    checks.append(_check("crossing_classes", 0, wrong, (swept != lounesto.LounestoClass.TYPE1).T))
    return _report("homotopy", checks)


# ---------------------------------------------------------------------------
# mdo


def suite_mdo(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "mdo")
    n = min(cfg.trials, 1000)
    checks = []

    moms = generators.random_momenta(gen, n)
    inv, comm = mdo.xi_checks(mdo.Momentum(*moms.T))
    checks.append(_check("xi_involution", 1e-11, inv))
    checks.append(_check("xi_slash_commutator", 1e-11, comm))

    m = min(n, 250)
    mom = mdo.Momentum(*moms[:m].T)
    slash_xi = clifford.slash(mdo.four_momentum(mom)) @ mdo.xi(mom)
    g5 = clifford.build().gamma5
    passes = []  # per (conj, h) pass, its per-momentum rows of each Elko check
    for conj in ("S", "A"):
        for h in (+1, -1):
            e = mdo.elko(mom, h, conj)
            lam = e.spinor
            nrm = spinor.row_norms(lam)
            rebuilt = (e.sign * 1j * mdo.wigner_theta() @ np.conj(lam[:, 2:, None]))[:, :, 0]
            ev_top, ev_bottom = mdo.dual_helicity_eigenvalues(e, mom)
            res, eta = mdo.diraclike_residual(e, mom)
            v = (slash_xi @ lam[:, :, None])[:, :, 0]
            flip = spinor.row_norms(v + (eta * mom.m)[:, None] * lam)
            d = dirac_dual(lam)[:, None, :]
            singular = np.stack([(d @ lam[:, :, None])[:, 0, 0], 1j * (d @ g5 @ lam[:, :, None])[:, 0, 0]], axis=1)
            passes.append(
                (
                    lam[:, :2] - rebuilt,
                    np.stack([ev_top + h, ev_bottom - h], axis=1),
                    res / (mom.m * nrm),
                    eta != mdo.DIRACLIKE_SIGN[conj],
                    np.abs(flip - 2.0 * mom.m * nrm) / (mom.m * nrm),
                    _rel(singular, nrm**2),
                    lounesto.classify_batch(bilinear.compute_batch(lam), cfg.tol)[0] != lounesto.LounestoClass.TYPE5,
                )
            )
    # the four passes stacked, 4 m rows per check
    struct, hel, dirac, sign_bad, flipped, singular, flagpole = (np.concatenate(rows) for rows in zip(*passes))
    e_s = mdo.elko(mom, +1, "S").spinor
    e_a = mdo.elko(mom, +1, "A").spinor
    # helicity alternates +1, -1 over the momenta
    e = mdo.elko(mom, np.where(np.arange(m) % 2 == 0, +1, -1), "S")
    ns = spinor.norm_sq(e.spinor)
    chirality = mdo.chirality_current_residuals(e, mom)
    cov = bilinear.compute_batch(e.spinor, DualKind.MDO, mdo.xi(mom))
    j2 = clifford.minkowski_dot(cov["J"], cov["J"])
    checks.append(_check("elko_structure", 0.0, struct))
    checks.append(_check("dual_helicity", 1e-12, hel))
    checks.append(_check("diraclike_residual", 1e-9, dirac))
    checks.append(_check("diraclike_sign_fixture", 0, sign_bad))
    checks.append(_check("diraclike_flipped_sign", 1e-9, flipped))
    checks.append(_check("dirac_dual_singular", 1e-12, singular))
    checks.append(_check("elko_flagpole", 0, flagpole))
    checks.append(_check("conjugacy_pair_structure", 0.0, e_s[:, 2:] - e_a[:, 2:], e_s[:, :2] + e_a[:, :2]))
    checks.append(_check("chirality_current_relations", 1e-9, np.max(chirality, axis=1) / np.maximum(1.0, ns**1.5)))
    checks.append(_check("mdo_dual_j2", 1e-10, _rel(j2 - cov["A"] ** 2 - cov["B"] ** 2, ns**2)))

    rest = mdo.Momentum(1.3, 0.0, 0.9, 0.4)
    e = mdo.elko(rest, +1, "S")
    expected_bottom = math.sqrt(rest.m) * mdo.helicity_spinor(rest.theta, rest.phi, +1)
    checks.append(_check("rest_frame_reduction", 1e-12, (block2(e.spinor) - expected_bottom)[None]))

    fixture = mdo.Momentum(1.0, 0.5, np.pi / 3, np.pi / 5)
    e = mdo.elko(fixture, +1, "S")
    dual_gap = abs(mdo.mdo_norm(e, fixture) - complex(dirac_dual(e.spinor) @ e.spinor))
    checks.append(_check("dual_norms_differ", 0.0, np.array([dual_gap < 1e-6])))

    mf = min(n, 300)
    fb = generators.random_rim_bases(gen, mf)
    fa, fbb = generators.random_valid_params(gen, mf)
    fmom = mdo.Momentum(*generators.random_momenta(gen, mf).T)
    params = rim.validate(fa, fbb, cfg.tol)
    cov = bilinear.compute_batch(fb)
    pots = rim.potentials(cov, params)
    sgn = np.where(np.arange(mf) % 2 == 0, -1, 1)
    forms = mdo.fg_exponential_forms(pots.S, pots.R, params, cov, fmom, sgn)
    raw_vs_simplified = [_rel(forms[f"raw_{k}"] - forms[f"simplified_{k}"], forms[f"raw_{k}"]) for k in "FG"]
    mom0 = mdo.Momentum(fmom.m, fmom.p, np.zeros(mf), fmom.phi)
    f0, g0 = mdo.fg_functions(pots.S, pots.R, params, cov, mom0, sgn)
    two_re_a = 2.0 * params.a.real
    j2 = np.real((cov["A"] - 1j * cov["B"]) * (cov["A"] + 1j * cov["B"]))
    expected = np.exp(-fmom.p * np.sin(fmom.theta) * cov["A"] / (two_re_a * j2))
    prod = forms["raw_F"] * forms["raw_G"]
    checks.append(_check("fg_raw_vs_simplified", 1e-10, *raw_vs_simplified))
    checks.append(_check("fg_theta_zero", 1e-12, f0 - (-2j * params.s * pots.R), g0 - (+2j * params.s * pots.R)))
    # the identity holds on the sign -1 rows; the others hold 0
    checks.append(_check("fg_product_identity", 1e-10, np.where(sgn == -1, _rel(prod - expected, expected), 0.0)))
    return _report("mdo", checks)


SUITES = {
    "clifford": suite_clifford,
    "fpk": suite_fpk,
    "rim": suite_rim,
    "plane": suite_plane,
    "homotopy": suite_homotopy,
    "mdo": suite_mdo,
    "props": suite_props,
}


def run_suites(names: list[str], cfg: SuiteConfig) -> dict:
    if names == ["all"]:
        names = list(SUITES)
    reports = [SUITES[name](cfg) for name in names]
    return {
        "config": {"trials": cfg.trials, "seed": cfg.seed, "tol": cfg.tol},
        "suites": reports,
        "pass": all(r["pass"] for r in reports),
    }
