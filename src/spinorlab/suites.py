"""Randomized verification suites behind ``verify`` and the acceptance tests.

Each suite returns {"suite", "checks": [...], "pass"}; a check row carries
the worst observed value (residual or mismatch count) against its pinned
tolerance.  All randomness flows from per-suite Philox streams keyed by the
run seed, so reports are reproducible byte for byte.

Scale conventions: quantities quadratic in the spinor are measured against
max(1, |psi|^2), quartic residuals against max(1, |psi|^4).

Every randomised check is one array pass over its draws, the ``homotopy``
bisection included, which moves all its paths in lockstep.  Draws that a
check once took trial by trial are taken in bulk in the same order, except
the synthetic rejections of ``props``, which draw all coordinates and then
all scales.

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


def _check(name: str, trials: int, value: float, tol: float) -> dict:
    value = float(value)
    return {"name": name, "trials": int(trials), "value": value, "tol": float(tol), "pass": bool(value <= tol)}


def _report(suite: str, checks: list[dict]) -> dict:
    return {"suite": suite, "checks": checks, "pass": all(c["pass"] for c in checks)}


def _worst(*diffs: np.ndarray) -> float:
    """Largest |diff| over arrays."""
    return max(np.max(np.abs(d)) for d in diffs)


def _worst_rel(diffs: list[np.ndarray], scale: np.ndarray) -> float:
    """Largest |diff| / scale over arrays whose first axis runs over trials."""
    return max(np.max(np.abs(d) / scale.reshape(-1, *[1] * (d.ndim - 1))) for d in diffs)


# ---------------------------------------------------------------------------
# clifford


def suite_clifford(cfg: SuiteConfig) -> dict:
    g = clifford.build()
    checks = []
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            target = 2.0 * g.metric[mu, nu] * np.eye(4)
            worst = max(worst, np.max(np.abs(clifford.anticommutator(g.gamma[mu], g.gamma[nu]) - target)))
    checks.append(_check("anticommutators", 0, worst, 1e-12))

    product = 1j * g.gamma[0] @ g.gamma[1] @ g.gamma[2] @ g.gamma[3]
    checks.append(_check("gamma5_product", 0, np.max(np.abs(g.gamma5 - product)), 1e-12))
    checks.append(_check("gamma5_square", 0, np.max(np.abs(g.gamma5 @ g.gamma5 - np.eye(4))), 1e-12))
    worst = max(np.max(np.abs(clifford.anticommutator(g.gamma5, g.gamma[mu]))) for mu in range(4))
    checks.append(_check("gamma5_anticommute", 0, worst, 1e-12))

    herm = np.max(np.abs(g.gamma[0] - g.gamma[0].conj().T))
    antiherm = max(np.max(np.abs(g.gamma[k] + g.gamma[k].conj().T)) for k in (1, 2, 3))
    checks.append(_check("hermiticity", 0, max(herm, antiherm), 1e-12))

    p1, p2 = clifford.projector(1), clifford.projector(2)
    worst = max(
        np.max(np.abs(p1 + p2 - np.eye(4))),
        np.max(np.abs(p1 @ p2)),
        np.max(np.abs(p1 @ p1 - p1)),
        np.max(np.abs(p2 @ p2 - p2)),
        np.max(np.abs(p2 - 0.5 * (np.eye(4) + g.gamma5))),
    )
    checks.append(_check("projectors", 0, worst, 1e-12))

    gen = rng.stream(cfg.seed, "clifford")
    n = cfg.trials
    # per trial: u then v, each real parts then imaginary parts
    draws = gen.standard_normal((n, 2, 2, 4))
    u, v = (draws[:, k, 0] + 1j * draws[:, k, 1] for k in range(2))
    su, sv = clifford.slash(u), clifford.slash(v)
    target = 2.0 * clifford.minkowski_dot(u, v)[:, None, None] * np.eye(4)
    err = np.max(np.abs(su @ sv + sv @ su - target), axis=(1, 2))
    scale = np.maximum(1.0, spinor.row_norms(u) * spinor.row_norms(v))
    checks.append(_check("slash_contraction", n, np.max(err / scale, initial=0.0), 1e-12))
    return _report("clifford", checks)


# ---------------------------------------------------------------------------
# fpk (covariants: constraint identities, fast/matrix agreement)


def suite_fpk(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "fpk")
    n = cfg.trials
    checks = []

    psis = generators.random_spinors(gen, n)
    cov = bilinear.compute_batch(psis)
    quartic = quartic_scale(psis)
    quad = quad_scale(psis)

    res = bilinear.fpk_residuals_batch(cov) / quartic[:, None]
    for i, name in enumerate(["fpk_j2_ab", "fpk_axial_tensor", "fpk_jk_orthogonal", "fpk_j2_k2"]):
        checks.append(_check(name, n, np.max(res[:, i]), 1e-10))

    reality = _worst_rel([cov[k].imag for k in "ABJKS"], quad)
    checks.append(_check("dirac_dual_reality", n, reality, 1e-10))

    a_split = np.max(np.abs(cov["A"] - (cov["A1"] + cov["A2"])) / quad)
    b_split = np.max(np.abs(cov["B"] - 1j * (-cov["A1"] + cov["A2"])) / quad)
    checks.append(_check("chiral_overlap_split", n, max(a_split, b_split), 1e-10))

    bases = generators.random_spinors(gen, n)
    r1 = generators.random_complex(gen, n)
    r2 = generators.random_complex(gen, n)
    psis2 = plane.block_scale(bases, r1, r2)
    oracle = bilinear.compute_batch(psis2)
    fast = bilinear.compute_fast_batch(bases, r1, r2)
    scale2 = quad_scale(psis2)
    worst = _worst_rel(
        [fast[k] - oracle[k] for k in "ABJ"]
        + [fast["K0"] - oracle["K"][:, 0]]
        + [fast[f"S{mu}{nu}"] - oracle["S"][:, mu, nu] for mu in range(4) for nu in range(mu + 1, 4)],
        scale2,
    )
    checks.append(_check("fast_vs_matrix", n, worst, 1e-10))

    m = min(n, 2000)
    sub = psis[:m]
    theta = gen.uniform(0.0, 2.0 * np.pi, m)
    rotated = bilinear.compute_batch(np.exp(1j * theta)[:, None] * sub)
    base_cov = bilinear.compute_batch(sub)
    subquad = quad_scale(sub)
    worst = _worst_rel([rotated[k] - base_cov[k] for k in "ABJKS"], subquad)
    checks.append(_check("phase_invariance", m, worst, 1e-10))

    c = gen.uniform(0.3, 2.5, m)
    scaled_cov = bilinear.compute_batch(c[:, None] * sub)
    c2 = (c**2)[:, None]
    worst = max(
        np.max(np.abs(scaled_cov["A"] - c**2 * base_cov["A"]) / (c**2 * subquad)),
        np.max(np.abs(scaled_cov["J"] - c2 * base_cov["J"]) / (c2 * subquad[:, None])),
        np.max(np.abs(scaled_cov["S"] - c2[:, :, None] * base_cov["S"]) / (c2[:, :, None] * subquad[:, None, None])),
    )
    checks.append(_check("quadratic_scaling", m, worst, 1e-10))
    return _report("fpk", checks)


# ---------------------------------------------------------------------------
# props (classification rules vs brute force, base validation)


def _classes(psis: np.ndarray, opt: lounesto.ClassifyOptions) -> np.ndarray:
    """Brute-force class codes of a spinor stack; 0 where classify would raise."""
    return lounesto.classify_batch(bilinear.compute_batch(psis), opt)[0]


def suite_props(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "props")
    opt = lounesto.ClassifyOptions(tol=cfg.tol)
    n = cfg.trials
    checks = []
    T1, T2, T3, T4, T5, T6 = lounesto.LounestoClass

    def coefficient_classes(r1, r2, A, B) -> np.ndarray:
        """Class codes of the coefficient route, 0 on an error row."""
        return lounesto.classify_by_coefficients_batch(r1, r2, A, B, opt)[0]

    bases = generators.random_rim_bases(gen, n)
    base_cov = bilinear.compute_batch(bases)
    a_vals = np.real(base_cov["A"])
    b_vals = np.real(base_cov["B"])

    r1 = generators.random_complex(gen, n)
    r2 = generators.random_complex(gen, n)
    brute = _classes(plane.block_scale(bases, r1, r2), opt)
    fast = coefficient_classes(r1, r2, a_vals, b_vals)
    checks.append(_check("coefficient_vs_brute", n, np.sum(fast != brute), 0))
    checks.append(_check("no_type4_type5", n, np.sum((fast == T4) | (fast == T5)), 0))

    rr1 = gen.uniform(0.2, 2.0, n) * np.where(gen.uniform(size=n) < 0.5, -1, 1)
    rr2 = gen.uniform(0.2, 2.0, n) * np.where(gen.uniform(size=n) < 0.5, -1, 1)
    brute = _classes(plane.block_scale(bases, rr1 + 0j, rr2 + 0j), opt)
    fast = coefficient_classes(rr1, rr2, a_vals, b_vals)
    checks.append(_check("real_pairs_type1", n, np.sum((fast != T1) | (brute != T1)), 0))

    cov6 = bilinear.compute_batch(plane.block_scale(bases, r1, np.zeros(n, dtype=complex)))
    thr6 = cfg.tol * np.maximum(1.0, cov6["scale"])
    lemma4 = (
        (lounesto.classify_batch(cov6, opt)[0] == T6)
        & (np.max(np.abs(cov6["K"]), axis=1) > thr6)
        & (np.max(np.abs(cov6["S"]), axis=(1, 2)) <= thr6)
    )
    fast = coefficient_classes(r1, np.zeros(n), a_vals, b_vals)
    checks.append(_check("one_zero_type6_lemma4", n, np.sum(~((fast == T6) & lemma4)), 0))

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
    brute2 = lounesto.classify_batch(cov2, opt)[0]
    brute3 = lounesto.classify_batch(cov3, opt)[0]
    ok2 = (brute2 == T2) & (np.abs(cov2["A"]) > cfg.tol) & (coefficient_classes(ones, r2sol, A, B) == T2)
    ok3 = (brute3 == T3) & (np.abs(cov3["B"]) > cfg.tol) & (coefficient_classes(ones, r3sol, A, B) == T3)
    worst2 = np.max(np.abs(cov2["B"]) / np.maximum(1.0, cov2["scale"]))
    worst3 = np.max(np.abs(cov3["A"]) / np.maximum(1.0, cov3["scale"]))
    checks.append(_check("constructed_type2", m, np.sum(~ok2), 0))
    checks.append(_check("constructed_type2_Bpsi", m, worst2, 1e-10))
    checks.append(_check("constructed_type3", m, np.sum(~ok3), 0))
    checks.append(_check("constructed_type3_Apsi", m, worst3, 1e-10))

    nb = min(n, max(cfg.trials // 10, 100))
    vbases = generators.random_rim_bases(gen, nb)
    valid = rim.validate_rim_base(vbases, opt).ok & (_classes(vbases, opt) == T1)
    checks.append(_check("valid_bases_type1", nb, np.sum(~valid), 0))

    u = generators.random_complex(gen, (nb, 2))
    t = gen.uniform(0.3, 1.5, nb)[:, None]
    a_zero, b_zero = (rim.BASE_CONSTRAINTS.index(name) for name in ("A=0", "B=0"))
    val = rim.validate_rim_base(assemble(u, 1j * t * u), opt)  # A1 pure imaginary -> A = 0
    bad = np.sum(val.ok | ~val.failed[:, a_zero])
    val = rim.validate_rim_base(assemble(u, t * u), opt)  # A1 real -> B = 0
    bad += np.sum(val.ok | ~val.failed[:, b_zero])
    checks.append(_check("synthetic_rejections", 2 * nb, bad, 0))
    return _report("props", checks)


# ---------------------------------------------------------------------------
# rim (couplings, domains, potentials, pointwise identities)


def suite_rim(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "rim")
    n = cfg.trials
    checks = []

    a_arr, b_arr = generators.random_valid_params(gen, n)
    p = rim.validate(a_arr, b_arr, cfg.tol)
    checks.append(_check("coupling_s_relation", n, np.max(np.abs(2.0 * p.s - 1j * (p.a - p.b))), 1e-12))
    checks.append(_check("coupling_rho_relation", n, np.max(np.abs(p.rho + 2.0 * p.s / p.b.imag)), 1e-12))

    reps = {
        rim.OmegaDomain.OMEGA_1: (0.7, 0.7),
        rim.OmegaDomain.OMEGA_2: (5.5, 0.7),
        rim.OmegaDomain.OMEGA_3: (5.5, 5.5),
        rim.OmegaDomain.OMEGA_4: (2.0, 2.0),
        rim.OmegaDomain.OMEGA_5: (4.0, 2.0),
        rim.OmegaDomain.OMEGA_6: (4.0, 4.0),
    }
    bad = sum(rim.domain_of(*pair) != dom for dom, pair in reps.items())
    for boundary in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
        bad += rim.domain_of(boundary, 0.7) != rim.OmegaDomain.OUTSIDE
        bad += rim.domain_of(0.7, boundary) != rim.OmegaDomain.OUTSIDE
    checks.append(_check("domain_samples", len(reps) + 8, bad, 0))

    nd = max(n, 100000)
    phi1 = gen.uniform(0.0, 2.0 * np.pi, nd)
    phi2 = gen.uniform(0.0, 2.0 * np.pi, nd)
    tags = rim.domain_of(phi1, phi2)
    # the bounding box of each domain's samples may hold no other domain's
    membership = np.zeros(nd, dtype=int)
    for dom in set(rim.DOMAIN_PAIRS.values()):
        x, y = phi1[tags == dom], phi2[tags == dom]
        membership += (x.min() <= phi1) & (phi1 <= x.max()) & (y.min() <= phi2) & (phi2 <= y.max())
    checks.append(_check("domain_disjointness", nd, int(np.max(membership)) - 1, 0))

    psis = generators.random_spinors(gen, n)
    quartic = quartic_scale(psis)
    res, res_a, res_b = rim.pointwise_residuals(psis, rim.validate(*generators.random_valid_params(gen, n)))
    checks.append(_check("heisenberg_pointwise", n, np.max(res / quartic), 1e-10))

    m = min(n, 1000)
    vbases = generators.random_rim_bases(gen, m)
    vbases = vbases / np.linalg.norm(vbases, axis=1)[:, None]  # unit scale for the margin bound
    params = rim.validate(*generators.random_valid_params(gen, m))
    broken = dataclasses.replace(params, s=params.s + 0.1)  # broken balance
    control = rim.heisenberg_residual(vbases, broken) / quartic_scale(vbases)
    checks.append(_check("heisenberg_control", m, 1e-3 / max(np.min(control), 1e-300), 1.0))

    checks.append(_check("del_A_identity", n, np.max(res_a / quartic), 1e-10))
    checks.append(_check("del_B_identity", n, np.max(res_b / quartic), 1e-10))

    pb = generators.random_rim_bases(gen, m)
    pa, pbb = generators.random_valid_params(gen, m)
    params = rim.validate(pa, pbb, cfg.tol)
    cov = bilinear.compute_batch(pb)
    pots = rim.potentials(cov, params)
    worst_phase = np.max(np.abs(np.abs(rim.vartheta(params, pots)) - 1.0))
    c = 1.0 + gen.uniform(0.2, 1.5, m)
    pots_c = rim.potentials(bilinear.compute_batch(c[:, None] * pb), params)
    worst_shift = _worst(pots_c.S - pots.S - np.log(c * c) / (2.0 * params.a.real), pots_c.R - pots.R)
    g = rim.restriction_operator(cov, cfg.tol)  # raises if the forms disagree
    worst_tr = np.max(np.abs(np.trace(g, axis1=1, axis2=2)))
    checks.append(_check("vartheta_unit_modulus", m, worst_phase, 1e-10))
    checks.append(_check("potentials_scaling", m, worst_shift, 1e-10))

    zero_k = bilinear.from_scalars(1.0, 0.0, [1.0, 0, 0, 0], [0.0, 0, 0, 0], np.zeros((4, 4)))
    worst_g0 = np.max(np.abs(rim.restriction_operator(zero_k, cfg.tol)))
    checks.append(_check("restriction_trace", m, worst_tr, 1e-10))
    checks.append(_check("restriction_zero_k", 1, worst_g0, 1e-12))
    return _report("rim", checks)


# ---------------------------------------------------------------------------
# plane (coefficients, operators, maps, coordinates)


def _rel(diff: np.ndarray, scale) -> np.ndarray:
    """|diff| / max(1, |scale|), elementwise."""
    return np.abs(diff) / np.maximum(1.0, np.abs(scale))


def suite_plane(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "plane")
    opt = lounesto.ClassifyOptions(tol=cfg.tol)
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
    cov = bilinear.compute_batch(bases)
    A, B = cov["A"].real, cov["B"].real
    c = plane.coefficient_set(params, A, B, masses_m, masses_mm, thetas, signs)
    chi = plane.chi_factors(c)
    worst = _worst(chi.chi1 * chi.chi1_inv - 1.0, chi.chi2 * chi.chi2_inv - 1.0)
    checks.append(_check("chi_roundtrip", n, worst, 1e-12))

    mn = plane.compose_operators(plane.m_operator(c), plane.inverse_operator(plane.m_operator(c)))
    checks.append(_check("mn_identity", n, _worst(mn.c1 - 1.0, mn.c2 - 1.0), 1e-10))

    nsb = np.linalg.norm(bases, axis=1)
    worst = 0.0
    for op in (plane.l_operator(c), plane.q_operator(c)):
        back = plane.apply_operator(plane.inverse_operator(op), plane.apply_operator(op, bases))
        worst = max(worst, np.max(np.linalg.norm(back - bases, axis=1) / nsb))
    checks.append(_check("lq_inversion", n, worst, 1e-10))

    psi_d = plane.dirac_from_base(bases, c)
    psi_m = plane.mdo_from_base(bases, c)
    mapped = plane.map_dirac_mdo(psi_d, c, "dirac-to-mdo")
    back = plane.map_dirac_mdo(mapped, c, "mdo-to-dirac")
    worst = _worst(
        _rel(np.linalg.norm(mapped - psi_m, axis=1), np.linalg.norm(psi_m, axis=1)),
        _rel(np.linalg.norm(back - psi_d, axis=1), np.linalg.norm(psi_d, axis=1)),
    )
    checks.append(_check("map_consistency", n, worst, 1e-10))

    start = plane.PlaneCoords(coords_r, coords_r2, "B")
    through = plane.convert_coords(plane.convert_coords(plane.convert_coords(start, "D", c), "M", c), "B", c)
    cscale = np.maximum(1.0, np.maximum(np.abs(coords_r), np.abs(coords_r2)))
    worst = _worst_rel([through.r1 - coords_r, through.r2 - coords_r2], cscale)
    checks.append(_check("coords_roundtrip", n, worst, 1e-10))

    r1, r2 = plane.decompose_batch(psi_d, bases)[0].T  # each row against its own base
    abd = c.alpha * c.beta * c.delta
    abdinv = c.alpha * c.beta / c.delta
    checks.append(_check("dirac_coords_table", n, _worst(_rel(r1 - abd, abd), _rel(r2 - abdinv, abdinv)), 1e-10))

    log_j = np.log(c.J)
    beta_alt = np.exp((2j * params.s - 1j * params.b.imag) * log_j / (2.0 * params.a.real))
    checks.append(_check("beta_two_forms", n, np.max(np.abs(c.beta - beta_alt)), 1e-12))

    amib = A - 1j * B
    worst = _worst(c.delta**2 - c.J / amib, c.epsilon - c.delta**params.rho, np.abs(c.delta) - 1.0)
    checks.append(_check("delta_invariants", n, worst, 1e-12))

    mass_term = signs * masses_mm * np.sin(thetas)
    wz = np.exp(mass_term * A / (2.0 * params.a.real * c.J**2))
    checks.append(_check("omega_zeta_product", n, np.max(_rel(c.omega * c.zeta - wz, wz)), 1e-12))

    closed = c.delta ** (params.rho - 1.0) * np.exp(
        (1.0 / (2.0 * params.a.real))
        * (mass_term / (2.0 * amib) + 1j * (params.a.imag * log_j - masses_m / c.J))
    )
    checks.append(_check("chi_closed_form", n, np.max(_rel(chi.chi1 - closed, closed)), 1e-10))

    made = plane.block_scale(bases, coords_r, coords_r2)
    r1, r2 = plane.decompose_batch(made, bases)[0].T
    checks.append(_check("decompose_roundtrip", n, _worst_rel([r1 - coords_r, r2 - coords_r2], cscale), 1e-10))

    type1 = _classes(psi_d, opt) == lounesto.LounestoClass.TYPE1
    checks.append(_check("dirac_image_type1", n, np.sum(~type1), 0))

    rotated = plane.block_scale(phases[:, None] * bases, coords_r, coords_r2)
    checks.append(_check("base_phase_invariance", n, np.sum(_classes(rotated, opt) != _classes(made, opt)), 0))
    return _report("plane", checks)


# ---------------------------------------------------------------------------
# homotopy


def suite_homotopy(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "homotopy")
    opt = lounesto.ClassifyOptions(tol=cfg.tol)
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
    worst_end = _worst(e0.r1 - psi_c.r1, e0.r2 - psi_c.r2, e1.r1 - phi_c.r1, e1.r2 - phi_c.r2)
    t = np.array([0.25, 0.5, 0.75])[:, None]
    fwd, seg = homotopy.eval_path(path, psi_c.r1, t), homotopy.multiplier_at(path, t)
    worst_line = np.max(_rel(fwd.r2 / fwd.r1 - seg, seg))
    worst_sym = _worst(fwd.r2 - homotopy.eval_path(homotopy.spinor_homotopy(phi_c, psi_c), psi_c.r1, 1.0 - t).r2)
    same = homotopy.spinor_homotopy(psi_c, psi_c)
    worst_refl = _worst(homotopy.eval_path(same, psi_c.r1, np.array([0.3, 0.7])[:, None]).r2 - psi_c.r2)
    checks.append(_check("endpoint_exactness", n, worst_end, 0.0))
    checks.append(_check("straight_line", n, worst_line, 1e-12))
    checks.append(_check("path_symmetry", n, worst_sym, 1e-12))
    checks.append(_check("reflexivity", n, worst_refl, 1e-12))

    antipodal = homotopy.basis_homotopy(homotopy.CoordFunction(1.0), homotopy.CoordFunction(-1.0))
    bad = antipodal.degenerate_t != 0.5
    base = generators.random_rim_bases(gen, 1)[0]
    try:
        homotopy.sample_basis(antipodal, base, 0.5)
        bad += 1
    except DegenerateParameter:
        pass
    checks.append(_check("degenerate_detection", 2, int(bad), 0))

    m = min(n, 200)
    hb = generators.random_rim_bases(gen, m)
    # per path: wf then wg, real parts then imaginary parts
    draws = gen.standard_normal((m, 2, 2))
    wf, wg = (draws[:, 0, k] + 1j * draws[:, 1, k] for k in range(2))
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])[:, None]
    paths = homotopy.basis_homotopy(homotopy.CoordFunction(wf), homotopy.CoordFunction(wg))
    near = np.abs(t - paths.degenerate_t) < 1e-6  # NaN (no interior zero) is never near
    vanishing = homotopy.degenerate_at(paths, t)
    at, i = np.nonzero(~(vanishing | near))  # the (t, path) pairs sampled
    paths = homotopy.basis_homotopy(homotopy.CoordFunction(wf[i]), homotopy.CoordFunction(wg[i]))
    _, coords = homotopy.sample_basis(paths, hb[i], t[at, 0])
    noninvertible = np.sum(vanishing & ~near) + np.sum(homotopy.multiplier_at(paths, t[at, 0]) == 0.0)
    checks.append(_check("intermediate_ratio_one", 5 * m, _worst(coords.r2 / coords.r1 - 1.0), 1e-10))
    checks.append(_check("induced_operator_invertible", 5 * m, noninvertible, 0))

    # one path against the m bases; grid rows 1, 3, ..., 9 are t = 0.1, 0.3, ..., 0.9
    path = homotopy.spinor_homotopy(plane.PlaneCoords(1.0 + 0j, 0.8 + 0j), plane.PlaneCoords(1.0 + 0j, 0.0 + 0j))
    cov = bilinear.compute_batch(hb)
    t_star, before, after, grid = homotopy.class_transition(path, cov["A"].real, cov["B"].real, opt)
    interior_bad = np.sum(grid[1::2] != lounesto.LounestoClass.TYPE1)
    found = (before == lounesto.LounestoClass.TYPE1) & (after == lounesto.LounestoClass.TYPE6) & (t_star > 0.9)
    checks.append(_check("sweep_interior_regular", 5 * m, interior_bad, 0))
    checks.append(_check("class_transition_bisection", m, np.sum(~found), 0))
    return _report("homotopy", checks)


# ---------------------------------------------------------------------------
# mdo


def suite_mdo(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "mdo")
    n = min(cfg.trials, 1000)
    checks = []

    moms = generators.random_momenta(gen, n)
    inv, comm = mdo.xi_checks(mdo.Momentum(*moms.T))
    checks.append(_check("xi_involution", n, np.max(inv), 1e-11))
    checks.append(_check("xi_slash_commutator", n, np.max(comm), 1e-11))

    m = min(n, 250)
    mom = mdo.Momentum(*moms[:m].T)
    worst_struct = worst_hel = worst_dirac = worst_flip = worst_singular = 0.0
    sign_bad = 0
    slash_xi = clifford.slash(mdo.four_momentum(mom)) @ mdo.xi(mom)
    g5 = clifford.build().gamma5
    for conj in ("S", "A"):
        for h in (+1, -1):
            e = mdo.elko(mom, h, conj)
            lam = e.spinor
            nrm = spinor.row_norms(lam)
            rebuilt = (e.sign * 1j * mdo.wigner_theta() @ np.conj(lam[:, 2:, None]))[:, :, 0]
            worst_struct = max(worst_struct, _worst(lam[:, :2] - rebuilt))
            ev_top, ev_bottom = mdo.dual_helicity_eigenvalues(e, mom)
            worst_hel = max(worst_hel, _worst(ev_top + h, ev_bottom - h))
            res, eta = mdo.diraclike_residual(e, mom)
            worst_dirac = max(worst_dirac, np.max(res / (mom.m * nrm)))
            sign_bad += np.sum(eta != mdo.DIRACLIKE_SIGN[conj])
            v = (slash_xi @ lam[:, :, None])[:, :, 0]
            flip = spinor.row_norms(v + (eta * mom.m)[:, None] * lam)
            worst_flip = max(worst_flip, np.max(np.abs(flip - 2.0 * mom.m * nrm) / (mom.m * nrm)))
            d = dirac_dual(lam)[:, None, :]
            singular = [(d @ lam[:, :, None])[:, 0, 0], 1j * (d @ g5 @ lam[:, :, None])[:, 0, 0]]
            worst_singular = max(worst_singular, _worst_rel(singular, np.maximum(1.0, nrm**2)))
    e_s = mdo.elko(mom, +1, "S").spinor
    e_a = mdo.elko(mom, +1, "A").spinor
    worst_pairs = _worst(e_s[:, 2:] - e_a[:, 2:], e_s[:, :2] + e_a[:, :2])
    # helicity alternates +1, -1 over the momenta
    e = mdo.elko(mom, np.where(np.arange(m) % 2 == 0, +1, -1), "S")
    ns = np.sum(np.abs(e.spinor) ** 2, axis=1)
    chirality = mdo.chirality_current_residuals(e, mom)
    worst_chirality = np.max(np.max(chirality, axis=1) / np.maximum(1.0, ns**1.5))
    cov = bilinear.compute_batch(e.spinor, DualKind.MDO, mdo.xi(mom))
    j2 = clifford.minkowski_dot(cov["J"], cov["J"])
    worst_j2 = np.max(np.abs(j2 - cov["A"] ** 2 - cov["B"] ** 2) / np.maximum(1.0, ns**2))
    checks.append(_check("elko_structure", 4 * m, worst_struct, 0.0))
    checks.append(_check("dual_helicity", 4 * m, worst_hel, 1e-12))
    checks.append(_check("diraclike_residual", 4 * m, worst_dirac, 1e-9))
    checks.append(_check("diraclike_sign_fixture", 4 * m, sign_bad, 0))
    checks.append(_check("diraclike_flipped_sign", 4 * m, worst_flip, 1e-9))
    checks.append(_check("dirac_dual_singular", 4 * m, worst_singular, 1e-12))
    checks.append(_check("conjugacy_pair_structure", m, worst_pairs, 0.0))
    checks.append(_check("chirality_current_relations", m, worst_chirality, 1e-9))
    checks.append(_check("mdo_dual_j2", m, worst_j2, 1e-10))

    rest = mdo.Momentum(1.3, 0.0, 0.9, 0.4)
    e = mdo.elko(rest, +1, "S")
    expected_bottom = math.sqrt(rest.m) * mdo.helicity_spinor(rest.theta, rest.phi, +1)
    worst_rest = float(np.max(np.abs(np.asarray(block2(e.spinor)) - expected_bottom)))
    checks.append(_check("rest_frame_reduction", 1, worst_rest, 1e-12))

    fixture = mdo.Momentum(1.0, 0.5, np.pi / 3, np.pi / 5)
    e = mdo.elko(fixture, +1, "S")
    dual_gap = abs(mdo.mdo_norm(e, fixture) - complex(dirac_dual(e.spinor) @ e.spinor))
    checks.append(_check("dual_norms_differ", 1, 1.0 if dual_gap < 1e-6 else 0.0, 0.0))

    mf = min(n, 300)
    fb = generators.random_rim_bases(gen, mf)
    fa, fbb = generators.random_valid_params(gen, mf)
    fmom = mdo.Momentum(*generators.random_momenta(gen, mf).T)
    params = rim.validate(fa, fbb, cfg.tol)
    cov = bilinear.compute_batch(fb)
    pots = rim.potentials(cov, params)
    sgn = np.where(np.arange(mf) % 2 == 0, -1, 1)
    forms = mdo.fg_exponential_forms(pots.S, pots.R, params, cov, fmom, sgn)
    worst_fg = _worst(
        _rel(forms["raw_F"] - forms["simplified_F"], forms["raw_F"]),
        _rel(forms["raw_G"] - forms["simplified_G"], forms["raw_G"]),
    )
    mom0 = mdo.Momentum(fmom.m, fmom.p, np.zeros(mf), fmom.phi)
    f0, g0 = mdo.fg_functions(pots.S, pots.R, params, cov, mom0, sgn)
    worst_fg0 = _worst(f0 - (-2j * params.s * pots.R), g0 - (+2j * params.s * pots.R))
    minus = sgn == -1
    two_re_a = 2.0 * params.a.real
    j2 = np.real((cov["A"] - 1j * cov["B"]) * (cov["A"] + 1j * cov["B"]))
    expected = np.exp(-fmom.p * np.sin(fmom.theta) * cov["A"] / (two_re_a * j2))
    prod = forms["raw_F"] * forms["raw_G"]
    worst_fgprod = np.max(_rel(prod - expected, expected)[minus], initial=0.0)
    checks.append(_check("fg_raw_vs_simplified", mf, worst_fg, 1e-10))
    checks.append(_check("fg_theta_zero", mf, worst_fg0, 1e-12))
    checks.append(_check("fg_product_identity", mf, worst_fgprod, 1e-10))
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
