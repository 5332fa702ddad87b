"""Randomized verification suites behind ``verify`` and the acceptance tests.

Each suite returns {"suite", "checks": [...], "pass"}; a check row carries
the worst observed value (residual or mismatch count) against its pinned
tolerance.  All randomness flows from per-suite Philox streams keyed by the
run seed, so reports are reproducible byte for byte.

Scale conventions: quantities quadratic in the spinor are measured against
max(1, |psi|^2), quartic residuals against max(1, |psi|^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bilinear, clifford, generators, homotopy, lounesto, mdo, plane, rim, rng
from .errors import DegenerateParameter
from .spinor import DEFAULT_TOL, DualKind, assemble, block1, block2, dirac_dual, quad_scale, quartic_scale


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
    worst = 0.0
    for _ in range(n):
        u = generators.random_complex(gen, 4)
        v = generators.random_complex(gen, 4)
        su, sv = clifford.slash(u), clifford.slash(v)
        target = 2.0 * clifford.minkowski_dot(u, v) * np.eye(4)
        err = np.max(np.abs(su @ sv + sv @ su - target))
        worst = max(worst, err / max(1.0, float(np.linalg.norm(u) * np.linalg.norm(v))))
    checks.append(_check("slash_contraction", n, worst, 1e-12))
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
    vclasses = _classes(vbases, opt).tolist()
    bad = 0
    for i in range(nb):
        bad += not (rim.validate_rim_base(vbases[i], opt).ok and vclasses[i] == T1)
    checks.append(_check("valid_bases_type1", nb, bad, 0))

    bad = 0
    for i in range(nb):
        u = generators.random_complex(gen, 2)
        t = float(gen.uniform(0.3, 1.5))
        psi_a0 = assemble(u, 1j * t * u)  # A1 pure imaginary -> A = 0
        val = rim.validate_rim_base(psi_a0, opt)
        bad += val.ok or "A=0" not in val.reasons
        psi_b0 = assemble(u, t * u)  # A1 real -> B = 0
        val = rim.validate_rim_base(psi_b0, opt)
        bad += val.ok or "B=0" not in val.reasons
    checks.append(_check("synthetic_rejections", 2 * nb, bad, 0))
    return _report("props", checks)


# ---------------------------------------------------------------------------
# rim (couplings, domains, potentials, pointwise identities)


def suite_rim(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "rim")
    n = cfg.trials
    checks = []

    a_arr, b_arr = generators.random_valid_params(gen, n)
    worst_s = worst_rho = 0.0
    for i in range(min(n, 2000)):
        p = rim.validate(a_arr[i], b_arr[i], cfg.tol)
        worst_s = max(worst_s, abs(2.0 * p.s - 1j * (p.a - p.b)))
        worst_rho = max(worst_rho, abs(p.rho + 2.0 * p.s / p.b.imag))
    checks.append(_check("coupling_s_relation", min(n, 2000), worst_s, 1e-12))
    checks.append(_check("coupling_rho_relation", min(n, 2000), worst_rho, 1e-12))

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
    q1 = np.digitize(phi1, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi])
    q2 = np.digitize(phi2, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi])
    membership = np.zeros(nd, dtype=int)
    for (w, z), _dom in rim.DOMAIN_PAIRS.items():
        membership += (q1 == w) & (q2 == z)
    checks.append(_check("domain_disjointness", nd, int(np.max(membership)) - 1, 0))

    psis = generators.random_spinors(gen, n)
    a_arr, b_arr = generators.random_valid_params(gen, n)
    s_arr = 0.5 * (b_arr.imag - a_arr.imag)
    quartic = quartic_scale(psis)
    res = rim.heisenberg_residual_batch(psis, a_arr, b_arr, s_arr) / quartic
    checks.append(_check("heisenberg_pointwise", n, np.max(res), 1e-10))

    m = min(n, 1000)
    vbases = generators.random_rim_bases(gen, m)
    vbases = vbases / np.linalg.norm(vbases, axis=1)[:, None]  # unit scale for the margin bound
    av, bv = generators.random_valid_params(gen, m)
    sv = 0.5 * (bv.imag - av.imag) + 0.1  # broken balance
    control = rim.heisenberg_residual_batch(vbases, av, bv, sv) / quartic_scale(vbases)
    checks.append(_check("heisenberg_control", m, 1e-3 / max(np.min(control), 1e-300), 1.0))

    res_a, res_b = rim.del_ab_residuals_batch(psis, a_arr, b_arr)
    checks.append(_check("del_A_identity", n, np.max(res_a / quartic), 1e-10))
    checks.append(_check("del_B_identity", n, np.max(res_b / quartic), 1e-10))

    pb = generators.random_rim_bases(gen, m)
    pa, pbb = generators.random_valid_params(gen, m)
    worst_phase = worst_shift = worst_tr = 0.0
    for i in range(m):
        params = rim.validate(pa[i], pbb[i], cfg.tol)
        bil = bilinear.compute(pb[i])
        pots = rim.potentials(bil, params)
        worst_phase = max(worst_phase, abs(abs(rim.vartheta(params, pots)) - 1.0))
        c = 1.0 + float(gen.uniform(0.2, 1.5))
        pots_c = rim.potentials(bilinear.compute(c * pb[i]), params)
        worst_shift = max(
            worst_shift,
            abs(pots_c.S - pots.S - math.log(c * c) / (2.0 * params.a.real)),
            abs(pots_c.R - pots.R),
        )
        g = rim.restriction_operator(bil, cfg.tol)  # raises if the forms disagree
        worst_tr = max(worst_tr, abs(np.trace(g)))
    checks.append(_check("vartheta_unit_modulus", m, worst_phase, 1e-10))
    checks.append(_check("potentials_scaling", m, worst_shift, 1e-10))

    zero_k = bilinear.from_scalars(1.0, 0.0, [1.0, 0, 0, 0], [0.0, 0, 0, 0], np.zeros((4, 4)))
    worst_g0 = np.max(np.abs(rim.restriction_operator(zero_k, cfg.tol)))
    checks.append(_check("restriction_trace", m, worst_tr, 1e-10))
    checks.append(_check("restriction_zero_k", 1, worst_g0, 1e-12))
    return _report("rim", checks)


# ---------------------------------------------------------------------------
# plane (coefficients, operators, maps, coordinates)


def suite_plane(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "plane")
    opt = lounesto.ClassifyOptions(tol=cfg.tol)
    n = min(cfg.trials, 1000)
    checks = []

    bases = generators.random_rim_bases(gen, n)
    a_arr, b_arr = generators.random_valid_params(gen, n)
    masses_m = gen.uniform(0.0, 2.0, n)
    masses_mm = gen.uniform(0.0, 2.0, n)
    thetas = gen.uniform(0.0, np.pi, n)
    signs = np.where(gen.uniform(size=n) < 0.5, -1, 1)
    coords_r = generators.random_complex(gen, n)
    coords_r2 = generators.random_complex(gen, n)

    worst = {
        "chi_roundtrip": 0.0,
        "mn_identity": 0.0,
        "lq_inversion": 0.0,
        "map_consistency": 0.0,
        "coords_roundtrip": 0.0,
        "dirac_coords_table": 0.0,
        "beta_two_forms": 0.0,
        "delta_invariants": 0.0,
        "omega_zeta_product": 0.0,
        "chi_closed_form": 0.0,
        "decompose_roundtrip": 0.0,
    }
    type1_bad = 0
    phase_bad = 0

    for i in range(n):
        base = bases[i]
        params = rim.validate(a_arr[i], b_arr[i], cfg.tol)
        bil = bilinear.compute(base)
        c = plane.coefficient_set(params, bil, masses_m[i], masses_mm[i], thetas[i], int(signs[i]))
        chi = plane.chi_factors(c)
        worst["chi_roundtrip"] = max(
            worst["chi_roundtrip"],
            abs(chi.chi1 * chi.chi1_inv - 1.0),
            abs(chi.chi2 * chi.chi2_inv - 1.0),
        )
        mn = plane.compose_operators(plane.m_operator(c), plane.inverse_operator(plane.m_operator(c)))
        worst["mn_identity"] = max(worst["mn_identity"], abs(mn.c1 - 1.0), abs(mn.c2 - 1.0))

        nsb = float(np.linalg.norm(base))
        for op in (plane.l_operator(c), plane.q_operator(c)):
            back = plane.apply_operator(plane.inverse_operator(op), plane.apply_operator(op, base))
            worst["lq_inversion"] = max(worst["lq_inversion"], float(np.linalg.norm(back - base)) / nsb)

        psi_d = plane.dirac_from_base(base, c)
        psi_m = plane.mdo_from_base(base, c)
        mapped = plane.map_dirac_mdo(psi_d, c, "dirac-to-mdo")
        worst["map_consistency"] = max(
            worst["map_consistency"],
            float(np.linalg.norm(mapped - psi_m)) / max(1.0, float(np.linalg.norm(psi_m))),
        )
        back = plane.map_dirac_mdo(mapped, c, "mdo-to-dirac")
        worst["map_consistency"] = max(
            worst["map_consistency"],
            float(np.linalg.norm(back - psi_d)) / max(1.0, float(np.linalg.norm(psi_d))),
        )

        start = plane.PlaneCoords(coords_r[i], coords_r2[i], "B")
        through = plane.convert_coords(
            plane.convert_coords(plane.convert_coords(start, "D", c), "M", c), "B", c
        )
        cscale = max(1.0, abs(start.r1), abs(start.r2))
        worst["coords_roundtrip"] = max(
            worst["coords_roundtrip"],
            abs(through.r1 - start.r1) / cscale,
            abs(through.r2 - start.r2) / cscale,
        )

        dec = plane.decompose(psi_d, base)
        abd = c.alpha * c.beta * c.delta
        abdinv = c.alpha * c.beta / c.delta
        worst["dirac_coords_table"] = max(
            worst["dirac_coords_table"],
            abs(dec.r1 - abd) / max(1.0, abs(abd)),
            abs(dec.r2 - abdinv) / max(1.0, abs(abdinv)),
        )

        beta_alt = np.exp((2j * params.s - 1j * params.b.imag) * math.log(c.J) / (2.0 * params.a.real))
        worst["beta_two_forms"] = max(worst["beta_two_forms"], abs(c.beta - beta_alt))

        amib = bil.A - 1j * bil.B
        worst["delta_invariants"] = max(
            worst["delta_invariants"],
            abs(c.delta**2 - c.J / amib),
            abs(c.epsilon - c.delta**params.rho),
            abs(abs(c.delta) - 1.0),
        )
        j2 = c.J**2
        wz = np.exp(signs[i] * masses_mm[i] * math.sin(thetas[i]) * bil.A / (2.0 * params.a.real * j2))
        worst["omega_zeta_product"] = max(
            worst["omega_zeta_product"], abs(c.omega * c.zeta - wz) / max(1.0, abs(wz))
        )

        closed = c.delta ** (params.rho - 1.0) * np.exp(
            (1.0 / (2.0 * params.a.real))
            * (
                signs[i] * masses_mm[i] * math.sin(thetas[i]) / (2.0 * amib)
                + 1j * (params.a.imag * math.log(c.J) - masses_m[i] / c.J)
            )
        )
        worst["chi_closed_form"] = max(
            worst["chi_closed_form"], abs(chi.chi1 - closed) / max(1.0, abs(closed))
        )

        made = plane.apply_operator(plane.make_operator(coords_r[i], coords_r2[i]), base)
        dec2 = plane.decompose(made, base)
        worst["decompose_roundtrip"] = max(
            worst["decompose_roundtrip"],
            abs(dec2.r1 - coords_r[i]) / cscale,
            abs(dec2.r2 - coords_r2[i]) / cscale,
        )

        cls = lounesto.classify(bilinear.compute(psi_d), opt)
        type1_bad += cls != lounesto.LounestoClass.TYPE1

        ph = np.exp(1j * float(gen.uniform(0.0, 2.0 * np.pi)))
        rotated = plane.block_scale(ph * base, coords_r[i], coords_r2[i])
        c_rot = lounesto.classify(bilinear.compute(rotated), opt)
        c_plain = lounesto.classify(bilinear.compute(made), opt)
        phase_bad += c_rot != c_plain

    checks.append(_check("chi_roundtrip", n, worst["chi_roundtrip"], 1e-12))
    checks.append(_check("mn_identity", n, worst["mn_identity"], 1e-10))
    checks.append(_check("lq_inversion", n, worst["lq_inversion"], 1e-10))
    checks.append(_check("map_consistency", n, worst["map_consistency"], 1e-10))
    checks.append(_check("coords_roundtrip", n, worst["coords_roundtrip"], 1e-10))
    checks.append(_check("dirac_coords_table", n, worst["dirac_coords_table"], 1e-10))
    checks.append(_check("beta_two_forms", n, worst["beta_two_forms"], 1e-12))
    checks.append(_check("delta_invariants", n, worst["delta_invariants"], 1e-12))
    checks.append(_check("omega_zeta_product", n, worst["omega_zeta_product"], 1e-12))
    checks.append(_check("chi_closed_form", n, worst["chi_closed_form"], 1e-10))
    checks.append(_check("decompose_roundtrip", n, worst["decompose_roundtrip"], 1e-10))
    checks.append(_check("dirac_image_type1", n, type1_bad, 0))
    checks.append(_check("base_phase_invariance", n, phase_bad, 0))
    return _report("plane", checks)


# ---------------------------------------------------------------------------
# homotopy


def suite_homotopy(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "homotopy")
    opt = lounesto.ClassifyOptions(tol=cfg.tol)
    n = min(cfg.trials, 500)
    checks = []

    worst_end = 0.0
    worst_line = 0.0
    worst_sym = 0.0
    worst_refl = 0.0
    for _ in range(n):
        r = generators.random_complex(gen, 4)
        psi_c = plane.PlaneCoords(r[0], r[1], "B")
        phi_c = plane.PlaneCoords(r[2], r[3], "B")
        path = homotopy.spinor_homotopy(psi_c, phi_c)
        e0 = homotopy.eval_path(path, psi_c.r1, 0.0)
        e1 = homotopy.eval_path(path, phi_c.r1, 1.0)
        worst_end = max(
            worst_end,
            abs(e0.r1 - psi_c.r1),
            abs(e0.r2 - psi_c.r2),
            abs(e1.r1 - phi_c.r1),
            abs(e1.r2 - phi_c.r2),
        )
        rev = homotopy.spinor_homotopy(phi_c, psi_c)
        for t in (0.25, 0.5, 0.75):
            x = r[0]
            fwd = homotopy.eval_path(path, x, t)
            seg = (1.0 - t) * path.f.w + t * path.g.w
            worst_line = max(worst_line, abs(fwd.r2 / fwd.r1 - seg) / max(1.0, abs(seg)))
            bwd = homotopy.eval_path(rev, x, 1.0 - t)
            worst_sym = max(worst_sym, abs(fwd.r2 - bwd.r2))
        same = homotopy.spinor_homotopy(psi_c, psi_c)
        for t in (0.3, 0.7):
            worst_refl = max(worst_refl, abs(homotopy.eval_path(same, r[0], t).r2 - psi_c.r2))
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

    worst_ratio = 0.0
    noninvertible = 0
    m = min(n, 200)
    hb = generators.random_rim_bases(gen, m)
    for i in range(m):
        wf, wg = generators.random_complex(gen, 2)
        path = homotopy.basis_homotopy(homotopy.CoordFunction(wf), homotopy.CoordFunction(wg))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            if path.degenerate_t is not None and abs(t - path.degenerate_t) < 1e-6:
                continue
            try:
                pair, coords = homotopy.sample_basis(path, hb[i], t)
            except DegenerateParameter:
                noninvertible += 1
                continue
            worst_ratio = max(worst_ratio, abs(coords.r2 / coords.r1 - 1.0))
            if abs(homotopy.multiplier_at(path, t)) == 0.0:
                noninvertible += 1
    checks.append(_check("intermediate_ratio_one", 5 * m, worst_ratio, 1e-10))
    checks.append(_check("induced_operator_invertible", 5 * m, noninvertible, 0))

    transitions_bad = 0
    interior_bad = 0
    for i in range(min(m, 50)):
        bilr = bilinear.compute(hb[i])
        A, B = float(np.real(bilr.A)), float(np.real(bilr.B))
        psi_c = plane.PlaneCoords(1.0 + 0j, 0.8 + 0j, "B")
        phi_c = plane.PlaneCoords(1.0 + 0j, 0.0 + 0j, "B")
        path = homotopy.spinor_homotopy(psi_c, phi_c)
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            coords = homotopy.eval_path(path, 1.0 + 0j, t)
            cls = lounesto.classify_by_coefficients(coords.r1, coords.r2, A, B, opt)
            interior_bad += cls != lounesto.LounestoClass.TYPE1
        found = homotopy.class_transition(path, A, B, opt)
        ok = (
            found is not None
            and found[1] == lounesto.LounestoClass.TYPE1
            and found[2] == lounesto.LounestoClass.TYPE6
            and found[0] > 0.9
        )
        transitions_bad += not ok
    checks.append(_check("sweep_interior_regular", 5 * min(m, 50), interior_bad, 0))
    checks.append(_check("class_transition_bisection", min(m, 50), transitions_bad, 0))
    return _report("homotopy", checks)


# ---------------------------------------------------------------------------
# mdo


def suite_mdo(cfg: SuiteConfig) -> dict:
    gen = rng.stream(cfg.seed, "mdo")
    n = min(cfg.trials, 1000)
    checks = []

    moms = generators.random_momenta(gen, n)
    worst_inv = worst_comm = 0.0
    for i in range(n):
        mom = mdo.Momentum(*moms[i])
        inv, comm = mdo.xi_checks(mom)
        worst_inv = max(worst_inv, inv)
        worst_comm = max(worst_comm, comm)
    checks.append(_check("xi_involution", n, worst_inv, 1e-11))
    checks.append(_check("xi_slash_commutator", n, worst_comm, 1e-11))

    m = min(n, 250)
    worst_struct = 0.0
    worst_hel = 0.0
    worst_dirac = 0.0
    worst_flip = 0.0
    worst_singular = 0.0
    worst_pairs = 0.0
    worst_chirality = 0.0
    worst_j2 = 0.0
    sign_bad = 0
    for i in range(m):
        mom = mdo.Momentum(*moms[i])
        for conj in ("S", "A"):
            for h in (+1, -1):
                e = mdo.elko(mom, h, conj)
                lam = e.spinor
                nrm = float(np.linalg.norm(lam))
                top = np.asarray(block1(lam))
                bottom = np.asarray(block2(lam))
                rebuilt = e.sign * 1j * mdo.wigner_theta() @ np.conj(bottom)
                worst_struct = max(worst_struct, float(np.max(np.abs(top - rebuilt))))
                ev_top, ev_bottom = mdo.dual_helicity_eigenvalues(e, mom)
                worst_hel = max(worst_hel, abs(ev_top + h), abs(ev_bottom - h))
                res, eta = mdo.diraclike_residual(e, mom)
                worst_dirac = max(worst_dirac, res / (mom.m * nrm))
                sign_bad += eta != mdo.DIRACLIKE_SIGN[conj]
                v = clifford.slash(mdo.four_momentum(mom)) @ mdo.xi(mom) @ lam
                flip = float(np.linalg.norm(v + eta * mom.m * lam))
                worst_flip = max(worst_flip, abs(flip - 2.0 * mom.m * nrm) / (mom.m * nrm))
                d = dirac_dual(lam)
                worst_singular = max(
                    worst_singular,
                    abs(d @ lam) / max(1.0, nrm**2),
                    abs(1j * (d @ clifford.build().gamma5 @ lam)) / max(1.0, nrm**2),
                )
            e_s = mdo.elko(mom, +1, "S")
            e_a = mdo.elko(mom, +1, "A")
            worst_pairs = max(
                worst_pairs,
                float(np.max(np.abs(np.asarray(block2(e_s.spinor)) - np.asarray(block2(e_a.spinor))))),
                float(np.max(np.abs(np.asarray(block1(e_s.spinor)) + np.asarray(block1(e_a.spinor))))),
            )
        e = mdo.elko(mom, +1 if i % 2 == 0 else -1, "S")
        ns = float(np.sum(np.abs(e.spinor) ** 2))
        worst_chirality = max(worst_chirality, float(np.max(mdo.chirality_current_residuals(e, mom))) / max(1.0, ns**1.5))
        cov = bilinear.compute(e.spinor, DualKind.MDO, mdo.xi(mom))
        worst_j2 = max(
            worst_j2,
            abs(clifford.minkowski_dot(cov.J, cov.J) - cov.A**2 - cov.B**2) / max(1.0, ns**2),
        )
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
    fmoms = generators.random_momenta(gen, mf)
    worst_fg = worst_fg0 = worst_fgprod = 0.0
    for i in range(mf):
        params = rim.validate(fa[i], fbb[i], cfg.tol)
        bil = bilinear.compute(fb[i])
        pots = rim.potentials(bil, params)
        mom = mdo.Momentum(*fmoms[i])
        sgn = -1 if i % 2 == 0 else 1
        forms = mdo.fg_exponential_forms(pots.S, pots.R, params, bil, mom, sgn)
        worst_fg = max(
            worst_fg,
            abs(forms["raw_F"] - forms["simplified_F"]) / max(1.0, abs(forms["raw_F"])),
            abs(forms["raw_G"] - forms["simplified_G"]) / max(1.0, abs(forms["raw_G"])),
        )
        mom0 = mdo.Momentum(mom.m, mom.p, 0.0, mom.phi)
        f0, g0 = mdo.fg_functions(pots.S, pots.R, params, bil, mom0, sgn)
        worst_fg0 = max(
            worst_fg0,
            abs(f0 - (-2j * params.s * pots.R)),
            abs(g0 - (+2j * params.s * pots.R)),
        )
        if sgn == -1:
            two_re_a = 2.0 * params.a.real
            j2 = float(np.real((bil.A - 1j * bil.B) * (bil.A + 1j * bil.B)))
            expected = np.exp(-mom.p * math.sin(mom.theta) * bil.A / (two_re_a * j2))
            prod = forms["raw_F"] * forms["raw_G"]
            worst_fgprod = max(worst_fgprod, abs(prod - expected) / max(1.0, abs(expected)))
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
