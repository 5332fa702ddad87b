import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinorlab import bilinear, clifford, mdo, rim
from spinorlab.generators import random_momenta, random_rim_bases, random_valid_params
from spinorlab.spinor import DualKind, dirac_dual

THETA = mdo.wigner_theta()
SIGMA = clifford.SIGMA


def test_theta_square_and_det():
    assert np.array_equal(THETA @ THETA, -np.eye(2))
    assert np.linalg.det(THETA) == pytest.approx(1.0)


@pytest.mark.parametrize("k", range(3))
def test_theta_conjugates_pauli(k):
    lhs = THETA @ SIGMA[k] @ np.linalg.inv(THETA)
    assert np.max(np.abs(lhs + np.conj(SIGMA[k]))) < 1e-14


def test_helicity_spinor_north_pole():
    assert np.allclose(mdo.helicity_spinor(0.0, 0.0, +1), [1.0, 0.0])


def test_helicity_spinor_eigenvectors(rng):
    for _ in range(100):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        sp = mdo.sigma_phat(theta, phi)
        for h in (+1, -1):
            v = mdo.helicity_spinor(theta, phi, h)
            assert np.max(np.abs(sp @ v - h * v)) < 1e-13
            assert np.vdot(v, v) == pytest.approx(1.0, abs=1e-13)


def test_wigner_flip_changes_helicity(rng):
    for _ in range(50):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        sp = mdo.sigma_phat(theta, phi)
        flipped = THETA @ np.conj(mdo.helicity_spinor(theta, phi, +1))
        assert np.max(np.abs(sp @ flipped + flipped)) < 1e-13


def test_momentum_mass_shell():
    mom = mdo.Momentum(1.2, 0.9, 0.3, 0.4)
    assert mom.E**2 - mom.p**2 == pytest.approx(mom.m**2, abs=1e-12)
    with pytest.raises(ValueError):
        mdo.Momentum(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        mdo.Momentum(1.0, -1.0, 0.0, 0.0)


def test_elko_structure_exact(rng):
    for row in random_momenta(rng, 20):
        mom = mdo.Momentum(*row)
        for conj in ("S", "A"):
            for h in (+1, -1):
                e = mdo.elko(mom, h, conj)
                top, bottom = e.spinor[:2], e.spinor[2:]
                assert np.array_equal(top, e.sign * 1j * THETA @ np.conj(bottom))


def test_elko_charge_conjugation_eigenvalues(rng):
    mom = mdo.Momentum(1.0, 0.7, 1.1, 0.6)
    for conj, eigen in (("S", +1), ("A", -1)):
        for h in (+1, -1):
            lam = mdo.elko(mom, h, conj).spinor
            assert np.max(np.abs(mdo.charge_conjugate(lam) - eigen * lam)) < 1e-12


def test_elko_sign_conj_contract():
    mom = mdo.Momentum(1.0, 0.7, 1.1, 0.6)
    assert mdo.elko(mom, +1, "S").sign == +1
    assert mdo.elko(mom, +1, "A").sign == -1


def test_elko_rest_frame_reduction():
    mom = mdo.Momentum(1.44, 0.0, 0.8, 0.3)
    e = mdo.elko(mom, +1, "S")
    expected = math.sqrt(mom.m) * mdo.helicity_spinor(mom.theta, mom.phi, +1)
    assert np.max(np.abs(e.spinor[2:] - expected)) < 1e-14


def test_elko_dirac_dual_singular(rng):
    for row in random_momenta(rng, 50):
        mom = mdo.Momentum(*row)
        lam = mdo.elko(mom, +1, "S").spinor
        d = dirac_dual(lam)
        ns = float(np.sum(np.abs(lam) ** 2))
        assert abs(d @ lam) < 1e-12 * max(1.0, ns)
        g5 = clifford.build().gamma5
        assert abs(1j * (d @ g5 @ lam)) < 1e-12 * max(1.0, ns)


def test_elko_dual_helicity(rng):
    for row in random_momenta(rng, 50):
        mom = mdo.Momentum(*row)
        for h in (+1, -1):
            e = mdo.elko(mom, h, "S")
            ev_top, ev_bottom = mdo.dual_helicity_eigenvalues(e, mom)
            assert ev_top == pytest.approx(-h, abs=1e-12)
            assert ev_bottom == pytest.approx(+h, abs=1e-12)


def test_xi_involution_and_commutator(rng):
    for row in random_momenta(rng, 100):
        mom = mdo.Momentum(*row)
        inv, comm = mdo.xi_checks(mom)
        assert inv < 1e-12
        assert comm < 1e-12


def test_xi_trace_zero(rng):
    mom = mdo.Momentum(0.9, 2.2, 0.7, 5.1)
    assert abs(np.trace(mdo.xi(mom))) < 1e-14


def test_diraclike_residual_and_fixture(rng):
    for row in random_momenta(rng, 50):
        mom = mdo.Momentum(*row)
        for conj in ("S", "A"):
            for h in (+1, -1):
                e = mdo.elko(mom, h, conj)
                res, eta = mdo.diraclike_residual(e, mom)
                assert res < 1e-9 * mom.m * np.linalg.norm(e.spinor)
                assert eta == mdo.DIRACLIKE_SIGN[conj]


@given(
    log_p_over_m=st.floats(0.0, 9.0),
    log_m=st.floats(-3.0, 3.0),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2.0 * math.pi),
    conj=st.sampled_from(["S", "A"]),
    h=st.sampled_from([+1, -1]),
)
@example(log_p_over_m=8.0, log_m=0.0, theta=0.5, phi=0.2, conj="S", h=+1)  # read -1
@settings(deadline=None, max_examples=300)
def test_every_reported_diraclike_sign_is_its_conjugacys(log_p_over_m, log_m, theta, phi, conj, h):
    m = 10.0**log_m
    mom = mdo.Momentum(m, m * 10.0**log_p_over_m, theta, phi)
    res, eta = mdo.diraclike_residual(mdo.elko(mom, h, conj), mom)
    assert eta in (0, mdo.DIRACLIKE_SIGN[conj])
    # the rounding floor stays below half the gap up to p/m ~ 2e7
    assert eta != 0 or log_p_over_m > 7.0


def test_diraclike_mass_rescaling():
    for m in (1.0, 2.0):
        mom = mdo.Momentum(m, 0.8, 1.0, 0.2)
        e = mdo.elko(mom, -1, "A")
        res, _ = mdo.diraclike_residual(e, mom)
        assert res < 1e-9 * mom.m * np.linalg.norm(e.spinor)


def test_diraclike_flipped_sign_magnitude():
    mom = mdo.Momentum(1.3, 0.9, 0.8, 0.5)
    e = mdo.elko(mom, +1, "S")
    lam = e.spinor
    v = clifford.slash(mdo.four_momentum(mom)) @ mdo.xi(mom) @ lam
    _, eta = mdo.diraclike_residual(e, mom)
    flipped = np.linalg.norm(v - (-eta) * mom.m * lam)
    assert flipped == pytest.approx(2 * mom.m * np.linalg.norm(lam), rel=1e-9)


def test_chirality_current_relations(rng):
    for row in random_momenta(rng, 50):
        row[1] = max(row[1], 0.1)
        mom = mdo.Momentum(*row)
        h = +1 if row[3] > np.pi else -1
        e = mdo.elko(mom, h, "S")
        ns = float(np.sum(np.abs(e.spinor) ** 2))
        res = mdo.chirality_current_residuals(e, mom)
        assert np.max(res) < 1e-9 * max(1.0, ns**1.5)


def test_swapped_chirality_relation_fails():
    # slash(J) flips the chirality block, so equating against the same-side
    # part leaves an order-one residual
    mom = mdo.Momentum(1.0, 0.8, 1.2, 0.4)
    e = mdo.elko(mom, +1, "S")
    lam = e.spinor
    x = mdo.xi(mom)
    b = bilinear.compute(lam, DualKind.MDO, x)
    lam_l = np.concatenate([np.zeros(2), lam[2:]])
    wrong = np.linalg.norm(clifford.slash(b.J) @ lam_l - (b.A - 1j * b.B) * lam_l)
    assert wrong > 0.1


def test_mdo_dual_j2_identity(rng):
    for row in random_momenta(rng, 50):
        mom = mdo.Momentum(*row)
        lam = mdo.elko(mom, -1, "S").spinor
        b = bilinear.compute(lam, DualKind.MDO, mdo.xi(mom))
        ns = float(np.sum(np.abs(lam) ** 2))
        j2 = clifford.minkowski_dot(b.J, b.J)
        assert abs(j2 - b.A**2 - b.B**2) < 1e-10 * max(1.0, ns**2)


def test_conjugacy_pairs_differ_by_block_sign():
    mom = mdo.Momentum(1.0, 1.4, 0.9, 2.2)
    for h in (+1, -1):
        s = mdo.elko(mom, h, "S").spinor
        a = mdo.elko(mom, h, "A").spinor
        assert np.array_equal(s[2:], a[2:])
        assert np.array_equal(s[:2], -a[:2])


def _fg_inputs(rng):
    base = random_rim_bases(rng, 1)[0]
    a_arr, b_arr = random_valid_params(rng, 1)
    params = rim.validate(a_arr[0], b_arr[0])
    bil = bilinear.compute(base)
    pots = rim.potentials(bil, params)
    return params, bil, pots


def test_fg_zero_angle(rng):
    params, bil, pots = _fg_inputs(rng)
    mom = mdo.Momentum(1.0, 0.8, 0.0, 0.3)
    f, g = mdo.fg_functions(pots.S, pots.R, params, bil, mom, -1)
    assert f == pytest.approx(-2j * params.s * pots.R, abs=1e-14)
    assert g == pytest.approx(+2j * params.s * pots.R, abs=1e-14)


def test_fg_raw_vs_simplified(rng):
    for _ in range(100):
        params, bil, pots = _fg_inputs(rng)
        mom = mdo.Momentum(*random_momenta(rng, 1)[0])
        for sign in (+1, -1):
            forms = mdo.fg_exponential_forms(pots.S, pots.R, params, bil, mom, sign)
            assert abs(forms["raw_F"] - forms["simplified_F"]) < 1e-10 * max(1.0, abs(forms["raw_F"]))
            assert abs(forms["raw_G"] - forms["simplified_G"]) < 1e-10 * max(1.0, abs(forms["raw_G"]))


def test_fg_product_collapses(rng):
    params, bil, pots = _fg_inputs(rng)
    mom = mdo.Momentum(1.0, 1.2, 0.9, 0.1)
    forms = mdo.fg_exponential_forms(pots.S, pots.R, params, bil, mom, -1)
    two_re_a = 2 * params.a.real
    j2 = float(np.real((bil.A - 1j * bil.B) * (bil.A + 1j * bil.B)))
    expected = np.exp(-mom.p * math.sin(mom.theta) * np.real(bil.A) / (two_re_a * j2))
    assert forms["raw_F"] * forms["raw_G"] == pytest.approx(expected, rel=1e-12)


def test_mdo_norm_nonzero():
    mom = mdo.Momentum(1.0, 0.5, np.pi / 3, np.pi / 5)
    e = mdo.elko(mom, +1, "S")
    assert abs(mdo.mdo_norm(e, mom)) > 0.1
