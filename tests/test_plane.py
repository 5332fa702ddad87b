import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import bilinear, lounesto, plane, rim
from spinorlab.errors import (
    DegenerateBasis,
    DegenerateRealPart,
    InvalidBase,
    NonInvertible,
    NotInPlane,
    ZeroCoefficient,
)
from spinorlab.generators import random_rim_bases, random_valid_params
from spinorlab.spinor import block1, block2

from conftest import coordinate_rows, random_spinor

PARAMS = rim.validate(0.7 + 0.4j, 0.7 - 0.9j)


def unit_current_bilinears():
    # A = 0.6, B = 0.8 gives J = 1
    return bilinear.from_scalars(0.6, 0.8, [1.0, 0, 0, 0], [0.0] * 4, np.zeros((4, 4)))


def coefficients(M=1.0, m=0.5, theta=0.7, sign=+1, bil=None, params=PARAMS):
    return plane.coefficient_set(params, bil or unit_current_bilinears(), M, m, theta, sign)


def test_beta_is_one_for_unit_current():
    c = coefficients()
    assert c.J == pytest.approx(1.0, abs=1e-14)
    assert c.beta == pytest.approx(1.0, abs=1e-14)


def test_alpha_is_one_for_zero_mass():
    c = coefficients(M=0.0)
    assert c.alpha == pytest.approx(1.0, abs=1e-14)


def test_omega_zeta_are_one_at_zero_angle():
    c = coefficients(theta=0.0)
    assert c.omega == pytest.approx(1.0, abs=1e-14)
    assert c.zeta == pytest.approx(1.0, abs=1e-14)


def test_omega_zeta_product_identity(rng):
    bases = random_rim_bases(rng, 50)
    a_arr, b_arr = random_valid_params(rng, 50)
    for i, base in enumerate(bases):
        params = rim.validate(a_arr[i], b_arr[i])
        bil = bilinear.compute(base)
        sign = 1 if i % 2 == 0 else -1
        c = plane.coefficient_set(params, bil, 1.3, 0.8, 1.1, sign)
        expected = np.exp(sign * 0.8 * math.sin(1.1) * bil.A.real / (2 * params.a.real * c.J**2))
        assert abs(c.omega * c.zeta - expected) < 1e-12 * max(1.0, abs(expected))


def test_delta_invariants(rng):
    bases = random_rim_bases(rng, 50)
    for base in bases:
        bil = bilinear.compute(base)
        c = coefficients(bil=bil)
        amib = bil.A - 1j * bil.B
        assert abs(c.delta**2 - c.J / amib) < 1e-12
        assert abs(c.epsilon - c.delta**PARAMS.rho) < 1e-12
        assert abs(abs(c.delta) - 1.0) < 1e-12


def test_coefficient_set_rejects_degenerate_base():
    bad = bilinear.from_scalars(0.0, 0.8, [1.0, 0, 0, 0], [0.0] * 4, np.zeros((4, 4)))
    with pytest.raises(InvalidBase):
        coefficients(bil=bad)


def test_coefficient_set_rejects_imaginary_coupling():
    p = rim.RimParams(a=1j, b=1j, s=0.0, rho=0.0, domain=rim.OmegaDomain.OUTSIDE)
    with pytest.raises(DegenerateRealPart):
        plane.coefficient_set(p, unit_current_bilinears(), 1.0, 1.0, 0.5, +1)


def test_chi_factors_identity_coefficients():
    c = plane.CoefficientSet(
        alpha=1, beta=1, delta=1, epsilon=1, omega=1, zeta=1,
        M_dirac=0, m_mdo=0, theta=0, sign=1, rho=0, J=1, beta_exponent=0,
    )
    chi = plane.chi_factors(c)
    assert chi.chi1 == 1 and chi.chi2 == 1


def test_chi_factors_roundtrip(rng):
    for base in random_rim_bases(rng, 50):
        c = coefficients(bil=bilinear.compute(base))
        chi = plane.chi_factors(c)
        assert abs(chi.chi1 * chi.chi1_inv - 1) < 1e-12
        assert abs(chi.chi2 * chi.chi2_inv - 1) < 1e-12


def test_chi_factors_zero_coefficient():
    c = plane.CoefficientSet(
        alpha=0, beta=1, delta=1, epsilon=1, omega=1, zeta=1,
        M_dirac=0, m_mdo=0, theta=0, sign=1, rho=0, J=1, beta_exponent=0,
    )
    with pytest.raises(ZeroCoefficient):
        plane.chi_factors(c)


def test_chi_closed_form(rng):
    """The expanded closed form (with the corrected log-term sign)."""
    bases = random_rim_bases(rng, 100)
    a_arr, b_arr = random_valid_params(rng, 100)
    for i, base in enumerate(bases):
        params = rim.validate(a_arr[i], b_arr[i])
        bil = bilinear.compute(base)
        sign = 1 if i % 3 else -1
        M, m, theta = 0.9, 1.2, 0.8
        c = plane.coefficient_set(params, bil, M, m, theta, sign)
        chi = plane.chi_factors(c)
        amib = bil.A - 1j * bil.B
        closed1 = c.delta ** (params.rho - 1) * np.exp(
            (1 / (2 * params.a.real))
            * (sign * m * math.sin(theta) / (2 * amib) + 1j * (params.a.imag * math.log(c.J) - M / c.J))
        )
        closed2 = c.delta ** (1 - params.rho) * np.exp(
            (1 / (2 * params.a.real))
            * (sign * m * math.sin(theta) / (2 * np.conj(amib)) + 1j * (params.a.imag * math.log(c.J) - M / c.J))
        )
        assert abs(chi.chi1 - closed1) < 1e-10 * max(1.0, abs(closed1))
        assert abs(chi.chi2 - closed2) < 1e-10 * max(1.0, abs(closed2))


def test_operator_identity_and_apply():
    op = plane.make_operator(1.0, 1.0)
    psi = np.array([1, 2, 3, 4], dtype=complex)
    assert np.array_equal(plane.apply_operator(op, psi), psi)
    op = plane.make_operator(2.0, 3.0)
    assert np.array_equal(plane.apply_operator(op, np.ones(4)), [2, 2, 3, 3])
    assert np.array_equal(plane.operator_matrix(op), np.diag([2, 2, 3, 3]))


def test_operator_inverse_roundtrip(rng):
    psi = random_spinor(rng)
    op = plane.make_operator(2.0, 4.0)
    back = plane.apply_operator(plane.inverse_operator(op), plane.apply_operator(op, psi))
    assert np.max(np.abs(back - psi)) < 1e-14


def test_operator_noninvertible():
    with pytest.raises(NonInvertible):
        plane.inverse_operator(plane.make_operator(0.0, 1.0))


def test_operator_closure(rng):
    op = plane.compose_operators(plane.make_operator(2.0, 1j), plane.make_operator(0.5, -1j))
    assert op.c1 == 1.0 and op.c2 == 1.0


def test_dirac_image_coordinates(rng):
    for base in random_rim_bases(rng, 20):
        bil = bilinear.compute(base)
        c = coefficients(bil=bil)
        psi_d = plane.dirac_from_base(base, c)
        coords = plane.decompose(psi_d, base)
        abd = c.alpha * c.beta * c.delta
        assert abs(coords.r1 - abd) < 1e-10 * max(1.0, abs(abd))
        assert abs(coords.r2 - c.alpha * c.beta / c.delta) < 1e-10


def test_mdo_image_coordinates(rng):
    base = random_rim_bases(rng, 1)[0]
    bil = bilinear.compute(base)
    c = coefficients(bil=bil)
    lam = plane.mdo_from_base(base, c)
    coords = plane.decompose(lam, base)
    assert abs(coords.r1 - c.epsilon * c.omega) < 1e-10
    assert abs(coords.r2 - c.zeta / c.epsilon) < 1e-10


def test_identity_coefficient_set_returns_base(rng):
    base = random_spinor(rng)
    c = plane.CoefficientSet(
        alpha=1, beta=1, delta=1, epsilon=1, omega=1, zeta=1,
        M_dirac=0, m_mdo=0, theta=0, sign=1, rho=0, J=1, beta_exponent=0,
    )
    assert np.array_equal(plane.dirac_from_base(base, c), base)
    assert np.array_equal(plane.mdo_from_base(base, c), base)
    assert np.array_equal(plane.map_dirac_mdo(base, c), base)


def test_map_roundtrip_and_consistency(rng):
    bases = random_rim_bases(rng, 50)
    a_arr, b_arr = random_valid_params(rng, 50)
    for i, base in enumerate(bases):
        params = rim.validate(a_arr[i], b_arr[i])
        bil = bilinear.compute(base)
        c = plane.coefficient_set(params, bil, 0.9, 1.1, 0.6, -1)
        psi_d = plane.dirac_from_base(base, c)
        lam = plane.mdo_from_base(base, c)
        mapped = plane.map_dirac_mdo(psi_d, c, "dirac-to-mdo")
        assert np.max(np.abs(mapped - lam)) < 1e-10 * max(1.0, np.linalg.norm(lam))
        back = plane.map_dirac_mdo(mapped, c, "mdo-to-dirac")
        assert np.max(np.abs(back - psi_d)) < 1e-12 * max(1.0, np.linalg.norm(psi_d))


def test_dirac_image_is_type1(rng):
    opt = lounesto.ClassifyOptions()
    for base in random_rim_bases(rng, 100):
        c = coefficients(bil=bilinear.compute(base))
        cls = lounesto.classify(bilinear.compute(plane.dirac_from_base(base, c)), opt)
        assert cls == lounesto.LounestoClass.TYPE1


def test_decompose_identity_and_operator():
    base = np.array([1.0, 0.5j, -0.3, 0.8], dtype=complex)
    coords = plane.decompose(base, base)
    assert coords.r1 == pytest.approx(1.0, abs=1e-14)
    assert coords.r2 == pytest.approx(1.0, abs=1e-14)
    made = plane.apply_operator(plane.make_operator(2.0, 3j), base)
    coords = plane.decompose(made, base)
    assert coords.r1 == pytest.approx(2.0, abs=1e-12)
    assert coords.r2 == pytest.approx(3j, abs=1e-12)


def test_decompose_tolerates_noise_in_zero_block():
    base = np.array([1.0, 0.5j, -0.3, 0.8], dtype=complex)
    noisy = plane.apply_operator(plane.make_operator(0.7, 0.0), base)
    noisy = noisy + np.array([0, 0, 1e-17, -1e-17j])
    coords = plane.decompose(noisy, base)
    assert coords.r1 == pytest.approx(0.7, abs=1e-12)
    assert abs(coords.r2) < 1e-12


def test_operator_matrix_matches_apply(rng):
    op = plane.make_operator(0.3 - 1.1j, 2.0 + 0.4j)
    psi = np.array([0.2, -0.9j, 1.4, 0.5 + 0.5j])
    assert np.allclose(plane.operator_matrix(op) @ psi, plane.apply_operator(op, psi))


def test_map_operator_projector_form(rng):
    from spinorlab.clifford import projector

    base = random_rim_bases(rng, 1)[0]
    c = coefficients(bil=bilinear.compute(base))
    chi = plane.chi_factors(c)
    # chi1 multiplies the first-coordinate (top) block
    expected = chi.chi1 * projector(1) + chi.chi2 * projector(2)
    assert np.allclose(plane.operator_matrix(plane.m_operator(c)), expected)


def test_decompose_rejects_foreign_spinor():
    base = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)
    alien = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    with pytest.raises(NotInPlane):
        plane.decompose(alien, base)


def test_decompose_rejects_zero_block_base():
    base = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(DegenerateBasis):
        plane.decompose(base, base)


def test_coordinate_roundtrip_through_all_bases(rng):
    for base in random_rim_bases(rng, 30):
        c = coefficients(bil=bilinear.compute(base))
        start = plane.PlaneCoords(0.3 - 1.2j, 0.9 + 0.4j, "B")
        out = plane.convert_coords(plane.convert_coords(plane.convert_coords(start, "D", c), "M", c), "B", c)
        assert abs(out.r1 - start.r1) < 1e-10
        assert abs(out.r2 - start.r2) < 1e-10


def test_coordinate_tables(rng):
    base = random_rim_bases(rng, 1)[0]
    c = coefficients(bil=bilinear.compute(base))
    ident = plane.PlaneCoords(1.0, 1.0, "B")
    in_d = plane.convert_coords(ident, "D", c)
    abd = c.alpha * c.beta * c.delta
    assert abs(in_d.r1 - 1.0 / abd) < 1e-12
    assert abs(in_d.r2 - c.delta / (c.alpha * c.beta)) < 1e-12
    chi = plane.chi_factors(c)
    lam_in_d = plane.convert_coords(plane.PlaneCoords(1.0, 1.0, "M"), "D", c)
    assert abs(lam_in_d.r1 - chi.chi1) < 1e-12
    assert abs(lam_in_d.r2 - chi.chi2) < 1e-12
    in_m = plane.convert_coords(ident, "M", c)
    assert abs(in_m.r1 - 1.0 / (c.epsilon * c.omega)) < 1e-12
    assert abs(in_m.r2 - c.epsilon / c.zeta) < 1e-12


def test_base_phase_does_not_change_class(rng):
    opt = lounesto.ClassifyOptions()
    base = random_rim_bases(rng, 1)[0]
    r1, r2 = 0.7 - 0.2j, 1.1 + 0.9j
    plain = plane.apply_operator(plane.make_operator(r1, r2), base)
    rotated = plane.apply_operator(plane.make_operator(r1, r2), np.exp(0.83j) * base)
    assert lounesto.classify(bilinear.compute(plain), opt) == lounesto.classify(
        bilinear.compute(rotated), opt
    )


seeds = st.integers(min_value=0, max_value=2**32 - 1)
decades = st.floats(min_value=-3.0, max_value=3.0)
phases = st.floats(min_value=0.0, max_value=2 * np.pi)


@given(seed=seeds, d1=decades, d2=decades, p1=phases, p2=phases)
@settings(deadline=None, max_examples=200)
def test_decompose_recovers_block_scale_coordinates(seed, d1, d2, p1, p2):
    base = random_rim_bases(np.random.default_rng(seed), 1)[0]
    r1, r2 = 10.0**d1 * np.exp(1j * p1), 10.0**d2 * np.exp(1j * p2)
    coords = plane.decompose(plane.block_scale(base, r1, r2), base)
    assert abs(coords.r1 - r1) <= 1e-12 * abs(r1)
    assert abs(coords.r2 - r2) <= 1e-12 * abs(r2)


@given(seed=seeds, n=st.integers(min_value=1, max_value=8))
@settings(deadline=None, max_examples=50)
def test_block_scale_stack_matches_apply_operator_rows(seed, n):
    gen = np.random.default_rng(seed)
    psis = random_spinor(gen, n)
    c1, c2 = random_spinor(gen, n)[:, :2].T
    stacked = plane.block_scale(psis, c1, c2)
    assert stacked.shape == (n, 4) and stacked.dtype == complex
    for i in range(n):
        row = plane.apply_operator(plane.make_operator(c1[i], c2[i]), psis[i])
        assert np.array_equal(stacked[i], row)


def assert_decompose_batch_matches_decompose(psis, base):
    """Checks every row against the scalar route; returns the failed rows'
    error types by row index."""
    coords, residuals, failures = plane.decompose_batch(psis, base)
    n = psis.shape[0]
    assert coords.shape == residuals.shape == (n, 2)
    for i in range(n):
        try:
            c = plane.decompose(psis[i], base)
        except (NotInPlane, DegenerateBasis) as exc:
            got = failures[i]
            assert (type(got), str(got)) == (type(exc), str(exc)), f"row {i}"
            continue
        assert i not in failures, f"row {i}: batch error {failures[i]!r}"
        assert coords[i].tobytes() == np.array([c.r1, c.r2]).tobytes()
        # the block residuals the decompose report carries, computed per row
        want = [np.linalg.norm(blk(psis[i]) - r * blk(base)) for blk, r in ((block1, c.r1), (block2, c.r2))]
        assert residuals[i].tobytes() == np.array(want).tobytes()
    return {i: type(exc) for i, exc in failures.items()}


@given(seed=seeds, n=st.integers(min_value=8, max_value=35))
@settings(deadline=None, max_examples=100)
def test_decompose_batch_matches_decompose_bit_for_bit(seed, n):
    gen = np.random.default_rng(seed)
    base = random_rim_bases(gen, 1)[0]
    cov = bilinear.compute(base)
    r1, r2, _ = coordinate_rows(gen, float(np.real(cov.A)), float(np.real(cov.B)), n)
    psis = plane.block_scale(base, r1, r2)
    noise = plane.block_scale(random_spinor(gen, n), 1e-10 * np.abs(r1), 1e-10 * np.abs(r2))
    psis[1::4] += noise[1::4]  # in the plane within DECOMPOSE_TOL, with residuals
    psis[::4] = (random_spinor(gen, n) * 10.0 ** gen.uniform(-3, 3, (n, 1)))[::4]  # off the plane
    failed = assert_decompose_batch_matches_decompose(psis, base)
    assert failed == {i: NotInPlane for i in range(0, n, 4)}


@pytest.mark.parametrize("base", [[0, 0, 1.0, 0.5j], [1.0, 0.5j, 0, 0]], ids=["block1", "block2"])
def test_decompose_batch_on_a_base_with_a_vanishing_block(base, rng):
    base = np.array(base, dtype=complex)
    psis = np.concatenate([plane.block_scale(base, 2.0, 3.0)[None], random_spinor(rng, 6), np.zeros((1, 4))])
    failed = assert_decompose_batch_matches_decompose(psis, base)
    assert sorted(failed) == list(range(len(psis)))
    assert failed[0] is failed[len(psis) - 1] is DegenerateBasis


@pytest.mark.parametrize("width", [2, 4])
def test_row_norms_equal_the_norm_of_each_row_bit_for_bit(width, rng):
    # in-plane residuals carry few significant bits, so their squares are
    # exact and do not tell summation orders apart; full-precision rows do
    x = random_spinor(rng, 2000)[:, :width] * 10.0 ** rng.uniform(-3, 3, (2000, 1))
    want = np.array([np.linalg.norm(row) for row in x])
    assert plane._row_norms(x).tobytes() == want.tobytes()
