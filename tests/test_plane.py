import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinorlab import bilinear, lounesto, plane, rim, spinor
from spinorlab.errors import (
    DegenerateB,
    DegenerateBasis,
    DegenerateRealPart,
    IntegrabilityViolation,
    InvalidBase,
    NonInvertible,
    NotInPlane,
    ZeroCoefficient,
)
from spinorlab.generators import random_rim_bases, random_valid_params
from spinorlab.spinor import DEFAULT_TOL, block1, block2

from conftest import MANTISSAS, coordinate_rows, random_spinor

PARAMS = rim.validate(0.7 + 0.4j, 0.7 - 0.9j)


def unit_current_bilinears():
    # A = 0.6, B = 0.8 gives J = 1
    return bilinear.from_scalars(0.6, 0.8, [1.0, 0, 0, 0], [0.0] * 4, np.zeros((4, 4)))


def coefficients(M=1.0, m=0.5, theta=0.7, sign=+1, bil=None, params=PARAMS):
    bil = bil or unit_current_bilinears()
    return plane.coefficient_set(params, bil.A.real, bil.B.real, M, m, theta, sign)


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
        c = plane.coefficient_set(params, bil.A.real, bil.B.real, 1.3, 0.8, 1.1, sign)
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
        plane.coefficient_set(p, 0.6, 0.8, 1.0, 1.0, 0.5, +1)


def test_chi_factors_identity_coefficients():
    c = plane.CoefficientSet(alpha=1, beta=1, delta=1, epsilon=1, omega=1, zeta=1, J=1)
    m = plane.m_operator(c)
    assert m.c1 == 1 and m.c2 == 1


def test_chi_factors_roundtrip(rng):
    for base in random_rim_bases(rng, 50):
        c = coefficients(bil=bilinear.compute(base))
        m = plane.m_operator(c)
        m_inv = plane.inverse_operator(m)
        assert abs(m.c1 * m_inv.c1 - 1) < 1e-12
        assert abs(m.c2 * m_inv.c2 - 1) < 1e-12


def test_chi_factors_zero_coefficient():
    c = plane.CoefficientSet(alpha=0, beta=1, delta=1, epsilon=1, omega=1, zeta=1, J=1)
    with pytest.raises(ZeroCoefficient):
        plane.m_operator(c)


def test_chi_closed_form(rng):
    """The expanded closed form (with the corrected log-term sign)."""
    bases = random_rim_bases(rng, 100)
    a_arr, b_arr = random_valid_params(rng, 100)
    for i, base in enumerate(bases):
        params = rim.validate(a_arr[i], b_arr[i])
        bil = bilinear.compute(base)
        sign = 1 if i % 3 else -1
        M, m, theta = 0.9, 1.2, 0.8
        c = plane.coefficient_set(params, bil.A.real, bil.B.real, M, m, theta, sign)
        chi = plane.m_operator(c)
        amib = bil.A - 1j * bil.B
        closed1 = c.delta ** (params.rho - 1) * np.exp(
            (1 / (2 * params.a.real))
            * (sign * m * math.sin(theta) / (2 * amib) + 1j * (params.a.imag * math.log(c.J) - M / c.J))
        )
        closed2 = c.delta ** (1 - params.rho) * np.exp(
            (1 / (2 * params.a.real))
            * (sign * m * math.sin(theta) / (2 * np.conj(amib)) + 1j * (params.a.imag * math.log(c.J) - M / c.J))
        )
        assert abs(chi.c1 - closed1) < 1e-10 * max(1.0, abs(closed1))
        assert abs(chi.c2 - closed2) < 1e-10 * max(1.0, abs(closed2))


def test_operator_identity_and_apply():
    op = plane.MOperator(1.0, 1.0)
    psi = np.array([1, 2, 3, 4], dtype=complex)
    assert np.array_equal(plane.apply_operator(op, psi), psi)
    op = plane.MOperator(2.0, 3.0)
    assert np.array_equal(plane.apply_operator(op, np.ones(4)), [2, 2, 3, 3])
    assert np.array_equal(np.diag([op.c1, op.c1, op.c2, op.c2]) @ psi, plane.apply_operator(op, psi))


def test_operator_inverse_roundtrip(rng):
    psi = random_spinor(rng)
    op = plane.MOperator(2.0, 4.0)
    back = plane.apply_operator(plane.inverse_operator(op), plane.apply_operator(op, psi))
    assert np.max(np.abs(back - psi)) < 1e-14


def test_operator_noninvertible():
    with pytest.raises(NonInvertible):
        plane.inverse_operator(plane.MOperator(0.0, 1.0))


def test_operator_closure(rng):
    op = plane.compose_operators(plane.MOperator(2.0, 1j), plane.MOperator(0.5, -1j))
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
    c = plane.CoefficientSet(alpha=1, beta=1, delta=1, epsilon=1, omega=1, zeta=1, J=1)
    assert np.array_equal(plane.dirac_from_base(base, c), base)
    assert np.array_equal(plane.mdo_from_base(base, c), base)
    assert np.array_equal(plane.map_dirac_mdo(base, c), base)


def test_map_roundtrip_and_consistency(rng):
    bases = random_rim_bases(rng, 50)
    a_arr, b_arr = random_valid_params(rng, 50)
    for i, base in enumerate(bases):
        params = rim.validate(a_arr[i], b_arr[i])
        bil = bilinear.compute(base)
        c = plane.coefficient_set(params, bil.A.real, bil.B.real, 0.9, 1.1, 0.6, -1)
        psi_d = plane.dirac_from_base(base, c)
        lam = plane.mdo_from_base(base, c)
        mapped = plane.map_dirac_mdo(psi_d, c, "dirac-to-mdo")
        assert np.max(np.abs(mapped - lam)) < 1e-10 * max(1.0, np.linalg.norm(lam))
        back = plane.map_dirac_mdo(mapped, c, "mdo-to-dirac")
        assert np.max(np.abs(back - psi_d)) < 1e-12 * max(1.0, np.linalg.norm(psi_d))


def test_dirac_image_is_type1(rng):
    for base in random_rim_bases(rng, 100):
        c = coefficients(bil=bilinear.compute(base))
        cls = lounesto.classify(bilinear.compute(plane.dirac_from_base(base, c)), DEFAULT_TOL)
        assert cls == lounesto.LounestoClass.TYPE1


def test_decompose_identity_and_operator():
    base = np.array([1.0, 0.5j, -0.3, 0.8], dtype=complex)
    coords = plane.decompose(base, base)
    assert coords.r1 == pytest.approx(1.0, abs=1e-14)
    assert coords.r2 == pytest.approx(1.0, abs=1e-14)
    made = plane.apply_operator(plane.MOperator(2.0, 3j), base)
    coords = plane.decompose(made, base)
    assert coords.r1 == pytest.approx(2.0, abs=1e-12)
    assert coords.r2 == pytest.approx(3j, abs=1e-12)


def test_decompose_tolerates_noise_in_zero_block():
    base = np.array([1.0, 0.5j, -0.3, 0.8], dtype=complex)
    noisy = plane.apply_operator(plane.MOperator(0.7, 0.0), base)
    noisy = noisy + np.array([0, 0, 1e-17, -1e-17j])
    coords = plane.decompose(noisy, base)
    assert coords.r1 == pytest.approx(0.7, abs=1e-12)
    assert abs(coords.r2) < 1e-12


def test_map_operator_projector_form(rng):
    from spinorlab.clifford import projector

    base = random_rim_bases(rng, 1)[0]
    c = coefficients(bil=bilinear.compute(base))
    op = plane.m_operator(c)
    # chi1 multiplies the first-coordinate (top) block
    expected = op.c1 * projector(1) + op.c2 * projector(2)
    assert np.allclose(np.diag([op.c1, op.c1, op.c2, op.c2]), expected)


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
    m = plane.m_operator(c)
    lam_in_d = plane.convert_coords(plane.PlaneCoords(1.0, 1.0, "M"), "D", c)
    assert abs(lam_in_d.r1 - m.c1) < 1e-12
    assert abs(lam_in_d.r2 - m.c2) < 1e-12
    in_m = plane.convert_coords(ident, "M", c)
    assert abs(in_m.r1 - 1.0 / (c.epsilon * c.omega)) < 1e-12
    assert abs(in_m.r2 - c.epsilon / c.zeta) < 1e-12


def test_base_phase_does_not_change_class(rng):
    base = random_rim_bases(rng, 1)[0]
    r1, r2 = 0.7 - 0.2j, 1.1 + 0.9j
    plain = plane.apply_operator(plane.MOperator(r1, r2), base)
    rotated = plane.apply_operator(plane.MOperator(r1, r2), np.exp(0.83j) * base)
    assert lounesto.classify(bilinear.compute(plain), DEFAULT_TOL) == lounesto.classify(
        bilinear.compute(rotated), DEFAULT_TOL
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
        row = plane.apply_operator(plane.MOperator(c1[i], c2[i]), psis[i])
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
    assert spinor.row_norms(x).tobytes() == want.tobytes()


@st.composite
def norm_vectors(draw):
    """(2,) and (4,) complex vectors with parts from 1e-300 to 1e300, all
    near one scale, so that the order of a sum shows in the last bit, or
    over all decades; in half of them, parts may be +-0, +-inf or NaN."""
    n = draw(st.sampled_from([2, 4]))
    shared = draw(st.integers(-300, 296))
    exponents = st.integers(shared, shared + 1) if draw(st.booleans()) else st.integers(-300, 296)
    value = st.builds(lambda m, e: m * 10.0**e, MANTISSAS, exponents)
    part = st.one_of(value, value.map(lambda x: -x))
    if draw(st.booleans()):
        part = st.one_of(part, st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
    return np.array([complex(draw(part), draw(part)) for _ in range(n)])


# reversed, this vector's squares sum to other bits in logical order than in
# the memory order np.linalg.norm's ravel adds them in
@given(x=norm_vectors())
@example(x=np.array([0.3, 0.7, 1.1, 1.3]) * np.exp(1j * np.array([1.0, 2.0, 3.0, 4.0])))
@settings(deadline=None, max_examples=200)
def test_decompose_norm_is_the_linalg_norm_bit_for_bit(x):
    # decompose takes each norm with two dot products and math.sqrt, without
    # np.linalg.norm's dispatch; the bits must be np.linalg.norm's, for
    # complex and real vectors, contiguous, strided or reversed
    strided = np.repeat(x, 2)[::2]
    for v in (x, strided, x[::-1], x.real.copy(), x.real[::-1]):
        with np.errstate(all="ignore"):
            got, want = plane._norm(v), np.linalg.norm(v)
        assert type(got) is float
        assert math.isnan(got) == math.isnan(want)
        assert math.isnan(got) or np.float64(got).tobytes() == want.tobytes()


def test_decompose_of_an_integer_spinor_is_that_of_its_floats():
    # int64 squares of 4e9 wrap; np.linalg.norm measures such a vector in floats
    base = np.array([2, 1, 3, -1]) * 10**9
    psi = plane.block_scale(base, 2.0, -1.0).real.astype(np.int64)
    for x, b in ((psi, base), (base, base)):
        assert plane.decompose(x, b) == plane.decompose(x.astype(float), b.astype(float))


# the norm of a spinor scaled by this power of two overflows a double; the
# scaling itself is exact, so the coordinates and residuals scale with it
HUGE = 2.0**700


def _routes(psi, base):
    """(coordinates, residuals, error message) of one row from
    decompose_batch, after checking that decompose gives the same
    coordinates bit for bit, or raises the same error."""
    coords, residuals, failures = plane.decompose_batch(psi[None], base)
    try:
        c = plane.decompose(psi, base)
    except NotInPlane as exc:
        assert str(failures[0]) == str(exc)
        return coords[0], residuals[0], str(exc)
    assert not failures
    assert coords[0].tobytes() == np.array([c.r1, c.r2]).tobytes()
    return coords[0], residuals[0], None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decompose_of_an_in_plane_row_whose_norm_overflows(rng):
    base = random_rim_bases(rng, 1)[0]
    psi = plane.block_scale(base, 2.0 - 0.5j, 0.3 + 1.1j)
    coords, residuals, error = _routes(psi, base)
    big_coords, big_residuals, big_error = _routes(psi * HUGE, base)
    assert error is big_error is None
    assert big_coords.view(float).tolist() == (coords.view(float) * HUGE).tolist()
    assert big_residuals.tolist() == (residuals * HUGE).tolist()
    # a decimal scale is not exact, but the row stays in the plane
    c, res, error = _routes(psi * 1e200, base)
    assert error is None and np.all(np.isfinite(res))
    assert np.allclose(c, [2e200 - 5e199j, 3e199 + 1.1e200j], rtol=1e-14, atol=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decompose_against_a_base_whose_norm_overflows(rng):
    base = random_rim_bases(rng, 1)[0]
    psi = plane.block_scale(base, 2.0 - 0.5j, 0.3 + 1.1j)
    coords, residuals, _ = _routes(psi, base)
    big_coords, big_residuals, error = _routes(psi, base * HUGE)
    assert error is None
    assert big_coords.view(float).tolist() == (coords.view(float) / HUGE).tolist()
    assert big_residuals.tolist() == residuals.tolist()
    c, _, error = _routes(psi, base * 1e200)
    assert error is None
    assert np.allclose(c, [2e-200 - 5e-201j, 3e-201 + 1.1e-200j], rtol=1e-14, atol=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decompose_rejects_an_off_plane_row_whose_norm_overflows():
    base = np.array([0.6 - 0.2j, 0.3 + 0.9j, 0.1, -0.7j])
    off = np.array([1.0, 0.5j, 0.0, 1.0])
    _, _, error = _routes(off, base)
    _, _, big_error = _routes(off * 1e200, base)
    assert error.startswith("block residual") and big_error.startswith("block residual")
    with pytest.raises(NotInPlane):
        plane.decompose(np.array([1e200, 5e199j, 0.0, 1e200]), base)


# ---------------------------------------------------------------------------
# the maps over (n,) arrays: row i of an array call is the scalar call on row i


def _wide_rows(seed, n):
    """n rows of map inputs: couplings as random_valid_params draws them,
    |A|, |B| in [1e-3, 1e3] of either sign, M in [1e-3, 1e3], theta over the
    circle, both signs, and spinors and coordinates over six decades.
    m = u * 4 Re(a) J with u in [0, 4] keeps |ln omega| and |ln zeta| below
    4, so m_operator accepts every row whatever J."""
    gen = np.random.default_rng(seed)
    a, b = random_valid_params(gen, n)
    A, B = 10.0 ** gen.uniform(-3, 3, (2, n)) * gen.choice([-1.0, 1.0], (2, n))
    return {
        "a": a,
        "b": b,
        "A": A,
        "B": B,
        "M": 10.0 ** gen.uniform(-3, 3, n),
        "m": gen.uniform(0.0, 4.0, n) * 4.0 * a.real * np.hypot(A, B),
        "theta": gen.uniform(0.0, 2 * np.pi, n),
        "sign": gen.choice([-1, 1], n),
        "psi": random_spinor(gen, n) * 10.0 ** gen.uniform(-3, 3, (n, 1)),
        "r1": random_spinor(gen, n)[:, 0] * 10.0 ** gen.uniform(-3, 3, n),
        "r2": random_spinor(gen, n)[:, 0] * 10.0 ** gen.uniform(-3, 3, n),
    }


def _row(x, i):
    return {key: value[i] for key, value in x.items()}


def _plane_maps(x):
    """Every plane map of one set of inputs (scalars or (n,) arrays), by name."""
    params = rim.validate(x["a"], x["b"])
    c = plane.coefficient_set(params, x["A"], x["B"], x["M"], x["m"], x["theta"], x["sign"])
    out = {f"coefficient_set.{key}": value for key, value in vars(c).items()}
    for name, op in (("l", plane.l_operator(c)), ("q", plane.q_operator(c)), ("m", plane.m_operator(c))):
        inv = plane.inverse_operator(op)
        for key, o in ((name, op), (f"{name}^-1", inv), (f"{name} {name}^-1", plane.compose_operators(op, inv))):
            out[key] = np.stack([o.c1, o.c2], axis=-1)
    out["dirac_from_base"] = plane.dirac_from_base(x["psi"], c)
    out["mdo_from_base"] = plane.mdo_from_base(x["psi"], c)
    for direction in ("dirac-to-mdo", "mdo-to-dirac"):
        out[direction] = plane.map_dirac_mdo(x["psi"], c, direction)
    for src in "BDM":
        for dst in "BDM":
            to = plane.convert_coords(plane.PlaneCoords(x["r1"], x["r2"], src), dst, c)
            out[f"convert_coords {src}->{dst}"] = np.stack([to.r1, to.r2], axis=-1)
    return out


@given(seed=seeds, n=st.integers(min_value=1, max_value=12))
@settings(deadline=None, max_examples=60)
def test_plane_maps_of_an_array_equal_the_maps_of_each_row_bit_for_bit(seed, n):
    x = _wide_rows(seed, n)
    batch = _plane_maps(x)
    rows = [_plane_maps(_row(x, i)) for i in range(n)]
    for name, value in batch.items():
        want = np.array([row[name] for row in rows])
        got = np.asarray(value)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


def _break_row(x, k, error):
    """A copy of x whose row k fails the guard that raises ``error``."""
    x = {key: value.copy() for key, value in x.items()}
    if error is IntegrabilityViolation:
        x["b"][k] += 0.25
    elif error is DegenerateB:
        x["b"][k] = x["b"][k].real
    elif error is InvalidBase:
        x["A"][k] = 0.0
    elif error is DegenerateRealPart:
        x["a"][k] -= x["a"][k].real
        x["b"][k] -= x["b"][k].real
    else:
        x["sign"][k] = 0
    return x


@pytest.mark.parametrize(
    "error",
    [IntegrabilityViolation, DegenerateB, InvalidBase, DegenerateRealPart, ValueError],
    ids=lambda e: e.__name__,
)
@given(seed=seeds, n=st.integers(min_value=3, max_value=12))
@settings(deadline=None, max_examples=20)
def test_an_invalid_row_in_the_middle_of_an_array_is_named(error, seed, n):
    k = n // 2
    x = _break_row(_wide_rows(seed, n), k, error)
    with pytest.raises(error) as from_row:
        _plane_maps(_row(x, k))
    with pytest.raises(error) as from_array:
        _plane_maps(x)
    assert str(from_array.value) == f"row {k}: {from_row.value}"


def test_a_zero_coefficient_or_block_scalar_names_its_row():
    x = _wide_rows(7, 5)
    c = plane.coefficient_set(rim.validate(x["a"], x["b"]), x["A"], x["B"], x["M"], x["m"], x["theta"], x["sign"])
    zero_at_2 = np.arange(5) == 2
    with pytest.raises(ZeroCoefficient, match=r"^row 2: all six coefficients must be nonzero$"):
        plane.m_operator(dataclasses.replace(c, omega=np.where(zero_at_2, 0.0, c.omega)))
    with pytest.raises(NonInvertible, match=r"^row 2: block scalar vanishes$"):
        plane.inverse_operator(plane.MOperator(c1=np.ones(5), c2=np.where(zero_at_2, 0.0, 1.0)))
