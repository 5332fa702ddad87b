import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import mdo, spinor
from spinorlab.errors import DegenerateXi

from conftest import random_spinor

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_dirac_dual_basis_vector():
    assert np.array_equal(spinor.dirac_dual(np.array([1, 0, 0, 0], dtype=complex)), [0, 0, 1, 0])


def test_dirac_dual_imaginary_component():
    d = spinor.dirac_dual(np.array([0, 0, 0, 1j]))
    assert np.allclose(d, [0, -1j, 0, 0])


def test_dirac_dual_contraction_is_real(rng):
    for _ in range(200):
        psi = random_spinor(rng)
        val = spinor.dirac_dual(psi) @ psi
        assert abs(val.imag) < 1e-12 * max(1.0, abs(val))


@given(re=finite, im=finite)
@settings(deadline=None, max_examples=50)
def test_dirac_dual_antilinear(re, im):
    alpha = complex(re, im)
    psi = np.array([0.3, -1.2j, 0.7 + 0.1j, 2.0])
    lhs = spinor.dirac_dual(alpha * psi)
    rhs = np.conj(alpha) * spinor.dirac_dual(psi)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, abs(alpha))


def test_mdo_dual_identity_xi_reduces_to_dirac(rng):
    psi = random_spinor(rng)
    assert np.allclose(spinor.mdo_dual(psi, np.eye(4)), spinor.dirac_dual(psi))


def test_mdo_dual_bound_scales_with_xi(rng):
    psi = random_spinor(rng)
    with pytest.raises(DegenerateXi):
        spinor.mdo_dual(psi, 2.0 * np.eye(4))
    xi = mdo.xi(mdo.Momentum(1.0, 1e5, 0.5, 0.2))  # entries ~ 2e5, Xi^2 - 1 ~ 1e-6
    assert np.max(np.abs(xi @ xi - np.eye(4))) > 1e-9
    assert np.all(np.isfinite(spinor.mdo_dual(psi, xi)))
    # an involution with an entry 1e4, so the bound is 1e-9 * 1e8 = 0.1
    big = np.eye(4, dtype=complex)
    big[:2, :2] = [[1.0, 1e4], [0.0, -1.0]]
    spinor.mdo_dual(psi, big + np.diag([1e-7, 0, 0, 0]))  # Xi^2 off by 1e-3
    with pytest.raises(DegenerateXi):
        spinor.mdo_dual(psi, big + np.diag([1e-4, 0, 0, 0]))  # off by 1


def test_scales_and_mdo_dual_on_a_stack_match_each_row(rng):
    psis = random_spinor(rng, 5)
    xi = mdo.xi(mdo.Momentum(1.0, 0.5, np.pi / 3, np.pi / 5))
    duals = spinor.mdo_dual(psis, xi)
    for i, psi in enumerate(psis):
        assert spinor.norm_sq(psis)[i] == spinor.norm_sq(psi)
        assert spinor.quad_scale(psis)[i] == spinor.quad_scale(psi)
        assert spinor.quartic_scale(psis)[i] == spinor.quartic_scale(psi)
        assert np.max(np.abs(duals[i] - spinor.mdo_dual(psi, xi))) <= 1e-15 * spinor.quad_scale(psi)


def test_mdo_dual_rejects_non_involution(rng):
    with pytest.raises(DegenerateXi):
        spinor.mdo_dual(random_spinor(rng), 2.0 * np.eye(4))


def test_mdo_dual_differs_from_dirac_on_constructed_spinor():
    mom = mdo.Momentum(1.0, 0.5, np.pi / 3, np.pi / 5)
    lam = mdo.elko(mom, +1, "S").spinor
    xi = mdo.xi(mom)
    mdo_val = spinor.mdo_dual(lam, xi) @ lam
    dirac_val = spinor.dirac_dual(lam) @ lam
    assert abs(mdo_val - dirac_val) > 0.1


def test_mdo_dual_involution_consistency(rng):
    mom = mdo.Momentum(1.0, 0.5, np.pi / 3, np.pi / 5)
    xi = mdo.xi(mom)
    lam = random_spinor(rng)
    lhs = spinor.mdo_dual(lam, xi) @ (xi @ xi @ lam)
    rhs = spinor.mdo_dual(lam, xi) @ lam
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_chiral_parts_split_and_recombine():
    psi = np.array([1, 2, 3, 4], dtype=complex)
    left, right = spinor.chiral_parts(psi)
    assert np.array_equal(left, [1, 2, 0, 0])
    assert np.array_equal(right, [0, 0, 3, 4])
    assert np.array_equal(left + right, psi)


def test_chiral_parts_zero_block(rng):
    psi = np.array([0, 0, 1.2, -0.5j])
    left, _ = spinor.chiral_parts(psi)
    assert np.max(np.abs(left)) == 0.0


def test_chiral_parts_idempotent(rng):
    from spinorlab.clifford import projector

    for _ in range(50):
        psi = random_spinor(rng)
        p1 = projector(1)
        assert np.array_equal(p1 @ (p1 @ psi), p1 @ psi)


def test_recombination_many(rng):
    psis = random_spinor(rng, 1000)
    for psi in psis:
        left, right = spinor.chiral_parts(psi)
        assert np.array_equal(left + right, psi)


def test_json_roundtrip_bit_exact(rng):
    import json

    for _ in range(100):
        psi = random_spinor(rng) * rng.uniform(1e-8, 1e8)
        blob = json.dumps(spinor.to_json(psi))
        back = spinor.from_json(json.loads(blob))
        assert np.array_equal(back, psi)


def test_from_json_rejects_wrong_length():
    with pytest.raises(ValueError):
        spinor.from_json({"re": [1, 2, 3], "im": [0, 0, 0]})


def test_as_spinor_rejects_nan():
    with pytest.raises(ValueError):
        spinor.as_spinor([np.nan, 0, 0, 0])
