import warnings

import numpy as np
import pytest

from spinorlab import bilinear, lounesto
from spinorlab.errors import (
    AmbiguousScale,
    InconsistentBilinears,
    InvalidBase,
    NullCurrent,
    ZeroDecomposition,
)
from spinorlab.generators import random_rim_bases
from spinorlab.lounesto import LounestoClass
from spinorlab.spinor import DEFAULT_TOL, DualKind


def synth(A, B, K, S_nonzero):
    S = np.zeros((4, 4))
    if S_nonzero:
        S[0, 1], S[1, 0] = 1.0, -1.0
    return bilinear.from_scalars(A, B, [1.0, 0, 0, 0], [K, 0, 0, 0], S)


@pytest.mark.parametrize(
    "A,B,K,S_nonzero,expected",
    [
        (1.0, 1.0, 1.0, True, LounestoClass.TYPE1),
        (1.0, 0.0, 1.0, True, LounestoClass.TYPE2),
        (0.0, 1.0, 1.0, True, LounestoClass.TYPE3),
        (0.0, 0.0, 1.0, True, LounestoClass.TYPE4),
        (0.0, 0.0, 0.0, True, LounestoClass.TYPE5),
        (0.0, 0.0, 1.0, False, LounestoClass.TYPE6),
    ],
)
def test_class_table(A, B, K, S_nonzero, expected):
    assert lounesto.classify(synth(A, B, K, S_nonzero), DEFAULT_TOL) == expected
    assert expected.regular == (expected <= 3)


def test_basis_spinor_is_type6():
    b = bilinear.compute(np.array([1, 0, 0, 0], dtype=complex))
    assert lounesto.classify(b, DEFAULT_TOL) == LounestoClass.TYPE6


def test_classify_rejects_mdo_dual():
    b = bilinear.from_scalars(1.0, 1.0, [1, 0, 0, 0], [1, 0, 0, 0], np.zeros((4, 4)), dual=DualKind.MDO)
    with pytest.raises(ValueError):
        lounesto.classify(b, DEFAULT_TOL)


def test_classify_null_current():
    b = bilinear.from_scalars(0.0, 0.0, np.zeros(4), [1, 0, 0, 0], np.zeros((4, 4)))
    with pytest.raises(NullCurrent):
        lounesto.classify(b, DEFAULT_TOL)


def test_classify_zero_spinor():
    b = bilinear.from_scalars(0.0, 0.0, np.zeros(4), np.zeros(4), np.zeros((4, 4)), scale=0.0)
    with pytest.raises(AmbiguousScale):
        lounesto.classify(b, DEFAULT_TOL)


def test_classify_inconsistent_regular():
    b = bilinear.from_scalars(1.0, 1.0, [1, 0, 0, 0], np.zeros(4), np.zeros((4, 4)))
    with pytest.raises(InconsistentBilinears):
        lounesto.classify(b, DEFAULT_TOL)


def test_coefficients_single_zero_is_type6():
    assert lounesto.classify_by_coefficients(1.0, 0.0, 0.6, 0.8, DEFAULT_TOL) == LounestoClass.TYPE6
    assert lounesto.classify_by_coefficients(0.0, 1.0, 0.6, 0.8, DEFAULT_TOL) == LounestoClass.TYPE6


def test_coefficients_unit_pair_is_type1():
    assert lounesto.classify_by_coefficients(1.0, 1.0, 0.6, 0.8, DEFAULT_TOL) == LounestoClass.TYPE1


def test_coefficients_real_pair_is_type1():
    assert lounesto.classify_by_coefficients(2.0, -0.7, 0.6, 0.8, DEFAULT_TOL) == LounestoClass.TYPE1


def test_coefficients_double_zero_raises():
    with pytest.raises(ZeroDecomposition):
        lounesto.classify_by_coefficients(0.0, 0.0, 0.6, 0.8, DEFAULT_TOL)


def test_coefficients_invalid_base():
    with pytest.raises(InvalidBase):
        lounesto.classify_by_coefficients(1.0, 1.0, 0.0, 0.8, DEFAULT_TOL)
    with pytest.raises(InvalidBase):
        lounesto.classify_by_coefficients(1.0, 1.0, 0.6, 0.0, DEFAULT_TOL)


def _type2_pair(A, B, s=1.3):
    # z = r1 conj(r2) on the surface A*Im(z) = -B*Re(z)
    z = complex(-A * s, B * s)
    return 1.0 + 0j, np.conj(z)


def _type3_pair(A, B, s=0.9):
    # z on the surface A*Re(z) = B*Im(z)
    z = complex(B * s, A * s)
    return 1.0 + 0j, np.conj(z)


def test_constructed_type2_solution():
    A, B = 0.6, 0.8
    r1, r2 = _type2_pair(A, B)
    assert lounesto.classify_by_coefficients(r1, r2, A, B, DEFAULT_TOL) == LounestoClass.TYPE2


def test_constructed_type2_kills_pseudoscalar(rng):
    base = random_rim_bases(rng, 1)[0]
    cov = bilinear.compute(base)
    A, B = float(np.real(cov.A)), float(np.real(cov.B))
    r1, r2 = _type2_pair(A, B)
    psi = np.concatenate([r1 * base[:2], r2 * base[2:]])
    full = bilinear.compute(psi)
    assert abs(full.B) < 1e-10 * max(1.0, full.scale)
    assert abs(full.A) > 1e-6
    assert lounesto.classify(full, DEFAULT_TOL) == LounestoClass.TYPE2


def test_constructed_type3_kills_scalar(rng):
    base = random_rim_bases(rng, 1)[0]
    cov = bilinear.compute(base)
    A, B = float(np.real(cov.A)), float(np.real(cov.B))
    r1, r2 = _type3_pair(A, B)
    psi = np.concatenate([r1 * base[:2], r2 * base[2:]])
    full = bilinear.compute(psi)
    assert abs(full.A) < 1e-10 * max(1.0, full.scale)
    assert abs(full.B) > 1e-6
    assert lounesto.classify(full, DEFAULT_TOL) == LounestoClass.TYPE3
    assert lounesto.classify_by_coefficients(r1, r2, A, B, DEFAULT_TOL) == LounestoClass.TYPE3


def test_agreement_with_brute_force(rng):
    bases = random_rim_bases(rng, 300)
    for base in bases:
        cov = bilinear.compute(base)
        A, B = float(np.real(cov.A)), float(np.real(cov.B))
        r1 = complex(rng.standard_normal(), rng.standard_normal())
        r2 = complex(rng.standard_normal(), rng.standard_normal())
        psi = np.concatenate([r1 * base[:2], r2 * base[2:]])
        brute = lounesto.classify(bilinear.compute(psi), DEFAULT_TOL)
        fast = lounesto.classify_by_coefficients(r1, r2, A, B, DEFAULT_TOL)
        assert brute == fast
        assert fast not in (LounestoClass.TYPE4, LounestoClass.TYPE5)


def test_lemma4_direction(rng):
    bases = random_rim_bases(rng, 100)
    for base in bases:
        r1 = complex(rng.standard_normal(), rng.standard_normal())
        psi = np.concatenate([r1 * base[:2], 0.0 * base[2:]])
        full = bilinear.compute(psi)
        thr = 1e-9 * max(1.0, full.scale)
        assert np.max(np.abs(full.K)) > thr
        assert np.max(np.abs(full.S)) <= thr
        assert lounesto.classify(full, DEFAULT_TOL) == LounestoClass.TYPE6


def test_the_classifiers_read_their_tol():
    """Each input is a zero at tol = 1e-6 and not at the default 1e-9:
    B = -2e-7 at scale 1.89 for the covariant route, r2 = 5e-7 at r1 = 1
    for the coefficient route (near at 1e-7, within 10 tolerances)."""
    b = bilinear.compute(np.array([1, 0.2, 0.9, 0.2 + 5e-7j]))
    assert lounesto.classify(b) == LounestoClass.TYPE1
    assert lounesto.classify(b, tol=1e-6) == LounestoClass.TYPE2
    assert lounesto.classify_batch(b.rows, tol=1e-6)[0].tolist() == [2]
    A, B = 0.6, 0.8
    assert lounesto.classify_by_coefficients(1.0, 5e-7, A, B) == LounestoClass.TYPE1
    assert lounesto.classify_by_coefficients(1.0, 5e-7, A, B, tol=1e-6) == LounestoClass.TYPE6
    assert lounesto.classify_by_coefficients_batch(np.ones(1), np.full(1, 5e-7), A, B, tol=1e-6)[0].tolist() == [6]
    assert not lounesto.near_degenerate(1.0, 5e-7, A, B)
    assert lounesto.near_degenerate(1.0, 5e-7, A, B, tol=1e-7)


def _band_direction(A, B, eps=5e-9):
    """conj of the unit z whose type-2 ratio A + B Re z / Im z is eps."""
    z = complex((eps - A) / B, 1.0)
    return (z / abs(z)).conjugate()


def test_near_degenerate_flag():
    A, B = 0.6, 0.8
    r1, r2 = _type2_pair(A, B)
    # sit just outside the acceptance band of the type-2 surface
    r2_off = r2 * np.exp(1j * 4e-9)
    cls = lounesto.classify_by_coefficients(r1, r2_off, A, B, DEFAULT_TOL)
    assert cls == LounestoClass.TYPE1
    assert lounesto.near_degenerate(r1, r2_off, A, B, DEFAULT_TOL)
    assert not lounesto.near_degenerate(1.0, 1.0, A, B, DEFAULT_TOL)


@pytest.mark.parametrize(
    "r1, r2, A, B, error",
    [
        (1.0, 5e-9, 0.0, 1.0, InvalidBase),  # r2 in the zero test's near band
        (1e-10, 1e-10 * _band_direction(0.6, 0.8), 0.6, 0.8, ZeroDecomposition),  # the type-2 ratio in its near band
    ],
    ids=["invalid_base", "zero_decomposition"],
)
def test_near_degenerate_is_false_where_the_class_raises(r1, r2, A, B, error):
    """An error row has no near flag, as in the batch, even where an input
    lies in a near band."""
    with pytest.raises(error):
        lounesto.classify_by_coefficients(r1, r2, A, B, DEFAULT_TOL)
    assert lounesto.near_degenerate(r1, r2, A, B, DEFAULT_TOL) is False
    assert lounesto.classify_by_coefficients_batch(np.array([r1]), np.array([r2]), A, B)[2].tolist() == [False]


def test_numpy_scalars_classify_without_a_warning():
    """At z = 1 - 1e-300i, B Re z / Im z overflows a double for B = 1e10.
    The reference row casts A and B to Python complex numbers, so numpy
    scalars give the batch's type 1 and no flag, and no overflow warning, as
    Python floats do."""
    A = B = np.float64(1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lounesto.classify_by_coefficients(1.0, 1 + 1e-300j, A, B) is LounestoClass.TYPE1
        assert lounesto.near_degenerate(1.0, 1 + 1e-300j, A, B) is False
        row = lounesto.classify_by_coefficients_batch(np.ones(1), np.array([1 + 1e-300j]), A, B)
    assert [a.tolist() for a in row] == [[1], [0], [False]]


def test_complex_scalars_of_a_base_classify_as_in_the_batch():
    """``bilinear.compute`` gives A and B as Python complex numbers whose
    imaginary parts are rounding; the scalar views take them as the batch
    does, on a generic, a type-6 and a type-2 row."""
    for base in random_rim_bases(np.random.default_rng(5), 8):
        b = bilinear.compute(base)
        assert isinstance(b.A, complex) and isinstance(b.B, complex)
        for r1, r2 in [(1.3 - 0.4j, -0.7 + 0.2j), (1.0, 0.0), _type2_pair(b.A.real, b.B.real)]:
            classes, _, near = lounesto.classify_by_coefficients_batch(np.array([r1]), np.array([r2]), b.A, b.B)
            assert lounesto.classify_by_coefficients(r1, r2, b.A, b.B) == classes[0]
            assert lounesto.near_degenerate(r1, r2, b.A, b.B) == near[0]
