import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import bilinear, homotopy, lounesto, plane
from spinorlab.errors import BasisMismatch, DegenerateParameter, InvalidBase, ZeroDecomposition
from spinorlab.generators import random_rim_bases
from spinorlab.homotopy import CoordFunction
from spinorlab.spinor import DEFAULT_TOL

from conftest import COORDINATE_KINDS, coordinate_rows, random_spinor


def test_basis_homotopy_multiplier_segment():
    path = homotopy.basis_homotopy(CoordFunction(1.0), CoordFunction(0.2 - 0.4j))
    for t in (0.0, 0.3, 0.5, 1.0):
        expected = (1 - t) * 1.0 + t * (0.2 - 0.4j)
        assert homotopy.multiplier_at(path, t) == expected


def test_constant_path_when_endpoints_match():
    f = CoordFunction(0.7 + 0.1j)
    path = homotopy.basis_homotopy(f, f)
    for t in (0.0, 0.25, 0.8):
        assert abs(homotopy.multiplier_at(path, t) - f.w) < 1e-15
    assert path.degenerate_t is None


def test_degenerate_parameter_antipodal():
    path = homotopy.basis_homotopy(CoordFunction(1.0), CoordFunction(-1.0))
    assert path.degenerate_t == pytest.approx(0.5, abs=1e-15)


def test_degenerate_parameter_absent_for_complex_pairs():
    path = homotopy.basis_homotopy(CoordFunction(1.0), CoordFunction(1j))
    assert path.degenerate_t is None


def test_a_path_into_a_zero_multiplier_has_no_interior_degenerate_t():
    """A path into w = 0 (a type-6 end) vanishes at the end t = 1, not inside,
    though numpy's wf / wf rounds below 1 for some wf."""
    wf = np.random.default_rng(0).normal(size=(2000, 2)) @ np.array([1.0, 1j])
    assert np.count_nonzero((wf / wf).real < 1.0) > 100  # the rounding this guards against
    path = homotopy.basis_homotopy(CoordFunction(wf), CoordFunction(np.zeros_like(wf)))
    assert np.isnan(path.degenerate_t).all()
    assert all(homotopy.basis_homotopy(CoordFunction(w), CoordFunction(0j)).degenerate_t is None for w in wf[:300])


def test_sample_basis_endpoints(rng):
    base = random_rim_bases(rng, 1)[0]
    wf, wg = 1.0, 0.3 + 0.9j
    path = homotopy.basis_homotopy(CoordFunction(wf), CoordFunction(wg))
    pair0, coords0 = homotopy.sample_basis(path, base, 0.0)
    assert np.max(np.abs((pair0[0] + pair0[1]) - (base[:2].tolist() + (wf * base[2:]).tolist()))) < 1e-15
    assert abs(coords0.r2 / coords0.r1 - 1.0) < 1e-12
    pair1, _ = homotopy.sample_basis(path, base, 1.0)
    assert np.max(np.abs(pair1[1][2:] - wg * base[2:])) < 1e-15


def test_sample_basis_midpoint_ratio(rng):
    base = random_rim_bases(rng, 1)[0]
    path = homotopy.basis_homotopy(CoordFunction(1.0), CoordFunction(0.1 - 0.7j))
    for t in (0.25, 0.5, 0.75):
        _, coords = homotopy.sample_basis(path, base, t)
        assert abs(coords.r2 / coords.r1 - 1.0) < 1e-10


def test_sample_basis_raises_at_degenerate_t(rng):
    base = random_rim_bases(rng, 1)[0]
    path = homotopy.basis_homotopy(CoordFunction(1.0), CoordFunction(-1.0))
    with pytest.raises(DegenerateParameter):
        homotopy.sample_basis(path, base, 0.5)
    homotopy.sample_basis(path, base, 0.25)  # fine away from the zero


def test_sample_basis_rejects_bad_t(rng):
    base = random_rim_bases(rng, 1)[0]
    path = homotopy.basis_homotopy(CoordFunction(1.0), CoordFunction(2.0))
    with pytest.raises(ValueError):
        homotopy.sample_basis(path, base, 1.5)


def test_spinor_homotopy_endpoints_bitwise(rng):
    for _ in range(200):
        z = random_spinor(rng)
        psi_c = plane.PlaneCoords(z[0], z[1], "B")
        phi_c = plane.PlaneCoords(z[2], z[3], "B")
        path = homotopy.spinor_homotopy(psi_c, phi_c)
        e0 = homotopy.eval_path(path, psi_c.r1, 0.0)
        e1 = homotopy.eval_path(path, phi_c.r1, 1.0)
        assert abs(e0.r1 - psi_c.r1) == 0.0
        assert abs(e0.r2 - psi_c.r2) == 0.0
        assert abs(e1.r1 - phi_c.r1) == 0.0
        assert abs(e1.r2 - phi_c.r2) == 0.0


COMPLEX = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def _bits(z) -> bytes:
    return np.asarray(z, dtype=complex).tobytes()


@given(num=COMPLEX, den=COMPLEX, x=COMPLEX, wf=COMPLEX, s=st.floats(1e-3, 1e3))
@settings(deadline=None, max_examples=200)
def test_paths_take_numpys_complex_arithmetic(num, den, x, wf, s):
    """Off its anchor a coordinate function is numpy's num * (x / den), its
    multiplier numpy's num / den, and an interior degenerate parameter the
    real part of numpy's wf / (wf - wg): one arithmetic for every module."""
    if x == den:
        x = -x  # off the anchor; x = den = 0 cannot be drawn
    f = CoordFunction(num, den)
    assert _bits(f(x)) == _bits(np.array([num]) * (np.array([x]) / np.array([den])))
    assert _bits(f.w) == _bits(np.array([num]) / np.array([den]))
    path = homotopy.basis_homotopy(CoordFunction(wf), CoordFunction(-s * wf))
    wf, wg = np.array([path.f.w]), np.array([path.g.w])
    assert path.degenerate_t is not None  # t = 1 / (1 + s), up to rounding
    assert np.float64(path.degenerate_t).tobytes() == (wf / (wf - wg)).real.tobytes()


def test_spinor_homotopy_symmetry_dyadic(rng):
    z = random_spinor(rng)
    fwd = homotopy.spinor_homotopy(plane.PlaneCoords(z[0], z[1]), plane.PlaneCoords(z[2], z[3]))
    bwd = homotopy.spinor_homotopy(plane.PlaneCoords(z[2], z[3]), plane.PlaneCoords(z[0], z[1]))
    for t in (0.25, 0.5, 0.75):
        a = homotopy.eval_path(fwd, z[0], t)
        b = homotopy.eval_path(bwd, z[0], 1.0 - t)
        assert abs(a.r2 - b.r2) < 1e-12


def test_spinor_homotopy_basis_mismatch():
    with pytest.raises(BasisMismatch):
        homotopy.spinor_homotopy(plane.PlaneCoords(1, 1, "B"), plane.PlaneCoords(1, 1, "D"))


def test_spinor_homotopy_rejects_vertical_endpoint():
    with pytest.raises(DegenerateParameter):
        homotopy.spinor_homotopy(plane.PlaneCoords(0.0, 1.0), plane.PlaneCoords(1.0, 1.0))


def test_class_transition_type1_to_type6(rng):
    base = random_rim_bases(rng, 1)[0]
    cov = bilinear.compute(base)
    A, B = float(np.real(cov.A)), float(np.real(cov.B))
    path = homotopy.spinor_homotopy(
        plane.PlaneCoords(1.0 + 0j, 0.8 + 0j), plane.PlaneCoords(1.0 + 0j, 0.0 + 0j)
    )
    # interior stays regular: the ratio conditions are invariant along this path
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        coords = homotopy.eval_path(path, 1.0 + 0j, t)
        assert (
            lounesto.classify_by_coefficients(coords.r1, coords.r2, A, B, DEFAULT_TOL)
            == lounesto.LounestoClass.TYPE1
        )
    (t_star,), (before,), (after,), _ = homotopy.class_transition(path, A, B, DEFAULT_TOL)
    assert before == lounesto.LounestoClass.TYPE1
    assert after == lounesto.LounestoClass.TYPE6
    assert 0.9 < t_star <= 1.0


def test_class_transition_none_for_constant_class(rng):
    base = random_rim_bases(rng, 1)[0]
    cov = bilinear.compute(base)
    A, B = float(np.real(cov.A)), float(np.real(cov.B))
    path = homotopy.spinor_homotopy(
        plane.PlaneCoords(1.0 + 0j, 0.5 + 0j), plane.PlaneCoords(1.0 + 0j, 2.0 + 0j)
    )
    (t_star,), (before,), (after,), grid = homotopy.class_transition(path, A, B, DEFAULT_TOL)
    assert np.isnan(t_star)
    assert before == after == lounesto.LounestoClass.TYPE1
    assert grid.shape == (11, 1) and np.all(grid == before)


def _path_ends(gen, A, B):
    """(r1, r2) of a path's from- and to-end: two kinds of ``coordinate_rows``
    other than both-zero, so that paths run from or into the type-2/3
    surfaces and the zero band, or stay in one class, with |r| from 1e-6
    to 1e3."""
    r1, r2, _ = coordinate_rows(gen, A, B, len(COORDINATE_KINDS))
    pick = gen.choice(COORDINATE_KINDS.index("all_zero"), 2)
    scale = 10.0 ** gen.uniform(-3.0, 0.0, 2)
    return r1[pick] * scale, r2[pick] * scale


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), steps=st.sampled_from([1, 2, 7, 10, 37]))
@settings(deadline=None, max_examples=40)
def test_class_transition_over_paths_is_each_path_alone(seed, n, steps):
    gen = np.random.default_rng(seed)
    cov = bilinear.compute_batch(random_rim_bases(gen, n))
    A, B = cov["A"].real, cov["B"].real
    r1, r2 = np.moveaxis(np.array([_path_ends(gen, A[i], B[i]) for i in range(n)]), 1, 0)  # (n, 2 ends) each
    paths = homotopy.spinor_homotopy(plane.PlaneCoords(r1[:, 0], r2[:, 0]), plane.PlaneCoords(r1[:, 1], r2[:, 1]))
    together = homotopy.class_transition(paths, A, B, DEFAULT_TOL, steps, x=r1[:, 0])
    for i in range(n):
        path = homotopy.spinor_homotopy(plane.PlaneCoords(r1[i, 0], r2[i, 0]), plane.PlaneCoords(r1[i, 1], r2[i, 1]))
        alone = homotopy.class_transition(path, A[i], B[i], DEFAULT_TOL, steps, x=r1[i, 0])
        for k, (rows, one) in enumerate(zip(together, alone)):
            assert rows[..., i].tobytes() == one[..., 0].tobytes(), f"path {i}, output {k}"
        points = [homotopy.eval_path(path, r1[i, 0], j / steps) for j in range(steps + 1)]
        scalar = [lounesto.classify_by_coefficients(c.r1, c.r2, A[i], B[i], DEFAULT_TOL) for c in points]
        grid = alone[3][:, 0]
        assert grid.tolist() == scalar
        changes = np.flatnonzero(grid[1:] != grid[:-1])
        t_star, before, after = (v[0] for v in alone[:3])
        if changes.size == 0:
            assert np.isnan(t_star) and before == after == grid[0]
        else:
            j = changes[0]
            assert (before, after) == (grid[j], grid[j + 1])
            assert j / steps <= t_star <= (j + 1) / steps


def test_class_transition_raises_the_scalar_error_without_a_row():
    path = homotopy.spinor_homotopy(plane.PlaneCoords(1.0 + 0j, 0.5 + 0j), plane.PlaneCoords(1.0 + 0j, 2.0 + 0j))
    with pytest.raises(InvalidBase) as scalar:
        lounesto.classify_by_coefficients(1.0, 0.5, 1.0, 0.0, DEFAULT_TOL)
    with pytest.raises(InvalidBase) as swept:
        homotopy.class_transition(path, np.array([1.0, 1.0]), np.array([1.0, 0.0]), DEFAULT_TOL)
    assert str(swept.value) == str(scalar.value)
    # paths are taken one after another: path 0 fails only at t = 1 (r1 below
    # the zero test, r2 = 0), still before path 1, whose base fails everywhere
    path = homotopy.spinor_homotopy(plane.PlaneCoords(1e-10 + 0j, 0.5 + 0j), plane.PlaneCoords(1e-10 + 0j, 0j))
    with pytest.raises(ZeroDecomposition, match="^r1 = r2 = 0 is not a decomposition$"):
        homotopy.class_transition(path, np.array([1.0, 1.0]), np.array([1.0, 0.0]), DEFAULT_TOL, x=1e-10 + 0j)
